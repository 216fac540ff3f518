//! Integration tests for the cell-parallel sweep engine: scheduler determinism
//! across job counts, per-cell panic isolation, and JSONL streaming + resume.

use std::fs;
use std::path::PathBuf;

use svw_cpu::{Cpu, LsqOrganization, MachineConfig, ReexecMode};
use svw_sim::jsonl::parse_cell_line;
use svw_sim::{run_cells, JsonlSink, RunOptions};
use svw_workloads::WorkloadProfile;

const LEN: usize = 2_000;

fn workloads() -> Vec<WorkloadProfile> {
    vec![
        WorkloadProfile::quicktest(),
        WorkloadProfile::by_name("gzip").unwrap(),
        WorkloadProfile::by_name("mcf").unwrap(),
    ]
}

fn configs() -> Vec<MachineConfig> {
    vec![
        MachineConfig::eight_wide(
            "base",
            LsqOrganization::Conventional {
                extra_load_latency: 0,
                store_exec_bandwidth: 1,
            },
            ReexecMode::None,
        ),
        MachineConfig::eight_wide(
            "nlq",
            LsqOrganization::Nlq {
                store_exec_bandwidth: 2,
            },
            ReexecMode::Full,
        ),
    ]
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svw-sched-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Byte-identical rendering of a cell list (workload, config, seed, full stats or
/// error), used to compare scheduler runs.
fn fingerprint(cells: &[svw_sim::ExperimentCell]) -> String {
    cells
        .iter()
        .map(|c| {
            format!(
                "{}|{}|{}|{}\n",
                c.workload,
                c.config,
                c.seed,
                c.stats().map(|s| format!("{s:?}")).unwrap_or_default()
            )
        })
        .collect()
}

/// The cell-parallel scheduler must produce byte-identical statistics to the plain
/// sequential path for the same matrix, regardless of the number of jobs. Workers
/// recycle their simulation arenas, so a recycled arena crosses cells with
/// different configurations, workloads, and seeds; any state leaking through a
/// reset would show up here as a fingerprint mismatch. A poisoned configuration
/// sits between the healthy ones: its cells panic while sharing their
/// `(workload, seed)` trace with healthy siblings, which must still match the
/// reference after the panicking worker discards its arena.
#[test]
fn scheduler_is_deterministic_across_job_counts_and_arena_reuse() {
    let workloads = workloads();
    let mut configs = configs();
    let mut poisoned = configs[0].clone();
    poisoned.name = "poisoned".to_string();
    poisoned.rob_size = 0; // MachineConfig::validate panics inside the cell
    configs.insert(1, poisoned);
    let seeds = [5u64, 6];

    // The sequential reference: a plain nested loop in canonical order, with a
    // panicking cell rendered like a failed one (no stats).
    let mut reference = String::new();
    for w in &workloads {
        for c in &configs {
            for &s in &seeds {
                let program = w.generate(LEN, s);
                let stats = std::panic::catch_unwind(|| Cpu::new(c.clone(), &program).run())
                    .map(|stats| format!("{stats:?}"))
                    .unwrap_or_default();
                reference.push_str(&format!("{}|{}|{}|{}\n", w.name, c.name, s, stats));
            }
        }
    }

    for jobs in [1usize, 4, 16] {
        let opts = RunOptions {
            jobs,
            ..RunOptions::default()
        };
        let result = run_cells("det", &workloads, &configs, LEN, &seeds, 0, &opts);
        assert_eq!(
            result.failures().count(),
            workloads.len() * seeds.len(),
            "exactly the poisoned cells fail at jobs={jobs}"
        );
        assert_eq!(
            fingerprint(&result.cells),
            reference,
            "scheduler output diverged from the sequential path at jobs={jobs}"
        );
    }
}

/// One poisoned cell (a configuration that panics inside the simulator) must be
/// recorded as failed while every other cell completes — the old engine aborted the
/// whole sweep on the first panicking worker.
#[test]
fn panicking_cell_is_isolated_and_the_sweep_completes() {
    let workloads = workloads();
    let mut configs = configs();
    let mut poisoned = configs[0].clone();
    poisoned.name = "poisoned".to_string();
    poisoned.rob_size = 0; // MachineConfig::validate panics inside the cell
    configs.push(poisoned);

    let result = run_cells(
        "panic",
        &workloads,
        &configs,
        LEN,
        &[1],
        0,
        &RunOptions::default(),
    );
    assert_eq!(result.cells.len(), workloads.len() * configs.len());
    for cell in &result.cells {
        if cell.config == "poisoned" {
            assert!(
                cell.error().is_some(),
                "{}×{} should have failed",
                cell.workload,
                cell.config
            );
        } else {
            assert!(
                cell.stats().is_some(),
                "{}×{} should have completed despite the poisoned config",
                cell.workload,
                cell.config
            );
        }
    }
    assert_eq!(result.failures().count(), workloads.len());
}

/// Kill-and-resume: stream a sweep to JSONL, truncate the file mid-way (simulating a
/// kill), re-run against the truncated file, and verify the union is exactly one
/// line per cell — no duplicates, nothing missing, and the restored cells are
/// byte-identical to a fresh run.
#[test]
fn jsonl_resume_skips_finished_cells_without_duplicates_or_gaps() {
    let dir = temp_dir("resume");
    let path = dir.join("results.jsonl");
    let workloads = workloads();
    let configs = configs();
    let seeds = [7u64, 8];
    let total = workloads.len() * configs.len() * seeds.len();

    // Full streamed run (single job for a deterministic line order).
    let fresh = {
        let sink = JsonlSink::open(&path).unwrap();
        let opts = RunOptions {
            jobs: 1,
            sink: Some(&sink),
            ..RunOptions::default()
        };
        run_cells("resume", &workloads, &configs, LEN, &seeds, 0, &opts)
    };
    assert_eq!(fresh.restored, 0);
    let lines: Vec<String> = fs::read_to_string(&path)
        .unwrap()
        .lines()
        .map(String::from)
        .collect();
    assert_eq!(lines.len(), total, "one streamed line per cell");

    // Simulate a kill after 5 cells: keep a prefix, plus a half-written line.
    let keep = 5usize;
    let mut truncated = lines[..keep].join("\n");
    truncated.push('\n');
    truncated.push_str(&lines[keep][..lines[keep].len() / 2]);
    fs::write(&path, &truncated).unwrap();

    // Resume: only the missing cells are simulated; the file ends up complete.
    let resumed = {
        let sink = JsonlSink::open(&path).unwrap();
        assert_eq!(sink.restored_count(), keep);
        assert_eq!(sink.skipped_lines(), 1, "the half-written line is ignored");
        let opts = RunOptions {
            jobs: 2,
            sink: Some(&sink),
            ..RunOptions::default()
        };
        run_cells("resume", &workloads, &configs, LEN, &seeds, 0, &opts)
    };
    assert_eq!(resumed.restored, keep);
    // Lossless resume: the *full* statistics — including the nested branch
    // predictor, hierarchy, and SVW substrate counters — must round-trip through
    // the JSONL stream, so restored cells are byte-identical to the fresh run.
    assert_eq!(
        fingerprint(&resumed.cells),
        fingerprint(&fresh.cells),
        "restored + re-simulated cells must match the fresh run byte-for-byte"
    );

    // No duplicate and no missing cell identities in the final file (the truncated
    // half-line is the one tolerated artifact).
    let final_ids: Vec<_> = fs::read_to_string(&path)
        .unwrap()
        .lines()
        .filter_map(parse_cell_line)
        .map(|(id, _)| id)
        .collect();
    assert_eq!(final_ids.len(), total, "exactly one parsed line per cell");
    let mut unique = final_ids.clone();
    unique.sort_by_key(|id| format!("{id:?}"));
    unique.dedup();
    assert_eq!(unique.len(), total, "no duplicate cells after resume");

    // A second resume with a complete file simulates nothing.
    let sink = JsonlSink::open(&path).unwrap();
    assert_eq!(sink.restored_count(), total);
    let opts = RunOptions {
        sink: Some(&sink),
        ..RunOptions::default()
    };
    let third = run_cells("resume", &workloads, &configs, LEN, &seeds, 0, &opts);
    assert_eq!(
        third.restored, total,
        "fully streamed sweeps re-simulate nothing"
    );

    let _ = fs::remove_dir_all(&dir);
}

/// Different matrix labels must not collide in one results file (identically named
/// configurations appear in several figures).
#[test]
fn matrix_labels_disambiguate_identical_cell_names() {
    let dir = temp_dir("labels");
    let path = dir.join("results.jsonl");
    let workloads = vec![WorkloadProfile::quicktest()];
    let configs = vec![configs().remove(0)];

    let sink = JsonlSink::open(&path).unwrap();
    let opts = RunOptions {
        sink: Some(&sink),
        ..RunOptions::default()
    };
    let a = run_cells("figA", &workloads, &configs, LEN, &[1], 0, &opts);
    let b = run_cells("figB", &workloads, &configs, LEN, &[1], 0, &opts);
    assert_eq!(a.restored, 0);
    assert_eq!(b.restored, 0, "figB must not reuse figA's cell");
    drop(sink);

    let sink = JsonlSink::open(&path).unwrap();
    assert_eq!(sink.restored_count(), 2);
    let _ = fs::remove_dir_all(&dir);
}
