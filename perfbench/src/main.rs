//! `perfbench` — the SVW reproduction's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig5-20k --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` it sets the workload up several times, then repeats the
//! workload with tracing off for `--seconds` and prints the end-to-end metrics,
//! whose timings are calibrated to the host's speed by `probe`.
//! With `--trace 1` it replays the workload's cells on one thread through the
//! layers' public calls, alternately untraced and traced, and prints the per-layer
//! metrics. Every output is checked; the last stdout line is the JSON result and
//! the exit code is 0 only when every check passed. See `perfbench/README.md`.

mod bench;
mod layers;
mod measure;
mod probe;
mod spans;

use std::io::BufWriter;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bench::{
    cell_count, cells_digest, check_expected, check_render_expected, committed_insts, open_cache,
    replay, Mismatch, Render, Scratch, Workload, DEFAULT_SEED, JOBS,
};
use measure::{describe_tail, median, result_line, END_TO_END, PER_LAYER};
use probe::HostProbe;
use spans::Tracer;
use svw_sim::{ResolvedSpec, SweepPlan};

const USAGE: &str = "usage: perfbench --workload <fig5-20k|ssq-highipc-oracle|rerender-warm> \
                     [--seed N] [--seconds N] [--trace 0|1]";

/// Times each run's set-up is repeated; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Untraced/traced replay pairs of a traced run; the tracing overhead is the
/// difference of their means.
const REPLAY_PAIRS: usize = 2;

/// Fewest timed repetitions, however long each takes.
const MIN_REPS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    bench::workload(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one run measured and checked.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    /// Failed checks; the run is correct only when this is empty.
    problems: Vec<String>,
    /// Facts recorded with the result (`key`, JSON value).
    context: Vec<(&'static str, String)>,
}

fn main() -> ExitCode {
    pin_malloc_arenas();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot create the working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let run = if args.trace {
        traced(&args, &mut scratch)
    } else {
        timed(&args, &mut scratch)
    };
    let mut out = match run {
        Ok(out) => out,
        Err(Mismatch(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    out.context.extend(common_context(&args));
    let context: Vec<String> = out
        .context
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    for p in &out.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    for def in defs {
        if let Some((_, v)) = out.metrics.iter().find(|(n, _)| *n == def.name) {
            eprintln!(
                "  {:<44} {v:>16.6} {:<8} ({} is better)",
                def.name, def.unit, def.better
            );
        }
    }
    println!("{{\"context\": {{{}}}}}", context.join(", "));
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, defs, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Makes glibc serve every thread from one malloc arena. By default each worker
/// thread may get an arena of its own depending on lock contention at the time,
/// which moves the process's peak resident memory by about 15% from run to run;
/// with one arena `peak_rss_mb` repeats to within a few percent.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_arenas() {
    const M_ARENA_MAX: std::ffi::c_int = -8;
    extern "C" {
        fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
    }
    // SAFETY: `mallopt` is glibc's documented tuning call; it is made before any
    // thread is spawned, takes plain integers, and touches no memory of ours.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_arenas() {}

/// The seeds, sizes and host facts every result is recorded with.
fn common_context(args: &Args) -> Vec<(&'static str, String)> {
    let w = args.workload;
    let seeds: Vec<String> = w.seeds(args.seed).iter().map(u64::to_string).collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", format!("\"{}\"", w.name)),
        ("trace", (args.trace as u8).to_string()),
        ("seeds", format!("[{}]", seeds.join(", "))),
        ("trace_len", w.trace_len.to_string()),
        ("jobs", JOBS.to_string()),
        ("nproc", nproc.to_string()),
        ("git_revision", format!("\"{}\"", git_revision())),
        ("rustc", format!("\"{}\"", env!("PERFBENCH_RUSTC_VERSION"))),
    ]
}

/// `git rev-parse HEAD` when run from a git checkout, else `"unknown"`.
fn git_revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, Mismatch> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| Mismatch(format!("/proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| Mismatch("no VmHWM in /proc/self/status".into()))
}

/// Records a problem when a render reports failed cells or unrenderable specs.
fn check_clean(what: &str, render: &Render, problems: &mut Vec<String>) {
    if !render.clean() {
        problems.push(format!(
            "{what}: {} failed cell(s), errors {:?}",
            render.failed_cells, render.errors
        ));
    }
}

/// What one set-up prepared for the timed repetitions.
struct SetUp {
    specs: Vec<ResolvedSpec>,
    plans: Vec<SweepPlan>,
    /// Instructions one repetition commits.
    insts: u64,
    /// Warm-cache workloads: the filled cache directory and its cold render.
    filled: Option<(PathBuf, Render)>,
}

/// Resolves and plans the workload and generates its inputs, then either fills a
/// result cache by a cold sweep (warm-cache workloads) or warms up with a render of
/// the default seed, which is checked against the committed digests whatever
/// `--seed` is.
fn set_up(
    w: &Workload,
    seeds: &[u64],
    scratch: &mut Scratch,
    problems: &mut Vec<String>,
) -> Result<SetUp, Mismatch> {
    let specs = w.resolve();
    let plans = w.plans(&specs, seeds);
    let insts = committed_insts(&plans);
    let filled = if w.warm_cache {
        let dir = scratch.fresh("cache");
        let cold = w.render(&specs, seeds, JOBS, Some(&open_cache(&dir)?));
        Some((dir, cold))
    } else {
        let warmup = w.render(&specs, &[DEFAULT_SEED], JOBS, None);
        check_clean("warm-up render", &warmup, problems);
        problems.extend(
            check_render_expected(w.name, "warmup", &warmup)
                .into_iter()
                .map(|m| m.0),
        );
        None
    };
    Ok(SetUp {
        specs,
        plans,
        insts,
        filled,
    })
}

/// The untraced run: repeated set-up, then timed repetitions for `--seconds`, with
/// the host-speed probe running throughout to calibrate each timing.
fn timed(args: &Args, scratch: &mut Scratch) -> Result<Outcome, Mismatch> {
    let w = args.workload;
    let seeds = w.seeds(args.seed);
    let mut problems = Vec::new();
    let probe = HostProbe::start();
    // (start, wall) of every set-up and repetition, calibrated once the probe stops.
    let mut setups = Vec::new();
    let mut last: Option<SetUp> = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let next = set_up(w, &seeds, scratch, &mut problems)?;
        setups.push((start, start.elapsed()));
        if let (Some((old_dir, old_cold)), Some((_, cold))) =
            (last.as_ref().and_then(|l| l.filled.as_ref()), &next.filled)
        {
            if old_cold != cold {
                problems.push("cold renders differ between set-ups".into());
            }
            scratch.remove(old_dir);
        }
        last = Some(next);
    }
    let SetUp {
        specs,
        plans,
        insts,
        filled,
    } = last.expect("at least one set-up");
    let cells = cell_count(&plans);
    // The reference every repetition must reproduce byte for byte.
    let mut reference: Option<Render> = None;
    if let Some((_, cold)) = &filled {
        check_clean("cold fill", cold, &mut problems);
        if args.seed == DEFAULT_SEED {
            problems.extend(
                check_render_expected(w.name, "render", cold)
                    .into_iter()
                    .map(|m| m.0),
            );
        }
        reference = Some(cold.clone());
    }

    let (mut reps, mut attempted, mut failed) = (Vec::new(), 0, 0);
    let budget = Duration::from_secs(args.seconds);
    let timed_start = Instant::now();
    while reps.len() < MIN_REPS || timed_start.elapsed() < budget {
        let start = Instant::now();
        let render = match &filled {
            Some((dir, _)) => {
                let cache = open_cache(dir)?;
                let render = w.render(&specs, &seeds, JOBS, Some(&cache));
                let c = cache.counters();
                if c.misses != 0 || c.stores != 0 {
                    problems.push(format!(
                        "warm pass simulated: {} misses, {} stores",
                        c.misses, c.stores
                    ));
                }
                render
            }
            None => w.render(&specs, &seeds, JOBS, None),
        };
        reps.push((start, start.elapsed()));
        attempted += cells;
        failed += render.failed_cells;
        if !render.errors.is_empty() {
            problems.push(format!("render errors: {:?}", render.errors));
        }
        match &reference {
            Some(r) if *r != render => {
                problems.push(format!("repetition {} rendered differently", reps.len()))
            }
            Some(_) => {}
            None => {
                if args.seed == DEFAULT_SEED {
                    problems.extend(
                        check_render_expected(w.name, "render", &render)
                            .into_iter()
                            .map(|m| m.0),
                    );
                }
                reference = Some(render);
            }
        }
    }
    problems.dedup();

    let speeds = probe.finish();
    let raw = |spans: &[(Instant, Duration)]| -> Vec<f64> {
        spans.iter().map(|(_, d)| d.as_secs_f64()).collect()
    };
    let calibrated = |spans: &[(Instant, Duration)]| -> Vec<f64> {
        spans
            .iter()
            .map(|&(at, d)| speeds.calibrate(at, d))
            .collect()
    };
    let (setup_s, walls) = (calibrated(&setups), calibrated(&reps));
    let (raw_setup_s, raw_walls) = (raw(&setups), raw(&reps));
    let insts = insts as f64;
    let wall_s = median(&walls);
    eprintln!(
        "{}: calibrated setup_s {setup_s:?} (median {:.4}), wall_s {walls:?} median {wall_s:.6} {}, \
         {cells} cells/repetition",
        w.name,
        median(&setup_s),
        describe_tail(&walls),
    );
    eprintln!(
        "{}: raw setup_s {raw_setup_s:?} (median {:.4}), wall_s {raw_walls:?} (median {:.6}); \
         host speed mean {:.4}, p10 {:.4}, p50 {:.4}, p90 {:.4} over {} probe samples",
        w.name,
        median(&raw_setup_s),
        median(&raw_walls),
        speeds.overall(),
        speeds.quantile(0.1),
        speeds.quantile(0.5),
        speeds.quantile(0.9),
        speeds.len(),
    );
    let metrics = vec![
        ("setup_s", median(&setup_s)),
        ("wall_s", wall_s),
        (
            "sim_minst_per_s",
            median(&walls.iter().map(|s| insts / s / 1e6).collect::<Vec<_>>()),
        ),
        (
            "cells_per_s",
            median(&walls.iter().map(|s| cells as f64 / s).collect::<Vec<_>>()),
        ),
        ("peak_rss_mb", peak_rss_mb()?),
        ("cells_ok_frac", 1.0 - failed as f64 / attempted as f64),
    ];
    let context = vec![
        ("setup_reps", SETUP_REPS.to_string()),
        ("repetitions", walls.len().to_string()),
        ("cells_per_repetition", cells.to_string()),
        ("wall_s_tail", format!("\"{}\"", describe_tail(&walls))),
        ("raw_setup_s", median(&raw_setup_s).to_string()),
        ("raw_wall_s", median(&raw_walls).to_string()),
        ("host_speed", speeds.overall().to_string()),
        ("probe_samples", speeds.len().to_string()),
        ("probe_reference_ns", probe::REFERENCE_NS.to_string()),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        problems,
        context,
    })
}

/// The traced run: the parallel pass at `JOBS` workers (for `execute_s`), then the
/// single-thread replay, alternately untraced and traced.
fn traced(args: &Args, scratch: &mut Scratch) -> Result<Outcome, Mismatch> {
    let w = args.workload;
    let seeds = w.seeds(args.seed);
    let mut problems = Vec::new();
    let specs = w.resolve();

    let start = Instant::now();
    let parallel = if w.warm_cache {
        let dir = scratch.fresh("cache");
        let render = w.render(&specs, &seeds, JOBS, Some(&open_cache(&dir)?));
        scratch.remove(&dir);
        render
    } else {
        w.render(&specs, &seeds, JOBS, None)
    };
    let execute_s = start.elapsed().as_secs_f64();
    check_clean("parallel pass", &parallel, &mut problems);

    // Alternate untraced and traced replays, so host drift weighs on both alike.
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut last = None;
    for _ in 0..REPLAY_PAIRS {
        let untraced = replay(w, &seeds, &mut Tracer::new(false), scratch)?;
        let mut tracer = Tracer::new(true);
        let traced = replay(w, &seeds, &mut tracer, scratch)?;
        untraced_s += untraced.wall.as_secs_f64() / REPLAY_PAIRS as f64;
        traced_s += traced.wall.as_secs_f64() / REPLAY_PAIRS as f64;
        if cells_digest(&untraced.cells) != cells_digest(&traced.cells) {
            problems.push("traced and untraced replays differ".into());
        }
        last = Some((traced, tracer));
    }
    let (traced, tracer) = last.expect("at least one replay pair");
    let spans_path = format!(".perfbench/spans-{}-seed{}.tsv", w.name, args.seed);
    std::fs::File::create(&spans_path)
        .and_then(|f| tracer.write_tsv(&mut BufWriter::new(f)))
        .map_err(|e| Mismatch(format!("cannot write {spans_path}: {e}")))?;

    // Checks: both replays agree, the replay agrees with the sweep engine, and at the
    // default seed everything matches the committed digests.
    let digest = cells_digest(&traced.cells);
    let replay_failed: Vec<&str> = traced
        .cells
        .iter()
        .filter_map(|c| c.outcome.as_ref().err().map(String::as_str))
        .collect();
    if let Some(first) = replay_failed.first() {
        problems.push(format!(
            "{} replayed cell(s) failed, first: {first}",
            replay_failed.len()
        ));
    }
    let rerendered = match &traced.warm_render {
        Some(render) => {
            if traced.lookup_mismatches != 0 {
                problems.push(format!(
                    "{} cache lookups missed or disagreed",
                    traced.lookup_mismatches
                ));
            }
            render.clone()
        }
        None => {
            // Render the replayed cells through the sweep engine's result cache: the
            // same bytes as the parallel pass prove replay and engine agree.
            let dir = scratch.fresh("crosscheck");
            let cache = open_cache(&dir)?;
            for c in &traced.cells {
                if let Ok(stats) = &c.outcome {
                    cache
                        .store(&c.id, stats)
                        .map_err(|e| Mismatch(format!("cross-check store: {e}")))?;
                }
            }
            let render = w.render(&specs, &seeds, 1, Some(&cache));
            scratch.remove(&dir);
            render
        }
    };
    if rerendered != parallel {
        problems.push("the replay's cells render differently from the sweep engine's".into());
    }
    if args.seed == DEFAULT_SEED {
        problems.extend(
            check_render_expected(w.name, "render", &parallel)
                .into_iter()
                .map(|m| m.0),
        );
        if let Err(m) = check_expected(w.name, "cells", digest) {
            problems.push(m.0);
        }
    }
    eprintln!("digest {} cells {digest:016x}", w.name);

    let committed: u64 = traced
        .cells
        .iter()
        .filter_map(|c| c.outcome.as_ref().ok())
        .map(|s| s.committed)
        .sum();
    let expected_insts = committed_insts(&w.plans(&specs, &seeds));
    if committed != expected_insts {
        problems.push(format!(
            "cells committed {committed} instructions, their traces hold {expected_insts}"
        ));
    }
    let min_ipc = traced
        .cells
        .iter()
        .filter_map(|c| c.outcome.as_ref().ok())
        .map(|s| s.ipc())
        .fold(f64::INFINITY, f64::min);
    eprintln!(
        "{}: {} cells, lowest cell IPC {min_ipc:.3}",
        w.name,
        traced.cells.len()
    );

    let cells_failed = parallel.failed_cells + replay_failed.len() as u64;
    let (metrics, coverage) = layers::per_layer(&layers::LayerRun {
        spans: tracer.spans(),
        traced: &traced,
        untraced_s,
        traced_s,
        execute_s,
        cells_failed,
    });
    if coverage < layers::MIN_SELF_TIME_COVERAGE {
        problems.push(format!(
            "layer self times cover {:.1}% of the traced replay, below {:.0}%",
            100.0 * coverage,
            100.0 * layers::MIN_SELF_TIME_COVERAGE
        ));
    }
    eprintln!(
        "{}: replay {traced_s:.3}s traced, {untraced_s:.3}s untraced (mean of {REPLAY_PAIRS}), \
         parallel pass {execute_s:.3}s; layer self times of the last traced replay:",
        w.name,
    );
    let root_s = traced.wall.as_secs_f64();
    for (layer, s) in layers::layer_breakdown(tracer.spans()) {
        eprintln!("  {layer:<16} {s:>10.4}s {:>6.2}%", 100.0 * s / root_s);
    }
    let context = vec![
        ("spans_file", format!("\"{spans_path}\"")),
        ("spans", tracer.spans().len().to_string()),
    ];
    Ok(Outcome {
        // The parallel pass and the last traced replay each attempt every cell.
        attempted: 2 * traced.cells.len() as u64,
        failed: cells_failed,
        metrics,
        problems,
        context,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let a = parse(&[
            "--workload",
            "fig5-20k",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("fig5-20k", 7, 3, true)
        );
        let d = parse(&["--workload", "rerender-warm"]).expect("defaults");
        assert_eq!((d.seed, d.seconds, d.trace), (DEFAULT_SEED, 10, false));
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "fig5-20k", "--trace", "2"],
            &["--workload", "fig5-20k", "--seconds", "0"],
            &["--workload", "fig5-20k", "--seed"],
            &["--workload", "fig5-20k", "--bogus", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
