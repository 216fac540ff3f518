//! The benchmark workloads, their untraced timed runs, and the traced replay.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use svw_cpu::{CommitObserver, CommitRecord, Cpu, CpuStats, MachineConfig};
use svw_isa::Program;
use svw_mem::CommittedMemory;
use svw_oracle::{DifferentialChecker, OracleOptions};
use svw_sim::{
    parse_spec, resolve_spec, CacheMode, ExperimentCtx, FigureReport, ResolvedSpec, ResultCache,
    RunOptions, SweepPlan, ARTIFACT_NAMES,
};
use svw_workloads::WorkloadProfile;

use crate::spans::Tracer;

/// Worker threads of every parallel pass (the development host has two cores).
pub const JOBS: usize = 2;

/// The seed whose outputs are pinned by `perfbench/expected.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// The benchmark-owned spec of the `ssq-highipc-oracle` workload.
const SSQ_HIGHIPC_SPEC: &str = include_str!("../specs/ssq-highipc-oracle.toml");

/// Committed digests of the default seed's outputs: `<workload> <item> <hex>` lines.
const EXPECTED: &str = include_str!("../expected.txt");

/// What a workload sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sweep {
    /// One builtin artifact, by name.
    Artifact(&'static str),
    /// The benchmark-owned `ssq-highipc-oracle` spec.
    SsqHighIpc,
    /// Every builtin artifact.
    AllArtifacts,
}

/// One benchmark workload. Input sizes are part of its definition.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    sweep: Sweep,
    /// Instructions per generated trace.
    pub trace_len: usize,
    /// Seeds per run: the run's `--seed` and the ones after it.
    seeds_per_run: u64,
    /// Cross-check every commit against the golden model.
    oracle: bool,
    /// Set-up fills a result cache by a cold sweep; the timed pass renders from it.
    pub warm_cache: bool,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fig5-20k",
        sweep: Sweep::Artifact("fig5"),
        trace_len: 20_000,
        seeds_per_run: 4,
        oracle: false,
        warm_cache: false,
    },
    Workload {
        name: "ssq-highipc-oracle",
        sweep: Sweep::SsqHighIpc,
        trace_len: 100_000,
        seeds_per_run: 8,
        oracle: true,
        warm_cache: false,
    },
    Workload {
        name: "rerender-warm",
        sweep: Sweep::AllArtifacts,
        trace_len: 1_000,
        seeds_per_run: 3,
        oracle: false,
        warm_cache: true,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The seeds one run sweeps, starting at `seed`.
    pub fn seeds(&self, seed: u64) -> Vec<u64> {
        (0..self.seeds_per_run).map(|i| seed + i).collect()
    }

    /// Resolves the specs this workload renders, in render order.
    pub fn resolve(&self) -> Vec<ResolvedSpec> {
        match self.sweep {
            Sweep::Artifact(name) => vec![builtin(name)],
            Sweep::AllArtifacts => ARTIFACT_NAMES
                .iter()
                .map(|(name, _)| builtin(name))
                .collect(),
            Sweep::SsqHighIpc => {
                let spec = parse_spec(SSQ_HIGHIPC_SPEC, "specs/ssq-highipc-oracle.toml")
                    .expect("the benchmark-owned spec parses");
                vec![resolve_spec(&spec, 1).expect("the benchmark-owned spec resolves")]
            }
        }
    }

    /// The cells of every resolved matrix, in the order the sweep engine runs them
    /// (`artifact_plans` does the same for builtin artifacts only).
    pub fn plans(&self, specs: &[ResolvedSpec], seeds: &[u64]) -> Vec<SweepPlan> {
        specs
            .iter()
            .flat_map(|spec| {
                spec.matrices.iter().map(|m| {
                    SweepPlan::enumerate(
                        &m.label,
                        &m.workloads,
                        &m.configs,
                        self.trace_len,
                        seeds,
                        spec.fingerprint,
                    )
                })
            })
            .collect()
    }

    fn ctx<'c>(
        &self,
        seeds: Vec<u64>,
        jobs: usize,
        cache: Option<&'c ResultCache>,
    ) -> ExperimentCtx<'c> {
        let mut ctx = ExperimentCtx::new(self.trace_len, seeds[0]);
        ctx.seeds = seeds;
        ctx.opts = RunOptions {
            jobs,
            oracle: self.oracle.then(OracleOptions::default),
            result_cache: cache,
            ..Default::default()
        };
        ctx
    }

    /// Renders every spec (text and JSON) through the sweep engine.
    pub fn render(
        &self,
        specs: &[ResolvedSpec],
        seeds: &[u64],
        jobs: usize,
        cache: Option<&ResultCache>,
    ) -> Render {
        let ctx = self.ctx(seeds.to_vec(), jobs, cache);
        let mut out = Render::default();
        for spec in specs {
            match svw_sim::render_resolved(&ctx, spec) {
                Ok(report) => out.add(&report),
                Err(e) => out.errors.push(format!("{}: {e}", spec.spec.name)),
            }
        }
        out
    }
}

fn builtin(name: &str) -> ResolvedSpec {
    svw_sim::artifact_resolved(name, 1).unwrap_or_else(|| panic!("builtin artifact {name} exists"))
}

/// Number of cells in `plans`.
pub fn cell_count(plans: &[SweepPlan]) -> u64 {
    plans.iter().map(|p| p.cells.len() as u64).sum()
}

/// Instructions the cells of `plans` commit in total: every cell retires its whole
/// trace, so this generates each distinct trace once and sums their lengths.
pub fn committed_insts(plans: &[SweepPlan]) -> u64 {
    let mut lens: HashMap<(u64, u64), u64> = HashMap::new();
    let mut total = 0;
    for plan in plans {
        for cell in &plan.cells {
            total += *lens
                .entry((cell.id.fingerprint, cell.id.seed))
                .or_insert_with(|| {
                    plan.workloads[cell.workload]
                        .generate(plan.trace_len, cell.id.seed)
                        .len() as u64
                });
        }
    }
    total
}

// ------------------------------------------------------------------ outputs

/// FNV-1a 64 of `bytes` — the digest of every checked output.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digests of one render of a workload's artifacts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Render {
    text: String,
    json: String,
    /// Cells the reports say failed (panics and oracle divergences).
    pub failed_cells: u64,
    /// Specs that could not be rendered at all.
    pub errors: Vec<String>,
}

impl Render {
    fn add(&mut self, report: &FigureReport) {
        self.text.push_str(&report.to_string());
        self.json.push_str(&report.to_json());
        self.json.push('\n');
        self.failed_cells += report.notes.iter().map(|n| failed_in_note(n)).sum::<u64>();
    }

    /// `(render_text, render_json)` digests.
    pub fn digests(&self) -> (u64, u64) {
        (fnv1a(self.text.as_bytes()), fnv1a(self.json.as_bytes()))
    }

    /// Whether every cell succeeded and every spec rendered.
    pub fn clean(&self) -> bool {
        self.failed_cells == 0 && self.errors.is_empty()
    }
}

/// The failed-cell count a report note announces (`"N cell(s) failed …"`), else 0.
fn failed_in_note(note: &str) -> u64 {
    note.split_once(" cell(s) failed")
        .and_then(|(n, _)| n.trim().parse().ok())
        .unwrap_or(0)
}

/// A mismatch between an output and its reference.
#[derive(Debug)]
pub struct Mismatch(pub String);

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Compares `observed` with the committed digest `item` of `workload`. A digest
/// missing from `expected.txt` is a mismatch too, so the file cannot fall behind.
pub fn check_expected(workload: &str, item: &str, observed: u64) -> Result<(), Mismatch> {
    let committed = EXPECTED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next() == Some(workload) && f.next() == Some(item))
            .then(|| f.next().map(str::to_string))?
    });
    let observed = format!("{observed:016x}");
    match committed {
        Some(c) if c == observed => Ok(()),
        Some(c) => Err(Mismatch(format!(
            "{workload} {item}: committed digest {c}, observed {observed} (seed {DEFAULT_SEED})"
        ))),
        None => Err(Mismatch(format!(
            "{workload} {item}: no committed digest; observed {observed}"
        ))),
    }
}

/// Checks a render against the committed `<what>_text` and `<what>_json` digests,
/// printing the observed ones so a declared model change can update the file.
pub fn check_render_expected(workload: &str, what: &str, render: &Render) -> Vec<Mismatch> {
    let (text, json) = render.digests();
    [("text", text), ("json", json)]
        .into_iter()
        .filter_map(|(kind, d)| {
            let item = format!("{what}_{kind}");
            eprintln!("digest {workload} {item} {d:016x}");
            check_expected(workload, &item, d).err()
        })
        .collect()
}

// ------------------------------------------------------------------ scratch

/// A per-process working directory inside the checkout, removed on drop.
pub struct Scratch {
    root: PathBuf,
    next: u32,
}

impl Scratch {
    /// Creates `.perfbench/work-<pid>` under the current directory.
    pub fn new() -> std::io::Result<Scratch> {
        let root = PathBuf::from(".perfbench").join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: 0 })
    }

    /// A fresh, empty subdirectory path (created by whoever opens it).
    pub fn fresh(&mut self, what: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{what}-{}", self.next))
    }

    /// Removes a directory this scratch handed out (errors only leave litter behind,
    /// which the drop cleans up).
    pub fn remove(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Opens a result cache, failing the run if the checkout is not writable.
pub fn open_cache(dir: &Path) -> Result<ResultCache, Mismatch> {
    ResultCache::open(dir, CacheMode::ReadWrite)
        .map_err(|e| Mismatch(format!("cannot open result cache {}: {e}", dir.display())))
}

// ------------------------------------------------------------------ replay

/// One replayed cell.
pub struct ReplayCell {
    pub id: svw_sim::CellId,
    pub outcome: Result<CpuStats, String>,
}

/// What a replay produced besides its spans.
pub struct Replay {
    pub cells: Vec<ReplayCell>,
    pub traces: u64,
    pub wall: Duration,
    /// The warm render from the replay's own result cache (warm-cache workloads).
    pub warm_render: Option<Render>,
    /// Cache lookups that missed or disagreed with the replayed stats.
    pub lookup_mismatches: u64,
    pub lookups: u64,
    pub lookup_hits: u64,
}

/// Times the oracle's per-commit checks when tracing, so they can be split out of
/// `Cpu::run_observed` as their own span.
struct TimedChecker<'a> {
    inner: DifferentialChecker<'a>,
    timed: bool,
    spent_ns: u64,
}

impl<'a> TimedChecker<'a> {
    fn time(&mut self, check: impl FnOnce(&mut DifferentialChecker<'a>)) {
        let start = self.timed.then(Instant::now);
        check(&mut self.inner);
        if let Some(start) = start {
            self.spent_ns += start.elapsed().as_nanos() as u64;
        }
    }
}

impl CommitObserver for TimedChecker<'_> {
    fn on_commit(&mut self, record: &CommitRecord) {
        self.time(|c| c.on_commit(record));
    }

    fn on_finish(&mut self, memory: &CommittedMemory) {
        self.time(|c| c.on_finish(memory));
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(panic_message)
}

/// Replays every cell of `w` on this thread through the layers' public calls,
/// recording a span around each call when `tracer` is enabled. Warm-cache
/// workloads also store every cell, look every cell up again, and render warm
/// from what they stored.
pub fn replay(
    w: &Workload,
    seeds: &[u64],
    tracer: &mut Tracer,
    scratch: &mut Scratch,
) -> Result<Replay, Mismatch> {
    let cache_dir = scratch.fresh("replay-cache");
    let start = Instant::now();
    let out = tracer.span("bench.replay", None, |t| -> Result<Replay, Mismatch> {
        let (specs, plans) = t.span("svw-sim.plan", None, |_| {
            let specs = w.resolve();
            let plans = w.plans(&specs, seeds);
            (specs, plans)
        });
        let store = if w.warm_cache {
            Some(t.span("svw-sim.cache_open", None, |_| open_cache(&cache_dir))?)
        } else {
            None
        };
        let mut cells = Vec::new();
        let mut traces = 0;
        for plan in &plans {
            // Cells run workload-major, so one workload's traces are live at a time.
            let mut programs: Vec<(usize, u64, Program)> = Vec::new();
            for planned in &plan.cells {
                if programs
                    .first()
                    .is_some_and(|(wl, ..)| *wl != planned.workload)
                {
                    programs.clear();
                }
                let seed = planned.id.seed;
                let slot = match programs.iter().position(|(_, s, _)| *s == seed) {
                    Some(slot) => slot,
                    None => {
                        let profile: &WorkloadProfile = &plan.workloads[planned.workload];
                        let program = t.span("svw-workloads.generate", None, |_| {
                            profile.generate(plan.trace_len, seed)
                        });
                        traces += 1;
                        programs.push((planned.workload, seed, program));
                        programs.len() - 1
                    }
                };
                let program = &programs[slot].2;
                let cell = cells.len() as u32;
                let config = MachineConfig::clone(&plan.configs[planned.config]);
                let outcome = t
                    .span("svw-cpu.setup", Some(cell), |_| {
                        catch(|| Cpu::new(config, program))
                    })
                    .and_then(|cpu| {
                        t.span("svw-cpu.run", Some(cell), |t| {
                            if !w.oracle {
                                return catch(|| cpu.run());
                            }
                            let mut checker = TimedChecker {
                                inner: DifferentialChecker::new(
                                    program.instructions(),
                                    OracleOptions::default(),
                                ),
                                timed: t.enabled(),
                                spent_ns: 0,
                            };
                            let run_start = Instant::now();
                            let stats = catch(|| cpu.run_observed(&mut checker));
                            t.record_aggregate(
                                "svw-oracle.check",
                                Some(cell),
                                run_start,
                                checker.spent_ns,
                            );
                            match checker.inner.divergence() {
                                Some(d) => Err(format!("oracle divergence: {d}")),
                                None => stats,
                            }
                        })
                    });
                if let (Some(store), Ok(stats)) = (&store, &outcome) {
                    t.span("svw-sim.cache_store", Some(cell), |_| {
                        store.store(&planned.id, stats)
                    })
                    .map_err(|e| Mismatch(format!("result cache store failed: {e}")))?;
                }
                cells.push(ReplayCell {
                    id: planned.id.clone(),
                    outcome,
                });
            }
        }
        let mut replay = Replay {
            cells,
            traces,
            wall: Duration::ZERO,
            warm_render: None,
            lookup_mismatches: 0,
            lookups: 0,
            lookup_hits: 0,
        };
        if w.warm_cache {
            let reader = t.span("svw-sim.cache_open", None, |_| open_cache(&cache_dir))?;
            for (i, cell) in replay.cells.iter().enumerate() {
                let got = t.span("svw-sim.cache_lookup", Some(i as u32), |_| {
                    reader.lookup(&cell.id)
                });
                replay.lookups += 1;
                replay.lookup_hits += u64::from(got.is_some());
                let same = match (&got, &cell.outcome) {
                    (Some(g), Ok(s)) => format!("{g:?}") == format!("{s:?}"),
                    _ => false,
                };
                replay.lookup_mismatches += u64::from(!same);
            }
            replay.warm_render = Some(t.span("svw-sim.render", None, |_| {
                let cache = open_cache(&cache_dir)?;
                Ok(w.render(&specs, seeds, 1, Some(&cache)))
            })?);
        }
        Ok(replay)
    });
    scratch.remove(&cache_dir);
    let mut replay = out?;
    replay.wall = start.elapsed();
    Ok(replay)
}

/// Digest of every replayed cell's full statistics, in plan order.
pub fn cells_digest(cells: &[ReplayCell]) -> u64 {
    let mut text = String::new();
    for c in cells {
        let id = &c.id;
        let stats = match &c.outcome {
            Ok(s) => format!("{s:?}"),
            Err(_) => "FAILED".to_string(),
        };
        text.push_str(&format!(
            "{}|{}|{}|{}|{}\n",
            id.matrix, id.workload, id.config, id.seed, stats
        ));
    }
    fnv1a(text.as_bytes())
}
