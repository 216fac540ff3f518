//! The cell-parallel experiment engine: a pure *executor* of sweep plans.
//!
//! The unit of work is one *cell* — a `(workload, configuration, seed)` triple — and
//! a sweep is a shared queue of cells drained by N worker threads (N = available
//! parallelism, overridable via [`RunOptions::jobs`]; a plan the result cache
//! serves whole drains on the calling thread). What to run arrives as a
//! typed [`SweepPlan`] (see [`crate::planner`]): [`execute_plan`] simulates the
//! plan's in-shard cells, restores/skips the rest, and collects results in plan
//! order. [`run_cells`] is the canonical-full-matrix convenience wrapper (it
//! enumerates the plan, applies [`RunOptions::shard`], and executes); coordinator
//! requeue rounds and `--plan` files route through the same executor, so every
//! sweep path — static, sharded, adaptive, distributed-adaptive — behaves
//! identically per cell.
//!
//! Robustness properties:
//!
//! * a panicking cell is caught and recorded as [`CellOutcome::Failed`]; the
//!   remaining cells keep running (one poisoned cell no longer aborts the sweep);
//! * with a [`JsonlSink`] attached, every finished cell is appended (and flushed) to
//!   a JSONL file immediately, and an interrupted sweep resumes by skipping the cells
//!   already present in that file.
//!
//! Scheduling is deterministic in its *results*: cells are simulated independently
//! and collected into a canonical (workload-major, configuration, seed) order, so the
//! output is byte-identical regardless of the number of jobs.
//!
//! A sweep also scales *across* processes and machines: [`Shard`] deterministically
//! partitions the cell list into N disjoint interleaved slices, each shard streams
//! its slice into its own JSONL file, and `svwsim merge` ([`crate::merge`]) stitches
//! the files back into the complete result set — which any renderer then consumes
//! through the ordinary resume path without re-simulating a single cell. Per-worker
//! [`WorkerStats`] (collected into a [`StatsCollector`]) make scheduler imbalance
//! within each process visible.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use svw_cpu::{Cpu, CpuStats, MachineConfig, SimArena};
use svw_isa::Program;
use svw_oracle::{DifferentialChecker, OracleOptions};
use svw_workloads::WorkloadProfile;

use crate::cache::ResultCache;
use crate::events::kind as event_kind;
use crate::json;
use crate::jsonl::JsonlSink;
use crate::obs::{CellProgress, SweepObserver};
use crate::planner::SweepPlan;

/// Default per-workload dynamic trace length used by the `svwsim` CLI. The paper
/// samples 10M-instruction intervals; this default keeps a full 16-workload,
/// 5-configuration figure under a couple of minutes on a laptop while remaining long
/// enough for predictors and caches to reach steady state. Override it with
/// `--trace-len`.
pub const DEFAULT_TRACE_LEN: usize = 60_000;

/// Default workload-generation seed.
pub const DEFAULT_SEED: u64 = 1;

/// How one cell's simulation ended.
#[derive(Clone, Debug)]
pub enum CellOutcome {
    /// The simulation ran to completion.
    Ok(Box<CpuStats>),
    /// The cell was served by the content-addressed result cache
    /// ([`RunOptions::result_cache`]) — trace generation and simulation were
    /// both skipped. Indistinguishable from [`CellOutcome::Ok`]
    /// to every renderer (the stored stats round-trip losslessly), but counted
    /// separately so `--stats`, `--progress`, and `svwsim profile` never
    /// conflate cached cells with simulated or restored ones.
    Cached(Box<CpuStats>),
    /// The simulation panicked, or (under [`RunOptions::oracle`]) the differential
    /// oracle found a divergence; the payload records the panic message or
    /// divergence report. The rest of the sweep is unaffected.
    Failed(String),
    /// The cell belongs to a different shard (see [`Shard`]) and was neither
    /// simulated nor found in the resume file. Skipped cells are excluded from every
    /// aggregate, exactly like failed cells, but are not failures.
    Skipped,
}

/// A deterministic `index`-of-`count` partition of the cell list, for running one
/// sweep as N independent processes (or machines).
///
/// Cell `k` (in the canonical workload-major, configuration, seed order) belongs to
/// shard `k % count`, so the shards are a complete, disjoint, interleaved cover of
/// the matrix — interleaving balances the shards even when workloads differ wildly
/// in cost. Every shard drains its own cells into its own `--out` JSONL stream;
/// `svwsim merge` stitches the streams back into the full result set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// This process's shard, `0 <= index < count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// Parses the CLI syntax `I/N` (e.g. `0/3`), validating `I < N` and `N > 0`.
    pub fn parse(s: &str) -> Result<Shard, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("invalid shard {s:?} (expected I/N, e.g. 0/3)"))?;
        let index: usize = i
            .parse()
            .map_err(|_| format!("invalid shard index {i:?} in {s:?}"))?;
        let count: usize = n
            .parse()
            .map_err(|_| format!("invalid shard count {n:?} in {s:?}"))?;
        if count == 0 {
            return Err("shard count must be positive".to_string());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range (shards are 0-based: 0..{count})"
            ));
        }
        Ok(Shard { index, count })
    }

    /// Whether the cell at canonical position `cell_index` belongs to this shard.
    pub fn contains(&self, cell_index: usize) -> bool {
        cell_index % self.count == self.index
    }

    /// The `(rank, size)` environment-variable pairs `--shard auto` recognises, in
    /// precedence order: SLURM job arrays, SLURM `srun` tasks, Open MPI, PBS job
    /// arrays. Job-array pairs come before `SLURM_PROCID` because an array task
    /// also sees `SLURM_PROCID=0`/`SLURM_NTASKS=1` — matching those first would
    /// silently run every array task unsharded. Array ranges must be 0-based
    /// (`--array=0-7`, `#PBS -J 0-7`); SLURM and Open MPI export both halves
    /// natively, while PBS exports only the index, so a PBS job script must
    /// `export PBS_ARRAY_COUNT=N` itself — the half-pair error below points this
    /// out.
    pub const ENV_PAIRS: &'static [(&'static str, &'static str)] = &[
        ("SLURM_ARRAY_TASK_ID", "SLURM_ARRAY_TASK_COUNT"),
        ("SLURM_PROCID", "SLURM_NTASKS"),
        ("OMPI_COMM_WORLD_RANK", "OMPI_COMM_WORLD_SIZE"),
        ("PBS_ARRAY_INDEX", "PBS_ARRAY_COUNT"),
    ];

    /// Derives `I/N` from cluster environment variables (`--shard auto`): the first
    /// of [`Shard::ENV_PAIRS`] whose *rank* variable is set wins. A pair with only
    /// one variable set (or an unparsable/out-of-range value) is an error naming
    /// the offending variable — silently running unsharded on a cluster would
    /// duplicate every cell N times.
    pub fn from_env() -> Result<Shard, String> {
        Self::from_env_with(|name| std::env::var(name).ok())
    }

    /// [`Shard::from_env`] over an injectable environment (tests).
    pub fn from_env_with(lookup: impl Fn(&str) -> Option<String>) -> Result<Shard, String> {
        for &(rank_var, size_var) in Self::ENV_PAIRS {
            let (rank, size) = (lookup(rank_var), lookup(size_var));
            match (rank, size) {
                (None, None) => continue,
                (Some(rank), Some(size)) => {
                    let parse = |name: &str, value: &str| -> Result<usize, String> {
                        value.parse().map_err(|_| {
                            format!("--shard auto: {name}={value:?} is not an unsigned integer")
                        })
                    };
                    let index = parse(rank_var, &rank)?;
                    let count = parse(size_var, &size)?;
                    if count == 0 {
                        return Err(format!("--shard auto: {size_var} must be positive"));
                    }
                    if index >= count {
                        let array_hint = if rank_var.contains("ARRAY") {
                            " — use a 0-based array range (e.g. --array=0-7, #PBS -J 0-7)"
                        } else {
                            ""
                        };
                        return Err(format!(
                            "--shard auto: {rank_var}={index} out of range for {size_var}={count} \
                             (ranks are 0-based){array_hint}"
                        ));
                    }
                    return Ok(Shard { index, count });
                }
                (Some(_), None) => {
                    let pbs_hint = if rank_var == "PBS_ARRAY_INDEX" {
                        " (PBS does not export a count natively: `export PBS_ARRAY_COUNT=N` in \
                         the job script and use a 0-based array range, `#PBS -J 0-N-1`)"
                    } else {
                        ""
                    };
                    return Err(format!(
                        "--shard auto: {rank_var} is set but {size_var} is not — both halves of \
                         the pair are needed to derive I/N{pbs_hint}"
                    ));
                }
                (None, Some(_)) => {
                    return Err(format!(
                        "--shard auto: {size_var} is set but {rank_var} is not — both halves of \
                         the pair are needed to derive I/N"
                    ));
                }
            }
        }
        Err(format!(
            "--shard auto: no cluster environment detected (looked for {})",
            Self::ENV_PAIRS
                .iter()
                .map(|(r, s)| format!("{r}/{s}"))
                .collect::<Vec<_>>()
                .join(", ")
        ))
    }
}

/// The result of simulating one workload under one machine configuration with one
/// workload-generation seed.
#[derive(Clone, Debug)]
pub struct ExperimentCell {
    /// Workload name.
    pub workload: String,
    /// Configuration name.
    pub config: String,
    /// Workload-generation seed.
    pub seed: u64,
    /// How the simulation ended.
    pub outcome: CellOutcome,
}

impl ExperimentCell {
    /// The run statistics, if the cell completed (simulated or cache-served).
    pub fn stats(&self) -> Option<&CpuStats> {
        match &self.outcome {
            CellOutcome::Ok(stats) | CellOutcome::Cached(stats) => Some(stats.as_ref()),
            CellOutcome::Failed(_) | CellOutcome::Skipped => None,
        }
    }

    /// The failure message, if the cell panicked.
    pub fn error(&self) -> Option<&str> {
        match &self.outcome {
            CellOutcome::Ok(_) | CellOutcome::Cached(_) | CellOutcome::Skipped => None,
            CellOutcome::Failed(msg) => Some(msg),
        }
    }

    /// Whether the cell was skipped because it belongs to another shard.
    pub fn is_skipped(&self) -> bool {
        matches!(self.outcome, CellOutcome::Skipped)
    }

    /// Whether the cell was served by the content-addressed result cache.
    pub fn is_cached(&self) -> bool {
        matches!(self.outcome, CellOutcome::Cached(_))
    }
}

/// How the sweep engine parallelizes, checks, and streams results. Every trace is
/// generated from its workload profile, once per `(workload, seed)` pair of a plan.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions<'c> {
    /// Worker threads draining the cell queue; `0` means all available parallelism.
    pub jobs: usize,
    /// Stream every finished cell to this JSONL sink, and skip cells the sink
    /// already holds (resume).
    pub sink: Option<&'c JsonlSink>,
    /// Run only this shard's slice of the cell list; the other cells are recorded as
    /// [`CellOutcome::Skipped`] (unless the resume file already holds them). `None`
    /// runs everything. Applied by [`run_cells`] when it builds the plan;
    /// [`execute_plan`] honours the plan's own per-cell assignment instead.
    pub shard: Option<Shard>,
    /// Accumulate per-worker scheduler statistics (cells drained, resets vs
    /// rebuilds) into this collector.
    pub stats: Option<&'c StatsCollector>,
    /// Observability instrumentation (`--events` journal, `--metrics-out`
    /// registry, `--progress` reporter). Purely additive: instrumentation
    /// measures timing and emits to its own outputs, never touching results —
    /// every artifact is byte-identical with `obs` present or `None`.
    pub obs: Option<&'c SweepObserver>,
    /// Cross-check every simulated cell against the in-order golden model
    /// (`--oracle`): the pipeline runs under a [`DifferentialChecker`] and a
    /// divergence turns the cell into [`CellOutcome::Failed`] carrying the
    /// divergence report. The checker is a pure observer — simulated results are
    /// byte-identical with the oracle on or off (when no divergence exists).
    pub oracle: Option<OracleOptions>,
    /// Consult (and publish to) this content-addressed result cache
    /// (`--result-cache DIR`): cells the cache already holds become
    /// [`CellOutcome::Cached`] — no trace generation and no simulation — and
    /// every freshly simulated successful cell is published back. Served
    /// results are byte-identical to re-simulating (the `--no-result-cache`
    /// A/B flag and the determinism suite compare both paths).
    pub result_cache: Option<&'c ResultCache>,
}

/// What one worker thread did during a sweep. Sampled per worker and accumulated
/// into a [`StatsCollector`] so scheduler imbalance is visible (`svwsim --stats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Cells this worker actually simulated.
    pub cells_simulated: u64,
    /// Cells this worker satisfied from the resume file instead of simulating.
    pub cells_restored: u64,
    /// Cells this worker served from the content-addressed result cache.
    pub cells_cached: u64,
    /// Simulated cells that panicked.
    pub cells_failed: u64,
    /// Cell startups that reused the worker's arena (in-place pipeline reset).
    pub resets: u64,
    /// Cell startups that built a pipeline from scratch (the worker's first cell,
    /// or the cell after a panic discarded the arena).
    pub rebuilds: u64,
}

impl WorkerStats {
    /// Folds another sample into this one (counters add).
    fn merge(&mut self, other: &WorkerStats) {
        self.cells_simulated += other.cells_simulated;
        self.cells_restored += other.cells_restored;
        self.cells_cached += other.cells_cached;
        self.cells_failed += other.cells_failed;
        self.resets += other.resets;
        self.rebuilds += other.rebuilds;
    }
}

/// Accumulates [`WorkerStats`] across every [`run_cells`] call that shares it (a
/// multi-matrix artifact like `tables`, or the rounds of an adaptive sweep): worker
/// slot `i` aggregates the i-th worker thread of each call, so a persistent
/// imbalance shows up even though the threads themselves are per-call.
#[derive(Debug, Default)]
pub struct StatsCollector {
    slots: Mutex<Vec<WorkerStats>>,
    adaptive_extra_cells: AtomicUsize,
    traces_generated: AtomicUsize,
    cells_shared_trace: AtomicUsize,
}

impl StatsCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        StatsCollector::default()
    }

    /// Merges one worker thread's per-sweep sample into its slot.
    fn record_worker(&self, worker: usize, sample: &WorkerStats) {
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        if slots.len() <= worker {
            slots.resize(worker + 1, WorkerStats::default());
        }
        slots[worker].merge(sample);
    }

    /// Counts cells scheduled *beyond* the minimum seed count by adaptive
    /// CI-targeted sampling (recorded by the adaptive engine, not the workers).
    pub fn record_adaptive_extra(&self, cells: usize) {
        self.adaptive_extra_cells
            .fetch_add(cells, Ordering::Relaxed);
    }

    /// Snapshot of the per-worker aggregates, one entry per worker slot.
    pub fn workers(&self) -> Vec<WorkerStats> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Total extra seed-cells scheduled by adaptive sampling.
    pub fn adaptive_extra_cells(&self) -> usize {
        self.adaptive_extra_cells.load(Ordering::Relaxed)
    }

    /// Traces generated by the sweeps sharing this collector.
    pub fn traces_generated(&self) -> usize {
        self.traces_generated.load(Ordering::Relaxed)
    }

    /// Simulated cells that reused the trace their plan had already generated for
    /// the same `(workload, seed)` pair.
    pub fn cells_shared_trace(&self) -> usize {
        self.cells_shared_trace.load(Ordering::Relaxed)
    }
}

/// Everything [`run_cells`] produced: the cells in canonical (workload-major,
/// configuration, seed) order plus the sweep-level bookkeeping.
#[derive(Debug)]
pub struct SweepResult {
    /// One cell per (workload, configuration, seed), workload-major.
    pub cells: Vec<ExperimentCell>,
    /// Aggregated sweep-level warnings (stream write and result-cache store
    /// errors) — at most one entry per category, however many cells were affected.
    pub warnings: Vec<String>,
    /// How many cells were restored from the resume file instead of simulated.
    pub restored: usize,
    /// How many cells were skipped because they belong to another shard.
    pub skipped: usize,
    /// How many cells were served by the content-addressed result cache.
    pub cached: usize,
}

impl SweepResult {
    /// The cells that failed (panicked), if any.
    pub fn failures(&self) -> impl Iterator<Item = &ExperimentCell> {
        self.cells.iter().filter(|c| c.error().is_some())
    }

    /// Prints the aggregated warnings to stderr (one line each).
    pub fn emit_warnings(&self) {
        for w in &self.warnings {
            eprintln!("warning: {w}");
        }
    }
}

/// Resolves the worker-thread count: `jobs` if nonzero, else all available
/// parallelism, capped by the number of cells.
fn effective_jobs(jobs: usize, total_cells: usize) -> usize {
    let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n = if jobs == 0 { auto } else { jobs };
    n.clamp(1, total_cells.max(1))
}

/// One `(workload, seed)` trace shared by that pair's cells. The program is
/// generated lazily by the first worker that needs it and dropped as soon as the
/// last of the pair's cells finishes, so sweep memory is bounded by the traces in
/// active use, not by the whole matrix.
struct ProgramSlot {
    program: Option<Arc<Program>>,
    remaining: usize,
}

/// Runs the full `(workload × configuration × seed)` matrix as independent cells on
/// a work-stealing queue. `matrix` labels the sweep in the JSONL stream (use the
/// artifact name) so identically named configurations from different artifacts do
/// not collide on resume.
///
/// This is the canonical-plan wrapper over [`execute_plan`]: it enumerates the
/// matrix with [`SweepPlan::enumerate`], applies [`RunOptions::shard`], and
/// executes. The returned cells are in canonical order — workload-major, then
/// configuration, then seed, matching the input orders — regardless of `opts.jobs`.
///
/// # Panics
///
/// Panics if `seeds` is empty. Panics *inside cells* are caught and recorded as
/// [`CellOutcome::Failed`] (their message also reaches stderr through the default
/// panic hook); the sweep itself always completes.
pub fn run_cells(
    matrix: &str,
    workloads: &[WorkloadProfile],
    configs: &[MachineConfig],
    trace_len: usize,
    seeds: &[u64],
    spec_fingerprint: u64,
    opts: &RunOptions<'_>,
) -> SweepResult {
    assert!(!seeds.is_empty(), "a sweep needs at least one seed");
    let mut plan = SweepPlan::enumerate(
        matrix,
        workloads,
        configs,
        trace_len,
        seeds,
        spec_fingerprint,
    );
    if let Some(shard) = opts.shard {
        plan.apply_shard(shard);
    }
    execute_plan(&plan, opts)
}

/// Executes any [`SweepPlan`] — canonical, sharded, or a coordinator-issued requeue
/// round — returning one [`ExperimentCell`] per planned cell, in plan order.
///
/// The executor makes no policy decisions of its own: which cells exist and which
/// belong to this process were decided when the plan was built. Per cell it (1)
/// restores from the resume sink when possible, (2) skips out-of-shard cells, (3)
/// otherwise simulates, sharing each `(workload, seed)` trace between the cells
/// that need it and freeing it after the last one. Cells sharing a trace are
/// scheduled back-to-back (trace-key first-appearance order) so sweep memory is
/// bounded by the traces in active use.
pub fn execute_plan(plan: &SweepPlan, opts: &RunOptions<'_>) -> SweepResult {
    let total = plan.cells.len();

    // Resolve result-cache hits up front — before the trace slots are built —
    // so a hit never participates in trace grouping at all: a fully-cached
    // (workload, seed) group creates no program slot, and its cells skip trace
    // generation and simulation entirely.
    // Out-of-shard cells keep their skip semantics, and a cell the resume sink
    // already holds is restored from the sink (never double-counted as cached).
    let resolved: Vec<Option<CpuStats>> = match opts.result_cache {
        Some(rc) => plan
            .cells
            .iter()
            .map(|cell| {
                if !cell.in_shard
                    || opts
                        .sink
                        .is_some_and(|sink| sink.lookup(&cell.id).is_some())
                {
                    return None;
                }
                let lookup_start = std::time::Instant::now();
                let hit = rc.lookup(&cell.id);
                if let Some(metrics) = opts.obs.and_then(|o| o.metrics.as_ref()) {
                    metrics.result_cache_seconds.record(lookup_start.elapsed());
                    if hit.is_some() {
                        metrics.result_cache_hits.inc();
                    } else {
                        metrics.result_cache_misses.inc();
                    }
                }
                hit
            })
            .collect(),
        None => vec![None; total],
    };

    // Group cell indices by trace key — (workload, seed) — in first-appearance
    // order; the task queue drains slot by slot so a trace's cells run together.
    let mut slot_of: HashMap<(usize, u64), usize> = HashMap::new();
    let mut slot_cells: Vec<Vec<usize>> = Vec::new();
    let mut slot_index: Vec<Option<usize>> = Vec::with_capacity(total);
    for (k, cell) in plan.cells.iter().enumerate() {
        if resolved[k].is_some() {
            slot_index.push(None);
            continue;
        }
        let slot = *slot_of
            .entry((cell.workload, cell.id.seed))
            .or_insert_with(|| {
                slot_cells.push(Vec::new());
                slot_cells.len() - 1
            });
        slot_cells[slot].push(k);
        slot_index.push(Some(slot));
    }
    // Cache-served cells drain first (they are instant), then the trace groups.
    let mut tasks: Vec<usize> = (0..total).filter(|&k| resolved[k].is_some()).collect();
    tasks.extend(slot_cells.iter().flatten().copied());
    let programs: Vec<Mutex<ProgramSlot>> = slot_cells
        .iter()
        .map(|cells| {
            Mutex::new(ProgramSlot {
                program: None,
                remaining: cells.len(),
            })
        })
        .collect();

    let next_task = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<ExperimentCell>>> = Mutex::new(vec![None; total]);
    let stream_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let store_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let restored_count = AtomicUsize::new(0);
    let skipped_count = AtomicUsize::new(0);
    let cached_count = AtomicUsize::new(0);

    // A plan the result cache serves whole has nothing to simulate: its hits
    // drain on the calling thread. Spawning and joining workers would cost more
    // than the hits themselves, and a woken thread's wait for a core varies with
    // the host's load.
    let jobs = if slot_cells.is_empty() {
        1
    } else {
        effective_jobs(opts.jobs, total)
    };
    if let Some(o) = opts.obs {
        if let Some(progress) = &o.progress {
            progress.add_planned(total);
        }
        if let Some(metrics) = &o.metrics {
            metrics.workers.record_max(jobs as u64);
        }
        if let Some(events) = &o.events {
            events.emit(
                event_kind::SWEEP_STARTED,
                [
                    ("matrix", json::string(&plan.matrix)),
                    ("cells", json::uint(total as u64)),
                    ("jobs", json::uint(jobs as u64)),
                ],
            );
        }
    }
    // The workers need their 0-based index (for the stats collector), so the
    // closure is `move`; reborrow the shared state so only references move.
    let drain = {
        let (tasks, programs, results, resolved) = (&tasks, &programs, &results, &resolved);
        let (slot_index, plan) = (&slot_index, &plan);
        let (next_task, restored_count, skipped_count, cached_count) =
            (&next_task, &restored_count, &skipped_count, &cached_count);
        let (stream_errors, store_errors) = (&stream_errors, &store_errors);
        move |worker: usize| {
            // Each worker owns one simulation arena reused across every cell it
            // drains: cell startup clears the previous cell's pipeline in place
            // instead of rebuilding it, and the hot loop never allocates.
            let mut arena = SimArena::new();
            let mut wstats = WorkerStats::default();
            loop {
                let t = next_task.fetch_add(1, Ordering::Relaxed);
                let Some(&k) = tasks.get(t) else {
                    break;
                };
                let planned = &plan.cells[k];
                let id = planned.id.clone();
                let in_shard = planned.in_shard;
                let mut was_cached = false;

                if let Some(events) = opts.obs.and_then(|o| o.events.as_ref()) {
                    events.emit_cell(event_kind::PLANNED, &id, worker, []);
                }
                let restored = opts.sink.and_then(|sink| sink.lookup(&id));
                let outcome = match restored {
                    // A cell already in the resume file is restored even when it
                    // belongs to another shard — that is what makes re-rendering
                    // from a merged file work without re-simulating anything.
                    Some(stats) => {
                        restored_count.fetch_add(1, Ordering::Relaxed);
                        wstats.cells_restored += 1;
                        if let Some(o) = opts.obs {
                            if let Some(events) = &o.events {
                                events.emit_cell(event_kind::RESTORED, &id, worker, []);
                            }
                            if let Some(metrics) = &o.metrics {
                                metrics.cells_restored.inc();
                            }
                            if let Some(progress) = &o.progress {
                                progress.record(CellProgress::Restored);
                            }
                        }
                        Some(Ok(stats))
                    }
                    // Pre-resolved result-cache hit: no trace and no
                    // simulation. The cell is still appended to the
                    // sink (it was not restored from there), so shard
                    // streams stay complete for merge and coordinate.
                    None if resolved[k].is_some() => {
                        let stats = resolved[k].clone().expect("pre-resolved cache hit");
                        was_cached = true;
                        cached_count.fetch_add(1, Ordering::Relaxed);
                        wstats.cells_cached += 1;
                        if let Some(sink) = opts.sink {
                            if let Err(e) = sink.append(&id, &Ok(stats.clone())) {
                                stream_errors
                                    .lock()
                                    .unwrap_or_else(|e| e.into_inner())
                                    .push(e.to_string());
                            }
                        }
                        if let Some(o) = opts.obs {
                            if let Some(events) = &o.events {
                                events.emit_cell(event_kind::CACHED, &id, worker, []);
                            }
                            if let Some(metrics) = &o.metrics {
                                metrics.cells_cached.inc();
                            }
                            if let Some(progress) = &o.progress {
                                progress.record(CellProgress::Cached);
                            }
                        }
                        Some(Ok(stats))
                    }
                    None if !in_shard => {
                        skipped_count.fetch_add(1, Ordering::Relaxed);
                        if let Some(o) = opts.obs {
                            if let Some(events) = &o.events {
                                events.emit_cell(event_kind::SKIPPED, &id, worker, []);
                            }
                            if let Some(metrics) = &o.metrics {
                                metrics.cells_skipped.inc();
                            }
                            if let Some(progress) = &o.progress {
                                progress.record(CellProgress::OutOfShard);
                            }
                        }
                        None
                    }
                    None => {
                        let slot_ix = slot_index[k].expect("non-cached cells have a trace slot");
                        if arena.is_warm() {
                            wstats.resets += 1;
                        } else {
                            wstats.rebuilds += 1;
                        }
                        // Generation time for the event journal: set only by the
                        // worker that generates the shared trace (the pair's
                        // other cells reuse it for free).
                        let mut generated: Option<std::time::Duration> = None;
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            let program = {
                                let mut slot =
                                    programs[slot_ix].lock().unwrap_or_else(|e| e.into_inner());
                                if slot.program.is_none() {
                                    let start = std::time::Instant::now();
                                    slot.program = Some(Arc::new(
                                        plan.workloads[planned.workload]
                                            .generate(plan.trace_len, id.seed),
                                    ));
                                    generated = Some(start.elapsed());
                                }
                                slot.program.clone().expect("slot was just filled")
                            };
                            let config = &plan.configs[planned.config];
                            let sim_start = std::time::Instant::now();
                            if let Some(oracle_opts) = opts.oracle {
                                // Differential mode: the golden-model
                                // checker observes every commit; a recorded
                                // divergence fails the cell without
                                // panicking (so it stays distinguishable
                                // from a simulator panic).
                                let mut checker =
                                    DifferentialChecker::new(program.instructions(), oracle_opts);
                                let stats = Cpu::recycle(&mut arena, config, &program)
                                    .run_observed(&mut checker);
                                match checker.divergence() {
                                    Some(d) => Err(format!("oracle divergence: {d}")),
                                    None => Ok((stats, sim_start.elapsed())),
                                }
                            } else {
                                let stats = Cpu::recycle(&mut arena, config, &program).run();
                                Ok((stats, sim_start.elapsed()))
                            }
                        }));
                        if run.is_err() {
                            // A panicking cell may leave the arena's pipeline in an
                            // inconsistent mid-cycle state: discard it so the next
                            // cell rebuilds from scratch.
                            arena = SimArena::new();
                        }
                        wstats.cells_simulated += 1;
                        if let Some(collector) = opts.stats {
                            let counter = if generated.is_some() {
                                &collector.traces_generated
                            } else {
                                &collector.cells_shared_trace
                            };
                            counter.fetch_add(1, Ordering::Relaxed);
                        }
                        // `phase` tells a journal reader *how* the cell failed:
                        // "oracle" (golden-model divergence) vs "panic".
                        let (result, sim_dur, phase) = match run {
                            Ok(Ok((stats, dur))) => (Ok(stats), Some(dur), ""),
                            Ok(Err(divergence)) => (Err(divergence), None, "oracle"),
                            Err(payload) => (
                                Err(payload
                                    .downcast_ref::<String>()
                                    .map(String::as_str)
                                    .or_else(|| payload.downcast_ref::<&str>().copied())
                                    .unwrap_or("simulation panicked")
                                    .to_string()),
                                None,
                                "panic",
                            ),
                        };
                        if result.is_err() {
                            wstats.cells_failed += 1;
                        }
                        // Publish the freshly simulated cell back to the
                        // result cache (successes only — failed cells
                        // re-run, exactly like on resume). A store error
                        // degrades to one aggregated warning; the sweep
                        // never aborts on cache I/O.
                        if let (Some(rc), Ok(stats)) = (opts.result_cache, &result) {
                            let store_start = std::time::Instant::now();
                            let stored = rc.store(&id, stats);
                            if let Some(metrics) = opts.obs.and_then(|o| o.metrics.as_ref()) {
                                metrics.result_cache_seconds.record(store_start.elapsed());
                                if stored.is_ok() {
                                    metrics.result_cache_stores.inc();
                                }
                            }
                            if let Err(e) = stored {
                                store_errors
                                    .lock()
                                    .unwrap_or_else(|e| e.into_inner())
                                    .push(e.to_string());
                            }
                        }
                        if let Some(events) = opts.obs.and_then(|o| o.events.as_ref()) {
                            if let Some(dur) = generated {
                                events.emit_cell(
                                    event_kind::TRACE_ACQUIRED,
                                    &id,
                                    worker,
                                    [("dur_us", json::number(dur.as_secs_f64() * 1e6))],
                                );
                            }
                            match (&result, sim_dur) {
                                (Ok(stats), Some(dur)) => events.emit_cell(
                                    event_kind::SIMULATED,
                                    &id,
                                    worker,
                                    [
                                        ("cycles", json::uint(stats.cycles)),
                                        ("dur_us", json::number(dur.as_secs_f64() * 1e6)),
                                    ],
                                ),
                                _ => events.emit_cell(
                                    event_kind::FAILED,
                                    &id,
                                    worker,
                                    [
                                        (
                                            "error",
                                            json::string(
                                                result.as_ref().err().map_or("", String::as_str),
                                            ),
                                        ),
                                        ("phase", json::string(phase)),
                                    ],
                                ),
                            }
                        }
                        let mut write_dur = None;
                        if let Some(sink) = opts.sink {
                            let write_start = std::time::Instant::now();
                            if let Err(e) = sink.append(&id, &result) {
                                stream_errors
                                    .lock()
                                    .unwrap_or_else(|e| e.into_inner())
                                    .push(e.to_string());
                            }
                            write_dur = Some(write_start.elapsed());
                            if let Some(events) = opts.obs.and_then(|o| o.events.as_ref()) {
                                events.emit_cell(
                                    event_kind::WRITTEN,
                                    &id,
                                    worker,
                                    [(
                                        "dur_us",
                                        json::number(write_dur.unwrap().as_secs_f64() * 1e6),
                                    )],
                                );
                            }
                        }
                        if let Some(o) = opts.obs {
                            if let Some(metrics) = &o.metrics {
                                if let Some(dur) = generated {
                                    metrics.traces_generated.inc();
                                    metrics.trace_acquire_seconds.record(dur);
                                }
                                match &result {
                                    Ok(stats) => {
                                        metrics.cells_simulated.inc();
                                        metrics.sim_cycles.add(stats.cycles);
                                        metrics.fwd_buffer_lookups.add(stats.fwd_buffer_lookups);
                                        metrics.fwd_buffer_hits.add(stats.fwd_buffer_hits);
                                        metrics.store_set_squashes.add(stats.store_set_squashes);
                                    }
                                    Err(_) => metrics.cells_failed.inc(),
                                }
                                if let Some(dur) = sim_dur {
                                    metrics.simulate_seconds.record(dur);
                                }
                                if let Some(dur) = write_dur {
                                    metrics.write_seconds.record(dur);
                                }
                            }
                            if let Some(progress) = &o.progress {
                                progress.record(if result.is_ok() {
                                    CellProgress::Simulated
                                } else {
                                    CellProgress::Failed
                                });
                            }
                        }
                        Some(result)
                    }
                };

                // Whether simulated, restored, skipped, or failed, this
                // (workload, seed) pair has one fewer cell outstanding; free the
                // trace after the last one, so sweep memory stays bounded by the
                // traces in active use. Cache-served cells have no slot: they
                // never joined a trace group in the first place.
                if let Some(slot_ix) = slot_index[k] {
                    let mut slot = programs[slot_ix].lock().unwrap_or_else(|e| e.into_inner());
                    slot.remaining -= 1;
                    if slot.remaining == 0 {
                        slot.program = None;
                    }
                }

                let cell = ExperimentCell {
                    workload: id.workload,
                    config: id.config,
                    seed: id.seed,
                    outcome: match outcome {
                        Some(Ok(stats)) if was_cached => CellOutcome::Cached(Box::new(stats)),
                        Some(Ok(stats)) => CellOutcome::Ok(Box::new(stats)),
                        Some(Err(msg)) => CellOutcome::Failed(msg),
                        None => CellOutcome::Skipped,
                    },
                };
                results.lock().unwrap_or_else(|e| e.into_inner())[k] = Some(cell);
            }
            if let Some(collector) = opts.stats {
                collector.record_worker(worker, &wstats);
            }
        }
    };
    if jobs == 1 {
        drain(0);
    } else {
        std::thread::scope(|scope| {
            for worker in 0..jobs {
                scope.spawn(move || drain(worker));
            }
        });
    }

    if let Some(events) = opts.obs.and_then(|o| o.events.as_ref()) {
        events.emit(
            event_kind::SWEEP_FINISHED,
            [
                ("matrix", json::string(&plan.matrix)),
                ("cells", json::uint(total as u64)),
            ],
        );
    }
    let cells: Vec<ExperimentCell> = results
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .map(|c| c.expect("every scheduled cell produced a result"))
        .collect();

    // Workers push errors in completion order; sort so the aggregated warning (which
    // flows into report notes) is deterministic regardless of `jobs`.
    let mut stream_errors = stream_errors
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    stream_errors.sort_unstable();
    let mut store_errors = store_errors.into_inner().unwrap_or_else(|e| e.into_inner());
    store_errors.sort_unstable();
    let mut warnings = Vec::new();
    if !stream_errors.is_empty() {
        warnings.push(format!(
            "failed to append {} result line(s) to the JSONL stream (first: {})",
            stream_errors.len(),
            stream_errors[0]
        ));
    }
    if !store_errors.is_empty() {
        warnings.push(format!(
            "result cache could not store {} cell(s); they were simulated but not shared \
             (first: {})",
            store_errors.len(),
            store_errors[0]
        ));
    }
    SweepResult {
        cells,
        warnings,
        restored: restored_count.into_inner(),
        skipped: skipped_count.into_inner(),
        cached: cached_count.into_inner(),
    }
}

/// Single-seed convenience wrapper over [`run_cells`] with default options: runs
/// every configuration over every workload, emitting any aggregated warnings to
/// stderr, and returns the cells in workload-major, configuration-minor order.
pub fn run_matrix(
    workloads: &[WorkloadProfile],
    configs: &[MachineConfig],
    trace_len: usize,
    seed: u64,
) -> Vec<ExperimentCell> {
    let result = run_cells(
        "matrix",
        workloads,
        configs,
        trace_len,
        &[seed],
        0,
        &RunOptions::default(),
    );
    result.emit_warnings();
    result.cells
}

/// Parses the optional `[trace_len] [seed]` positional arguments accepted by the
/// `svwsim` figure shortcuts.
///
/// Malformed arguments (a non-numeric trace length or seed, or extra positionals) are
/// reported on stderr together with a usage line, and the process exits with status 2
/// — silently falling back to defaults would run a multi-minute experiment the user
/// did not ask for.
pub fn parse_cli_args() -> (usize, u64) {
    match parse_len_seed(std::env::args().skip(1), DEFAULT_TRACE_LEN, DEFAULT_SEED) {
        Ok(pair) => pair,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: <binary> [trace_len] [seed]");
            eprintln!(
                "  trace_len  per-workload dynamic instructions (default {DEFAULT_TRACE_LEN})"
            );
            eprintln!("  seed       workload-generation seed (default {DEFAULT_SEED})");
            std::process::exit(2);
        }
    }
}

/// Parses the optional `[trace_len] [seed]` positionals against caller-supplied
/// defaults. The single source of truth for this little grammar — [`parse_cli_args`]
/// and the `svwsim` figure shortcuts both route through it.
pub fn parse_len_seed(
    mut args: impl Iterator<Item = String>,
    default_trace_len: usize,
    default_seed: u64,
) -> Result<(usize, u64), String> {
    let trace_len = match args.next() {
        None => default_trace_len,
        Some(a) => a
            .parse::<usize>()
            .map_err(|_| format!("invalid trace length {a:?} (expected a positive integer)"))?,
    };
    if trace_len == 0 {
        return Err("trace length must be positive".to_string());
    }
    let seed = match args.next() {
        None => default_seed,
        Some(a) => a
            .parse::<u64>()
            .map_err(|_| format!("invalid seed {a:?} (expected an unsigned integer)"))?,
    };
    if let Some(extra) = args.next() {
        return Err(format!("unexpected extra argument {extra:?}"));
    }
    Ok((trace_len, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use svw_cpu::{LsqOrganization, ReexecMode};

    fn two_configs() -> Vec<MachineConfig> {
        vec![
            MachineConfig::eight_wide(
                "a",
                LsqOrganization::Conventional {
                    extra_load_latency: 0,
                    store_exec_bandwidth: 1,
                },
                ReexecMode::None,
            ),
            MachineConfig::eight_wide(
                "b",
                LsqOrganization::Nlq {
                    store_exec_bandwidth: 2,
                },
                ReexecMode::Full,
            ),
        ]
    }

    #[test]
    fn matrix_runs_all_pairs_in_order() {
        let workloads = vec![
            WorkloadProfile::quicktest(),
            WorkloadProfile::by_name("gzip").unwrap(),
        ];
        let cells = run_matrix(&workloads, &two_configs(), 3_000, 7);
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].workload, "quicktest");
        assert_eq!(cells[0].config, "a");
        assert_eq!(cells[1].config, "b");
        assert_eq!(cells[2].workload, "gzip");
        for c in &cells {
            assert_eq!(c.seed, 7);
            assert!(c.stats().expect("cell completed").committed >= 3_000);
        }
    }

    #[test]
    fn multi_seed_cells_are_seed_minor_and_all_complete() {
        let workloads = vec![WorkloadProfile::quicktest()];
        let configs = two_configs();
        let result = run_cells(
            "test",
            &workloads,
            &configs,
            2_000,
            &[3, 4],
            0,
            &RunOptions::default(),
        );
        assert_eq!(result.cells.len(), 4);
        let order: Vec<(String, u64)> = result
            .cells
            .iter()
            .map(|c| (c.config.clone(), c.seed))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a".into(), 3),
                ("a".into(), 4),
                ("b".into(), 3),
                ("b".into(), 4)
            ]
        );
        assert_eq!(result.failures().count(), 0);
        assert_eq!(result.restored, 0);
        // Different seeds generate different traces, so the runs differ.
        let s3 = result.cells[0].stats().unwrap();
        let s4 = result.cells[1].stats().unwrap();
        assert_ne!(format!("{s3:?}"), format!("{s4:?}"));
    }

    #[test]
    fn warm_result_cache_serves_every_cell_without_simulating() {
        let dir =
            std::env::temp_dir().join(format!("svw-runner-result-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rc = crate::cache::ResultCache::open(&dir, crate::cache::CacheMode::ReadWrite).unwrap();
        let workloads = vec![WorkloadProfile::quicktest()];
        let configs = two_configs();
        let opts = RunOptions {
            result_cache: Some(&rc),
            ..RunOptions::default()
        };
        let collector = StatsCollector::new();
        let warm_opts = RunOptions {
            jobs: 2,
            result_cache: Some(&rc),
            stats: Some(&collector),
            ..RunOptions::default()
        };
        let cold = run_cells("test", &workloads, &configs, 2_000, &[1, 2], 0, &opts);
        assert_eq!(cold.cached, 0);
        assert_eq!(rc.counters().stores, 4);
        let warm = run_cells("test", &workloads, &configs, 2_000, &[1, 2], 0, &warm_opts);
        assert_eq!(warm.cached, 4, "every cell is served from the cache");
        assert!(warm.cells.iter().all(ExperimentCell::is_cached));
        // Nothing to simulate: the hits drain on the calling thread alone.
        assert_eq!(collector.workers().len(), 1);
        let simulated: u64 = collector.workers().iter().map(|w| w.cells_simulated).sum();
        let cached: u64 = collector.workers().iter().map(|w| w.cells_cached).sum();
        assert_eq!((simulated, cached), (0, 4));
        // Byte-identical stats: the cache round-trip is lossless.
        for (c, w) in cold.cells.iter().zip(&warm.cells) {
            assert_eq!(
                format!("{:?}", c.stats().unwrap()),
                format!("{:?}", w.stats().unwrap())
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn arg_parsing_accepts_valid_and_rejects_malformed() {
        let parse = |args: &[&str]| {
            parse_len_seed(
                args.iter().map(|s| s.to_string()),
                DEFAULT_TRACE_LEN,
                DEFAULT_SEED,
            )
        };
        assert_eq!(parse(&[]), Ok((DEFAULT_TRACE_LEN, DEFAULT_SEED)));
        assert_eq!(parse(&["5000"]), Ok((5000, DEFAULT_SEED)));
        assert_eq!(parse(&["5000", "9"]), Ok((5000, 9)));
        assert!(parse(&["abc"]).is_err(), "non-numeric length is rejected");
        assert!(
            parse(&["5000", "xyz"]).is_err(),
            "non-numeric seed is rejected"
        );
        assert!(parse(&["0"]).is_err(), "zero length is rejected");
        assert!(
            parse(&["5000", "9", "extra"]).is_err(),
            "extra positionals are rejected"
        );
        assert!(parse(&["-3"]).is_err(), "negative length is rejected");
    }
}
