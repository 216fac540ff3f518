//! Sweep-engine observability: the pre-registered metrics bundle behind
//! `--metrics-out`, the live `--progress` reporter, and the [`SweepObserver`]
//! handle that threads both (plus the `--events` journal) through
//! [`crate::runner::RunOptions`].
//!
//! Everything here is optional at run time: an uninstrumented sweep carries
//! `obs: None` and pays only the `Option` branch per cell. When enabled, every
//! hot-path update is a relaxed atomic on a handle registered up front —
//! workers never touch a registry lock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use svw_obs::{Counter, DurationHistogram, Gauge, Registry, Stopwatch};

use crate::events::EventSink;

/// Every metric the sweep engine exports, registered once at construction.
///
/// Rendered with [`SweepMetrics::render_prometheus`] into the `--metrics-out`
/// snapshot — and, eventually, the payload a `svwsim serve` endpoint would
/// expose.
#[derive(Debug)]
pub struct SweepMetrics {
    registry: Registry,
    /// Cells simulated by this process.
    pub cells_simulated: Arc<Counter>,
    /// Cells restored from an existing results file instead of simulated.
    pub cells_restored: Arc<Counter>,
    /// Cells skipped because they belong to another shard.
    pub cells_skipped: Arc<Counter>,
    /// Cells served by the content-addressed result cache instead of simulated.
    pub cells_cached: Arc<Counter>,
    /// Cells whose simulation panicked.
    pub cells_failed: Arc<Counter>,
    /// Traces generated from workload profiles.
    pub traces_generated: Arc<Counter>,
    /// Total simulated cycles across all cells.
    pub sim_cycles: Arc<Counter>,
    /// Forwarding-buffer probes across all simulated cells.
    pub fwd_buffer_lookups: Arc<Counter>,
    /// Forwarding-buffer probes served from the buffer.
    pub fwd_buffer_hits: Arc<Counter>,
    /// Loads held at rename by a store-set dependence prediction.
    pub store_set_squashes: Arc<Counter>,
    /// Worker threads used by the largest plan execution.
    pub workers: Arc<Gauge>,
    /// Trace-acquisition phase durations (generation, per generating cell).
    pub trace_acquire_seconds: Arc<DurationHistogram>,
    /// Simulation phase durations (cycle-level model, per cell).
    pub simulate_seconds: Arc<DurationHistogram>,
    /// Result-write phase durations (JSONL append, per cell).
    pub write_seconds: Arc<DurationHistogram>,
    /// Result-cache lookups served (`--result-cache`).
    pub result_cache_hits: Arc<Counter>,
    /// Result-cache lookups that found nothing valid.
    pub result_cache_misses: Arc<Counter>,
    /// Cells published to the result cache.
    pub result_cache_stores: Arc<Counter>,
    /// Result-cache entries evicted (`cache gc` / verify-pruned).
    pub result_cache_evictions: Arc<Counter>,
    /// Result-cache phase durations (lookup or publish, per consulted cell).
    pub result_cache_seconds: Arc<DurationHistogram>,
}

impl SweepMetrics {
    /// Builds the registry and registers every metric.
    pub fn new() -> Self {
        let registry = Registry::new();
        let cells_simulated = registry.counter(
            "svw_cells_simulated_total",
            "Cells simulated by this process",
        );
        let cells_restored = registry.counter(
            "svw_cells_restored_total",
            "Cells restored from an existing results file",
        );
        let cells_skipped = registry.counter(
            "svw_cells_skipped_total",
            "Cells skipped as belonging to another shard",
        );
        let cells_cached = registry.counter(
            "svw_cells_cached_total",
            "Cells served by the content-addressed result cache",
        );
        let cells_failed =
            registry.counter("svw_cells_failed_total", "Cells whose simulation panicked");
        let traces_generated = registry.counter(
            "svw_traces_generated_total",
            "Traces generated from workload profiles",
        );
        let sim_cycles =
            registry.counter("svw_sim_cycles_total", "Simulated cycles across all cells");
        let fwd_buffer_lookups = registry.counter(
            "svw_fwd_buffer_lookups_total",
            "Forwarding-buffer probes by re-executing loads",
        );
        let fwd_buffer_hits = registry.counter(
            "svw_fwd_buffer_hits_total",
            "Forwarding-buffer probes served from the buffer",
        );
        let store_set_squashes = registry.counter(
            "svw_store_set_squashes_total",
            "Loads held at rename by a store-set dependence prediction",
        );
        let workers = registry.gauge(
            "svw_workers",
            "Worker threads used by the largest plan execution",
        );
        let trace_acquire_seconds = registry.histogram(
            "svw_phase_trace_acquire_seconds",
            "Trace-acquisition phase durations",
        );
        let simulate_seconds = registry.histogram(
            "svw_phase_simulate_seconds",
            "Cycle-level simulation phase durations",
        );
        let write_seconds = registry.histogram(
            "svw_phase_write_seconds",
            "Result-write (JSONL append) phase durations",
        );
        let result_cache_hits =
            registry.counter("svw_result_cache_hits_total", "Result-cache lookups served");
        let result_cache_misses = registry.counter(
            "svw_result_cache_misses_total",
            "Result-cache lookups that found nothing valid",
        );
        let result_cache_stores = registry.counter(
            "svw_result_cache_stores_total",
            "Cells published to the result cache",
        );
        let result_cache_evictions = registry.counter(
            "svw_result_cache_evictions_total",
            "Result-cache entries evicted or pruned",
        );
        let result_cache_seconds = registry.histogram(
            "svw_phase_result_cache_seconds",
            "Result-cache phase durations (lookup or publish)",
        );
        SweepMetrics {
            registry,
            cells_simulated,
            cells_restored,
            cells_skipped,
            cells_cached,
            cells_failed,
            traces_generated,
            sim_cycles,
            fwd_buffer_lookups,
            fwd_buffer_hits,
            store_set_squashes,
            workers,
            trace_acquire_seconds,
            simulate_seconds,
            write_seconds,
            result_cache_hits,
            result_cache_misses,
            result_cache_stores,
            result_cache_evictions,
            result_cache_seconds,
        }
    }

    /// Renders the snapshot in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }
}

impl Default for SweepMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// How a cell finished, for progress accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellProgress {
    /// Simulated by this process (counts toward the cells/s rate).
    Simulated,
    /// Restored from an existing results file — effectively instant, so it is
    /// excluded from the rate and the ETA's remaining-work estimate.
    Restored,
    /// Out of this process's shard — also instant, also excluded.
    OutOfShard,
    /// Served by the content-addressed result cache — a disk read, not a
    /// simulation, so excluded from the rate and ETA like restored cells.
    Cached,
    /// Simulation panicked.
    Failed,
}

/// Live `--progress` reporter: throttled stderr lines with cells done/total,
/// the simulated-cells/s rate, an ETA, and (for `--ci-target` runs) the
/// current worst per-workload relative CI.
///
/// The rate and ETA deliberately count only *simulated* cells: restored and
/// out-of-shard cells complete in microseconds, so folding them into the rate
/// would make a resumed or sharded run report a wildly optimistic ETA for the
/// cells that still need real simulation.
#[derive(Debug)]
pub struct Progress {
    start: Instant,
    total: AtomicUsize,
    simulated: AtomicUsize,
    restored: AtomicUsize,
    out_of_shard: AtomicUsize,
    cached: AtomicUsize,
    failed: AtomicUsize,
    last_report: Mutex<Option<Instant>>,
    worst_ci: Mutex<Option<(String, f64)>>,
}

/// Minimum interval between progress lines.
const REPORT_EVERY: Duration = Duration::from_millis(500);

impl Progress {
    /// Creates a reporter; the rate clock starts now.
    pub fn new() -> Self {
        Progress {
            start: Instant::now(),
            total: AtomicUsize::new(0),
            simulated: AtomicUsize::new(0),
            restored: AtomicUsize::new(0),
            out_of_shard: AtomicUsize::new(0),
            cached: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            last_report: Mutex::new(None),
            worst_ci: Mutex::new(None),
        }
    }

    /// Adds `n` cells to the denominator (called once per plan execution, so
    /// adaptive rounds grow the total as they schedule more cells).
    pub fn add_planned(&self, n: usize) {
        self.total.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one finished cell and maybe prints a throttled progress line.
    pub fn record(&self, outcome: CellProgress) {
        match outcome {
            CellProgress::Simulated => self.simulated.fetch_add(1, Ordering::Relaxed),
            CellProgress::Restored => self.restored.fetch_add(1, Ordering::Relaxed),
            CellProgress::OutOfShard => self.out_of_shard.fetch_add(1, Ordering::Relaxed),
            CellProgress::Cached => self.cached.fetch_add(1, Ordering::Relaxed),
            CellProgress::Failed => self.failed.fetch_add(1, Ordering::Relaxed),
        };
        self.maybe_report();
    }

    /// Notes the workload with the worst relative IPC CI so far (adaptive runs).
    pub fn note_worst_ci(&self, workload: &str, ci_pct: f64) {
        let mut slot = self.worst_ci.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some((workload.to_string(), ci_pct));
    }

    fn counts(&self) -> (usize, usize, usize, usize, usize, usize) {
        let simulated = self.simulated.load(Ordering::Relaxed);
        let restored = self.restored.load(Ordering::Relaxed);
        let out_of_shard = self.out_of_shard.load(Ordering::Relaxed);
        let cached = self.cached.load(Ordering::Relaxed);
        let failed = self.failed.load(Ordering::Relaxed);
        let total = self.total.load(Ordering::Relaxed);
        (total, simulated, restored, out_of_shard, cached, failed)
    }

    fn render_line(&self) -> String {
        let (total, simulated, restored, out_of_shard, cached, failed) = self.counts();
        let done = simulated + restored + out_of_shard + cached + failed;
        let mut line = format!("[svwsim] progress: {done}/{total} cells");
        let mut parts = Vec::new();
        if restored > 0 {
            parts.push(format!("{restored} restored"));
        }
        if out_of_shard > 0 {
            parts.push(format!("{out_of_shard} other-shard"));
        }
        if cached > 0 {
            parts.push(format!("{cached} cached"));
        }
        if failed > 0 {
            parts.push(format!("{failed} failed"));
        }
        if !parts.is_empty() {
            line.push_str(&format!(" ({simulated} simulated, {})", parts.join(", ")));
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        if simulated > 0 && elapsed > 0.0 {
            let rate = simulated as f64 / elapsed;
            line.push_str(&format!(" | {rate:.1} cells/s"));
            // Restored/out-of-shard cells drain in microseconds; the cells
            // still owed real work are the not-yet-done ones, so the rate of
            // *simulated* cells is the honest divisor.
            let remaining = total.saturating_sub(done);
            if remaining > 0 {
                line.push_str(&format!(" | ETA {:.0}s", remaining as f64 / rate));
            }
        }
        let worst = self.worst_ci.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((workload, pct)) = worst.as_ref() {
            line.push_str(&format!(" | worst CI {workload} \u{b1}{pct:.2}%"));
        }
        line
    }

    fn maybe_report(&self) {
        // try_lock: a worker that loses the race just skips this report rather
        // than queueing on the console.
        let Ok(mut last) = self.last_report.try_lock() else {
            return;
        };
        let now = Instant::now();
        if let Some(prev) = *last {
            if now.duration_since(prev) < REPORT_EVERY {
                return;
            }
        }
        *last = Some(now);
        eprintln!("{}", self.render_line());
    }

    /// Prints the final progress line unconditionally.
    pub fn finish(&self) {
        eprintln!("{}", self.render_line());
    }
}

impl Default for Progress {
    fn default() -> Self {
        Self::new()
    }
}

/// The bundle of enabled instrumentation a sweep carries, threaded by
/// reference through [`crate::runner::RunOptions::obs`].
///
/// Each component is independently optional — `--events`, `--progress`, and
/// `--metrics-out` can be combined freely — and a run with all three disabled
/// never constructs this struct at all.
#[derive(Debug, Default)]
pub struct SweepObserver {
    /// The `--events` journal writer.
    pub events: Option<EventSink>,
    /// The `--metrics-out` registry.
    pub metrics: Option<SweepMetrics>,
    /// The `--progress` stderr reporter.
    pub progress: Option<Progress>,
}

impl SweepObserver {
    /// True when no instrumentation is enabled (callers then pass `obs: None`).
    pub fn is_empty(&self) -> bool {
        self.events.is_none() && self.metrics.is_none() && self.progress.is_none()
    }

    /// Starts a phase stopwatch — sugar so call sites read uniformly.
    pub fn stopwatch() -> Stopwatch {
        Stopwatch::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_render_includes_registered_names() {
        let metrics = SweepMetrics::new();
        metrics.cells_simulated.add(3);
        metrics.traces_generated.add(16);
        metrics.simulate_seconds.record(Duration::from_millis(2));
        let text = metrics.render_prometheus();
        assert!(text.contains("# TYPE svw_cells_simulated_total counter"));
        assert!(text.contains("svw_cells_simulated_total 3"));
        assert!(text.contains("svw_traces_generated_total 16"));
        assert!(text.contains("svw_phase_simulate_seconds_count 1"));
        assert!(text.contains("# TYPE svw_phase_simulate_seconds histogram"));
    }

    #[test]
    fn progress_line_reflects_mix_of_outcomes() {
        let progress = Progress::new();
        progress.add_planned(10);
        progress.record(CellProgress::Simulated);
        progress.record(CellProgress::Restored);
        progress.record(CellProgress::OutOfShard);
        progress.record(CellProgress::Cached);
        progress.note_worst_ci("gcc", 2.5);
        let line = progress.render_line();
        assert!(line.contains("4/10 cells"), "line: {line}");
        assert!(line.contains("1 simulated"), "line: {line}");
        assert!(line.contains("1 restored"), "line: {line}");
        assert!(line.contains("1 other-shard"), "line: {line}");
        assert!(line.contains("1 cached"), "line: {line}");
        assert!(line.contains("worst CI gcc"), "line: {line}");
        assert!(line.contains("ETA"), "line: {line}");
    }

    #[test]
    fn progress_rate_counts_only_simulated_cells() {
        let progress = Progress::new();
        progress.add_planned(100);
        for _ in 0..25 {
            progress.record(CellProgress::Restored);
            progress.record(CellProgress::Cached);
        }
        // No simulated cells yet: no rate, no ETA — a restore- or cache-only
        // prefix must not advertise an (infinite) rate as the simulation rate.
        let line = progress.render_line();
        assert!(!line.contains("cells/s"), "line: {line}");
        assert!(!line.contains("ETA"), "line: {line}");
    }
}
