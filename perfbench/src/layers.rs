//! Per-layer metrics of a traced replay: host time per crate from span self times,
//! and the simulated counts each layer is responsible for from `CpuStats`.

use std::collections::BTreeMap;

use svw_cpu::CpuStats;

use crate::bench::{Replay, JOBS};
use crate::measure::{median, per_kinst, ratio, tail_percentile};
use crate::spans::{self_times, Span};

/// Share of the traced replay's wall time the layers' self times must account for;
/// the rest is the harness's own bookkeeping between calls.
pub const MIN_SELF_TIME_COVERAGE: f64 = 0.95;

/// Self time per span name, in seconds, plus the number of spans of each name.
struct SelfTimes {
    seconds: BTreeMap<&'static str, f64>,
    count: BTreeMap<&'static str, u64>,
    /// `(cell, self seconds)` of every `svw-cpu.run` span.
    runs: Vec<(u32, f64)>,
    /// Wall time of the `bench.replay` root span.
    root_s: f64,
}

impl SelfTimes {
    fn of(spans: &[Span]) -> SelfTimes {
        let mut out = SelfTimes {
            seconds: BTreeMap::new(),
            count: BTreeMap::new(),
            runs: Vec::new(),
            root_s: 0.0,
        };
        for (span, own) in spans.iter().zip(self_times(spans)) {
            let own = own as f64 * 1e-9;
            *out.seconds.entry(span.name).or_default() += own;
            *out.count.entry(span.name).or_default() += 1;
            if span.name == "svw-cpu.run" {
                out.runs
                    .push((span.cell.expect("run spans carry their cell"), own));
            }
            if span.parent.is_none() {
                out.root_s += (span.end_ns - span.start_ns) as f64 * 1e-9;
            }
        }
        out
    }

    fn s(&self, name: &str) -> f64 {
        self.seconds.get(name).copied().unwrap_or(0.0)
    }

    /// Mean self time of one `name` span, in µs (0 when there were none).
    fn mean_us(&self, name: &str) -> f64 {
        ratio(
            1e6 * self.s(name),
            self.count.get(name).copied().unwrap_or(0) as f64,
        )
    }

    /// Self time of every layer's spans over the root's wall time.
    fn coverage(&self) -> f64 {
        let layers = self
            .seconds
            .iter()
            .filter(|(n, _)| n.starts_with("svw-"))
            .fold(0.0, |sum, (_, s)| sum + s);
        ratio(layers, self.root_s)
    }
}

/// Sums the counters every per-layer rate is built from, over the successful cells.
fn total(cells: &[&CpuStats]) -> CpuStats {
    let mut t = CpuStats::default();
    for s in cells {
        t.cycles += s.cycles;
        t.committed += s.committed;
        t.loads_marked += s.loads_marked;
        t.loads_filtered += s.loads_filtered;
        t.loads_reexecuted += s.loads_reexecuted;
        t.reexec_flushes += s.reexec_flushes;
        t.ordering_flushes += s.ordering_flushes;
        t.wrap_drains += s.wrap_drains;
        t.commit_stalled_on_reexec += s.commit_stalled_on_reexec;
        t.reexec_port_conflicts += s.reexec_port_conflicts;
        t.fwd_buffer_lookups += s.fwd_buffer_lookups;
        t.fwd_buffer_hits += s.fwd_buffer_hits;
        t.store_set_squashes += s.store_set_squashes;
        t.branch_predictor.predictions += s.branch_predictor.predictions;
        t.branch_predictor.mispredictions += s.branch_predictor.mispredictions;
        for (sum, c) in [
            (&mut t.hierarchy.l1d, &s.hierarchy.l1d),
            (&mut t.hierarchy.l2, &s.hierarchy.l2),
        ] {
            sum.reads += c.reads;
            sum.writes += c.writes;
            sum.read_misses += c.read_misses;
            sum.write_misses += c.write_misses;
        }
        t.hierarchy.memory_accesses += s.hierarchy.memory_accesses;
        t.svw.merge(&s.svw);
    }
    t
}

/// Everything the per-layer metrics are computed from.
pub struct LayerRun<'a> {
    pub spans: &'a [Span],
    pub traced: &'a Replay,
    /// Mean wall time of the replay with tracing off.
    pub untraced_s: f64,
    /// Mean wall time of the replay with tracing on.
    pub traced_s: f64,
    /// Wall time of the workload's simulating pass at `JOBS` workers, tracing off.
    pub execute_s: f64,
    /// Failed cells over the parallel pass and both replays.
    pub cells_failed: u64,
}

/// The per-layer metrics, by name, plus the self-time coverage.
pub fn per_layer(run: &LayerRun<'_>) -> (Vec<(&'static str, f64)>, f64) {
    let st = SelfTimes::of(run.spans);
    let ok: Vec<&CpuStats> = run
        .traced
        .cells
        .iter()
        .filter_map(|c| c.outcome.as_ref().ok())
        .collect();
    let t = total(&ok);
    let ipc = |cell: u32| {
        run.traced.cells[cell as usize]
            .outcome
            .as_ref()
            .map_or(0.0, |s| s.ipc())
    };
    let run_split = |low: bool| -> f64 {
        st.runs
            .iter()
            .filter(|(c, _)| (ipc(*c) < 1.0) == low)
            .fold(0.0, |sum, (_, s)| sum + s)
    };
    let cell_ms: Vec<f64> = st.runs.iter().map(|(_, s)| s * 1e3).collect();
    let cell_tail_ms = match tail_percentile(&cell_ms) {
        Some((_, v, _)) => v,
        None => cell_ms.iter().copied().fold(0.0, f64::max),
    };
    let run_s = st.s("svw-cpu.run");
    let check_s = st.s("svw-oracle.check");
    let divergences = run
        .traced
        .cells
        .iter()
        .filter(|c| matches!(&c.outcome, Err(e) if e.starts_with("oracle divergence")))
        .count();
    let busy_s = [
        "svw-workloads.generate",
        "svw-cpu.setup",
        "svw-cpu.run",
        "svw-oracle.check",
        "svw-sim.cache_store",
    ]
    .iter()
    .fold(0.0, |sum, n| sum + st.s(n));
    let miss_rate = |c: &svw_mem::CacheStats| {
        ratio(
            (c.read_misses + c.write_misses) as f64,
            (c.reads + c.writes) as f64,
        )
    };
    let replay_s = run.traced.wall.as_secs_f64();
    let overhead_s = run.traced_s - run.untraced_s;
    let coverage = st.coverage();
    let metrics = vec![
        ("svw-workloads.generate_s", st.s("svw-workloads.generate")),
        ("svw-workloads.traces", run.traced.traces as f64),
        ("svw-cpu.setup_s", st.s("svw-cpu.setup")),
        ("svw-cpu.run_s", run_s),
        ("svw-cpu.run_s.ipc_lt1", run_split(true)),
        ("svw-cpu.run_s.ipc_ge1", run_split(false)),
        (
            "svw-cpu.cell_p50_ms",
            if cell_ms.is_empty() {
                0.0
            } else {
                median(&cell_ms)
            },
        ),
        ("svw-cpu.cell_tail_ms", cell_tail_ms),
        (
            "svw-cpu.host_ns_per_cycle",
            ratio(run_s * 1e9, t.cycles as f64),
        ),
        (
            "svw-cpu.host_ns_per_inst",
            ratio(run_s * 1e9, t.committed as f64),
        ),
        ("svw-cpu.cycles", t.cycles as f64),
        ("svw-cpu.committed", t.committed as f64),
        (
            "svw-cpu.commit_stalled_on_reexec_per_kinst",
            per_kinst(t.commit_stalled_on_reexec, t.committed),
        ),
        (
            "svw-cpu.reexec_port_conflicts_per_kinst",
            per_kinst(t.reexec_port_conflicts, t.committed),
        ),
        (
            "svw-core.marked_per_kinst",
            per_kinst(t.loads_marked, t.committed),
        ),
        (
            "svw-core.filter_rate",
            ratio(t.loads_filtered as f64, t.loads_marked as f64),
        ),
        (
            "svw-core.reexec_per_kinst",
            per_kinst(t.loads_reexecuted, t.committed),
        ),
        (
            "svw-core.reexec_mismatch_rate",
            ratio(t.reexec_flushes as f64, t.loads_reexecuted as f64),
        ),
        (
            "svw-core.ssbf_updates_per_kinst",
            per_kinst(
                t.svw.ssbf_store_updates + t.svw.ssbf_invalidation_updates,
                t.committed,
            ),
        ),
        ("svw-core.wrap_drains", t.wrap_drains as f64),
        (
            "svw-lsq.fwd_buffer_hit_rate",
            ratio(t.fwd_buffer_hits as f64, t.fwd_buffer_lookups as f64),
        ),
        (
            "svw-lsq.reexec_flushes_per_kinst",
            per_kinst(t.reexec_flushes, t.committed),
        ),
        (
            "svw-lsq.ordering_flushes_per_kinst",
            per_kinst(t.ordering_flushes, t.committed),
        ),
        (
            "svw-lsq.store_set_squashes_per_kinst",
            per_kinst(t.store_set_squashes, t.committed),
        ),
        ("svw-mem.l1d_miss_rate", miss_rate(&t.hierarchy.l1d)),
        ("svw-mem.l2_miss_rate", miss_rate(&t.hierarchy.l2)),
        (
            "svw-mem.memory_accesses_per_kinst",
            per_kinst(t.hierarchy.memory_accesses, t.committed),
        ),
        (
            "svw-predictors.mispredict_rate",
            ratio(
                t.branch_predictor.mispredictions as f64,
                t.branch_predictor.predictions as f64,
            ),
        ),
        ("svw-oracle.check_s", check_s),
        ("svw-oracle.share", ratio(check_s, run_s + check_s)),
        ("svw-oracle.divergences", divergences as f64),
        ("svw-sim.plan_s", st.s("svw-sim.plan")),
        ("svw-sim.execute_s", run.execute_s),
        (
            "svw-sim.parallel_efficiency",
            ratio(busy_s, JOBS as f64 * run.execute_s),
        ),
        (
            "svw-sim.cache_lookup_us",
            st.mean_us("svw-sim.cache_lookup"),
        ),
        ("svw-sim.cache_store_us", st.mean_us("svw-sim.cache_store")),
        (
            "svw-sim.cache_hit_frac",
            ratio(run.traced.lookup_hits as f64, run.traced.lookups as f64),
        ),
        ("svw-sim.warm_render_s", st.s("svw-sim.render")),
        ("svw-sim.cells", run.traced.cells.len() as f64),
        ("svw-sim.cells_failed", run.cells_failed as f64),
        ("bench.replay_s", replay_s),
        ("bench.trace_overhead_s", overhead_s),
        (
            "bench.trace_overhead_frac",
            ratio(overhead_s, run.untraced_s),
        ),
        ("bench.self_time_coverage", coverage),
    ];
    (metrics, coverage)
}

/// Self time per layer (crate prefix), in seconds, largest first — the traced run's
/// human-readable breakdown.
pub fn layer_breakdown(spans: &[Span]) -> Vec<(String, f64)> {
    let st = SelfTimes::of(spans);
    let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
    for (name, s) in &st.seconds {
        let layer = name.split('.').next().unwrap_or(name);
        *by_layer.entry(layer.to_string()).or_default() += s;
    }
    let mut out: Vec<(String, f64)> = by_layer.into_iter().collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}
