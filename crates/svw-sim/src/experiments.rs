//! Spec-driven artifact rendering: every paper artifact is resolved from its
//! declarative [`crate::registry`] spec, runs its (workload × configuration ×
//! seed) matrices on the cell-parallel scheduler, and is packaged as a
//! [`FigureReport`] with the same series the paper plots by the renderer the
//! spec names. Under multi-seed replication every plotted value is a mean over
//! seeds and carries a 95% confidence half-interval; failed cells are excluded
//! from the aggregates and surfaced as report notes. Renders at model versions
//! above 1 append a lineage note recording why they diverge from the
//! byte-identical v1 baseline.

use svw_cpu::CpuStats;
use svw_workloads::WorkloadProfile;

use crate::registry::{self, ResolvedMatrix, ResolvedSpec};
use crate::report::{FigureReport, SeriesTable};
use crate::runner::{run_cells, ExperimentCell, RunOptions};

/// Everything an experiment needs beyond its configuration matrix: trace length,
/// replication seeds, and how to schedule cells.
#[derive(Clone, Debug)]
pub struct ExperimentCtx<'c> {
    /// Per-workload dynamic trace length.
    pub trace_len: usize,
    /// Workload-generation seeds; one cell is run per (workload, config, seed).
    /// Under adaptive sampling this is the *starting* list (its first element is the
    /// base seed; extra seeds continue the arithmetic run).
    pub seeds: Vec<u64>,
    /// Adaptive CI-targeted sampling: when set, each workload keeps receiving extra
    /// seeds until its confidence intervals meet the target (or `max_seeds` is hit)
    /// instead of running a fixed seed count.
    pub adaptive: Option<AdaptiveOpts>,
    /// Append substrate-level tables (SSBF lookup/update traffic, L2 miss rate) to
    /// every artifact report. Off by default so the default renderings stay
    /// byte-stable across versions.
    pub substrate: bool,
    /// Behavioural model version artifacts are resolved at (see
    /// [`svw_cpu::MachineConfig::model_version`]). Version 1 — the default —
    /// reproduces the historical renders byte-for-byte.
    pub model_version: u32,
    /// Scheduling options (jobs, JSONL sink, oracle, result cache).
    pub opts: RunOptions<'c>,
}

impl ExperimentCtx<'_> {
    /// A single-seed context with default scheduling options.
    pub fn new(trace_len: usize, seed: u64) -> Self {
        ExperimentCtx {
            trace_len,
            seeds: vec![seed],
            adaptive: None,
            substrate: false,
            model_version: 1,
            opts: RunOptions::default(),
        }
    }

    /// Whether results will be replicated over more than one seed (fixed multi-seed
    /// lists, and always under adaptive sampling).
    fn multi_seed(&self) -> bool {
        self.seeds.len() > 1 || self.adaptive.is_some()
    }

    fn run(&self, m: &ResolvedMatrix, spec_fingerprint: u64) -> Matrix {
        let (workloads, configs) = (&m.workloads[..], &m.configs[..]);
        match &self.adaptive {
            None => {
                let ns = self.seeds.len();
                let result = run_cells(
                    &m.label,
                    workloads,
                    configs,
                    self.trace_len,
                    &self.seeds,
                    spec_fingerprint,
                    &self.opts,
                );
                Matrix::from_uniform(workloads, configs, result, ns, self.multi_seed())
            }
            Some(adaptive) => {
                let sweep = run_cells_adaptive(
                    &m.label,
                    workloads,
                    configs,
                    self.trace_len,
                    self.seeds[0],
                    spec_fingerprint,
                    adaptive,
                    &self.opts,
                );
                Matrix::from_adaptive(workloads, configs, sweep)
            }
        }
    }
}

/// A sample aggregate over replication seeds: mean, sample standard deviation, and
/// the 95% confidence half-interval (Student's t).
#[derive(Clone, Copy, Debug)]
pub struct Stat {
    /// Arithmetic mean over the successful seeds (NaN when every seed failed).
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for fewer than two samples).
    pub sd: f64,
    /// 95% confidence half-interval: `t(df) · sd / √n` (0 for fewer than two).
    pub ci95: f64,
    /// Number of samples (successful seeds) behind the aggregate.
    pub n: usize,
}

impl Stat {
    /// Aggregates a sample set.
    pub fn from_samples(samples: &[f64]) -> Stat {
        let n = samples.len();
        if n == 0 {
            return Stat {
                mean: f64::NAN,
                sd: 0.0,
                ci95: 0.0,
                n,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        if n < 2 {
            return Stat {
                mean,
                sd: 0.0,
                ci95: 0.0,
                n,
            };
        }
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let sd = var.sqrt();
        Stat {
            mean,
            sd,
            ci95: t_critical_95(n - 1) * sd / (n as f64).sqrt(),
            n,
        }
    }
}

/// Two-sided 95% critical values of Student's t by degrees of freedom (1.96 in the
/// normal limit).
fn t_critical_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::NAN
    } else if df <= TABLE.len() {
        TABLE[df - 1]
    } else {
        1.96
    }
}

/// Adaptive sequential-sampling policy: instead of a fixed `--seeds K`, each
/// workload row keeps receiving additional replication seeds — one per round, across
/// *all* of its configurations, so seed-paired comparisons stay paired — until its
/// 95% confidence intervals are tight enough or [`AdaptiveOpts::max_seeds`] is hit.
///
/// The stopping criterion is *relative IPC precision*: a workload is done when, for
/// every configuration, the Student-t 95% half-interval of IPC over the seeds run so
/// far is at most `ci_target_pct` percent of the mean IPC. IPC is the metric every
/// reported table derives from (speedups are ratios of paired IPCs, rates are ratios
/// of like-shaped counters), so its precision is the sweep's precision.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveOpts {
    /// Target relative 95% CI, in percent of the mean (e.g. `1.0` = ±1%).
    pub ci_target_pct: f64,
    /// Seeds every workload runs before the first CI check (at least 2 — a CI needs
    /// two samples).
    pub min_seeds: usize,
    /// Hard ceiling on seeds per workload; a workload that still misses the target
    /// here is reported as such and stops.
    pub max_seeds: usize,
}

impl AdaptiveOpts {
    /// Validates the policy (positive target, `2 <= min_seeds <= max_seeds`).
    pub fn validate(&self) -> Result<(), String> {
        if self.ci_target_pct.is_nan() || self.ci_target_pct <= 0.0 {
            return Err("--ci-target must be a positive percentage".to_string());
        }
        if self.min_seeds < 2 {
            return Err("--min-seeds must be at least 2 (a CI needs two samples)".to_string());
        }
        if self.max_seeds < self.min_seeds {
            return Err("--max-seeds must be at least --min-seeds".to_string());
        }
        Ok(())
    }
}

/// One workload's adaptive-sampling outcome.
#[derive(Clone, Debug)]
pub struct AdaptiveGroupReport {
    /// Workload name.
    pub workload: String,
    /// Seeds actually run for this workload (each across every configuration).
    pub seeds_run: usize,
    /// The achieved precision: the *worst* relative 95% CI of IPC across the
    /// workload's configurations, in percent of the mean (infinite if any
    /// configuration has fewer than two successful seeds).
    pub achieved_ci_pct: f64,
    /// Whether the target was met (`false` means the workload hit `max_seeds`).
    pub met_target: bool,
}

/// Everything [`run_cells_adaptive`] produced: the per-(workload, config) cell
/// groups — ragged across workloads, since each workload stops at its own seed
/// count — plus the per-workload outcomes and sweep-level bookkeeping.
#[derive(Debug)]
pub struct AdaptiveSweep {
    /// `groups[w][c]` = the per-seed cells for workload `w` under config `c`, in
    /// seed order. Within one workload every config has the same seed list.
    pub groups: Vec<Vec<Vec<ExperimentCell>>>,
    /// Per-workload sampling outcomes, in workload order.
    pub reports: Vec<AdaptiveGroupReport>,
    /// Aggregated sweep-level warnings from every round.
    pub warnings: Vec<String>,
    /// Extra seed-cells scheduled beyond `min_seeds` over the whole sweep.
    pub extra_cells: usize,
}

/// The relative 95% CI of one sample set, in percent of the mean — infinite when
/// fewer than two samples exist or the mean is zero (no CI can be formed).
///
/// This is the *single* definition of the adaptive stopping criterion's per-cell
/// precision: both the in-process engine ([`run_cells_adaptive`]) and the
/// distributed coordinator ([`crate::coordinate`]) evaluate it, and they must
/// never drift apart — the coordinator's byte-identical-convergence guarantee
/// depends on replaying exactly these decisions.
pub(crate) fn relative_ci_pct(samples: &[f64]) -> f64 {
    let stat = Stat::from_samples(samples);
    if stat.n < 2 || stat.mean.abs() == 0.0 {
        f64::INFINITY
    } else {
        100.0 * stat.ci95 / stat.mean.abs()
    }
}

/// The worst (largest) relative 95% CI of IPC across one workload's configurations,
/// in percent of the mean. Infinite while any configuration has fewer than two
/// successful seeds (no CI can be formed yet).
fn worst_relative_ipc_ci(row: &[Vec<ExperimentCell>]) -> f64 {
    row.iter()
        .map(|cells| {
            let samples: Vec<f64> = cells
                .iter()
                .filter_map(|cell| cell.stats().map(CpuStats::ipc))
                .collect();
            relative_ci_pct(&samples)
        })
        .fold(0.0, f64::max)
}

/// Runs a matrix with adaptive CI-targeted sampling (sequential sampling): every
/// workload starts with `min_seeds` replication seeds (`start_seed..`), then rounds
/// of one extra seed per still-imprecise workload — requeued across all of that
/// workload's configurations to keep seed-paired speedups paired — until every
/// workload meets [`AdaptiveOpts::ci_target_pct`] or hits `max_seeds`.
///
/// Resume-safe: with a [`crate::JsonlSink`] attached, the rounds re-derive the same
/// decisions from restored cells, so an interrupted adaptive sweep continues where
/// it stopped.
///
/// # Panics
///
/// Panics if the policy is invalid (see [`AdaptiveOpts::validate`]) or if `opts`
/// carries a shard — adaptivity needs the full matrix in one process, because the
/// CI decisions are made from every configuration's results.
#[allow(clippy::too_many_arguments)]
pub fn run_cells_adaptive(
    matrix: &str,
    workloads: &[WorkloadProfile],
    configs: &[svw_cpu::MachineConfig],
    trace_len: usize,
    start_seed: u64,
    spec_fingerprint: u64,
    adaptive: &AdaptiveOpts,
    opts: &RunOptions<'_>,
) -> AdaptiveSweep {
    adaptive
        .validate()
        .unwrap_or_else(|e| panic!("invalid adaptive policy: {e}"));
    assert!(
        opts.shard.is_none(),
        "adaptive sampling and sharding are mutually exclusive"
    );
    let (nw, nc) = (workloads.len(), configs.len());
    let base_seeds: Vec<u64> = (0..adaptive.min_seeds as u64)
        .map(|i| start_seed + i)
        .collect();
    let first = run_cells(
        matrix,
        workloads,
        configs,
        trace_len,
        &base_seeds,
        spec_fingerprint,
        opts,
    );
    let mut warnings = first.warnings;
    let mut groups: Vec<Vec<Vec<ExperimentCell>>> = vec![vec![Vec::new(); nc]; nw];
    for (i, cell) in first.cells.into_iter().enumerate() {
        let (w, c) = (i / (nc * adaptive.min_seeds), (i / adaptive.min_seeds) % nc);
        groups[w][c].push(cell);
    }

    // Workloads still missing the target. All pool members share the same seed
    // count (a workload leaves the pool exactly once and never re-enters), so each
    // round appends one seed to every member.
    let mut pool: Vec<usize> = (0..nw).collect();
    let mut seeds_run = vec![adaptive.min_seeds; nw];
    let mut extra_cells = 0usize;
    loop {
        pool.retain(|&w| worst_relative_ipc_ci(&groups[w]) > adaptive.ci_target_pct);
        // Surface the workload furthest from the CI target on the live
        // `--progress` line, so a long adaptive run shows *why* it keeps going.
        if let Some(progress) = opts.obs.and_then(|o| o.progress.as_ref()) {
            let worst = (0..nw)
                .map(|w| (w, worst_relative_ipc_ci(&groups[w])))
                .max_by(|a, b| a.1.total_cmp(&b.1));
            if let Some((w, pct)) = worst {
                progress.note_worst_ci(&workloads[w].name, pct);
            }
        }
        if pool.is_empty() || seeds_run[pool[0]] >= adaptive.max_seeds {
            break;
        }
        let next_seed = start_seed + seeds_run[pool[0]] as u64;
        let subset: Vec<WorkloadProfile> = pool.iter().map(|&w| workloads[w].clone()).collect();
        let round = run_cells(
            matrix,
            &subset,
            configs,
            trace_len,
            &[next_seed],
            spec_fingerprint,
            opts,
        );
        warnings.extend(round.warnings);
        for (i, cell) in round.cells.into_iter().enumerate() {
            groups[pool[i / nc]][i % nc].push(cell);
        }
        for &w in &pool {
            seeds_run[w] += 1;
        }
        extra_cells += pool.len() * nc;
    }
    if let Some(collector) = opts.stats {
        collector.record_adaptive_extra(extra_cells);
    }

    let reports = workloads
        .iter()
        .enumerate()
        .map(|(w, profile)| {
            let achieved = worst_relative_ipc_ci(&groups[w]);
            AdaptiveGroupReport {
                workload: profile.name.clone(),
                seeds_run: seeds_run[w],
                achieved_ci_pct: achieved,
                met_target: achieved <= adaptive.ci_target_pct,
            }
        })
        .collect();
    AdaptiveSweep {
        groups,
        reports,
        warnings,
        extra_cells,
    }
}

/// A completed matrix: the per-(workload, configuration) cell groups — possibly
/// ragged across workloads under adaptive sampling — plus the lookup and
/// aggregation helpers the figure renderers use.
struct Matrix {
    /// `groups[w][c]` = per-seed cells for that pair, in seed order.
    groups: Vec<Vec<Vec<ExperimentCell>>>,
    workload_names: Vec<String>,
    config_names: Vec<String>,
    warnings: Vec<String>,
    /// Whether aggregate cells should render as mean ± CI.
    replicated: bool,
    /// Adaptive per-workload seed-count notes (empty for fixed-seed sweeps).
    adaptive_notes: Vec<String>,
    /// Cells outside this process's shard (aggregates are partial when nonzero).
    skipped: usize,
}

impl Matrix {
    /// Builds a matrix from a fixed-seed [`run_cells`] sweep (canonical
    /// workload-major, configuration, seed cell order; `ns` seeds per pair).
    fn from_uniform(
        workloads: &[WorkloadProfile],
        configs: &[svw_cpu::MachineConfig],
        result: crate::runner::SweepResult,
        ns: usize,
        replicated: bool,
    ) -> Matrix {
        let nc = configs.len();
        let mut groups: Vec<Vec<Vec<ExperimentCell>>> = vec![vec![Vec::new(); nc]; workloads.len()];
        for (i, cell) in result.cells.into_iter().enumerate() {
            groups[i / (nc * ns)][(i / ns) % nc].push(cell);
        }
        Matrix {
            groups,
            workload_names: workloads.iter().map(|w| w.name.clone()).collect(),
            config_names: configs.iter().map(|c| c.name.clone()).collect(),
            warnings: result.warnings,
            replicated,
            adaptive_notes: Vec::new(),
            skipped: result.skipped,
        }
    }

    /// Builds a matrix from an adaptive sweep, turning the per-workload outcomes
    /// into report notes (seed counts and achieved precision).
    fn from_adaptive(
        workloads: &[WorkloadProfile],
        configs: &[svw_cpu::MachineConfig],
        sweep: AdaptiveSweep,
    ) -> Matrix {
        let per_workload: Vec<String> = sweep
            .reports
            .iter()
            .map(|r| {
                format!(
                    "{} {} seed(s), worst IPC CI {}{}",
                    r.workload,
                    r.seeds_run,
                    if r.achieved_ci_pct.is_finite() {
                        format!("\u{b1}{:.2}%", r.achieved_ci_pct)
                    } else {
                        "unavailable".to_string()
                    },
                    if r.met_target { "" } else { " [hit max-seeds]" },
                )
            })
            .collect();
        let adaptive_notes = vec![format!(
            "adaptive sampling ({} extra seed-cell(s)): {}",
            sweep.extra_cells,
            per_workload.join("; ")
        )];
        Matrix {
            groups: sweep.groups,
            workload_names: workloads.iter().map(|w| w.name.clone()).collect(),
            config_names: configs.iter().map(|c| c.name.clone()).collect(),
            warnings: sweep.warnings,
            replicated: true,
            adaptive_notes,
            skipped: 0,
        }
    }

    /// The per-seed cells for one (workload, configuration) pair.
    fn group(&self, workload: &str, config: &str) -> &[ExperimentCell] {
        let w = self
            .workload_names
            .iter()
            .position(|n| n == workload)
            .expect("workload exists in the matrix");
        let c = self
            .config_names
            .iter()
            .position(|n| n == config)
            .expect("config exists in the matrix");
        &self.groups[w][c]
    }

    /// Aggregates `metric` for one (workload, configuration) pair over its
    /// successful seeds.
    fn stat(&self, workload: &str, config: &str, metric: fn(&CpuStats) -> f64) -> Stat {
        let samples: Vec<f64> = self
            .group(workload, config)
            .iter()
            .filter_map(|cell| cell.stats().map(metric))
            .collect();
        Stat::from_samples(&samples)
    }

    /// Aggregates the per-seed *paired* percent speedup of `config` over
    /// `baseline` for one workload (pairing by seed removes the between-seed
    /// workload variance from the comparison).
    fn speedup_stat(&self, workload: &str, config: &str, baseline: &str) -> Stat {
        let samples: Vec<f64> = self
            .group(workload, config)
            .iter()
            .zip(self.group(workload, baseline))
            .filter_map(|(c, b)| match (c.stats(), b.stats()) {
                (Some(cs), Some(bs)) => Some(cs.speedup_over(bs)),
                _ => None,
            })
            .collect();
        Stat::from_samples(&samples)
    }

    /// Sweep-level notes: failed cells, shard partiality, adaptive seed counts, and
    /// aggregated warnings, if any.
    fn notes(&self) -> Vec<String> {
        let mut notes = Vec::new();
        let failures: Vec<&ExperimentCell> = self
            .groups
            .iter()
            .flatten()
            .flatten()
            .filter(|c| c.error().is_some())
            .collect();
        if let Some(first) = failures.first() {
            notes.push(format!(
                "{} cell(s) failed and are excluded from the aggregates (first: {} × {} seed {}: {})",
                failures.len(),
                first.workload,
                first.config,
                first.seed,
                first.error().unwrap_or("unknown")
            ));
        }
        if self.skipped > 0 {
            notes.push(format!(
                "shard run: {} cell(s) belong to other shards — the aggregates above are \
                 partial; merge the shard JSONL files and re-render for the full artifact",
                self.skipped
            ));
        }
        notes.extend(self.adaptive_notes.iter().cloned());
        notes.extend(self.warnings.iter().map(|w| format!("warning: {w}")));
        notes
    }

    /// Builds one series row (means and, under replication, CIs) over all workloads
    /// for `config`.
    fn push_metric_series(
        &self,
        table: &mut SeriesTable,
        config: &str,
        metric: fn(&CpuStats) -> f64,
    ) {
        let stats: Vec<Stat> = self
            .workload_names
            .iter()
            .map(|w| self.stat(w, config, metric))
            .collect();
        push_stats(table, config, &stats, self.replicated);
    }

    /// Substrate-level tables (`--substrate`): SSBF lookup and update traffic per
    /// 1k committed instructions, the L2 miss rate, the forwarding-buffer hit
    /// rate, and store-set dependence squashes per 1k committed, one series per
    /// configuration. These counters ride in every JSONL cell record since the
    /// lossless-resume work, so surfacing them costs no extra simulation.
    fn substrate_tables(&self, label: &str) -> Vec<SeriesTable> {
        fn ssbf_lookups(s: &CpuStats) -> f64 {
            1000.0 * s.svw.marked_loads as f64 / s.committed.max(1) as f64
        }
        fn ssbf_updates(s: &CpuStats) -> f64 {
            1000.0 * (s.svw.ssbf_store_updates + s.svw.ssbf_invalidation_updates) as f64
                / s.committed.max(1) as f64
        }
        fn l2_miss_rate(s: &CpuStats) -> f64 {
            let accesses = s.hierarchy.l2.reads + s.hierarchy.l2.writes;
            if accesses == 0 {
                0.0
            } else {
                100.0 * (s.hierarchy.l2.read_misses + s.hierarchy.l2.write_misses) as f64
                    / accesses as f64
            }
        }
        fn fwd_buffer_hit_rate(s: &CpuStats) -> f64 {
            if s.fwd_buffer_lookups == 0 {
                0.0
            } else {
                100.0 * s.fwd_buffer_hits as f64 / s.fwd_buffer_lookups as f64
            }
        }
        fn store_set_squashes(s: &CpuStats) -> f64 {
            1000.0 * s.store_set_squashes as f64 / s.committed.max(1) as f64
        }
        type Metric = (&'static str, &'static str, fn(&CpuStats) -> f64);
        let metrics: [Metric; 5] = [
            (
                "SSBF lookup traffic",
                "lookups per 1k committed",
                ssbf_lookups,
            ),
            (
                "SSBF update traffic",
                "updates per 1k committed",
                ssbf_updates,
            ),
            ("L2 miss rate", "% of L2 accesses", l2_miss_rate),
            (
                "Forwarding-buffer hit rate",
                "% of FB lookups",
                fwd_buffer_hit_rate,
            ),
            (
                "Store-set dependence squashes",
                "squashed loads per 1k committed",
                store_set_squashes,
            ),
        ];
        metrics
            .into_iter()
            .map(|(title, unit, metric)| {
                let mut table = SeriesTable::new(
                    format!("{label} (substrate): {title}"),
                    unit,
                    self.workload_names.clone(),
                );
                for cfg in &self.config_names {
                    self.push_metric_series(&mut table, cfg, metric);
                }
                table
            })
            .collect()
    }
}

/// Pushes a row of aggregates, with CIs when replicated.
fn push_stats(table: &mut SeriesTable, name: &str, stats: &[Stat], multi_seed: bool) {
    let values: Vec<f64> = stats.iter().map(|s| s.mean).collect();
    if multi_seed {
        table.push_series_ci(name, values, stats.iter().map(|s| s.ci95).collect());
    } else {
        table.push_series(name, values);
    }
}

/// The builtin artifact names, each with a one-line description. These mirror
/// the builtin spec registry ([`crate::registry::builtin_specs`]); a test pins
/// the two together.
pub const ARTIFACT_NAMES: &[(&str, &str)] = &[
    (
        "fig5",
        "Figure 5: SVW over the non-associative load queue (NLQ_LS)",
    ),
    (
        "fig6",
        "Figure 6: SVW over the speculative store queue (SSQ)",
    ),
    (
        "fig7",
        "Figure 7: SVW over redundant load elimination (RLE)",
    ),
    ("fig8", "Figure 8: SSBF organisation sensitivity"),
    (
        "ssn-width",
        "Table (§3.6): SSN width / wrap-drain sensitivity",
    ),
    (
        "spec-ssbf",
        "Table (§3.6): speculative vs. atomic SSBF updates",
    ),
    (
        "substrate-ssbf",
        "Substrate: SSBF organisation filter-traffic comparison",
    ),
    ("summary", "Table (§6): aggregate re-execution reduction"),
    (
        "adversarial-ssbf",
        "Adversarial: SSBF organisation false-positive/re-exec rates vs. SPECint",
    ),
    (
        "adversarial-svw",
        "Adversarial: SVW filtering on the SSQ under adversarial stress vs. SPECint",
    ),
];

/// A figure renderer: turns a context plus a resolved spec into a report, or a
/// diagnostic when the spec does not fit the renderer's shape.
type Renderer = fn(&ExperimentCtx<'_>, &ResolvedSpec) -> Result<FigureReport, String>;

fn renderer_by_name(name: &str) -> Option<Renderer> {
    Some(match name {
        "fig5" => fig5_nlq,
        "fig6" => fig6_ssq,
        "fig7" => fig7_rle,
        "fig8" => fig8_ssbf,
        "ssn-width" => tab_ssn_width,
        "spec-ssbf" => tab_spec_ssbf,
        "substrate-ssbf" => tab_substrate_ssbf,
        "summary" => tab_summary,
        "adversarial" => tab_adversarial,
        _ => return None,
    })
}

/// Resolves a builtin artifact's spec at `model_version`, or `None` for an
/// unknown artifact name.
///
/// # Panics
///
/// Panics on a model version outside `1..=`[`registry::LATEST_MODEL_VERSION`];
/// callers (the CLI, plan resolution) validate the version first.
pub fn artifact_resolved(name: &str, model_version: u32) -> Option<ResolvedSpec> {
    let spec = registry::spec_by_name(name)?;
    Some(
        registry::resolve_spec(spec, model_version)
            .unwrap_or_else(|e| panic!("builtin spec {name} failed to resolve: {e}")),
    )
}

/// Renders a resolved spec: dispatches to the renderer the spec names, validates
/// that the spec fits the renderer's shape, and — for model versions above 1 —
/// appends a lineage note recording why the render diverges from the
/// byte-identical v1 baseline.
pub fn render_resolved(
    ctx: &ExperimentCtx<'_>,
    resolved: &ResolvedSpec,
) -> Result<FigureReport, String> {
    let renderer = renderer_by_name(&resolved.spec.renderer).ok_or_else(|| {
        format!(
            "spec {:?} names unknown renderer {:?}",
            resolved.spec.name, resolved.spec.renderer
        )
    })?;
    let mut report = renderer(ctx, resolved)?;
    if let Some(reason) = registry::model_divergence(resolved.model_version) {
        report.notes.push(format!(
            "lineage: model v{} (spec {:016x}) diverges from the byte-identical v1 \
             baseline — {reason}",
            resolved.model_version, resolved.fingerprint
        ));
    }
    Ok(report)
}

/// Renders a builtin artifact by name at the context's model version. Unknown
/// names fail with a did-you-mean suggestion sourced from the registry.
pub fn render_artifact(ctx: &ExperimentCtx<'_>, name: &str) -> Result<FigureReport, String> {
    let resolved = artifact_resolved(name, ctx.model_version).ok_or_else(|| {
        let known = registry::builtin_names();
        format!(
            "unknown artifact {name:?}{} (expected one of: {})",
            registry::did_you_mean(name, known.iter().copied()),
            known.join(", ")
        )
    })?;
    render_resolved(ctx, &resolved)
}

/// The exact (matrix label, workloads, configurations) matrices an artifact runs,
/// in order, derived from the artifact's builtin spec at model version 1. This is
/// the legacy shape of [`artifact_resolved`]; `svwsim merge` and the coordinator
/// resolve the spec directly so they can carry its lineage.
#[allow(clippy::type_complexity)]
pub fn artifact_matrices(
    name: &str,
) -> Option<Vec<(String, Vec<WorkloadProfile>, Vec<svw_cpu::MachineConfig>)>> {
    let resolved = artifact_resolved(name, 1)?;
    Some(
        resolved
            .matrices
            .into_iter()
            .map(|m| (m.label, m.workloads, m.configs))
            .collect(),
    )
}

/// The workload subset the paper uses for Figure 8 (crafty, gcc, perl.d, vortex,
/// vpr.r).
pub fn fig8_workloads() -> Vec<WorkloadProfile> {
    ["crafty", "gcc", "perl.d", "vortex", "vpr.r"]
        .iter()
        .map(|n| WorkloadProfile::by_name(n).expect("figure-8 workload exists"))
        .collect()
}

/// Builds the paper's standard two-panel figure (re-execution rate on top, speedup
/// over the first configuration on the bottom) from a result matrix.
fn two_panel_figure(figure: &str, matrix: &Matrix, mut notes: Vec<String>) -> FigureReport {
    let baseline = matrix.config_names[0].clone();
    let mut rate = SeriesTable::new(
        format!("{figure} (top): loads re-executed"),
        "% of retired loads",
        matrix.workload_names.clone(),
    );
    for cfg in &matrix.config_names[1..] {
        matrix.push_metric_series(&mut rate, cfg, CpuStats::reexec_rate);
    }
    let mut speedup = SeriesTable::new(
        format!("{figure} (bottom): speedup over {baseline}"),
        "% IPC improvement",
        matrix.workload_names.clone(),
    );
    for cfg in &matrix.config_names[1..] {
        let stats: Vec<Stat> = matrix
            .workload_names
            .iter()
            .map(|w| matrix.speedup_stat(w, cfg, &baseline))
            .collect();
        push_stats(&mut speedup, cfg, &stats, matrix.replicated);
    }
    notes.extend(matrix.notes());
    FigureReport {
        figure: figure.to_string(),
        tables: vec![rate, speedup],
        notes,
    }
}

/// Checks that a spec resolves to exactly one matrix with at least
/// `min_configs` configurations — the shape every single-matrix renderer needs.
fn single_matrix(resolved: &ResolvedSpec, min_configs: usize) -> Result<&ResolvedMatrix, String> {
    if resolved.matrices.len() != 1 {
        return Err(format!(
            "renderer {:?} renders exactly one [[matrix]]; spec {:?} defines {}",
            resolved.spec.renderer,
            resolved.spec.name,
            resolved.matrices.len()
        ));
    }
    let m = &resolved.matrices[0];
    if m.configs.len() < min_configs {
        return Err(format!(
            "renderer {:?} needs at least {min_configs} configuration(s) on the axis; \
             matrix {:?} has {}",
            resolved.spec.renderer,
            m.label,
            m.configs.len()
        ));
    }
    Ok(m)
}

/// Figure 5: SVW's impact on the non-associative load queue (NLQ_LS).
fn fig5_nlq(ctx: &ExperimentCtx<'_>, resolved: &ResolvedSpec) -> Result<FigureReport, String> {
    let m = single_matrix(resolved, 2)?;
    let matrix = ctx.run(m, resolved.fingerprint);
    let mut report = two_panel_figure(
        "Figure 5 (NLQ_LS)",
        &matrix,
        vec![
            "paper: NLQ re-executes ~7.4% of loads on average; SVW-UPD cuts it to ~2.0% and \
             SVW+UPD to ~0.6%; speedups are small (~1.3% with SVW, 1.4% perfect)"
                .to_string(),
        ],
    );
    if ctx.substrate {
        report
            .tables
            .extend(matrix.substrate_tables("Figure 5 (NLQ_LS)"));
    }
    Ok(report)
}

/// Figure 6: SVW's impact on the speculative store queue (SSQ).
fn fig6_ssq(ctx: &ExperimentCtx<'_>, resolved: &ResolvedSpec) -> Result<FigureReport, String> {
    let m = single_matrix(resolved, 2)?;
    let matrix = ctx.run(m, resolved.fingerprint);
    let mut report = two_panel_figure(
        "Figure 6 (SSQ)",
        &matrix,
        vec![
            "paper: SSQ without SVW re-executes 100% of loads and loses 16% on average \
             (vortex −83%); with SVW re-execution drops to ~13-15% and SSQ gains ~1.2% \
             (perfect re-execution gains ~4%)"
                .to_string(),
        ],
    );
    // The paper breaks SSQ re-executions into FSQ and non-FSQ loads; add that series.
    let mut fsq_share = SeriesTable::new(
        "Figure 6 (detail): re-executed loads that used the FSQ",
        "% of retired loads",
        matrix.workload_names.clone(),
    );
    fn fsq_rate(s: &CpuStats) -> f64 {
        if s.loads_retired == 0 {
            0.0
        } else {
            100.0 * s.reexecuted_fsq_loads as f64 / s.loads_retired as f64
        }
    }
    for cfg in &matrix.config_names[1..] {
        matrix.push_metric_series(&mut fsq_share, cfg, fsq_rate);
    }
    report.tables.push(fsq_share);
    if ctx.substrate {
        report
            .tables
            .extend(matrix.substrate_tables("Figure 6 (SSQ)"));
    }
    Ok(report)
}

/// Figure 7: SVW's impact on redundant load elimination (RLE).
fn fig7_rle(ctx: &ExperimentCtx<'_>, resolved: &ResolvedSpec) -> Result<FigureReport, String> {
    let m = single_matrix(resolved, 2)?;
    let matrix = ctx.run(m, resolved.fingerprint);
    let mut report = two_panel_figure(
        "Figure 7 (RLE)",
        &matrix,
        vec![
            "paper: RLE eliminates ~28% of loads (all of which re-execute), gaining 2.6%; \
             SVW cuts re-execution to ~6.3% and raises the gain to 5.7%; disabling squash \
             reuse (SVW-SQU) cuts re-executions to 1.2% but costs a little performance"
                .to_string(),
        ],
    );
    let mut elim = SeriesTable::new(
        "Figure 7 (detail): loads eliminated",
        "% of retired loads",
        matrix.workload_names.clone(),
    );
    for cfg in &matrix.config_names[1..] {
        matrix.push_metric_series(&mut elim, cfg, CpuStats::elimination_rate);
    }
    report.tables.push(elim);
    if ctx.substrate {
        report
            .tables
            .extend(matrix.substrate_tables("Figure 7 (RLE)"));
    }
    Ok(report)
}

/// Figure 8: SSBF organisation sensitivity on the SSQ machine over the paper's
/// five-workload subset.
fn fig8_ssbf(ctx: &ExperimentCtx<'_>, resolved: &ResolvedSpec) -> Result<FigureReport, String> {
    let m = single_matrix(resolved, 1)?;
    let matrix = ctx.run(m, resolved.fingerprint);
    let mut rate = SeriesTable::new(
        "Figure 8: SSBF organisation vs. SSQ re-execution rate",
        "% of retired loads",
        matrix.workload_names.clone(),
    );
    for cfg in &matrix.config_names {
        matrix.push_metric_series(&mut rate, cfg, CpuStats::reexec_rate);
    }
    let mut notes = vec![
        "paper: because per-load windows are short (5-15 stores), aliasing is rare and \
         all organisations perform within a fraction of a percent of the infinite filter"
            .to_string(),
    ];
    notes.extend(matrix.notes());
    let mut tables = vec![rate];
    if ctx.substrate {
        tables.extend(matrix.substrate_tables("Figure 8"));
    }
    Ok(FigureReport {
        figure: "Figure 8 (SSBF sensitivity)".to_string(),
        tables,
        notes,
    })
}

/// §3.6: SSN width sensitivity (wrap-around drains) on the SSQ machine.
fn tab_ssn_width(ctx: &ExperimentCtx<'_>, resolved: &ResolvedSpec) -> Result<FigureReport, String> {
    let m = single_matrix(resolved, 2)?;
    let matrix = ctx.run(m, resolved.fingerprint);
    let infinite = matrix.config_names.last().expect("non-empty").clone();
    let mut slowdown = SeriesTable::new(
        "SSN width: IPC loss vs. infinite-width SSNs",
        "% IPC loss",
        matrix.workload_names.clone(),
    );
    let mut drains = SeriesTable::new(
        "SSN width: wrap-around drains per 100k instructions",
        "drains",
        matrix.workload_names.clone(),
    );
    fn drain_rate(s: &CpuStats) -> f64 {
        s.wrap_drains as f64 * 100_000.0 / s.committed.max(1) as f64
    }
    for cfg in &matrix.config_names {
        let loss: Vec<Stat> = matrix
            .workload_names
            .iter()
            .map(|w| {
                let mut s = matrix.speedup_stat(w, cfg, &infinite);
                s.mean = -s.mean;
                s
            })
            .collect();
        push_stats(&mut slowdown, cfg, &loss, matrix.replicated);
        matrix.push_metric_series(&mut drains, cfg, drain_rate);
    }
    let mut notes =
        vec!["paper: 16-bit SSNs cost only 0.2% versus infinite-width SSNs".to_string()];
    notes.extend(matrix.notes());
    let mut tables = vec![slowdown, drains];
    if ctx.substrate {
        tables.extend(matrix.substrate_tables("SSN width"));
    }
    Ok(FigureReport {
        figure: "Table: SSN width sensitivity (§3.6)".to_string(),
        tables,
        notes,
    })
}

/// §3.6: speculative vs. atomic SSBF updates.
fn tab_spec_ssbf(ctx: &ExperimentCtx<'_>, resolved: &ResolvedSpec) -> Result<FigureReport, String> {
    let m = single_matrix(resolved, 1)?;
    let matrix = ctx.run(m, resolved.fingerprint);
    let mut rate = SeriesTable::new(
        "SSBF update policy: re-execution rate",
        "% of retired loads",
        matrix.workload_names.clone(),
    );
    let mut ipc = SeriesTable::new(
        "SSBF update policy: IPC",
        "IPC",
        matrix.workload_names.clone(),
    );
    for cfg in &matrix.config_names {
        matrix.push_metric_series(&mut rate, cfg, CpuStats::reexec_rate);
        matrix.push_metric_series(&mut ipc, cfg, CpuStats::ipc);
    }
    let mut notes = vec![
        "paper: speculative updates add only ~1-2% relative re-executions while avoiding \
         elongated load-to-store serializations"
            .to_string(),
    ];
    notes.extend(matrix.notes());
    let mut tables = vec![rate, ipc];
    if ctx.substrate {
        tables.extend(matrix.substrate_tables("SSBF update policy"));
    }
    Ok(FigureReport {
        figure: "Table: speculative vs. atomic SSBF updates (§3.6)".to_string(),
        tables,
        notes,
    })
}

/// Substrate phase 2: the SSBF organisation comparison seen from the filter
/// substrate — accuracy (re-execution rate) next to the lookup/update traffic
/// each organisation pushes through the batched SSBF hot path. Every marked
/// load probes and every store updates, so traffic differs across
/// organisations only through timing feedback, making the accuracy spread
/// attributable to aliasing.
fn tab_substrate_ssbf(
    ctx: &ExperimentCtx<'_>,
    resolved: &ResolvedSpec,
) -> Result<FigureReport, String> {
    let m = single_matrix(resolved, 2)?;
    let matrix = ctx.run(m, resolved.fingerprint);
    fn lookups_per_1k(s: &CpuStats) -> f64 {
        1000.0 * s.svw.marked_loads as f64 / s.committed.max(1) as f64
    }
    fn updates_per_1k(s: &CpuStats) -> f64 {
        1000.0 * (s.svw.ssbf_store_updates + s.svw.ssbf_invalidation_updates) as f64
            / s.committed.max(1) as f64
    }
    let mut rate = SeriesTable::new(
        "SSBF organisation: re-execution rate",
        "% of retired loads",
        matrix.workload_names.clone(),
    );
    let mut lookups = SeriesTable::new(
        "SSBF organisation: lookup traffic",
        "lookups / 1k committed",
        matrix.workload_names.clone(),
    );
    let mut updates = SeriesTable::new(
        "SSBF organisation: update traffic",
        "updates / 1k committed",
        matrix.workload_names.clone(),
    );
    for cfg in &matrix.config_names {
        matrix.push_metric_series(&mut rate, cfg, CpuStats::reexec_rate);
        matrix.push_metric_series(&mut lookups, cfg, lookups_per_1k);
        matrix.push_metric_series(&mut updates, cfg, updates_per_1k);
    }
    let mut notes = vec![
        "substrate counters ride in every cell record, so this table costs no extra \
         simulation beyond fig8's sweep; filter traffic moves only through timing \
         feedback (re-executions re-mark loads), so the accuracy spread across \
         organisations is attributable to aliasing"
            .to_string(),
    ];
    notes.extend(matrix.notes());
    let mut tables = vec![rate, lookups, updates];
    if ctx.substrate {
        tables.extend(matrix.substrate_tables("SSBF organisation"));
    }
    Ok(FigureReport {
        figure: "Table: SSBF organisation substrate comparison".to_string(),
        tables,
        notes,
    })
}

/// Adversarial stress tables: the `adv.*` generator family next to a SPECint
/// reference slice, read through the SSBF's accuracy counters. The headline
/// metric is the *false-positive* re-execution rate — loads the filter made
/// re-execute that then verified clean — which is exactly the cost of Bloom
/// aliasing (and, on unfiltered configurations, of having no filter at all);
/// re-executions that *mismatch* are true positives no filter may remove.
/// Shared by both `adversarial-*` specs: the axis (SSBF organisations or the
/// SSQ machine family) comes from the spec, the tables are the same.
fn tab_adversarial(
    ctx: &ExperimentCtx<'_>,
    resolved: &ResolvedSpec,
) -> Result<FigureReport, String> {
    let m = single_matrix(resolved, 1)?;
    let matrix = ctx.run(m, resolved.fingerprint);
    fn false_positive_rate(s: &CpuStats) -> f64 {
        if s.loads_retired == 0 {
            0.0
        } else {
            100.0 * s.loads_reexecuted.saturating_sub(s.svw.reexec_mismatches) as f64
                / s.loads_retired as f64
        }
    }
    fn lookups_per_1k(s: &CpuStats) -> f64 {
        1000.0 * s.svw.marked_loads as f64 / s.committed.max(1) as f64
    }
    fn updates_per_1k(s: &CpuStats) -> f64 {
        1000.0 * (s.svw.ssbf_store_updates + s.svw.ssbf_invalidation_updates) as f64
            / s.committed.max(1) as f64
    }
    let mut rate = SeriesTable::new(
        "Adversarial stress: re-execution rate",
        "% of retired loads",
        matrix.workload_names.clone(),
    );
    let mut false_pos = SeriesTable::new(
        "Adversarial stress: false-positive re-executions (verified clean)",
        "% of retired loads",
        matrix.workload_names.clone(),
    );
    let mut lookups = SeriesTable::new(
        "Adversarial stress: SSBF lookup traffic",
        "lookups / 1k committed",
        matrix.workload_names.clone(),
    );
    let mut updates = SeriesTable::new(
        "Adversarial stress: SSBF update traffic",
        "updates / 1k committed",
        matrix.workload_names.clone(),
    );
    for cfg in &matrix.config_names {
        matrix.push_metric_series(&mut rate, cfg, CpuStats::reexec_rate);
        matrix.push_metric_series(&mut false_pos, cfg, false_positive_rate);
        matrix.push_metric_series(&mut lookups, cfg, lookups_per_1k);
        matrix.push_metric_series(&mut updates, cfg, updates_per_1k);
    }
    let mut notes = vec![
        "adv.* columns are generator stressors (dependence chains, same-granule \
         aliasing, store-queue pressure, branch storms), not benchmarks; the SPECint \
         columns are the reference scale. A false positive is a re-execution that \
         verified clean — Bloom aliasing on filtered machines, everything-re-executes \
         on unfiltered ones; mismatching re-executions are true positives no filter \
         may remove. Run with --oracle to additionally check every committed value \
         against the golden model (see docs/VERIFICATION.md)"
            .to_string(),
    ];
    notes.extend(matrix.notes());
    let mut tables = vec![rate, false_pos, lookups, updates];
    if ctx.substrate {
        tables.extend(matrix.substrate_tables("Adversarial stress"));
    }
    Ok(FigureReport {
        figure: format!("Adversarial stress table ({})", resolved.spec.name),
        tables,
        notes,
    })
}

/// §6 headline: aggregate re-execution reduction across the three optimizations.
fn tab_summary(ctx: &ExperimentCtx<'_>, resolved: &ResolvedSpec) -> Result<FigureReport, String> {
    let first = resolved
        .matrices
        .first()
        .ok_or_else(|| "renderer \"summary\" needs at least one [[matrix]]".to_string())?;
    let wnames: Vec<String> = first.workloads.iter().map(|w| w.name.clone()).collect();
    for m in &resolved.matrices[1..] {
        let names: Vec<&str> = m.workloads.iter().map(|w| w.name.as_str()).collect();
        if names != wnames.iter().map(String::as_str).collect::<Vec<_>>() {
            return Err(format!(
                "renderer \"summary\" needs every [[matrix]] to sweep the same workloads; \
                 matrix {:?} differs from {:?}",
                m.label, first.label
            ));
        }
    }
    let mut table = SeriesTable::new(
        "Re-execution reduction from SVW (unfiltered vs. filtered)",
        "% reduction in re-executed loads",
        wnames.clone(),
    );
    let mut notes = Vec::new();
    let mut reductions = Vec::new();
    let mut substrate_tables = Vec::new();
    for m in &resolved.matrices {
        let (Some(unfiltered_idx), Some(svw_idx)) = (m.unfiltered_idx, m.svw_idx) else {
            return Err(format!(
                "renderer \"summary\" needs unfiltered_idx and svw_idx on every [[matrix]] \
                 (matrix {:?} lacks them)",
                m.label
            ));
        };
        // Matrix labels namespace the artifact ("summary/NLQ_LS"); series rows
        // use the short suffix the paper's table names.
        let label = m.label.rsplit('/').next().unwrap_or(&m.label);
        let matrix = ctx.run(m, resolved.fingerprint);
        if ctx.substrate {
            substrate_tables.extend(matrix.substrate_tables(&m.label));
        }
        let unfiltered = &matrix.config_names[unfiltered_idx];
        let svw = &matrix.config_names[svw_idx];
        // Pair the reduction by seed, then aggregate (a seed where the unfiltered
        // machine re-executes nothing contributes a 0% reduction).
        let stats: Vec<Stat> = wnames
            .iter()
            .map(|w| {
                let samples: Vec<f64> = matrix
                    .group(w, unfiltered)
                    .iter()
                    .zip(matrix.group(w, svw))
                    .filter_map(|(u, s)| match (u.stats(), s.stats()) {
                        (Some(us), Some(ss)) => {
                            let unf = us.reexec_rate();
                            Some(if unf <= 0.0 {
                                0.0
                            } else {
                                100.0 * (1.0 - ss.reexec_rate() / unf)
                            })
                        }
                        _ => None,
                    })
                    .collect();
                Stat::from_samples(&samples)
            })
            .collect();
        reductions.push(SeriesTable::mean(
            &stats.iter().map(|s| s.mean).collect::<Vec<_>>(),
        ));
        push_stats(&mut table, label, &stats, matrix.replicated);
        notes.extend(matrix.notes());
    }
    let overall = SeriesTable::mean(&reductions);
    let mut all_notes = vec![
        format!("measured average reduction across the three optimizations: {overall:.1}%"),
        "paper: SVW reduces re-executions by an average of 85% across the three \
         optimizations"
            .to_string(),
    ];
    all_notes.extend(notes);
    let mut tables = vec![table];
    tables.extend(substrate_tables);
    Ok(FigureReport {
        figure: "Summary: SVW re-execution reduction".to_string(),
        tables,
        notes: all_notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Small trace lengths keep these integration-style tests fast; they validate the
    // *shape* of each reproduction (series present, sane ranges), not the headline
    // magnitudes, which the full-length sweeps measure.
    const LEN: usize = 4_000;

    fn ctx() -> ExperimentCtx<'static> {
        ExperimentCtx::new(LEN, 3)
    }

    #[test]
    fn fig8_workload_subset_matches_paper() {
        let names: Vec<String> = fig8_workloads().iter().map(|w| w.name.clone()).collect();
        assert_eq!(names, vec!["crafty", "gcc", "perl.d", "vortex", "vpr.r"]);
    }

    #[test]
    fn builtin_specs_resolve_to_legacy_enumerations() {
        // The spec-derived matrices must enumerate exactly what the hard-coded
        // families did pre-registry: same labels, workloads, and config names.
        type LegacyMatrix<'a> = (&'a str, Vec<&'a str>, &'a str);
        let legacy: &[(&str, Vec<LegacyMatrix<'_>>)] = &[
            ("fig5", vec![("fig5", vec![], "fig5-nlq")]),
            ("fig6", vec![("fig6", vec![], "fig6-ssq")]),
            ("fig7", vec![("fig7", vec![], "fig7-rle")]),
            (
                "fig8",
                vec![(
                    "fig8",
                    vec!["crafty", "gcc", "perl.d", "vortex", "vpr.r"],
                    "fig8-ssbf",
                )],
            ),
            (
                "ssn-width",
                vec![(
                    "ssn-width",
                    vec!["crafty", "gcc", "perl.d", "vortex", "vpr.r"],
                    "ssn-width",
                )],
            ),
            (
                "spec-ssbf",
                vec![(
                    "spec-ssbf",
                    vec!["crafty", "gcc", "perl.d", "vortex", "vpr.r"],
                    "ssbf-update-policy",
                )],
            ),
            (
                "summary",
                vec![
                    ("summary/NLQ_LS", vec![], "fig5-nlq"),
                    ("summary/SSQ", vec![], "fig6-ssq"),
                    ("summary/RLE", vec![], "fig7-rle"),
                ],
            ),
        ];
        let all = svw_workloads::spec2000int_names();
        for (name, matrices) in legacy {
            let resolved = artifact_resolved(name, 1).expect("builtin resolves");
            assert_eq!(resolved.model_version, 1);
            assert_eq!(resolved.matrices.len(), matrices.len(), "{name}");
            for (m, (label, wl, axis)) in resolved.matrices.iter().zip(matrices) {
                assert_eq!(m.label, *label);
                let expect: Vec<&str> = if wl.is_empty() {
                    all.to_vec()
                } else {
                    wl.clone()
                };
                let got: Vec<&str> = m.workloads.iter().map(|w| w.name.as_str()).collect();
                assert_eq!(got, expect, "{name}/{label} workloads");
                let axis_configs = registry::config_axis(axis).expect("axis exists");
                let got_cfgs: Vec<&str> = m.configs.iter().map(|c| c.name.as_str()).collect();
                let expect_cfgs: Vec<&str> = axis_configs.iter().map(|c| c.name.as_str()).collect();
                assert_eq!(got_cfgs, expect_cfgs, "{name}/{label} configs");
            }
        }
    }

    #[test]
    fn artifact_names_match_registry() {
        let builtin = registry::builtin_names();
        let artifact: Vec<&str> = ARTIFACT_NAMES.iter().map(|(n, _)| *n).collect();
        assert_eq!(builtin, artifact);
        for (name, desc) in ARTIFACT_NAMES {
            let spec = registry::spec_by_name(name).expect("registered");
            assert_eq!(spec.description, *desc, "{name}");
        }
    }

    #[test]
    fn unknown_artifact_suggests_nearest_name() {
        let err = render_artifact(&ctx(), "fig55").unwrap_err();
        assert!(err.contains("unknown artifact \"fig55\""), "{err}");
        assert!(err.contains("did you mean \"fig5\"?"), "{err}");
        assert!(err.contains("expected one of:"), "{err}");
    }

    #[test]
    fn model_v2_reports_carry_divergence_note() {
        let resolved = artifact_resolved("fig8", 2).expect("builtin resolves");
        let report = render_resolved(&ctx(), &resolved).expect("renders");
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.starts_with("lineage: model v2") && n.contains("diverges")),
            "notes: {:?}",
            report.notes
        );
    }

    #[test]
    fn fig5_report_has_expected_series_and_ordering() {
        let report = render_artifact(&ctx(), "fig5").expect("renders");
        assert_eq!(report.tables.len(), 2);
        let rate = &report.tables[0];
        assert_eq!(rate.series.len(), 4);
        // SVW+UPD filters at least as well as the unfiltered NLQ for every workload.
        for w in &rate.workloads {
            let nlq = rate.value("NLQ", w).unwrap();
            let svw = rate.value("+SVW+UPD", w).unwrap();
            assert!(
                svw <= nlq + 1e-9,
                "{w}: SVW rate {svw} above NLQ rate {nlq}"
            );
        }
    }

    #[test]
    fn fig8_bigger_filters_are_no_worse() {
        let report = render_artifact(&ctx(), "fig8").expect("renders");
        let rate = &report.tables[0];
        for w in &rate.workloads {
            let small = rate.value("128", w).unwrap();
            let large = rate.value("2048", w).unwrap();
            let infinite = rate.value("Infinite", w).unwrap();
            assert!(large <= small + 1e-9);
            assert!(infinite <= large + 1e-9);
        }
    }

    #[test]
    fn multi_seed_reports_carry_confidence_intervals() {
        let ctx = ExperimentCtx {
            trace_len: 2_500,
            seeds: vec![3, 4, 5],
            adaptive: None,
            substrate: false,
            model_version: 1,
            opts: RunOptions::default(),
        };
        let report = render_artifact(&ctx, "fig8").expect("renders");
        let rate = &report.tables[0];
        for row in &rate.series {
            let ci = row.ci95.as_ref().expect("multi-seed rows carry CIs");
            assert_eq!(ci.len(), rate.workloads.len());
            assert!(ci.iter().all(|v| v.is_finite() && *v >= 0.0));
        }
        // Single-seed reports stay point estimates.
        let single = render_artifact(&ExperimentCtx::new(2_500, 3), "fig8").expect("renders");
        assert!(single.tables[0].series.iter().all(|r| r.ci95.is_none()));
    }

    #[test]
    fn stat_aggregation_matches_hand_computation() {
        let s = Stat::from_samples(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.sd - 1.0).abs() < 1e-12);
        // df=2 → t=4.303; ci = 4.303 * 1 / sqrt(3)
        assert!((s.ci95 - 4.303 / 3f64.sqrt()).abs() < 1e-9);
        assert_eq!(s.n, 3);

        let single = Stat::from_samples(&[5.0]);
        assert_eq!(single.mean, 5.0);
        assert_eq!(single.ci95, 0.0);

        let empty = Stat::from_samples(&[]);
        assert!(empty.mean.is_nan());
        assert_eq!(empty.n, 0);
    }
}
