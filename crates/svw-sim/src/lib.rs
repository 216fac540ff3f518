//! # svw-sim — experiment harness
//!
//! This crate turns the simulator stack into the paper's evaluation around an
//! explicit **Plan → Execute → Collect** architecture: it defines the exact machine
//! configurations compared in each figure ([`presets`]), declares every paper
//! artifact as a schema-versioned experiment spec ([`registry`] — embedded TOML
//! specs with canonical serialization and fingerprints, plus `--spec FILE` for
//! user-defined sweeps), turns those specs into typed sweep plans
//! ([`planner`] — ordered cells, shard assignment, seed
//! policy, on-disk `*.plan.jsonl` files), executes any plan on a cell-granular
//! work-stealing scheduler — generating each `(workload, seed)` trace once per plan,
//! with per-cell panic capture and an optional streaming-JSONL results file with
//! resume ([`runner`], [`jsonl`]) — and formats the results as
//! the tables/series the paper plots ([`report`]), with mean ± 95% confidence
//! intervals under multi-seed replication, in text or JSON.
//!
//! Sweeps scale in three further directions:
//!
//! * **distributed** — `--shard I/N` ([`runner::Shard`], or `auto` from cluster
//!   environment variables) deterministically partitions the cell list across N
//!   processes or machines, each streaming its disjoint slice to its own JSONL
//!   file; `svwsim merge` ([`merge`]) validates the shard set (workload
//!   fingerprints, byte-identical duplicates, no gaps) and stitches the complete
//!   result set back together for rendering;
//! * **adaptive** — `--ci-target PCT` ([`experiments::AdaptiveOpts`]) replaces the
//!   fixed seed count with sequential sampling: each workload receives extra seeds
//!   until the 95% CI of IPC is within the target for every configuration, or
//!   `--max-seeds` is reached;
//! * **both at once** — `svwsim coordinate` ([`coordinate`]) merges shard streams
//!   after each round, applies the stopping rule globally, and requeues extra
//!   seed-cells as plan files the shards drain, so adaptive sweeps distribute
//!   without giving up the single-process byte-identical output.
//!
//! One unified binary, `svwsim`, drives everything:
//!
//! | command | effect |
//! |---|---|
//! | `svwsim capture` | generate a workload and write a `.svwt` trace file |
//! | `svwsim inspect` | print a `.svwt` file's header and mix statistics |
//! | `svwsim run` | simulate one configuration over a trace file or workload |
//! | `svwsim sweep --figure fig5` | reproduce a paper artifact over its config matrix |
//! | `svwsim sweep --plan round.plan.jsonl` | drain a coordinator-issued plan file |
//! | `svwsim fig5` … `fig8` | shortcuts for `sweep --figure …` |
//! | `svwsim tables` | the three table artifacts (ssn-width, spec-ssbf, summary) |
//! | `svwsim merge` | validate and stitch sharded sweep JSONL files |
//! | `svwsim coordinate` | two-phase distributed-adaptive round driver |
//! | `svwsim profile` | phase breakdowns from `--events` journals |
//! | `svwsim experiments` | list/show/validate the experiment spec registry |
//! | `svwsim cache` | manage the content-addressed result cache (stats/gc/verify) |
//!
//! Run it with `cargo run --release -p svw-sim --bin svwsim -- <command> --help` style
//! arguments (`svwsim help` prints the full usage). Sweeps accept `--trace-len`,
//! `--seed`, `--seeds K` (multi-seed replication), `--ci-target`/`--min-seeds`/
//! `--max-seeds` (adaptive sampling), `--shard I/N|auto` (distributed sharding),
//! `--jobs N` (worker threads), and `--out results.jsonl` (streaming results +
//! resume) overrides, `--json` for machine-readable reports, `--substrate` for
//! substrate-level tables (SSBF lookup/update traffic, L2 miss rate,
//! forwarding-buffer hit rate), `--stats` for per-worker scheduler statistics and
//! trace counters (`--stats-json FILE` for the machine-readable twin), and
//! `--verbose` for result-cache and replay logging.
//!
//! Finished cells themselves are memoizable across sweeps, users, and CI
//! through the content-addressed **result cache** ([`cache`]): `--result-cache
//! DIR` makes [`runner::execute_plan`] consult a shared store keyed by the full
//! cell identity (lineage triple included) before scheduling anything — a hit
//! becomes [`runner::CellOutcome::Cached`], skipping trace generation and
//! simulation entirely — and publishes every freshly simulated cell back via
//! atomic tmp+rename writes, so concurrent sweeps and shards can share one
//! directory. `--no-result-cache` is the A/B control (renders are byte-identical
//! either way), `--result-cache-mode ro|wo` serves CI read-only or warm-only
//! flows, and `svwsim cache stats|gc|verify` manages the store (see
//! `docs/CACHING.md`).
//!
//! Sweeps are also observable without perturbing their outputs ([`obs`],
//! [`events`], [`profile`]): `--events FILE.jsonl` appends a kill-tolerant
//! per-cell lifecycle journal (`planned → trace_acquired → simulated → written`,
//! with worker ids and per-phase durations), `--progress` reports live
//! completion/rate/ETA on stderr, `--metrics-out FILE` writes an end-of-run
//! metrics snapshot in Prometheus text format, and `svwsim profile` turns
//! journals into phase breakdowns, slowest-cell lists, and worker utilization.
//! Every artifact stays byte-identical with instrumentation on or off.
//!
//! Results carry **lineage**: every JSONL cell line, plan file, merge, and
//! coordination round records the `(result schema, model version, spec
//! fingerprint)` triple it was produced under, so reconciliation can tell
//! "byte-identical as required" apart from "intentionally diverged under
//! `--model-version 2`, reason recorded" (see `docs/EXPERIMENTS.md`). The
//! operational walkthrough lives in `docs/SWEEPS.md` and `docs/OBSERVABILITY.md`;
//! the crate map in `docs/ARCHITECTURE.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod coordinate;
pub mod events;
pub mod experiments;
pub mod json;
pub mod jsonl;
pub mod merge;
pub mod obs;
pub mod planner;
pub mod presets;
pub mod profile;
pub mod registry;
pub mod report;
pub mod runner;

pub use cache::{CacheCounters, CacheMode, GcReport, ResultCache, StoreStats, VerifyReport};
pub use coordinate::{coordinate_round, CoordinateError, CoordinateOutcome, CoordinateRequest};
pub use events::{parse_event_line, read_events, Event, EventSink};
pub use experiments::{
    artifact_matrices, artifact_resolved, render_artifact, render_resolved, run_cells_adaptive,
    AdaptiveGroupReport, AdaptiveOpts, AdaptiveSweep, ExperimentCtx, Stat, ARTIFACT_NAMES,
};
pub use jsonl::{CellId, JsonlSink};
pub use merge::{expected_cells, merge_shards, MergeError, MergeInput, MergeReport};
pub use obs::{CellProgress, Progress, SweepMetrics, SweepObserver};
pub use planner::{
    artifact_plans, parse_plan_file, resolve_plan, write_plan_file, PlanFile, PlannedCell,
    SweepPlan,
};
pub use profile::{profile_events, CellProfile, PhaseTotals, ProfileReport};
pub use registry::{
    builtin_specs, parse_spec, resolve_spec, spec_by_name, spec_fingerprint, ExperimentSpec,
    ResolvedSpec, SpecError, LATEST_MODEL_VERSION, RESULT_SCHEMA_VERSION, SPEC_SCHEMA_VERSION,
};
pub use report::{FigureReport, SeriesTable};
pub use runner::{
    execute_plan, parse_len_seed, run_cells, run_matrix, CellOutcome, ExperimentCell, RunOptions,
    Shard, StatsCollector, SweepResult, WorkerStats, DEFAULT_SEED, DEFAULT_TRACE_LEN,
};
pub use svw_oracle::{DifferentialChecker, Divergence, DivergenceKind, OracleOptions};
