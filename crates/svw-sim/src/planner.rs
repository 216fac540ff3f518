//! The sweep planner: turn "what should run" into a typed, transformable plan.
//!
//! A [`SweepPlan`] is the explicit middle layer of the Plan → Execute → Collect
//! architecture: it enumerates one matrix's `(workload, configuration, seed)` cells
//! in the canonical order every downstream consumer assumes (workload-major, then
//! configuration, then seed), carries each cell's full [`CellId`] (including the
//! workload fingerprint and the `(model_version, spec_fingerprint)` lineage), and
//! records which cells this process should actually simulate (the shard
//! assignment). Everything that used to be an ad-hoc branch in the sweep engine —
//! fixed `--seeds K` lists, `--shard I/N` slicing, adaptive requeue rounds,
//! coordinator-issued plan files — is a plan *construction* or *transformation*;
//! [`crate::runner::execute_plan`] then executes any plan the same way.
//!
//! Plans also exist **on disk**: the two-phase distributed-adaptive protocol
//! (`svwsim coordinate`, [`crate::coordinate`]) writes requeue rounds as
//! `*.plan.jsonl` files — a header line naming the artifact plus one line per cell —
//! which shards parse back with [`parse_plan_file`], resolve against this binary's
//! artifact definitions with [`resolve_plan`], slice with their `--shard I/N`, and
//! drain through the ordinary executor. Since plan version 2 the header carries the
//! full lineage triple (`schema`, `model_version`, `spec_fingerprint`, plus the
//! recorded divergence reason for model versions above 1); every cell inherits it,
//! and [`resolve_plan`] refuses plans whose lineage disagrees with this binary.

use std::sync::Arc;

use svw_cpu::MachineConfig;
use svw_workloads::WorkloadProfile;

use crate::experiments::artifact_resolved;
use crate::json::{self, Scalar};
use crate::jsonl::CellId;
use crate::registry;
use crate::runner::Shard;

/// One cell of a [`SweepPlan`]: its identity plus resolved workload/configuration
/// indices and this process's shard assignment.
#[derive(Clone, Debug)]
pub struct PlannedCell {
    /// The cell's identity as it appears in JSONL streams and resume files.
    pub id: CellId,
    /// Index into [`SweepPlan::workloads`].
    pub workload: usize,
    /// Index into [`SweepPlan::configs`].
    pub config: usize,
    /// Whether this process should simulate the cell. Cells outside the shard are
    /// still *collected* (restored from a resume file when possible, recorded as
    /// skipped otherwise) so the result vector always covers the whole plan.
    pub in_shard: bool,
}

/// An executable sweep plan over one matrix: the workload and configuration tables
/// plus the ordered cell list. Construct with [`SweepPlan::enumerate`] (the
/// canonical full matrix) or [`resolve_plan`] (a coordinator-issued subset), then
/// transform (e.g. [`SweepPlan::apply_shard`]) and hand to
/// [`crate::runner::execute_plan`].
#[derive(Clone, Debug)]
pub struct SweepPlan {
    /// Matrix label (artifact name) stamped into every cell's identity.
    pub matrix: String,
    /// The workloads cells reference by index.
    pub workloads: Vec<WorkloadProfile>,
    /// The configurations cells reference by index (shared, not cloned, per cell).
    pub configs: Vec<Arc<MachineConfig>>,
    /// Per-workload dynamic trace length.
    pub trace_len: usize,
    /// The cells, in result order.
    pub cells: Vec<PlannedCell>,
}

impl SweepPlan {
    /// Enumerates the full `workloads × configs × seeds` matrix in canonical order:
    /// workload-major, then configuration, then seed — the order every renderer,
    /// resume file, and `svwsim merge` assumes. Each cell's lineage is the config's
    /// own [`MachineConfig::model_version`] plus the given `spec_fingerprint` (`0`
    /// for ad-hoc sweeps not enumerated from a spec).
    pub fn enumerate(
        matrix: &str,
        workloads: &[WorkloadProfile],
        configs: &[MachineConfig],
        trace_len: usize,
        seeds: &[u64],
        spec_fingerprint: u64,
    ) -> SweepPlan {
        let shared: Vec<Arc<MachineConfig>> = configs.iter().map(|c| Arc::new(c.clone())).collect();
        let mut cells = Vec::with_capacity(workloads.len() * configs.len() * seeds.len());
        for (w, workload) in workloads.iter().enumerate() {
            let fingerprint = workload.fingerprint();
            for (c, config) in configs.iter().enumerate() {
                for &seed in seeds {
                    cells.push(PlannedCell {
                        id: CellId {
                            matrix: matrix.to_string(),
                            workload: workload.name.clone(),
                            config: config.name.clone(),
                            seed,
                            trace_len: trace_len as u64,
                            fingerprint,
                            model_version: config.model_version,
                            spec_fingerprint,
                        },
                        workload: w,
                        config: c,
                        in_shard: true,
                    });
                }
            }
        }
        SweepPlan {
            matrix: matrix.to_string(),
            workloads: workloads.to_vec(),
            configs: shared,
            trace_len,
            cells,
        }
    }

    /// Restricts execution to `shard`'s interleaved slice: the cell at position `k`
    /// stays in-shard iff `k % shard.count == shard.index`. Positions are the plan's
    /// own cell order, so the same plan sharded N ways covers-and-partitions.
    pub fn apply_shard(&mut self, shard: Shard) {
        for (k, cell) in self.cells.iter_mut().enumerate() {
            cell.in_shard = shard.contains(k);
        }
    }

    /// Number of cells currently assigned to this process.
    pub fn in_shard_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.in_shard).count()
    }

    /// The cell identities, in plan order.
    pub fn cell_ids(&self) -> impl Iterator<Item = &CellId> {
        self.cells.iter().map(|c| &c.id)
    }
}

/// Enumerates the full plans of a named artifact at a model version — one
/// [`SweepPlan`] per matrix the artifact's spec declares, in spec order — or `None`
/// for an unknown artifact name. This is the single source of truth for "which
/// cells does this sweep cover": the `expected_cells` contract of `svwsim merge`
/// flattens exactly these plans. Every cell carries the spec's fingerprint and the
/// requested model version as lineage.
pub fn artifact_plans(
    artifact: &str,
    trace_len: usize,
    seeds: &[u64],
    model_version: u32,
) -> Option<Vec<SweepPlan>> {
    let resolved = artifact_resolved(artifact, model_version)?;
    Some(
        resolved
            .matrices
            .iter()
            .map(|m| {
                SweepPlan::enumerate(
                    &m.label,
                    &m.workloads,
                    &m.configs,
                    trace_len,
                    seeds,
                    resolved.fingerprint,
                )
            })
            .collect(),
    )
}

// --------------------------------------------------------------- plan files

/// The plan-file format version [`write_plan_file`] emits.
pub const PLAN_FILE_VERSION: u64 = 2;

/// A parsed `*.plan.jsonl` file: the artifact whose definitions resolve the cells,
/// the round number (informational), the lineage the cells were planned under, and
/// the cells to run, in plan order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanFile {
    /// Artifact name (e.g. `"fig8"`); cell matrix labels must belong to it.
    pub artifact: String,
    /// Per-workload dynamic trace length of every cell.
    pub trace_len: u64,
    /// Coordinator round that produced the plan (0 = the base round).
    pub round: u64,
    /// Behavioural model version every cell is planned under.
    pub model_version: u64,
    /// Canonical fingerprint of the experiment spec the plan was derived from.
    pub spec_fingerprint: u64,
    /// Recorded reason results diverge from the model-v1 baseline, if any.
    pub divergence: Option<String>,
    /// The cells, in plan order (shard assignment is by this order).
    pub cells: Vec<CellId>,
}

impl PlanFile {
    /// Builds a plan file from an artifact's plans, stamping the lineage header
    /// from the first cell (all cells of a coordinator plan share it).
    pub fn from_cells(artifact: &str, trace_len: u64, round: u64, cells: Vec<CellId>) -> PlanFile {
        let model_version = cells.first().map_or(1, |c| u64::from(c.model_version));
        let spec_fingerprint = cells.first().map_or(0, |c| c.spec_fingerprint);
        PlanFile {
            artifact: artifact.to_string(),
            trace_len,
            round,
            model_version,
            spec_fingerprint,
            divergence: registry::model_divergence(model_version as u32).map(String::from),
            cells,
        }
    }
}

/// Serializes a plan to `*.plan.jsonl` content: one header line carrying the
/// lineage, then one line per cell in plan order (cells inherit the header
/// lineage).
pub fn write_plan_file(plan: &PlanFile) -> String {
    let mut header = vec![
        ("svw_plan", json::uint(PLAN_FILE_VERSION)),
        ("schema", json::uint(registry::RESULT_SCHEMA_VERSION)),
        ("artifact", json::string(&plan.artifact)),
        ("trace_len", json::uint(plan.trace_len)),
        ("round", json::uint(plan.round)),
        ("model_version", json::uint(plan.model_version)),
        ("spec_fingerprint", json::uint(plan.spec_fingerprint)),
    ];
    if let Some(d) = &plan.divergence {
        header.push(("divergence", json::string(d)));
    }
    header.push(("cells", json::uint(plan.cells.len() as u64)));
    let mut out = json::object(header);
    out.push('\n');
    for id in &plan.cells {
        debug_assert_eq!(u64::from(id.model_version), plan.model_version);
        debug_assert_eq!(id.spec_fingerprint, plan.spec_fingerprint);
        out.push_str(&json::object([
            ("matrix", json::string(&id.matrix)),
            ("workload", json::string(&id.workload)),
            ("config", json::string(&id.config)),
            ("seed", json::uint(id.seed)),
            ("trace_len", json::uint(id.trace_len)),
            ("fingerprint", json::uint(id.fingerprint)),
        ]));
        out.push('\n');
    }
    out
}

/// Parses `*.plan.jsonl` content (see [`write_plan_file`]). Unlike result streams,
/// plan files are written atomically by the coordinator, so any malformed or
/// missing line is an error, not something to skip.
///
/// Accepts plan version 1 (pre-lineage) for compatibility: such plans are
/// backfilled as model v1, with the spec fingerprint of this binary's builtin spec
/// for the artifact.
pub fn parse_plan_file(content: &str) -> Result<PlanFile, String> {
    let mut lines = content.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("plan file is empty")?;
    let [svw_plan, artifact, trace_len, round, schema, model_version, spec_fingerprint, divergence, cells] =
        json::flat_fields(
            header,
            &[
                "svw_plan",
                "artifact",
                "trace_len",
                "round",
                "schema",
                "model_version",
                "spec_fingerprint",
                "divergence",
                "cells",
            ],
        )
        .ok_or("plan header is not a flat JSON object")?;
    let uint = |v: &Option<Scalar<'_>>| v.as_ref().and_then(Scalar::as_u64);
    let text = |v: &Option<Scalar<'_>>| v.as_ref().and_then(Scalar::as_str).map(String::from);
    let version = uint(&svw_plan).ok_or("plan header is missing the svw_plan version field")?;
    if version != 1 && version != PLAN_FILE_VERSION {
        return Err(format!(
            "unsupported plan version {version} (supported: 1, {PLAN_FILE_VERSION})"
        ));
    }
    let artifact = text(&artifact).ok_or("plan header is missing the artifact field")?;
    let trace_len = uint(&trace_len).ok_or("plan header is missing the trace_len field")?;
    let round = uint(&round).unwrap_or(0);
    let (model_version, spec_fingerprint, divergence) = if version == 1 {
        // Pre-lineage plans could only have been produced by a model-v1 binary
        // from a builtin artifact definition; backfill that lineage.
        let fp = registry::spec_by_name(&artifact)
            .map(registry::spec_fingerprint)
            .unwrap_or(0);
        (1u64, fp, None)
    } else {
        let schema = uint(&schema).ok_or("plan header is missing the schema field")?;
        if schema != registry::RESULT_SCHEMA_VERSION {
            return Err(format!(
                "unsupported plan result schema {schema} (this binary writes {})",
                registry::RESULT_SCHEMA_VERSION
            ));
        }
        (
            uint(&model_version).ok_or("plan header is missing the model_version field")?,
            uint(&spec_fingerprint).ok_or("plan header is missing the spec_fingerprint field")?,
            text(&divergence),
        )
    };
    let expected = uint(&cells).ok_or("plan header is missing the cells count")? as usize;

    let cell_model_version = u32::try_from(model_version)
        .map_err(|_| format!("plan model_version {model_version} is out of range"))?;
    // The header's count is untrusted: reserve no more cells than lines remain.
    let mut cells = Vec::with_capacity(expected.min(lines.clone().count()));
    for (i, line) in lines.enumerate() {
        let [matrix, workload, config, seed, trace_len, fingerprint] = json::flat_fields(
            line,
            &[
                "matrix",
                "workload",
                "config",
                "seed",
                "trace_len",
                "fingerprint",
            ],
        )
        .ok_or_else(|| format!("plan cell line {} is malformed", i + 1))?;
        let missing = |k: &str| format!("plan cell line {} is missing {k}", i + 1);
        cells.push(CellId {
            matrix: text(&matrix).ok_or_else(|| missing("matrix"))?,
            workload: text(&workload).ok_or_else(|| missing("workload"))?,
            config: text(&config).ok_or_else(|| missing("config"))?,
            seed: uint(&seed).ok_or_else(|| missing("seed"))?,
            trace_len: uint(&trace_len).ok_or_else(|| missing("trace_len"))?,
            fingerprint: uint(&fingerprint).ok_or_else(|| missing("fingerprint"))?,
            model_version: cell_model_version,
            spec_fingerprint,
        });
    }
    if cells.len() != expected {
        return Err(format!(
            "plan header promises {expected} cell(s) but the file holds {} — truncated?",
            cells.len()
        ));
    }
    Ok(PlanFile {
        artifact,
        trace_len,
        round,
        model_version,
        spec_fingerprint,
        divergence,
        cells,
    })
}

/// Resolves a parsed plan file against this binary's artifact definitions into
/// executable [`SweepPlan`]s — one per matrix label, in order of first appearance —
/// applying `shard` by *global* plan position (cell `k` of the file belongs to
/// shard `k % N`), so N shards draining the same file cover it disjointly.
///
/// Fails when the artifact is unknown, the plan's lineage disagrees with this
/// binary (a model version it does not implement, or a spec fingerprint that is
/// not the builtin spec's), a cell names a matrix/workload/configuration the
/// artifact does not define, a fingerprint disagrees with this binary's workload
/// profiles, or a cell's trace length differs from the header's.
pub fn resolve_plan(plan: &PlanFile, shard: Option<Shard>) -> Result<Vec<SweepPlan>, String> {
    let model_version = u32::try_from(plan.model_version)
        .map_err(|_| format!("plan model_version {} is out of range", plan.model_version))?;
    if !(1..=registry::LATEST_MODEL_VERSION).contains(&model_version) {
        return Err(format!(
            "plan requires model version {model_version}, which this binary does not implement \
             (supported: 1..={})",
            registry::LATEST_MODEL_VERSION
        ));
    }
    let resolved = artifact_resolved(&plan.artifact, model_version)
        .ok_or_else(|| format!("plan names unknown artifact {:?}", plan.artifact))?;
    if plan.spec_fingerprint != resolved.fingerprint {
        return Err(format!(
            "plan for artifact {:?} was generated from a different experiment spec \
             (spec fingerprint {:016x}, this binary's builtin is {:016x}) — regenerate the \
             plan with this binary",
            plan.artifact, plan.spec_fingerprint, resolved.fingerprint
        ));
    }
    let mut plans: Vec<SweepPlan> = Vec::new();
    for (k, id) in plan.cells.iter().enumerate() {
        if id.trace_len != plan.trace_len {
            return Err(format!(
                "plan cell {} × {} seed {} has trace_len {} but the plan header says {}",
                id.workload, id.config, id.seed, id.trace_len, plan.trace_len
            ));
        }
        let slot = match plans.iter().position(|p| p.matrix == id.matrix) {
            Some(i) => i,
            None => {
                let m = resolved
                    .matrices
                    .iter()
                    .find(|m| m.label == id.matrix)
                    .ok_or_else(|| {
                        format!(
                            "plan cell matrix {:?} is not part of artifact {:?}",
                            id.matrix, plan.artifact
                        )
                    })?;
                plans.push(SweepPlan {
                    matrix: m.label.clone(),
                    workloads: m.workloads.clone(),
                    configs: m.configs.iter().map(|c| Arc::new(c.clone())).collect(),
                    trace_len: plan.trace_len as usize,
                    cells: Vec::new(),
                });
                plans.len() - 1
            }
        };
        let target = &mut plans[slot];
        let w = target
            .workloads
            .iter()
            .position(|p| p.name == id.workload)
            .ok_or_else(|| {
                format!(
                    "plan cell workload {:?} is not part of matrix {:?}",
                    id.workload, id.matrix
                )
            })?;
        if target.workloads[w].fingerprint() != id.fingerprint {
            return Err(format!(
                "plan cell workload {} was planned against a different workload definition \
                 (fingerprint {:016x}, this binary has {:016x}) — regenerate the plan with \
                 this binary",
                id.workload,
                id.fingerprint,
                target.workloads[w].fingerprint()
            ));
        }
        let c = target
            .configs
            .iter()
            .position(|p| p.name == id.config)
            .ok_or_else(|| {
                format!(
                    "plan cell config {:?} is not part of matrix {:?}",
                    id.config, id.matrix
                )
            })?;
        target.cells.push(PlannedCell {
            id: id.clone(),
            workload: w,
            config: c,
            in_shard: shard.is_none_or(|s| s.contains(k)),
        });
    }
    Ok(plans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ARTIFACT_NAMES;

    #[test]
    fn enumerate_is_workload_major_config_then_seed() {
        let workloads = vec![
            WorkloadProfile::quicktest(),
            WorkloadProfile::by_name("gzip").unwrap(),
        ];
        let configs = crate::presets::fig5_nlq_configs();
        let plan = SweepPlan::enumerate("m", &workloads, &configs[..2], 1_000, &[3, 4], 99);
        let order: Vec<(String, String, u64)> = plan
            .cell_ids()
            .map(|id| (id.workload.clone(), id.config.clone(), id.seed))
            .collect();
        let mut expected = Vec::new();
        for w in &workloads {
            for c in &configs[..2] {
                for seed in [3u64, 4] {
                    expected.push((w.name.clone(), c.name.clone(), seed));
                }
            }
        }
        assert_eq!(order, expected);
        assert!(plan.cells.iter().all(|c| c.in_shard));
        assert!(plan
            .cell_ids()
            .all(|id| id.model_version == 1 && id.spec_fingerprint == 99));
        assert_eq!(plan.cells[0].id.fingerprint, workloads[0].fingerprint());
    }

    #[test]
    fn apply_shard_partitions_by_position() {
        let workloads = vec![WorkloadProfile::quicktest()];
        let configs = crate::presets::fig5_nlq_configs();
        let mut plans: Vec<SweepPlan> = (0..3)
            .map(|i| {
                let mut p = SweepPlan::enumerate("m", &workloads, &configs, 1_000, &[1, 2], 0);
                p.apply_shard(Shard { index: i, count: 3 });
                p
            })
            .collect();
        let total = plans[0].cells.len();
        for k in 0..total {
            let owners: Vec<usize> = (0..3).filter(|&i| plans[i].cells[k].in_shard).collect();
            assert_eq!(owners, vec![k % 3]);
        }
        let covered: usize = plans.iter_mut().map(|p| p.in_shard_cells()).sum();
        assert_eq!(covered, total);
    }

    #[test]
    fn plan_files_round_trip_with_lineage() {
        let plans = artifact_plans("fig8", 2_000, &[1, 2], 2).unwrap();
        let file = PlanFile::from_cells("fig8", 2_000, 3, plans[0].cell_ids().cloned().collect());
        assert_eq!(file.model_version, 2);
        assert_eq!(
            file.spec_fingerprint,
            registry::spec_fingerprint(registry::spec_by_name("fig8").unwrap())
        );
        assert!(file.divergence.is_some(), "model v2 records its divergence");
        let content = write_plan_file(&file);
        let parsed = parse_plan_file(&content).expect("round-trips");
        assert_eq!(parsed, file);

        // Truncation (missing cells) is an error, not a silent partial plan.
        let truncated: String = content.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(parse_plan_file(&truncated).is_err());
        assert!(parse_plan_file("").is_err());
    }

    #[test]
    fn an_implausible_cell_count_is_a_typed_error() {
        // A crafted header whose count no allocation could hold must not size one.
        let plans = artifact_plans("fig8", 2_000, &[1], 1).unwrap();
        let file = PlanFile::from_cells("fig8", 2_000, 0, plans[0].cell_ids().cloned().collect());
        let content = write_plan_file(&file);
        let real = format!("\"cells\":{}", file.cells.len());
        assert!(content.contains(&real));
        let crafted = content.replacen(&real, &format!("\"cells\":{}", u64::MAX), 1);
        let err = parse_plan_file(&crafted).unwrap_err();
        assert!(err.contains("truncated?"), "{err}");
    }

    #[test]
    fn version1_plans_parse_with_backfilled_lineage() {
        let plans = artifact_plans("fig8", 2_000, &[1], 1).unwrap();
        let file = PlanFile::from_cells("fig8", 2_000, 0, plans[0].cell_ids().cloned().collect());
        // Rewrite the v2 output as the legacy v1 format: strip the lineage keys.
        let v2 = write_plan_file(&file);
        let mut lines = v2.lines();
        let header = lines.next().unwrap();
        let legacy_header = json::object([
            ("svw_plan", json::uint(1)),
            ("artifact", json::string("fig8")),
            ("trace_len", json::uint(2_000)),
            ("round", json::uint(0)),
            ("cells", json::uint(file.cells.len() as u64)),
        ]);
        assert_ne!(header, legacy_header);
        let legacy: String = std::iter::once(legacy_header.as_str())
            .chain(lines)
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = parse_plan_file(&legacy).expect("v1 plans still parse");
        assert_eq!(parsed.model_version, 1);
        assert_eq!(parsed.spec_fingerprint, file.spec_fingerprint);
        assert_eq!(parsed.divergence, None);
        assert_eq!(parsed.cells, file.cells);
        assert!(resolve_plan(&parsed, None).is_ok());
    }

    #[test]
    fn resolve_plan_rebuilds_executable_plans_and_validates() {
        let full = artifact_plans("summary", 1_500, &[1], 1).unwrap();
        let cells: Vec<CellId> = full.iter().flat_map(|p| p.cell_ids().cloned()).collect();
        let file = PlanFile::from_cells("summary", 1_500, 0, cells);
        let resolved = resolve_plan(&file, None).expect("resolves");
        assert_eq!(resolved.len(), full.len(), "one plan per matrix label");
        for (a, b) in resolved.iter().zip(full.iter()) {
            assert_eq!(a.matrix, b.matrix);
            let ia: Vec<&CellId> = a.cell_ids().collect();
            let ib: Vec<&CellId> = b.cell_ids().collect();
            assert_eq!(ia, ib);
        }

        // Sharding applies by global file position across matrices.
        let sharded = resolve_plan(&file, Some(Shard { index: 1, count: 2 })).unwrap();
        let mut position = 0usize;
        for plan in &sharded {
            for cell in &plan.cells {
                assert_eq!(cell.in_shard, position % 2 == 1);
                position += 1;
            }
        }

        // A drifted fingerprint is rejected.
        let mut bad = file.clone();
        bad.cells[0].fingerprint ^= 1;
        assert!(resolve_plan(&bad, None)
            .unwrap_err()
            .contains("fingerprint"));

        // An unknown config name is rejected.
        let mut bad = file.clone();
        bad.cells[0].config = "no-such-config".to_string();
        assert!(resolve_plan(&bad, None).is_err());

        // A drifted spec fingerprint is rejected with a lineage diagnostic.
        let mut bad = file.clone();
        bad.spec_fingerprint ^= 1;
        assert!(resolve_plan(&bad, None)
            .unwrap_err()
            .contains("different experiment spec"));

        // A model version this binary does not implement is rejected.
        let mut bad = file;
        bad.model_version = u64::from(registry::LATEST_MODEL_VERSION) + 1;
        assert!(resolve_plan(&bad, None)
            .unwrap_err()
            .contains("does not implement"));
    }

    #[test]
    fn artifact_plans_cover_every_artifact_name() {
        for (name, _) in ARTIFACT_NAMES {
            let plans = artifact_plans(name, 1_000, &[1], 1).unwrap_or_else(|| {
                panic!("artifact {name} has no plan enumeration");
            });
            assert!(!plans.is_empty());
            for plan in &plans {
                assert_eq!(
                    plan.cells.len(),
                    plan.workloads.len() * plan.configs.len(),
                    "{name}: one cell per (workload, config) at one seed"
                );
            }
        }
        assert!(artifact_plans("nope", 1_000, &[1], 1).is_none());
    }
}
