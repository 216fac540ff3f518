//! Streaming JSONL results: one flat JSON object per finished `(workload,
//! configuration, seed)` cell, appended (and flushed) the moment the cell completes.
//!
//! Because every line is self-describing and written atomically-enough (single
//! `write_all` + flush of a `\n`-terminated line), an interrupted sweep leaves a
//! prefix of valid lines plus at most one truncated line. Re-running the same sweep
//! with the same `--out` file *resumes*: cells whose line is already present are
//! restored from the file instead of being re-simulated. Failed cells are re-tried on
//! resume (their line records the failure, not a result).
//!
//! Restored statistics are *lossless*: every scalar counter the reports consume and
//! the nested substrate statistics (branch predictor, cache hierarchy, SVW
//! internals) round-trip through flattened `bp_*` / `l1i_*` / `l1d_*` / `l2_*` /
//! `svw_*` fields, so a resumed sweep is indistinguishable from an uninterrupted
//! one — including for substrate-level figures. Lines written by older versions
//! (missing the substrate or fingerprint fields) fail to parse and their cells are
//! simply re-simulated.
//!
//! Each line also records the workload profile's parameter *fingerprint*, making the
//! stream safe to move between machines and to stitch together from distributed
//! shards: resume refuses to restore a cell whose workload definition has changed,
//! and [`crate::merge`] cross-checks every shard against the sweep's expected
//! fingerprints.
//!
//! Since result schema 2, every line additionally carries its *lineage*: the
//! result `schema` version, the behavioural `model_version` the cell was
//! simulated under, and the `spec_fingerprint` of the experiment spec that
//! enumerated it (see [`crate::registry`]). Both lineage values are part of the
//! cell identity, so results simulated under different model versions — or under
//! a spec whose definition drifted — are never reconciled as interchangeable.

use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use svw_cpu::CpuStats;

use crate::json::{self, Scalar};

/// One scalar `CpuStats` counter that round-trips through the JSONL stream.
struct StatField {
    name: &'static str,
    get: fn(&CpuStats) -> u64,
    set: fn(&mut CpuStats, u64),
}

/// Declares `STAT_FIELDS`, the scalar `CpuStats` counters that round-trip through
/// the JSONL stream in emission order (from `"name": field.path` rows), and
/// `CELL_KEYS`, every key [`parse_cell_line`] reads: the `head` keys, then those
/// names. A unit test enforces the round-trip of every field.
macro_rules! cell_fields {
    ([$($head:literal),*] $($name:literal: $($path:ident).+,)*) => {
        const STAT_FIELDS: &[StatField] = &[$(StatField {
            name: $name,
            get: |s| s.$($path).+,
            set: |s, v| s.$($path).+ = v,
        }),*];
        const CELL_KEYS: [&str; [$($head),*].len() + STAT_FIELDS.len()] = [$($head,)* $($name),*];
    };
}

cell_fields! {
    [
        "matrix", "workload", "config", "seed", "trace_len", "fingerprint", "schema",
        "model_version", "spec_fingerprint", "status", "error"
    ]
    "cycles": cycles,
    "committed": committed,
    "loads_retired": loads_retired,
    "stores_retired": stores_retired,
    "loads_marked": loads_marked,
    "loads_filtered": loads_filtered,
    "loads_reexecuted": loads_reexecuted,
    "reexecuted_fsq_loads": reexecuted_fsq_loads,
    "reexecuted_reuse_loads": reexecuted_reuse_loads,
    "reexecuted_bypass_loads": reexecuted_bypass_loads,
    "loads_eliminated": loads_eliminated,
    "eliminations_reuse": eliminations_reuse,
    "eliminations_bypass": eliminations_bypass,
    "eliminations_squash": eliminations_squash,
    "reexec_flushes": reexec_flushes,
    "ordering_flushes": ordering_flushes,
    "wrap_drains": wrap_drains,
    "branch_mispredictions": branch_mispredictions,
    "commit_stalled_on_reexec": commit_stalled_on_reexec,
    "reexec_port_conflicts": reexec_port_conflicts,
    "fwd_buffer_lookups": fwd_buffer_lookups,
    "fwd_buffer_hits": fwd_buffer_hits,
    "store_set_squashes": store_set_squashes,
    // Nested substrate statistics, flattened so restored cells are lossless.
    "bp_predictions": branch_predictor.predictions,
    "bp_mispredictions": branch_predictor.mispredictions,
    "l1i_reads": hierarchy.l1i.reads,
    "l1i_writes": hierarchy.l1i.writes,
    "l1i_read_misses": hierarchy.l1i.read_misses,
    "l1i_write_misses": hierarchy.l1i.write_misses,
    "l1i_dirty_evictions": hierarchy.l1i.dirty_evictions,
    "l1d_reads": hierarchy.l1d.reads,
    "l1d_writes": hierarchy.l1d.writes,
    "l1d_read_misses": hierarchy.l1d.read_misses,
    "l1d_write_misses": hierarchy.l1d.write_misses,
    "l1d_dirty_evictions": hierarchy.l1d.dirty_evictions,
    "l2_reads": hierarchy.l2.reads,
    "l2_writes": hierarchy.l2.writes,
    "l2_read_misses": hierarchy.l2.read_misses,
    "l2_write_misses": hierarchy.l2.write_misses,
    "l2_dirty_evictions": hierarchy.l2.dirty_evictions,
    "mem_accesses": hierarchy.memory_accesses,
    "svw_marked_loads": svw.marked_loads,
    "svw_filtered_loads": svw.filtered_loads,
    "svw_reexecuted_loads": svw.reexecuted_loads,
    "svw_reexec_mismatches": svw.reexec_mismatches,
    "svw_wrap_drains": svw.wrap_drains,
    "svw_ssbf_store_updates": svw.ssbf_store_updates,
    "svw_ssbf_invalidation_updates": svw.ssbf_invalidation_updates,
}

/// The identity of one experiment cell, as recorded in (and matched against) the
/// JSONL stream. `matrix` disambiguates configurations that share a display name
/// across different artifacts (e.g. `+SVW+UPD` appears in both Figure 5 and 6).
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct CellId {
    /// Matrix label (artifact name, e.g. `"fig5"` or `"summary/SSQ"`).
    pub matrix: String,
    /// Workload name.
    pub workload: String,
    /// Configuration name.
    pub config: String,
    /// Workload-generation seed.
    pub seed: u64,
    /// Per-workload dynamic trace length.
    pub trace_len: u64,
    /// The workload profile's parameter fingerprint
    /// ([`svw_workloads::WorkloadProfile::fingerprint`]). Part of the identity:
    /// results produced by a *different* workload definition (an edited profile, an
    /// older binary) never restore on resume, and `svwsim merge` rejects shards whose
    /// fingerprints disagree with the sweep's expected workloads.
    pub fingerprint: u64,
    /// Behavioural model version the cell was simulated under
    /// ([`svw_cpu::MachineConfig::model_version`]). Part of the identity: results
    /// from different model versions are never mixed on resume or merge.
    pub model_version: u32,
    /// Fingerprint of the experiment spec's canonical form
    /// ([`crate::registry::spec_fingerprint`]); `0` for ad-hoc cells that were not
    /// enumerated from a spec (e.g. `svwsim run`).
    pub spec_fingerprint: u64,
}

/// Serializes one finished cell as a single JSONL line (no trailing newline).
pub fn cell_line(id: &CellId, result: &Result<CpuStats, String>) -> String {
    let mut line = json::ObjectWriter::with_capacity(1280);
    line.str("matrix", &id.matrix);
    line.str("workload", &id.workload);
    line.str("config", &id.config);
    line.uint("seed", id.seed);
    line.uint("trace_len", id.trace_len);
    line.uint("fingerprint", id.fingerprint);
    line.uint("schema", crate::registry::RESULT_SCHEMA_VERSION);
    line.uint("model_version", u64::from(id.model_version));
    line.uint("spec_fingerprint", id.spec_fingerprint);
    match result {
        Ok(stats) => {
            line.str("status", "ok");
            for f in STAT_FIELDS {
                line.uint(f.name, (f.get)(stats));
            }
            // Derived metrics for human and downstream consumers (not read back).
            line.number("ipc", stats.ipc());
            line.number("reexec_rate", stats.reexec_rate());
            line.number("filter_rate", stats.filter_rate());
        }
        Err(msg) => {
            line.str("status", "failed");
            line.str("error", msg);
        }
    }
    line.finish()
}

/// Parses one JSONL line back into its cell identity and result. Lines with
/// `status: "failed"` yield `Err(error)`; malformed lines yield `None`. The first
/// occurrence of a duplicated key wins.
pub fn parse_cell_line(line: &str) -> Option<(CellId, Result<CpuStats, String>)> {
    let [matrix, workload, config, seed, trace_len, fingerprint, schema, model_version, spec_fingerprint, status, error, stats @ ..] =
        json::flat_fields(line, &CELL_KEYS)?;
    let text = |v: Option<Scalar<'_>>| v?.as_str().map(String::from);
    let uint = |v: Option<Scalar<'_>>| v?.as_u64();
    // Lines written under a different result schema (e.g. by an older binary
    // that predates the lineage fields) fail to parse and are re-simulated.
    if uint(schema)? != crate::registry::RESULT_SCHEMA_VERSION {
        return None;
    }
    let id = CellId {
        matrix: text(matrix)?,
        workload: text(workload)?,
        config: text(config)?,
        seed: uint(seed)?,
        trace_len: uint(trace_len)?,
        fingerprint: uint(fingerprint)?,
        model_version: u32::try_from(uint(model_version)?).ok()?,
        spec_fingerprint: uint(spec_fingerprint)?,
    };
    match status?.as_str()? {
        "ok" => {
            let mut out = CpuStats::default();
            for (f, v) in STAT_FIELDS.iter().zip(stats) {
                (f.set)(&mut out, uint(v)?);
            }
            Some((id, Ok(out)))
        }
        "failed" => Some((
            id,
            Err(text(error).unwrap_or_else(|| "unknown failure".to_string())),
        )),
        _ => None,
    }
}

/// An append-only JSONL results file shared by all sweep workers, with the already-
/// present cells indexed for resume.
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    file: Mutex<fs::File>,
    /// Successfully simulated cells found in the file at open time (last line wins).
    restored: HashMap<CellId, CpuStats>,
    /// Lines at open time that did not parse (e.g. one truncated by a kill).
    skipped_lines: usize,
}

impl JsonlSink {
    /// Opens (or creates) the results file at `path`, indexing any cells already
    /// present so the sweep can skip them.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let mut restored = HashMap::new();
        let mut skipped_lines = 0usize;
        let mut ends_mid_line = false;
        if let Ok(existing) = fs::read_to_string(&path) {
            // A run killed mid-write leaves a final line without its newline; it must
            // be terminated before appending, or the first new record would be
            // corrupted by concatenation.
            ends_mid_line = !existing.is_empty() && !existing.ends_with('\n');
            for line in existing.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                match parse_cell_line(line) {
                    Some((id, Ok(stats))) => {
                        restored.insert(id, stats);
                    }
                    // Failed cells are re-tried on resume; their line is kept for the
                    // record but not restored.
                    Some((_, Err(_))) => {}
                    None => skipped_lines += 1,
                }
            }
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        if ends_mid_line {
            file.write_all(b"\n")?;
        }
        Ok(JsonlSink {
            path,
            file: Mutex::new(file),
            restored,
            skipped_lines,
        })
    }

    /// The file this sink appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// How many finished cells were found (and will be skipped) at open time.
    pub fn restored_count(&self) -> usize {
        self.restored.len()
    }

    /// How many lines at open time did not parse (typically a line truncated by an
    /// interrupted run).
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// The restored statistics for `id`, if its cell finished in a previous run.
    pub fn lookup(&self, id: &CellId) -> Option<CpuStats> {
        self.restored.get(id).cloned()
    }

    /// Appends one finished cell and flushes, so an interrupted sweep loses at most
    /// the cells still in flight.
    pub fn append(&self, id: &CellId, result: &Result<CpuStats, String>) -> std::io::Result<()> {
        let mut line = cell_line(id, result);
        line.push('\n');
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.write_all(line.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nonzero_stats() -> CpuStats {
        let mut s = CpuStats::default();
        for (i, f) in STAT_FIELDS.iter().enumerate() {
            (f.set)(&mut s, (i as u64 + 1) * 1_000_000_007);
        }
        s
    }

    #[test]
    fn every_stat_field_round_trips() {
        let id = CellId {
            matrix: "fig5".into(),
            workload: "perl.d".into(),
            config: "+SVW+UPD".into(),
            seed: 7,
            trace_len: 60_000,
            fingerprint: 0xdead_beef_0123_4567,
            model_version: 2,
            spec_fingerprint: 0x0123_4567_89ab_cdef,
        };
        let stats = nonzero_stats();
        let line = cell_line(&id, &Ok(stats.clone()));
        let (rid, result) = parse_cell_line(&line).expect("parses");
        assert_eq!(rid, id);
        let restored = result.expect("ok cell");
        for f in STAT_FIELDS {
            assert_eq!((f.get)(&restored), (f.get)(&stats), "field {}", f.name);
        }
        // Lossless resume: the restored struct — including the nested substrate
        // statistics — must equal the original in every field.
        assert_eq!(
            format!("{restored:?}"),
            format!("{stats:?}"),
            "restored stats must be indistinguishable from the originals"
        );
    }

    #[test]
    fn failed_cells_round_trip_their_error() {
        let id = CellId {
            matrix: "m".into(),
            workload: "w".into(),
            config: "c \"q\"".into(),
            seed: 1,
            trace_len: 10,
            fingerprint: 1,
            model_version: 1,
            spec_fingerprint: 0,
        };
        let line = cell_line(&id, &Err("boom: index 3 out of range".into()));
        let (rid, result) = parse_cell_line(&line).expect("parses");
        assert_eq!(rid, id);
        assert_eq!(result.unwrap_err(), "boom: index 3 out of range");
    }

    #[test]
    fn sink_restores_ok_cells_and_retries_failed_ones() {
        let dir = std::env::temp_dir().join(format!("svw-jsonl-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.jsonl");
        let ok_id = CellId {
            matrix: "m".into(),
            workload: "a".into(),
            config: "c".into(),
            seed: 1,
            trace_len: 100,
            fingerprint: 42,
            model_version: 1,
            spec_fingerprint: 7,
        };
        let failed_id = CellId {
            workload: "b".into(),
            ..ok_id.clone()
        };
        {
            let sink = JsonlSink::open(&path).unwrap();
            assert_eq!(sink.restored_count(), 0);
            sink.append(&ok_id, &Ok(nonzero_stats())).unwrap();
            sink.append(&failed_id, &Err("poisoned".into())).unwrap();
        }
        // Simulate a kill mid-write: append a truncated line.
        {
            use std::io::Write as _;
            let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"matrix\":\"m\",\"workloa").unwrap();
        }
        let sink = JsonlSink::open(&path).unwrap();
        assert_eq!(sink.restored_count(), 1, "only the ok cell is restored");
        assert_eq!(sink.skipped_lines(), 1, "the truncated line is skipped");
        assert!(sink.lookup(&ok_id).is_some());
        assert!(sink.lookup(&failed_id).is_none(), "failed cells re-run");
        let _ = fs::remove_dir_all(&dir);
    }
}
