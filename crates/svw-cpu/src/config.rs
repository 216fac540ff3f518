//! Machine configurations.
//!
//! The paper uses two processor configurations (an 8-wide machine for the NLQ and SSQ
//! studies, a 4-wide machine for the RLE study), each evaluated with several load/store
//! unit organisations and re-execution/SVW settings. [`MachineConfig`] captures all of
//! those axes; the experiment layer (`svw-sim`) provides the exact per-figure presets.

use svw_core::SvwConfig;
use svw_mem::HierarchyConfig;
use svw_predictors::{BranchPredictorConfig, StoreSetsConfig};
use svw_rle::ItConfig;

/// Which load/store-unit organisation the machine uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LsqOrganization {
    /// Conventional unit: associative SQ for forwarding, associative LQ for ordering
    /// (Figure 2a). `extra_load_latency` models a slow associative SQ on the load
    /// critical path (the SSQ study's baseline takes 4-cycle loads for this reason).
    Conventional {
        /// Extra cycles added to every load's latency by the associative SQ.
        extra_load_latency: u64,
        /// How many stores may compute their address per cycle (the NLQ study's
        /// baseline is limited to 1 by the single associative LQ port).
        store_exec_bandwidth: usize,
    },
    /// Non-associative LQ (Figure 2b): the LQ ordering port is gone (stores never
    /// search it); loads that issue past unresolved older stores are marked and
    /// re-execute before commit. Store execution bandwidth is no longer limited by LQ
    /// ports.
    Nlq {
        /// How many stores may compute their address per cycle.
        store_exec_bandwidth: usize,
    },
    /// Speculative SQ (Figure 2c): a non-associative retirement SQ, a small forwarding
    /// SQ fed by a steering predictor, and a best-effort forwarding buffer per cache
    /// bank. Every load is marked for re-execution.
    Ssq {
        /// Forwarding SQ entries (16 in the paper).
        fsq_entries: usize,
        /// Entries in each per-bank best-effort forwarding buffer (8 in the paper).
        fwd_buffer_entries: usize,
        /// How many stores may compute their address per cycle.
        store_exec_bandwidth: usize,
    },
}

impl LsqOrganization {
    /// Store address-generation bandwidth per cycle.
    pub fn store_exec_bandwidth(&self) -> usize {
        match *self {
            LsqOrganization::Conventional {
                store_exec_bandwidth,
                ..
            }
            | LsqOrganization::Nlq {
                store_exec_bandwidth,
            }
            | LsqOrganization::Ssq {
                store_exec_bandwidth,
                ..
            } => store_exec_bandwidth,
        }
    }

    /// Extra load latency imposed by the organisation (only the slow conventional
    /// associative SQ adds any).
    pub fn extra_load_latency(&self) -> u64 {
        match *self {
            LsqOrganization::Conventional {
                extra_load_latency, ..
            } => extra_load_latency,
            _ => 0,
        }
    }

    /// Returns `true` for the speculative-SQ organisation.
    pub fn is_ssq(&self) -> bool {
        matches!(self, LsqOrganization::Ssq { .. })
    }

    /// Returns `true` for the conventional (associative LQ + SQ) organisation.
    pub fn is_conventional(&self) -> bool {
        matches!(self, LsqOrganization::Conventional { .. })
    }
}

/// How pre-commit load re-execution is performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReexecMode {
    /// No re-execution machinery at all (only valid for configurations whose
    /// speculation is checked some other way, i.e. the conventional baselines).
    None,
    /// Re-execute every marked load with a data-cache access that shares the store
    /// retirement port (commit has priority).
    Full,
    /// Re-execute marked loads, but first apply the SVW filter: only loads whose SSBF
    /// test is positive access the cache.
    Svw(SvwConfig),
    /// Idealised re-execution: zero latency, infinite bandwidth (the paper's
    /// `+PERFECT` configurations). Marked loads are still counted.
    Perfect,
}

impl ReexecMode {
    /// Returns the SVW configuration if this mode uses one.
    pub fn svw_config(&self) -> Option<SvwConfig> {
        match self {
            ReexecMode::Svw(cfg) => Some(*cfg),
            _ => None,
        }
    }

    /// Returns `true` if marked loads must be verified before they commit.
    pub fn verifies(&self) -> bool {
        !matches!(self, ReexecMode::None)
    }

    /// Returns `true` if the SVW filter sits in front of re-execution.
    pub fn is_svw(&self) -> bool {
        matches!(self, ReexecMode::Svw(_))
    }
}

/// A complete machine configuration.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Human-readable configuration name (used in reports).
    pub name: String,
    /// Instructions fetched/renamed/dispatched per cycle.
    pub fetch_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder-buffer entries.
    pub rob_size: usize,
    /// Issue-queue entries.
    pub iq_size: usize,
    /// Load-queue entries.
    pub lq_size: usize,
    /// Store-queue entries.
    pub sq_size: usize,
    /// Physical registers (beyond the architectural state).
    pub phys_regs: usize,
    /// Per-class issue bandwidth: integer ALU operations per cycle.
    pub issue_int: usize,
    /// Per-class issue bandwidth: floating-point operations per cycle.
    pub issue_fp: usize,
    /// Per-class issue bandwidth: loads per cycle.
    pub issue_load: usize,
    /// Per-class issue bandwidth: stores (address generation) per cycle — further
    /// limited by [`LsqOrganization::store_exec_bandwidth`].
    pub issue_store: usize,
    /// Per-class issue bandwidth: branches per cycle.
    pub issue_branch: usize,
    /// Front-end depth in cycles (fetch → execute); the branch misprediction redirect
    /// penalty.
    pub frontend_depth: u64,
    /// Issue-to-execute depth (schedule + register read) added to every operation's
    /// completion time. The paper presets keep this at 0: full bypassing makes the
    /// dataflow latency of an operation equal to its execution latency, while the
    /// pipeline depth itself is accounted for in `frontend_depth` (redirect/refill
    /// penalties).
    pub issue_to_execute: u64,
    /// Extra pipeline stages added by the re-execution engine (2 for NLQ/SSQ, 4 for
    /// RLE); they lengthen flush penalties.
    pub reexec_stages: u64,
    /// Store retirement (data-cache write) ports; the paper uses 1.
    pub store_commit_ports: usize,
    /// Load/store unit organisation.
    pub lsq: LsqOrganization,
    /// Redundant load elimination (integration table), if enabled.
    pub rle: Option<ItConfig>,
    /// Re-execution / SVW mode.
    pub reexec: ReexecMode,
    /// Memory hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Branch predictor.
    pub branch: BranchPredictorConfig,
    /// Store-sets memory dependence predictor.
    pub store_sets: StoreSetsConfig,
    /// Behavioural model version. Version 1 reproduces the historical binary
    /// byte-for-byte (including its documented quirks); higher versions apply
    /// recorded model fixes — version 2 lets the issue stage's early-exit scan
    /// honour remaining FP issue bandwidth instead of ignoring it. The version
    /// is carried as result lineage so renders from different versions are
    /// never reconciled as if they were interchangeable.
    pub model_version: u32,
}

impl MachineConfig {
    /// The paper's 8-wide machine (NLQ/SSQ studies): 512-entry ROB, 128-entry LQ,
    /// 64-entry SQ, 200 issue-queue entries, 448 registers; issues 5 integer, 2 FP,
    /// 2 load, 2 store and 1 branch per cycle. The load/store organisation and
    /// re-execution mode are left for the caller to fill in.
    pub fn eight_wide(name: impl Into<String>, lsq: LsqOrganization, reexec: ReexecMode) -> Self {
        MachineConfig {
            name: name.into(),
            fetch_width: 8,
            commit_width: 8,
            rob_size: 512,
            iq_size: 200,
            lq_size: 128,
            sq_size: 64,
            phys_regs: 448,
            issue_int: 5,
            issue_fp: 2,
            issue_load: 2,
            issue_store: 2,
            issue_branch: 1,
            frontend_depth: 12,
            issue_to_execute: 0,
            reexec_stages: if reexec.verifies() { 2 } else { 0 },
            store_commit_ports: 1,
            lsq,
            rle: None,
            reexec,
            hierarchy: HierarchyConfig::paper_default(),
            branch: BranchPredictorConfig::paper_default(),
            store_sets: StoreSetsConfig::paper_default(),
            model_version: 1,
        }
    }

    /// The paper's 4-wide machine (RLE study): 128-entry ROB, 32-entry LQ, 16-entry
    /// SQ, 50 issue-queue entries, 160 registers; issues 3 integer, 1 FP, 1 load,
    /// 1 store and 1 branch per cycle.
    pub fn four_wide(name: impl Into<String>, lsq: LsqOrganization, reexec: ReexecMode) -> Self {
        MachineConfig {
            name: name.into(),
            fetch_width: 4,
            commit_width: 4,
            rob_size: 128,
            iq_size: 50,
            lq_size: 32,
            sq_size: 16,
            phys_regs: 160,
            issue_int: 3,
            issue_fp: 1,
            issue_load: 1,
            issue_store: 1,
            issue_branch: 1,
            frontend_depth: 12,
            issue_to_execute: 0,
            reexec_stages: if reexec.verifies() { 4 } else { 0 },
            store_commit_ports: 1,
            lsq,
            rle: None,
            reexec,
            hierarchy: HierarchyConfig::paper_default(),
            branch: BranchPredictorConfig::paper_default(),
            store_sets: StoreSetsConfig::paper_default(),
            model_version: 1,
        }
    }

    /// Enables redundant load elimination with the given integration-table
    /// configuration.
    #[must_use]
    pub fn with_rle(mut self, it: ItConfig) -> Self {
        self.rle = Some(it);
        self
    }

    /// Selects the behavioural model version (see [`MachineConfig::model_version`]).
    #[must_use]
    pub fn with_model_version(mut self, version: u32) -> Self {
        self.model_version = version;
        self
    }

    /// Basic structural sanity checks.
    ///
    /// # Panics
    ///
    /// Panics if any capacity is zero, if a load could complete in the cycle it
    /// issues, or if an organisation that relies on re-execution for correctness
    /// (NLQ, SSQ, RLE) is configured without it.
    pub fn validate(&self) {
        assert!(self.fetch_width > 0 && self.commit_width > 0);
        assert!(
            self.model_version >= 1,
            "model_version is 1-based (version {} is not a defined model)",
            self.model_version
        );
        assert!(self.rob_size > 0 && self.iq_size > 0 && self.lq_size > 0 && self.sq_size > 0);
        assert!(self.issue_load > 0 && self.issue_store > 0 && self.issue_int > 0);
        assert!(
            self.issue_to_execute + self.hierarchy.l1d.hit_latency > 0,
            "configuration {:?} would complete a load in the cycle it issues",
            self.name
        );
        let needs_reexec = self.rle.is_some()
            || matches!(
                self.lsq,
                LsqOrganization::Nlq { .. } | LsqOrganization::Ssq { .. }
            );
        assert!(
            !needs_reexec || self.reexec.verifies(),
            "configuration {:?} relies on speculation that only re-execution can verify",
            self.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_shapes() {
        let m8 = MachineConfig::eight_wide(
            "8w",
            LsqOrganization::Conventional {
                extra_load_latency: 0,
                store_exec_bandwidth: 1,
            },
            ReexecMode::None,
        );
        assert_eq!(m8.rob_size, 512);
        assert_eq!(m8.lq_size, 128);
        assert_eq!(m8.sq_size, 64);
        m8.validate();

        let m4 = MachineConfig::four_wide(
            "4w",
            LsqOrganization::Conventional {
                extra_load_latency: 0,
                store_exec_bandwidth: 1,
            },
            ReexecMode::Full,
        );
        assert_eq!(m4.rob_size, 128);
        assert_eq!(m4.sq_size, 16);
        m4.validate();
    }

    #[test]
    fn reexec_stage_counts_follow_the_paper() {
        let nlq = MachineConfig::eight_wide(
            "nlq",
            LsqOrganization::Nlq {
                store_exec_bandwidth: 2,
            },
            ReexecMode::Full,
        );
        assert_eq!(nlq.reexec_stages, 2);
        let rle = MachineConfig::four_wide(
            "rle",
            LsqOrganization::Conventional {
                extra_load_latency: 0,
                store_exec_bandwidth: 1,
            },
            ReexecMode::Full,
        )
        .with_rle(ItConfig::paper_default());
        assert_eq!(rle.reexec_stages, 4);
        rle.validate();
    }

    #[test]
    #[should_panic(expected = "relies on speculation")]
    fn nlq_without_reexecution_is_rejected() {
        MachineConfig::eight_wide(
            "bad",
            LsqOrganization::Nlq {
                store_exec_bandwidth: 2,
            },
            ReexecMode::None,
        )
        .validate();
    }

    #[test]
    fn lsq_organisation_accessors() {
        let conv = LsqOrganization::Conventional {
            extra_load_latency: 2,
            store_exec_bandwidth: 1,
        };
        assert_eq!(conv.extra_load_latency(), 2);
        assert_eq!(conv.store_exec_bandwidth(), 1);
        let ssq = LsqOrganization::Ssq {
            fsq_entries: 16,
            fwd_buffer_entries: 8,
            store_exec_bandwidth: 2,
        };
        assert_eq!(ssq.extra_load_latency(), 0);
        assert_eq!(ssq.store_exec_bandwidth(), 2);
    }

    #[test]
    fn reexec_mode_helpers() {
        assert!(!ReexecMode::None.verifies());
        assert!(ReexecMode::Full.verifies());
        assert!(ReexecMode::Perfect.verifies());
        assert!(ReexecMode::Svw(SvwConfig::paper_default()).verifies());
        assert!(ReexecMode::Svw(SvwConfig::paper_default())
            .svw_config()
            .is_some());
        assert!(ReexecMode::Full.svw_config().is_none());
    }
}
