//! # svw-cpu — cycle-level out-of-order core with pre-commit load re-execution
//!
//! This crate is the timing substrate of the reproduction: a trace-driven,
//! cycle-by-cycle model of the paper's dynamically scheduled superscalar processor.
//! Each cycle it retires instructions in order (arbitrating the single data-cache
//! read/write port between store retirement and load re-execution, with retirement
//! having priority), advances the in-order re-execution pipeline (including the SVW
//! stage when configured), completes and issues instructions out of order subject to
//! per-class issue bandwidth, memory dependences predicted by store-sets, cache-bank
//! ports and FSQ ports, and fetches/renames/dispatches new instructions from the
//! trace, applying redundant load elimination at rename when enabled.
//!
//! The model is *value exact*: loads obtain the value visible to them at execution
//! time (forwarded from the appropriate queue or read from committed memory), which
//! may be architecturally wrong; re-execution (or the conventional load queue search)
//! detects the mismatch and flushes, exactly as the paper describes. Every retired
//! load is checked against the sequential oracle, so a filter that ever suppressed a
//! necessary re-execution would abort the simulation.
//!
//! # Example
//!
//! ```
//! use svw_cpu::{Cpu, MachineConfig, LsqOrganization, ReexecMode};
//! use svw_workloads::WorkloadProfile;
//!
//! let program = WorkloadProfile::quicktest().generate(5_000, 1);
//! let config = MachineConfig::eight_wide(
//!     "quickstart-nlq-svw",
//!     LsqOrganization::Nlq { store_exec_bandwidth: 2 },
//!     ReexecMode::Svw(svw_core::SvwConfig::paper_default()),
//! );
//! let stats = Cpu::new(config, &program).run();
//! assert!(stats.ipc() > 0.0);
//! assert!(stats.reexec_rate() <= stats.marked_rate());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod core;
mod observe;
mod rob;
mod stats;
mod wakeup;
mod wheel;

pub use config::{LsqOrganization, MachineConfig, ReexecMode};
pub use core::{Cpu, SimArena};
pub use observe::{CommitObserver, CommitRecord, FwdOrigin};
pub use stats::CpuStats;
