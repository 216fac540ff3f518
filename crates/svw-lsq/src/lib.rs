//! # svw-lsq — load/store queue substrates
//!
//! Building blocks for the three load/store-unit organisations the paper studies:
//!
//! * the **conventional** unit (Figure 2a): an associatively searched store queue
//!   ([`StoreQueue`]) for store-to-load forwarding plus an associatively searched load
//!   queue ([`LoadQueue`]) for memory-ordering checks;
//! * the **non-associative LQ** (NLQ, Figure 2b): the same store queue, but the load
//!   queue's associative port is removed — ordering is checked by pre-commit load
//!   re-execution instead (driven by the `svw-cpu` crate);
//! * the **speculative SQ** (SSQ, Figure 2c): a large non-associative retirement store
//!   queue (modelled by [`StoreQueue`] with its search left unused), a small
//!   associative forwarding store queue ([`Fsq`]) that only predicted-forwarding stores
//!   enter, and an 8-entry best-effort [`ForwardingBuffer`] in front of each cache
//!   bank.
//!
//! The structures here hold in-flight state and answer searches; the policy — which
//! loads are marked for re-execution, which value a load ends up with, when to flush —
//! lives in the `svw-cpu` pipeline model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod forwarding_buffer;
mod fsq;
mod load_queue;
mod store_queue;

pub use forwarding_buffer::{ForwardMemo, ForwardingBuffer};
pub use fsq::Fsq;
pub use load_queue::{LoadEntry, LoadQueue};
pub use store_queue::{ForwardResult, StoreEntry, StoreQueue};
