//! The forwarding store queue (FSQ) of the speculative-SQ design.
//!
//! "A small, low-bandwidth forwarding SQ (FSQ) implements forwarding. The FSQ requires
//! fewer associative ports than a conventional SQ because only loads that read values
//! from older stores access it. It requires fewer entries because only stores that
//! forward values to loads are allocated entries in it."
//!
//! Stores predicted as forwarders by the steering predictor allocate entries here (if
//! space is available — allocation is best-effort and speculative); loads predicted as
//! forwardees search it. Re-execution checks that the steering was right.

use svw_core::Ssn;
use svw_isa::{Addr, InstSeq, MemWidth, Pc};

use crate::{ForwardResult, StoreQueue};

/// The forwarding store queue: a small associative store queue with best-effort
/// allocation. Entries are addressed by allocation ordinal, as in [`StoreQueue`].
#[derive(Clone, Debug)]
pub struct Fsq {
    queue: StoreQueue,
    rejected_allocations: u64,
}

impl Fsq {
    /// The paper's FSQ size: 16 entries, single associative port.
    pub const PAPER_ENTRIES: usize = 16;

    /// Creates an empty FSQ with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Fsq {
            queue: StoreQueue::new(capacity),
            rejected_allocations: 0,
        }
    }

    /// Restores the empty state for `capacity` — observationally identical to
    /// [`Fsq::new`] — retaining the entry storage.
    pub fn reset(&mut self, capacity: usize) {
        self.queue.reset(capacity);
        self.rejected_allocations = 0;
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` if the FSQ holds no stores.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of steered stores that could not be allocated because the FSQ was full
    /// (these will show up as missed forwarding instances caught by re-execution).
    pub fn rejected_allocations(&self) -> u64 {
        self.rejected_allocations
    }

    /// Number of associative searches performed (the single FSQ port's traffic).
    pub fn searches(&self) -> u64 {
        self.queue.searches()
    }

    /// Attempts to allocate an entry for a steered store. Returns its ordinal on
    /// success; on failure (FSQ full) the store simply does not enter and any loads
    /// that needed it will mis-forward and be caught by re-execution.
    pub fn try_allocate(&mut self, seq: InstSeq, pc: Pc, ssn: Ssn) -> Option<u64> {
        if self.queue.has_space() {
            Some(self.queue.allocate(seq, pc, ssn))
        } else {
            self.rejected_allocations += 1;
            None
        }
    }

    /// The ordinal the next allocation will get; a load records it at dispatch to
    /// bound its search to older stores.
    pub fn next_ord(&self) -> u64 {
        self.queue.next_ord()
    }

    /// Records the address/data of the store allocated as `ord`.
    pub fn resolve(&mut self, ord: u64, addr: Addr, width: MemWidth, value: u64) {
        self.queue.resolve(ord, addr, width, value);
    }

    /// Searches the FSQ on behalf of a steered load whose [`Fsq::next_ord`] at
    /// dispatch was `bound`.
    pub fn search(&mut self, bound: u64, addr: Addr, width: MemWidth) -> ForwardResult {
        self.queue.search_forward(bound, addr, width)
    }

    /// Removes the store with sequence number `seq` when it commits (no-op if it was
    /// never allocated).
    pub fn release(&mut self, seq: InstSeq) {
        if self.queue.front().map(|e| e.seq) == Some(seq) {
            let _ = self.queue.pop_commit(seq);
        }
    }

    /// Discards stores younger than `survivor` after a flush.
    pub fn flush_after(&mut self, survivor: Option<InstSeq>) {
        let _ = self.queue.flush_after(survivor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_best_effort() {
        let mut fsq = Fsq::new(2);
        assert_eq!(fsq.try_allocate(1, 0x100, Ssn::new(1)), Some(0));
        assert_eq!(fsq.try_allocate(3, 0x108, Ssn::new(2)), Some(1));
        assert_eq!(fsq.try_allocate(5, 0x110, Ssn::new(3)), None);
        assert_eq!(fsq.rejected_allocations(), 1);
        assert_eq!(fsq.len(), 2);
    }

    #[test]
    fn forwarding_through_fsq() {
        let mut fsq = Fsq::new(Fsq::PAPER_ENTRIES);
        let ord = fsq.try_allocate(1, 0x100, Ssn::new(1)).unwrap();
        fsq.resolve(ord, 0x9000, MemWidth::W8, 0x77);
        match fsq.search(fsq.next_ord(), 0x9000, MemWidth::W8) {
            ForwardResult::Forward { value, seq, .. } => {
                assert_eq!(value, 0x77);
                assert_eq!(seq, 1);
            }
            other => panic!("expected forwarding, got {other:?}"),
        }
        assert_eq!(fsq.searches(), 1);
    }

    #[test]
    fn resolve_and_release_of_rejected_store_are_noops() {
        let mut fsq = Fsq::new(1);
        fsq.try_allocate(1, 0x100, Ssn::new(1));
        // A rejected store gets no ordinal, so there is nothing to resolve.
        assert_eq!(fsq.try_allocate(3, 0x108, Ssn::new(2)), None);
        fsq.release(3); // rejected: ignored
        assert_eq!(fsq.len(), 1);
        fsq.release(1);
        assert!(fsq.is_empty());
    }

    #[test]
    fn flush_discards_young_entries() {
        let mut fsq = Fsq::new(4);
        fsq.try_allocate(1, 0, Ssn::new(1));
        fsq.try_allocate(3, 0, Ssn::new(2));
        fsq.flush_after(Some(1));
        assert_eq!(fsq.len(), 1);
        fsq.flush_after(None);
        assert!(fsq.is_empty());
    }
}
