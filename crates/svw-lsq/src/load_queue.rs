//! An age-ordered queue of in-flight loads with (optional) associative ordering search.

use std::collections::VecDeque;

use svw_isa::{Addr, InstSeq, MemWidth, Value};

/// One in-flight load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadEntry {
    /// Dynamic sequence number.
    pub seq: InstSeq,
    /// Effective address, once the load has executed (eliminated loads keep `None`).
    pub addr: Option<Addr>,
    /// Access width.
    pub width: Option<MemWidth>,
    /// The value the load obtained when it executed (possibly wrong — that is the
    /// point of re-execution).
    pub value: Option<Value>,
}

impl LoadEntry {
    fn overlaps(&self, addr: Addr, width: MemWidth) -> bool {
        match (self.addr, self.width) {
            (Some(a), Some(w)) => {
                let (l0, l1) = (a, a + w.bytes());
                let (s0, s1) = (addr, addr + width.bytes());
                l0 < s1 && s0 < l1
            }
            _ => false,
        }
    }
}

/// An age-ordered load queue.
///
/// The conventional unit uses [`LoadQueue::search_violations`] (the associative port
/// that stores use to find prematurely issued younger loads). The NLQ removes that
/// port; the structure is then only a holding area for executed addresses/values.
///
/// Every allocation gets an *ordinal*: ordinals are dense over the entries in the
/// queue (the oldest entry holds `head_ord`, the next `head_ord + 1`, …), so an
/// entry is found by its ordinal in O(1). A flush frees the youngest ordinals and
/// the next allocations reuse them, exactly as the ROB reuses sequence numbers.
#[derive(Clone, Debug)]
pub struct LoadQueue {
    capacity: usize,
    entries: VecDeque<LoadEntry>,
    /// Ordinal of `entries[0]`.
    head_ord: u64,
    searches: u64,
}

impl LoadQueue {
    /// Creates an empty queue with space for `capacity` loads.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "load queue capacity must be non-zero");
        LoadQueue {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            head_ord: 0,
            searches: 0,
        }
    }

    /// Restores the empty state for `capacity` — observationally identical to
    /// [`LoadQueue::new`] — retaining the entry storage.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn reset(&mut self, capacity: usize) {
        assert!(capacity > 0, "load queue capacity must be non-zero");
        self.capacity = capacity;
        self.entries.clear();
        self.head_ord = 0;
        self.searches = 0;
    }

    /// Maximum number of in-flight loads.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no loads are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if another load can be allocated.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Number of associative (ordering) searches performed.
    pub fn searches(&self) -> u64 {
        self.searches
    }

    /// Allocates a load at the tail (rename order) and returns its ordinal.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or allocation is out of program order.
    pub fn allocate(&mut self, seq: InstSeq) -> u64 {
        assert!(self.has_space(), "load queue overflow");
        if let Some(tail) = self.entries.back() {
            assert!(seq > tail.seq, "loads must be allocated in program order");
        }
        self.entries.push_back(LoadEntry {
            seq,
            addr: None,
            width: None,
            value: None,
        });
        self.head_ord + self.entries.len() as u64 - 1
    }

    /// Records the executed address/value of the load allocated as `ord`.
    ///
    /// # Panics
    ///
    /// Panics if no load with that ordinal is in the queue.
    pub fn resolve(&mut self, ord: u64, addr: Addr, width: MemWidth, value: Value) {
        let e = ord
            .checked_sub(self.head_ord)
            .and_then(|i| self.entries.get_mut(i as usize))
            .expect("resolving a load that is not in the load queue");
        e.addr = Some(addr);
        e.width = Some(width);
        e.value = Some(value);
    }

    /// The ordinal the next allocation will get. A store records it at dispatch:
    /// the loads younger than the store are exactly those with ordinals from it up.
    pub fn next_ord(&self) -> u64 {
        self.head_ord + self.entries.len() as u64
    }

    /// The conventional LQ's associative ordering search: a store that has just
    /// resolved its address looks for *younger* loads — those with ordinals at or
    /// above `younger_from`, the store's [`LoadQueue::next_ord`] at dispatch — that
    /// already executed and read an overlapping address. Returns the oldest such load
    /// (the flush point). If `ignore_silent_value` is `Some(v)`, loads whose obtained
    /// value equals `v` are skipped (the "ignore ordering violations from silent
    /// stores" refinement).
    pub fn search_violations(
        &mut self,
        younger_from: u64,
        addr: Addr,
        width: MemWidth,
        ignore_silent_value: Option<Value>,
    ) -> Option<InstSeq> {
        self.searches += 1;
        let start = (younger_from.saturating_sub(self.head_ord) as usize).min(self.entries.len());
        // Entries are age-ordered, so the first match is the oldest.
        self.entries
            .range(start..)
            .filter(|e| e.overlaps(addr, width))
            .find(|e| match (ignore_silent_value, e.value) {
                (Some(v), Some(got)) => got != v,
                _ => true,
            })
            .map(|e| e.seq)
    }

    /// Removes the oldest load at commit.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty or the oldest load is not `seq`.
    pub fn pop_commit(&mut self, seq: InstSeq) -> LoadEntry {
        let front = self
            .entries
            .pop_front()
            .expect("committing from an empty load queue");
        assert_eq!(front.seq, seq, "loads must commit in program order");
        self.head_ord += 1;
        front
    }

    /// Discards every load younger than `survivor` (or all loads if `None`).
    pub fn flush_after(&mut self, survivor: Option<InstSeq>) {
        match survivor {
            None => self.entries.clear(),
            Some(s) => {
                while matches!(self.entries.back(), Some(e) if e.seq > s) {
                    self.entries.pop_back();
                }
            }
        }
    }

    /// Iterates over in-flight loads from oldest to youngest.
    pub fn iter(&self) -> impl Iterator<Item = &LoadEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lq() -> LoadQueue {
        LoadQueue::new(8)
    }

    #[test]
    fn allocate_resolve_commit() {
        let mut q = lq();
        let ord = q.allocate(2);
        q.resolve(ord, 0x1000, MemWidth::W8, 7);
        let e = q.pop_commit(2);
        assert_eq!((e.addr, e.value), (Some(0x1000), Some(7)));
        assert!(q.is_empty());
    }

    #[test]
    fn ordinals_are_dense_and_reused_after_a_flush() {
        let mut q = lq();
        assert_eq!([q.allocate(2), q.allocate(4), q.allocate(6)], [0, 1, 2]);
        q.pop_commit(2);
        q.flush_after(Some(4));
        assert_eq!(q.next_ord(), 2);
        assert_eq!(q.allocate(5), 2, "the squashed load's ordinal is reused");
        q.resolve(2, 0x40, MemWidth::W4, 9);
        q.pop_commit(4);
        assert_eq!(q.pop_commit(5).value, Some(9));
    }

    #[test]
    fn violation_search_finds_oldest_younger_overlapping_load() {
        let mut q = lq();
        let a = q.allocate(4);
        let b = q.allocate(6);
        let c = q.allocate(8);
        q.resolve(a, 0x2000, MemWidth::W8, 1);
        q.resolve(b, 0x2000, MemWidth::W8, 1);
        q.resolve(c, 0x3000, MemWidth::W8, 1);
        // Store at seq 5 (dispatched after load 4): load 6 violated (load 4 is
        // older, load 8 unrelated).
        assert_eq!(q.search_violations(b, 0x2000, MemWidth::W8, None), Some(6));
        // Store at seq 3 (dispatched before every load): load 4 is the oldest violator.
        assert_eq!(q.search_violations(a, 0x2000, MemWidth::W8, None), Some(4));
        // Unrelated address: no violation.
        assert_eq!(q.search_violations(a, 0x4000, MemWidth::W8, None), None);
    }

    #[test]
    fn silent_store_value_suppresses_violation() {
        let mut q = lq();
        let ord = q.allocate(4);
        q.resolve(ord, 0x2000, MemWidth::W8, 42);
        // The store writes the same value the load already obtained: no flush needed.
        assert_eq!(q.search_violations(0, 0x2000, MemWidth::W8, Some(42)), None);
        // A different value is a real violation.
        assert_eq!(
            q.search_violations(0, 0x2000, MemWidth::W8, Some(43)),
            Some(4)
        );
    }

    #[test]
    fn unexecuted_loads_never_match() {
        let mut q = lq();
        q.allocate(4);
        assert_eq!(q.search_violations(0, 0x2000, MemWidth::W8, None), None);
    }

    #[test]
    fn flush_discards_younger_loads() {
        let mut q = lq();
        q.allocate(2);
        q.allocate(4);
        q.allocate(6);
        q.flush_after(Some(4));
        assert_eq!(q.len(), 2);
        q.flush_after(None);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut q = LoadQueue::new(1);
        q.allocate(1);
        q.allocate(2);
    }

    #[test]
    fn reset_matches_new() {
        let mut q = lq();
        let ord = q.allocate(2);
        q.resolve(ord, 0x1000, MemWidth::W8, 7);
        let _ = q.search_violations(0, 0x1000, MemWidth::W8, None);
        q.pop_commit(2);
        q.reset(8);
        assert_eq!(format!("{q:?}"), format!("{:?}", lq()));
    }
}
