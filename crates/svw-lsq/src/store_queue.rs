//! An age-ordered queue of in-flight stores with (optional) associative forwarding
//! search.

use std::collections::VecDeque;

use svw_core::Ssn;
use svw_isa::{Addr, InstSeq, MemWidth, Pc, Value};

/// One in-flight store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreEntry {
    /// Dynamic sequence number.
    pub seq: InstSeq,
    /// Store sequence number assigned at rename.
    pub ssn: Ssn,
    /// Static PC.
    pub pc: Pc,
    /// Effective address, once the address has been computed.
    pub addr: Option<Addr>,
    /// Access width, once the address has been computed.
    pub width: Option<MemWidth>,
    /// Store data, once available.
    pub value: Option<Value>,
}

impl StoreEntry {
    /// Returns `true` once both address and data are known.
    pub fn resolved(&self) -> bool {
        self.addr.is_some() && self.value.is_some()
    }

    fn overlaps(&self, addr: Addr, width: MemWidth) -> bool {
        match (self.addr, self.width) {
            (Some(a), Some(w)) => {
                let (s0, s1) = (a, a + w.bytes());
                let (l0, l1) = (addr, addr + width.bytes());
                s0 < l1 && l0 < s1
            }
            _ => false,
        }
    }

    fn contains(&self, addr: Addr, width: MemWidth) -> bool {
        match (self.addr, self.width) {
            (Some(a), Some(w)) => a <= addr && addr + width.bytes() <= a + w.bytes(),
            _ => false,
        }
    }
}

/// The outcome of a forwarding search on behalf of a load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForwardResult {
    /// No older store overlaps the load's address (among stores whose addresses are
    /// known).
    None,
    /// The youngest older overlapping store fully covers the load and its data is
    /// available: the load forwards this value.
    Forward {
        /// Sequence number of the forwarding store.
        seq: InstSeq,
        /// SSN of the forwarding store (used to shrink the load's vulnerability
        /// window under the `+UPD` policy).
        ssn: Ssn,
        /// PC of the forwarding store.
        pc: Pc,
        /// The forwarded value (adjusted to the load's width).
        value: Value,
    },
    /// The youngest older overlapping store either only partially covers the load or
    /// has not produced its data yet; the load cannot obtain a correct value from the
    /// queue this cycle.
    Conflict {
        /// Sequence number of the conflicting store.
        seq: InstSeq,
    },
}

/// Number of buckets in the address-granule occupancy index (power of two).
const GRANULE_BUCKETS: usize = 256;

/// Log2 of the granule size: 8-byte granules, the widest single access, so any
/// store or load span covers at most two granules.
const GRANULE_SHIFT: u64 = 3;

/// An age-ordered store queue.
///
/// Used directly as the conventional/NLQ store queue (associative search enabled) and
/// as the SSQ's retirement store queue (RSQ — the search methods are simply never
/// called by that configuration).
///
/// Every allocation gets an *ordinal*, dense over the entries in the queue (the
/// oldest holds `head_ord`), so [`StoreQueue::resolve`] finds its entry in O(1). A
/// load records [`StoreQueue::next_ord`] at dispatch: the stores older than it are
/// exactly those with smaller ordinals, which bounds the forwarding search without
/// comparing sequence numbers. A flush frees the youngest ordinals and the next
/// allocations reuse them.
///
/// The associative forwarding search is accelerated by an *address-granule index*:
/// a small bucket-count table over 8-byte address granules, maintained as stores
/// resolve and leave the queue. Most loads have no older overlapping store, and for
/// them the index proves "no resolved store touches any granule of this load" in a
/// couple of array reads, skipping the age-ordered scan entirely. The index is
/// purely conservative — bucket aliasing only ever *forces* a scan, never skips a
/// real match — so results are bit-for-bit identical with and without it.
#[derive(Clone, Debug)]
pub struct StoreQueue {
    capacity: usize,
    entries: VecDeque<StoreEntry>,
    /// Ordinal of `entries[0]`.
    head_ord: u64,
    /// In-flight stores whose address is still unknown. Maintained so the hot
    /// "may this load issue speculatively?" query short-circuits without scanning.
    unresolved: usize,
    /// Lower bound on the ordinal of the oldest unresolved store: every entry with
    /// a smaller ordinal is known to be resolved. The floor only advances, so
    /// [`StoreQueue::has_unresolved_before`] scans each queue position at most once
    /// between allocations (amortised O(1)) instead of re-walking the resolved
    /// prefix on every load issue. A `Cell` because the query is logically `&self`;
    /// the hint never changes observable results.
    unresolved_floor: std::cell::Cell<u64>,
    /// Per-granule-bucket count of resolved stores covering that granule.
    granules: [u16; GRANULE_BUCKETS],
    searches: u64,
    forwards: u64,
}

/// The inclusive granule span of `[addr, addr + width.bytes())`.
#[inline]
fn granule_span(addr: Addr, width: MemWidth) -> (u64, u64) {
    (
        addr >> GRANULE_SHIFT,
        (addr + width.bytes() - 1) >> GRANULE_SHIFT,
    )
}

#[inline]
fn bucket(granule: u64) -> usize {
    (granule as usize) & (GRANULE_BUCKETS - 1)
}

impl StoreQueue {
    /// Creates an empty queue with space for `capacity` stores.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "store queue capacity must be non-zero");
        StoreQueue {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            head_ord: 0,
            unresolved: 0,
            unresolved_floor: std::cell::Cell::new(0),
            granules: [0; GRANULE_BUCKETS],
            searches: 0,
            forwards: 0,
        }
    }

    /// Adds a resolved store's span to the granule index.
    #[inline]
    fn index_add(&mut self, addr: Addr, width: MemWidth) {
        let (g0, g1) = granule_span(addr, width);
        for g in g0..=g1 {
            self.granules[bucket(g)] += 1;
        }
    }

    /// Removes a resolved store's span from the granule index.
    #[inline]
    fn index_remove(&mut self, addr: Addr, width: MemWidth) {
        let (g0, g1) = granule_span(addr, width);
        for g in g0..=g1 {
            self.granules[bucket(g)] -= 1;
        }
    }

    /// Whether any resolved store *may* touch a granule of `[addr, addr+width)`.
    /// `false` proves no store overlaps (overlapping byte ranges share a granule);
    /// `true` may be a bucket alias and only means "scan to find out".
    #[inline]
    fn index_may_overlap(&self, addr: Addr, width: MemWidth) -> bool {
        let (g0, g1) = granule_span(addr, width);
        (g0..=g1).any(|g| self.granules[bucket(g)] != 0)
    }

    /// Number of entries with ordinals below `bound` (clamped to the queue).
    #[inline]
    fn count_below(&self, bound: u64) -> usize {
        (bound.saturating_sub(self.head_ord) as usize).min(self.entries.len())
    }

    /// Restores the empty state for `capacity` — observationally identical to
    /// [`StoreQueue::new`] — retaining the entry storage.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn reset(&mut self, capacity: usize) {
        assert!(capacity > 0, "store queue capacity must be non-zero");
        self.capacity = capacity;
        self.entries.clear();
        self.head_ord = 0;
        self.unresolved = 0;
        self.unresolved_floor.set(0);
        self.granules = [0; GRANULE_BUCKETS];
        self.searches = 0;
        self.forwards = 0;
    }

    /// Maximum number of in-flight stores.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no stores are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if another store can be allocated.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Number of associative searches performed (statistics).
    pub fn searches(&self) -> u64 {
        self.searches
    }

    /// Number of searches that resulted in forwarding (statistics).
    pub fn forwards(&self) -> u64 {
        self.forwards
    }

    /// The ordinal the next allocation will get (see the type documentation).
    pub fn next_ord(&self) -> u64 {
        self.head_ord + self.entries.len() as u64
    }

    /// Allocates a store at the tail (rename order) and returns its ordinal.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or if `seq` is not younger than the current tail.
    pub fn allocate(&mut self, seq: InstSeq, pc: Pc, ssn: Ssn) -> u64 {
        assert!(self.has_space(), "store queue overflow");
        if let Some(tail) = self.entries.back() {
            assert!(seq > tail.seq, "stores must be allocated in program order");
        }
        self.entries.push_back(StoreEntry {
            seq,
            ssn,
            pc,
            addr: None,
            width: None,
            value: None,
        });
        self.unresolved += 1;
        // Ordinals are reused after a pipeline flush, so a fresh store can land
        // below the floor; pull the floor back to keep its invariant (no unresolved
        // store below the floor).
        let ord = self.next_ord() - 1;
        if ord < self.unresolved_floor.get() {
            self.unresolved_floor.set(ord);
        }
        ord
    }

    /// Records the address and data of the store allocated as `ord` (store
    /// execution).
    ///
    /// # Panics
    ///
    /// Panics if no store with that ordinal is in the queue.
    pub fn resolve(&mut self, ord: u64, addr: Addr, width: MemWidth, value: Value) {
        let e = ord
            .checked_sub(self.head_ord)
            .and_then(|i| self.entries.get_mut(i as usize))
            .expect("resolving a store that is not in the store queue");
        let previous = e.addr.zip(e.width);
        if e.addr.is_none() {
            self.unresolved -= 1;
        }
        e.addr = Some(addr);
        e.width = Some(width);
        e.value = Some(value);
        // A re-resolved store (e.g. a replayed execution) swaps its span in the
        // granule index; a first resolution just adds it.
        if let Some((old_addr, old_width)) = previous {
            self.index_remove(old_addr, old_width);
        }
        self.index_add(addr, width);
    }

    /// Returns `true` if any store with an ordinal below `bound` (a load's
    /// [`StoreQueue::next_ord`] at dispatch: the stores older than the load) has an
    /// unresolved address — the condition under which a load issuing now is
    /// speculative (and, under NLQ_LS, is marked for re-execution).
    pub fn has_unresolved_before(&self, bound: u64) -> bool {
        if self.unresolved == 0 {
            return false;
        }
        let floor = self.unresolved_floor.get();
        if floor >= bound {
            return false;
        }
        // Entries below the floor are known resolved: scan only [floor, bound).
        let (start, end) = (self.count_below(floor), self.count_below(bound));
        if let Some(i) = (start..end).find(|&i| self.entries[i].addr.is_none()) {
            // The oldest unresolved store: remember it so the next query skips
            // straight to it.
            self.unresolved_floor.set(self.head_ord + i as u64);
            return true;
        }
        // No unresolved store below `bound` — every unresolved store (there is at
        // least one) is at `bound` or above, so the floor may advance to `bound`.
        self.unresolved_floor.set(bound);
        false
    }

    /// Associatively searches for the youngest store with an ordinal below `bound`
    /// (a load's [`StoreQueue::next_ord`] at dispatch) that overlaps
    /// `[addr, addr+width)`.
    pub fn search_forward(&mut self, bound: u64, addr: Addr, width: MemWidth) -> ForwardResult {
        self.searches += 1;
        // The common case is no overlapping store at all: the granule index proves
        // it without touching the entries. (Unresolved stores are not in the index,
        // but they cannot overlap either — `overlaps` is false without an address.)
        if !self.index_may_overlap(addr, width) {
            return ForwardResult::None;
        }
        // Only stores older than the load can forward.
        for e in self.entries.range(..self.count_below(bound)).rev() {
            if e.overlaps(addr, width) {
                return match e.value {
                    Some(stored) if e.contains(addr, width) => {
                        self.forwards += 1;
                        let store_addr = e.addr.expect("overlapping store has an address");
                        let shift = (addr - store_addr) * 8;
                        ForwardResult::Forward {
                            seq: e.seq,
                            ssn: e.ssn,
                            pc: e.pc,
                            value: (stored >> shift) & width.mask(),
                        }
                    }
                    _ => ForwardResult::Conflict { seq: e.seq },
                };
            }
        }
        ForwardResult::None
    }

    /// The oldest in-flight store, if any.
    pub fn front(&self) -> Option<&StoreEntry> {
        self.entries.front()
    }

    /// Removes and returns the oldest store (commit order).
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty or the oldest store is not `seq`.
    pub fn pop_commit(&mut self, seq: InstSeq) -> StoreEntry {
        let front = self
            .entries
            .pop_front()
            .expect("committing from an empty store queue");
        assert_eq!(front.seq, seq, "stores must commit in program order");
        self.head_ord += 1;
        match (front.addr, front.width) {
            (Some(addr), Some(width)) => self.index_remove(addr, width),
            _ => self.unresolved -= 1,
        }
        front
    }

    /// Discards every store younger than `survivor` (or all stores if `None`) after a
    /// pipeline flush. Returns the SSN of the youngest surviving store, if any.
    pub fn flush_after(&mut self, survivor: Option<InstSeq>) -> Option<Ssn> {
        match survivor {
            None => {
                self.entries.clear();
                self.unresolved = 0;
                self.granules = [0; GRANULE_BUCKETS];
            }
            Some(s) => {
                while matches!(self.entries.back(), Some(e) if e.seq > s) {
                    let e = self.entries.pop_back().expect("checked non-empty");
                    match (e.addr, e.width) {
                        (Some(addr), Some(width)) => self.index_remove(addr, width),
                        _ => self.unresolved -= 1,
                    }
                }
            }
        }
        self.entries.back().map(|e| e.ssn)
    }

    /// Iterates over the in-flight stores from oldest to youngest.
    pub fn iter(&self) -> impl Iterator<Item = &StoreEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sq() -> StoreQueue {
        StoreQueue::new(4)
    }

    #[test]
    fn allocate_resolve_commit_in_order() {
        let mut q = sq();
        assert_eq!(q.allocate(1, 0x100, Ssn::new(1)), 0);
        assert_eq!(q.allocate(3, 0x108, Ssn::new(2)), 1);
        assert_eq!(q.len(), 2);
        q.resolve(0, 0x1000, MemWidth::W8, 42);
        let e = q.pop_commit(1);
        assert_eq!(e.value, Some(42));
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn out_of_order_allocation_panics() {
        let mut q = sq();
        q.allocate(5, 0, Ssn::new(1));
        q.allocate(3, 0, Ssn::new(2));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut q = StoreQueue::new(1);
        q.allocate(1, 0, Ssn::new(1));
        q.allocate(2, 0, Ssn::new(2));
    }

    #[test]
    fn forwarding_picks_youngest_older_matching_store() {
        let mut q = sq();
        q.allocate(1, 0x100, Ssn::new(1));
        q.allocate(3, 0x108, Ssn::new(2));
        q.allocate(5, 0x110, Ssn::new(3));
        q.resolve(0, 0x2000, MemWidth::W8, 0xAAAA);
        q.resolve(1, 0x2000, MemWidth::W8, 0xBBBB);
        q.resolve(2, 0x2000, MemWidth::W8, 0xCCCC);
        // A load at seq 4 (two older stores: bound 2) sees store 3 (youngest older),
        // not store 5 (younger).
        match q.search_forward(2, 0x2000, MemWidth::W8) {
            ForwardResult::Forward { seq, value, .. } => {
                assert_eq!(seq, 3);
                assert_eq!(value, 0xBBBB);
            }
            other => panic!("expected forwarding, got {other:?}"),
        }
    }

    #[test]
    fn forwarding_extracts_subword() {
        let mut q = sq();
        q.allocate(1, 0x100, Ssn::new(1));
        q.resolve(0, 0x3000, MemWidth::W8, 0x1122_3344_5566_7788);
        match q.search_forward(1, 0x3004, MemWidth::W4) {
            ForwardResult::Forward { value, .. } => assert_eq!(value, 0x1122_3344),
            other => panic!("expected forwarding, got {other:?}"),
        }
    }

    #[test]
    fn partial_overlap_is_a_conflict() {
        let mut q = sq();
        q.allocate(1, 0x100, Ssn::new(1));
        q.resolve(0, 0x4004, MemWidth::W4, 0xFF);
        // An 8-byte load at 0x4000 is only partially covered.
        assert_eq!(
            q.search_forward(1, 0x4000, MemWidth::W8),
            ForwardResult::Conflict { seq: 1 }
        );
    }

    #[test]
    fn unresolved_store_data_is_a_conflict() {
        let mut q = sq();
        q.allocate(1, 0x100, Ssn::new(1));
        // Address known but treat missing value as conflict: resolve() sets both, so
        // model an unresolved store as entirely unresolved — it simply doesn't match.
        assert_eq!(
            q.search_forward(1, 0x5000, MemWidth::W8),
            ForwardResult::None
        );
        assert!(q.has_unresolved_before(1));
        q.resolve(0, 0x5000, MemWidth::W8, 9);
        assert!(!q.has_unresolved_before(1));
    }

    #[test]
    fn younger_stores_never_forward() {
        let mut q = sq();
        // The load dispatched before the store: its bound (0) excludes it.
        q.allocate(5, 0x100, Ssn::new(1));
        q.resolve(0, 0x6000, MemWidth::W8, 1);
        assert_eq!(
            q.search_forward(0, 0x6000, MemWidth::W8),
            ForwardResult::None
        );
    }

    #[test]
    fn flush_discards_younger_stores_and_reports_survivor_ssn() {
        let mut q = sq();
        q.allocate(1, 0, Ssn::new(1));
        q.allocate(3, 0, Ssn::new(2));
        q.allocate(5, 0, Ssn::new(3));
        let ssn = q.flush_after(Some(3));
        assert_eq!(ssn, Some(Ssn::new(2)));
        assert_eq!(q.len(), 2);
        let none = q.flush_after(None);
        assert_eq!(none, None);
        assert!(q.is_empty());
    }

    #[test]
    fn reset_matches_new_and_unresolved_tracking_survives_flush() {
        let mut q = sq();
        q.allocate(1, 0, Ssn::new(1));
        q.allocate(3, 0, Ssn::new(2));
        q.allocate(5, 0, Ssn::new(3));
        assert!(q.has_unresolved_before(3));
        q.resolve(1, 0x1000, MemWidth::W8, 1);
        // Flush discards seq 5 (unresolved); seq 1 remains unresolved.
        q.flush_after(Some(3));
        assert!(q.has_unresolved_before(1));
        q.resolve(0, 0x2000, MemWidth::W8, 2);
        assert!(!q.has_unresolved_before(3));
        q.reset(4);
        assert_eq!(format!("{q:?}"), format!("{:?}", sq()));
    }

    /// The granule index must stay exact through the full entry lifecycle —
    /// resolve, commit, flush — and bucket aliasing (addresses 2048 bytes apart
    /// share a bucket) must never skip a real match.
    #[test]
    fn granule_index_tracks_lifecycle_and_tolerates_aliasing() {
        let mut q = StoreQueue::new(8);
        // Aliased addresses: 0x1000 and 0x1000 + 256*8 land in the same bucket.
        q.allocate(1, 0, Ssn::new(1));
        q.resolve(0, 0x1000 + 2048, MemWidth::W8, 7);
        // A load at the aliased (but distinct) address: the index says "maybe",
        // the scan says no — and the result must still be None.
        assert_eq!(
            q.search_forward(1, 0x1000, MemWidth::W8),
            ForwardResult::None
        );
        // The real match at the aliased address still forwards.
        q.allocate(3, 0, Ssn::new(2));
        q.resolve(1, 0x1000, MemWidth::W8, 9);
        match q.search_forward(2, 0x1000, MemWidth::W8) {
            ForwardResult::Forward { seq, value, .. } => {
                assert_eq!((seq, value), (3, 9));
            }
            other => panic!("expected forwarding, got {other:?}"),
        }
        // Committing and flushing removes spans: after both, the index is empty
        // again and searches early-out to None.
        q.pop_commit(1);
        q.flush_after(None);
        assert_eq!(
            q.search_forward(q.next_ord(), 0x1000, MemWidth::W8),
            ForwardResult::None
        );
        assert_eq!(format!("{:?}", q.granules), format!("{:?}", [0u16; 256]));
    }

    /// A load wider than the store still finds it when they share only one granule
    /// (partial overlap → conflict), exercising the multi-granule span logic.
    #[test]
    fn granule_index_covers_multi_granule_spans() {
        let mut q = StoreQueue::new(4);
        q.allocate(1, 0, Ssn::new(1));
        // A 4-byte store near the end of one granule...
        q.resolve(0, 0x2004, MemWidth::W4, 0xFF);
        // ...partially overlapped by an 8-byte load starting in the same granule.
        assert_eq!(
            q.search_forward(1, 0x2000, MemWidth::W8),
            ForwardResult::Conflict { seq: 1 }
        );
        // An 8-byte load in the *next* granule does not overlap the store.
        assert_eq!(
            q.search_forward(1, 0x2008, MemWidth::W8),
            ForwardResult::None
        );
    }

    /// The unresolved-floor hint must never change observable results — in
    /// particular across a flush that frees ordinals which are then reallocated
    /// below a previously advanced floor.
    #[test]
    fn unresolved_floor_survives_flush_and_seq_reuse() {
        let mut q = StoreQueue::new(8);
        q.allocate(1, 0, Ssn::new(1));
        q.allocate(5, 0, Ssn::new(2));
        q.allocate(7, 0, Ssn::new(3));
        q.resolve(0, 0x1000, MemWidth::W8, 0);
        q.resolve(1, 0x1008, MemWidth::W8, 0);
        // Advances the floor to ordinal 2: the only unresolved store (7) is there.
        assert!(!q.has_unresolved_before(2));
        assert!(q.has_unresolved_before(3));
        // Flush discards stores 5 and 7; ordinal 1 is reused below the floor.
        q.flush_after(Some(1));
        assert_eq!(q.allocate(2, 0, Ssn::new(2)), 1);
        // Store 2 is unresolved and below bound 2 — the stale floor must not hide it.
        assert!(q.has_unresolved_before(2));
        q.resolve(1, 0x2000, MemWidth::W8, 0);
        assert!(!q.has_unresolved_before(2));
    }

    #[test]
    fn search_statistics() {
        let mut q = sq();
        q.allocate(1, 0, Ssn::new(1));
        q.resolve(0, 0x7000, MemWidth::W8, 5);
        let _ = q.search_forward(1, 0x7000, MemWidth::W8);
        let _ = q.search_forward(1, 0x8000, MemWidth::W8);
        assert_eq!(q.searches(), 2);
        assert_eq!(q.forwards(), 1);
    }
}
