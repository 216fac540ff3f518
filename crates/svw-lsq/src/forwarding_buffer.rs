//! The best-effort forwarding buffer that fronts each data-cache bank in the
//! speculative-SQ design.
//!
//! "A small, 8-entry unordered forwarding buffer that fronts each cache bank handles
//! simple forwarding cases (i.e., unambiguous ones which execute in order anyway).
//! Loads that execute incorrectly in this structure are subsequently steered to the
//! FSQ."
//!
//! The buffer holds the most recent stores (by execution order) to addresses mapping
//! to its bank. It is *best effort*: it may return a stale value (the real youngest
//! older store may not have executed yet, or may have been displaced), and it never
//! guarantees age ordering — mistakes are caught by load re-execution, which then
//! trains the FSQ steering predictor.

use svw_core::Ssn;
use svw_isa::{Addr, InstSeq, MemWidth, Value};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct BufferedStore {
    seq: InstSeq,
    ssn: Ssn,
    addr: Addr,
    width: MemWidth,
    value: Value,
}

impl BufferedStore {
    /// Filler for slots no store has been written to.
    fn vacant() -> Self {
        BufferedStore {
            seq: 0,
            ssn: Ssn::default(),
            addr: 0,
            width: MemWidth::W8,
            value: 0,
        }
    }
}

/// One bank's ring of buffered stores, oldest (by execution order) first.
#[derive(Clone, Copy, Debug, Default)]
struct Bank {
    /// Ring slot of the oldest buffered store.
    head: usize,
    len: usize,
    /// Bumped whenever the bank's contents change (see [`ForwardMemo`]).
    version: u64,
}

/// One load's memoised forwarding-buffer outcome. A lookup depends only on the load
/// (its sequence number, address and width) and on its bank's contents, so while
/// the bank's version is unchanged the outcome can be reused instead of searched
/// again — a load turned away by a busy cache bank retries every cycle. Each load
/// keeps its own memo, starting from [`ForwardMemo::default`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForwardMemo {
    version: u64,
    found: Option<(Ssn, Value)>,
}

impl Default for ForwardMemo {
    /// A memo that matches no bank version, so the first lookup searches.
    fn default() -> Self {
        ForwardMemo {
            version: u64::MAX,
            found: None,
        }
    }
}

/// A set of per-bank, fixed-capacity, unordered forwarding buffers, each a ring over
/// one flat slot array.
#[derive(Clone, Debug)]
pub struct ForwardingBuffer {
    banks: Vec<Bank>,
    entries_per_bank: usize,
    interleave_bytes: u64,
    /// Bank `b` owns `slots[b * entries_per_bank..(b + 1) * entries_per_bank]`.
    slots: Vec<BufferedStore>,
    hits: u64,
    lookups: u64,
}

impl ForwardingBuffer {
    /// The paper's geometry: 8 entries in front of each of the 2 cache banks.
    pub fn paper_default() -> Self {
        Self::new(2, 8, 64)
    }

    /// Creates `banks` buffers of `entries_per_bank` entries each, with banks selected
    /// by address interleaving at `interleave_bytes` granularity.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two or either size is zero.
    pub fn new(banks: usize, entries_per_bank: usize, interleave_bytes: u64) -> Self {
        let mut fb = ForwardingBuffer {
            banks: Vec::new(),
            entries_per_bank,
            interleave_bytes,
            slots: Vec::new(),
            hits: 0,
            lookups: 0,
        };
        fb.reset(banks, entries_per_bank, interleave_bytes);
        fb
    }

    /// Restores the empty state for the given geometry — observationally identical to
    /// [`ForwardingBuffer::new`] — retaining the slot storage.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two or either size is zero.
    pub fn reset(&mut self, banks: usize, entries_per_bank: usize, interleave_bytes: u64) {
        assert!(banks.is_power_of_two(), "bank count must be a power of two");
        assert!(entries_per_bank > 0, "buffer must have at least one entry");
        assert!(
            interleave_bytes > 0,
            "interleave granularity must be non-zero"
        );
        self.banks.clear();
        self.banks.resize(banks, Bank::default());
        self.slots.clear();
        self.slots
            .resize(banks * entries_per_bank, BufferedStore::vacant());
        self.entries_per_bank = entries_per_bank;
        self.interleave_bytes = interleave_bytes;
        self.hits = 0;
        self.lookups = 0;
    }

    #[inline]
    fn bank_of(&self, addr: Addr) -> usize {
        ((addr / self.interleave_bytes) as usize) & (self.banks.len() - 1)
    }

    /// Index into `slots` of bank `bank`'s `i`-th oldest entry.
    #[inline]
    fn slot(&self, bank: usize, i: usize) -> usize {
        let mut pos = self.banks[bank].head + i;
        if pos >= self.entries_per_bank {
            pos -= self.entries_per_bank;
        }
        bank * self.entries_per_bank + pos
    }

    /// The content version of the bank `addr` maps to: it changes exactly when that
    /// bank's buffered stores change.
    pub fn version(&self, addr: Addr) -> u64 {
        self.banks[self.bank_of(addr)].version
    }

    /// Records an executed store (displacing the oldest buffered store of its bank if
    /// the buffer is full). `ssn` is the store's sequence number; loads that take a
    /// value from this entry are vulnerable to every younger store, so the SSN travels
    /// with the value for window bounding.
    pub fn record_store(
        &mut self,
        seq: InstSeq,
        ssn: Ssn,
        addr: Addr,
        width: MemWidth,
        value: Value,
    ) {
        let b = self.bank_of(addr);
        let slot = if self.banks[b].len == self.entries_per_bank {
            let oldest = self.slot(b, 0);
            self.banks[b].head = oldest + 1 - b * self.entries_per_bank;
            if self.banks[b].head == self.entries_per_bank {
                self.banks[b].head = 0;
            }
            oldest
        } else {
            self.banks[b].len += 1;
            self.slot(b, self.banks[b].len - 1)
        };
        self.slots[slot] = BufferedStore {
            seq,
            ssn,
            addr,
            width,
            value,
        };
        self.banks[b].version += 1;
    }

    /// The most recently buffered store older than `load_seq` that fully covers
    /// `[addr, addr + width)`, if any.
    fn find(&self, load_seq: InstSeq, addr: Addr, width: MemWidth) -> Option<&BufferedStore> {
        let b = self.bank_of(addr);
        (0..self.banks[b].len)
            .rev()
            .map(|i| &self.slots[self.slot(b, i)])
            .find(|s| {
                s.seq < load_seq
                    && s.addr <= addr
                    && addr + width.bytes() <= s.addr + s.width.bytes()
            })
    }

    /// The part of `s`'s value that a load of `width` at `addr` reads.
    fn extract(s: &BufferedStore, addr: Addr, width: MemWidth) -> Value {
        (s.value >> ((addr - s.addr) * 8)) & width.mask()
    }

    /// Best-effort lookup on behalf of a load: returns the SSN and value of the most
    /// recently *buffered* older store that fully covers the load, if any. This may
    /// not be the architecturally correct forwarding source — the entry may even
    /// belong to an already-retired store whose value younger retired stores have
    /// overwritten — so consumers must bound the load's vulnerability window by the
    /// returned SSN.
    ///
    /// `memo` is the load's own, kept across its attempts: while the bank is
    /// unchanged since the memo was taken, its outcome is reused instead of searched
    /// again. Every call counts as a lookup (and a hit) either way.
    pub fn lookup(
        &mut self,
        load_seq: InstSeq,
        addr: Addr,
        width: MemWidth,
        memo: &mut ForwardMemo,
    ) -> Option<(Ssn, Value)> {
        let fresh = |fb: &Self| {
            fb.find(load_seq, addr, width)
                .map(|s| (s.ssn, Self::extract(s, addr, width)))
        };
        let version = self.version(addr);
        if memo.version == version {
            debug_assert_eq!(
                memo.found,
                fresh(self),
                "a reused forwarding outcome must equal a fresh lookup"
            );
        } else {
            *memo = ForwardMemo {
                version,
                found: fresh(self),
            };
        }
        self.lookups += 1;
        if memo.found.is_some() {
            self.hits += 1;
        }
        memo.found
    }

    /// Discards buffered stores younger than `survivor` after a flush, keeping the
    /// survivors' order.
    pub fn flush_after(&mut self, survivor: Option<InstSeq>) {
        for b in 0..self.banks.len() {
            let len = self.banks[b].len;
            let mut kept = 0;
            for i in 0..len {
                let e = self.slots[self.slot(b, i)];
                if survivor.is_some_and(|s| e.seq <= s) {
                    let to = self.slot(b, kept);
                    self.slots[to] = e;
                    kept += 1;
                }
            }
            if kept != len {
                self.banks[b].len = kept;
                self.banks[b].version += 1;
            }
        }
    }

    /// Number of lookups that found a covering entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-off lookup, with a memo of its own.
    fn lookup(
        fb: &mut ForwardingBuffer,
        seq: InstSeq,
        addr: Addr,
        width: MemWidth,
    ) -> Option<(Ssn, Value)> {
        fb.lookup(seq, addr, width, &mut ForwardMemo::default())
    }

    #[test]
    fn simple_in_order_forwarding_works() {
        let mut fb = ForwardingBuffer::paper_default();
        fb.record_store(1, Ssn::new(1), 0x1000, MemWidth::W8, 0xAB);
        assert_eq!(
            lookup(&mut fb, 2, 0x1000, MemWidth::W8),
            Some((Ssn::new(1), 0xAB))
        );
        assert_eq!(fb.hits(), 1);
    }

    #[test]
    fn younger_stores_are_not_forwarded() {
        let mut fb = ForwardingBuffer::paper_default();
        fb.record_store(5, Ssn::new(1), 0x1000, MemWidth::W8, 0xAB);
        assert_eq!(lookup(&mut fb, 2, 0x1000, MemWidth::W8), None);
    }

    #[test]
    fn capacity_displacement_loses_old_stores() {
        let mut fb = ForwardingBuffer::new(1, 2, 64);
        fb.record_store(1, Ssn::new(1), 0x1000, MemWidth::W8, 1);
        fb.record_store(2, Ssn::new(2), 0x2000, MemWidth::W8, 2);
        fb.record_store(3, Ssn::new(3), 0x3000, MemWidth::W8, 3);
        // Store 1 was displaced: the load no longer sees it (best-effort behaviour).
        assert_eq!(lookup(&mut fb, 9, 0x1000, MemWidth::W8), None);
        assert!(lookup(&mut fb, 9, 0x3000, MemWidth::W8).is_some());
    }

    #[test]
    fn best_effort_can_return_stale_value() {
        // A younger store to the same address executed *before* an older one (out of
        // order): the buffer returns the most recently buffered covering store, which
        // is not necessarily the architecturally correct source.
        let mut fb = ForwardingBuffer::paper_default();
        fb.record_store(10, Ssn::new(10), 0x1000, MemWidth::W8, 0xAAAA);
        fb.record_store(4, Ssn::new(4), 0x1000, MemWidth::W8, 0xBBBB);
        // Load at seq 12: correct source is store 10, but the buffer returns store 4's
        // value because it was buffered more recently. The returned SSN lets the
        // consumer mark the load vulnerable to store 10.
        let (ssn, value) = lookup(&mut fb, 12, 0x1000, MemWidth::W8).unwrap();
        assert_eq!(ssn, Ssn::new(4));
        assert_eq!(value, 0xBBBB);
    }

    #[test]
    fn subword_extraction() {
        let mut fb = ForwardingBuffer::paper_default();
        fb.record_store(1, Ssn::new(1), 0x2000, MemWidth::W8, 0x1111_2222_3333_4444);
        assert_eq!(
            lookup(&mut fb, 2, 0x2004, MemWidth::W4),
            Some((Ssn::new(1), 0x1111_2222))
        );
    }

    #[test]
    fn flush_discards_young_entries() {
        let mut fb = ForwardingBuffer::paper_default();
        fb.record_store(1, Ssn::new(1), 0x1000, MemWidth::W8, 1);
        fb.record_store(5, Ssn::new(2), 0x1040, MemWidth::W8, 2);
        fb.flush_after(Some(3));
        assert!(lookup(&mut fb, 9, 0x1000, MemWidth::W8).is_some());
        assert_eq!(lookup(&mut fb, 9, 0x1040, MemWidth::W8), None);
        fb.flush_after(None);
        assert_eq!(lookup(&mut fb, 9, 0x1000, MemWidth::W8), None);
    }
}
