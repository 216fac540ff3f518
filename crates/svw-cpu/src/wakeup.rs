//! Event-driven issue bookkeeping: producer→consumer wake lists and the age-ordered
//! ready set.
//!
//! An instruction entering the issue queue counts its source operands whose producers
//! are still in flight and registers on each such producer's [`WakeLists`] chain. When
//! a producer completes, its chain is drained: every consumer's count drops by one,
//! and a consumer whose count reaches zero joins the [`ReadySet`]. The issue stage
//! then selects from the ready set alone, oldest first, so its cost follows the
//! number of ready instructions rather than the size of the issue queue.
//!
//! Both structures keep their heap allocations across `reset`, so a recycled
//! simulation arena stays allocation-free in steady state.

use svw_isa::InstSeq;

/// Slab index meaning "no node".
pub(crate) const NO_NODE: u32 = u32::MAX;

/// One registration of a waiting consumer on a producer's chain.
#[derive(Clone, Copy, Debug)]
struct WakeNode {
    consumer: InstSeq,
    /// Flush epoch in which the consumer was dispatched. A squash bumps the epoch
    /// and re-dispatched instructions reuse their sequence numbers, so a node whose
    /// epoch no longer matches its consumer's is stale and ignored.
    epoch: u32,
    /// Next node of the same chain, or next free node while on the free list.
    next: u32,
}

/// Every producer's consumer chain, in one slab with an intrusive free list.
#[derive(Clone, Debug)]
pub(crate) struct WakeLists {
    slab: Vec<WakeNode>,
    free: u32,
    live: usize,
}

impl WakeLists {
    pub fn new() -> Self {
        WakeLists {
            slab: Vec::new(),
            free: NO_NODE,
            live: 0,
        }
    }

    /// Drops every chain, retaining the slab's capacity.
    pub fn reset(&mut self) {
        self.slab.clear();
        self.free = NO_NODE;
        self.live = 0;
    }

    /// Nodes currently linked into some chain.
    #[cfg(test)]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Pushes `consumer` (dispatched in `epoch`) onto the chain headed by `*head`.
    pub fn register(&mut self, head: &mut u32, consumer: InstSeq, epoch: u32) {
        let node = WakeNode {
            consumer,
            epoch,
            next: *head,
        };
        let slot = if self.free == NO_NODE {
            self.slab.push(node);
            (self.slab.len() - 1) as u32
        } else {
            let slot = self.free;
            self.free = self.slab[slot as usize].next;
            self.slab[slot as usize] = node;
            slot
        };
        self.live += 1;
        *head = slot;
    }

    /// Frees the chain starting at `head`, calling `wake(consumer, epoch)` for each
    /// of its nodes.
    pub fn drain(&mut self, head: u32, mut wake: impl FnMut(InstSeq, u32)) {
        let mut cur = head;
        while cur != NO_NODE {
            let node = self.slab[cur as usize];
            wake(node.consumer, node.epoch);
            self.slab[cur as usize].next = self.free;
            self.free = cur;
            self.live -= 1;
            cur = node.next;
        }
    }
}

/// The set of issue-queue entries whose operands are all available, as a bitset
/// indexed by `seq & mask`. The ROB holds a dense sequence range no longer than the
/// bitset, so the index is unique among in-flight entries, and walking the bits
/// circularly from the ROB head's position visits them in age order.
#[derive(Clone, Debug, Default)]
pub(crate) struct ReadySet {
    words: Vec<u64>,
    mask: u64,
    len: usize,
}

/// Position of an age-ordered walk over a [`ReadySet`]. It borrows nothing, so the
/// walker may mutate the pipeline (and remove visited entries) between steps.
pub(crate) struct ReadyCursor {
    front: InstSeq,
    start: usize,
    word: usize,
    steps: usize,
    bits: u64,
}

impl ReadySet {
    pub fn new(rob_size: usize) -> Self {
        let mut set = ReadySet::default();
        set.reset(rob_size);
        set
    }

    /// Empties the set and shapes it for a `rob_size`-entry ROB, retaining capacity.
    pub fn reset(&mut self, rob_size: usize) {
        let bits = rob_size.next_power_of_two();
        self.mask = bits as u64 - 1;
        self.words.clear();
        self.words.resize(bits.div_ceil(64), 0);
        self.len = 0;
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn locate(&self, seq: InstSeq) -> (usize, u64) {
        let pos = (seq & self.mask) as usize;
        (pos / 64, 1u64 << (pos % 64))
    }

    #[cfg(test)]
    pub fn contains(&self, seq: InstSeq) -> bool {
        let (w, bit) = self.locate(seq);
        self.words[w] & bit != 0
    }

    pub fn insert(&mut self, seq: InstSeq) {
        let (w, bit) = self.locate(seq);
        debug_assert!(self.words[w] & bit == 0, "seq {seq} is already ready");
        self.words[w] |= bit;
        self.len += 1;
    }

    /// Removes `seq` if present.
    pub fn remove(&mut self, seq: InstSeq) {
        let (w, bit) = self.locate(seq);
        if self.words[w] & bit != 0 {
            self.words[w] &= !bit;
            self.len -= 1;
        }
    }

    /// Starts an age-ordered walk from the ROB head `front`.
    pub fn cursor(&self, front: InstSeq) -> ReadyCursor {
        let start = (front & self.mask) as usize;
        let word = start / 64;
        ReadyCursor {
            front,
            start,
            word,
            steps: 0,
            bits: self.words[word] & (!0u64 << (start % 64)),
        }
    }

    /// The next-oldest ready entry of the walk, if any. Entries inserted behind the
    /// cursor's word are not revisited; removals are always safe.
    pub fn next(&self, c: &mut ReadyCursor) -> Option<InstSeq> {
        let n = self.words.len();
        loop {
            if c.bits != 0 {
                let pos = c.word * 64 + c.bits.trailing_zeros() as usize;
                c.bits &= c.bits - 1;
                let age = pos.wrapping_sub(c.start) as u64 & self.mask;
                return Some(c.front + age);
            }
            if c.steps == n {
                return None;
            }
            c.steps += 1;
            c.word = (c.word + 1) % n;
            c.bits = self.words[c.word];
            if c.steps == n {
                // Back at the starting word: only the positions below the start.
                c.bits &= (1u64 << (c.start % 64)) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(set: &ReadySet, front: InstSeq) -> Vec<InstSeq> {
        let mut c = set.cursor(front);
        std::iter::from_fn(|| set.next(&mut c)).collect()
    }

    #[test]
    fn walk_is_age_ordered_across_the_wrap_seam() {
        for rob_size in [8usize, 100, 128, 512] {
            let mut set = ReadySet::new(rob_size);
            // A window that straddles the bitset's wrap point.
            let front = 3 * rob_size.next_power_of_two() as u64 - 5;
            let expected: Vec<InstSeq> = (front..front + rob_size as u64)
                .filter(|s| s % 3 != 1)
                .collect();
            for &s in expected.iter().rev() {
                set.insert(s);
            }
            assert_eq!(set.len(), expected.len());
            assert_eq!(walk(&set, front), expected, "rob_size {rob_size}");
            set.remove(expected[0]);
            set.remove(expected[0]);
            assert_eq!(set.len(), expected.len() - 1);
            assert!(!set.contains(expected[0]));
        }
    }

    #[test]
    fn removal_during_a_walk_is_safe() {
        let mut set = ReadySet::new(256);
        for s in 200..300 {
            set.insert(s);
        }
        let mut c = set.cursor(200);
        let mut seen = Vec::new();
        while let Some(s) = set.next(&mut c) {
            seen.push(s);
            if s % 2 == 0 {
                set.remove(s);
            }
        }
        assert_eq!(seen, (200..300).collect::<Vec<_>>());
        assert_eq!(set.len(), 50);
    }

    #[test]
    fn wake_slab_recycles_freed_nodes() {
        let mut lists = WakeLists::new();
        let (mut a, mut b) = (NO_NODE, NO_NODE);
        for s in 0..10 {
            lists.register(&mut a, s, 0);
            lists.register(&mut b, 100 + s, 1);
        }
        assert_eq!(lists.live(), 20);
        let mut woken = Vec::new();
        lists.drain(a, |s, e| woken.push((s, e)));
        assert_eq!(woken.len(), 10);
        assert!(woken.iter().all(|&(s, e)| s < 10 && e == 0));
        let high_water = lists.slab.len();
        let mut c = NO_NODE;
        for s in 0..10 {
            lists.register(&mut c, s, 2);
        }
        assert_eq!(lists.slab.len(), high_water, "freed nodes are reused");
        lists.drain(b, |_, _| {});
        lists.drain(c, |_, _| {});
        assert_eq!(lists.live(), 0);
        lists.reset();
        assert!(lists.slab.capacity() >= high_water);
    }
}
