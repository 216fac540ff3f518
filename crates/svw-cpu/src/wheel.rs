//! A timing wheel for the pipeline's completion events.
//!
//! Every event is scheduled at most a bounded number of cycles ahead — the longest
//! latency the configuration can produce — so a ring of per-cycle slots, one more
//! than that horizon and rounded up to a power of two, holds each pending event at
//! slot `cycle & mask` without two pending cycles sharing a slot. An occupancy bitmap
//! finds the next non-empty slot in O(slots / 64) words, which is what the idle-cycle
//! skip asks for. Events in the same cycle come out in push order; the pipeline's
//! handling of one cycle's events does not depend on their order.
//!
//! Slot vectors keep their capacity across [`TimingWheel::reset`], so a recycled
//! simulation arena schedules without allocating in steady state.

use svw_isa::InstSeq;

#[derive(Clone, Debug, Default)]
pub(crate) struct TimingWheel {
    slots: Vec<Vec<InstSeq>>,
    /// Bit `i` is set when `slots[i]` is non-empty.
    occupied: Vec<u64>,
    mask: u64,
    /// The first cycle whose slot has not been drained yet: no event may be pushed
    /// for an earlier cycle, or it would wait a full turn of the wheel.
    undrained: u64,
}

impl TimingWheel {
    pub fn new(horizon: u64) -> Self {
        let mut wheel = TimingWheel::default();
        wheel.reset(horizon);
        wheel
    }

    /// Empties the wheel and sizes it for events at most `horizon` cycles ahead,
    /// retaining the slots' capacity.
    pub fn reset(&mut self, horizon: u64) {
        let n = (horizon as usize + 1).next_power_of_two().max(64);
        self.slots.resize_with(n, Vec::new);
        self.slots.iter_mut().for_each(Vec::clear);
        self.occupied.clear();
        self.occupied.resize(n / 64, 0);
        self.mask = n as u64 - 1;
        self.undrained = 0;
    }

    /// Schedules `seq` at `cycle`, which lies between the current cycle `now` and
    /// `now` plus the wheel's horizon.
    #[inline]
    pub fn push(&mut self, now: u64, cycle: u64, seq: InstSeq) {
        debug_assert!(
            cycle >= self.undrained && cycle >= now && cycle - now <= self.mask,
            "event at cycle {cycle} is outside the wheel's window at cycle {now}"
        );
        let slot = (cycle & self.mask) as usize;
        self.slots[slot].push(seq);
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    /// The earliest cycle at or after `now` with a pending event.
    pub fn next_cycle(&self, now: u64) -> Option<u64> {
        let n = self.occupied.len();
        let start = (now & self.mask) as usize;
        let first = self.occupied[start / 64] & (!0u64 << (start % 64));
        let slot = if first != 0 {
            (start / 64) * 64 + first.trailing_zeros() as usize
        } else {
            // The remaining words in ring order, ending with the start word's bits
            // below `start` (a whole word again is harmless: those bits are clear).
            (1..=n).find_map(|k| {
                let w = (start / 64 + k) % n;
                let bits = self.occupied[w];
                (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
            })?
        };
        Some(now + ((slot as u64).wrapping_sub(start as u64) & self.mask))
    }

    /// Takes the events due at `now`, leaving their slot empty. Hand the vector back
    /// with [`TimingWheel::give_back`] to keep its capacity.
    #[inline]
    pub fn take_due(&mut self, now: u64) -> Vec<InstSeq> {
        self.undrained = now + 1;
        let slot = (now & self.mask) as usize;
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        std::mem::take(&mut self.slots[slot])
    }

    /// Returns the vector [`TimingWheel::take_due`] took at `now`, emptied, to its
    /// slot.
    #[inline]
    pub fn give_back(&mut self, now: u64, mut due: Vec<InstSeq>) {
        let slot = (now & self.mask) as usize;
        debug_assert!(
            self.slots[slot].is_empty(),
            "nothing is scheduled while draining"
        );
        due.clear();
        self.slots[slot] = due;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimingWheel, now: u64) -> Vec<InstSeq> {
        let due = w.take_due(now);
        let out = due.clone();
        w.give_back(now, due);
        out
    }

    #[test]
    fn events_come_out_at_their_cycle_across_the_wrap() {
        let mut w = TimingWheel::new(150);
        assert_eq!(w.mask, 255);
        let mut now = 0;
        // Walk far past several turns of the wheel, scheduling ahead by up to the
        // horizon and jumping to the next event like the idle skip does.
        let mut pending: Vec<(u64, InstSeq)> = Vec::new();
        for seq in 0..2_000u64 {
            let at = now + 1 + (seq * 37) % 150;
            w.push(now, at, seq);
            pending.push((at, seq));
            if seq % 3 == 0 {
                let next = w.next_cycle(now + 1).expect("an event is pending");
                let expected = pending.iter().map(|&(c, _)| c).min().unwrap();
                assert_eq!(next, expected);
                for c in now + 1..=next {
                    let mut got = drain(&mut w, c);
                    let mut want: Vec<InstSeq> = pending
                        .iter()
                        .filter(|&&(at, _)| at == c)
                        .map(|&(_, s)| s)
                        .collect();
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "cycle {c}");
                }
                pending.retain(|&(at, _)| at > next);
                now = next;
            }
        }
        assert!(now > 4 * 256, "the wheel turned several times");
    }

    #[test]
    fn next_cycle_finds_events_behind_the_start_word() {
        let mut w = TimingWheel::new(200);
        // `now` sits late in the ring; the only event wraps to slot 3.
        let now = 250;
        w.push(now, 259, 7);
        assert_eq!(w.next_cycle(now), Some(259));
        assert_eq!(w.next_cycle(259), Some(259));
        assert_eq!(drain(&mut w, 259), vec![7]);
        assert_eq!(w.next_cycle(260), None);
    }

    #[test]
    fn reset_empties_and_resizes() {
        let mut w = TimingWheel::new(10);
        w.push(0, 5, 1);
        w.reset(300);
        assert_eq!(w.mask, 511);
        assert_eq!(w.next_cycle(0), None);
        w.reset(10);
        assert_eq!(w.mask, 63);
        assert_eq!(w.next_cycle(0), None);
    }
}
