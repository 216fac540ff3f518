//! Property tests for the load/store queues' O(1) bookkeeping.
//!
//! The queues address entries by allocation ordinal and bound their searches by the
//! ordinal a load (or store) recorded at dispatch; the forwarding buffer keeps each
//! bank as a fixed ring with a content version. These properties drive random
//! pipelines of allocations, resolutions, searches, commits and flushes through both
//! and compare every answer with reference models that keep the sequence-number
//! searches and `VecDeque` buffers the structures used to have.

use std::collections::VecDeque;

use proptest::prelude::*;

use svw_core::Ssn;
use svw_isa::{Addr, InstSeq, MemWidth, Value};
use svw_lsq::{ForwardMemo, ForwardResult, ForwardingBuffer, LoadQueue, StoreQueue};

fn width(wide: bool) -> MemWidth {
    if wide {
        MemWidth::W8
    } else {
        MemWidth::W4
    }
}

/// Aligns `addr` to `width`.
fn aligned(addr: Addr, wide: bool) -> Addr {
    addr & !(width(wide).bytes() - 1)
}

fn overlaps(a: Addr, aw: MemWidth, b: Addr, bw: MemWidth) -> bool {
    a < b + bw.bytes() && b < a + aw.bytes()
}

fn covers(outer: Addr, ow: MemWidth, inner: Addr, iw: MemWidth) -> bool {
    outer <= inner && inner + iw.bytes() <= outer + ow.bytes()
}

fn extract(stored: Value, store_addr: Addr, addr: Addr, w: MemWidth) -> Value {
    (stored >> ((addr - store_addr) * 8)) & w.mask()
}

// ------------------------------------------------------------------ LQ and SQ

#[derive(Clone, Debug)]
enum QueueOp {
    DispatchStore,
    DispatchLoad,
    ResolveStore {
        pick: usize,
        addr: Addr,
        wide: bool,
        value: Value,
    },
    ResolveLoad {
        pick: usize,
        addr: Addr,
        wide: bool,
        value: Value,
    },
    /// A load's forwarding search and its "older unresolved store?" query.
    Forward {
        pick: usize,
        addr: Addr,
        wide: bool,
    },
    /// A store's ordering-violation search of the LQ.
    Violations {
        pick: usize,
        addr: Addr,
        wide: bool,
        value: Value,
    },
    Commit,
    /// Squash everything younger than the `pick`-th in-flight instruction (or
    /// everything, when `pick` lands one past the youngest).
    Flush {
        pick: usize,
    },
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    // A 64-byte address space and two-bit values, so overlaps, partial overlaps and
    // silent stores are common.
    let addr = || 0u64..64;
    prop_oneof![
        4 => Just(QueueOp::DispatchStore),
        4 => Just(QueueOp::DispatchLoad),
        4 => (0usize..8, addr(), any_bool(), 0u64..4).prop_map(|(pick, addr, wide, value)| {
            QueueOp::ResolveStore { pick, addr: aligned(addr, wide), wide, value }
        }),
        3 => (0usize..8, addr(), any_bool(), 0u64..4).prop_map(|(pick, addr, wide, value)| {
            QueueOp::ResolveLoad { pick, addr: aligned(addr, wide), wide, value }
        }),
        4 => (0usize..8, addr(), any_bool()).prop_map(|(pick, addr, wide)| {
            QueueOp::Forward { pick, addr: aligned(addr, wide), wide }
        }),
        3 => (0usize..8, addr(), any_bool(), 0u64..4).prop_map(|(pick, addr, wide, value)| {
            QueueOp::Violations { pick, addr: aligned(addr, wide), wide, value }
        }),
        3 => Just(QueueOp::Commit),
        1 => (0usize..16).prop_map(|pick| QueueOp::Flush { pick }),
    ]
}

fn any_bool() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

/// An in-flight instruction and the ordinals the pipeline keeps for it.
#[derive(Clone, Copy, Debug)]
enum Inst {
    /// `younger_loads`: the LQ's next ordinal at dispatch.
    Store {
        seq: InstSeq,
        ord: u64,
        younger_loads: u64,
    },
    /// `older_stores`: the SQ's next ordinal at dispatch.
    Load {
        seq: InstSeq,
        ord: u64,
        older_stores: u64,
    },
}

impl Inst {
    fn seq(&self) -> InstSeq {
        match *self {
            Inst::Store { seq, .. } | Inst::Load { seq, .. } => seq,
        }
    }
}

/// The reference: entries kept in age order and found by sequence number.
#[derive(Clone, Copy, Debug, PartialEq)]
struct RefEntry {
    seq: InstSeq,
    ssn: Ssn,
    addr: Option<Addr>,
    width: Option<MemWidth>,
    value: Option<Value>,
}

impl RefEntry {
    fn new(seq: InstSeq, ssn: Ssn) -> Self {
        RefEntry {
            seq,
            ssn,
            addr: None,
            width: None,
            value: None,
        }
    }

    fn resolve(&mut self, addr: Addr, w: MemWidth, value: Value) {
        (self.addr, self.width, self.value) = (Some(addr), Some(w), Some(value));
    }

    fn span(&self) -> Option<(Addr, MemWidth)> {
        self.addr.zip(self.width)
    }
}

fn by_seq(entries: &mut [RefEntry], seq: InstSeq) -> &mut RefEntry {
    let i = entries.partition_point(|e| e.seq < seq);
    assert_eq!(entries[i].seq, seq, "reference entry exists");
    &mut entries[i]
}

/// The youngest store older than `load_seq` overlapping the load decides.
fn ref_forward(stores: &[RefEntry], load_seq: InstSeq, addr: Addr, w: MemWidth) -> ForwardResult {
    let older = stores.partition_point(|e| e.seq < load_seq);
    for e in stores[..older].iter().rev() {
        let Some((sa, sw)) = e.span() else { continue };
        if overlaps(sa, sw, addr, w) {
            return match e.value {
                Some(v) if covers(sa, sw, addr, w) => ForwardResult::Forward {
                    seq: e.seq,
                    ssn: e.ssn,
                    pc: e.seq * 4,
                    value: extract(v, sa, addr, w),
                },
                _ => ForwardResult::Conflict { seq: e.seq },
            };
        }
    }
    ForwardResult::None
}

/// The oldest executed load younger than `store_seq` that read an overlapping
/// address and a value other than the (silent) store's.
fn ref_violation(
    loads: &[RefEntry],
    store_seq: InstSeq,
    addr: Addr,
    w: MemWidth,
    value: Value,
) -> Option<InstSeq> {
    let younger = loads.partition_point(|e| e.seq <= store_seq);
    loads[younger..]
        .iter()
        .filter(|e| e.span().is_some_and(|(la, lw)| overlaps(la, lw, addr, w)))
        .filter(|e| e.value != Some(value))
        .map(|e| e.seq)
        .min()
}

fn run_queues(ops: &[QueueOp]) -> Result<(), TestCaseError> {
    let (mut sq, mut lq) = (StoreQueue::new(6), LoadQueue::new(6));
    let (mut ref_stores, mut ref_loads) = (Vec::<RefEntry>::new(), Vec::<RefEntry>::new());
    let mut insts: VecDeque<Inst> = VecDeque::new();
    let (mut next_seq, mut next_ssn) = (0u64, 1u64);
    let stores = |insts: &VecDeque<Inst>| -> Vec<Inst> {
        insts
            .iter()
            .filter(|i| matches!(i, Inst::Store { .. }))
            .copied()
            .collect()
    };
    let loads = |insts: &VecDeque<Inst>| -> Vec<Inst> {
        insts
            .iter()
            .filter(|i| matches!(i, Inst::Load { .. }))
            .copied()
            .collect()
    };
    for op in ops {
        match *op {
            QueueOp::DispatchStore if sq.has_space() => {
                let ssn = Ssn::new(next_ssn);
                let ord = sq.allocate(next_seq, next_seq * 4, ssn);
                prop_assert_eq!(ord + 1, sq.next_ord());
                insts.push_back(Inst::Store {
                    seq: next_seq,
                    ord,
                    younger_loads: lq.next_ord(),
                });
                ref_stores.push(RefEntry::new(next_seq, ssn));
                (next_seq, next_ssn) = (next_seq + 1, next_ssn + 1);
            }
            QueueOp::DispatchLoad if lq.has_space() => {
                let ord = lq.allocate(next_seq);
                insts.push_back(Inst::Load {
                    seq: next_seq,
                    ord,
                    older_stores: sq.next_ord(),
                });
                ref_loads.push(RefEntry::new(next_seq, Ssn::default()));
                next_seq += 1;
            }
            QueueOp::ResolveStore {
                pick,
                addr,
                wide,
                value,
            } => {
                let in_flight = stores(&insts);
                if let Some(&Inst::Store { seq, ord, .. }) =
                    in_flight.get(pick % in_flight.len().max(1))
                {
                    sq.resolve(ord, addr, width(wide), value);
                    by_seq(&mut ref_stores, seq).resolve(addr, width(wide), value);
                }
            }
            QueueOp::ResolveLoad {
                pick,
                addr,
                wide,
                value,
            } => {
                let in_flight = loads(&insts);
                if let Some(&Inst::Load { seq, ord, .. }) =
                    in_flight.get(pick % in_flight.len().max(1))
                {
                    lq.resolve(ord, addr, width(wide), value);
                    by_seq(&mut ref_loads, seq).resolve(addr, width(wide), value);
                }
            }
            QueueOp::Forward { pick, addr, wide } => {
                let in_flight = loads(&insts);
                if let Some(&Inst::Load {
                    seq, older_stores, ..
                }) = in_flight.get(pick % in_flight.len().max(1))
                {
                    prop_assert_eq!(
                        sq.search_forward(older_stores, addr, width(wide)),
                        ref_forward(&ref_stores, seq, addr, width(wide))
                    );
                    prop_assert_eq!(
                        sq.has_unresolved_before(older_stores),
                        ref_stores.iter().any(|e| e.seq < seq && e.addr.is_none())
                    );
                }
            }
            QueueOp::Violations {
                pick,
                addr,
                wide,
                value,
            } => {
                let in_flight = stores(&insts);
                if let Some(&Inst::Store {
                    seq, younger_loads, ..
                }) = in_flight.get(pick % in_flight.len().max(1))
                {
                    prop_assert_eq!(
                        lq.search_violations(younger_loads, addr, width(wide), Some(value)),
                        ref_violation(&ref_loads, seq, addr, width(wide), value)
                    );
                }
            }
            QueueOp::Commit => match insts.pop_front() {
                Some(Inst::Store { seq, .. }) => {
                    let e = sq.pop_commit(seq);
                    let r = ref_stores.remove(0);
                    prop_assert_eq!(
                        (e.seq, e.ssn, e.addr, e.value),
                        (r.seq, r.ssn, r.addr, r.value)
                    );
                }
                Some(Inst::Load { seq, .. }) => {
                    let e = lq.pop_commit(seq);
                    let r = ref_loads.remove(0);
                    prop_assert_eq!((e.seq, e.addr, e.value), (r.seq, r.addr, r.value));
                }
                None => {}
            },
            QueueOp::Flush { pick } => {
                let survivor = insts.get(pick % (insts.len() + 1)).map(Inst::seq);
                if let Some(oldest_squashed) = insts
                    .iter()
                    .map(Inst::seq)
                    .find(|&s| survivor.is_none_or(|v| s > v))
                {
                    // Fetch restarts at the oldest squashed instruction: sequence
                    // numbers (and so queue ordinals) are reused.
                    next_seq = oldest_squashed;
                }
                insts.retain(|i| survivor.is_some_and(|v| i.seq() <= v));
                ref_stores.retain(|e| survivor.is_some_and(|v| e.seq <= v));
                ref_loads.retain(|e| survivor.is_some_and(|v| e.seq <= v));
                prop_assert_eq!(sq.flush_after(survivor), ref_stores.last().map(|e| e.ssn));
                lq.flush_after(survivor);
            }
            _ => {}
        }
        prop_assert_eq!(sq.len(), ref_stores.len());
        prop_assert_eq!(lq.len(), ref_loads.len());
    }
    Ok(())
}

// ------------------------------------------------------------ forwarding buffer

const ENTRIES_PER_BANK: usize = 3;
const INTERLEAVE: u64 = 64;
/// One address per bank, to read the banks' versions.
const BANK_ADDRS: [Addr; 2] = [0, INTERLEAVE];

#[derive(Clone, Debug)]
enum BufferOp {
    Record {
        seq: InstSeq,
        addr: Addr,
        wide: bool,
    },
    Lookup {
        seq: InstSeq,
        addr: Addr,
        wide: bool,
    },
    /// A lookup by the `load`-th of the case's loads, through the memo it keeps
    /// across the case (a plain `Lookup` starts from a fresh memo).
    Memo {
        load: usize,
    },
    Flush {
        survivor: Option<InstSeq>,
    },
}

fn buffer_op() -> impl Strategy<Value = BufferOp> {
    let addr = || 0u64..2 * INTERLEAVE;
    prop_oneof![
        4 => (0u64..24, addr(), any_bool()).prop_map(|(seq, addr, wide)| {
            BufferOp::Record { seq, addr: aligned(addr, wide), wide }
        }),
        2 => (0u64..24, addr(), any_bool()).prop_map(|(seq, addr, wide)| {
            BufferOp::Lookup { seq, addr: aligned(addr, wide), wide }
        }),
        4 => (0usize..4).prop_map(|load| BufferOp::Memo { load }),
        1 => (0u64..25).prop_map(|s| BufferOp::Flush { survivor: s.checked_sub(1) }),
    ]
}

/// The loads whose memos persist across a case, as `(seq, addr, wide)`.
fn memo_loads() -> impl Strategy<Value = Vec<(InstSeq, Addr, bool)>> {
    proptest::collection::vec(
        (0u64..24, 0u64..2 * INTERLEAVE, any_bool())
            .prop_map(|(seq, addr, wide)| (seq, aligned(addr, wide), wide)),
        4..5,
    )
}

/// A buffered store: `(seq, ssn, addr, width, value)`.
type RefStore = (InstSeq, Ssn, Addr, MemWidth, Value);

/// The reference buffer: one `VecDeque` per bank, oldest first.
fn ref_lookup(
    banks: &[VecDeque<RefStore>],
    seq: InstSeq,
    addr: Addr,
    w: MemWidth,
) -> Option<(Ssn, Value)> {
    let bank = ((addr / INTERLEAVE) as usize) & (banks.len() - 1);
    banks[bank]
        .iter()
        .rev()
        .find(|s| s.0 < seq && covers(s.2, s.3, addr, w))
        .map(|s| (s.1, extract(s.4, s.2, addr, w)))
}

fn run_buffer(loads: &[(InstSeq, Addr, bool)], ops: &[BufferOp]) -> Result<(), TestCaseError> {
    let mut fb = ForwardingBuffer::new(2, ENTRIES_PER_BANK, INTERLEAVE);
    let mut banks: Vec<VecDeque<RefStore>> = vec![VecDeque::new(); 2];
    let mut memos = vec![ForwardMemo::default(); loads.len()];
    let (mut lookups, mut hits) = (0u64, 0u64);
    // Every recorded store carries a fresh value, so recording always changes the
    // bank's contents.
    let mut next_value = 1u64;
    for op in ops {
        let before = banks.clone();
        let versions = BANK_ADDRS.map(|a| fb.version(a));
        match *op {
            BufferOp::Record { seq, addr, wide } => {
                let ssn = Ssn::new(seq + 1);
                fb.record_store(seq, ssn, addr, width(wide), next_value);
                let bank = &mut banks[(addr / INTERLEAVE) as usize & 1];
                if bank.len() == ENTRIES_PER_BANK {
                    bank.pop_front();
                }
                bank.push_back((seq, ssn, addr, width(wide), next_value));
                next_value += 1;
            }
            BufferOp::Lookup { seq, addr, wide } => {
                let expected = ref_lookup(&banks, seq, addr, width(wide));
                let got = fb.lookup(seq, addr, width(wide), &mut ForwardMemo::default());
                prop_assert_eq!(got, expected);
                lookups += 1;
                hits += u64::from(expected.is_some());
            }
            BufferOp::Memo { load } => {
                let (seq, addr, wide) = loads[load];
                let expected = ref_lookup(&banks, seq, addr, width(wide));
                prop_assert_eq!(
                    fb.lookup(seq, addr, width(wide), &mut memos[load]),
                    expected
                );
                lookups += 1;
                hits += u64::from(expected.is_some());
            }
            BufferOp::Flush { survivor } => {
                fb.flush_after(survivor);
                for bank in &mut banks {
                    bank.retain(|s| survivor.is_some_and(|v| s.0 <= v));
                }
            }
        }
        for (b, &addr) in BANK_ADDRS.iter().enumerate() {
            prop_assert!(
                (fb.version(addr) != versions[b]) == (banks[b] != before[b]),
                "bank {} version vs contents after {:?}",
                b,
                op
            );
        }
        prop_assert_eq!((fb.lookups(), fb.hits()), (lookups, hits));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Ordinal-addressed resolves and ordinal-bounded searches answer exactly as
    /// sequence-number binary searches over the same pipeline history.
    #[test]
    fn ordinal_queues_match_the_seq_search_reference(ops in proptest::collection::vec(queue_op(), 1..160)) {
        run_queues(&ops)?;
    }

    /// The ring buffer forwards exactly like per-bank `VecDeque`s, memoised lookups
    /// included, and a bank's version changes exactly when its contents do.
    #[test]
    fn ring_forwarding_buffer_matches_the_deque_reference(
        loads in memo_loads(),
        ops in proptest::collection::vec(buffer_op(), 1..120),
    ) {
        run_buffer(&loads, &ops)?;
    }
}
