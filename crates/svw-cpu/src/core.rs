//! The cycle-level pipeline model.
//!
//! All growable machine state (ROB ring, wake slab and ready set, event wheels,
//! queues, predictor and cache tables, SSBF, …) lives in a [`Pipeline`] owned by a
//! [`SimArena`]. A sweep worker keeps one arena and calls [`Cpu::recycle`] per cell:
//! the pipeline is cleared *in place* with every heap allocation retained, so cell
//! startup is a reset rather than a rebuild and the steady-state simulation loop
//! performs no allocation at all.
//!
//! Issue is wakeup-driven (see the `wakeup` module) and [`Cpu::run`] skips cycles in
//! which provably nothing can happen, jumping straight to the next pending event.
//! Both are exact: every cycle count matches stepping the machine cycle by cycle.
//! [`Cpu::new`] remains the one-shot entry point (it boxes a private pipeline).
//!
//! Per-instruction bookkeeping is O(1): a squash undoes renaming from the ROB
//! entries it pops, each memory instruction finds its LQ/SQ entry (and bounds its
//! searches to older entries) by allocation ordinal, a load asks whether its cache
//! bank is free before any forwarding work, and completions wait on a timing wheel.

use std::collections::VecDeque;
use std::sync::Arc;

use svw_core::{SsbfUpdate, Ssn, SvwConfig, SvwFilter, SvwUpdatePolicy, VulnWindow};
use svw_isa::{
    Addr, ArchReg, DynInst, InstSeq, InstStream, MemWidth, OpClass, Pc, Program, Value,
    NUM_ARCH_REGS,
};
use svw_lsq::{ForwardMemo, ForwardResult, ForwardingBuffer, Fsq, LoadQueue, StoreQueue};
use svw_mem::{AccessKind, BankedPorts, CommittedMemory, MemoryHierarchy, SharedPort};
use svw_predictors::{Btb, HybridPredictor, Spct, SteeringPredictor, StoreSets};
use svw_rle::{IntegrationTable, ItEntry, ItSignature, RleKind};

use crate::observe::{CommitObserver, CommitRecord, FwdOrigin};
use crate::rob::{HasSeq, RobRing};
use crate::wakeup::{ReadySet, WakeLists, NO_NODE};
use crate::wheel::TimingWheel;
use crate::{CpuStats, LsqOrganization, MachineConfig, ReexecMode};

/// Re-execution state of a marked load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RexState {
    /// The re-execution pipeline has not reached this instruction yet.
    Idle,
    /// The SVW filter proved re-execution unnecessary.
    Filtered,
    /// A re-execution cache access is outstanding; it finishes at the given cycle.
    InFlight(u64),
    /// Verified: the re-executed value matched.
    Done,
    /// Mis-speculation detected: the re-executed value differed.
    Failed,
}

#[derive(Clone, Debug)]
struct RobEntry {
    seq: InstSeq,
    pc: Pc,
    cls: OpClass,
    /// Source operands: the producing dynamic instruction, if the value comes from an
    /// in-flight (or not-yet-fetched-when-flushed) producer rather than committed
    /// state. Only the ready-set reference check reads it.
    #[cfg(test)]
    src_producers: [Option<InstSeq>; 2],
    /// Source operands whose producers have not completed yet (issue-queue entries
    /// only); the entry joins the ready set when this reaches zero.
    pending_srcs: u8,
    /// Flush epoch at dispatch (see [`WakeLists`]).
    epoch: u32,
    /// Head of this entry's consumer chain in the wake slab.
    consumers: u32,
    /// Destination register, and the rename binding it replaced: a squash restores
    /// it, popping entries youngest first.
    dst: Option<ArchReg>,
    prev_binding: RegBinding,
    /// A load's LQ or a store's SQ allocation ordinal.
    lsq_ord: u64,
    /// The other queue's next ordinal at dispatch. For a load, the SQ entries below
    /// it are the older stores; for a store, the LQ entries from it up are the
    /// younger loads.
    peer_ord: u64,
    /// A store's FSQ ordinal (`None` when the FSQ did not take it); for a load, the
    /// FSQ's next ordinal at dispatch, which bounds its search to older stores.
    fsq_ord: Option<u64>,
    issued: bool,
    completed: bool,
    complete_cycle: u64,
    // Memory state.
    addr: Option<Addr>,
    width: Option<MemWidth>,
    exec_value: Option<Value>,
    oracle_value: Option<Value>,
    marked: bool,
    window: VulnWindow,
    ssn: Option<Ssn>,
    /// Whether this load searches the FSQ rather than the forwarding buffer (SSQ
    /// only; never for an eliminated load). Fixed at dispatch: the steering
    /// predictor only learns when a re-execution failure squashes every in-flight
    /// instruction.
    fsq_steered: bool,
    /// The load's last forwarding-buffer outcome, reused while its bank is unchanged.
    fwd_memo: ForwardMemo,
    fwd: FwdOrigin,
    eliminated: Option<RleKind>,
    elim_squash: bool,
    elim_signature: Option<ItSignature>,
    wait_store: Option<InstSeq>,
    rex: RexState,
    rex_used_cache: bool,
    // Branch state.
    mispredicted: bool,
}

impl HasSeq for RobEntry {
    #[inline]
    fn seq(&self) -> InstSeq {
        self.seq
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct RegBinding {
    producer: Option<InstSeq>,
    version: u64,
}

/// The register rename state: per architectural register, the current producer and a
/// monotonically increasing version number (the "physical register" identity used by
/// register integration). It keeps no history: each ROB entry holds the binding its
/// destination replaced, and a squash restores those youngest first.
#[derive(Clone, Debug)]
struct RenameMap {
    current: Vec<RegBinding>,
    next_version: u64,
}

impl RenameMap {
    fn new() -> Self {
        let mut map = RenameMap {
            current: vec![RegBinding::default(); NUM_ARCH_REGS],
            next_version: 0,
        };
        map.reset();
        map
    }

    /// Restores the initial rename state.
    fn reset(&mut self) {
        for (i, b) in self.current.iter_mut().enumerate() {
            *b = RegBinding {
                producer: None,
                version: i as u64,
            };
        }
        self.next_version = NUM_ARCH_REGS as u64;
    }

    fn producer(&self, r: ArchReg) -> Option<InstSeq> {
        self.current[r.index()].producer
    }

    fn version(&self, r: ArchReg) -> u64 {
        self.current[r.index()].version
    }

    /// Binds `r` to `producer` under a fresh version and returns the binding it
    /// replaced.
    fn bind(&mut self, r: ArchReg, producer: InstSeq) -> RegBinding {
        let fresh = RegBinding {
            producer: Some(producer),
            version: self.next_version,
        };
        self.next_version += 1;
        std::mem::replace(&mut self.current[r.index()], fresh)
    }

    /// Undoes a squashed producer's [`RenameMap::bind`] of `r`.
    fn restore(&mut self, r: ArchReg, prev: RegBinding) {
        self.current[r.index()] = prev;
    }
}

/// Where the instructions being replayed come from: a materialized [`Program`]
/// (random access, zero copies) or an [`InstStream`] (e.g. a `.svwt` trace decoder),
/// buffered over a sliding window that covers exactly the in-flight instructions.
enum Source<'a> {
    /// Random access into a materialized trace.
    Slice(&'a [DynInst]),
    /// Incremental decode with a window buffer. The window's lower edge follows the
    /// commit watermark and its upper edge follows fetch, so memory usage is bounded
    /// by the machine's ROB size, not the trace length.
    Stream {
        stream: Box<dyn InstStream + 'a>,
        len: usize,
        buf: VecDeque<DynInst>,
        /// Sequence number of `buf[0]`.
        base: InstSeq,
        /// Number of instructions pulled from the stream so far (`base + buf.len()`).
        pulled: usize,
    },
}

impl Source<'_> {
    fn len(&self) -> usize {
        match self {
            Source::Slice(insts) => insts.len(),
            Source::Stream { len, .. } => *len,
        }
    }

    /// Random access within the active window.
    ///
    /// # Panics
    ///
    /// Panics if `seq` lies outside the buffered window (a pipeline-model invariant
    /// violation, not a usage error).
    fn get(&self, seq: InstSeq) -> &DynInst {
        match self {
            Source::Slice(insts) => &insts[seq as usize],
            Source::Stream { buf, base, .. } => {
                assert!(
                    seq >= *base && seq < *base + buf.len() as u64,
                    "seq {seq} outside the buffered window [{base}, {})",
                    *base + buf.len() as u64
                );
                &buf[(seq - base) as usize]
            }
        }
    }

    /// The instruction `seq` if it is available without pulling from the stream.
    fn peek(&self, seq: InstSeq) -> Option<&DynInst> {
        match self {
            Source::Slice(insts) => insts.get(seq as usize),
            Source::Stream { buf, base, .. } => buf.get(seq.checked_sub(*base)? as usize),
        }
    }

    /// Pulls from the stream until instructions `..upto` (exclusive, clamped to the
    /// trace length) are buffered.
    fn ensure(&mut self, upto: usize) {
        if let Source::Stream {
            stream,
            len,
            buf,
            pulled,
            ..
        } = self
        {
            let upto = upto.min(*len);
            while *pulled < upto {
                let inst = stream.next_inst().unwrap_or_else(|| {
                    panic!(
                        "instruction stream ended at {} of its declared {}",
                        *pulled, *len
                    )
                });
                assert_eq!(
                    inst.seq, *pulled as u64,
                    "instruction stream must produce dense sequence numbers"
                );
                buf.push_back(inst);
                *pulled += 1;
            }
        }
    }

    /// Drops buffered instructions below `watermark` (they have committed and can
    /// never be referenced again).
    fn release_below(&mut self, watermark: InstSeq) {
        if let Source::Stream { buf, base, .. } = self {
            while *base < watermark && !buf.is_empty() {
                buf.pop_front();
                *base += 1;
            }
        }
    }
}

/// The SVW configuration the machine actually runs with: the configured one, or — for
/// non-SVW re-execution modes — a neutral infinite-SSN stand-in whose clock never
/// wraps and never filters anything away.
fn effective_svw_config(config: &MachineConfig) -> SvwConfig {
    config.reexec.svw_config().unwrap_or(SvwConfig {
        ssn_width: svw_core::SsnWidth::Infinite,
        update_policy: SvwUpdatePolicy::NoForwardUpdate,
        ..SvwConfig::paper_default()
    })
}

/// The furthest ahead any event can be scheduled: a load that misses to memory
/// (plus the slow-SQ surcharge), the longest operation (FP), or an RLE
/// re-execution's memory access plus its 2-cycle register read. The wheels'
/// `debug_assert`s check every event against it.
fn event_horizon(config: &MachineConfig) -> u64 {
    let h = &config.hierarchy;
    let memory = h.l1d.hit_latency + h.l2.hit_latency + h.memory_latency;
    let load = memory + config.lsq.extra_load_latency();
    (config.issue_to_execute + load.max(OpClass::FpAlu.exec_latency())).max(memory + 2)
}

/// Every piece of mutable machine state — substrates, queues, the ROB ring, the
/// event wheels, and the per-run scalars. Owned by a [`SimArena`] (recycled across
/// cells) or privately by a one-shot [`Cpu`].
struct Pipeline {
    // Substrates.
    hierarchy: MemoryHierarchy,
    committed_mem: CommittedMemory,
    branch_pred: HybridPredictor,
    btb: Btb,
    store_sets: StoreSets,
    steering: SteeringPredictor,
    spct: Spct,
    svw: SvwFilter,
    it: Option<IntegrationTable>,

    // Queues and ports.
    lq: LoadQueue,
    sq: StoreQueue,
    fsq: Option<Fsq>,
    fwd_buf: Option<ForwardingBuffer>,
    exec_ports: BankedPorts,
    dcache_rw_port: SharedPort,

    // Pipeline state.
    rob: RobRing<RobEntry>,
    rename: RenameMap,
    iq_count: usize,
    inflight_dsts: usize,
    fetch_index: usize,
    fetch_stall_until: u64,
    fetch_blocked_on_branch: Option<InstSeq>,
    wrap_drain_pending: bool,
    rex_next_seq: InstSeq,
    rex_inflight: usize,
    now: u64,
    stats: CpuStats,

    // Completion events: instead of scanning the whole ROB every cycle for entries
    // whose latency has elapsed, `complete` takes exactly the events due now. Events
    // stranded by a squash are detected (the entry's state no longer matches) and
    // dropped when due.
    exec_events: TimingWheel,
    /// Pending re-execution cache-access completions, same discipline.
    rex_events: TimingWheel,

    // Wakeup-driven issue: completion walks the producer's consumer chain, and
    // issue selects only from the ready set.
    wake: WakeLists,
    ready: ReadySet,
    /// Bumped by every flush; see [`WakeLists`].
    flush_epoch: u32,

    // Reusable scratch for the re-execution stage's batched SSBF calls (one probe
    // batch per run of marked loads, one update batch per run of stores). Contents
    // are only meaningful within a single `reexecute` call; keeping the buffers on
    // the pipeline preserves the allocation-free steady state.
    rex_probes: Vec<(Addr, u64, VulnWindow)>,
    rex_decisions: Vec<bool>,
    rex_stores: Vec<SsbfUpdate>,
}

impl Pipeline {
    /// Builds a pipeline for `config`. The field initializers only establish the
    /// *shape*; `reset` is the single source of truth for the initial state, so the
    /// recycled path can never drift from fresh construction.
    fn new(config: &MachineConfig) -> Self {
        let mut p = Pipeline {
            hierarchy: MemoryHierarchy::new(config.hierarchy),
            committed_mem: CommittedMemory::new(),
            branch_pred: HybridPredictor::new(config.branch),
            btb: Btb::new(config.branch.btb_entries, config.branch.btb_assoc),
            store_sets: StoreSets::new(config.store_sets),
            steering: SteeringPredictor::new(),
            spct: Spct::paper_default(),
            svw: SvwFilter::new(effective_svw_config(config)),
            it: None,
            lq: LoadQueue::new(config.lq_size),
            sq: StoreQueue::new(config.sq_size),
            fsq: None,
            fwd_buf: None,
            exec_ports: BankedPorts::new(2, 64),
            dcache_rw_port: SharedPort::new(),
            rob: RobRing::with_capacity(config.rob_size),
            rename: RenameMap::new(),
            iq_count: 0,
            inflight_dsts: 0,
            fetch_index: 0,
            fetch_stall_until: 0,
            fetch_blocked_on_branch: None,
            wrap_drain_pending: false,
            rex_next_seq: 0,
            rex_inflight: 0,
            now: 0,
            stats: CpuStats::default(),
            exec_events: TimingWheel::new(event_horizon(config)),
            rex_events: TimingWheel::new(event_horizon(config)),
            wake: WakeLists::new(),
            ready: ReadySet::new(config.rob_size),
            flush_epoch: 0,
            rex_probes: Vec::new(),
            rex_decisions: Vec::new(),
            rex_stores: Vec::new(),
        };
        p.reset(config);
        p
    }

    /// Restores the initial state for `config` in place. Observationally identical to
    /// [`Pipeline::new`] — a unit test and the scheduler determinism tests enforce
    /// byte-identical simulation results — but every table, queue, slab, and ring
    /// keeps its heap allocation, so per-cell startup cost is a memset-shaped reset
    /// instead of a rebuild.
    fn reset(&mut self, config: &MachineConfig) {
        self.hierarchy.reset(config.hierarchy);
        self.committed_mem.reset();
        self.branch_pred.reset(config.branch);
        self.btb
            .reset(config.branch.btb_entries, config.branch.btb_assoc);
        self.store_sets.reset(config.store_sets);
        self.steering.reset();
        self.spct.reset();
        self.svw.reset(effective_svw_config(config));
        match (config.rle, &mut self.it) {
            (Some(cfg), Some(it)) => it.reset(cfg),
            (Some(cfg), it @ None) => *it = Some(IntegrationTable::new(cfg)),
            (None, it) => *it = None,
        }
        self.lq.reset(config.lq_size);
        self.sq.reset(config.sq_size);
        match config.lsq {
            LsqOrganization::Ssq {
                fsq_entries,
                fwd_buffer_entries,
                ..
            } => {
                match &mut self.fsq {
                    Some(fsq) => fsq.reset(fsq_entries),
                    fsq @ None => *fsq = Some(Fsq::new(fsq_entries)),
                }
                match &mut self.fwd_buf {
                    Some(buf) => buf.reset(2, fwd_buffer_entries, 64),
                    buf @ None => *buf = Some(ForwardingBuffer::new(2, fwd_buffer_entries, 64)),
                }
            }
            _ => {
                self.fsq = None;
                self.fwd_buf = None;
            }
        }
        self.exec_ports.reset(2, 64);
        self.dcache_rw_port.reset();
        self.rob.reset(config.rob_size);
        self.rename.reset();
        self.iq_count = 0;
        self.inflight_dsts = 0;
        self.fetch_index = 0;
        self.fetch_stall_until = 0;
        self.fetch_blocked_on_branch = None;
        self.wrap_drain_pending = false;
        self.rex_next_seq = 0;
        self.rex_inflight = 0;
        self.now = 0;
        self.stats = CpuStats::default();
        self.exec_events.reset(event_horizon(config));
        self.rex_events.reset(event_horizon(config));
        self.wake.reset();
        self.ready.reset(config.rob_size);
        self.flush_epoch = 0;
        self.rex_probes.clear();
        self.rex_decisions.clear();
        self.rex_stores.clear();
    }

    /// Advances the machine by one cycle.
    fn step(
        &mut self,
        config: &MachineConfig,
        source: &mut Source<'_>,
        obs: &mut Option<&mut dyn CommitObserver>,
    ) {
        self.commit(config, source, obs);
        self.reexecute(config);
        self.complete(config);
        self.issue(config, source);
        self.dispatch(config, source);
        self.now += 1;
    }

    // ------------------------------------------------------- test references

    /// The operand-readiness predicate of the per-cycle select scan that wakeup-driven
    /// issue replaced, kept as the reference the ready set is checked against.
    #[cfg(test)]
    fn source_ready(&self, producer: Option<InstSeq>) -> bool {
        match producer {
            None => true,
            Some(p) => match self.rob.get(p) {
                None => true, // already committed (or squashed, in which case so is the consumer)
                Some(e) => e.completed && e.complete_cycle <= self.now,
            },
        }
    }

    /// Asserts that the ready set is exactly what the old scan would have found
    /// ready: the unissued, non-eliminated ROB entries whose producers satisfy
    /// [`Pipeline::source_ready`]. Also checks each waiting entry's pending-source
    /// count and that the unissued entries are exactly the `iq_count` IQ entries.
    #[cfg(test)]
    fn assert_ready_set_matches_scan(&self) {
        let (mut unissued, mut ready) = (0usize, 0usize);
        for e in self.rob.iter() {
            if e.issued || e.completed || e.eliminated.is_some() {
                assert!(
                    !self.ready.contains(e.seq),
                    "seq {} is ready but not waiting in the IQ",
                    e.seq
                );
                continue;
            }
            unissued += 1;
            let waiting = e
                .src_producers
                .iter()
                .filter(|&&p| !self.source_ready(p))
                .count();
            assert_eq!(
                usize::from(e.pending_srcs),
                waiting,
                "seq {} pending-source count at cycle {}",
                e.seq,
                self.now
            );
            assert_eq!(
                self.ready.contains(e.seq),
                waiting == 0,
                "seq {} ready-set membership at cycle {}",
                e.seq,
                self.now
            );
            ready += usize::from(waiting == 0);
        }
        assert_eq!(unissued, self.iq_count, "unissued ROB entries are the IQ");
        assert_eq!(ready, self.ready.len(), "ready set holds only ROB entries");
    }

    /// Asserts that the rename map binds every register to its youngest in-flight
    /// writer, and a register no in-flight entry writes to a committed producer (or
    /// none) — what the squashed entries' restored bindings must leave behind.
    #[cfg(test)]
    fn assert_rename_matches_rob(&self) {
        let mut youngest: [Option<InstSeq>; NUM_ARCH_REGS] = [None; NUM_ARCH_REGS];
        for e in self.rob.iter() {
            if let Some(r) = e.dst {
                youngest[r.index()] = Some(e.seq);
            }
        }
        let head = self.rob.front().map_or(InstSeq::MAX, |e| e.seq);
        for (i, writer) in youngest.into_iter().enumerate() {
            let bound = self.rename.current[i].producer;
            match writer {
                Some(seq) => assert_eq!(bound, Some(seq), "r{i} is bound to its youngest writer"),
                None => assert!(
                    bound.is_none_or(|p| p < head),
                    "r{i} is bound to {bound:?}, which is neither committed nor in flight"
                ),
            }
        }
    }

    // ------------------------------------------------------------ idle cycles

    /// If the machine provably cannot make progress at `now` nor at any later cycle
    /// before its next pending event, returns that event's cycle and whether each
    /// skipped cycle counts as a commit stall on re-execution. Every stage must be
    /// blocked on state that only an event (a completion, a re-execution access, the
    /// end of a fetch stall) can change; where that cannot be shown, returns `None`
    /// and the caller steps normally.
    fn idle_until(&self, config: &MachineConfig, source: &Source<'_>) -> Option<(u64, bool)> {
        // Issue: nothing ready, and only a completion can make anything ready.
        if !self.ready.is_empty() {
            return None;
        }
        // Complete: nothing due.
        let now = self.now;
        let mut next = [&self.exec_events, &self.rex_events]
            .into_iter()
            .filter_map(|w| w.next_cycle(now))
            .min()
            .unwrap_or(u64::MAX);
        if next <= now {
            return None;
        }
        // Dispatch: stalled until a known cycle, or blocked on state only commit,
        // issue or a completion changes.
        if now < self.fetch_stall_until {
            next = next.min(self.fetch_stall_until);
        } else if self.fetch_blocked_on_branch.is_none() && !self.dispatch_blocked(config, source) {
            return None;
        }
        // Re-execute: stalled on an unexecuted instruction, an empty window, or (atomic
        // SSBF updates) a store behind in-flight re-executions.
        if config.reexec.verifies() {
            if let Some(e) = self.rob.get(self.rex_next_seq) {
                let stalled = match e.cls {
                    OpClass::Load => !e.completed,
                    OpClass::Store => {
                        !e.completed
                            || (config.reexec.is_svw()
                                && !self.svw.speculative_ssbf_updates()
                                && self.rex_inflight > 0)
                    }
                    _ => false,
                };
                if !stalled {
                    return None;
                }
            }
        }
        // Commit: the head has not completed, waits for re-execute to pass it, or is a
        // marked load whose verification has not finished (a counted stall).
        let Some(head) = self.rob.front() else {
            return Some((next, false));
        };
        if !head.completed
            || head.complete_cycle > now
            || (config.reexec.verifies() && head.seq >= self.rex_next_seq)
        {
            return Some((next, false));
        }
        if head.cls == OpClass::Load && head.marked && config.reexec.verifies() {
            // An `InFlight(done)` access has its event at `done`, so `done >= next`.
            match head.rex {
                RexState::Idle => return Some((next, true)),
                RexState::InFlight(done) if done > now => return Some((next, true)),
                _ => {}
            }
        }
        None
    }

    /// Whether dispatch (not stalled on fetch) cannot move: a wrap-around drain waits
    /// for the ROB to empty, the trace is exhausted, or the next instruction lacks a
    /// structural resource.
    fn dispatch_blocked(&self, config: &MachineConfig, source: &Source<'_>) -> bool {
        if self.wrap_drain_pending {
            return !self.rob.is_empty();
        }
        if self.fetch_index >= source.len() {
            return true;
        }
        if self.rob.len() >= config.rob_size || self.iq_count >= config.iq_size {
            return true;
        }
        let Some(inst) = source.peek(self.fetch_index as InstSeq) else {
            return false;
        };
        let cls = inst.class();
        (cls == OpClass::Load && !self.lq.has_space())
            || (cls == OpClass::Store && !self.sq.has_space())
            || (inst.dst().is_some() && self.inflight_dsts >= config.phys_regs)
    }

    // ----------------------------------------------------------------- commit

    fn commit(
        &mut self,
        config: &MachineConfig,
        source: &mut Source<'_>,
        obs: &mut Option<&mut dyn CommitObserver>,
    ) {
        let mut committed = 0usize;
        let mut stores_this_cycle = 0usize;
        while committed < config.commit_width {
            let Some(head) = self.rob.front() else { break };
            if !head.completed || head.complete_cycle > self.now {
                break;
            }
            // When a re-execution engine is present, the re-execution pipeline sits
            // between completion and commit: nothing commits before rex-head has
            // passed it (this is also what guarantees that every store performs its
            // SSBF update before any younger load's filter test).
            if config.reexec.verifies() && head.seq >= self.rex_next_seq {
                break;
            }
            // Copy the scalar fields commit needs; the entry itself stays in place (a
            // full `RobEntry` clone here dominated the commit path).
            let (seq, pc, cls, has_dst) = (head.seq, head.pc, head.cls, head.dst.is_some());
            let (addr, width, exec_value, oracle_value) =
                (head.addr, head.width, head.exec_value, head.oracle_value);
            let (marked, ssn, used_fsq) = (head.marked, head.ssn, head.fsq_steered);
            let (fwd, window) = (head.fwd, head.window);
            let (eliminated, elim_squash, elim_signature) =
                (head.eliminated, head.elim_squash, head.elim_signature);
            let (rex, rex_used_cache) = (head.rex, head.rex_used_cache);

            // Marked loads must be verified (or filtered) before they may commit; this
            // is also what makes younger stores wait for older loads' re-execution.
            if cls == OpClass::Load && marked && config.reexec.verifies() {
                match rex {
                    RexState::Idle => {
                        self.stats.commit_stalled_on_reexec += 1;
                        break;
                    }
                    RexState::InFlight(done) if done > self.now => {
                        self.stats.commit_stalled_on_reexec += 1;
                        break;
                    }
                    RexState::InFlight(_) => {
                        // The access has finished: resolve it now.
                        self.rex_inflight -= 1;
                        let ok = exec_value == oracle_value;
                        let front = self.rob.front_mut().expect("head is in the ROB");
                        front.rex = if ok { RexState::Done } else { RexState::Failed };
                        continue;
                    }
                    RexState::Failed => {
                        self.handle_reexec_failure(
                            config,
                            seq,
                            pc,
                            addr,
                            eliminated,
                            elim_signature,
                        );
                        break;
                    }
                    RexState::Filtered | RexState::Done => {}
                }
            }

            if cls == OpClass::Store {
                if stores_this_cycle >= config.store_commit_ports
                    || !self.dcache_rw_port.try_acquire(self.now)
                {
                    break;
                }
                let addr = addr.expect("completed store has an address");
                let width = width.expect("completed store has a width");
                let value = oracle_value.expect("store has a value");
                self.committed_mem.commit_store(addr, width, value);
                let _ = self.hierarchy.access(AccessKind::DataWrite, addr);
                self.spct.record_store(addr, pc);
                self.svw.store_retired(ssn.expect("store has an SSN"));
                self.sq.pop_commit(seq);
                if let Some(fsq) = &mut self.fsq {
                    fsq.release(seq);
                }
                self.stats.stores_retired += 1;
                stores_this_cycle += 1;
            }

            if cls == OpClass::Load {
                self.lq.pop_commit(seq);
                self.stats.loads_retired += 1;
                if marked {
                    self.stats.loads_marked += 1;
                }
                match rex {
                    RexState::Filtered => self.stats.loads_filtered += 1,
                    RexState::Done if rex_used_cache => {
                        self.stats.loads_reexecuted += 1;
                        if used_fsq {
                            self.stats.reexecuted_fsq_loads += 1;
                        }
                        match eliminated {
                            Some(RleKind::LoadReuse) => self.stats.reexecuted_reuse_loads += 1,
                            Some(RleKind::MemoryBypass) => self.stats.reexecuted_bypass_loads += 1,
                            None => {}
                        }
                    }
                    _ => {}
                }
                if let Some(kind) = eliminated {
                    self.stats.loads_eliminated += 1;
                    match kind {
                        RleKind::LoadReuse => self.stats.eliminations_reuse += 1,
                        RleKind::MemoryBypass => self.stats.eliminations_bypass += 1,
                    }
                    if elim_squash {
                        self.stats.eliminations_squash += 1;
                    }
                }
                // The fundamental soundness check: by the time it retires, every load
                // must hold the architecturally correct value.
                assert_eq!(
                    exec_value, oracle_value,
                    "load seq {seq} (pc {pc:#x}) retired with a wrong value — a \
                     verification mechanism is unsound"
                );
            }

            if let Some(obs) = obs.as_deref_mut() {
                obs.on_commit(&CommitRecord {
                    seq,
                    pc,
                    cls,
                    addr,
                    width,
                    // A load's architectural value is what its consumers saw
                    // (exec_value); a store's is the data it wrote to committed
                    // memory (the trace-resolved oracle_value, as used above).
                    value: if cls == OpClass::Store {
                        oracle_value
                    } else if cls == OpClass::Load {
                        exec_value
                    } else {
                        None
                    },
                    ssn,
                    marked,
                    filtered: rex == RexState::Filtered,
                    reexecuted: rex == RexState::Done && rex_used_cache,
                    fwd,
                    used_fsq,
                    eliminated: eliminated.is_some(),
                    window_boundary: (cls == OpClass::Load).then(|| window.boundary()),
                });
            }

            if has_dst {
                self.inflight_dsts -= 1;
            }
            self.rob.pop_front();
            self.stats.committed += 1;
            committed += 1;
            if self.rex_next_seq <= seq {
                self.rex_next_seq = seq + 1;
            }
        }
        // Committed instructions can never be referenced again: advance the streaming
        // window (no-op when replaying a materialized program). After a flush the
        // fetch index may sit below the ROB tail but never below the head.
        let watermark = self
            .rob
            .front()
            .map_or(self.fetch_index as InstSeq, |e| e.seq);
        source.release_below(watermark);
    }

    fn handle_reexec_failure(
        &mut self,
        config: &MachineConfig,
        seq: InstSeq,
        pc: Pc,
        addr: Option<Addr>,
        eliminated: Option<RleKind>,
        elim_signature: Option<ItSignature>,
    ) {
        self.stats.reexec_flushes += 1;
        self.svw.record_mismatch();
        let addr = addr.expect("failed load has an address");
        // Train the appropriate predictor so the mis-speculation does not recur:
        // the SPCT supplies the identity of the last store to the colliding address,
        // enabling store-load pair (store-sets) training under NLQ/SSQ; for RLE the
        // stale integration-table entry is removed.
        if let Some(store_pc) = self.spct.lookup(addr) {
            self.store_sets.train_violation(pc, store_pc);
        } else {
            self.store_sets.train_violation_blind(pc);
        }
        if config.lsq.is_ssq() {
            self.steering.mark(pc);
            if let Some(store_pc) = self.spct.lookup(addr) {
                self.steering.mark(store_pc);
            }
        }
        if let (Some(it), Some(sig)) = (self.it.as_mut(), elim_signature) {
            if eliminated.is_some() {
                it.invalidate_base_preg(sig.base_preg);
            }
        }
        let penalty = config.frontend_depth + config.reexec_stages;
        self.flush_from(seq, penalty);
    }

    // ------------------------------------------------------------ re-execution

    fn reexecute(&mut self, config: &MachineConfig) {
        if !config.reexec.verifies() {
            return;
        }
        let svw_enabled = config.reexec.is_svw();
        let mut mem_ops_processed = 0usize;
        let mut entries_scanned = 0usize;
        let mut cache_access_started = false;
        // The current batch of precomputed SSBF decisions covers the marked loads at
        // sequence numbers [batch_base, batch_base + batch_len). Probes are pure, so
        // precomputing a run's decisions in one pass cannot change any result; the
        // per-load statistics are committed only when a decision is consumed, so an
        // early break (port conflict) leaves counters identical to the scalar path.
        let mut batch_base: InstSeq = 0;
        let mut batch_len: usize = 0;
        while mem_ops_processed < config.commit_width && entries_scanned < 4 * config.commit_width {
            entries_scanned += 1;
            let Some(e) = self.rob.get(self.rex_next_seq) else {
                break;
            };
            // Copy the scalar fields this stage reads; cloning the whole entry per
            // scanned instruction was a measurable share of the simulation loop.
            let (cls, completed, addr, width, ssn) = (e.cls, e.completed, e.addr, e.width, e.ssn);
            let (marked, elim_squash, eliminated, window) =
                (e.marked, e.elim_squash, e.eliminated, e.window);
            let (exec_value, oracle_value) = (e.exec_value, e.oracle_value);
            match cls {
                OpClass::Store => {
                    if !completed {
                        break; // in-order re-execution stalls at an unexecuted store
                    }
                    if svw_enabled {
                        if !self.svw.speculative_ssbf_updates() && self.rex_inflight > 0 {
                            // Atomic SSBF updates: the store may not update the filter
                            // until every older re-execution has finished.
                            break;
                        }
                        // Gather the run of consecutive completed stores and apply them
                        // to the SSBF in one batched pass. The run is bounded by exactly
                        // the entries the scalar loop would have consumed this cycle, so
                        // every counter and the filter contents stay byte-identical.
                        let max_run = (config.commit_width - mem_ops_processed)
                            .min(4 * config.commit_width - entries_scanned + 1);
                        self.rex_stores.clear();
                        self.rex_stores.push((
                            addr.expect("completed store has an address"),
                            width.expect("completed store has a width").bytes(),
                            ssn.expect("store has an SSN"),
                        ));
                        let mut look = self.rex_next_seq + 1;
                        while self.rex_stores.len() < max_run {
                            let Some(e) = self.rob.get(look) else { break };
                            if e.cls != OpClass::Store || !e.completed {
                                break;
                            }
                            self.rex_stores.push((
                                e.addr.expect("completed store has an address"),
                                e.width.expect("completed store has a width").bytes(),
                                e.ssn.expect("store has an SSN"),
                            ));
                            look += 1;
                        }
                        let run = self.rex_stores.len();
                        self.svw.store_svw_stage_batch(&self.rex_stores);
                        mem_ops_processed += run;
                        entries_scanned += run - 1;
                        self.rex_next_seq += run as InstSeq;
                        continue;
                    }
                    mem_ops_processed += 1;
                    self.rex_next_seq += 1;
                }
                OpClass::Load => {
                    if !completed {
                        break;
                    }
                    if !marked {
                        self.rex_next_seq += 1;
                        continue;
                    }
                    let addr = addr.expect("completed load has an address");
                    let bytes = width.expect("completed load has a width").bytes();
                    let decision = match config.reexec {
                        ReexecMode::Perfect => {
                            // Idealised: instantaneous verification, no port usage.
                            let ok = exec_value == oracle_value;
                            let e = self
                                .rob
                                .get_mut(self.rex_next_seq)
                                .expect("entry is in the ROB");
                            e.rex = if ok { RexState::Done } else { RexState::Failed };
                            e.rex_used_cache = true;
                            mem_ops_processed += 1;
                            self.rex_next_seq += 1;
                            continue;
                        }
                        ReexecMode::Full => true,
                        ReexecMode::Svw(_) => {
                            if elim_squash {
                                // SVW is disabled for squash reuse (§4.3): the SSBF
                                // cannot capture stores on the squashed path.
                                self.svw.stats_mut().marked_loads += 1;
                                self.svw.stats_mut().reexecuted_loads += 1;
                                true
                            } else {
                                let seq = self.rex_next_seq;
                                if seq < batch_base || seq >= batch_base + batch_len as InstSeq {
                                    // Probe the whole run of consecutive probe-able
                                    // marked loads in one pass. Stores cannot interleave
                                    // with the run, so the batched decisions match the
                                    // scalar ones exactly.
                                    self.rex_probes.clear();
                                    self.rex_probes.push((addr, bytes, window));
                                    let mut look = seq + 1;
                                    while self.rex_probes.len() < config.commit_width {
                                        let Some(e) = self.rob.get(look) else { break };
                                        if e.cls != OpClass::Load
                                            || !e.completed
                                            || !e.marked
                                            || e.elim_squash
                                        {
                                            break;
                                        }
                                        self.rex_probes.push((
                                            e.addr.expect("completed load has an address"),
                                            e.width.expect("completed load has a width").bytes(),
                                            e.window,
                                        ));
                                        look += 1;
                                    }
                                    self.svw.peek_marked_loads(
                                        &self.rex_probes,
                                        &mut self.rex_decisions,
                                    );
                                    batch_base = seq;
                                    batch_len = self.rex_decisions.len();
                                }
                                let decision = self.rex_decisions[(seq - batch_base) as usize];
                                self.svw.commit_marked_load(decision);
                                decision
                            }
                        }
                        ReexecMode::None => unreachable!("verifies() checked above"),
                    };
                    if !decision {
                        self.rob
                            .get_mut(self.rex_next_seq)
                            .expect("entry is in the ROB")
                            .rex = RexState::Filtered;
                        mem_ops_processed += 1;
                        self.rex_next_seq += 1;
                        continue;
                    }
                    // The load must access the data cache: it needs the shared
                    // retirement port (store commit had first claim this cycle).
                    if cache_access_started || !self.dcache_rw_port.try_acquire(self.now) {
                        self.stats.reexec_port_conflicts += 1;
                        break;
                    }
                    cache_access_started = true;
                    let mut latency = self.hierarchy.access(AccessKind::DataRead, addr);
                    if eliminated.is_some() {
                        // RLE re-execution reads address and value from the register
                        // file (2-cycle read) through the elongated pipeline.
                        latency += 2;
                    }
                    let done = self.now + latency;
                    let seq = self.rex_next_seq;
                    let e = self.rob.get_mut(seq).expect("entry is in the ROB");
                    e.rex = RexState::InFlight(done);
                    e.rex_used_cache = true;
                    self.rex_events.push(self.now, done, seq);
                    self.rex_inflight += 1;
                    mem_ops_processed += 1;
                    self.rex_next_seq += 1;
                }
                _ => {
                    self.rex_next_seq += 1;
                }
            }
        }
    }

    // ---------------------------------------------------------------- complete

    fn complete(&mut self, config: &MachineConfig) {
        // Mark newly finished instructions and resolve re-execution accesses whose
        // cache access has finished (so younger stores' commit is unblocked promptly).
        // Only the due events are visited; a stale event (its entry was squashed, or
        // squashed and re-issued with a different latency) no longer matches the
        // entry's recorded state and is dropped.
        let now = self.now;
        let mut unblock_branch = false;
        let due = self.exec_events.take_due(now);
        for &seq in &due {
            if let Some(e) = self.rob.get_mut(seq) {
                if e.issued && !e.completed && e.complete_cycle == now {
                    e.completed = true;
                    if e.cls == OpClass::Branch
                        && e.mispredicted
                        && self.fetch_blocked_on_branch == Some(seq)
                    {
                        unblock_branch = true;
                    }
                    let head = std::mem::replace(&mut e.consumers, NO_NODE);
                    self.wake_consumers(head);
                }
            }
        }
        self.exec_events.give_back(now, due);
        let due = self.rex_events.take_due(now);
        for &seq in &due {
            if let Some(e) = self.rob.get_mut(seq) {
                if e.rex == RexState::InFlight(now) {
                    e.rex = if e.exec_value == e.oracle_value {
                        RexState::Done
                    } else {
                        RexState::Failed
                    };
                    self.rex_inflight -= 1;
                }
            }
        }
        self.rex_events.give_back(now, due);
        if unblock_branch {
            self.fetch_blocked_on_branch = None;
            self.fetch_stall_until = self.fetch_stall_until.max(now + config.frontend_depth);
        }
    }

    /// Drains a completed producer's consumer chain: each live consumer has one
    /// source fewer to wait for, and joins the ready set when none remain. Nodes whose
    /// consumer was squashed (absent, or re-dispatched in a later epoch) are dropped.
    fn wake_consumers(&mut self, head: u32) {
        let (rob, ready) = (&mut self.rob, &mut self.ready);
        self.wake.drain(head, |consumer, epoch| {
            if let Some(c) = rob.get_mut(consumer) {
                if c.epoch == epoch {
                    debug_assert!(!c.issued && c.pending_srcs > 0);
                    c.pending_srcs -= 1;
                    if c.pending_srcs == 0 {
                        ready.insert(consumer);
                    }
                }
            }
        });
    }

    // ------------------------------------------------------------------- issue

    /// Selects ready instructions oldest first under the per-class issue budgets. Only
    /// the ready set is visited: an entry whose operands are still in flight is never
    /// looked at, and one that cannot issue this cycle (no budget, a predicted store
    /// dependence, a busy FSQ or cache-bank port, a forwarding replay) stays ready.
    fn issue(&mut self, config: &MachineConfig, source: &Source<'_>) {
        #[cfg(test)]
        self.assert_ready_set_matches_scan();
        // The unissued ROB entries are exactly the IQ entries, so selection can never
        // look at more than `iq_size` candidates.
        debug_assert!(self.iq_count <= config.iq_size);
        let mut budget_int = config.issue_int;
        let mut budget_fp = config.issue_fp;
        let mut budget_load = config.issue_load;
        let mut budget_store = config.issue_store.min(config.lsq.store_exec_bandwidth());
        let mut budget_branch = config.issue_branch;
        let mut fsq_port_used = false;
        let mut pending_ordering_flush: Option<InstSeq> = None;

        let Some(front) = self.rob.front().map(|e| e.seq) else {
            return;
        };
        let mut cursor = self.ready.cursor(front);
        while let Some(seq) = self.ready.next(&mut cursor) {
            // Model v1 quirk, preserved for byte-identity: the early exit ignores
            // `budget_fp`, so once the other classes are exhausted a ready FP op
            // waits a cycle even if FP slots remain. Model v2 keeps selecting
            // while FP bandwidth is left.
            if budget_int == 0
                && budget_load == 0
                && budget_store == 0
                && budget_branch == 0
                && (config.model_version < 2 || budget_fp == 0)
            {
                break;
            }
            let (cls, wait_store, uses_fsq) = {
                let e = self.rob.get(seq).expect("ready entries are in the ROB");
                debug_assert!(!e.issued && e.pending_srcs == 0);
                debug_assert_eq!(
                    e.fsq_steered,
                    e.cls == OpClass::Load && config.lsq.is_ssq() && self.steering.uses_fsq(e.pc),
                    "seq {seq}: the FSQ steering fixed at dispatch is still the predictor's"
                );
                (e.cls, e.wait_store, e.fsq_steered)
            };
            match cls {
                OpClass::IntAlu | OpClass::IntMul | OpClass::Nop => {
                    if budget_int == 0 {
                        continue;
                    }
                    budget_int -= 1;
                    self.do_issue_simple(config, seq, cls);
                }
                OpClass::FpAlu => {
                    if budget_fp == 0 {
                        continue;
                    }
                    budget_fp -= 1;
                    self.do_issue_simple(config, seq, cls);
                }
                OpClass::Branch => {
                    if budget_branch == 0 {
                        continue;
                    }
                    budget_branch -= 1;
                    self.do_issue_simple(config, seq, cls);
                }
                OpClass::Store => {
                    if budget_store == 0 {
                        continue;
                    }
                    budget_store -= 1;
                    if let Some(victim) = self.do_issue_store(config, source, seq) {
                        pending_ordering_flush = Some(victim);
                        break;
                    }
                }
                OpClass::Load => {
                    if budget_load == 0 {
                        continue;
                    }
                    // Memory dependence predicted by store-sets: wait while the store
                    // is still in the window with an unresolved address — that is,
                    // has not issued (issue resolves its SQ entry).
                    if let Some(ws) = wait_store {
                        if let Some(store) = self.rob.get(ws) {
                            debug_assert_eq!(store.cls, OpClass::Store);
                            if !store.issued {
                                continue;
                            }
                        }
                    }
                    if uses_fsq && fsq_port_used {
                        continue;
                    }
                    if self.do_issue_load(config, source, seq, uses_fsq) {
                        budget_load -= 1;
                        if uses_fsq {
                            fsq_port_used = true;
                        }
                    }
                }
            }
        }
        if let Some(seq) = pending_ordering_flush {
            self.stats.ordering_flushes += 1;
            self.flush_from(seq, config.frontend_depth);
        }
    }

    /// Moves `seq` out of the IQ into execution, completing `latency` cycles from now.
    fn start_execution(&mut self, seq: InstSeq, latency: u64) {
        let done = self.now + latency;
        let e = self
            .rob
            .get_mut(seq)
            .expect("issuing an instruction that is in the ROB");
        e.issued = true;
        e.complete_cycle = done;
        self.exec_events.push(self.now, done, seq);
        self.ready.remove(seq);
        self.iq_count -= 1;
    }

    fn do_issue_simple(&mut self, config: &MachineConfig, seq: InstSeq, cls: OpClass) {
        self.start_execution(seq, config.issue_to_execute + cls.exec_latency());
    }

    /// Issues a store (address + data generation). Returns the sequence number of the
    /// oldest prematurely issued younger load if the conventional LQ ordering search
    /// finds one (an ordering-violation flush request).
    fn do_issue_store(
        &mut self,
        config: &MachineConfig,
        source: &Source<'_>,
        seq: InstSeq,
    ) -> Option<InstSeq> {
        let inst = source.get(seq);
        let acc = *inst.mem_access();
        let pc = inst.pc;
        let (sq_ord, younger_loads, fsq_ord, ssn) = {
            let e = self.rob.get(seq).expect("store is in the ROB");
            (
                e.lsq_ord,
                e.peer_ord,
                e.fsq_ord,
                e.ssn.expect("store has an SSN"),
            )
        };
        self.sq.resolve(sq_ord, acc.addr, acc.width, acc.value);
        self.store_sets.store_resolved(pc, seq);
        if let (Some(fsq), Some(ord)) = (&mut self.fsq, fsq_ord) {
            fsq.resolve(ord, acc.addr, acc.width, acc.value);
        }
        if let Some(buf) = &mut self.fwd_buf {
            buf.record_store(seq, ssn, acc.addr, acc.width, acc.value);
        }
        self.start_execution(seq, config.issue_to_execute + OpClass::Store.exec_latency());

        // The conventional LQ's associative ordering search (removed in the NLQ and
        // unnecessary under SSQ, whose re-execution of every load subsumes it).
        if config.lsq.is_conventional() {
            if let Some(victim) =
                self.lq
                    .search_violations(younger_loads, acc.addr, acc.width, Some(acc.value))
            {
                // Train store-sets on the violating pair so the load learns to wait
                // for this store in the future.
                let load_pc = source.get(victim).pc;
                self.store_sets.train_violation(load_pc, pc);
                return Some(victim);
            }
        }
        None
    }

    /// Attempts to issue a load. Returns `false` if it could not issue this cycle
    /// (conflicting store data not ready, cache bank busy, …).
    fn do_issue_load(
        &mut self,
        config: &MachineConfig,
        source: &Source<'_>,
        seq: InstSeq,
        uses_fsq: bool,
    ) -> bool {
        let acc = *source.get(seq).mem_access();
        let bytes = acc.width;
        // A load turned away by a busy cache bank does no forwarding work — except
        // that every attempt counts a forwarding-buffer lookup, so a buffer-path load
        // still makes one (reusing its outcome while the bank's buffer is unchanged).
        let bank_free = self.exec_ports.is_free(acc.addr, self.now);
        let buffer_path = config.lsq.is_ssq() && !uses_fsq;
        if !bank_free && !buffer_path {
            return false;
        }
        let e = self.rob.get_mut(seq).expect("load is in the ROB");
        let (lq_ord, older_stores, older_fsq) = (e.lsq_ord, e.peer_ord, e.fsq_ord);

        // Determine the value the load observes and where it comes from. A forwarding
        // source is either an in-flight queue entry (whose SSN can only shrink the
        // window, under `+UPD`) or a best-effort buffer entry (whose SSN must also
        // *bound* the window: the entry may belong to an already-retired store whose
        // value younger retired stores have overwritten). The origin is persisted on
        // the ROB entry for the commit-stream observer.
        let forwarded = if buffer_path {
            let found = self
                .fwd_buf
                .as_mut()
                .expect("SSQ configuration has forwarding buffers")
                .lookup(seq, acc.addr, bytes, &mut e.fwd_memo);
            if !bank_free {
                return false;
            }
            found.map(|(ssn, value)| (value, FwdOrigin::Buffer(ssn)))
        } else if uses_fsq {
            let bound = older_fsq.expect("an SSQ load records the FSQ's next ordinal");
            match self
                .fsq
                .as_mut()
                .expect("SSQ configuration has an FSQ")
                .search(bound, acc.addr, bytes)
            {
                ForwardResult::Forward { ssn, value, .. } => Some((value, FwdOrigin::Queue(ssn))),
                // The FSQ is best effort: a conflict reads memory and is left to
                // re-execution.
                ForwardResult::Conflict { .. } | ForwardResult::None => None,
            }
        } else {
            match self.sq.search_forward(older_stores, acc.addr, bytes) {
                ForwardResult::Forward { ssn, value, .. } => Some((value, FwdOrigin::Queue(ssn))),
                ForwardResult::None => None,
                // The youngest older matching store cannot forward yet: retry next cycle.
                ForwardResult::Conflict { .. } => return false,
            }
        };
        let (exec_value, fwd_source) = forwarded
            .unwrap_or_else(|| (self.committed_mem.read(acc.addr, bytes), FwdOrigin::Memory));
        // Cache bank structural port (address-interleaved execution ports).
        let claimed = self.exec_ports.try_use(acc.addr, self.now);
        debug_assert!(claimed, "the bank was free");

        // Under NLQ, loads issuing past unresolved older store addresses are marked by
        // the scheduler for re-execution.
        let nlq_marked = matches!(config.lsq, LsqOrganization::Nlq { .. })
            && self.sq.has_unresolved_before(older_stores);

        let latency = if matches!(fwd_source, FwdOrigin::Queue(_) | FwdOrigin::Buffer(_)) {
            config.issue_to_execute
                + self.hierarchy.l1d_hit_latency()
                + config.lsq.extra_load_latency()
        } else {
            config.issue_to_execute
                + self.hierarchy.access(AccessKind::DataRead, acc.addr)
                + config.lsq.extra_load_latency()
        };

        self.lq.resolve(lq_ord, acc.addr, bytes, exec_value);
        let window = self.rob.get(seq).expect("load is in the ROB").window;
        let svw_window = match fwd_source {
            FwdOrigin::Queue(ssn) => self.svw.forward_update(window, ssn),
            FwdOrigin::Buffer(ssn) => {
                // The value reflects memory exactly as of store `ssn`, which may be
                // older than the dispatch-time retire pointer: bound the window first
                // (soundness), then apply the `+UPD` shrink (filtering efficiency).
                let bounded = window.compose(VulnWindow::from_best_effort_source(ssn));
                self.svw.forward_update(bounded, ssn)
            }
            FwdOrigin::Memory => window,
        };
        self.start_execution(seq, latency);
        let e = self.rob.get_mut(seq).expect("load is in the ROB");
        e.exec_value = Some(exec_value);
        e.window = svw_window;
        e.fwd = fwd_source;
        if nlq_marked {
            e.marked = true;
        }
        true
    }

    // ---------------------------------------------------------------- dispatch

    fn dispatch(&mut self, config: &MachineConfig, source: &mut Source<'_>) {
        if self.now < self.fetch_stall_until || self.fetch_blocked_on_branch.is_some() {
            return;
        }
        if self.wrap_drain_pending {
            if self.rob.is_empty() {
                self.svw.on_wrap_drain();
                if let Some(it) = &mut self.it {
                    it.flash_clear();
                }
                self.stats.wrap_drains += 1;
                self.wrap_drain_pending = false;
            } else {
                return;
            }
        }
        let trace_len = source.len();
        source.ensure((self.fetch_index + config.fetch_width).min(trace_len));
        let mut dispatched = 0usize;
        while dispatched < config.fetch_width && self.fetch_index < trace_len {
            let seq = self.fetch_index as InstSeq;
            // Borrowed straight out of the source window: `source` is disjoint from
            // the pipeline state, so no clone is needed.
            let inst = source.get(seq);
            let cls = inst.class();
            let is_load = cls == OpClass::Load;
            let is_store = cls == OpClass::Store;
            let dst = inst.dst();
            let has_dst = dst.is_some();

            // Structural resources.
            if self.rob.len() >= config.rob_size
                || self.iq_count >= config.iq_size
                || (is_load && !self.lq.has_space())
                || (is_store && !self.sq.has_space())
                || (has_dst && self.inflight_dsts >= config.phys_regs)
            {
                break;
            }
            if is_store && self.svw.wrap_drain_needed() {
                self.wrap_drain_pending = true;
                break;
            }

            let srcs = inst.srcs();
            let src_producers = [
                srcs[0].and_then(|r| self.rename.producer(r)),
                srcs[1].and_then(|r| self.rename.producer(r)),
            ];

            let mut entry = RobEntry {
                seq,
                pc: inst.pc,
                cls,
                #[cfg(test)]
                src_producers,
                pending_srcs: 0,
                epoch: self.flush_epoch,
                consumers: NO_NODE,
                dst,
                prev_binding: RegBinding::default(),
                lsq_ord: 0,
                peer_ord: 0,
                fsq_ord: None,
                issued: false,
                completed: false,
                complete_cycle: u64::MAX,
                addr: inst.addr(),
                width: inst.mem.as_ref().map(|m| m.width),
                exec_value: None,
                oracle_value: inst.mem.as_ref().map(|m| m.value),
                marked: false,
                window: VulnWindow::FULLY_VULNERABLE,
                ssn: None,
                fsq_steered: false,
                fwd_memo: ForwardMemo::default(),
                fwd: FwdOrigin::Memory,
                eliminated: None,
                elim_squash: false,
                elim_signature: None,
                wait_store: None,
                rex: RexState::Idle,
                rex_used_cache: false,
                mispredicted: false,
            };
            let mut enters_iq = true;
            let mut stop_fetch_after = false;
            // Completion event for entries that dispatch pre-issued (eliminated
            // loads), pushed once the entry is in the ROB.
            let mut exec_event: Option<u64> = None;
            let ssq = config.lsq.is_ssq();

            match cls {
                OpClass::Branch => {
                    let (kind, info) = inst.branch_info().expect("branch has branch info");
                    let predicted_taken = if kind.is_unconditional() {
                        true
                    } else {
                        self.branch_pred.predict(inst.pc)
                    };
                    let btb_target = self.btb.lookup(inst.pc);
                    let direction_wrong = if kind.is_unconditional() {
                        false
                    } else {
                        self.branch_pred.update(inst.pc, info.taken)
                    };
                    let target_wrong =
                        info.taken && predicted_taken && btb_target != Some(info.target);
                    entry.mispredicted = direction_wrong || target_wrong;
                    self.btb.update(inst.pc, info.target);
                    if entry.mispredicted {
                        self.stats.branch_mispredictions += 1;
                        stop_fetch_after = true;
                    }
                }
                OpClass::Load => {
                    entry.window = self.svw.load_dispatch_window();
                    entry.wait_store = self.store_sets.load_dependence(inst.pc);
                    if entry.wait_store.is_some() {
                        self.stats.store_set_squashes += 1;
                    }
                    if ssq {
                        // The speculative SQ has no natural filter: every load must be
                        // (potentially) re-executed.
                        entry.marked = true;
                    }
                    // Redundant load elimination at rename.
                    if let Some(it) = &mut self.it {
                        let (base, offset) = inst
                            .base_and_offset()
                            .expect("loads have a base register and offset");
                        let sig = ItSignature {
                            base_preg: (self.rename.version(base) & 0xFFFF_FFFF) as u32,
                            offset,
                            width: inst.mem_access().width,
                        };
                        entry.elim_signature = Some(sig);
                        if let Some(hit) = it.lookup(&sig) {
                            entry.eliminated = Some(hit.kind);
                            entry.elim_squash = hit.from_squashed;
                            entry.marked = true;
                            entry.issued = true;
                            entry.completed = false;
                            entry.complete_cycle = self.now + 1;
                            exec_event = Some(self.now + 1);
                            entry.exec_value = Some(hit.value);
                            entry.window = if hit.from_squashed {
                                VulnWindow::FULLY_VULNERABLE
                            } else {
                                VulnWindow::from_integration_entry(hit.ssn)
                            };
                            enters_iq = false;
                        } else {
                            it.insert(ItEntry {
                                signature: sig,
                                value: inst.mem_access().value,
                                ssn: self.svw.ssn_rename(),
                                producer_seq: seq,
                                kind: RleKind::LoadReuse,
                                from_squashed: false,
                            });
                        }
                    }
                    entry.lsq_ord = self.lq.allocate(seq);
                    entry.peer_ord = self.sq.next_ord();
                    entry.fsq_ord = self.fsq.as_ref().map(Fsq::next_ord);
                    entry.fsq_steered = ssq && enters_iq && self.steering.uses_fsq(inst.pc);
                }
                OpClass::Store => {
                    let ssn = self.svw.assign_store_ssn();
                    entry.ssn = Some(ssn);
                    entry.lsq_ord = self.sq.allocate(seq, inst.pc, ssn);
                    entry.peer_ord = self.lq.next_ord();
                    let _ = self.store_sets.store_renamed(inst.pc, seq);
                    if ssq && self.steering.uses_fsq(inst.pc) {
                        if let Some(fsq) = &mut self.fsq {
                            entry.fsq_ord = fsq.try_allocate(seq, inst.pc, ssn);
                        }
                    }
                    if let Some(it) = &mut self.it {
                        let (base, offset) = inst
                            .base_and_offset()
                            .expect("stores have a base register and offset");
                        let sig = ItSignature {
                            base_preg: (self.rename.version(base) & 0xFFFF_FFFF) as u32,
                            offset,
                            width: inst.mem_access().width,
                        };
                        it.insert(ItEntry {
                            signature: sig,
                            value: inst.mem_access().value,
                            ssn: self.svw.ssn_rename(),
                            producer_seq: seq,
                            kind: RleKind::MemoryBypass,
                            from_squashed: false,
                        });
                    }
                }
                _ => {}
            }

            // Rename the destination; the entry keeps the binding it replaces.
            if let Some(dst) = dst {
                entry.prev_binding = self.rename.bind(dst, seq);
                self.inflight_dsts += 1;
            }

            if entry.mispredicted {
                self.fetch_blocked_on_branch = Some(seq);
            }
            if enters_iq {
                self.iq_count += 1;
                // Wait on every producer still executing (or waiting to); a producer
                // that has completed or committed already supplies its value.
                for p in src_producers.into_iter().flatten() {
                    if let Some(pe) = self.rob.get_mut(p) {
                        if !pe.completed {
                            self.wake.register(&mut pe.consumers, seq, self.flush_epoch);
                            entry.pending_srcs += 1;
                        }
                    }
                }
                if entry.pending_srcs == 0 {
                    self.ready.insert(seq);
                }
            }
            self.rob.push_back(entry);
            if let Some(done) = exec_event {
                self.exec_events.push(self.now, done, seq);
            }
            self.fetch_index += 1;
            dispatched += 1;
            if stop_fetch_after {
                break;
            }
        }
    }

    // ------------------------------------------------------------------- flush

    /// Squashes every instruction with `seq >= flush_seq`, restores rename and queue
    /// state, and redirects fetch to `flush_seq` after `penalty` cycles.
    fn flush_from(&mut self, flush_seq: InstSeq, penalty: u64) {
        while matches!(self.rob.back(), Some(e) if e.seq >= flush_seq) {
            let e = self.rob.back().expect("checked non-empty");
            let (seq, dst, prev_binding, eliminated, issued, rex, consumers) = (
                e.seq,
                e.dst,
                e.prev_binding,
                e.eliminated,
                e.issued,
                e.rex,
                e.consumers,
            );
            self.rob.pop_back();
            // Youngest first, so each register ends at its binding from before the
            // oldest squashed writer.
            if let Some(r) = dst {
                self.rename.restore(r, prev_binding);
                self.inflight_dsts -= 1;
            }
            if eliminated.is_none() && !issued {
                self.iq_count -= 1;
                self.ready.remove(seq);
            }
            // Every consumer on the chain is younger, so squashed too.
            self.wake.drain(consumers, |_, _| {});
            if matches!(rex, RexState::InFlight(_)) {
                self.rex_inflight -= 1;
            }
        }
        // Survivors' chains may still hold nodes for squashed consumers; the new
        // epoch tells them apart from the re-dispatched instructions reusing the seqs.
        self.flush_epoch += 1;
        let survivor = self.rob.back().map(|e| e.seq);
        self.lq.flush_after(survivor);
        let surviving_ssn = self.sq.flush_after(survivor);
        if let Some(fsq) = &mut self.fsq {
            fsq.flush_after(survivor);
        }
        if let Some(buf) = &mut self.fwd_buf {
            buf.flush_after(survivor);
        }
        if let Some(it) = &mut self.it {
            it.flush_after(survivor);
        }
        self.store_sets.flush_inflight();
        self.svw.flush(surviving_ssn);
        self.rex_next_seq = self.rex_next_seq.min(flush_seq);
        self.fetch_index = flush_seq as usize;
        self.fetch_stall_until = self.now + penalty;
        if matches!(self.fetch_blocked_on_branch, Some(b) if b >= flush_seq) {
            self.fetch_blocked_on_branch = None;
        }
        debug_assert_eq!(
            self.rex_inflight,
            self.rob
                .iter()
                .filter(|e| matches!(e.rex, RexState::InFlight(_)))
                .count(),
            "the pop loop keeps the in-flight re-execution count exact"
        );
        #[cfg(test)]
        self.assert_rename_matches_rob();
    }
}

/// A reusable simulation arena: owns one pipeline and hands it to successive
/// [`Cpu::recycle`] calls. The first cell builds the pipeline; every later cell
/// clears it in place with all heap allocations (ROB ring, wake slab, ready set, event
/// wheels, predictor and cache tables, queues, SSBF) retained, making cell startup a
/// reset instead of a rebuild and the steady-state loop allocation-free.
///
/// Results are byte-identical to fresh [`Cpu::new`] construction — the scheduler
/// determinism tests compare the two paths across worker counts.
#[derive(Default)]
pub struct SimArena {
    pipeline: Option<Pipeline>,
}

impl SimArena {
    /// Creates an empty arena (no pipeline is built until the first recycle).
    pub fn new() -> Self {
        SimArena::default()
    }

    /// Whether the arena already holds a pipeline — i.e. the next [`Cpu::recycle`]
    /// will be an in-place reset rather than a fresh build. Sweep workers use this to
    /// report their reset-vs-rebuild counts.
    pub fn is_warm(&self) -> bool {
        self.pipeline.is_some()
    }
}

/// How a [`Cpu`] holds its pipeline: privately boxed (one-shot construction) or
/// borrowed from a caller-owned [`SimArena`] (recycled across cells).
enum State<'a> {
    Owned(Box<Pipeline>),
    Borrowed(&'a mut Pipeline),
}

impl State<'_> {
    fn get_mut(&mut self) -> &mut Pipeline {
        match self {
            State::Owned(p) => p,
            State::Borrowed(p) => p,
        }
    }

    fn get(&self) -> &Pipeline {
        match self {
            State::Owned(p) => p,
            State::Borrowed(p) => p,
        }
    }
}

/// The out-of-order processor model. Construct one per (configuration, program) pair
/// — via [`Cpu::new`] for a one-shot run or [`Cpu::recycle`] to reuse a worker's
/// [`SimArena`] — and call [`Cpu::run`].
pub struct Cpu<'a> {
    config: Arc<MachineConfig>,
    source: Source<'a>,
    state: State<'a>,
}

impl<'a> Cpu<'a> {
    /// Builds a processor for `config` that will replay `program`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`MachineConfig::validate`]).
    pub fn new(config: MachineConfig, program: &'a Program) -> Self {
        config.validate();
        let pipeline = Box::new(Pipeline::new(&config));
        Cpu {
            config: Arc::new(config),
            source: Source::Slice(program.instructions()),
            state: State::Owned(pipeline),
        }
    }

    /// Builds a processor that replays `program` using `arena`'s pipeline, cleared in
    /// place with all capacity retained (built fresh only on the arena's first use).
    /// The configuration is shared by reference counting — no per-cell
    /// `MachineConfig` clone.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`MachineConfig::validate`]).
    pub fn recycle(
        arena: &'a mut SimArena,
        config: &Arc<MachineConfig>,
        program: &'a Program,
    ) -> Self {
        config.validate();
        let pipeline = match &mut arena.pipeline {
            Some(p) => {
                p.reset(config);
                p
            }
            empty => empty.insert(Pipeline::new(config)),
        };
        Cpu {
            config: Arc::clone(config),
            source: Source::Slice(program.instructions()),
            state: State::Borrowed(pipeline),
        }
    }

    /// Builds a processor that replays instructions incrementally from `stream` (e.g.
    /// a `.svwt` trace decoder) without materializing the whole trace: only the
    /// in-flight window — bounded by the ROB size, not the trace length — is buffered.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`MachineConfig::validate`]).
    pub fn from_stream(config: MachineConfig, stream: Box<dyn InstStream + 'a>) -> Self {
        config.validate();
        let pipeline = Box::new(Pipeline::new(&config));
        let len = stream.len();
        Cpu {
            config: Arc::new(config),
            source: Source::Stream {
                stream,
                len,
                buf: VecDeque::new(),
                base: 0,
                pulled: 0,
            },
            state: State::Owned(pipeline),
        }
    }

    /// Runs the program to completion and returns the collected statistics.
    ///
    /// # Panics
    ///
    /// Panics if the simulation stops making forward progress (an internal invariant
    /// violation) or if a retired load's value disagrees with the sequential oracle
    /// (which would mean a verification mechanism — e.g. the SVW filter — was unsound).
    pub fn run(self) -> CpuStats {
        self.run_inner(None)
    }

    /// Runs the program to completion like [`Cpu::run`], reporting every committed
    /// instruction (and the final committed-memory image) to `obs`. The observer is
    /// read-only evidence plumbing: an observed run is cycle-for-cycle and
    /// byte-for-byte identical to an unobserved one.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Cpu::run`].
    pub fn run_observed(self, obs: &mut dyn CommitObserver) -> CpuStats {
        self.run_inner(Some(obs))
    }

    fn run_inner(mut self, mut obs: Option<&mut dyn CommitObserver>) -> CpuStats {
        let trace_len = self.source.len();
        let cycle_cap = 1_000 + trace_len as u64 * 300;
        let config = &*self.config;
        let source = &mut self.source;
        let p = self.state.get_mut();
        while p.fetch_index < trace_len || !p.rob.is_empty() {
            // Jump over cycles in which nothing can happen. The jump stops one short of
            // the cap, so a stuck machine still trips the assert below exactly as if
            // it had stepped every cycle.
            if let Some((next, stalled_on_reexec)) = p.idle_until(config, source) {
                let target = next.min(cycle_cap - 1);
                if target > p.now {
                    if stalled_on_reexec {
                        p.stats.commit_stalled_on_reexec += target - p.now;
                    }
                    p.now = target;
                }
            }
            p.step(config, source, &mut obs);
            assert!(
                p.now < cycle_cap,
                "simulation exceeded {cycle_cap} cycles — forward-progress failure at seq {} / {}",
                p.rob.front().map(|e| e.seq).unwrap_or(p.fetch_index as u64),
                trace_len
            );
        }
        #[cfg(test)]
        assert_eq!(
            p.wake.live(),
            0,
            "every wake node is freed by the end of a run"
        );
        if let Some(obs) = obs {
            obs.on_finish(&p.committed_mem);
        }
        p.stats.cycles = p.now;
        p.stats.branch_predictor = *p.branch_pred.stats();
        p.stats.hierarchy = p.hierarchy.stats();
        p.stats.svw = *p.svw.stats();
        if let Some(buf) = &p.fwd_buf {
            p.stats.fwd_buffer_lookups = buf.lookups();
            p.stats.fwd_buffer_hits = buf.hits();
        }
        std::mem::take(&mut p.stats)
    }

    /// The collected statistics so far (useful for inspecting a partially run model in
    /// tests; [`Cpu::run`] returns the finalised statistics).
    pub fn stats(&self) -> &CpuStats {
        &self.state.get().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svw_core::SvwConfig;
    use svw_rle::ItConfig;
    use svw_workloads::WorkloadProfile;

    fn small_program(n: usize, seed: u64) -> Program {
        WorkloadProfile::quicktest().generate(n, seed)
    }

    fn conventional_baseline(name: &str) -> MachineConfig {
        MachineConfig::eight_wide(
            name,
            LsqOrganization::Conventional {
                extra_load_latency: 0,
                store_exec_bandwidth: 1,
            },
            ReexecMode::None,
        )
    }

    #[test]
    fn baseline_runs_to_completion_and_is_plausible() {
        let program = small_program(8_000, 1);
        let stats = Cpu::new(conventional_baseline("base"), &program).run();
        assert_eq!(stats.committed, program.len() as u64);
        assert!(stats.ipc() > 0.25, "ipc {}", stats.ipc());
        assert!(stats.ipc() <= 8.0);
        assert!(stats.loads_retired > 0);
        assert!(stats.stores_retired > 0);
        assert_eq!(stats.loads_marked, 0);
        assert_eq!(stats.loads_reexecuted, 0);
    }

    #[test]
    fn nlq_marks_only_a_subset_of_loads() {
        let program = small_program(8_000, 2);
        let cfg = MachineConfig::eight_wide(
            "nlq",
            LsqOrganization::Nlq {
                store_exec_bandwidth: 2,
            },
            ReexecMode::Full,
        );
        let stats = Cpu::new(cfg, &program).run();
        assert_eq!(stats.committed, program.len() as u64);
        assert!(stats.loads_marked > 0);
        assert!(
            stats.loads_marked < stats.loads_retired,
            "NLQ has a natural filter"
        );
        assert_eq!(stats.loads_reexecuted, stats.loads_marked);
    }

    #[test]
    fn svw_filters_most_nlq_reexecutions_and_preserves_correctness() {
        let program = small_program(8_000, 3);
        let full = Cpu::new(
            MachineConfig::eight_wide(
                "nlq-full",
                LsqOrganization::Nlq {
                    store_exec_bandwidth: 2,
                },
                ReexecMode::Full,
            ),
            &program,
        )
        .run();
        let svw = Cpu::new(
            MachineConfig::eight_wide(
                "nlq-svw",
                LsqOrganization::Nlq {
                    store_exec_bandwidth: 2,
                },
                ReexecMode::Svw(SvwConfig::paper_default()),
            ),
            &program,
        )
        .run();
        assert_eq!(svw.committed, program.len() as u64);
        assert!(svw.loads_reexecuted < full.loads_reexecuted);
        assert!(svw.loads_filtered > 0);
        assert_eq!(svw.loads_filtered + svw.loads_reexecuted, svw.loads_marked);
    }

    #[test]
    fn ssq_marks_every_load_and_svw_enables_it() {
        let program = small_program(8_000, 4);
        let ssq = LsqOrganization::Ssq {
            fsq_entries: 16,
            fwd_buffer_entries: 8,
            store_exec_bandwidth: 2,
        };
        let full = Cpu::new(
            MachineConfig::eight_wide("ssq-full", ssq, ReexecMode::Full),
            &program,
        )
        .run();
        assert_eq!(full.committed, program.len() as u64);
        assert_eq!(
            full.loads_marked, full.loads_retired,
            "SSQ has no natural filter"
        );
        let svw = Cpu::new(
            MachineConfig::eight_wide("ssq-svw", ssq, ReexecMode::Svw(SvwConfig::paper_default())),
            &program,
        )
        .run();
        assert_eq!(svw.committed, program.len() as u64);
        assert!(svw.loads_reexecuted < full.loads_reexecuted / 2);
        assert!(
            svw.ipc() >= full.ipc(),
            "filtering should not hurt performance"
        );
    }

    #[test]
    fn rle_eliminates_loads_and_verifies_them() {
        let program = small_program(8_000, 5);
        let base = MachineConfig::four_wide(
            "rle",
            LsqOrganization::Conventional {
                extra_load_latency: 0,
                store_exec_bandwidth: 1,
            },
            ReexecMode::Full,
        )
        .with_rle(ItConfig::paper_default());
        let stats = Cpu::new(base, &program).run();
        assert_eq!(stats.committed, program.len() as u64);
        assert!(stats.loads_eliminated > 0);
        assert!(stats.eliminations_reuse > 0);
        assert_eq!(stats.loads_marked, stats.loads_eliminated);
        assert!(stats.loads_reexecuted <= stats.loads_marked);
    }

    #[test]
    fn perfect_reexecution_never_slows_the_machine() {
        let program = small_program(6_000, 6);
        let ssq = LsqOrganization::Ssq {
            fsq_entries: 16,
            fwd_buffer_entries: 8,
            store_exec_bandwidth: 2,
        };
        let full = Cpu::new(
            MachineConfig::eight_wide("ssq-full", ssq, ReexecMode::Full),
            &program,
        )
        .run();
        let perfect = Cpu::new(
            MachineConfig::eight_wide("ssq-perfect", ssq, ReexecMode::Perfect),
            &program,
        )
        .run();
        assert!(perfect.ipc() >= full.ipc());
        assert_eq!(perfect.committed, full.committed);
    }

    #[test]
    fn wrap_drains_occur_with_narrow_ssns_and_results_stay_correct() {
        let program = small_program(6_000, 7);
        let mut svw_cfg = SvwConfig::paper_default();
        svw_cfg.ssn_width = svw_core::SsnWidth::Bits(8); // wrap every 256 stores
        let cfg = MachineConfig::eight_wide(
            "nlq-narrow-ssn",
            LsqOrganization::Nlq {
                store_exec_bandwidth: 2,
            },
            ReexecMode::Svw(svw_cfg),
        );
        let stats = Cpu::new(cfg, &program).run();
        assert_eq!(stats.committed, program.len() as u64);
        assert!(stats.wrap_drains > 0);
    }

    /// A squash undoes renaming from the ROB: restoring the bindings the squashed
    /// writers replaced, youngest first, leaves the register bound exactly as before
    /// the oldest squashed writer, however deep the window — and versions keep
    /// counting up, so no physical identity is handed out twice.
    #[test]
    fn rename_undo_restores_the_binding_before_the_oldest_squashed_writer() {
        let r = svw_isa::ArchReg::new(3);
        let mut rm = RenameMap::new();
        let replaced: Vec<RegBinding> = (0..2_000u64).map(|p| rm.bind(r, p)).collect();
        for prev in replaced[10..].iter().rev() {
            rm.restore(r, *prev);
        }
        assert_eq!(rm.producer(r), Some(9));
        assert_eq!(rm.current[r.index()], replaced[10]);
        rm.bind(r, 10);
        assert_eq!(rm.version(r), NUM_ARCH_REGS as u64 + 2_000);
    }

    /// Every run in a test build checks the ready set against the old select scan's
    /// predicate at each issue stage, that the wake slab ends empty, and after every
    /// flush that the rename map binds each register to its youngest surviving
    /// writer; SSQ runs also check that each ready load's dispatch-time FSQ steering
    /// is still the predictor's, and that every reused forwarding-buffer outcome
    /// equals a fresh lookup. This drives each squash and bypass path through those
    /// checks: conventional-LQ ordering flushes, re-execution-failure flushes (under
    /// SSQ also retraining the steering predictor), branch mispredictions,
    /// RLE-eliminated loads, and SSN wrap-around drains, plus a ROB whose size is not
    /// a power of two.
    #[test]
    fn ready_set_matches_the_scan_through_every_squash_path() {
        let programs = [
            small_program(6_000, 21),
            WorkloadProfile::by_name("adv.alias")
                .unwrap()
                .generate(4_000, 22),
            WorkloadProfile::by_name("adv.storm")
                .unwrap()
                .generate(4_000, 23),
        ];
        let nlq = LsqOrganization::Nlq {
            store_exec_bandwidth: 2,
        };
        let narrow = SvwConfig {
            ssn_width: svw_core::SsnWidth::Bits(8),
            ..SvwConfig::paper_default()
        };
        let odd_rob = MachineConfig {
            rob_size: 100,
            iq_size: 40,
            ..MachineConfig::eight_wide("nlq-full-rob100", nlq, ReexecMode::Full)
        };
        type Event = fn(&CpuStats) -> u64;
        let cases: Vec<(MachineConfig, Event)> = vec![
            (conventional_baseline("conv"), |s| s.ordering_flushes),
            (
                MachineConfig::eight_wide("nlq-full", nlq, ReexecMode::Full),
                |s| s.reexec_flushes,
            ),
            (odd_rob, |s| s.reexec_flushes),
            (
                MachineConfig::eight_wide(
                    "ssq-svw",
                    LsqOrganization::Ssq {
                        fsq_entries: 16,
                        fwd_buffer_entries: 8,
                        store_exec_bandwidth: 2,
                    },
                    ReexecMode::Svw(SvwConfig::paper_default()),
                ),
                |s| s.reexec_flushes.min(s.reexecuted_fsq_loads),
            ),
            (
                MachineConfig::eight_wide("nlq-narrow-ssn", nlq, ReexecMode::Svw(narrow)),
                |s| s.wrap_drains,
            ),
            (
                MachineConfig::four_wide(
                    "rle-svw",
                    LsqOrganization::Conventional {
                        extra_load_latency: 0,
                        store_exec_bandwidth: 1,
                    },
                    ReexecMode::Svw(SvwConfig::paper_default()),
                )
                .with_rle(ItConfig::paper_default()),
                |s| s.loads_eliminated,
            ),
        ];
        for (cfg, event) in cases {
            let (mut hits, mut mispredicts) = (0, 0);
            for program in &programs {
                let stats = Cpu::new(cfg.clone(), program).run();
                assert_eq!(stats.committed, program.len() as u64);
                hits += event(&stats);
                mispredicts += stats.branch_mispredictions;
            }
            assert!(hits > 0, "{} never exercised its path", cfg.name);
            assert!(mispredicts > 0, "{} never mispredicted", cfg.name);
        }
    }

    /// A machine that can never dispatch must still trip the forward-progress
    /// assert: idle-cycle skipping stops one cycle short of the cap instead of
    /// jumping past it.
    #[test]
    #[should_panic(expected = "forward-progress failure")]
    fn a_stuck_machine_still_trips_the_forward_progress_cap() {
        let program = small_program(200, 9);
        let cfg = MachineConfig {
            phys_regs: 0,
            ..conventional_baseline("no-registers")
        };
        Cpu::new(cfg, &program).run();
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let program = small_program(4_000, 8);
        let cfg = || {
            MachineConfig::eight_wide(
                "nlq-svw",
                LsqOrganization::Nlq {
                    store_exec_bandwidth: 2,
                },
                ReexecMode::Svw(SvwConfig::paper_default()),
            )
        };
        let a = Cpu::new(cfg(), &program).run();
        let b = Cpu::new(cfg(), &program).run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.loads_reexecuted, b.loads_reexecuted);
        assert_eq!(a.reexec_flushes, b.reexec_flushes);
    }

    /// The tentpole guarantee: a recycled arena must produce byte-identical results
    /// to fresh construction, across heterogeneous configurations sharing one arena
    /// (including RLE↔non-RLE and SSQ↔NLQ transitions that reshape the arena).
    #[test]
    fn recycled_arena_matches_fresh_construction_across_configs() {
        let configs: Vec<MachineConfig> = vec![
            conventional_baseline("base"),
            MachineConfig::eight_wide(
                "nlq-svw",
                LsqOrganization::Nlq {
                    store_exec_bandwidth: 2,
                },
                ReexecMode::Svw(SvwConfig::paper_default()),
            ),
            MachineConfig::eight_wide(
                "ssq-svw",
                LsqOrganization::Ssq {
                    fsq_entries: 16,
                    fwd_buffer_entries: 8,
                    store_exec_bandwidth: 2,
                },
                ReexecMode::Svw(SvwConfig::paper_default()),
            ),
            MachineConfig::four_wide(
                "rle",
                LsqOrganization::Conventional {
                    extra_load_latency: 0,
                    store_exec_bandwidth: 1,
                },
                ReexecMode::Full,
            )
            .with_rle(ItConfig::paper_default()),
        ];
        let mut arena = SimArena::new();
        for seed in [11u64, 12] {
            let program = small_program(5_000, seed);
            for cfg in &configs {
                let fresh = Cpu::new(cfg.clone(), &program).run();
                let shared = Arc::new(cfg.clone());
                let recycled = Cpu::recycle(&mut arena, &shared, &program).run();
                assert_eq!(
                    format!("{fresh:?}"),
                    format!("{recycled:?}"),
                    "recycled arena diverged for config {} seed {seed}",
                    cfg.name
                );
            }
        }
    }
}
