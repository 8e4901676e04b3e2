//! In-flight instruction records: the hot/cold split slab pool.
//!
//! Every dynamic instruction travelling the pipeline is one slot in an
//! [`InstPool`], addressed by a 32-bit [`InstId`]. All cross-structure
//! references (ROB, queues, buffers, wheels) are `InstId`s.
//!
//! # Hot/cold layout
//!
//! The pool stores each instruction across **three** dense parallel
//! arrays, sized and segregated by *access frequency*, not by meaning —
//! the same partition-the-big-centralised-structure argument the source
//! paper makes for SMT hardware, applied to the simulator's own data
//! layout:
//!
//! * [`HotInst`] (exactly 32 bytes, `#[repr(C, align(32))]`,
//!   size-asserted below) carries everything the per-cycle stages
//!   stream: the packed state+flag bitfield byte, `seq`, `ready_cycle`,
//!   `pending_srcs`, the thread/pipe nibble pair — plus the opcode, both
//!   packed destination mappings (`dst`/`old`) and the slot generation,
//!   which fit the record's padding and let writeback, commit's retire
//!   poll, wakeup delivery and issue classification run hot-only. Two
//!   records tile every 64-byte line, and none straddles.
//! * [`ColdInst`] (exactly one 64-byte line, `#[repr(align(64))]`)
//!   carries the bulk read at *per-instruction* events: the fetched
//!   [`DynInst`] and the source mappings `src_phys`. It is touched at
//!   rename, issue (one read per *memory* op for the effective address),
//!   branch resolution, store commit and squash walk-back — never by the
//!   per-cycle scans.
//! * The predictor snapshot (`DirSnapshot`) lives in a third array
//!   written at fetch and read at resolution for *conditional branches
//!   only*; every other instruction leaves its slot stale and unread.
//!
//! # Stage → accessor contract
//!
//! Raw `get`/`get_mut` no longer exist; callers declare which slice of
//! the record they touch, so the type system documents the traffic of
//! every stage:
//!
//! | accessor | who uses it |
//! |---|---|
//! | [`InstPool::hot`] / [`InstPool::hot_mut`] | every per-cycle stage: dispatch, wakeup drain, issue, writeback, commit's retire poll, squash marking, invariants |
//! | [`InstPool::cold`] | issue's address capture (memory ops), wakeup re-entry of memory ops, branch resolution, store commit, load-ordering invariants |
//! | [`InstPool::pair_mut`] | rename and squash walk-back, which legitimately rewrite both halves |
//! | [`InstPool::snap`] / [`InstPool::snap_mut`] | conditional-branch fetch and resolution only |
//!
//! # Generations
//!
//! Each slot carries a generation counter, bumped on release. The
//! processor releases a slot at commit or at squash, an instruction
//! squashed mid-execution included, so a slot can be reused in the very
//! cycle it was freed while lazily-maintained structures (wakeup lists,
//! the completion and FLUSH wheels) still refer to its previous
//! occupant. Those references pair the id with the generation they
//! captured and are dropped when the two no longer match. The free list
//! is LIFO and the release schedule is owned by the processor, so
//! slot-reuse timing is independent of the layout, and no statistic
//! depends on slot numbers: issue orders by the pool-independent
//! `(seq, thread)` age key.

use hdsmt_bpred::DirSnapshot;
use hdsmt_isa::{Op, SeqNum, ThreadId};
use hdsmt_trace::DynInst;

use crate::regfile::PhysReg;

/// Index of an in-flight instruction in the [`InstPool`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

impl core::fmt::Debug for InstId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Where in the pipeline an instruction currently is. Packed into the low
/// bits of [`HotInst`]'s flag byte.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum InstState {
    /// Sitting in the per-pipeline decoupling buffer or the decode
    /// latch (the decode stage moves ids without touching the pool).
    InBuffer = 0,
    /// In the rename stage latch.
    Rename = 1,
    /// Dispatched: waiting in an issue queue for operands/FU.
    Waiting = 2,
    /// Issued to a functional unit; executing.
    Executing = 3,
    /// Result produced; waiting for in-order commit.
    Done = 4,
}

/// Bit layout of [`HotInst::bits`]: state in the low 3 bits, one flag per
/// remaining bit.
const STATE_MASK: u8 = 0b0000_0111;
const F_WRONG_PATH: u8 = 1 << 3;
const F_FORWARDED: u8 = 1 << 4;
const F_SQUASHED: u8 = 1 << 5;
const F_MISPREDICTED: u8 = 1 << 6;

/// `HotInst::dst` sentinel: no destination register.
const NO_DST: u16 = u16::MAX;

/// The per-cycle half of an in-flight instruction: everything the hot
/// stage loops stream, packed so two records share a cache line.
///
/// Fields mutated by the scheduler (`ready_cycle`, `pending_srcs`, state
/// and flags) live here, and so do the two single-word facts the
/// per-cycle stages keep asking for — the opcode and the destination
/// register — because they fit the record's padding for free. Everything
/// bulky (the fetched instruction, source mappings, predictor snapshot)
/// lives in [`ColdInst`].
#[repr(C, align(32))]
#[derive(Clone, Debug)]
pub struct HotInst {
    /// Per-thread program-order sequence number.
    pub seq: SeqNum,
    /// Cycle the result becomes available (valid once `Executing`).
    pub ready_cycle: u64,
    /// Destination physical register, `NO_DST`-packed (set at rename).
    /// Writeback marks it ready without opening the cold record.
    dst: u16,
    /// Previous mapping of the destination architectural register,
    /// `NO_DST`-packed (set at rename, freed at commit). Keeping it here
    /// means an ALU/branch retirement never opens its cold record.
    old: u16,
    /// Packed [`InstState`] (low 3 bits) + flags; see the `F_*` constants.
    bits: u8,
    /// Thread index (low nibble) and pipeline (high nibble): the paper's
    /// machines top out at 8 contexts and 5 pipelines.
    tp: u8,
    /// While `Waiting`: source operands still outstanding. Counted down by
    /// register-file wakeups; the instruction enters its pipeline's ready list
    /// when it hits zero.
    pub pending_srcs: u8,
    /// Opcode copy: classification (`is_load`/`is_control`/FU routing) on
    /// the per-cycle paths without touching the cold record.
    pub op: Op,
    /// Slot generation, owned by the pool (bumped on release). Folded into
    /// the hot record so validating an `(id, gen)` reference and acting on
    /// the record are one cache access, not two.
    gen: u32,
}

/// The hot record must stay within half a cache line: the whole point of
/// the split. `align(32)` keeps exactly two records per line — none ever
/// straddles. (Compile-time; the `hot_record_fits_budget` test pins the
/// exact size so growth is a conscious decision.)
const _: () = assert!(core::mem::size_of::<HotInst>() <= 32);
/// A ready-list entry stays within half a line too: its `clear` bit
/// rides in what would otherwise be padding.
const _: () = assert!(core::mem::size_of::<crate::queue::ReadyEntry>() <= 32);

impl HotInst {
    /// Fresh hot half for a newly fetched instruction.
    pub fn new(thread: ThreadId, pipe: u8, seq: SeqNum, op: Op, wrong_path: bool) -> Self {
        debug_assert!(thread.0 < 16 && pipe < 16, "thread/pipe exceed their packed nibbles");
        HotInst {
            seq,
            ready_cycle: 0,
            dst: NO_DST,
            old: NO_DST,
            bits: InstState::InBuffer as u8 | if wrong_path { F_WRONG_PATH } else { 0 },
            tp: thread.0 | (pipe << 4),
            pending_srcs: 0,
            op,
            gen: 0,
        }
    }

    /// Slot generation (see [`InstPool::gen`]); captured alongside other
    /// hot fields so schedulers filing `(id, gen)` references do one
    /// access, not two.
    #[inline]
    pub fn gen(&self) -> u32 {
        self.gen
    }

    /// Hardware thread this instruction belongs to.
    #[inline]
    pub fn thread(&self) -> ThreadId {
        ThreadId(self.tp & 0xf)
    }

    /// Pipeline this instruction was steered to.
    #[inline]
    pub fn pipe(&self) -> u8 {
        self.tp >> 4
    }

    /// Destination physical register, if the instruction has one (set at
    /// rename).
    #[inline]
    pub fn dst_phys(&self) -> Option<PhysReg> {
        if self.dst == NO_DST {
            None
        } else {
            Some(PhysReg(self.dst))
        }
    }

    #[inline]
    pub fn set_dst_phys(&mut self, dst: Option<PhysReg>) {
        self.dst = match dst {
            Some(p) => {
                debug_assert_ne!(p.0, NO_DST, "PhysReg collides with the sentinel");
                p.0
            }
            None => NO_DST,
        };
    }

    /// Previous physical mapping of the destination architectural register
    /// (walk-back squash recovery; freed at commit).
    #[inline]
    pub fn old_phys(&self) -> Option<PhysReg> {
        if self.old == NO_DST {
            None
        } else {
            Some(PhysReg(self.old))
        }
    }

    #[inline]
    pub fn set_old_phys(&mut self, old: Option<PhysReg>) {
        self.old = match old {
            Some(p) => {
                debug_assert_ne!(p.0, NO_DST, "PhysReg collides with the sentinel");
                p.0
            }
            None => NO_DST,
        };
    }

    /// Current pipeline stage.
    #[inline]
    pub fn state(&self) -> InstState {
        match self.bits & STATE_MASK {
            0 => InstState::InBuffer,
            1 => InstState::Rename,
            2 => InstState::Waiting,
            3 => InstState::Executing,
            _ => InstState::Done,
        }
    }

    #[inline]
    pub fn set_state(&mut self, s: InstState) {
        self.bits = (self.bits & !STATE_MASK) | s as u8;
    }

    /// Fabricated down a mispredicted path?
    #[inline]
    pub fn is_wrong_path(&self) -> bool {
        self.bits & F_WRONG_PATH != 0
    }

    /// Load was satisfied by store-to-load forwarding.
    #[inline]
    pub fn is_forwarded(&self) -> bool {
        self.bits & F_FORWARDED != 0
    }

    #[inline]
    pub fn set_forwarded(&mut self) {
        self.bits |= F_FORWARDED;
    }

    /// Squashed while in flight; skipped and reclaimed on the processor's
    /// release schedule.
    #[inline]
    pub fn is_squashed(&self) -> bool {
        self.bits & F_SQUASHED != 0
    }

    #[inline]
    pub fn set_squashed(&mut self) {
        self.bits |= F_SQUASHED;
    }

    /// Direction/target misprediction detected at fetch against the oracle
    /// stream; acted upon when the branch resolves.
    #[inline]
    pub fn is_mispredicted(&self) -> bool {
        self.bits & F_MISPREDICTED != 0
    }

    #[inline]
    pub fn set_mispredicted(&mut self) {
        self.bits |= F_MISPREDICTED;
    }
}

/// The per-instruction half: read a handful of times over an instruction's
/// whole life (rename, issue's address capture for memory ops, branch
/// resolution, squash walk-back, commit), so it stays out of the per-cycle
/// stages' cache footprint. Line-aligned and exactly one 64-byte line, so
/// every cold access costs one cache line, never two. (The predictor
/// snapshot — conditional branches only — lives in the pool's third,
/// rarely-touched array to keep it that way.)
#[derive(Clone, Debug)]
#[repr(align(64))]
pub struct ColdInst {
    pub d: DynInst,

    // ---- rename ----
    /// Source physical registers. (Both destination mappings live in
    /// [`HotInst`], packed into its padding, so writeback and commit skip
    /// the cold record.)
    pub src_phys: [Option<PhysReg>; 2],
}

/// One line per cold access is part of the layout contract.
const _: () = assert!(core::mem::size_of::<ColdInst>() == 64);

impl ColdInst {
    /// Fresh cold half for a newly fetched instruction.
    pub fn new(d: DynInst) -> Self {
        ColdInst { d, src_phys: [None, None] }
    }
}

/// Slab of in-flight instructions, hot/cold split, with an intrusive free
/// list. Allocation-free at steady state; slot-reuse order (LIFO) and
/// generation bumping are layout-independent so statistics cannot drift.
pub struct InstPool {
    hot: Vec<HotInst>,
    cold: Vec<ColdInst>,
    /// Predictor snapshots, parallel to the other halves. Written at fetch
    /// and read at resolution for *conditional branches only*; every other
    /// instruction leaves its slot stale, so this array stays out of every
    /// non-branch path's cache footprint.
    snap: Vec<DirSnapshot>,
    free: Vec<u32>,
    live: usize,
}

impl InstPool {
    /// `capacity` should cover the worst-case in-flight population
    /// (ROBs + decoupling buffers + stage latches).
    pub fn new(capacity: usize) -> Self {
        InstPool {
            hot: Vec::with_capacity(capacity),
            cold: Vec::with_capacity(capacity),
            snap: Vec::with_capacity(capacity),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Insert a record, returning its id. Amortised O(1), allocation-free
    /// once the pool has grown to its steady-state size.
    pub fn alloc(&mut self, mut hot: HotInst, cold: ColdInst) -> InstId {
        self.live += 1;
        match self.free.pop() {
            Some(i) => {
                // The generation survives the slot's reuse: references to
                // the previous occupant must keep failing validation.
                hot.gen = self.hot[i as usize].gen;
                self.hot[i as usize] = hot;
                self.cold[i as usize] = cold;
                InstId(i)
            }
            None => {
                self.hot.push(hot);
                self.cold.push(cold);
                self.snap.push(DirSnapshot::default());
                InstId((self.hot.len() - 1) as u32)
            }
        }
    }

    /// Release a record for reuse, invalidating outstanding `(id, gen)`
    /// references.
    pub fn release(&mut self, id: InstId) {
        debug_assert!(self.live > 0);
        self.live -= 1;
        let g = &mut self.hot[id.0 as usize].gen;
        *g = g.wrapping_add(1);
        self.free.push(id.0);
    }

    /// Current generation of a slot. References captured before the slot's
    /// last release carry an older generation and must be ignored.
    #[inline]
    pub fn gen(&self, id: InstId) -> u32 {
        self.hot[id.0 as usize].gen
    }

    /// Per-cycle half: what the stage loops stream.
    #[inline]
    pub fn hot(&self, id: InstId) -> &HotInst {
        &self.hot[id.0 as usize]
    }

    #[inline]
    pub fn hot_mut(&mut self, id: InstId) -> &mut HotInst {
        &mut self.hot[id.0 as usize]
    }

    /// Per-instruction half: rename data, the fetched instruction, the
    /// predictor snapshot.
    #[inline]
    pub fn cold(&self, id: InstId) -> &ColdInst {
        &self.cold[id.0 as usize]
    }

    #[inline]
    pub fn cold_mut(&mut self, id: InstId) -> &mut ColdInst {
        &mut self.cold[id.0 as usize]
    }

    /// Both halves mutably, for the stages that legitimately rewrite both
    /// (rename, squash walk-back).
    #[inline]
    pub fn pair_mut(&mut self, id: InstId) -> (&mut HotInst, &mut ColdInst) {
        (&mut self.hot[id.0 as usize], &mut self.cold[id.0 as usize])
    }

    /// Predictor snapshot: conditional branches only (fetch writes it,
    /// resolution reads it; all other slots hold stale values).
    #[inline]
    pub fn snap(&self, id: InstId) -> &DirSnapshot {
        &self.snap[id.0 as usize]
    }

    #[inline]
    pub fn snap_mut(&mut self, id: InstId) -> &mut DirSnapshot {
        &mut self.snap[id.0 as usize]
    }

    /// Currently live records.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsmt_isa::{ArchReg, Op, Pc, StaticInst};

    fn mk(seq: u64) -> (HotInst, ColdInst) {
        let d = DynInst {
            pc: Pc(0x1000),
            sinst: StaticInst::alu(Op::IntAlu, ArchReg::int(1), [None, None]),
            addr: 0,
            ctrl: None,
        };
        (HotInst::new(ThreadId(0), 0, SeqNum(seq), Op::IntAlu, false), ColdInst::new(d))
    }

    fn alloc(p: &mut InstPool, seq: u64) -> InstId {
        let (h, c) = mk(seq);
        p.alloc(h, c)
    }

    #[test]
    fn hot_record_fits_budget() {
        // The split's contract: the streamed record stays within half a
        // 64-byte cache line. Growing it is a layout decision — revisit
        // the field set before bumping this bound.
        assert!(
            core::mem::size_of::<HotInst>() <= 32,
            "HotInst grew to {} bytes",
            core::mem::size_of::<HotInst>()
        );
        // Pin the exact size too, so incidental growth inside the budget
        // is also a conscious decision: exactly half a 64-byte line, and
        // 32-aligned so two records tile every line.
        assert_eq!(core::mem::size_of::<HotInst>(), 32);
        assert_eq!(core::mem::align_of::<HotInst>(), 32);
    }

    #[test]
    fn state_and_flags_pack_and_round_trip() {
        let (mut h, _) = mk(1);
        assert_eq!(h.state(), InstState::InBuffer);
        assert!(!h.is_wrong_path() && !h.is_forwarded() && !h.is_squashed());
        for s in [InstState::Rename, InstState::Waiting, InstState::Executing, InstState::Done] {
            h.set_state(s);
            assert_eq!(h.state(), s);
        }
        h.set_forwarded();
        h.set_squashed();
        h.set_mispredicted();
        assert!(h.is_forwarded() && h.is_squashed() && h.is_mispredicted());
        assert_eq!(h.state(), InstState::Done, "flags do not clobber the state");
        h.set_state(InstState::Waiting);
        assert!(h.is_forwarded() && h.is_squashed(), "state writes keep the flags");
        let wrong = HotInst::new(ThreadId(2), 1, SeqNum(9), Op::Load, true);
        assert!(wrong.is_wrong_path());
        assert_eq!(wrong.thread(), ThreadId(2));
        assert_eq!(wrong.op, Op::Load);
        assert_eq!(wrong.dst_phys(), None, "fresh record has no destination");
    }

    #[test]
    fn alloc_get_release_cycle() {
        let mut p = InstPool::new(8);
        let a = alloc(&mut p, 1);
        let b = alloc(&mut p, 2);
        assert_eq!(p.hot(a).seq, SeqNum(1));
        assert_eq!(p.hot(b).seq, SeqNum(2));
        assert_eq!(p.cold(a).d.pc, Pc(0x1000));
        assert_eq!(p.live(), 2);
        p.release(a);
        assert_eq!(p.live(), 1);
        // Slot reuse.
        let c = alloc(&mut p, 3);
        assert_eq!(c, a, "freed slot must be reused");
        assert_eq!(p.hot(c).seq, SeqNum(3));
    }

    #[test]
    fn no_growth_after_steady_state() {
        let mut p = InstPool::new(4);
        let ids: Vec<InstId> = (0..4).map(|i| alloc(&mut p, i)).collect();
        let cap = (p.hot.capacity(), p.cold.capacity());
        for &id in &ids {
            p.release(id);
        }
        for i in 0..100 {
            let id = alloc(&mut p, i);
            p.release(id);
        }
        assert_eq!(
            (p.hot.capacity(), p.cold.capacity()),
            cap,
            "steady-state reuse must not grow either slab"
        );
    }

    #[test]
    fn generations_invalidate_released_slots() {
        let mut p = InstPool::new(2);
        let a = alloc(&mut p, 1);
        let g0 = p.gen(a);
        p.release(a);
        assert_ne!(p.gen(a), g0, "release bumps the generation");
        let b = alloc(&mut p, 2);
        assert_eq!(b, a, "slot reused");
        assert_ne!(p.gen(b), g0, "reused slot keeps the bumped generation");
    }

    #[test]
    fn halves_stay_paired_through_reuse() {
        let mut p = InstPool::new(2);
        let a = alloc(&mut p, 1);
        p.hot_mut(a).set_state(InstState::Done);
        p.hot_mut(a).set_dst_phys(Some(PhysReg(7)));
        p.hot_mut(a).set_old_phys(Some(PhysReg(3)));
        p.cold_mut(a).src_phys = [Some(PhysReg(5)), None];
        let (h, c) = p.pair_mut(a);
        assert_eq!(h.state(), InstState::Done);
        assert_eq!(h.dst_phys(), Some(PhysReg(7)));
        assert_eq!(h.old_phys(), Some(PhysReg(3)));
        assert_eq!(c.src_phys[0], Some(PhysReg(5)));
        p.release(a);
        let b = alloc(&mut p, 2);
        assert_eq!(b, a);
        assert_eq!(p.hot(b).state(), InstState::InBuffer, "reused hot half is fresh");
        assert_eq!(p.hot(b).dst_phys(), None, "reused hot half has no destination");
        assert_eq!(p.hot(b).old_phys(), None, "reused hot half has no old mapping");
        assert_eq!(p.cold(b).src_phys, [None, None], "reused cold half is fresh");
    }

    #[test]
    fn dst_phys_round_trips_through_the_sentinel() {
        let (mut h, _) = mk(1);
        assert_eq!(h.dst_phys(), None);
        h.set_dst_phys(Some(PhysReg(0)));
        assert_eq!(h.dst_phys(), Some(PhysReg(0)));
        h.set_dst_phys(Some(PhysReg(511)));
        assert_eq!(h.dst_phys(), Some(PhysReg(511)));
        h.set_dst_phys(None);
        assert_eq!(h.dst_phys(), None);
    }
}
