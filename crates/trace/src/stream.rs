//! The dynamic instruction stream: a deterministic walk of a synthetic
//! program.
//!
//! One [`TraceStream`] per hardware thread context. The walk is infinite
//! (programs are closed rings) and fully determined by the seed; the
//! processor model consumes instructions at fetch and replays squashed
//! correct-path instructions itself (FLUSH recovery), so the stream never
//! needs to rewind.
//!
//! Two RNGs keep speculation honest: `rng` drives architecturally-correct
//! outcomes and addresses, while `wp_rng` fabricates addresses for
//! wrong-path instructions, so the amount of mis-speculated work can never
//! perturb the correct path (verified by tests).

use std::sync::Arc;

use hdsmt_isa::{BlockId, MemGen, Pc, Program, Terminator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::chunk::ChunkBuf;
use crate::dyninst::{CtrlOutcome, DynInst};
use crate::profile::BenchProfile;
use crate::source::TraceSource;

/// Maximum modelled call depth (the generator only produces depth-1 calls;
/// the cap is pure robustness against malformed inputs).
const CALL_DEPTH: usize = 64;

/// Virtual-address layout of one synthetic process.
const STACK_BASE: u64 = 0x7F00_0000;
const REGION_BASES: [u64; 4] = [STACK_BASE, 0x2000_0000, 0x4000_0000, 0x6000_0000];
/// Hot stack-frame size: far below L1 capacity, so stack traffic ~always
/// hits.
const STACK_BYTES: u64 = 2048;
/// Strided scans traverse a bounded window repeatedly (loop blocking /
/// array reuse, as real code does) rather than streaming the whole region.
const STRIDE_WINDOW: u64 = 16 * 1024;
/// Probability that a completed window lap relocates the window elsewhere
/// in the region (fresh data → compulsory misses at a controlled rate).
const WINDOW_JUMP_P: f32 = 0.10;
/// Random accesses are hot-skewed (the 90/10 law): this fraction of draws
/// lands in the region's hot prefix of `1/HOT_DIVISOR` of its size. The
/// tail keeps the TLB/L2 pressure that makes big-region benchmarks
/// memory-bound without the unrealistic uniform-thrash of the full region.
const HOT_P: f32 = 0.75;
const HOT_DIVISOR: u64 = 8;
/// Instructions of cursor-mutation history kept for
/// [`TraceSource::sync_wrong_path_view`] rewinds — comfortably above any
/// sane chunk capacity (the default is 64).
const WP_VIEW_HORIZON: u64 = 4096;

/// Deterministic dynamic-instruction source for one thread.
pub struct TraceStream {
    program: Arc<Program>,
    rng: SmallRng,
    wp_rng: SmallRng,
    cur: BlockId,
    off: usize,
    /// Per-block counted-loop progress.
    trips: Vec<u16>,
    call_stack: Vec<BlockId>,
    /// Per-region strided-scan state: (window base, cursor within window).
    cursors: [(u64, u64); 4],
    region_size: [u64; 4],
    /// Per-(thread, region) start addresses, page-colored so co-running
    /// threads do not alias set-for-set in the physically-indexed caches
    /// (the job an OS page allocator does).
    region_start: [u64; 4],
    /// Undo log of scan-cursor mutations:
    /// `(instruction index that mutated, region, prior state)`. Lets
    /// `sync_wrong_path_view` reconstruct the cursors as of any recently
    /// consumed instruction, so wrong-path fabrication never sees the
    /// generation frontier the chunk buffer runs ahead by. Pruned to a
    /// bounded horizon.
    cursor_log: std::collections::VecDeque<(u64, u8, (u64, u64))>,
    /// Frozen cursor view for the current wrong-path episode (`None` ⇒
    /// the consumption point is the frontier; peek live cursors).
    wp_view: Option<[(u64, u64); 4]>,
    code_start: u64,
    /// Dynamic heap-region selection weights (from the benchmark profile).
    region_weights: [f32; 3],
    /// Cached `region_weights` sum (same f32 fold, computed once).
    region_weight_total: f32,
    /// Instructions generated so far: the stamp of the undo log.
    emitted: u64,
}

impl TraceStream {
    /// Create a stream over `program` with the region geometry of `profile`.
    /// `asid` distinguishes address spaces of co-scheduled threads.
    pub fn new(program: Arc<Program>, profile: &BenchProfile, seed: u64, asid: u8) -> Self {
        let n = program.blocks().len();
        let region_size = [
            STACK_BYTES,
            profile.ws_kb[0] as u64 * 1024,
            profile.ws_kb[1] as u64 * 1024,
            profile.ws_kb[2] as u64 * 1024,
        ];
        let entry = program.entry();
        let asid_base = (asid as u64 + 1) << 40;
        // Page-colored layout: deterministic per (asid, region), 8 KB
        // granular, up to 4 MB of shift.
        let color = |r: u64| -> u64 {
            let mut z = (asid as u64 * 4 + r).wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z % 512) * 8192
        };
        let mut region_start = [0u64; 4];
        for (r, s) in region_start.iter_mut().enumerate() {
            *s = asid_base + REGION_BASES[r] + color(r as u64);
        }
        TraceStream {
            program,
            rng: SmallRng::seed_from_u64(seed ^ 0x243f_6a88_85a3_08d3),
            wp_rng: SmallRng::seed_from_u64(seed ^ 0x1319_8a2e_0370_7344),
            cur: entry,
            off: 0,
            trips: vec![0; n],
            call_stack: Vec::with_capacity(CALL_DEPTH),
            cursors: [(0, 0); 4],
            region_size,
            region_start,
            cursor_log: std::collections::VecDeque::new(),
            wp_view: None,
            code_start: asid_base + color(997),
            region_weights: profile.region_weights,
            region_weight_total: profile.region_weights.iter().sum(),
            emitted: 0,
        }
    }

    /// Weighted draw of a heap region (1–3) from the profile distribution.
    /// `total` is the caller's cached weight sum (identical f32 fold).
    fn draw_region(weights: [f32; 3], total: f32, rng: &mut SmallRng) -> usize {
        let mut x = rng.gen::<f32>() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i + 1;
            }
            x -= w;
        }
        3
    }

    /// Draw the correct-path effective address for generator `g`. Scan
    /// cursor mutations are logged (with the index of the mutating
    /// instruction) so `sync_wrong_path_view` can rewind to a consumption
    /// point.
    fn correct_addr(&mut self, g: MemGen) -> u64 {
        match g {
            MemGen::Stack => {
                let off = self.rng.gen_range(0..STACK_BYTES / 8) * 8;
                self.region_start[0] + off
            }
            MemGen::Stride { stride } => {
                let r =
                    Self::draw_region(self.region_weights, self.region_weight_total, &mut self.rng);
                let window = STRIDE_WINDOW.min(self.region_size[r]);
                let (mut base, mut cursor) = self.cursors[r];
                self.cursor_log.push_back((self.emitted, r as u8, (base, cursor)));
                cursor += stride as u64;
                if cursor >= window {
                    // Lap complete: usually rescan (temporal reuse), but
                    // occasionally move on to fresh data.
                    cursor = 0;
                    if self.rng.gen::<f32>() < WINDOW_JUMP_P && self.region_size[r] > window {
                        let slots = self.region_size[r] / window;
                        base = self.rng.gen_range(0..slots) * window;
                    }
                }
                self.cursors[r] = (base, cursor);
                self.region_start[r] + base + cursor
            }
            MemGen::Random => {
                let r =
                    Self::draw_region(self.region_weights, self.region_weight_total, &mut self.rng);
                let span = if self.rng.gen::<f32>() < HOT_P {
                    (self.region_size[r] / HOT_DIVISOR).max(8)
                } else {
                    self.region_size[r]
                };
                let off = self.rng.gen_range(0..span / 8) * 8;
                self.region_start[r] + off
            }
        }
    }

    /// Resolve the terminator of `block` (whose control instruction sits at
    /// `pc`), returning the next block and the control outcome (if the
    /// terminator has a control instruction).
    fn resolve_terminator(&mut self, block: BlockId, pc: Pc) -> (BlockId, Option<CtrlOutcome>) {
        // Clone of the terminator data we need, to appease the borrow of
        // `self.program` while we mutate walk state.
        let term = self.program.block(block).term.clone();
        match term {
            Terminator::FallThrough { next } => (next, None),
            Terminator::Loop { back, exit, trip } => {
                let c = &mut self.trips[block.index()];
                if *c < trip {
                    *c += 1;
                    let target = self.program.block(back).start;
                    (back, Some(CtrlOutcome { taken: true, target }))
                } else {
                    *c = 0;
                    (exit, Some(CtrlOutcome { taken: false, target: pc.next() }))
                }
            }
            Terminator::Cond { taken, not_taken, p_taken } => {
                if self.rng.gen::<f32>() < p_taken {
                    let target = self.program.block(taken).start;
                    (taken, Some(CtrlOutcome { taken: true, target }))
                } else {
                    (not_taken, Some(CtrlOutcome { taken: false, target: pc.next() }))
                }
            }
            Terminator::Jump { target } => {
                let t = self.program.block(target).start;
                (target, Some(CtrlOutcome { taken: true, target: t }))
            }
            Terminator::Call { callee, ret_to } => {
                if self.call_stack.len() < CALL_DEPTH {
                    self.call_stack.push(ret_to);
                }
                let t = self.program.block(callee).start;
                (callee, Some(CtrlOutcome { taken: true, target: t }))
            }
            Terminator::Return => {
                let target = self.call_stack.pop().unwrap_or_else(|| self.program.entry());
                let t = self.program.block(target).start;
                (target, Some(CtrlOutcome { taken: true, target: t }))
            }
            Terminator::Indirect { targets } => {
                let total: f32 = targets.iter().map(|(_, w)| w).sum();
                let mut x = self.rng.gen::<f32>() * total;
                let mut chosen = targets[targets.len() - 1].0;
                for (t, w) in &targets {
                    if x < *w {
                        chosen = *t;
                        break;
                    }
                    x -= w;
                }
                let t = self.program.block(chosen).start;
                (chosen, Some(CtrlOutcome { taken: true, target: t }))
            }
        }
    }
}

/// The synthetic stream is one of the two [`TraceSource`] front-ends (the
/// other is the RV64I emulator in `hdsmt-riscv`).
impl TraceSource for TraceStream {
    /// Block-at-a-time generation: one block lookup per basic block, with
    /// the per-instruction work reduced to the address draw and the
    /// record write.
    fn fill(&mut self, buf: &mut ChunkBuf) {
        // Keep the cursor-undo log bounded: nothing older than the
        // rewind horizon can ever be asked for again.
        while self
            .cursor_log
            .front()
            .is_some_and(|&(stamp, _, _)| stamp + WP_VIEW_HORIZON < self.emitted)
        {
            self.cursor_log.pop_front();
        }
        // A second handle on the program so block borrows don't conflict
        // with the RNG/cursor state `correct_addr` mutates.
        let program = Arc::clone(&self.program);
        while buf.room() > 0 {
            let cur = self.cur;
            let b = program.block(cur);
            let len = b.len();
            // Body instructions (everything before the block's last slot).
            while self.off + 1 < len && buf.room() > 0 {
                let sinst = b.insts[self.off];
                let pc = b.pc_at(self.off);
                let addr = match sinst.mem {
                    Some(g) => self.correct_addr(g),
                    None => 0,
                };
                self.off += 1;
                self.emitted += 1;
                buf.push(DynInst { pc, sinst, addr, ctrl: None });
            }
            if buf.room() == 0 {
                return;
            }
            // The block's last instruction resolves the terminator.
            let sinst = b.insts[self.off];
            let pc = b.pc_at(self.off);
            let addr = match sinst.mem {
                Some(g) => self.correct_addr(g),
                None => 0,
            };
            let (next, ctrl) = self.resolve_terminator(cur, pc);
            self.cur = next;
            self.off = 0;
            self.emitted += 1;
            buf.push(DynInst { pc, sinst, addr, ctrl });
        }
    }

    /// Fabricate an effective address for a *wrong-path* instruction with
    /// memory-generator `g`. Uses the dedicated wrong-path RNG and never
    /// mutates scan cursors, so correct-path determinism is preserved no
    /// matter how much mis-speculated work the pipeline performs.
    fn wrong_path_addr(&mut self, g: MemGen) -> u64 {
        match g {
            MemGen::Stack => {
                let off = self.wp_rng.gen_range(0..STACK_BYTES / 8) * 8;
                self.region_start[0] + off
            }
            MemGen::Stride { stride } => {
                let r = Self::draw_region(
                    self.region_weights,
                    self.region_weight_total,
                    &mut self.wp_rng,
                );
                // Peek the scan state without committing it — through the
                // consumption-point view when a chunk has run the live
                // cursors ahead of the machine.
                let (base, cursor) = match self.wp_view {
                    Some(view) => view[r],
                    None => self.cursors[r],
                };
                let window = STRIDE_WINDOW.min(self.region_size[r]);
                let next = base + (cursor + stride as u64) % window;
                self.region_start[r] + next
            }
            MemGen::Random => {
                let r = Self::draw_region(
                    self.region_weights,
                    self.region_weight_total,
                    &mut self.wp_rng,
                );
                let span = if self.wp_rng.gen::<f32>() < HOT_P {
                    (self.region_size[r] / HOT_DIVISOR).max(8)
                } else {
                    self.region_size[r]
                };
                let off = self.wp_rng.gen_range(0..span / 8) * 8;
                self.region_start[r] + off
            }
        }
    }

    /// Freeze the wrong-path cursor view at the consumption point: the
    /// machine has consumed everything generated except the last
    /// `unconsumed` instructions (its chunk backlog).
    fn sync_wrong_path_view(&mut self, unconsumed: u64) {
        if unconsumed == 0 {
            self.wp_view = None;
            return;
        }
        debug_assert!(unconsumed <= WP_VIEW_HORIZON, "chunk backlog outran the undo log");
        let consumed = self.emitted - unconsumed;
        let mut view = self.cursors;
        // Newest-to-oldest: the final write per region is its *oldest*
        // unconsumed mutation's prior state — the state at `consumed`.
        for &(stamp, r, prev) in self.cursor_log.iter().rev() {
            if stamp < consumed {
                break; // stamps ascend: everything earlier is consumed
            }
            view[r as usize] = prev;
        }
        self.wp_view = Some(view);
    }

    #[inline]
    fn program(&self) -> &Arc<Program> {
        &self.program
    }

    #[inline]
    fn code_base(&self) -> u64 {
        self.code_start
    }

    fn code_range(&self) -> (u64, u64) {
        let start = self.program.block(self.program.entry()).start;
        (self.code_start + start.0, self.program.len_insts() * Pc::INST_BYTES)
    }

    /// The stack and the three heap regions.
    fn region_layout(&self) -> [(u64, u64); 4] {
        let mut out = [(0, 0); 4];
        for (i, o) in out.iter_mut().enumerate() {
            *o = (self.region_start[i], self.region_size[i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use hdsmt_isa::{ArchReg, BasicBlock, Op, StaticInst};

    fn stream_for(name: &str, seed: u64, asid: u8) -> TraceStream {
        let p = spec::by_name(name).unwrap();
        let prog = spec::program(name).unwrap();
        TraceStream::new(prog, p, seed, asid)
    }

    #[test]
    fn deterministic_replay() {
        let (mut a, mut abuf) = (stream_for("gzip", 11, 0), ChunkBuf::new());
        let (mut b, mut bbuf) = (stream_for("gzip", 11, 0), ChunkBuf::new());
        for _ in 0..20_000 {
            assert_eq!(abuf.next_from(&mut a), bbuf.next_from(&mut b));
        }
        assert_eq!(a.emitted - abuf.len() as u64, 20_000);
    }

    #[test]
    fn block_at_a_time_fill_matches_per_call_generation() {
        // A capacity-1 chunk generates one instruction per refill: the
        // per-call reference. Larger capacities land refills on every
        // possible offset within a block and must emit the same stream.
        for cap in [3, 7, 48, 64] {
            let (mut a, mut abuf) = (stream_for("gcc", 17, 1), ChunkBuf::with_capacity(cap));
            let (mut b, mut bbuf) = (stream_for("gcc", 17, 1), ChunkBuf::with_capacity(1));
            for n in 0..20_000 {
                assert_eq!(abuf.next_from(&mut a), bbuf.next_from(&mut b), "cap {cap}, inst {n}");
            }
            assert_eq!(a.emitted - abuf.len() as u64, b.emitted);
        }
    }

    #[test]
    fn synced_wrong_path_view_matches_per_call_generation() {
        // A chunked consumer that anchors the wrong-path view at each
        // episode start must fabricate exactly the addresses the per-call
        // reference sees, even though its generation frontier runs a
        // chunk ahead of the machine.
        let g = MemGen::Stride { stride: 64 };
        for cap in [3, 7, 48, 64] {
            let (mut per_call, mut pbuf) = (stream_for("mcf", 23, 0), ChunkBuf::with_capacity(1));
            let (mut chunked, mut cbuf) = (stream_for("mcf", 23, 0), ChunkBuf::with_capacity(cap));
            for consumed in 1..=30_000u64 {
                assert_eq!(cbuf.next_from(&mut chunked), pbuf.next_from(&mut per_call));
                if consumed.is_multiple_of(97) {
                    // Wrong-path episode opens at this instruction.
                    chunked.sync_wrong_path_view(cbuf.len() as u64);
                    per_call.sync_wrong_path_view(pbuf.len() as u64);
                    for _ in 0..4 {
                        assert_eq!(
                            chunked.wrong_path_addr(g),
                            per_call.wrong_path_addr(g),
                            "cap {cap}: stride fabrication diverged at inst {consumed}"
                        );
                        assert_eq!(
                            chunked.wrong_path_addr(MemGen::Random),
                            per_call.wrong_path_addr(MemGen::Random)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wrong_path_does_not_perturb_correct_path() {
        let (mut a, mut abuf) = (stream_for("vpr", 3, 0), ChunkBuf::new());
        let (mut b, mut bbuf) = (stream_for("vpr", 3, 0), ChunkBuf::new());
        let g = MemGen::Random;
        for i in 0..10_000 {
            if i % 3 == 0 {
                // Arbitrary amounts of wrong-path traffic on `a` only.
                for _ in 0..5 {
                    let _ = a.wrong_path_addr(g);
                    let _ = a.wrong_path_addr(MemGen::Stack);
                }
            }
            assert_eq!(abuf.next_from(&mut a), bbuf.next_from(&mut b), "diverged at {i}");
        }
    }

    #[test]
    fn control_outcomes_are_consistent() {
        let (mut s, mut buf) = (stream_for("gcc", 5, 0), ChunkBuf::new());
        for _ in 0..50_000 {
            let d = buf.next_from(&mut s);
            assert_eq!(d.sinst.op.is_control(), d.ctrl.is_some(), "{:?}", d.sinst.op);
            if let Some(c) = d.ctrl {
                if !c.taken {
                    assert_eq!(c.target, d.pc.next(), "not-taken must fall through");
                } else {
                    assert_ne!(c.target, Pc(0));
                }
            }
        }
    }

    #[test]
    fn addresses_live_in_declared_regions() {
        let (mut s, mut buf) = (stream_for("mcf", 9, 3), ChunkBuf::new());
        assert_eq!(s.code_base() >> 40, 4, "asid 3 occupies the fourth address-space slot");
        let layout = s.region_layout();
        for _ in 0..50_000 {
            let d = buf.next_from(&mut s);
            if d.sinst.op.is_mem() {
                assert_eq!(d.addr & 7, 0, "addresses are 8-byte aligned");
                let ok =
                    layout.iter().any(|&(start, bytes)| (start..start + bytes).contains(&d.addr));
                assert!(ok, "address {:#x} outside every region", d.addr);
            }
        }
    }

    #[test]
    fn loop_pattern_taken_trip_times() {
        // Hand-built: b0 body+loop(trip=3) -> b1 jump back to b0.
        let alu = StaticInst::alu(Op::IntAlu, ArchReg::int(1), [Some(ArchReg::int(2)), None]);
        let b0 = BasicBlock {
            id: BlockId(0),
            start: Pc(0),
            insts: vec![alu, StaticInst::control(Op::CondBranch, Some(ArchReg::int(1)))],
            term: Terminator::Loop { back: BlockId(0), exit: BlockId(1), trip: 3 },
        };
        let b1 = BasicBlock {
            id: BlockId(1),
            start: Pc(0),
            insts: vec![alu, StaticInst::control(Op::Jump, None)],
            term: Terminator::Jump { target: BlockId(0) },
        };
        let prog = Arc::new(Program::build(vec![b0, b1], BlockId(0)).unwrap());
        let profile = spec::by_name("gzip").unwrap();
        let (mut s, mut buf) = (TraceStream::new(prog, profile, 1, 0), ChunkBuf::new());
        let mut outcomes = Vec::new();
        for _ in 0..40 {
            let d = buf.next_from(&mut s);
            if d.sinst.op == Op::CondBranch {
                outcomes.push(d.ctrl.unwrap().taken);
            }
        }
        // Pattern must be T T T NT repeating.
        for chunk in outcomes.chunks_exact(4) {
            assert_eq!(chunk, &[true, true, true, false]);
        }
    }

    #[test]
    fn calls_return_to_call_site() {
        let (mut s, mut buf) = (stream_for("vortex", 21, 0), ChunkBuf::new());
        let mut expected_returns: Vec<Pc> = Vec::new();
        for _ in 0..200_000 {
            let d = buf.next_from(&mut s);
            match d.sinst.op {
                Op::Call => {
                    // Architectural return address: target of the matching
                    // return is the ret_to block, recorded via the program.
                    let (b, _) = s.program().lookup(d.pc).unwrap();
                    if let Terminator::Call { ret_to, .. } = b.term {
                        expected_returns.push(s.program().block(ret_to).start);
                    } else {
                        panic!("call not at a call terminator");
                    }
                }
                Op::Return => {
                    let want = expected_returns.pop().expect("return without a call");
                    assert_eq!(d.ctrl.unwrap().target, want);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn distinct_asids_never_alias() {
        let (mut a, mut abuf) = (stream_for("gzip", 1, 0), ChunkBuf::new());
        let (mut b, mut bbuf) = (stream_for("gzip", 1, 1), ChunkBuf::new());
        for _ in 0..5_000 {
            let (x, y) = (abuf.next_from(&mut a), bbuf.next_from(&mut b));
            if x.sinst.op.is_mem() {
                assert_ne!(x.addr, y.addr);
                assert_ne!(x.addr >> 40, y.addr >> 40);
            }
        }
    }

    #[test]
    fn dynamic_mix_roughly_matches_profile() {
        let p = spec::by_name("gzip").unwrap();
        let (mut s, mut buf) = (stream_for("gzip", 2, 0), ChunkBuf::new());
        let n = 200_000;
        let mut loads = 0u64;
        let mut branches = 0u64;
        for _ in 0..n {
            let d = buf.next_from(&mut s);
            if d.sinst.op.is_load() {
                loads += 1;
            }
            if d.sinst.op.is_control() {
                branches += 1;
            }
        }
        let load_frac = loads as f32 / n as f32;
        // Dynamic load fraction tracks the knob over body instructions
        // (branch terminators dilute it slightly).
        assert!((load_frac - p.frac_load * (1.0 - branches as f32 / n as f32)).abs() < 0.05);
        // Synthetic SPECint has the usual branch density ballpark.
        let br_frac = branches as f32 / n as f32;
        assert!((0.05..0.30).contains(&br_frac), "branch fraction {br_frac}");
    }
}
