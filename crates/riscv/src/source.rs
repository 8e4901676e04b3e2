//! [`RvTraceSource`]: the emulator as an endless [`TraceSource`].
//!
//! Each instruction [`fill`](TraceSource::fill) generates is one
//! architecturally executed instruction, reported in the simulator's
//! dynamic vocabulary: the instruction's laid-out PC, its static classification,
//! the *real* effective address (relocated into this thread's address
//! space), and the *real* branch outcome. When execution reaches the
//! synthetic restart jump the machine resets, so the stream is an endless
//! sequence of identical laps — deterministic by construction, which the
//! campaign result cache requires.
//!
//! Wrong-path addresses come from a dedicated RNG (exactly like the
//! synthetic stream's `wp_rng`), so mis-speculated work can never perturb
//! the architectural lap.

use std::sync::Arc;

use hdsmt_isa::{MemGen, Pc, Program};
use hdsmt_trace::{ChunkBuf, CtrlOutcome, DynInst, TraceSource};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::asm::RvInst;
use crate::emu::{pc_value_of, Machine, MEM_BYTES};
use crate::translate::RvImage;

/// Bytes of the hot stack window used for wrong-path stack-class
/// fabrication (mirrors the synthetic stream's hot-frame size).
const WP_STACK_BYTES: u64 = 2048;

/// A deterministic dynamic-instruction source executing one RV64I(+M)
/// program image.
pub struct RvTraceSource {
    image: Arc<RvImage>,
    machine: Machine,
    wp_rng: SmallRng,
    /// Address-space base of the code image (per-thread, page-colored).
    code_start: u64,
    /// Address-space base of the data memory.
    data_start: u64,
    laps: u64,
}

/// splitmix-style page coloring, deterministic per (asid, salt): spreads
/// co-scheduled threads across cache sets the way an OS page allocator
/// would (same scheme as the synthetic stream).
fn color(asid: u8, salt: u64) -> u64 {
    let mut z = (asid as u64 * 7 + salt).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z % 512) * 8192
}

impl RvTraceSource {
    /// Create a source over `image`. `seed` feeds only the wrong-path
    /// RNG (the architectural lap is seed-independent); `asid`
    /// distinguishes the address spaces of co-scheduled threads.
    pub fn new(image: Arc<RvImage>, seed: u64, asid: u8) -> Self {
        let asid_base = (asid as u64 + 1) << 40;
        RvTraceSource {
            machine: Machine::new(),
            wp_rng: SmallRng::seed_from_u64(seed ^ 0x52_5653_3634), // "RV64"
            code_start: asid_base + color(asid, 997),
            data_start: asid_base + 0x2000_0000 + color(asid, 1),
            laps: 0,
            image,
        }
    }

    /// Completed architectural laps (program runs).
    #[inline]
    pub fn laps(&self) -> u64 {
        self.laps
    }
}

impl RvTraceSource {
    /// Architecturally execute one instruction and report it (the body of
    /// the [`TraceSource::fill`] loop). `image` is the caller's borrow of
    /// `self.image`, hoisted so the loop pays the `Arc` indirection once
    /// per chunk instead of once per instruction.
    #[inline]
    fn emit_with(&mut self, image: &RvImage) -> DynInst {
        let idx = self.machine.next_idx;
        let sinst = image.sinsts[idx];
        let pc = Pc(pc_value_of(idx));
        let step = self.machine.step(&image.insts, idx);

        let ctrl = match image.insts[idx] {
            RvInst::Branch { .. } => {
                let taken = step.taken.expect("branch steps report taken");
                Some(CtrlOutcome {
                    taken,
                    target: if taken { Pc(pc_value_of(step.next)) } else { pc.next() },
                })
            }
            RvInst::Jump { .. } | RvInst::Call { .. } | RvInst::Ret => {
                Some(CtrlOutcome { taken: true, target: Pc(pc_value_of(step.next)) })
            }
            _ => None,
        };
        let addr = match step.vaddr {
            // Relocate into this thread's address space, masked the same
            // way the emulator masks its flat memory.
            Some(v) => self.data_start + (v & (MEM_BYTES as u64 - 1)),
            None => 0,
        };

        if idx == image.restart_idx {
            // The restart jump was just emitted (a real taken control
            // transfer back to the entry): start the next identical lap.
            self.machine.reset();
            self.laps += 1;
        }
        DynInst { pc, sinst, addr, ctrl }
    }
}

impl TraceSource for RvTraceSource {
    /// Run the emulator loop for a whole chunk per trait-object crossing:
    /// the dispatch is amortized, the image borrow hoisted, and the
    /// emulator stays hot in one tight loop instead of being re-entered
    /// from the fetch engine per instruction.
    fn fill(&mut self, buf: &mut ChunkBuf) {
        let image = Arc::clone(&self.image);
        for _ in 0..buf.room() {
            buf.push(self.emit_with(&image));
        }
    }

    fn wrong_path_addr(&mut self, g: MemGen) -> u64 {
        let off = match g {
            MemGen::Stack => {
                MEM_BYTES as u64 - WP_STACK_BYTES + self.wp_rng.gen_range(0..WP_STACK_BYTES / 8) * 8
            }
            MemGen::Stride { .. } | MemGen::Random => {
                self.wp_rng.gen_range(0..MEM_BYTES as u64 / 8) * 8
            }
        };
        self.data_start + off
    }

    #[inline]
    fn program(&self) -> &Arc<Program> {
        &self.image.program
    }

    #[inline]
    fn code_base(&self) -> u64 {
        self.code_start
    }

    fn code_range(&self) -> (u64, u64) {
        (self.code_start + Program::BASE_PC.0, self.image.insts.len() as u64 * Pc::INST_BYTES)
    }

    fn region_layout(&self) -> [(u64, u64); 4] {
        [(self.data_start, MEM_BYTES as u64), (0, 0), (0, 0), (0, 0)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_name;

    fn source(name: &str, seed: u64, asid: u8) -> RvTraceSource {
        RvTraceSource::new(by_name(name).unwrap(), seed, asid)
    }

    #[test]
    fn stream_is_deterministic_and_seed_independent_architecturally() {
        let (mut a, mut abuf) = (source("sum", 1, 0), ChunkBuf::new());
        // Different seed: same correct path.
        let (mut b, mut bbuf) = (source("sum", 99, 0), ChunkBuf::new());
        for i in 0..30_000 {
            assert_eq!(abuf.next_from(&mut a), bbuf.next_from(&mut b), "diverged at {i}");
        }
    }

    #[test]
    fn chunked_fill_matches_per_call_generation_across_laps() {
        // A capacity-1 chunk executes one instruction per refill: the
        // per-call reference. Larger capacities must emit the same
        // stream, across the lap-boundary machine reset, and the same
        // wrong-path addresses after each episode's view sync.
        for cap in [3, 7, 48, 64] {
            let (mut a, mut abuf) = (source("fib", 2, 0), ChunkBuf::with_capacity(cap));
            let (mut b, mut bbuf) = (source("fib", 2, 0), ChunkBuf::with_capacity(1));
            for n in 1..=30_000u64 {
                assert_eq!(abuf.next_from(&mut a), bbuf.next_from(&mut b), "cap {cap}, inst {n}");
                if n.is_multiple_of(97) {
                    a.sync_wrong_path_view(abuf.len() as u64);
                    b.sync_wrong_path_view(bbuf.len() as u64);
                    for g in [MemGen::Stack, MemGen::Random] {
                        assert_eq!(a.wrong_path_addr(g), b.wrong_path_addr(g), "cap {cap}");
                    }
                }
            }
            assert!(b.laps() > 0, "30k instructions must cross a lap boundary");
        }
    }

    #[test]
    fn wrong_path_does_not_perturb_the_lap() {
        let (mut a, mut abuf) = (source("sort", 5, 0), ChunkBuf::new());
        let (mut b, mut bbuf) = (source("sort", 5, 0), ChunkBuf::new());
        for i in 0..20_000 {
            if i % 7 == 0 {
                for _ in 0..3 {
                    let _ = a.wrong_path_addr(MemGen::Random);
                    let _ = a.wrong_path_addr(MemGen::Stack);
                }
            }
            assert_eq!(abuf.next_from(&mut a), bbuf.next_from(&mut b), "diverged at {i}");
        }
    }

    #[test]
    fn pc_chain_is_continuous_across_restarts() {
        // The defining stream invariant: each instruction's next_pc is
        // the PC of the next emitted instruction — including across the
        // lap boundary (the restart jump).
        let (mut s, mut buf) = (source("fib", 3, 0), ChunkBuf::with_capacity(1));
        let mut prev = buf.next_from(&mut s);
        let mut restarts = 0;
        for _ in 0..60_000 {
            let d = buf.next_from(&mut s);
            assert_eq!(prev.next_pc(), d.pc, "discontinuity after {:?}", prev.pc);
            if d.pc == Program::BASE_PC && prev.sinst.op == hdsmt_isa::Op::Jump {
                restarts += 1;
            }
            prev = d;
        }
        assert!(restarts > 0, "the program must wrap around at least once");
        // The final restart jump may be the last emitted instruction, in
        // which case its landing was not observed.
        assert!(s.laps() == restarts || s.laps() == restarts + 1);
    }

    #[test]
    fn ctrl_outcomes_match_op_classes() {
        let (mut s, mut buf) = (source("prime", 2, 0), ChunkBuf::new());
        for _ in 0..40_000 {
            let d = buf.next_from(&mut s);
            assert_eq!(d.sinst.op.is_control(), d.ctrl.is_some(), "{:?}", d.sinst.op);
            if let Some(c) = d.ctrl {
                if !c.taken {
                    assert_eq!(c.target, d.pc.next(), "not-taken must fall through");
                }
            }
            if d.sinst.op.is_mem() {
                assert_ne!(d.addr, 0);
            } else {
                assert_eq!(d.addr, 0);
            }
        }
    }

    #[test]
    fn addresses_live_in_the_declared_region_and_asids_differ() {
        let (mut a, mut abuf) = (source("matmul", 1, 0), ChunkBuf::new());
        let (mut b, mut bbuf) = (source("matmul", 1, 3), ChunkBuf::new());
        let [region_a, ..] = a.region_layout();
        for _ in 0..20_000 {
            let (x, y) = (abuf.next_from(&mut a), bbuf.next_from(&mut b));
            if x.sinst.op.is_mem() {
                assert!(
                    (region_a.0..region_a.0 + region_a.1).contains(&x.addr),
                    "address {:#x} outside the data region",
                    x.addr
                );
                assert_ne!(x.addr >> 40, y.addr >> 40, "asids must not share address spaces");
            }
        }
        assert_ne!(a.code_base(), b.code_base());
    }

    #[test]
    fn returns_target_their_call_sites() {
        let (mut s, mut buf) = (source("fib", 7, 0), ChunkBuf::new());
        let mut stack: Vec<Pc> = Vec::new();
        for _ in 0..50_000 {
            let d = buf.next_from(&mut s);
            match d.sinst.op {
                hdsmt_isa::Op::Call => stack.push(d.pc.next()),
                hdsmt_isa::Op::Return => {
                    let want = stack.pop().expect("return without call");
                    assert_eq!(d.ctrl.unwrap().target, want);
                }
                hdsmt_isa::Op::Jump if d.ctrl.unwrap().target == Program::BASE_PC => {
                    // Lap boundary: the call stack must be balanced.
                    assert!(stack.is_empty(), "unbalanced calls at restart");
                }
                _ => {}
            }
        }
    }
}
