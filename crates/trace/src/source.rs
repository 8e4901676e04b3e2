//! The [`TraceSource`] abstraction: anything that can feed the processor
//! model a deterministic dynamic instruction stream.
//!
//! Two front-ends implement it today:
//!
//! * [`crate::TraceStream`] — the statistically synthesized SPECint2000
//!   benchmark models (this crate);
//! * `hdsmt_riscv::RvTraceSource` — a functional RV64I(+M) emulator that
//!   executes real assembly programs architecturally and emits their
//!   dynamic instruction stream (real PCs, real branch outcomes, real
//!   effective addresses).
//!
//! # Contract
//!
//! The processor model holds one boxed source per hardware thread and
//! relies on the following properties; new implementations must uphold
//! all of them (the synthetic stream's tests show the pattern):
//!
//! * **Determinism.** Two sources constructed with identical parameters
//!   produce identical [`DynInst`] sequences. The campaign result cache
//!   assumes simulations are pure functions of their spec.
//! * **Endlessness.** [`next_inst`](TraceSource::next_inst) never runs
//!   dry: the simulator halts on retire budgets, not on end-of-program.
//!   Finite programs must wrap around (the RISC-V front-end emits a
//!   restart jump and resets its architectural state).
//! * **Wrong-path isolation.** [`wrong_path_addr`]
//!   (TraceSource::wrong_path_addr) fabricates addresses for
//!   mis-speculated instructions and must never perturb the
//!   architecturally-correct stream, no matter how often it is called.
//! * **Static dictionary.** [`program`](TraceSource::program) exposes the
//!   static code image as a basic-block CFG. The fetch engine decodes
//!   real static instructions down mispredicted paths from it and derives
//!   predicted-taken targets from its terminators.
//! * **Self-describing layout.** [`code_range`](TraceSource::code_range)
//!   and [`region_layout`](TraceSource::region_layout) describe the
//!   address-space image so scaled runs can pre-warm caches to
//!   steady-state residency. Unused region slots report `(0, 0)`.
//! * **Control outcomes.** Every emitted instruction whose op
//!   `is_control()` carries `Some(ctrl)`, with `target == pc.next()` when
//!   not taken.
//! * **Batched generation.** [`fill`](TraceSource::fill) appends exactly
//!   the instructions repeated `next_inst` calls would produce; the two
//!   entry points are freely interleavable. The fetch engine consumes
//!   streams through a per-thread [`crate::ChunkBuf`], so `fill` is the
//!   hot path and implementations override it with block-at-a-time loops
//!   (the default loops `next_inst`).

use std::sync::Arc;

use hdsmt_isa::{MemGen, Program};

use crate::chunk::ChunkBuf;
use crate::dyninst::DynInst;

/// A deterministic, endless dynamic-instruction source for one hardware
/// thread. See the module docs for the full contract.
pub trait TraceSource: Send {
    /// Produce the next architecturally-correct dynamic instruction.
    fn next_inst(&mut self) -> DynInst;

    /// Produce the next run of architecturally-correct instructions in
    /// bulk: append between 1 and [`buf.room()`](ChunkBuf::room)
    /// instructions, **exactly** the sequence repeated
    /// [`next_inst`](Self::next_inst) calls would have produced
    /// (interleaving the two freely must never change the stream — the
    /// equivalence tests in each implementation pin this).
    ///
    /// The processor buffers fetch through a per-thread [`ChunkBuf`] and
    /// crosses the trait object only on a refill, so this is the hot
    /// generation path: implementations should override the default
    /// (which loops `next_inst`) with a block-at-a-time loop that hoists
    /// per-call setup out of the per-instruction work.
    fn fill(&mut self, buf: &mut ChunkBuf) {
        for _ in 0..buf.room() {
            buf.push(self.next_inst());
        }
    }

    /// Fabricate an effective address for a *wrong-path* instruction with
    /// memory-generator annotation `g`. Must not perturb the correct
    /// path.
    fn wrong_path_addr(&mut self, g: MemGen) -> u64;

    /// Re-anchor wrong-path fabrication to the *consumption point*: the
    /// consumer holds `unconsumed` generated-but-not-yet-fetched
    /// instructions (its chunk backlog), and subsequent
    /// [`wrong_path_addr`](Self::wrong_path_addr) calls must behave as if
    /// the stream had generated only up to the last consumed instruction.
    ///
    /// Batched generation runs the source ahead of the machine; a source
    /// whose wrong-path fabrication reads evolving internal state (the
    /// synthetic stream's strided-scan cursors) would otherwise leak the
    /// generation frontier into mis-speculated addresses and diverge
    /// from per-call generation. The processor calls this once per
    /// wrong-path episode (on fetching a mispredicted branch); sources
    /// whose fabrication is frontier-independent (the RV64I emulator)
    /// keep this default no-op.
    fn sync_wrong_path_view(&mut self, unconsumed: u64) {
        let _ = unconsumed;
    }

    /// The static program being executed (the front-end's basic-block
    /// dictionary).
    fn program(&self) -> &Arc<Program>;

    /// Address-space base of the code image; instruction-fetch addresses
    /// are `code_base() + pc`.
    fn code_base(&self) -> u64;

    /// Code-image range `(start address, bytes)` in this thread's address
    /// space.
    fn code_range(&self) -> (u64, u64);

    /// Data-region layout: up to four `(start address, bytes)` regions in
    /// this thread's address space, used to pre-warm caches. Unused slots
    /// are `(0, 0)`.
    fn region_layout(&self) -> [(u64, u64); 4];

    /// Total architecturally-correct instructions emitted so far.
    fn emitted(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use crate::TraceStream;

    /// The synthetic stream is usable through the trait object exactly
    /// like through its inherent API.
    #[test]
    fn trace_stream_works_as_a_trait_object() {
        let p = spec::by_name("gzip").unwrap();
        let prog = spec::program("gzip").unwrap();
        let mut a: Box<dyn TraceSource> = Box::new(TraceStream::new(prog.clone(), p, 9, 0));
        let mut b = TraceStream::new(prog, p, 9, 0);
        for _ in 0..5_000 {
            assert_eq!(a.next_inst(), b.next_inst());
        }
        assert_eq!(a.emitted(), 5_000);
        assert_eq!(a.code_base(), b.code_base());
        assert_eq!(a.code_range(), b.code_range());
        assert_eq!(a.region_layout(), b.region_layout());
        assert!(Arc::ptr_eq(a.program(), b.program()));
    }

    /// The trait's *default* `fill` (a `next_inst` loop) honours the
    /// batched-generation contract for implementations that never
    /// override it.
    #[test]
    fn default_fill_matches_per_call_generation() {
        /// Delegates everything except `fill`, so the default engages.
        struct NoOverride(TraceStream);
        impl TraceSource for NoOverride {
            fn next_inst(&mut self) -> crate::DynInst {
                self.0.next_inst()
            }
            fn wrong_path_addr(&mut self, g: hdsmt_isa::MemGen) -> u64 {
                self.0.wrong_path_addr(g)
            }
            fn program(&self) -> &Arc<Program> {
                self.0.program()
            }
            fn code_base(&self) -> u64 {
                self.0.code_base()
            }
            fn code_range(&self) -> (u64, u64) {
                self.0.code_range()
            }
            fn region_layout(&self) -> [(u64, u64); 4] {
                self.0.region_layout()
            }
            fn emitted(&self) -> u64 {
                self.0.emitted()
            }
        }

        let p = spec::by_name("twolf").unwrap();
        let prog = spec::program("twolf").unwrap();
        let mut a: Box<dyn TraceSource> =
            Box::new(NoOverride(TraceStream::new(prog.clone(), p, 4, 0)));
        let mut b = TraceStream::new(prog, p, 4, 0);
        let mut buf = ChunkBuf::with_capacity(32);
        for _ in 0..200 {
            buf.reset();
            a.fill(&mut buf);
            assert_eq!(buf.len(), 32, "the default fill tops the chunk up");
            while let Some(d) = buf.pop() {
                assert_eq!(d, b.next_inst());
            }
        }
    }
}
