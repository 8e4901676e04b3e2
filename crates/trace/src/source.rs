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
//! * **One generator, one reader.** [`fill`](TraceSource::fill) is the
//!   only way to generate instructions, and
//!   [`ChunkBuf::next_from`] the only way to read them: fetch, the miss
//!   profiler and the tests all pop from a [`ChunkBuf`] that refills
//!   from the source when it runs dry.
//! * **Determinism.** Two sources constructed with identical parameters
//!   produce identical [`DynInst`](crate::DynInst) sequences. The
//!   campaign result cache assumes simulations are pure functions of
//!   their spec.
//! * **Endlessness.** `fill` always appends at least one instruction:
//!   the simulator halts on retire budgets, not on end-of-program.
//!   Finite programs must wrap around (the RISC-V front-end emits a
//!   restart jump and resets its architectural state).
//! * **Chunking independence.** The stream, and the addresses
//!   [`wrong_path_addr`](TraceSource::wrong_path_addr) fabricates after
//!   [`sync_wrong_path_view`](TraceSource::sync_wrong_path_view), do not
//!   depend on the buffer's capacity or on where refills fall. Each
//!   implementation's tests read a capacity-1 buffer (one instruction
//!   per refill) as the reference and pin larger capacities against it.
//! * **Wrong-path isolation.**
//!   [`wrong_path_addr`](TraceSource::wrong_path_addr) fabricates
//!   addresses for mis-speculated instructions and must never perturb the
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

use std::sync::Arc;

use hdsmt_isa::{MemGen, Program};

use crate::chunk::ChunkBuf;

/// A deterministic, endless dynamic-instruction source for one hardware
/// thread. See the module docs for the full contract.
pub trait TraceSource: Send {
    /// Generate the next run of architecturally-correct instructions:
    /// append between 1 and [`buf.room()`](ChunkBuf::room) of them. The
    /// stream must not depend on how much room each call is given.
    ///
    /// The processor crosses the trait object only on a refill, so
    /// implementations run a block-at-a-time loop that hoists per-call
    /// setup out of the per-instruction work.
    fn fill(&mut self, buf: &mut ChunkBuf);

    /// Fabricate an effective address for a *wrong-path* instruction with
    /// memory-generator annotation `g`. Must not perturb the correct
    /// path.
    fn wrong_path_addr(&mut self, g: MemGen) -> u64;

    /// Re-anchor wrong-path fabrication to the *consumption point*: the
    /// consumer holds `unconsumed` generated-but-not-yet-read
    /// instructions (its chunk backlog), and subsequent
    /// [`wrong_path_addr`](Self::wrong_path_addr) calls must behave as if
    /// the stream had generated only up to the last consumed instruction.
    ///
    /// A chunk runs the source ahead of the machine; a source whose
    /// wrong-path fabrication reads evolving internal state (the
    /// synthetic stream's strided-scan cursors) would otherwise leak the
    /// generation frontier into mis-speculated addresses and make them
    /// depend on the chunk capacity. The processor calls this once per
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use crate::TraceStream;

    /// The synthetic stream is usable through the trait object exactly
    /// like through its concrete type.
    #[test]
    fn trace_stream_works_as_a_trait_object() {
        let p = spec::by_name("gzip").unwrap();
        let prog = spec::program("gzip").unwrap();
        let mut a: Box<dyn TraceSource> = Box::new(TraceStream::new(prog.clone(), p, 9, 0));
        let mut b = TraceStream::new(prog, p, 9, 0);
        let (mut abuf, mut bbuf) = (ChunkBuf::new(), ChunkBuf::with_capacity(1));
        for _ in 0..5_000 {
            assert_eq!(abuf.next_from(a.as_mut()), bbuf.next_from(&mut b));
        }
        assert_eq!(a.code_base(), b.code_base());
        assert_eq!(a.code_range(), b.code_range());
        assert_eq!(a.region_layout(), b.region_layout());
        assert!(Arc::ptr_eq(a.program(), b.program()));
    }
}
