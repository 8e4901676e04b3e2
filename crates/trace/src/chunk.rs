//! [`ChunkBuf`]: the reusable instruction chunk a [`TraceSource`] fills
//! and every consumer reads.
//!
//! The processor holds each thread's stream behind a `Box<dyn
//! TraceSource>`. The chunk buffer keeps that seam off the per-instruction
//! path: consumers read through [`ChunkBuf::next_from`], which pops plain
//! records and crosses the trait object only when the buffer runs dry —
//! one [`TraceSource::fill`] call per [`CHUNK_INSTS`] instructions, inside
//! which the concrete source runs a tight, fully devirtualized
//! block-at-a-time loop.
//!
//! A `ChunkBuf` is drain-then-refill, not a ring: the consumer pops until
//! empty, then [`reset`](ChunkBuf::reset)s and refills. The backing
//! storage is allocated once and reused for the life of the thread, so
//! the steady-state fetch path still allocates nothing.

use crate::dyninst::DynInst;
use crate::source::TraceSource;

/// Default chunk capacity: one `fill` call amortizes the trait-object
/// dispatch (and emulator/program re-entry) across this many
/// instructions. Big enough that the seam vanishes from profiles, small
/// enough that a chunk stays a couple of cache lines of `DynInst`s.
pub const CHUNK_INSTS: usize = 64;

/// A reusable, bounded buffer of dynamic instructions in stream order.
#[derive(Debug)]
pub struct ChunkBuf {
    items: Vec<DynInst>,
    /// Index of the next instruction to pop (`== items.len()` ⇒ empty).
    head: usize,
    cap: usize,
}

impl ChunkBuf {
    /// A buffer of the default [`CHUNK_INSTS`] capacity.
    pub fn new() -> Self {
        Self::with_capacity(CHUNK_INSTS)
    }

    /// A buffer holding up to `cap` instructions per fill.
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0, "a chunk must hold at least one instruction");
        ChunkBuf { items: Vec::with_capacity(cap), head: 0, cap }
    }

    /// Pop the next instruction in stream order.
    #[inline]
    pub fn pop(&mut self) -> Option<DynInst> {
        let d = *self.items.get(self.head)?;
        self.head += 1;
        Some(d)
    }

    /// Read the next instruction of `src`'s stream: pop it, or reset,
    /// refill from `src` and pop when the buffer is empty. The only read
    /// path of the trace front ends; the buffer must only ever be filled
    /// from `src`.
    #[inline]
    pub fn next_from<S: TraceSource + ?Sized>(&mut self, src: &mut S) -> DynInst {
        if let Some(d) = self.pop() {
            return d;
        }
        self.reset();
        src.fill(self);
        self.pop().expect("a TraceSource fill appends at least one instruction")
    }

    /// Append one instruction. Fill implementations must not exceed
    /// [`Self::room`].
    #[inline]
    pub fn push(&mut self, d: DynInst) {
        debug_assert!(self.items.len() < self.cap, "fill overran the chunk capacity");
        self.items.push(d);
    }

    /// Instructions a fill may still append.
    #[inline]
    pub fn room(&self) -> usize {
        self.cap - self.items.len()
    }

    /// Instructions still to be popped.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len() - self.head
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == self.items.len()
    }

    /// Maximum instructions per fill.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Discard consumed state before a refill, keeping the allocation.
    #[inline]
    pub fn reset(&mut self) {
        self.items.clear();
        self.head = 0;
    }
}

impl Default for ChunkBuf {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsmt_isa::{Op, Pc, StaticInst};

    fn inst(n: u64) -> DynInst {
        DynInst {
            pc: Pc(n * 4),
            sinst: StaticInst { op: Op::IntAlu, dst: None, srcs: [None, None], mem: None },
            addr: 0,
            ctrl: None,
        }
    }

    #[test]
    fn fifo_order_and_reuse() {
        let mut b = ChunkBuf::with_capacity(4);
        assert!(b.is_empty());
        assert_eq!(b.room(), 4);
        for n in 0..3 {
            b.push(inst(n));
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.room(), 1);
        assert_eq!(b.pop().unwrap().pc, Pc(0));
        assert_eq!(b.pop().unwrap().pc, Pc(4));
        assert_eq!(b.len(), 1);
        assert_eq!(b.pop().unwrap().pc, Pc(8));
        assert!(b.pop().is_none());
        assert!(b.is_empty());
        // Refill after reset reuses the buffer from the start.
        b.reset();
        assert_eq!(b.room(), 4);
        b.push(inst(9));
        assert_eq!(b.pop().unwrap().pc, Pc(36));
    }
}
