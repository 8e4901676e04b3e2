//! Whole synthetic programs and the basic-block dictionary.
//!
//! A [`Program`] is the static image of one synthetic benchmark: every basic
//! block laid out at consecutive PCs starting at [`Program::BASE_PC`]. The
//! PC-indexed lookup ([`Program::lookup`]) is the paper's "basic block
//! dictionary in which information of all static instructions is contained"
//! (§4): it lets the front-end keep decoding real static instructions while
//! fetching down a mispredicted path, and gives fetch the static taken
//! target of every direct control transfer ([`Program::taken_target`]).
//! The image is contiguous, so the dictionary is a dense array indexed by
//! instruction slot and every lookup is O(1).

use crate::{BasicBlock, BlockId, Op, Pc, StaticInst, Terminator};

/// A complete static program: blocks, entry point, and the PC dictionary.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Program {
    blocks: Vec<BasicBlock>,
    entry: BlockId,
    /// `block_at[i]` = index of the block holding the instruction at
    /// `BASE_PC + i * INST_BYTES`: one entry per static instruction.
    block_at: Vec<u32>,
}

/// Static instruction-mix statistics for a program.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ProgramStats {
    pub blocks: usize,
    pub insts: u64,
    pub loads: u64,
    pub stores: u64,
    pub branches: u64,
    pub int_ops: u64,
    pub fp_ops: u64,
}

impl Program {
    /// PC of the first instruction of the first block.
    pub const BASE_PC: Pc = Pc(0x0001_0000);

    /// Lay out `blocks` (whose `start` fields are overwritten) contiguously
    /// from [`Self::BASE_PC`] and build the dictionary.
    ///
    /// Returns an error if the program is structurally invalid: no blocks,
    /// bad entry, dangling successor ids, or per-block check failures.
    pub fn build(mut blocks: Vec<BasicBlock>, entry: BlockId) -> Result<Self, String> {
        if blocks.is_empty() {
            return Err("program has no blocks".into());
        }
        if entry.index() >= blocks.len() {
            return Err("entry block out of range".into());
        }
        let mut pc = Self::BASE_PC;
        let mut block_at = Vec::new();
        for (i, b) in blocks.iter_mut().enumerate() {
            if b.id.index() != i {
                return Err(format!("block at position {i} has id {:?}", b.id));
            }
            b.start = pc;
            pc = pc.advance(b.insts.len() as u64);
            block_at.resize(block_at.len() + b.insts.len(), i as u32);
        }
        let prog = Program { blocks, entry, block_at };
        prog.validate()?;
        Ok(prog)
    }

    /// Full structural validation (also run by [`Self::build`]).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.blocks.len();
        for b in &self.blocks {
            b.check()?;
            for succ in b.term.successors() {
                if succ.index() >= n {
                    return Err(format!("{:?}: successor {:?} out of range", b.id, succ));
                }
            }
            if let Terminator::Call { callee, .. } = b.term {
                // A called function must eventually return; we only check the
                // callee exists — reachability of a Return is the generator's
                // responsibility and is covered by its tests.
                if callee.index() >= n {
                    return Err(format!("{:?}: callee out of range", b.id));
                }
            }
        }
        Ok(())
    }

    #[inline]
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    #[inline]
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    #[inline]
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Total static instruction count.
    #[inline]
    pub fn len_insts(&self) -> u64 {
        self.block_at.len() as u64
    }

    /// The dictionary: map a PC to its block and instruction offset.
    /// Returns `None` for PCs outside the program image (a wrong path can
    /// run off the end; the front-end then fabricates no-ops).
    pub fn lookup(&self, pc: Pc) -> Option<(&BasicBlock, usize)> {
        self.lookup_id(pc).map(|(id, off)| (self.block(id), off))
    }

    /// [`Self::lookup`] returning the block id. O(1): one index into the
    /// dense slot → block array.
    pub fn lookup_id(&self, pc: Pc) -> Option<(BlockId, usize)> {
        let rel = pc.0.checked_sub(Self::BASE_PC.0)?;
        if !rel.is_multiple_of(Pc::INST_BYTES) {
            return None;
        }
        let &idx = self.block_at.get(usize::try_from(rel / Pc::INST_BYTES).ok()?)?;
        let b = &self.blocks[idx as usize];
        Some((b.id, ((pc.0 - b.start.0) / Pc::INST_BYTES) as usize))
    }

    /// Static target of the control transfer at `pc` when taken: the
    /// successor named by the terminator of the block `pc` ends
    /// (conditional taken edge, loop back-edge, jump or call destination),
    /// and `pc.next()` anywhere else.
    pub fn taken_target(&self, pc: Pc) -> Pc {
        let target = match self.lookup(pc) {
            Some((b, off)) if off + 1 == b.len() => match b.term {
                Terminator::Cond { taken, .. } => Some(taken),
                Terminator::Loop { back, .. } => Some(back),
                Terminator::Jump { target } => Some(target),
                Terminator::Call { callee, .. } => Some(callee),
                _ => None,
            },
            _ => None,
        };
        target.map_or(pc.next(), |id| self.block(id).start)
    }

    /// The static instruction at `pc`, if inside the image.
    #[inline]
    pub fn inst_at(&self, pc: Pc) -> Option<&StaticInst> {
        self.lookup(pc).map(|(b, off)| &b.insts[off])
    }

    /// Static mix statistics.
    pub fn stats(&self) -> ProgramStats {
        let mut s = ProgramStats { blocks: self.blocks.len(), ..Default::default() };
        for b in &self.blocks {
            for i in &b.insts {
                s.insts += 1;
                match i.op {
                    Op::Load => s.loads += 1,
                    Op::Store => s.stores += 1,
                    op if op.is_control() => s.branches += 1,
                    Op::FpAlu | Op::FpMul | Op::FpDiv => s.fp_ops += 1,
                    _ => s.int_ops += 1,
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchReg, MemGen};

    fn alu() -> StaticInst {
        StaticInst::alu(Op::IntAlu, ArchReg::int(1), [Some(ArchReg::int(2)), None])
    }

    fn two_block_program() -> Program {
        let b0 = BasicBlock {
            id: BlockId(0),
            start: Pc(0),
            insts: vec![alu(), alu(), StaticInst::control(Op::Jump, None)],
            term: Terminator::Jump { target: BlockId(1) },
        };
        let b1 = BasicBlock {
            id: BlockId(1),
            start: Pc(0),
            insts: vec![
                StaticInst::load(ArchReg::int(3), ArchReg::int(4), MemGen::Stack),
                StaticInst::control(Op::Jump, None),
            ],
            term: Terminator::Jump { target: BlockId(0) },
        };
        Program::build(vec![b0, b1], BlockId(0)).unwrap()
    }

    #[test]
    fn layout_is_contiguous() {
        let p = two_block_program();
        assert_eq!(p.block(BlockId(0)).start, Program::BASE_PC);
        assert_eq!(p.block(BlockId(1)).start, Program::BASE_PC.advance(3));
        assert_eq!(p.len_insts(), 5);
    }

    #[test]
    fn dictionary_lookup() {
        let p = two_block_program();
        // First block.
        let (b, off) = p.lookup(Program::BASE_PC).unwrap();
        assert_eq!((b.id, off), (BlockId(0), 0));
        let (b, off) = p.lookup(Program::BASE_PC.advance(2)).unwrap();
        assert_eq!((b.id, off), (BlockId(0), 2));
        // Second block.
        let (b, off) = p.lookup(Program::BASE_PC.advance(3)).unwrap();
        assert_eq!((b.id, off), (BlockId(1), 0));
        // Off the end and before the start.
        assert!(p.lookup(Program::BASE_PC.advance(5)).is_none());
        assert!(p.lookup(Pc(0)).is_none());
        // Misaligned.
        assert!(p.lookup(Pc(Program::BASE_PC.0 + 2)).is_none());
    }

    #[test]
    fn inst_at_finds_load() {
        let p = two_block_program();
        let i = p.inst_at(Program::BASE_PC.advance(3)).unwrap();
        assert!(i.op.is_load());
    }

    #[test]
    fn build_rejects_dangling_successor() {
        let b0 = BasicBlock {
            id: BlockId(0),
            start: Pc(0),
            insts: vec![alu(), StaticInst::control(Op::Jump, None)],
            term: Terminator::Jump { target: BlockId(7) },
        };
        assert!(Program::build(vec![b0], BlockId(0)).is_err());
    }

    #[test]
    fn build_rejects_misordered_ids() {
        let b0 = BasicBlock {
            id: BlockId(1),
            start: Pc(0),
            insts: vec![alu(), StaticInst::control(Op::Jump, None)],
            term: Terminator::Jump { target: BlockId(0) },
        };
        assert!(Program::build(vec![b0], BlockId(0)).is_err());
    }

    #[test]
    fn build_rejects_empty_and_bad_entry() {
        assert!(Program::build(vec![], BlockId(0)).is_err());
        let b0 = BasicBlock {
            id: BlockId(0),
            start: Pc(0),
            insts: vec![alu(), StaticInst::control(Op::Jump, None)],
            term: Terminator::Jump { target: BlockId(0) },
        };
        assert!(Program::build(vec![b0], BlockId(3)).is_err());
    }

    #[test]
    fn stats_count_classes() {
        let p = two_block_program();
        let s = p.stats();
        assert_eq!(s.blocks, 2);
        assert_eq!(s.insts, 5);
        assert_eq!(s.loads, 1);
        assert_eq!(s.branches, 2);
        assert_eq!(s.int_ops, 2);
    }
}
