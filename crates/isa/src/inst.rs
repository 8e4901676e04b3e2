//! Static instructions and their behavioural annotations.
//!
//! Because we substitute the paper's Alpha SPECint2000 traces with synthetic
//! programs (see the `hdsmt-trace` crate docs), each static memory instruction carries a
//! *generator annotation* ([`MemGen`]) describing how its dynamic effective
//! addresses behave: strided scans, uniformly random accesses within a
//! working-set region (the cache-behaviour equivalent of pointer chasing),
//! or small hot stack frames. The trace layer turns these annotations into
//! concrete addresses; the memory hierarchy then produces hit/miss behaviour
//! whose *rates* are calibrated per benchmark model.

use crate::{ArchReg, Op};

/// Identifies one of a program's data regions. Region 0 is always the
/// stack-like hot region; higher regions are heap/global regions whose sizes
/// come from the benchmark profile.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, serde::Serialize, serde::Deserialize)]
pub struct MemRegion(pub u8);

/// How a static memory instruction generates dynamic addresses.
///
/// The *class* is a static property of the instruction; the target region
/// for heap classes is drawn per execution by the trace stream from the
/// benchmark's region-weight distribution, so dynamic traffic shares match
/// the profile regardless of which static instructions sit inside hot
/// loops.
#[derive(Clone, Copy, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
pub enum MemGen {
    /// Sequential scan advancing `stride` bytes per execution through a
    /// heap region (array traversals; cache friendly for small strides).
    Stride { stride: u16 },
    /// Uniformly random address within a heap region (pointer chasing,
    /// hash tables; miss rate governed by the region's working-set size).
    Random,
    /// Access within a small hot frame (stack / register spills;
    /// essentially always hits).
    Stack,
}

/// One static instruction: the unit stored in the basic-block dictionary.
///
/// `srcs` lists up to two architectural source registers; `dst` the optional
/// destination. Register dependencies between static instructions inside and
/// across basic blocks are what give each synthetic benchmark its ILP
/// profile.
#[derive(Clone, Copy, PartialEq, Debug, serde::Serialize, serde::Deserialize)]
pub struct StaticInst {
    pub op: Op,
    pub dst: Option<ArchReg>,
    pub srcs: [Option<ArchReg>; 2],
    /// Address-behaviour annotation; `Some` iff `op.is_mem()`.
    pub mem: Option<MemGen>,
}

impl StaticInst {
    /// A plain register-to-register op.
    pub fn alu(op: Op, dst: ArchReg, srcs: [Option<ArchReg>; 2]) -> Self {
        debug_assert!(!op.is_mem() && !op.is_control());
        StaticInst { op, dst: Some(dst), srcs, mem: None }
    }

    /// A load producing `dst` from an address formed off `base`.
    pub fn load(dst: ArchReg, base: ArchReg, gen: MemGen) -> Self {
        StaticInst { op: Op::Load, dst: Some(dst), srcs: [Some(base), None], mem: Some(gen) }
    }

    /// A store of `value` through `base`.
    pub fn store(value: ArchReg, base: ArchReg, gen: MemGen) -> Self {
        StaticInst { op: Op::Store, dst: None, srcs: [Some(base), Some(value)], mem: Some(gen) }
    }

    /// A control-transfer instruction (its targets live in the block
    /// terminator, not here). Conditional branches read one register.
    pub fn control(op: Op, src: Option<ArchReg>) -> Self {
        debug_assert!(op.is_control());
        StaticInst { op, dst: None, srcs: [src, None], mem: None }
    }

    /// Number of register source operands.
    #[inline]
    pub fn src_count(&self) -> usize {
        self.srcs.iter().filter(|s| s.is_some()).count()
    }

    /// Internal consistency: memory annotation present exactly for memory
    /// ops, destination class matches op class, etc. Used by
    /// [`crate::Program::validate`].
    pub fn check(&self) -> Result<(), String> {
        if self.op.is_mem() != self.mem.is_some() {
            return Err(format!("{:?}: mem annotation mismatch", self.op));
        }
        if self.op.is_store() && self.dst.is_some() {
            return Err("store must not write a register".into());
        }
        if self.op.is_control() && self.dst.is_some() && self.op != Op::Call {
            return Err(format!("{:?} must not write a register", self.op));
        }
        match self.op {
            Op::FpAlu | Op::FpMul | Op::FpDiv => {
                if let Some(d) = self.dst {
                    if !d.is_fp() {
                        return Err("fp op writing integer register".into());
                    }
                }
            }
            Op::IntAlu | Op::IntMul | Op::IntDiv => {
                if let Some(d) = self.dst {
                    if d.is_fp() {
                        return Err("int op writing fp register".into());
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArchReg;

    #[test]
    fn constructors_are_consistent() {
        let a = StaticInst::alu(Op::IntAlu, ArchReg::int(1), [Some(ArchReg::int(2)), None]);
        a.check().unwrap();
        let l = StaticInst::load(ArchReg::int(3), ArchReg::int(4), MemGen::Stride { stride: 8 });
        l.check().unwrap();
        assert_eq!(l.src_count(), 1);
        let s = StaticInst::store(ArchReg::int(3), ArchReg::int(4), MemGen::Stack);
        s.check().unwrap();
        assert_eq!(s.src_count(), 2);
        let b = StaticInst::control(Op::CondBranch, Some(ArchReg::int(5)));
        b.check().unwrap();
    }

    #[test]
    fn check_rejects_mismatches() {
        // Load without a mem annotation.
        let bad =
            StaticInst { op: Op::Load, dst: Some(ArchReg::int(1)), srcs: [None, None], mem: None };
        assert!(bad.check().is_err());
        // ALU op with a mem annotation.
        let bad = StaticInst {
            op: Op::IntAlu,
            dst: Some(ArchReg::int(1)),
            srcs: [None, None],
            mem: Some(MemGen::Stack),
        };
        assert!(bad.check().is_err());
        // FP op writing an integer register.
        let bad =
            StaticInst { op: Op::FpAlu, dst: Some(ArchReg::int(1)), srcs: [None, None], mem: None };
        assert!(bad.check().is_err());
        // Store writing a register.
        let bad = StaticInst {
            op: Op::Store,
            dst: Some(ArchReg::int(1)),
            srcs: [None, None],
            mem: Some(MemGen::Stack),
        };
        assert!(bad.check().is_err());
    }
}
