//! Instruction-class alphabet and functional-unit mapping.
//!
//! The paper's pipeline models (Fig 2(a)) provision three functional-unit
//! classes — integer, floating point, and load/store — so the opcode
//! alphabet here is classified along the same axis. Latencies follow the
//! Alpha 21264 values commonly used with SMTSIM-family simulators.

/// Dynamic instruction class.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, serde::Serialize, serde::Deserialize)]
pub enum Op {
    /// Single-cycle integer ALU operation (add, logical, shift, compare).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide (unpipelined).
    IntDiv,
    /// Floating-point add/sub/convert.
    FpAlu,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide (unpipelined).
    FpDiv,
    /// Memory load (int or fp destination decides the register class).
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    CondBranch,
    /// Unconditional direct jump.
    Jump,
    /// Direct call (pushes the return address).
    Call,
    /// Return (pops the return address stack).
    Return,
    /// Indirect jump through a register (computed goto / virtual dispatch).
    IndirectJump,
    /// No-op / other non-modelled instruction.
    Nop,
}

/// Functional-unit class an [`Op`] issues to, matching the three FU pools of
/// Fig 2(a) ("Integer Func. Units", "FP Func. Units", "LD/ST Units").
/// Branches execute on the integer units, as on the Alpha 21264.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, serde::Serialize, serde::Deserialize)]
pub enum FuKind {
    Int,
    Fp,
    LdSt,
}

impl Op {
    /// Which functional-unit pool executes this op.
    #[inline]
    pub fn fu_kind(self) -> FuKind {
        match self {
            Op::IntAlu
            | Op::IntMul
            | Op::IntDiv
            | Op::CondBranch
            | Op::Jump
            | Op::Call
            | Op::Return
            | Op::IndirectJump
            | Op::Nop => FuKind::Int,
            Op::FpAlu | Op::FpMul | Op::FpDiv => FuKind::Fp,
            Op::Load | Op::Store => FuKind::LdSt,
        }
    }

    /// Execution latency in cycles, *excluding* any memory-hierarchy time
    /// (loads add cache latency on top of their address-generation cycle)
    /// and excluding register-file access time (which the processor model
    /// charges separately — 1 cycle monolithic, 2 cycles hdSMT, §4).
    #[inline]
    pub fn exec_latency(self) -> u32 {
        match self {
            Op::IntAlu => 1,
            Op::IntMul => 7,
            Op::IntDiv => 20,
            Op::FpAlu => 4,
            Op::FpMul => 4,
            Op::FpDiv => 12,
            // Address generation; cache latency is added by the memory model.
            Op::Load | Op::Store => 1,
            Op::CondBranch | Op::Jump | Op::Call | Op::Return | Op::IndirectJump => 1,
            Op::Nop => 1,
        }
    }

    /// True if the functional unit is pipelined for this op (a new op of the
    /// same kind may begin the next cycle). Divides occupy their unit.
    #[inline]
    pub fn fu_pipelined(self) -> bool {
        !matches!(self, Op::IntDiv | Op::FpDiv)
    }

    /// True for ops that read or write memory.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, Op::Load | Op::Store)
    }

    #[inline]
    pub fn is_load(self) -> bool {
        matches!(self, Op::Load)
    }

    #[inline]
    pub fn is_store(self) -> bool {
        matches!(self, Op::Store)
    }

    /// True for every control-transfer instruction.
    #[inline]
    pub fn is_control(self) -> bool {
        matches!(self, Op::CondBranch | Op::Jump | Op::Call | Op::Return | Op::IndirectJump)
    }

    /// All op variants, for exhaustive table-driven tests.
    pub const ALL: [Op; 14] = [
        Op::IntAlu,
        Op::IntMul,
        Op::IntDiv,
        Op::FpAlu,
        Op::FpMul,
        Op::FpDiv,
        Op::Load,
        Op::Store,
        Op::CondBranch,
        Op::Jump,
        Op::Call,
        Op::Return,
        Op::IndirectJump,
        Op::Nop,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fu_kind_partition() {
        // Every op maps to exactly one pool and the partition is the
        // expected one.
        for op in Op::ALL {
            match op.fu_kind() {
                FuKind::Fp => assert!(matches!(op, Op::FpAlu | Op::FpMul | Op::FpDiv)),
                FuKind::LdSt => assert!(op.is_mem()),
                FuKind::Int => {
                    assert!(!op.is_mem() && !matches!(op, Op::FpAlu | Op::FpMul | Op::FpDiv))
                }
            }
        }
    }

    #[test]
    fn latencies_positive_and_sane() {
        for op in Op::ALL {
            let l = op.exec_latency();
            assert!(l >= 1, "{op:?} latency must be at least 1");
            assert!(l <= 20, "{op:?} latency unreasonably large");
        }
        assert!(Op::IntMul.exec_latency() > Op::IntAlu.exec_latency());
        assert!(Op::FpDiv.exec_latency() > Op::FpAlu.exec_latency());
    }

    #[test]
    fn control_classification() {
        assert!(Op::CondBranch.is_control());
        assert!(Op::Return.is_control());
        assert!(!Op::Load.is_control());
    }

    #[test]
    fn divides_block_their_unit() {
        assert!(!Op::IntDiv.fu_pipelined());
        assert!(!Op::FpDiv.fu_pipelined());
        assert!(Op::IntMul.fu_pipelined());
        assert!(Op::Load.fu_pipelined());
    }
}
