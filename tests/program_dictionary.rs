//! Reference check for the basic-block dictionary of every bundled program.
//!
//! `Program::lookup_id` indexes a dense slot → block array, and fetch
//! reads every direct taken target from `Program::taken_target`. Both must
//! answer exactly as the binary search over block start PCs they replaced,
//! for every synthetic benchmark and every `rv:` image, at every byte
//! address around the image (aligned and unaligned, inside and outside).

use std::sync::Arc;

use hdsmt::isa::{BlockId, Pc, Program, Terminator};
use hdsmt::trace::BENCHMARK_NAMES;

fn bundled_programs() -> Vec<(String, Arc<Program>)> {
    let synthetic = BENCHMARK_NAMES
        .iter()
        .map(|&name| (name.to_string(), hdsmt::trace::program(name).expect("bundled benchmark")));
    let rv = hdsmt::riscv::program_names().into_iter().map(|name| {
        let image = hdsmt::riscv::by_name(name).expect("bundled rv program");
        (format!("rv:{name}"), image.program.clone())
    });
    synthetic.chain(rv).collect()
}

/// The binary-search dictionary over block start PCs.
fn reference_lookup(p: &Program, pc: Pc) -> Option<(BlockId, usize)> {
    if pc.0 < Program::BASE_PC.0 || !pc.0.is_multiple_of(Pc::INST_BYTES) {
        return None;
    }
    let idx = p.blocks().partition_point(|b| b.start.0 <= pc.0);
    let b = &p.blocks()[idx.checked_sub(1)?];
    let off = ((pc.0 - b.start.0) / Pc::INST_BYTES) as usize;
    (off < b.insts.len()).then_some((b.id, off))
}

/// Fetch's static taken target, on the reference dictionary.
fn reference_taken_target(p: &Program, pc: Pc) -> Pc {
    match reference_lookup(p, pc) {
        Some((id, off)) if off + 1 == p.block(id).len() => match &p.block(id).term {
            Terminator::Cond { taken, .. } => p.block(*taken).start,
            Terminator::Loop { back, .. } => p.block(*back).start,
            Terminator::Jump { target } => p.block(*target).start,
            Terminator::Call { callee, .. } => p.block(*callee).start,
            _ => pc.next(),
        },
        _ => pc.next(),
    }
}

#[test]
fn dense_dictionary_matches_the_binary_search_reference() {
    let programs = bundled_programs();
    assert_eq!(programs.len(), BENCHMARK_NAMES.len() + hdsmt::riscv::program_names().len());
    for (name, p) in &programs {
        let end = Program::BASE_PC.0 + p.len_insts() * Pc::INST_BYTES;
        let edges = [0, 1, Program::BASE_PC.0 - 4, u64::MAX - 3, u64::MAX];
        for pc in (Program::BASE_PC.0 - 8..end + 8).chain(edges) {
            let pc = Pc(pc);
            assert_eq!(p.lookup_id(pc), reference_lookup(p, pc), "{name}: lookup_id({pc:?})");
        }
        let mut controls = 0;
        for b in p.blocks() {
            for (off, inst) in b.insts.iter().enumerate() {
                if inst.op.is_control() {
                    let pc = b.start.advance(off as u64);
                    assert_eq!(
                        p.taken_target(pc),
                        reference_taken_target(p, pc),
                        "{name}: taken_target({pc:?})"
                    );
                    controls += 1;
                }
            }
        }
        assert!(controls > 0, "{name} has no control instructions");
    }
}
