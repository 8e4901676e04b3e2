//! # hdsmt-riscv — real-program workloads via a compact RV64I(+M) emulator
//!
//! The paper evaluates hdSMT on dynamic instruction streams of real
//! programs. The synthetic front-end (`hdsmt-trace`) reproduces their
//! *statistics*; this crate reproduces the real thing at small scale: it
//! parses RV64I(+M) assembly kernels (the plain-assembler format used by
//! small RISC-V teaching simulators), executes them architecturally, and
//! feeds the processor model their genuine dynamic streams — real PCs,
//! real branch outcomes, real load/store addresses — through the shared
//! [`hdsmt_trace::TraceSource`] abstraction.
//!
//! Pipeline:
//!
//! 1. [`asm`] parses the text into an instruction list + label map;
//! 2. [`translate`](mod@translate) builds the basic-block dictionary
//!    ([`hdsmt_isa::Program`]) the fetch engine needs for wrong-path
//!    decoding, appending a synthetic *restart jump* so finite programs
//!    become the endless streams the simulator consumes;
//! 3. [`emu::Machine`] executes instructions functionally;
//! 4. [`RvTraceSource`] glues them into a deterministic
//!    [`TraceSource`](hdsmt_trace::TraceSource): every lap replays the
//!    identical architectural execution.
//!
//! ## Workload names
//!
//! The bundled kernels register under `rv:<name>` benchmark names
//! (`rv:sum`, `rv:matmul`, …) next to the synthetic SPECint2000 models,
//! so workloads, golden cells, and campaign specs can freely mix
//! synthetic and real threads. Custom programs load through
//! [`image_from_asm`].

#![forbid(unsafe_code)]

pub mod asm;
pub mod emu;
pub mod source;
pub mod translate;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

pub use asm::{AsmProgram, RvInst};
pub use emu::{Machine, MEM_BYTES};
pub use source::RvTraceSource;
pub use translate::{translate, RvImage};

/// The bundled program kernels: (name, assembly source).
const BUILTIN: &[(&str, &str)] = &[
    ("sum", include_str!("../programs/sum.asm")),
    ("matmul", include_str!("../programs/matmul.asm")),
    ("fib", include_str!("../programs/fib.asm")),
    ("sort", include_str!("../programs/sort.asm")),
    ("prime", include_str!("../programs/prime.asm")),
];

/// Names of the bundled programs (usable as `rv:<name>` benchmarks).
pub fn program_names() -> Vec<&'static str> {
    BUILTIN.iter().map(|&(n, _)| n).collect()
}

/// Parse + translate an assembly text into a shareable image.
pub fn image_from_asm(name: &str, text: &str) -> Result<Arc<RvImage>, String> {
    let parsed = asm::parse(text).map_err(|e| format!("{name}: {e}"))?;
    Ok(Arc::new(translate::translate(name, &parsed)?))
}

/// Look up a bundled program by name, translating it on first use (the
/// image is immutable and shared across all simulations of the process,
/// like the synthetic programs' fixed binaries).
pub fn by_name(name: &str) -> Option<Arc<RvImage>> {
    static CACHE: OnceLock<Mutex<BTreeMap<&'static str, Arc<RvImage>>>> = OnceLock::new();
    let (key, text) = BUILTIN.iter().find(|&&(n, _)| n == name).copied()?;
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut map = cache.lock().unwrap_or_else(|p| p.into_inner());
    Some(
        map.entry(key)
            .or_insert_with(|| {
                image_from_asm(key, text).unwrap_or_else(|e| panic!("bundled program {e}"))
            })
            .clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsmt_trace::ChunkBuf;

    #[test]
    fn every_bundled_program_parses_translates_and_validates() {
        for name in program_names() {
            let img = by_name(name).unwrap_or_else(|| panic!("{name} missing"));
            img.program.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(img.program.len_insts(), img.insts.len() as u64, "{name}");
            assert_eq!(img.restart_idx, img.insts.len() - 1, "{name}");
        }
        assert!(by_name("no-such-program").is_none());
    }

    #[test]
    fn images_are_shared_across_lookups() {
        let a = by_name("sum").unwrap();
        let b = by_name("sum").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn bundled_laps_are_substantial() {
        // Restart resets cost a full memory wipe; keep each lap long
        // enough (≥ 5k dynamic instructions) that the wipe is noise.
        for name in program_names() {
            let mut s = RvTraceSource::new(by_name(name).unwrap(), 1, 0);
            // Capacity 1: `laps()` counts exactly the instructions read.
            let mut buf = ChunkBuf::with_capacity(1);
            let mut lap_len = 0u64;
            loop {
                let d = buf.next_from(&mut s);
                lap_len += 1;
                assert!(lap_len < 3_000_000, "{name}: lap too long");
                if d.sinst.op == hdsmt_isa::Op::Jump
                    && d.ctrl.unwrap().target == hdsmt_isa::Program::BASE_PC
                    && s.laps() == 1
                {
                    break;
                }
            }
            assert!(lap_len >= 5_000, "{name}: lap is only {lap_len} instructions");
        }
    }

    #[test]
    fn custom_programs_load_from_text() {
        let img = image_from_asm("mine", "li a0, 1\nloop:\n addi a0, a0, 1\n j loop\n").unwrap();
        assert_eq!(img.name, "mine");
        assert!(image_from_asm("bad", "frob a0\n").is_err());
    }
}
