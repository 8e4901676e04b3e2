//! Offline benchmark profiling.
//!
//! The paper's mapping heuristic is "a simple profile-based heuristic
//! policy that uses the memory behavior of each thread" (§2.1): threads
//! are ranked by their profiled number of data-cache misses. This module
//! produces that profile by running a benchmark's memory reference stream
//! through a standalone L1D model — the software equivalent of the paper's
//! offline profiling runs.

use hdsmt_mem::{Cache, MemConfig};
use hdsmt_trace::ChunkBuf;

use crate::config::ThreadSpec;

/// Seed used for profiling runs: fixed and distinct from simulation seeds,
/// like a profile run on its own input.
const PROFILE_SEED: u64 = 0x0090_f11e_5eed;

/// Data-cache misses per 1000 instructions for `spec`'s benchmark, measured
/// over `n_insts` instructions on a Table 1 L1D. Reads the
/// [`hdsmt_trace::TraceSource`] through a [`ChunkBuf`] like fetch does, so
/// both synthetic models and RV64I programs profile the same way.
pub fn profile_benchmark(spec: &ThreadSpec, n_insts: u64) -> f64 {
    let mut stream = spec.build_source_seeded(PROFILE_SEED, 0);
    let mut buf = ChunkBuf::new();
    let mut l1d = Cache::new(MemConfig::default().l1d);
    let mut misses = 0u64;
    for _ in 0..n_insts {
        let d = buf.next_from(stream.as_mut());
        if d.sinst.op.is_mem() && !l1d.access(d.addr) {
            l1d.fill(d.addr);
            misses += 1;
        }
    }
    misses as f64 * 1000.0 / n_insts as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mpki(name: &str) -> f64 {
        profile_benchmark(&ThreadSpec::for_benchmark(name, 1), 400_000)
    }

    #[test]
    fn mcf_dominates_every_benchmark() {
        let mcf = mpki("mcf");
        for name in hdsmt_trace::BENCHMARK_NAMES {
            if name != "mcf" {
                assert!(mcf > mpki(name), "mcf must out-miss {name}");
            }
        }
    }

    #[test]
    fn mem_class_out_misses_ilp_class() {
        // The MEM-class benchmarks must rank above the ILP class — that
        // ordering is what drives the paper's mapping heuristic.
        let ilp_max =
            ["gzip", "eon", "crafty", "bzip2"].iter().map(|n| mpki(n)).fold(0.0f64, f64::max);
        for name in ["mcf", "twolf", "vpr"] {
            assert!(
                mpki(name) > ilp_max,
                "{name} ({:.1}) must out-miss the ILP class ({ilp_max:.1})",
                mpki(name)
            );
        }
    }

    #[test]
    fn profiling_is_deterministic() {
        assert_eq!(mpki("parser"), mpki("parser"));
    }

    #[test]
    fn riscv_programs_profile_through_the_same_path() {
        for name in ["rv:sum", "rv:sort"] {
            let m = profile_benchmark(&ThreadSpec::for_benchmark(name, 1), 100_000);
            // Small kernels are L1-friendly: a sane, low-but-measurable
            // miss rate, and deterministic.
            assert!((0.0..50.0).contains(&m), "{name}: {m}");
            assert_eq!(m, profile_benchmark(&ThreadSpec::for_benchmark(name, 1), 100_000));
        }
    }
}
