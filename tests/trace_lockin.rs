//! Lock-in test for the trace front ends.
//!
//! Every synthetic benchmark and every bundled `rv:` program is read the
//! way the fetch engine reads it: through a 64-entry `ChunkBuf` that is
//! drained, reset and refilled from the source. Every 97th instruction a
//! wrong-path episode opens: the source's wrong-path view is anchored at
//! the consumption point (`sync_wrong_path_view(buf.len())`) and two
//! addresses are fabricated for each memory-generator kind. One FNV-1a
//! digest per program over every instruction's `(pc, op, addr, ctrl)` and
//! every fabricated address is pinned, together with the exact bits of
//! the §2.1 miss profile that ranks threads for the mapping heuristic. A
//! refactor of trace generation must reproduce them exactly; only a
//! deliberate change to the generated streams (and its re-bless of the
//! golden statistics) may update them.

use hdsmt::core::{MissProfile, ThreadSpec};
use hdsmt::isa::MemGen;
use hdsmt::trace::{ChunkBuf, DynInst, TraceSource, BENCHMARK_NAMES};

const INSTS: u64 = 50_000;
const PROFILE_INSTS: u64 = 50_000;
const SEED: u64 = 7;
const ASID: u8 = 1;
const WRONG_PATH_EVERY: u64 = 97;
const WRONG_PATH_GENS: [MemGen; 3] = [MemGen::Stack, MemGen::Stride { stride: 64 }, MemGen::Random];

/// `(benchmark, stream digest, miss-profile bits)` recorded before the
/// trace front ends shared one read path.
const PINNED: &[(&str, u64, u64)] = &[
    ("gzip", 0xd285a96e85d1abf5, 0x402beb851eb851ec),
    ("vpr", 0x149bce105503360f, 0x404563d70a3d70a4),
    ("gcc", 0x67555b56ca6fa197, 0x4038bd70a3d70a3d),
    ("mcf", 0xdeb1922f8b8ca5ad, 0x40665a3d70a3d70a),
    ("crafty", 0xd6e9c1f33a5e3138, 0x4036e66666666666),
    ("parser", 0xf03640fe55f2c6ab, 0x403cc28f5c28f5c3),
    ("eon", 0x24646ddae7e508f9, 0x40297ae147ae147b),
    ("perlbmk", 0xd4291408a34a08bb, 0x4040c7ae147ae148),
    ("gap", 0x58b222f5427eb88d, 0x4038a3d70a3d70a4),
    ("vortex", 0xb411b05e03ea0a7d, 0x403b666666666666),
    ("bzip2", 0x2b1a9f09d8c597c7, 0x4035c28f5c28f5c3),
    ("twolf", 0xb74fd48b274a4852, 0x4049451eb851eb85),
    ("rv:sum", 0xb0a6c7801f8da10b, 0x3fef5c28f5c28f5c),
    ("rv:matmul", 0x94a525cdac3f336c, 0x400147ae147ae148),
    ("rv:fib", 0x3a3a7dad67a1590c, 0x3fceb851eb851eb8),
    ("rv:sort", 0x718bc6631d3393e4, 0x3fe0000000000000),
    ("rv:prime", 0x262cfe8c884b927c, 0x3f947ae147ae147b),
];

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fold_inst(h: &mut u64, d: &DynInst) {
    fnv(h, d.pc.0);
    fnv(h, d.sinst.op as u64);
    fnv(h, d.addr);
    match d.ctrl {
        None => fnv(h, 0),
        Some(c) => {
            fnv(h, 1 + c.taken as u64);
            fnv(h, c.target.0);
        }
    }
}

/// Read `INSTS` instructions of `name` the way fetch does, with periodic
/// wrong-path episodes, and digest everything observed.
fn stream_digest(name: &str) -> u64 {
    let mut src: Box<dyn TraceSource> = ThreadSpec::for_benchmark(name, SEED).build_source(ASID);
    let mut buf = ChunkBuf::new();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for n in 1..=INSTS {
        let d = match buf.pop() {
            Some(d) => d,
            None => {
                buf.reset();
                src.fill(&mut buf);
                buf.pop().expect("a fill appends at least one instruction")
            }
        };
        fold_inst(&mut h, &d);
        if n % WRONG_PATH_EVERY == 0 {
            src.sync_wrong_path_view(buf.len() as u64);
            for g in WRONG_PATH_GENS {
                for _ in 0..2 {
                    fnv(&mut h, src.wrong_path_addr(g));
                }
            }
        }
    }
    h
}

fn all_names() -> Vec<String> {
    let mut names: Vec<String> = BENCHMARK_NAMES.iter().map(|s| s.to_string()).collect();
    names.extend(hdsmt::riscv::program_names().into_iter().map(|p| format!("rv:{p}")));
    names
}

#[test]
fn trace_streams_and_miss_profile_match_the_recorded_values() {
    let profile = MissProfile::build_with_len(PROFILE_INSTS).with_rv_programs(PROFILE_INSTS);
    let observed: Vec<(String, u64, u64)> = all_names()
        .into_iter()
        .map(|name| {
            let digest = stream_digest(&name);
            let bits = profile.get(&name).to_bits();
            (name, digest, bits)
        })
        .collect();
    assert_eq!(observed.len(), PINNED.len(), "one pinned row per program");
    for ((name, digest, bits), &(want_name, want_digest, want_bits)) in observed.iter().zip(PINNED)
    {
        assert_eq!(name, want_name);
        assert_eq!(*digest, want_digest, "{name}: stream digest");
        assert_eq!(*bits, want_bits, "{name}: miss-profile bits");
    }
}
