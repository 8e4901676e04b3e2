//! Lock-in test for `MemHier`'s timing behaviour.
//!
//! Drives a fixed, deterministic mix of loads, stores and instruction
//! fetches with an advancing clock through a hierarchy with a small MSHR
//! file, so that every path the hierarchy has — MSHR coalescing, MSHR-full
//! stalls, TLB misses, L2 hits and L2 evictions — is exercised. The final
//! statistics, the raw MSHR counters and a digest of every access's
//! `(latency, level, tlb_miss, mshr_stall)` are pinned: a refactor of the
//! hierarchy must reproduce them exactly. Only a deliberate timing change
//! (and its re-bless of the golden statistics) may update them.

use std::collections::HashSet;

use hdsmt_mem::{AccessResult, HitLevel, MemConfig, MemHier, MemHierStats};

const ACCESSES: usize = 12_000;

/// xorshift64*: a small, fixed pseudo-random sequence.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a over one access outcome.
fn fold(h: &mut u64, r: &AccessResult) {
    let level = match r.level {
        HitLevel::L1 => 0u8,
        HitLevel::L2 => 1,
        HitLevel::Mem => 2,
    };
    let mut bytes = r.latency.to_le_bytes().to_vec();
    bytes.extend([level, r.tlb_miss as u8, r.mshr_stall as u8]);
    for b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

struct Outcome {
    stats: MemHierStats,
    mshr: ((u64, u64), (u64, u64)),
    digest: u64,
    /// Memory-level results for an L2 line touched before: only an L2
    /// eviction can send such a line back to memory.
    refetched_from_mem: u64,
    l2_level: u64,
}

fn drive() -> Outcome {
    let cfg = MemConfig { mshrs: 2, ..MemConfig::default() };
    let l2_line = cfg.l2.line_bytes;
    let mut m = MemHier::new(cfg);
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut now = 0u64;
    let mut pc = 0x40_0000u64;
    let mut stream = 0x2000_0000u64;
    let mut seen = HashSet::new();
    let (mut refetched_from_mem, mut l2_level) = (0, 0);
    for _ in 0..ACCESSES {
        now += rng.below(4);
        let r = match rng.below(10) {
            0..=2 => {
                // Mostly sequential fetch with occasional jumps over a
                // 1 MB code region (more pages than the 48-entry I-TLB).
                if rng.below(10) == 0 {
                    pc = 0x40_0000 + rng.below(1 << 20) / 4 * 4;
                } else {
                    pc += 4;
                }
                m.ifetch(pc, now)
            }
            kind => {
                let addr = match rng.below(10) {
                    // A hot set of 64 lines.
                    0..=4 => 0x1000_0000 + rng.below(64) * 32 + rng.below(4) * 8,
                    // A sequential stream: repeated lines coalesce.
                    5..=7 => {
                        stream += 8;
                        stream
                    }
                    // Random over 4 MB: TLB misses and L2 evictions.
                    _ => 0x3000_0000 + rng.below(4 << 20) / 8 * 8,
                };
                let r = if kind <= 7 { m.load(addr, now) } else { m.store(addr, now) };
                let line = addr / l2_line;
                if r.level == HitLevel::Mem && seen.contains(&line) {
                    refetched_from_mem += 1;
                }
                if r.level == HitLevel::L2 {
                    l2_level += 1;
                }
                seen.insert(line);
                r
            }
        };
        fold(&mut h, &r);
    }
    Outcome { stats: m.stats(), mshr: m.mshr_stats(), digest: h, refetched_from_mem, l2_level }
}

#[test]
fn mix_exercises_every_hierarchy_path() {
    let o = drive();
    let ((d_coalesced, d_full), (i_coalesced, i_full)) = o.mshr;
    assert!(d_coalesced > 0 && i_coalesced > 0, "coalescing: {:?}", o.mshr);
    assert!(d_full > 0 && i_full > 0, "MSHR-full stalls: {:?}", o.mshr);
    assert!(o.stats.dtlb_misses > 0 && o.stats.itlb_misses > 0, "TLB misses: {:?}", o.stats);
    assert!(o.stats.load_l2_misses > 0, "L2 misses: {:?}", o.stats);
    assert!(o.l2_level > 0, "L2 hits");
    assert!(o.refetched_from_mem > 0, "L2 evictions");
}

#[test]
fn mix_reproduces_the_pinned_outcome() {
    let o = drive();
    assert_eq!(
        o.stats,
        MemHierStats {
            loads: 5931,
            load_l1_misses: 2494,
            load_l2_misses: 1426,
            stores: 2460,
            store_l1_misses: 1007,
            ifetches: 3609,
            ifetch_l1_misses: 3519,
            dtlb_misses: 1313,
            itlb_misses: 220,
        }
    );
    assert_eq!(o.mshr, ((71, 2305), (630, 2648)));
    assert_eq!(o.digest, 0xf919_7fcd_38dc_6eb2);
}
