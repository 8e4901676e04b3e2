//! Property-based tests over the core data structures and the simulator's
//! architectural invariants.

use proptest::prelude::*;

use hdsmt::bpred::Ras;
use hdsmt::core::{enumerate_mappings, run_sim, SimConfig, ThreadSpec};
use hdsmt::isa::Pc;
use hdsmt::mem::{Cache, CacheConfig, Tlb};
use hdsmt::pipeline::{InstId, MicroArch, RegFile, RingBuf};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cache agrees with a brute-force LRU reference model.
    #[test]
    fn cache_matches_reference_lru(addrs in prop::collection::vec(0u64..4096, 1..400)) {
        let cfg = CacheConfig { size_bytes: 256, line_bytes: 32, ways: 2, banks: 2 };
        let mut cache = Cache::new(cfg);
        // Reference: per set, a vector of lines ordered MRU-first.
        let sets = cfg.num_sets();
        let mut reference: Vec<Vec<u64>> = vec![Vec::new(); sets];
        for &a in &addrs {
            let line = a >> 5;
            let set = (line as usize) % sets;
            let model_hit = reference[set].contains(&line);
            let real_hit = cache.access(a);
            prop_assert_eq!(real_hit, model_hit, "addr {:#x}", a);
            if !real_hit {
                cache.fill(a);
            }
            // Update reference LRU.
            reference[set].retain(|&l| l != line);
            reference[set].insert(0, line);
            reference[set].truncate(cfg.ways);
        }
    }

    /// The TLB behaves as a fully-associative LRU over pages.
    #[test]
    fn tlb_matches_reference_lru(pages in prop::collection::vec(0u64..32, 1..300)) {
        let mut tlb = Tlb::new(8, 8192);
        let mut reference: Vec<u64> = Vec::new();
        for &p in &pages {
            let addr = p * 8192 + (p % 100);
            let model_hit = reference.contains(&p);
            prop_assert_eq!(tlb.access(addr), model_hit, "page {}", p);
            reference.retain(|&x| x != p);
            reference.insert(0, p);
            reference.truncate(8);
        }
    }

    /// The TLB's replacement is exact LRU at every capacity: after each
    /// access its resident pages, most recent first, are the reference
    /// recency list's, so every victim is the true least recently used
    /// page. Small page ranges mix hits into the misses; large ones keep
    /// the index's probe runs long and its deletions frequent.
    #[test]
    fn tlb_recency_matches_reference_lru(
        entries in 1usize..20,
        span in 1u64..200,
        pages in prop::collection::vec(0u64..1_000_000, 1..400),
    ) {
        let mut tlb = Tlb::new(entries, 8192);
        let mut reference: Vec<u64> = Vec::new();
        for &raw in &pages {
            let p = raw % span;
            let model_hit = reference.contains(&p);
            prop_assert_eq!(tlb.access(p * 8192 + raw % 8192), model_hit, "page {}", p);
            reference.retain(|&x| x != p);
            reference.insert(0, p);
            reference.truncate(entries);
            prop_assert_eq!(tlb.recency().collect::<Vec<_>>(), reference.clone());
        }
    }

    /// RingBuf is a faithful bounded FIFO at both ends: the decoupling
    /// buffers' retain, and the ROB's head commit and tail squash under
    /// random interleavings.
    #[test]
    fn ringbuf_matches_vecdeque(ops in prop::collection::vec((0u8..5, 0u32..100), 1..300)) {
        let mut ring = RingBuf::new(8);
        let mut model = std::collections::VecDeque::new();
        for (op, v) in ops {
            match op {
                0 | 1 => {
                    let ok = ring.push_back(v);
                    prop_assert_eq!(ok, model.len() < 8);
                    if ok { model.push_back(v); }
                }
                2 => prop_assert_eq!(ring.pop_front(), model.pop_front()),
                3 => prop_assert_eq!(ring.pop_back(), model.pop_back()),
                _ => {
                    ring.retain(|x| x % 3 != 0);
                    model.retain(|x| x % 3 != 0);
                }
            }
            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.front(), model.front());
            prop_assert_eq!(ring.back(), model.back());
        }
        prop_assert!(ring.iter().eq(model.iter()));
    }

    /// ROB tail-squash + head-commit keep FIFO order under random
    /// interleavings: the ROB is a RingBuf<InstId> committed from the front
    /// and squashed from the back.
    #[test]
    fn rob_order_under_mixed_ops(ops in prop::collection::vec(0u8..4, 1..300)) {
        let mut rob: RingBuf<InstId> = RingBuf::new(16);
        let mut model = std::collections::VecDeque::new();
        let mut next = 0u32;
        for op in ops {
            match op {
                0 | 1 => {
                    let ok = rob.push_back(InstId(next));
                    prop_assert_eq!(ok, model.len() < 16);
                    if ok { model.push_back(next); }
                    next += 1;
                }
                2 => prop_assert_eq!(rob.pop_front().map(|i| i.0), model.pop_front()),
                _ => prop_assert_eq!(rob.pop_back().map(|i| i.0), model.pop_back()),
            }
            prop_assert_eq!(rob.len(), model.len());
        }
    }

    /// Physical-register conservation: free count returns to baseline after
    /// any alloc/free interleaving, and no double handing-out.
    #[test]
    fn regfile_conservation(ops in prop::collection::vec(any::<bool>(), 1..200)) {
        let mut rf = RegFile::new(2, 32, 32);
        let baseline = rf.free_counts();
        let mut held: Vec<hdsmt::pipeline::PhysReg> = Vec::new();
        for alloc in ops {
            if alloc {
                if let Some(p) = rf.alloc(hdsmt::isa::ArchReg::int(1)) {
                    prop_assert!(!held.contains(&p), "double allocation of {:?}", p);
                    held.push(p);
                }
            } else if let Some(p) = held.pop() {
                rf.free(p);
            }
        }
        for p in held.drain(..) {
            rf.free(p);
        }
        prop_assert_eq!(rf.free_counts(), baseline);
    }

    /// RAS snapshot/restore heals arbitrary wrong-path corruption.
    #[test]
    fn ras_snapshot_heals_corruption(
        depth in 1usize..6,
        corruption in prop::collection::vec((0u8..2, 0u64..1024), 0..20)
    ) {
        let mut ras = Ras::new(64);
        for i in 0..depth {
            ras.push(Pc(0x1000 + i as u64 * 4));
        }
        let snap = ras.snapshot();
        for (op, v) in corruption {
            if op == 0 { ras.push(Pc(v)); } else { let _ = ras.pop(); }
        }
        ras.restore(snap);
        prop_assert_eq!(ras.pop(), Pc(0x1000 + (depth as u64 - 1) * 4));
    }

    /// Every enumerated mapping respects capacities and the canonical set
    /// is duplicate-free.
    #[test]
    fn mapping_enumeration_sound(n_threads in 1usize..7, arch_i in 0usize..5) {
        let archs = ["3M4", "4M4", "2M4+2M2", "3M4+2M2", "1M6+2M4+2M2"];
        let arch = MicroArch::parse(archs[arch_i]).unwrap();
        if n_threads > arch.total_contexts() as usize {
            return Ok(());
        }
        let maps = enumerate_mappings(&arch, n_threads);
        prop_assert!(!maps.is_empty());
        let set: std::collections::HashSet<_> = maps.iter().cloned().collect();
        prop_assert_eq!(set.len(), maps.len(), "duplicates in canonical enumeration");
        for m in &maps {
            for (p, pipe) in arch.pipes.iter().enumerate() {
                let assigned = m.iter().filter(|&&x| x as usize == p).count();
                prop_assert!(assigned <= pipe.contexts as usize);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The quiescence-skipping cycle engine is statistically invisible:
    /// any (arch × workload × policy × run length × warm-up) cell must
    /// serialize to byte-identical `SimStats` with warping on and
    /// force-disabled (the differential the golden matrix pins for fixed
    /// cells, here over random small configurations — including the
    /// memory-bound mixes where warps are longest and the cycle caps
    /// that land inside quiescent stretches).
    #[test]
    fn warp_on_and_off_produce_identical_stats(
        arch_i in 0usize..3,
        bench_a in 0usize..4,
        bench_b in 0usize..4,
        policy_i in 0usize..4,
        run_len in 400u64..1_500,
        warmup_i in 0usize..3,
        cap_i in 0usize..3,
        seed in 0u64..100,
    ) {
        use hdsmt::core::FetchPolicy;
        let archs = ["M8", "2M4+2M2", "3M4"];
        let pool = ["mcf", "gzip", "twolf", "rv:prime"];
        let policies = [
            FetchPolicy::Icount,
            FetchPolicy::Flush,
            FetchPolicy::L1mcount,
            FetchPolicy::RoundRobin,
        ];
        let warmup = [0u64, 300, 900][warmup_i];
        let cap = [u64::MAX, 2_000, 7_777][cap_i];
        let arch = MicroArch::parse(archs[arch_i]).unwrap();
        let names = [pool[bench_a], pool[bench_b]];
        let mapping: &[u8] = if arch_i == 0 { &[0, 0] } else { &[0, 1] };
        let specs: Vec<ThreadSpec> = names
            .iter()
            .enumerate()
            .map(|(i, n)| ThreadSpec::for_benchmark(n, seed * 7 + i as u64))
            .collect();
        let mut cfg = SimConfig::paper_defaults(arch, run_len);
        cfg.fetch_policy = policies[policy_i];
        cfg.warmup_insts = warmup;
        cfg.max_cycles = cap;
        cfg.warp = true;
        let on = run_sim(&cfg, &specs, mapping);
        cfg.warp = false;
        let off = run_sim(&cfg, &specs, mapping);
        prop_assert_eq!(
            serde_json::to_string(&on.stats).unwrap(),
            serde_json::to_string(&off.stats).unwrap(),
            "warp changed observable statistics"
        );
    }

    /// Architectural invariant: retired instruction counts are independent
    /// of the machine shape (same streams, same seeds → same committed
    /// work), and IPC stays below the machine width.
    #[test]
    fn committed_work_is_architecture_independent(seed in 0u64..50) {
        let names = ["gzip", "vpr"];
        let mk = |arch: &str, mapping: &[u8]| {
            let specs: Vec<ThreadSpec> = names
                .iter()
                .enumerate()
                .map(|(i, n)| ThreadSpec::for_benchmark(n, seed * 10 + i as u64))
                .collect();
            let mut cfg = SimConfig::paper_defaults(MicroArch::parse(arch).unwrap(), 2_000);
            cfg.warmup_insts = 500;
            run_sim(&cfg, &specs, mapping)
        };
        let a = mk("M8", &[0, 0]);
        let b = mk("2M4+2M2", &[0, 1]);
        // Both machines commit at least the fastest thread's budget and
        // respect their width ceiling.
        prop_assert!(a.stats.retired >= 2_000);
        prop_assert!(b.stats.retired >= 2_000);
        prop_assert!(a.ipc() <= 8.0);
        prop_assert!(b.ipc() <= 12.0);
        // Per-thread mispredict rates are rates.
        for t in a.stats.threads.iter().chain(b.stats.threads.iter()) {
            prop_assert!(t.mispredict_rate() <= 1.0);
        }
    }
}
