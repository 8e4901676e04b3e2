//! Property-based tests over the core data structures and the simulator's
//! architectural invariants.

use proptest::prelude::*;

use hdsmt::bpred::Ras;
use hdsmt::core::{enumerate_mappings, run_sim, SimConfig, ThreadSpec};
use hdsmt::isa::{FuKind, Op, Pc};
use hdsmt::mem::{Cache, CacheConfig, Tlb};
use hdsmt::pipeline::{InstId, MicroArch, ReadyEntry, ReadyList, RegFile, RingBuf};

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
    /// One pipeline's age-ordered ready list, walked in place, issues
    /// exactly what the unordered ready set it replaced did when its
    /// candidates were gathered and sorted every cycle: random dispatches
    /// (ready at once, or later through a wakeup), issue cycles under a
    /// width and per-kind FU limits with back-offs, loads blocked for a
    /// few cycles on a store's address, squashes and retry delays. The
    /// list keeps a blocked load in place with an ordering wait; the
    /// reference keeps the old ready set's order (appends and
    /// swap-removals), finds entries by id, and parks blocked loads
    /// apart until they are due.
    #[test]
    fn ready_list_matches_gather_and_sort_issue(
        ops in prop::collection::vec((0u8..8, 0u8..4, 0u64..1 << 20), 1..300)
    ) {
        const OPS: [Op; 4] = [Op::IntAlu, Op::FpAlu, Op::Load, Op::Store];
        const WIDTH: usize = 3;
        let fu_limit = |op: Op| match op.fu_kind() {
            FuKind::Int => 2,
            FuKind::Fp => 1,
            FuKind::LdSt => 2,
        };
        // What a memory op does when it reaches issue this cycle, a pure
        // function of its identity and the cycle: 0 blocked on a store
        // (loads only), 1 bounced off a full MSHR file (loads only).
        let fate = |e: &ReadyEntry, now: u64| {
            let h = (e.id.0 as u64 ^ now.wrapping_mul(0x9e37_79b9)).wrapping_mul(0xbf58_476d) >> 7;
            if e.op.is_load() { h % 5 } else { 4 }
        };
        // The blocking store's agen cycle.
        let agen = |e: &ReadyEntry, now: u64| now + 1 + (e.id.0 % 3) as u64;
        let mut list = ReadyList::default();
        // The reference: the ready set, its back-offs in `retry_at`
        // alone, and the park of blocked loads with their due cycles.
        let mut set: Vec<ReadyEntry> = Vec::new();
        let mut park: Vec<(u64, ReadyEntry)> = Vec::new();
        let mut pending: Vec<ReadyEntry> = Vec::new();
        let mut next_seq = [1u64; 4];
        let (mut now, mut next_id) = (1u64, 0u32);
        for (kind, thread, r) in ops {
            match kind {
                // Dispatch: operands ready now, or pending a wakeup.
                0..=2 => {
                    let t = thread as usize;
                    let op = OPS[(r % 4) as usize];
                    let e = ReadyEntry::new(next_seq[t], r & !7, InstId(next_id), thread, op);
                    next_seq[t] += 1 + r % 3;
                    next_id += 1;
                    if kind == 0 {
                        pending.push(e);
                    } else {
                        list.insert(e);
                        set.push(e);
                    }
                }
                // Wakeup of a pending instruction, in any order.
                3 if !pending.is_empty() => {
                    let e = pending.swap_remove((r % pending.len() as u64) as usize);
                    list.insert(e);
                    set.push(e);
                }
                // Squash a thread's instructions younger than a point.
                4 => {
                    let seq_min = r % next_seq[thread as usize].max(1);
                    let younger = |e: &ReadyEntry| e.thread == thread && e.seq > seq_min;
                    list.remove_younger(thread, seq_min);
                    set.retain(|e| !younger(e));
                    pending.retain(|e| !younger(e));
                    park.retain(|(_, e)| !younger(e));
                }
                // A retry-only stretch: every ready entry is backed off.
                5 if set.iter().all(|e| e.retry_at != 0) => {
                    let by = 2 * (r % 4);
                    list.delay_retries(by);
                    set.iter_mut().for_each(|e| e.retry_at += by);
                }
                // One issue cycle.
                _ => {
                    // The list: one walk, deciding in place.
                    let (mut issued, mut fu_used) = (Vec::new(), [0usize; 3]);
                    list.retain_mut(|e| {
                        if e.retry_at > now {
                            return true;
                        }
                        if !e.clear {
                            e.retry_at = 0; // an ordering wait ends
                            if fate(e, now) == 0 {
                                e.retry_at = agen(e, now);
                                return true;
                            }
                        }
                        let k = e.op.fu_kind() as usize;
                        if issued.len() >= WIDTH || fu_used[k] >= fu_limit(e.op) {
                            return true;
                        }
                        fu_used[k] += 1;
                        issued.push(e.id);
                        if fate(e, now) == 1 {
                            e.retry_at = now + 2;
                            e.clear = true;
                            return true;
                        }
                        false
                    });
                    // The reference: unpark, gather, park the blocked
                    // loads, sort, then issue in order, finding entries
                    // by id.
                    park.retain(|&(at, e)| {
                        if at == now {
                            set.push(e);
                        }
                        at != now
                    });
                    let mut blocked = Vec::new();
                    let mut candidates = Vec::new();
                    for e in &set {
                        if e.retry_at > now {
                            continue;
                        }
                        if e.retry_at == 0 && fate(e, now) == 0 {
                            blocked.push(*e);
                        } else {
                            candidates.push(*e);
                        }
                    }
                    for e in blocked {
                        let i = set.iter().position(|x| x.id == e.id).unwrap();
                        set.swap_remove(i);
                        park.push((agen(&e, now), e));
                    }
                    candidates.sort_unstable_by_key(|e| (e.seq, e.thread));
                    let (mut want, mut fu_used) = (Vec::new(), [0usize; 3]);
                    for e in candidates {
                        let k = e.op.fu_kind() as usize;
                        if want.len() >= WIDTH {
                            break;
                        }
                        if fu_used[k] >= fu_limit(e.op) {
                            continue;
                        }
                        fu_used[k] += 1;
                        want.push(e.id);
                        let i = set.iter().position(|x| x.id == e.id).unwrap();
                        if fate(&e, now) == 1 {
                            set[i].retry_at = now + 2;
                        } else {
                            set.swap_remove(i);
                        }
                    }
                    prop_assert_eq!(issued, want, "issue order at cycle {}", now);
                    now += 1;
                }
            }
            // The list's back-offs and fresh entries are the ready set,
            // and its ordering waits the park, each in age order.
            let ordering_wait = |e: &ReadyEntry| e.retry_at != 0 && !e.clear;
            let key = |e: &ReadyEntry| (e.seq, e.thread);
            let mut sorted = set.clone();
            sorted.sort_unstable_by_key(key);
            let got: Vec<_> =
                list.entries().iter().filter(|e| !ordering_wait(e)).map(|e| (e.id, e.retry_at, e.clear)).collect();
            let want: Vec<_> = sorted.iter().map(|e| (e.id, e.retry_at, e.retry_at != 0)).collect();
            prop_assert_eq!(got, want);
            park.sort_unstable_by_key(|(_, e)| key(e));
            let got: Vec<_> =
                list.entries().iter().filter(|e| ordering_wait(e)).map(|e| (e.id, e.retry_at)).collect();
            let want: Vec<_> = park.iter().map(|&(at, e)| (e.id, at)).collect();
            prop_assert_eq!(got, want);
            let want_retry = set.iter().map(|e| e.retry_at).chain(park.iter().map(|p| p.0)).min();
            prop_assert_eq!(list.next_retry(true), want_retry.unwrap_or(u64::MAX));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The quiescence-skipping cycle engine is statistically invisible:
    /// any (arch × workload × policy × run length × warm-up × register-
    /// file latency) cell must
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
        rf_i in 0usize..3,
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
        // At a register-file latency of 3 or more, an ordering wait can
        // outlast a two-cycle retry period, which the retry fast-forward
        // must leave in place.
        cfg.regfile_lat = [None, Some(3), Some(8)][rf_i];
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

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
