//! Thread-to-pipeline mapping policies (§2.1).
//!
//! The software-hardware matching is "performed each time the job scheduler
//! of the operating system selects a new bunch of active threads. The whole
//! subsequent execution of the workload is done according to this mapping."
//! This module provides:
//!
//! * [`heuristic_mapping`] — the paper's seven-step profile-guided
//!   heuristic (HEUR);
//! * [`enumerate_mappings`] — every capacity-respecting assignment modulo
//!   same-model pipeline symmetry, from which the BEST/WORST oracle
//!   envelope is evaluated;
//! * round-robin and seeded-random baselines for ablations.

// BTree collections throughout: the lint determinism rule bans HashMap/
// HashSet in simulator-core crates because their iteration order could
// leak into statistics (here: `canonicalize` iterates its group map).
use std::collections::{BTreeMap, BTreeSet};

use hdsmt_pipeline::MicroArch;

use crate::config::ThreadSpec;
use crate::profiler::profile_benchmark;

/// Offline data-cache-miss profile of the benchmark suite: the input to
/// the heuristic (the paper's "profile information").
#[derive(Clone, Debug)]
pub struct MissProfile {
    mpki: BTreeMap<String, f64>,
}

/// Instructions profiled per benchmark when building a [`MissProfile`].
pub const PROFILE_LEN: u64 = 300_000;

impl MissProfile {
    /// Profile every SPECint2000 benchmark model.
    pub fn build() -> Self {
        Self::build_with_len(PROFILE_LEN)
    }

    /// Profile with an explicit per-benchmark instruction budget.
    pub fn build_with_len(n_insts: u64) -> Self {
        let mut mpki = BTreeMap::new();
        for p in hdsmt_trace::all_benchmarks() {
            let spec = ThreadSpec::for_benchmark(p.name, 0);
            mpki.insert(p.name.to_string(), profile_benchmark(&spec, n_insts));
        }
        MissProfile { mpki }
    }

    /// Additionally profile the bundled `rv:*` programs (through the
    /// same `TraceSource` path, so mixed synthetic+real workloads rank
    /// on one scale). Separate from [`Self::build_with_len`] because
    /// emulating five programs is real cost that campaigns without any
    /// rv workload should not pay.
    pub fn with_rv_programs(mut self, n_insts: u64) -> Self {
        for name in hdsmt_riscv::program_names() {
            let bench = format!("{}{name}", crate::config::RV_BENCH_PREFIX);
            let spec = ThreadSpec::for_benchmark(&bench, 0);
            self.mpki.entry(bench).or_insert_with(|| profile_benchmark(&spec, n_insts));
        }
        self
    }

    /// Misses per 1000 instructions for `benchmark` (0 if unprofiled).
    pub fn get(&self, benchmark: &str) -> f64 {
        *self.mpki.get(benchmark).unwrap_or(&0.0)
    }
}

/// The paper's seven-step heuristic (§2.1), verbatim:
///
/// 1. arrange active threads by profiled data-cache misses, fewest first;
/// 2. arrange pipelines by width, widest first;
/// 3. map the first thread in T to the first pipeline in P;
/// 4. if this is the first assignment and there are more hardware contexts
///    than active threads, retire the top pipeline (the best thread keeps
///    it exclusively);
/// 5. remove the mapped thread;
/// 6. if the top pipeline has no free contexts, retire it;
/// 7. repeat from 3 while threads remain.
pub fn heuristic_mapping(arch: &MicroArch, benchmarks: &[&str], profile: &MissProfile) -> Vec<u8> {
    let misses: Vec<f64> = benchmarks.iter().map(|b| profile.get(b)).collect();
    heuristic_by_misses(arch, &misses)
}

/// The seven steps of [`heuristic_mapping`] over one miss key per thread:
/// profiled MPKI there, the last interval's MPKI in [`crate::dynmap`].
/// Keys are ordered by `f64::total_cmp`, so a NaN key sorts to one end
/// instead of panicking.
pub(crate) fn heuristic_by_misses(arch: &MicroArch, misses: &[f64]) -> Vec<u8> {
    let n = misses.len();
    if arch.is_monolithic() {
        return vec![0; n];
    }
    // Step 1: threads by misses ascending (stable on ties by position).
    let mut threads: Vec<usize> = (0..n).collect();
    threads.sort_by(|&a, &b| misses[a].total_cmp(&misses[b]).then(a.cmp(&b)));
    // Step 2: pipelines by width descending (stable on ties by index).
    let mut pipes: Vec<usize> = (0..arch.pipes.len()).collect();
    pipes.sort_by_key(|&p| (std::cmp::Reverse(arch.pipes[p].width), p));

    let total_contexts: usize = arch.pipes.iter().map(|p| p.contexts as usize).sum();
    let mut free: Vec<usize> = arch.pipes.iter().map(|p| p.contexts as usize).collect();
    let mut mapping = vec![0u8; n];
    let mut first_assignment = true;
    let mut ti = 0;

    while ti < threads.len() {
        let p = *pipes.first().expect("ran out of pipeline capacity");
        // Step 3.
        let t = threads[ti];
        mapping[t] = p as u8;
        free[p] -= 1;
        // Step 4.
        if first_assignment && total_contexts > n {
            pipes.remove(0);
        }
        first_assignment = false;
        // Step 5.
        ti += 1;
        // Step 6.
        if let Some(&top) = pipes.first() {
            if free[top] == 0 {
                pipes.remove(0);
            }
        }
        // Step 7: loop.
    }
    mapping
}

/// Round-robin assignment skipping full pipelines.
pub fn round_robin_mapping(arch: &MicroArch, n_threads: usize) -> Vec<u8> {
    if arch.is_monolithic() {
        return vec![0; n_threads];
    }
    let mut free: Vec<usize> = arch.pipes.iter().map(|p| p.contexts as usize).collect();
    let n_pipes = free.len();
    let mut mapping = Vec::with_capacity(n_threads);
    let mut p = 0;
    for _ in 0..n_threads {
        let mut tries = 0;
        while free[p % n_pipes] == 0 {
            p += 1;
            tries += 1;
            assert!(tries <= n_pipes, "no pipeline capacity left");
        }
        mapping.push((p % n_pipes) as u8);
        free[p % n_pipes] -= 1;
        p += 1;
    }
    mapping
}

/// Seeded random capacity-respecting assignment.
pub fn random_mapping(arch: &MicroArch, n_threads: usize, seed: u64) -> Vec<u8> {
    if arch.is_monolithic() {
        return vec![0; n_threads];
    }
    // xorshift-based draw — deterministic without pulling rand in here.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut free: Vec<usize> = arch.pipes.iter().map(|p| p.contexts as usize).collect();
    let mut mapping = Vec::with_capacity(n_threads);
    for _ in 0..n_threads {
        let open: Vec<usize> = (0..free.len()).filter(|&p| free[p] > 0).collect();
        assert!(!open.is_empty(), "no pipeline capacity left");
        let p = open[(next() % open.len() as u64) as usize];
        mapping.push(p as u8);
        free[p] -= 1;
    }
    mapping
}

/// Every capacity-respecting thread→pipeline assignment, deduplicated
/// modulo permutations of identical pipelines. This is the search space of
/// the BEST/WORST oracle.
pub fn enumerate_mappings(arch: &MicroArch, n_threads: usize) -> Vec<Vec<u8>> {
    if arch.is_monolithic() {
        return vec![vec![0; n_threads]];
    }
    let caps: Vec<usize> = arch.pipes.iter().map(|p| p.contexts as usize).collect();
    let mut out = Vec::new();
    let mut seen: BTreeSet<Vec<u8>> = BTreeSet::new();
    let mut cur = vec![0u8; n_threads];
    let mut free = caps.clone();

    fn rec(
        t: usize,
        n: usize,
        arch: &MicroArch,
        cur: &mut Vec<u8>,
        free: &mut Vec<usize>,
        seen: &mut BTreeSet<Vec<u8>>,
        out: &mut Vec<Vec<u8>>,
    ) {
        if t == n {
            let canon = canonicalize(arch, cur);
            if seen.insert(canon.clone()) {
                out.push(canon);
            }
            return;
        }
        for p in 0..free.len() {
            if free[p] == 0 {
                continue;
            }
            free[p] -= 1;
            cur[t] = p as u8;
            rec(t + 1, n, arch, cur, free, seen, out);
            free[p] += 1;
        }
    }
    rec(0, n_threads, arch, &mut cur, &mut free, &mut seen, &mut out);
    out
}

/// Canonical form of a mapping under same-model pipeline symmetry: within
/// each group of identical pipelines, thread sets are re-assigned to the
/// group's pipelines in lexicographic order.
fn canonicalize(arch: &MicroArch, mapping: &[u8]) -> Vec<u8> {
    // Group pipeline indices by model name. BTreeMap so `groups.values()`
    // below iterates in a fixed (name) order: the relabel map it builds is
    // order-insensitive (keys are disjoint across groups), but determinism
    // by construction beats determinism by argument.
    let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, m) in arch.pipes.iter().enumerate() {
        groups.entry(m.name).or_default().push(i);
    }
    let mut relabel: BTreeMap<u8, u8> = BTreeMap::new();
    for pipes in groups.values() {
        if pipes.len() == 1 {
            relabel.insert(pipes[0] as u8, pipes[0] as u8);
            continue;
        }
        // Thread sets currently on each pipe of the group.
        let mut sets: Vec<(Vec<usize>, usize)> = pipes
            .iter()
            .map(|&p| {
                let set: Vec<usize> = mapping
                    .iter()
                    .enumerate()
                    .filter(|(_, &m)| m as usize == p)
                    .map(|(t, _)| t)
                    .collect();
                (set, p)
            })
            .collect();
        sets.sort();
        for (target, (_, orig)) in pipes.iter().zip(sets) {
            relabel.insert(orig as u8, *target as u8);
        }
    }
    mapping.iter().map(|m| relabel[m]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch(name: &str) -> MicroArch {
        MicroArch::parse(name).unwrap()
    }

    /// Hand-built profile with known ordering (no simulation needed).
    fn fake_profile() -> MissProfile {
        let mut mpki = BTreeMap::new();
        for (n, m) in [
            ("eon", 1.0),
            ("gzip", 2.0),
            ("crafty", 3.0),
            ("bzip2", 5.0),
            ("gcc", 8.0),
            ("parser", 12.0),
            ("gap", 6.0),
            ("vortex", 7.0),
            ("perlbmk", 20.0),
            ("vpr", 30.0),
            ("twolf", 40.0),
            ("mcf", 120.0),
        ] {
            mpki.insert(n.to_string(), m);
        }
        MissProfile { mpki }
    }

    #[test]
    fn heuristic_follows_the_seven_steps() {
        // 2M4+2M2: widths [4,4,2,2], contexts [2,2,1,1] = 6.
        // Two threads, 6 contexts > 2 threads → step 4 applies: the
        // low-miss thread takes pipe 0 exclusively, the other gets pipe 1.
        let a = arch("2M4+2M2");
        let m = heuristic_mapping(&a, &["mcf", "gzip"], &fake_profile());
        assert_eq!(m, vec![1, 0], "gzip (fewest misses) → widest pipe, exclusively");

        // Six threads = six contexts → step 4 does NOT apply: the widest
        // pipe takes the two best threads, and so on down the width order.
        let names = ["gzip", "mcf", "eon", "twolf", "vpr", "crafty"];
        let m = heuristic_mapping(&a, &names, &fake_profile());
        // Miss order: eon < gzip < crafty < vpr < twolf < mcf.
        assert_eq!(m[2], 0, "eon on widest");
        assert_eq!(m[0], 0, "gzip shares widest");
        assert_eq!(m[5], 1, "crafty on second M4");
        assert_eq!(m[4], 1, "vpr on second M4");
        assert_eq!(m[3], 2, "twolf on first M2");
        assert_eq!(m[1], 3, "mcf on last M2");
    }

    #[test]
    fn heuristic_on_heterogeneous_1m6() {
        // 1M6+2M4+2M2: widths [6,4,4,2,2], 8 contexts.
        // Four threads, 8 > 4 → best thread owns the M6.
        let a = arch("1M6+2M4+2M2");
        let m = heuristic_mapping(&a, &["vpr", "eon", "mcf", "gzip"], &fake_profile());
        assert_eq!(m[1], 0, "eon owns the M6");
        assert_eq!(m[3], 1, "gzip on first M4");
        assert_eq!(m[0], 1, "vpr shares first M4");
        assert_eq!(m[2], 2, "mcf on second M4");
    }

    #[test]
    fn rv_programs_profile_on_demand() {
        let base = MissProfile::build_with_len(20_000);
        assert_eq!(base.get("rv:sum"), 0.0, "rv programs are not profiled by default");
        let with_rv = base.with_rv_programs(20_000);
        for name in hdsmt_riscv::program_names() {
            let m = with_rv.get(&format!("rv:{name}"));
            assert!(m.is_finite() && m >= 0.0, "rv:{name}: {m}");
        }
        // And the heuristic maps a mixed workload without panicking.
        let a = arch("2M4+2M2");
        let m = heuristic_mapping(&a, &["mcf", "rv:sum"], &with_rv);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn heuristic_monolithic_trivial() {
        let m = heuristic_mapping(&arch("M8"), &["gzip", "mcf"], &fake_profile());
        assert_eq!(m, vec![0, 0]);
    }

    #[test]
    fn enumeration_respects_capacity() {
        let a = arch("2M4+2M2");
        for m in enumerate_mappings(&a, 6) {
            let mut counts = [0usize; 4];
            for &p in &m {
                counts[p as usize] += 1;
            }
            assert!(counts[0] <= 2 && counts[1] <= 2);
            assert!(counts[2] <= 1 && counts[3] <= 1);
        }
    }

    #[test]
    fn enumeration_dedups_symmetry() {
        // 3M4, 2 threads: distinct assignments are only {both together} and
        // {split} — 2, not 3²=9 raw or 6 capacity-valid.
        let a = arch("3M4");
        let m = enumerate_mappings(&a, 2);
        assert_eq!(m.len(), 2, "{m:?}");

        // 2M2 with 2 threads: single distinct assignment (one each).
        let a = arch("2M4+2M2");
        let m = enumerate_mappings(&a, 2);
        // Pairs: both-on-M4 (1), split-M4s (1), M4+M2 (2 asymmetric roles ×
        // … by symmetry: t0M4/t1M4 same pipe, t0/t1 split M4s, t0 M4 t1 M2,
        // t0 M2 t1 M4, both M2s split = 5? Enumerate and sanity-check
        // bounds instead of hand-counting:
        assert!(m.len() >= 4 && m.len() <= 8, "{}", m.len());
        // And every mapping is canonical-unique.
        let set: BTreeSet<_> = m.iter().cloned().collect();
        assert_eq!(set.len(), m.len());
    }

    #[test]
    fn enumeration_contains_heuristic_choice() {
        let a = arch("2M4+2M2");
        let names = ["gzip", "mcf", "vpr", "eon"];
        let heur = heuristic_mapping(&a, &names, &fake_profile());
        let all = enumerate_mappings(&a, 4);
        let canon = canonicalize(&a, &heur);
        assert!(all.contains(&canon), "oracle space must contain the heuristic mapping");
    }

    #[test]
    fn enumeration_order_is_pinned() {
        // Regression for the HashMap→BTreeMap conversion: the BEST/WORST
        // oracle iterates `enumerate_mappings` in order and campaign cache
        // keys hash the canonical mapping bytes, so the exact output —
        // contents AND order — must stay bit-identical across refactors.
        let a = arch("2M4+2M2");
        let m = enumerate_mappings(&a, 2);
        assert_eq!(
            m,
            vec![vec![1, 1], vec![0, 1], vec![1, 3], vec![3, 1], vec![2, 3],],
            "enumeration order changed — BEST/WORST tie-breaking and cached \
             results are no longer comparable with previous runs"
        );
        // And the heuristic itself is a pure function of its inputs.
        let names = ["gzip", "mcf", "vpr", "eon"];
        let h1 = heuristic_mapping(&a, &names, &fake_profile());
        let h2 = heuristic_mapping(&a, &names, &fake_profile());
        assert_eq!(h1, h2);
        // eon (fewest misses) owns the widest M4 exclusively (step 4: 6
        // contexts > 4 threads); gzip and vpr share the second M4; mcf
        // (most misses) lands on the first M2.
        assert_eq!(h1, vec![1, 2, 1, 0]);
    }

    #[test]
    fn round_robin_and_random_respect_capacity() {
        let a = arch("1M6+2M4+2M2");
        for m in [round_robin_mapping(&a, 6), random_mapping(&a, 6, 42), random_mapping(&a, 6, 7)] {
            let mut counts = vec![0usize; a.pipes.len()];
            for &p in &m {
                counts[p as usize] += 1;
            }
            for (c, pm) in counts.iter().zip(a.pipes.iter()) {
                assert!(*c <= pm.contexts as usize);
            }
        }
    }

    #[test]
    fn random_mapping_is_seed_deterministic() {
        let a = arch("2M4+2M2");
        assert_eq!(random_mapping(&a, 4, 9), random_mapping(&a, 4, 9));
    }
}
