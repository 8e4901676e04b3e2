//! Dynamic thread-to-pipeline re-mapping — the paper's stated future work.
//!
//! §7: "Raw performance results also point out that, in future hdSMT
//! implementations, this mapping should probably be made dynamically in
//! order to better adapt to the dynamic changes in program behaviour
//! during execution."
//!
//! This module implements that extension: at a fixed cycle interval, the
//! §2.1 heuristic (the one behind [`crate::heuristic_mapping`]) is
//! re-evaluated on *runtime* data-cache misses per retired instruction
//! over the last interval (instead of offline profile data) and threads
//! whose assignment changed are migrated. A migration squashes the
//! thread's uncommitted work (replaying the architectural instructions
//! through the normal FLUSH recovery path) and re-homes it on the new
//! pipeline, modelling the drain-and-move cost a real implementation
//! would pay.

use crate::config::{SimConfig, ThreadSpec};
use crate::mapping::heuristic_by_misses;
use crate::proc::Processor;
use crate::sim::SimResult;

/// Outcome of a dynamic-mapping run.
#[derive(Clone, Debug)]
pub struct DynMapResult {
    pub result: SimResult,
    /// Total migrations performed.
    pub migrations: u64,
    /// Re-mapping decisions evaluated (intervals elapsed).
    pub intervals: u64,
}

/// Run a simulation with periodic dynamic re-mapping every
/// `interval_cycles`. `initial_mapping` seeds the placement (e.g. a naive
/// round-robin — the dynamic policy should recover from it).
pub fn run_dynamic(
    cfg: &SimConfig,
    workload: &[ThreadSpec],
    initial_mapping: &[u8],
    interval_cycles: u64,
) -> DynMapResult {
    assert!(interval_cycles > 0);
    let mut proc = Processor::new(cfg.clone(), workload, initial_mapping);
    let n = workload.len();
    let mut prev_misses = vec![0u64; n];
    let mut prev_retired = vec![0u64; n];
    let mut next_decision = interval_cycles;
    let mut migrations = 0u64;
    let mut intervals = 0u64;

    while !proc.finished() && proc.cycle() < cfg.max_cycles {
        // The warping cycle loop, stopped at each decision cycle.
        proc.run_until(next_decision, &mut || false);
        if proc.cycle() >= next_decision {
            next_decision += interval_cycles;
            intervals += 1;
            let stats = proc.collect_stats();
            let mpki: Vec<f64> = (0..n)
                .map(|t| {
                    // Saturating: the warm-up statistics reset can move
                    // the counters backwards across one interval.
                    let misses = stats.threads[t].dl1_misses.saturating_sub(prev_misses[t]);
                    let retired = stats.threads[t].retired.saturating_sub(prev_retired[t]).max(1);
                    prev_misses[t] = stats.threads[t].dl1_misses;
                    prev_retired[t] = stats.threads[t].retired;
                    misses as f64 * 1000.0 / retired as f64
                })
                .collect();
            let target = heuristic_by_misses(proc.arch(), &mpki);
            let moves: Vec<(usize, u8)> = (0..n)
                .filter(|&t| proc.thread_pipe(t) != target[t])
                .map(|t| (t, target[t]))
                .collect();
            migrations += moves.len() as u64;
            proc.remap_threads(&moves);
        }
    }
    let stats = proc.collect_stats();
    DynMapResult {
        result: SimResult {
            arch: cfg.arch.name.clone(),
            mapping: (0..n).map(|t| proc.thread_pipe(t)).collect(),
            stats,
        },
        migrations,
        intervals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MissProfile;
    use hdsmt_pipeline::MicroArch;

    fn specs() -> Vec<ThreadSpec> {
        vec![ThreadSpec::for_benchmark("gzip", 61), ThreadSpec::for_benchmark("mcf", 62)]
    }

    #[test]
    fn runtime_heuristic_matches_static_shape() {
        // Low-miss thread to the widest pipe, exclusively (step 4).
        let arch = MicroArch::parse("2M4+2M2").unwrap();
        let m = heuristic_by_misses(&arch, &[120.0, 2.0]);
        assert_eq!(m, vec![1, 0], "low-miss thread owns the widest pipe");
    }

    #[test]
    fn monolithic_core_never_migrates() {
        // One pipeline with spare contexts: step 4 would retire the only
        // pipe after the first thread, so the monolithic guard must hold.
        let cfg = SimConfig::paper_defaults(MicroArch::parse("M8").unwrap(), 5_000);
        let d = run_dynamic(&cfg, &specs(), &[0, 0], 1_000);
        assert!(d.intervals > 0, "re-mapping must be evaluated");
        assert_eq!(d.migrations, 0);
        assert_eq!(d.result.mapping, vec![0, 0]);
    }

    #[test]
    fn dynamic_recovers_from_bad_initial_mapping() {
        let arch = MicroArch::parse("2M4+2M2").unwrap();
        let cfg = SimConfig::paper_defaults(arch.clone(), 15_000);
        // Pathological start: the ILP thread on an M2, mcf on an M4.
        let bad = vec![2u8, 0];
        let static_bad = crate::sim::run_sim(&cfg, &specs(), &bad);
        let dynamic = run_dynamic(&cfg, &specs(), &bad, 4_000);
        assert!(dynamic.migrations > 0, "re-mapping must trigger");
        assert!(
            dynamic.result.ipc() > static_bad.ipc(),
            "dynamic {} must beat the bad static mapping {}",
            dynamic.result.ipc(),
            static_bad.ipc()
        );
        // And it should converge to (or near) the profile heuristic's
        // placement quality.
        let profile = MissProfile::build_with_len(50_000);
        let heur = crate::mapping::heuristic_mapping(&arch, &["gzip", "mcf"], &profile);
        let static_good = crate::sim::run_sim(&cfg, &specs(), &heur);
        assert!(
            dynamic.result.ipc() > 0.85 * static_good.ipc(),
            "dynamic {} should approach the static heuristic {}",
            dynamic.result.ipc(),
            static_good.ipc()
        );
    }

    #[test]
    fn warping_is_invisible_to_dynamic_remapping() {
        // `run_dynamic` runs on the warping cycle loop, each warp stopped
        // at the next decision cycle: with the engine on and off it must
        // make the same decisions and end in the same state, at every
        // interval `reproduce ablate-dynmap` uses.
        for (arch, initial) in [("M8", [0u8, 0]), ("2M4+2M2", [2, 0])] {
            let cfg = SimConfig::paper_defaults(MicroArch::parse(arch).unwrap(), 12_000);
            let mut stepped_cfg = cfg.clone();
            stepped_cfg.warp = false;
            for interval in [2_000, 8_000, 32_000] {
                let warped = run_dynamic(&cfg, &specs(), &initial, interval);
                let stepped = run_dynamic(&stepped_cfg, &specs(), &initial, interval);
                assert!(warped.intervals > 0, "{arch}/{interval}: no decision taken");
                assert_eq!(warped.result.stats, stepped.result.stats, "{arch}/{interval}");
                assert_eq!(warped.result.mapping, stepped.result.mapping, "{arch}/{interval}");
                assert_eq!(warped.migrations, stepped.migrations, "{arch}/{interval}");
                assert_eq!(warped.intervals, stepped.intervals, "{arch}/{interval}");
            }
            // The comparison means something only if the loop warps
            // before the first decision.
            let mut proc = Processor::new(cfg, &specs(), &initial);
            proc.run_until(2_000, &mut || false);
            assert_eq!(proc.cycle(), 2_000, "{arch}: a capped warp stops at the decision");
            assert!(proc.warped_cycles() > 0, "{arch}: nothing warped");
        }
    }

    #[test]
    fn migration_preserves_architectural_progress() {
        // Aggressive re-mapping every 500 cycles must not corrupt
        // committed-instruction accounting or determinism.
        let arch = MicroArch::parse("2M4+2M2").unwrap();
        let cfg = SimConfig::paper_defaults(arch, 5_000);
        let a = run_dynamic(&cfg, &specs(), &[0, 1], 500);
        let b = run_dynamic(&cfg, &specs(), &[0, 1], 500);
        assert_eq!(a.result.stats.cycles, b.result.stats.cycles, "determinism");
        assert_eq!(a.migrations, b.migrations);
        assert!(a.result.stats.retired >= 5_000);
    }
}
