//! Top-level simulation driver.

use crate::config::{SimConfig, ThreadSpec};
use crate::proc::Processor;
use crate::stats::SimStats;

/// Result of one simulation run. Serializable so the campaign engine can
/// store it in (and bit-identically restore it from) the result cache.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct SimResult {
    pub arch: String,
    pub mapping: Vec<u8>,
    pub stats: SimStats,
}

impl SimResult {
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// Run `workload` on the machine described by `cfg` under `mapping`
/// (thread i → pipeline `mapping[i]`), until a thread retires its budget.
pub fn run_sim(cfg: &SimConfig, workload: &[ThreadSpec], mapping: &[u8]) -> SimResult {
    let mut proc = Processor::new(cfg.clone(), workload, mapping);
    let stats = proc.run();
    SimResult { arch: cfg.arch.name.clone(), mapping: mapping.to_vec(), stats }
}

/// [`run_sim`] with a cooperative abandon hook (see
/// [`Processor::run_interruptible`]): `None` means `should_stop` fired
/// mid-simulation and the run was abandoned. A completed run is
/// bit-identical to [`run_sim`].
pub fn run_sim_interruptible(
    cfg: &SimConfig,
    workload: &[ThreadSpec],
    mapping: &[u8],
    should_stop: &mut dyn FnMut() -> bool,
) -> Option<SimResult> {
    let mut proc = Processor::new(cfg.clone(), workload, mapping);
    let stats = proc.run_interruptible(should_stop)?;
    Some(SimResult { arch: cfg.arch.name.clone(), mapping: mapping.to_vec(), stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FetchPolicy;
    use hdsmt_pipeline::MicroArch;

    fn spec(name: &str, seed: u64) -> ThreadSpec {
        ThreadSpec::for_benchmark(name, seed)
    }

    fn quick(arch: &str, names: &[&str], mapping: &[u8], len: u64) -> SimResult {
        let cfg = SimConfig::paper_defaults(MicroArch::parse(arch).unwrap(), len);
        let workload: Vec<ThreadSpec> =
            names.iter().enumerate().map(|(i, n)| spec(n, 100 + i as u64)).collect();
        run_sim(&cfg, &workload, mapping)
    }

    #[test]
    fn single_thread_gzip_runs_and_retires() {
        let r = quick("M8", &["gzip"], &[0], 50_000);
        // Commit can overshoot the target by at most one cycle's width.
        let retired = r.stats.threads[0].retired;
        assert!((50_000..50_008).contains(&retired), "retired {retired}");
        let ipc = r.ipc();
        assert!((1.0..8.0).contains(&ipc), "gzip IPC {ipc}");
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = quick("M8", &["gcc", "twolf"], &[0, 0], 20_000);
        let b = quick("M8", &["gcc", "twolf"], &[0, 0], 20_000);
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.retired, b.stats.retired);
        assert_eq!(a.stats.threads[0].mispredicts, b.stats.threads[0].mispredicts);
    }

    #[test]
    fn mcf_is_slower_than_gzip() {
        let gzip = quick("M8", &["gzip"], &[0], 30_000);
        let mcf = quick("M8", &["mcf"], &[0], 30_000);
        assert!(gzip.ipc() > 2.0 * mcf.ipc(), "gzip {} vs mcf {}", gzip.ipc(), mcf.ipc());
    }

    #[test]
    fn two_threads_beat_one_in_throughput() {
        let one = quick("M8", &["gzip"], &[0], 30_000);
        let two = quick("M8", &["gzip", "crafty"], &[0, 0], 30_000);
        assert!(
            two.ipc() > one.ipc() * 1.1,
            "SMT must add throughput: {} vs {}",
            two.ipc(),
            one.ipc()
        );
    }

    #[test]
    fn multipipeline_runs_with_thread_separation() {
        let r = quick("2M4+2M2", &["gzip", "mcf"], &[0, 2], 20_000);
        assert!(r.stats.retired > 0);
        assert!(r.stats.per_pipe_retired[0] > 0);
        assert!(r.stats.per_pipe_retired[2] > 0);
        assert_eq!(r.stats.per_pipe_retired[1], 0, "unused pipeline stays idle");
    }

    #[test]
    fn wide_pipe_beats_narrow_pipe_for_ilp_thread() {
        let wide = quick("2M4+2M2", &["gzip"], &[0], 30_000);
        let narrow = quick("2M4+2M2", &["gzip"], &[2], 30_000);
        assert!(
            wide.ipc() > narrow.ipc() * 1.2,
            "gzip on M4 {} must beat M2 {}",
            wide.ipc(),
            narrow.ipc()
        );
    }

    #[test]
    fn narrow_pipe_barely_hurts_mcf() {
        // The M2 halves mcf's load-queue (16 vs 32), costing some memory-
        // level parallelism, but the absolute IPC loss is tiny — which is
        // why the heuristic parks high-miss threads on narrow pipes.
        let wide = quick("2M4+2M2", &["mcf"], &[0], 8_000);
        let narrow = quick("2M4+2M2", &["mcf"], &[2], 8_000);
        assert!(
            narrow.ipc() > wide.ipc() * 0.5,
            "mcf on M2 {} should stay within 2x of M4 {}",
            narrow.ipc(),
            wide.ipc()
        );
        assert!(wide.ipc() - narrow.ipc() < 0.4, "absolute loss stays small");
    }

    #[test]
    fn branches_resolve_and_flushes_fire() {
        let r = quick("M8", &["mcf", "gcc"], &[0, 0], 30_000);
        let t0 = &r.stats.threads[0];
        assert!(t0.branches > 100, "branches must resolve");
        assert!(t0.mispredict_rate() < 0.5);
        assert!(t0.flushes > 0, "mcf under FLUSH must flush");
        // And the flushed instructions replayed: retired ≥ flushes.
        assert!(t0.retired > t0.flushes);
    }

    #[test]
    fn wrong_path_fetching_happens() {
        let r = quick("M8", &["twolf"], &[0], 20_000);
        assert!(
            r.stats.threads[0].wrong_path_fetched > 0,
            "mispredictions must trigger wrong-path fetch"
        );
        assert!(r.stats.threads[0].mispredicts > 0);
    }

    #[test]
    fn riscv_program_runs_and_retires() {
        // A real RV64I trace drives the whole pipeline: fetch, rename,
        // issue, the cache hierarchy, branch prediction, commit.
        let r = quick("M8", &["rv:matmul"], &[0], 30_000);
        let retired = r.stats.threads[0].retired;
        assert!((30_000..30_008).contains(&retired), "retired {retired}");
        assert!((0.5..8.0).contains(&r.ipc()), "rv:matmul IPC {}", r.ipc());
        let t0 = &r.stats.threads[0];
        assert_eq!(t0.benchmark, "rv:matmul");
        assert!(t0.branches > 100, "real branches must resolve");
        assert!(t0.loads > 100, "real loads must execute");
        assert!(t0.mispredict_rate() < 0.5);
    }

    #[test]
    fn riscv_simulation_is_deterministic() {
        let a = quick("M8", &["rv:sort", "rv:prime"], &[0, 0], 10_000);
        let b = quick("M8", &["rv:sort", "rv:prime"], &[0, 0], 10_000);
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.retired, b.stats.retired);
        assert_eq!(a.stats.threads[0].mispredicts, b.stats.threads[0].mispredicts);
        assert_eq!(a.stats.mem, b.stats.mem);
    }

    #[test]
    fn mixed_synthetic_and_riscv_workload_runs_on_hdsmt() {
        // The tentpole scenario: one synthetic thread and one real
        // program co-scheduled on a multipipeline machine.
        let r = quick("2M4+2M2", &["gzip", "rv:fib"], &[0, 1], 10_000);
        assert!(r.stats.per_pipe_retired[0] > 0 && r.stats.per_pipe_retired[1] > 0);
        assert_eq!(r.stats.threads[1].benchmark, "rv:fib");
        assert!(r.stats.threads[1].branches > 50);
        assert!(r.ipc() > 1.0, "mixed IPC {}", r.ipc());
    }

    /// Run one workload twice — quiescence warping on and force-disabled —
    /// and return both results plus the warping run's skip counters.
    fn warp_ab(
        arch: &str,
        names: &[&str],
        mapping: &[u8],
        tweak: impl Fn(&mut SimConfig),
    ) -> (SimResult, SimResult, u64, u64) {
        let arch = MicroArch::parse(arch).unwrap();
        let workload: Vec<ThreadSpec> =
            names.iter().enumerate().map(|(i, n)| spec(n, 900 + i as u64)).collect();
        let mut on = SimConfig::paper_defaults(arch.clone(), 4_000);
        tweak(&mut on);
        let mut off = on.clone();
        off.warp = false;
        let mut p = Processor::new(on, &workload, mapping);
        let warped =
            SimResult { arch: arch.name.clone(), mapping: mapping.to_vec(), stats: p.run() };
        let (skipped, warps) = (p.warped_cycles(), p.warps());
        let stepped = run_sim(&off, &workload, mapping);
        (warped, stepped, skipped, warps)
    }

    use crate::proc::Processor;

    #[test]
    fn warping_is_statistically_invisible_and_actually_engages() {
        // Memory-saturated FLUSH mix: the regime the quiescence engine
        // targets. The warped run must skip a substantial share of the
        // simulated cycles and still produce bit-identical statistics.
        let (warped, stepped, skipped, warps) =
            warp_ab("M8", &["mcf", "mcf", "twolf", "vpr"], &[0, 0, 0, 0], |_| {});
        assert_eq!(warped.stats, stepped.stats, "warping must be invisible in the statistics");
        assert!(warps > 0, "the memory-saturated cell must trigger warps");
        let total = warped.stats.cycles;
        assert!(
            skipped * 5 > total,
            "expected a substantial fraction of {total} cycles skipped, got {skipped}"
        );
    }

    #[test]
    fn retry_storms_fast_forward_invisibly() {
        // The MSHR-saturated cells: four mcf threads under ICOUNT, and
        // the FLUSH mix. Fast-forwarding their retry-only stretches must
        // leave the statistics and the raw MSHR counters bit-identical,
        // and it must actually fire.
        let cases: [(&[&str], FetchPolicy); 2] = [
            (&["mcf", "mcf", "mcf", "mcf"], FetchPolicy::Icount),
            (&["mcf", "mcf", "twolf", "vpr"], FetchPolicy::Flush),
        ];
        for (names, policy) in cases {
            let workload: Vec<ThreadSpec> =
                names.iter().enumerate().map(|(i, n)| spec(n, 40 + i as u64)).collect();
            let mut on = SimConfig::paper_defaults(MicroArch::baseline(), 5_000);
            on.fetch_policy = policy;
            let mut off = on.clone();
            off.warp = false;
            let mut warped = Processor::new(on, &workload, &[0; 4]);
            let mut stepped = Processor::new(off, &workload, &[0; 4]);
            assert_eq!(warped.run(), stepped.run(), "{policy:?}: statistics differ");
            assert_eq!(warped.mshr_stats(), stepped.mshr_stats(), "{policy:?}: MSHR counters");
            assert!(warped.retry_warped_cycles() > 0, "{policy:?}: no retry stretch skipped");
            assert!(warped.retry_warped_cycles() < warped.warped_cycles());
            assert_eq!(stepped.warped_cycles(), 0, "warp = false single-steps every cycle");
        }
    }

    #[test]
    fn warp_respects_the_cycle_cap_exactly() {
        // The cap lands inside a quiescent stretch: the warp must clamp to
        // max_cycles, never jump past it, and report the same cycle count
        // a single-stepped run idling to the cap would.
        for cap in [1_000, 2_048, 3_333] {
            let (warped, stepped, _, _) = warp_ab("M8", &["mcf"], &[0], |c| c.max_cycles = cap);
            assert_eq!(warped.stats, stepped.stats, "cap {cap}");
            assert!(warped.stats.cycles <= cap);
        }
    }

    #[test]
    fn warp_observes_the_warmup_boundary_exactly() {
        // Non-trivial warm-up: the statistics reset at the warm-up commit
        // boundary must fall on the same cycle with and without warping
        // (a warp can never jump the boundary — quiescent cycles commit
        // nothing — but the reset bookkeeping must agree exactly).
        for warmup in [500, 1_999] {
            let (warped, stepped, _, _) = warp_ab("M8", &["mcf", "twolf"], &[0, 0], |c| {
                c.warmup_insts = warmup;
                c.max_retired_per_thread = 1_500;
            });
            assert_eq!(warped.stats, stepped.stats, "warmup {warmup}");
        }
    }

    #[test]
    fn no_warp_env_override_disables_warping() {
        // `SimConfig::warp` is the one switch: build with it both ways
        // and check the counters.
        let cfg = SimConfig::paper_defaults(MicroArch::baseline(), 2_000);
        let workload = vec![spec("mcf", 3)];
        let mut off_cfg = cfg.clone();
        off_cfg.warp = false;
        let mut on = Processor::new(cfg, &workload, &[0]);
        let mut off = Processor::new(off_cfg, &workload, &[0]);
        let a = on.run();
        let b = off.run();
        assert_eq!(a, b);
        assert!(on.warped_cycles() > 0);
        assert_eq!(off.warped_cycles(), 0, "disabled engine must never skip");
    }

    #[test]
    #[should_panic(expected = "contexts")]
    fn capacity_violation_panics() {
        // M2 pipelines hold one context.
        let _ = quick("2M4+2M2", &["gzip", "mcf"], &[2, 2], 1_000);
    }

    #[test]
    fn icount_invariant_holds_during_execution() {
        let cfg = SimConfig::paper_defaults(MicroArch::parse("2M4+2M2").unwrap(), 10_000);
        let workload = vec![spec("gcc", 5), spec("vpr", 6), spec("gzip", 7)];
        let mut proc = Processor::new(cfg, &workload, &[0, 1, 2]);
        for _ in 0..5_000 {
            proc.step();
            if proc.cycle().is_multiple_of(512) {
                proc.check_icount_invariant();
            }
            if proc.finished() {
                break;
            }
        }
    }

    #[test]
    fn scheduler_invariants_hold_during_execution() {
        // Ready sets ⊆ queues (and complete), wheel population == executing
        // instructions, per-thread store lists == LQ contents — checked
        // frequently on both a monolithic and a multipipeline machine so
        // squash/flush/replay traffic is exercised between checks.
        for arch in ["M8", "2M4+2M2"] {
            let cfg = SimConfig::paper_defaults(MicroArch::parse(arch).unwrap(), 6_000);
            let workload = vec![spec("gcc", 5), spec("mcf", 6)];
            let mapping: Vec<u8> = if arch == "M8" { vec![0, 0] } else { vec![0, 1] };
            let mut proc = Processor::new(cfg, &workload, &mapping);
            for _ in 0..4_000 {
                proc.step();
                if proc.cycle().is_multiple_of(64) {
                    proc.check_scheduler_invariants();
                }
                if proc.finished() {
                    break;
                }
            }
            proc.check_scheduler_invariants();
        }
    }
}
