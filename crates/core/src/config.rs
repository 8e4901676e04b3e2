//! Simulation configuration (defaults reproduce §4 / Table 1).

use std::sync::Arc;

use hdsmt_bpred::DirPredictorKind;
use hdsmt_isa::Program;
use hdsmt_mem::MemConfig;
use hdsmt_pipeline::MicroArch;
use hdsmt_riscv::{RvImage, RvTraceSource};
use hdsmt_trace::{BenchProfile, TraceSource, TraceStream};

/// Instruction-fetch policy (§4).
#[derive(Clone, Copy, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
pub enum FetchPolicy {
    /// ICOUNT 2.8 (Tullsen et al., ISCA-23): prioritise threads with the
    /// fewest pre-issue instructions.
    Icount,
    /// FLUSH (Tullsen & Brown, MICRO-34) on top of ICOUNT: on a predicted
    /// L2 miss, flush the offending thread past the load and gate its
    /// fetch until the load returns. The paper's baseline (M8) policy.
    Flush,
    /// L1MCOUNT (§4): a DCache-Warn variant — prioritise threads with the
    /// fewest in-flight loads, tie-break toward wider pipelines, then
    /// ICOUNT. The paper's multipipeline policy.
    L1mcount,
    /// Round-robin (ablation baseline).
    RoundRobin,
}

/// Which front-end produces a thread's dynamic instruction stream.
#[derive(Clone)]
pub enum WorkloadKind {
    /// A statistically synthesized SPECint2000 benchmark model.
    Synthetic {
        profile: &'static BenchProfile,
        /// The benchmark's synthetic binary (shared across simulations).
        program: Arc<Program>,
    },
    /// A real RV64I(+M) program executed architecturally.
    Riscv { image: Arc<RvImage> },
}

/// Benchmark-name prefix selecting the RV64I front-end (`rv:matmul`).
pub const RV_BENCH_PREFIX: &str = "rv:";

/// One software thread of the workload: which program it runs (by either
/// front-end) and its stream seed.
#[derive(Clone)]
pub struct ThreadSpec {
    /// Benchmark name (`gzip`, `rv:matmul`, …) — labels statistics rows.
    pub name: String,
    pub kind: WorkloadKind,
    /// Stream seed (synthetic outcome/address draws; wrong-path draws for
    /// the RV64I front-end, whose correct path is seed-independent).
    pub seed: u64,
}

impl ThreadSpec {
    /// Build the spec for `benchmark`, synthesizing (or reusing) its
    /// program deterministically. Names starting with
    /// [`RV_BENCH_PREFIX`] resolve to bundled RV64I programs.
    ///
    /// # Panics
    /// Panics on an unknown benchmark name; use
    /// [`Self::try_for_benchmark`] to validate untrusted input.
    pub fn for_benchmark(benchmark: &str, seed: u64) -> Self {
        Self::try_for_benchmark(benchmark, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::for_benchmark`].
    pub fn try_for_benchmark(benchmark: &str, seed: u64) -> Result<Self, String> {
        let kind = if let Some(prog) = benchmark.strip_prefix(RV_BENCH_PREFIX) {
            let image = hdsmt_riscv::by_name(prog)
                .ok_or_else(|| format!("unknown RISC-V program `{benchmark}`"))?;
            WorkloadKind::Riscv { image }
        } else {
            let profile = hdsmt_trace::by_name(benchmark)
                .ok_or_else(|| format!("unknown benchmark `{benchmark}`"))?;
            let program = Arc::new(hdsmt_trace::synthesize(
                profile,
                hdsmt_trace::spec::program_seed(benchmark),
            ));
            WorkloadKind::Synthetic { profile, program }
        };
        Ok(ThreadSpec { name: benchmark.to_string(), kind, seed })
    }

    /// A spec over an explicit synthetic profile + program (calibration
    /// probes and tests).
    pub fn synthetic(profile: &'static BenchProfile, program: Arc<Program>, seed: u64) -> Self {
        ThreadSpec {
            name: profile.name.to_string(),
            kind: WorkloadKind::Synthetic { profile, program },
            seed,
        }
    }

    /// Does `benchmark` name a known workload (either front-end)?
    pub fn exists(benchmark: &str) -> bool {
        match benchmark.strip_prefix(RV_BENCH_PREFIX) {
            Some(prog) => hdsmt_riscv::by_name(prog).is_some(),
            None => hdsmt_trace::by_name(benchmark).is_some(),
        }
    }

    /// The static program image (the fetch engine's dictionary).
    pub fn program(&self) -> &Arc<Program> {
        match &self.kind {
            WorkloadKind::Synthetic { program, .. } => program,
            WorkloadKind::Riscv { image } => &image.program,
        }
    }

    /// Instantiate this thread's dynamic-instruction source with the
    /// spec's own seed.
    pub fn build_source(&self, asid: u8) -> Box<dyn TraceSource> {
        self.build_source_seeded(self.seed, asid)
    }

    /// Instantiate the source with an explicit seed (profiling runs use a
    /// fixed profile seed instead of the simulation seed).
    pub fn build_source_seeded(&self, seed: u64, asid: u8) -> Box<dyn TraceSource> {
        match &self.kind {
            WorkloadKind::Synthetic { profile, program } => {
                Box::new(TraceStream::new(program.clone(), profile, seed, asid))
            }
            WorkloadKind::Riscv { image } => {
                Box::new(RvTraceSource::new(image.clone(), seed, asid))
            }
        }
    }
}

/// Full simulator configuration.
#[derive(Clone)]
pub struct SimConfig {
    pub arch: MicroArch,
    pub fetch_policy: FetchPolicy,
    pub predictor: DirPredictorKind,
    pub mem: MemConfig,
    /// Shared rename registers per class (Table 1: 256).
    pub rename_regs: u16,
    /// Per-thread ROB entries (Table 1: 256).
    pub rob_entries: usize,
    /// Global fetch bandwidth: instructions per cycle (§4: 8).
    pub fetch_width: u8,
    /// Global fetch bandwidth: threads per cycle (§4: 2).
    pub fetch_threads: u8,
    /// Register-file read/write latency in cycles. `None` = paper rule
    /// (§4): 1 for the monolithic baseline, 2 for multipipeline
    /// configurations (shared-register-file routing overhead).
    pub regfile_lat: Option<u32>,
    /// Stop when any thread has retired this many instructions *after
    /// warm-up* (the paper runs 300 M; the reproduction's scaled budgets
    /// are `paper_spec`/`quick_spec` in `hdsmt-workloads`).
    pub max_retired_per_thread: u64,
    /// Statistics reset once this many instructions have been committed in
    /// total — the scaled-run substitute for the paper's 300 M-instruction
    /// runs, where cold caches/predictors are measurement noise.
    pub warmup_insts: u64,
    /// Hard safety cap on simulated cycles.
    pub max_cycles: u64,
    /// Quiescence-skipping cycle engine: when a cycle provably does
    /// nothing, `Processor::run` warps straight to the next scheduled
    /// event instead of idling through the dead range. Statistics are
    /// bit-identical either way (enforced by the golden-stats matrix and
    /// the warp differential proptest); disabling it only costs time.
    /// The `HDSMT_NO_WARP=1` environment variable force-disables it at
    /// `Processor` construction regardless of this flag.
    pub warp: bool,
}

impl SimConfig {
    /// Paper-default configuration for `arch` at a given run length:
    /// FLUSH on the monolithic baseline, L1MCOUNT on multipipeline
    /// machines (§4), perceptron predictor, Table 1 memory.
    pub fn paper_defaults(arch: MicroArch, max_retired: u64) -> Self {
        let fetch_policy =
            if arch.is_monolithic() { FetchPolicy::Flush } else { FetchPolicy::L1mcount };
        SimConfig {
            arch,
            fetch_policy,
            predictor: DirPredictorKind::Perceptron,
            mem: MemConfig::default(),
            rename_regs: 256,
            rob_entries: 256,
            fetch_width: 8,
            fetch_threads: 2,
            regfile_lat: None,
            max_retired_per_thread: max_retired,
            warmup_insts: max_retired.min(400_000),
            max_cycles: u64::MAX,
            warp: true,
        }
    }

    /// Effective register-file latency per the §4 rule.
    pub fn effective_regfile_lat(&self) -> u32 {
        self.regfile_lat.unwrap_or(if self.arch.is_monolithic() { 1 } else { 2 })
    }

    pub fn validate(&self) -> Result<(), String> {
        self.mem.validate()?;
        if self.fetch_width == 0 || self.fetch_threads == 0 {
            return Err("fetch bandwidth must be positive".into());
        }
        if self.rob_entries == 0 {
            return Err("ROB must have entries".into());
        }
        if self.max_retired_per_thread == 0 {
            return Err("run length must be positive".into());
        }
        if let Some(l) = self.regfile_lat {
            if l == 0 || l > 8 {
                return Err("implausible register file latency".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_pick_policy_by_architecture() {
        let c = SimConfig::paper_defaults(MicroArch::baseline(), 1000);
        assert_eq!(c.fetch_policy, FetchPolicy::Flush);
        assert_eq!(c.effective_regfile_lat(), 1);

        let c = SimConfig::paper_defaults(MicroArch::parse("2M4+2M2").unwrap(), 1000);
        assert_eq!(c.fetch_policy, FetchPolicy::L1mcount);
        assert_eq!(c.effective_regfile_lat(), 2, "§4: shared regfile costs 2 cycles in hdSMT");
    }

    #[test]
    fn regfile_override_wins() {
        let mut c = SimConfig::paper_defaults(MicroArch::parse("2M4+2M2").unwrap(), 1000);
        c.regfile_lat = Some(1);
        assert_eq!(c.effective_regfile_lat(), 1);
    }

    #[test]
    fn thread_spec_reuses_the_fixed_binary() {
        let a = ThreadSpec::for_benchmark("gzip", 1);
        let b = ThreadSpec::for_benchmark("gzip", 2);
        assert_eq!(a.program().len_insts(), b.program().len_insts());
        assert_eq!(a.name, "gzip");
    }

    #[test]
    fn thread_spec_resolves_both_front_ends() {
        let rv = ThreadSpec::for_benchmark("rv:matmul", 1);
        assert_eq!(rv.name, "rv:matmul");
        assert!(matches!(rv.kind, WorkloadKind::Riscv { .. }));
        // Both images share the fixed binary across specs.
        let rv2 = ThreadSpec::for_benchmark("rv:matmul", 2);
        assert!(Arc::ptr_eq(rv.program(), rv2.program()));

        assert!(ThreadSpec::exists("gzip"));
        assert!(ThreadSpec::exists("rv:sum"));
        assert!(!ThreadSpec::exists("rv:nope"));
        assert!(!ThreadSpec::exists("nope"));
        assert!(ThreadSpec::try_for_benchmark("rv:nope", 0).is_err());
        assert!(ThreadSpec::try_for_benchmark("nope", 0).is_err());
    }

    #[test]
    fn sources_build_for_both_front_ends() {
        for name in ["twolf", "rv:sum"] {
            let spec = ThreadSpec::for_benchmark(name, 5);
            let mut s = spec.build_source(0);
            let d = s.next_inst();
            assert!(spec.program().inst_at(d.pc).is_some(), "{name}: first pc in the image");
            assert_eq!(s.emitted(), 1);
        }
    }

    #[test]
    fn validation() {
        let mut c = SimConfig::paper_defaults(MicroArch::baseline(), 1000);
        c.validate().unwrap();
        c.fetch_width = 0;
        assert!(c.validate().is_err());
    }
}
