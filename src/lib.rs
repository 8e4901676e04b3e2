//! # hdsmt — a complexity-effective simultaneous multithreading architecture
//!
//! A from-scratch, cycle-level reproduction of **"A Complexity-Effective
//! Simultaneous Multithreading Architecture"** (C. Acosta, A. Falcón,
//! A. Ramirez, M. Valero — ICPP 2005): the **hdSMT** (Heterogeneously
//! Distributed SMT) processor, in which the back-end of an SMT machine is
//! statically partitioned into *heterogeneous* pipelines that share the
//! fetch engine, register file and memory hierarchy, and whole threads are
//! matched to pipelines by a profile-guided mapping policy.
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`isa`] | instruction set, synthetic-program representation, basic-block dictionary |
//! | [`trace`] | the [`trace::TraceSource`] front-end abstraction + calibrated SPECint2000 benchmark models |
//! | [`riscv`] | RV64I(+M) functional emulator: real-program trace sources (`rv:*` benchmarks) |
//! | [`bpred`] | perceptron predictor, BTB, RAS (+ gshare ablation baseline) |
//! | [`mem`] | banked L1I/L1D, unified L2, TLBs, MSHRs (Table 1 parameters) |
//! | [`pipeline`] | out-of-order backend structures (wakeup lists, ready sets, completion wheel) and the M8/M6/M4/M2 models |
//! | [`core`] | the processor: fetch engine + policies, mapping policies, cycle loop |
//! | [`area`] | the §3 area cost model (Fig 2(b) / Fig 3) |
//! | [`workloads`] | typed Tables 2–3, BEST/HEUR/WORST envelopes folded from a campaign, §5 summary |
//! | [`campaign`] | declarative, cached, resumable experiment-campaign engine + CLI + [`campaign::serve`] sweep-service daemon |
//! | `lint` | `hdsmt-lint`: project-invariant static analysis (see below) |
//!
//! ## Quickstart
//!
//! ```
//! use hdsmt::core::{run_sim, SimConfig, ThreadSpec};
//! use hdsmt::pipeline::MicroArch;
//!
//! // A 2M4+2M2 hdSMT machine running gzip (ILP) + mcf (memory-bound):
//! // gzip on a wide M4 pipeline (0), mcf parked on an M2 (2).
//! let arch = MicroArch::parse("2M4+2M2").unwrap();
//! let cfg = SimConfig::paper_defaults(arch, 5_000);
//! let workload =
//!     vec![ThreadSpec::for_benchmark("gzip", 1), ThreadSpec::for_benchmark("mcf", 2)];
//! let result = run_sim(&cfg, &workload, &[0, 2]);
//! assert!(result.ipc() > 0.1);
//! ```
//!
//! See `examples/` for complete scenarios and the `reproduce` binary
//! (`crates/workloads`) for full figure regeneration.
//!
//! ## Workload front-ends
//!
//! Every thread's dynamic instruction stream comes from a
//! [`trace::TraceSource`]: either a synthetic SPECint2000 model
//! (`"gzip"`, `"mcf"`, …) or a real RV64I(+M) program executed
//! architecturally by the `riscv` crate (`"rv:matmul"`, `"rv:fib"`, …).
//! The two mix freely within one workload:
//!
//! ```
//! use hdsmt::core::{run_sim, SimConfig, ThreadSpec};
//! use hdsmt::pipeline::MicroArch;
//!
//! let arch = MicroArch::parse("2M4+2M2").unwrap();
//! let cfg = SimConfig::paper_defaults(arch, 2_000);
//! let workload =
//!     vec![ThreadSpec::for_benchmark("gzip", 1), ThreadSpec::for_benchmark("rv:fib", 2)];
//! let result = run_sim(&cfg, &workload, &[0, 1]);
//! assert!(result.ipc() > 0.1);
//! ```
//!
//! Campaign specs opt into the program-backed catalog entries
//! (`RV2`, `XRV2`, …) with `use_rv_workloads = true` — see
//! `examples/specs/riscv_mix.toml`.
//!
//! ## Campaigns
//!
//! Design-space sweeps run through the campaign engine: declare the
//! matrix in a TOML (or JSON) spec —
//!
//! ```toml
//! name = "paper-smoke"
//! archs = ["M8", "3M4", "4M4", "2M4+2M2", "3M4+2M2", "1M6+2M4+2M2"]
//! workloads = ["2W7", "4W6", "MEM"]   # ids, classes (ILP/MEM/MIX), 2T/4T/6T, all
//! policies = ["heur"]                 # heur | rr | random:<seed> | best | worst
//!
//! [budget]
//! measure_insts = 12000
//! warmup_insts = 6000
//! search_insts = 4000
//! ```
//!
//! — then run it (`examples/specs/` has ready-made specs):
//!
//! ```sh
//! cargo run --release -p hdsmt-campaign -- run    examples/specs/paper_smoke.toml
//! cargo run --release -p hdsmt-campaign -- status examples/specs/paper_smoke.toml
//! cargo run --release -p hdsmt-campaign -- export examples/specs/paper_smoke.toml --out results
//! ```
//!
//! Every simulation result lands in a content-addressed cache
//! (`.hdsmt-cache/` by default), so a second `run` is 100% cache hits,
//! an interrupted campaign resumes where it stopped, and editing the
//! spec only simulates the new cells. `export` writes `campaign.json`,
//! `cells.csv`, and a §5-style `summary.txt`. The same engine backs the
//! programmatic API ([`campaign::run_campaign`], [`campaign::JobRunner`])
//! used by the examples; [`workloads::run_paper_experiments`] folds a
//! `best`/`heur`/`worst` campaign into the Fig 4/5 envelopes.
//!
//! Campaigns can also run as a service: `hdsmt-campaign serve` exposes
//! the engine over an HTTP/JSON API (submit specs, poll per-cell
//! progress, fetch results, look cells up by content key), with
//! `run`/`status`/`export --remote ADDR` as thin clients. Every daemon
//! runs the campaigns it accepts on its own executor; `serve --shard
//! i/n` daemons split one campaign across processes on a shared cache,
//! and `GET`/`PUT /cells/:hash` read and land single cache entries
//! (byte-equality-or-quarantine on conflict) — see [`campaign::serve`].
//!
//! ## Project invariants & lint rules
//!
//! Several of this workspace's correctness claims are invariants no
//! compiler checks, so `crates/lint` ships `hdsmt-lint`, a
//! dependency-free static-analysis pass that CI runs in deny mode
//! (`cargo run -p hdsmt-lint -- --deny`). The rule registry:
//!
//! | Rule | Invariant it guards |
//! |---|---|
//! | `determinism` | simulator-core crates never read wall-clock time or use `HashMap`/`HashSet`, so runs are bit-identical and the golden-stats matrix (`tests/golden_stats.rs`) stays meaningful across refactors |
//! | `panic-safety` | campaign durability paths (pending accepts, cache, fsck, serve) propagate errors instead of panicking — a crash mid-write must leave recoverable state, never take the daemon down (degrade, don't die) |
//! | `lock-order` | per-function `.lock()` acquisition orders in the serve modules form an acyclic lock graph, so no two call paths can deadlock on a pair of mutexes |
//! | `timeline` | time-bearing fields (`*_cycle`, `*due*`, `*expiry*`) in `crates/core` reference the `Timeline`/`act::` machinery — scheduled state lives in one place, which is what makes shadow-stepping comparisons sound |
//! | `unsafe-audit` | every `unsafe` block carries a `// SAFETY:` comment; crates with zero unsafe declare `#![forbid(unsafe_code)]` |
//! | `allow-justification` | every `#[allow(..)]` and every `LINT-ALLOW` carries a justification; stale suppressions are themselves violations |
//!
//! Suppressions are explicit: inline `// LINT-ALLOW(rule): reason` on
//! (or immediately above) the offending line, or a scoped `[[allow]]`
//! entry in the root `lint.toml`. Both are audited — a suppression that
//! matches nothing is reported so dead allows cannot accumulate. The
//! workspace currently lints clean with zero suppressions.

#![forbid(unsafe_code)]

pub use hdsmt_area as area;
pub use hdsmt_bpred as bpred;
pub use hdsmt_campaign as campaign;
pub use hdsmt_core as core;
pub use hdsmt_isa as isa;
pub use hdsmt_mem as mem;
pub use hdsmt_pipeline as pipeline;
pub use hdsmt_riscv as riscv;
pub use hdsmt_trace as trace;
pub use hdsmt_workloads as workloads;
