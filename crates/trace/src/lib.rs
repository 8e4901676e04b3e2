//! # hdsmt-trace — synthetic SPECint2000 benchmark models
//!
//! The paper drives its SMTSIM-derived simulator with Alpha traces of the
//! twelve SPECint2000 benchmarks (300M-instruction SimPoint segments). Those
//! traces are not redistributable, so this crate builds the closest
//! synthetic equivalent. The paper's results depend on where each
//! benchmark sits on a few behavioural axes, not on its exact instruction
//! stream, so a model that reproduces those positions preserves the
//! relative results the evaluation compares:
//!
//! 1. a [`BenchProfile`] captures the *behavioural axes* that the paper's
//!    evaluation actually depends on — instruction mix, dependence-chain
//!    depth (ILP), working-set/locality structure (data-cache miss
//!    behaviour), branch-population predictability, and static code
//!    footprint;
//! 2. [`synth::synthesize`] turns a profile into a concrete static
//!    [`hdsmt_isa::Program`] (a control-flow graph of basic blocks), fully
//!    deterministic given a seed;
//! 3. a [`TraceStream`] walks the program, producing the infinite dynamic
//!    instruction stream (with concrete effective addresses and branch
//!    outcomes) consumed by the processor model. Wrong-path address
//!    fabrication uses a *separate* RNG so speculation never perturbs the
//!    architecturally-correct stream.
//!
//! The twelve calibrated models live in [`spec`]; their relative ordering on
//! each behavioural axis follows the published characterisation of
//! SPECint2000 (mcf far ahead of twolf/vpr/perlbmk in data-cache misses,
//! gzip/eon/crafty/bzip2 at the high-ILP end, perlbmk indirect-branch heavy,
//! gcc/vortex with large instruction footprints, …).

#![forbid(unsafe_code)]

pub mod chunk;
pub mod dyninst;
pub mod profile;
pub mod source;
pub mod spec;
pub mod stream;
pub mod synth;

pub use chunk::{ChunkBuf, CHUNK_INSTS};
pub use dyninst::{CtrlOutcome, DynInst};
pub use profile::{BenchClass, BenchProfile};
pub use source::TraceSource;
pub use spec::{all_benchmarks, by_name, BENCHMARK_NAMES};
pub use stream::TraceStream;
pub use synth::synthesize;
