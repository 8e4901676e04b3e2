//! # hdsmt-core — the hdSMT processor model
//!
//! This crate is the paper's primary contribution in executable form: a
//! cycle-level simulator of the **Heterogeneously Distributed SMT**
//! architecture (Acosta, Falcón, Ramirez, Valero — ICPP 2005) and of the
//! monolithic SMT baseline it is compared against.
//!
//! The modelled machine (Fig 1 of the paper):
//!
//! * one **shared fetch engine** (8 instructions / max 2 threads per cycle,
//!   perceptron + BTB + per-thread RAS), feeding
//! * per-pipeline **decoupling buffers**, in front of
//! * 1–5 **pipelines** (clusters), each with private decode, rename,
//!   IQ/FQ/LQ, functional units and commit, instantiated from the
//!   M8/M6/M4/M2 models of Fig 2(a),
//! * a **shared physical register file** (1-cycle access monolithic,
//!   2-cycle in multipipeline configurations, §4) and a **shared memory
//!   hierarchy** (Table 1),
//! * per-thread 256-entry **ROBs**, wrong-path execution via the
//!   basic-block dictionary, and full squash/replay recovery.
//!
//! Fetch policies: **ICOUNT 2.8**, **FLUSH** (baseline, §4), **L1MCOUNT**
//! (multipipeline, §4) and round-robin (ablation). Thread-to-pipeline
//! mapping policies (§2.1): the profile-guided **heuristic**, the **BEST**
//! / **WORST** oracle envelope via exhaustive mapping enumeration, plus
//! round-robin/random baselines for ablations.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod config;
pub mod dynmap;
pub mod mapping;
pub mod proc;
pub mod profiler;
pub mod sim;
pub mod stats;
pub mod timeline;

pub use config::{
    FetchPolicy, SimConfig, ThreadSpec, WorkloadKind, FETCH_THREADS, FETCH_WIDTH, RENAME_REGS,
    ROB_ENTRIES, RV_BENCH_PREFIX,
};
pub use dynmap::{run_dynamic, DynMapResult};
pub use mapping::{enumerate_mappings, heuristic_mapping, MissProfile};
pub use proc::Processor;
pub use profiler::profile_benchmark;
pub use sim::{run_sim, run_sim_interruptible, SimResult};
pub use stats::{SimStats, ThreadStats};
pub use timeline::Timeline;
