//! # hdsmt-workloads — the paper's workloads, envelopes and §5 summary
//!
//! This crate turns campaign results into the paper's figures:
//!
//! * [`tables`] — the multiprogrammed workloads of Tables 2–3 (2W1–2W9,
//!   4W1–4W9, 6W1–6W4, classed ILP / MEM / MIX), typed over the campaign
//!   catalog's single copy;
//! * [`experiments`] — the BEST / HEUR / WORST mapping envelope per
//!   (microarchitecture, workload), folded from one `best`/`heur`/`worst`
//!   campaign: the data behind Fig 4 (IPC) and Fig 5 (IPC/area);
//! * [`summary`] — the §5 headline numbers (performance-per-area
//!   improvements, heuristic accuracy, raw-performance comparisons).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod summary;
pub mod tables;

pub use experiments::{
    paper_spec, quick_spec, run_paper_experiments, EnvelopeResult, PaperResults,
};
pub use summary::{summarize, Summary};
pub use tables::{all_workloads, Workload, WorkloadClass};
