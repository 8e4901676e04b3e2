//! # hdsmt-campaign — declarative, cached, resumable experiment campaigns
//!
//! The scaling substrate for design-space studies over the hdSMT
//! simulator. A campaign is declared in a TOML/JSON [`spec::CampaignSpec`]
//! (microarchitectures × workloads × mapping policies × budgets), expanded
//! into a deterministic job [`matrix`], and executed by the [`engine`]
//! through the parallel [`job::JobRunner`], with every simulation result
//! written to a content-addressed on-disk [`cache`]. Re-running after an
//! interrupt — or after an incremental spec edit — only simulates the
//! missing cells.
//!
//! ```text
//! spec.toml ──expand──▶ cells ──resolve mappings──▶ jobs ──run──▶ results
//!                                  │  (oracle cells: cached       │
//!                                  ▼   search sub-jobs)           ▼
//!                            .hdsmt-cache/ ◀──── content-addressed hits
//! ```
//!
//! The `hdsmt-campaign` binary (`run` / `status` / `export`) drives this
//! from the command line; `hdsmt-workloads` folds a `best`/`heur`/`worst`
//! campaign run through [`engine::run_campaign_with`] into its envelopes,
//! so the `reproduce` harness shares the same engine, cache and job runner.

pub mod cache;
pub mod catalog;
pub mod engine;
pub mod export;
pub mod fault;
pub mod fsck;
pub mod hash;
pub mod job;
pub mod matrix;
pub mod pending;
pub mod serve;
pub mod spec;
mod toml;

pub use cache::{CacheCounters, EntryLookup, ResultCache, CODE_VERSION, QUARANTINE_DIR};
pub use catalog::{Catalog, CatalogEntry, PAPER_WORKLOADS};
pub use engine::{
    best_worst, run_campaign, run_campaign_observed, run_campaign_with, status, CampaignProgress,
    CampaignResult, CellResult,
};
pub use fsck::{FsckOptions, FsckReport};
pub use job::{
    default_workers, CampaignError, JobEvent, JobOutcome, JobRunner, JobSpec, JobThread, RunReport,
    Watchdog,
};
pub use matrix::{cell_shard, expand, Cell, Policy, ShardSpec};
pub use spec::{Budget, CampaignSpec, ExtraWorkload};

// Re-export the simulator-facing spec types so campaign users need only
// this crate for programmatic job construction.
pub use hdsmt_core::{FetchPolicy, SimConfig, SimResult, ThreadSpec};
pub use hdsmt_pipeline::MicroArch;
