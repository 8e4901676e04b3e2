//! # hdsmt-mem — the shared memory hierarchy
//!
//! In both the monolithic SMT baseline and every hdSMT configuration, *all*
//! pipelines share the memory subsystem — "Besides the fetch engine, all the
//! pipelines share the memory subsystem — including L1 caches — and the
//! register file" (§1). This crate implements that subsystem with the
//! parameters of Table 1:
//!
//! | Structure | Configuration |
//! |---|---|
//! | L1 I-cache | 64 KB, 2-way, 8 banks |
//! | L1 D-cache | 64 KB, 2-way, 8 banks |
//! | L1 latency / miss penalty | 3 / 22 cycles |
//! | L2 | 512 KB, 2-way, 8 banks, 12-cycle access |
//! | Main memory | 250 cycles |
//! | I-TLB / D-TLB | 48 / 128 entries, 300-cycle miss penalty |
//!
//! ## Timing model
//!
//! Latencies are *returned* rather than scheduled: an access immediately
//! updates tags (fill-on-access) and reports the cycle count until its data
//! is usable. MSHR files provide miss coalescing — a second access to a
//! line with an outstanding miss completes when the first fill arrives
//! rather than paying the full penalty again — and bound the number of
//! outstanding misses, applying back-pressure to the load/store units.

#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod hier;
pub mod mshr;
pub mod tlb;

pub use cache::{Cache, CacheConfig};
pub use config::MemConfig;
pub use hier::{AccessResult, HitLevel, MemHier, MemHierStats};
pub use mshr::MshrFile;
pub use tlb::Tlb;
