//! # hdsmt-pipeline — the out-of-order execution backend
//!
//! An hdSMT processor "comprises all the pipeline stages of the conventional
//! processor but the fetch stage" in each cluster (§2): decode, register
//! rename, the instruction queues (IQ/FQ/LQ), the functional units, and
//! instruction completion, all private per pipeline; the physical register
//! file is shared chip-wide. This crate provides those structures plus the
//! four pipeline models of Fig 2(a):
//!
//! | | M8 | M6 | M4 | M2 |
//! |---|---|---|---|---|
//! | Hardware contexts | 4 | 2 | 2 | 1 |
//! | Max. instr./cycle | 8 | 6 | 4 | 2 |
//! | Max. threads/cycle | 2 | 2 | 2 | 1 |
//! | Queues (IQ/FQ/LQ) | 64 | 32 | 32 | 16 |
//! | Integer FUs | 6 | 4 | 3 | 1 |
//! | FP FUs | 3 | 2 | 2 | 1 |
//! | LD/ST units | 4 | 2 | 2 | 1 |
//!
//! The cycle-by-cycle *orchestration* of these structures (fetch policies,
//! the stage loop, squash/recovery) lives in `hdsmt-core`; everything here
//! is independently testable state machinery, designed for zero per-cycle
//! heap allocation (slab + free list, fixed rings, index-based links).
//!
//! The scheduler-facing structures are *event-driven*: the register file
//! keeps producer-indexed wakeup lists, each issue queue keeps a member
//! count and an eagerly maintained ready set (where a load that bounced
//! off a full MSHR file waits out its back-off in place), the LQ's park
//! (a [`CompletionWheel`] of ready entries) holds loads waiting for a
//! store's address, and the completion wheel files executing instructions by
//! completion cycle so writeback drains O(due) work. Stale cross-references are
//! impossible by construction: the instruction pool gives every slot a
//! generation, and consumers validate `(id, generation)` pairs on use.
//!
//! The time-bearing structures also *report their horizon* for the
//! processor's quiescence-skipping cycle engine: the completion wheel's
//! [`CompletionWheel::next_due`] (O(1) — near-ring occupancy bitmask plus
//! a maintained far-list minimum), which the LQ park reports through as
//! well, tells the core `Timeline` the earliest cycle a wheel could act,
//! [`IssueQueue::next_retry`] the earliest back-off expiry,
//! and [`CompletionWheel::warp_to`] performs the
//! far-entry migrations that skipped lap boundaries would have done. See
//! `hdsmt_core::proc` for the full contract.
//!
//! # Cache-conscious data layout
//!
//! The same partitioning argument the paper applies to SMT hardware is
//! applied to the simulator's own records: in-flight instructions live in
//! a **hot/cold split** [`InstPool`] ([`inst`] module). The 32-byte
//! [`HotInst`] (packed state+flag byte, `seq`, thread/pipe, opcode, both
//! destination mappings, generation, `ready_cycle`, `pending_srcs`) sits
//! in its own line-tiled dense array the per-cycle stages stream; the
//! one-line [`ColdInst`] (the fetched instruction, source mappings) is
//! touched only at per-instruction events, and predictor snapshots sit
//! in a third array that only conditional branches ever reach. The
//! event-carrying structures stay lean to match: each queue's
//! [`ReadyEntry`] set makes issue selection pool-free, while register-
//! file [`Waiter`]s and wheel [`Completion`]s are bare `(id, generation)`
//! pairs — wakeup delivery and writeback resolve everything else from
//! the hot record. Stage-scoped accessors (`hot`/`hot_mut`/`cold`/
//! `cold_mut`/`pair_mut`/`snap`) replace raw record access, so each
//! stage's cache traffic is visible in the types it touches.

#![forbid(unsafe_code)]

pub mod buffer;
pub mod fu;
pub mod inst;
pub mod model;
pub mod queue;
pub mod regfile;
pub mod wheel;

pub use buffer::RingBuf;
pub use fu::FuPool;
pub use inst::{ColdInst, HotInst, InstId, InstPool, InstState};
pub use model::{MicroArch, PipeModel, M2, M4, M6, M8};
pub use queue::{IssueQueue, ReadyEntry};
pub use regfile::{PhysReg, RegFile, RenameMap, Waiter};
pub use wheel::{Completion, CompletionWheel, WheelEntry};
