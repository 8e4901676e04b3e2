//! The cycle-level processor model.
//!
//! One [`Processor`] simulates one machine (monolithic SMT or hdSMT
//! multipipeline) running one workload under one thread-to-pipeline
//! mapping. Stages execute back-to-front each cycle (commit first, fetch
//! last) so instructions advance one stage per cycle through the 8-stage
//! pipeline: fetch → buffer/decode → rename → dispatch → issue → register
//! read (1 cycle monolithic / 2 hdSMT, §4) → execute → writeback →
//! commit.
//!
//! # The event-driven scheduler core
//!
//! The per-cycle hot path is *event-driven*, not polled: no stage scans a
//! whole structure to find the few entries that can act this cycle.
//!
//! * **Wakeup lists** ([`RegFile`]): a dispatched instruction with
//!   unready sources subscribes to those physical registers; writeback's
//!   `set_ready` moves the subscribers to a woken buffer that the
//!   processor drains into the pipelines' ready lists. Subscriptions carry
//!   the pool **generation** of the consumer, so wakeups for
//!   since-squashed (recycled) instructions are discarded on delivery.
//! * **Ready lists** ([`ReadyList`]): each pipeline keeps the
//!   operand-ready members of its three queues in one list of
//!   self-contained entries (seq, thread, op, address), ordered by the
//!   `(seq, thread)` age key at insertion (dispatch, wakeup drain, a
//!   blocking store's issue) and kept eagerly in sync — issue and squash
//!   remove entries immediately. Issue walks the list once, oldest first,
//!   and decides each entry in place: pass over a waiting load, make a
//!   load wait for an older store, leave an entry past the width or
//!   losing FU arbitration, issue the rest. Nothing is gathered, sorted
//!   or looked up by id, and no pool memory is read for selection. An
//!   [`IssueQueue`] keeps only its member count, for dispatch's capacity
//!   check: which instructions it holds is already recorded by the ROBs,
//!   from which the invariant checks derive it.
//! * **Blocked loads** are fully evented too. A load whose oldest
//!   unknown-address older store has issued keeps its ready-list place
//!   with an *ordering wait*: `ReadyEntry::retry_at` is the store's agen
//!   completion cycle, and the load runs the load-ordering walk again
//!   when it comes due. A load whose blocking store has not issued waits
//!   for that issue instead, off the list (`Thread::blocked_loads`): the
//!   issue has no known cycle, and such loads outnumber the ready
//!   entries on the memory-bound workloads, so the walk would pass over
//!   more than it decides. The store's issue puts them back into the
//!   list with an ordering wait. The load-ordering walk itself reads the
//!   per-thread `LqStore` list (program-ordered, denormalised) instead of
//!   rescanning the LQ.
//! * **MSHR-full retries** cost no churn: `begin_execution` reports a
//!   load that bounced off the full D-MSHR file with its retry cycle, two
//!   cycles out, and the issue walk writes that back-off into the load's
//!   entry where it stands (`ReadyEntry::retry_at`); later walks pass
//!   over it until then. It was clear of every older store when it
//!   bounced and stays so, so its entry is marked `clear` and its retry
//!   skips the load-ordering walk.
//! * **Completion wheel** ([`CompletionWheel`]): executing instructions
//!   are filed under their completion cycle; writeback drains exactly the
//!   bucket due now. Squash releases an executing instruction's slot at
//!   once, like every other squashed slot, leaving its wheel entry to die
//!   by generation mismatch. FLUSH triggers ride a second wheel the same
//!   way.
//!
//! Every structure is deterministic, and issue order uses the pool-
//! independent `(seq, thread)` age key, so the refactor is bit-identical
//! to the polled core on the golden-stats matrix
//! (`tests/golden_stats.rs`). The invariants tying the lazy/evented
//! structures together are asserted by
//! `Processor::check_scheduler_invariants` (compiled for tests and the
//! `invariant-checks` feature).
//!
//! # The quiescence-skipping cycle engine
//!
//! On memory-saturated workloads the machine spends long stretches with
//! every thread blocked on an L2/memory miss; the event-driven core made
//! those cycles cheap, and the warp engine removes them entirely:
//!
//! * **Quiescence proof.** Every stage sets a bit in
//!   `Processor::activity` the moment it does observable work (the
//!   `act` flags). A step that ends with the mask zero changed nothing
//!   but the per-cycle rotation counters — and, since every inter-cycle
//!   dependency in the machine is *scheduled* (wheel completions, FLUSH
//!   triggers, the ends of loads' ready-list waits, fetch-stall releases,
//!   MSHR fills), the machine will do nothing again until the earliest
//!   scheduled event.
//! * **The [`Timeline`] contract.** Each time-bearing subsystem reports
//!   its next-activity cycle. Every wheel reports through
//!   `CompletionWheel::next_due` (O(1): near-ring occupancy mask + far
//!   minimum): the completion and FLUSH wheels, stale entries included,
//!   which is conservative, never wrong. Each ready list reports the
//!   earliest end of a load's wait ([`ReadyList::next_retry`]), and each
//!   live thread its `stalled_until` (threads that are done report
//!   nothing; FLUSH-gated or buffer-blocked threads ride the completion
//!   that releases them).
//!   The MSHR files deliberately report nothing: a fill expiry on its
//!   own wakes no stage — every access that could exploit the freed
//!   capacity arrives via a reporter above (a backed-off retry, a stall
//!   release), so reporting the earliest fill would only truncate warps.
//!   Quiescence makes the list exhaustive: anything that could act
//!   sooner would have set an activity bit this cycle.
//! * **The warp.** The one cycle loop behind [`Processor::run`] and
//!   [`crate::run_dynamic`] jumps `cycle` straight to
//!   `min(next event, stop cycle)`, where the stop cycle is `max_cycles`
//!   or the next re-mapping decision, advancing `fetch_rr`/`commit_rr` by
//!   the skipped distance (they tick on idle cycles and feed priority
//!   tie-breaks) and letting the completion and FLUSH wheels perform the
//!   far-entry migrations the skipped lap boundaries would have done.
//!   Nothing else moves — that is exactly what the proof established —
//!   so statistics are **bit-identical** to single-stepping: enforced by
//!   the golden-stats matrix, by a warp-on/off differential proptest,
//!   and — under `invariant-checks` — by *shadow-stepping*, which
//!   single-steps every warped range, asserts each skipped cycle was
//!   inert, and checks the fast path's counter math against the stepped
//!   result.
//!   `SimConfig::warp = false` disables the engine (both kinds of jump);
//!   external `step()` callers are never warped.
//! * **Retry-only stretches.** With every D-MSHR taken, the MEM-class
//!   workloads spend stretches in which the only work is backed-off
//!   loads bouncing again every two cycles. Such a step sets at most
//!   `act::ISSUE_RETRY`: every issue candidate was a load that got a
//!   load/store unit, hit the D-TLB, missed the L1D, hit the L2 and
//!   bounced (a *clean* bounce), and no other stage did anything. Two
//!   consecutive such steps (one of them may bounce nothing: the idle
//!   half of a period whose loads all retry on the same cycle parity)
//!   with at least one bounce form a full **retry period**. Every ready
//!   entry is then a load that bounced in it, or a load whose ordering
//!   wait has not ended, and the machine is at a fixed point: the next
//!   period sees the same candidates in the same order, the load/store
//!   units free again (they are pipelined), the same MSHR-full file (no
//!   fill due), and TLB and L2 recency that the last period already
//!   brought to where repeating its promotions leaves it; the L1D is
//!   untouched by misses.
//!   So the processor jumps an even number of cycles, to just before the
//!   earliest event that can break the pattern — a completion or FLUSH
//!   trigger, the end of an ordering wait, a fetch-stall release, the
//!   stop cycle, or the first retry that would reach the D-MSHR file at
//!   or after its earliest fill (the retry-period `Timeline` drops the
//!   back-offs, which are the period itself, and adds that fill) — and
//!   replays the skipped retries in one batch: `MemHier`'s load and
//!   L1D-miss counts and the D-MSHR full-stall count
//!   (`MemHier::replay_load_bounces`), and every backed-off load's retry
//!   cycle ([`ReadyList::delay_retries`]; ordering waits stay), beside
//!   the rotation counters and wheel migrations of a quiescent warp. Shadow-stepping checks
//!   these jumps too: each skipped step may do no more than
//!   `act::ISSUE_RETRY`, and the statistics, the raw MSHR counters,
//!   the ready lists and a digest of the cache, TLB and MSHR state
//!   (`MemHier::state_digest`) must come out as the batch predicted.
//!
//! # Hot/cold pool traffic per stage
//!
//! The instruction pool is hot/cold split (see `hdsmt_pipeline::inst`);
//! each stage touches the narrowest half that can serve it:
//!
//! | stage | hot | cold |
//! |---|---|---|
//! | fetch | alloc (writes both once) | alloc |
//! | decode | — | — |
//! | rename | state, seq, dst | operands, old/src mappings (`pair_mut`) |
//! | dispatch | state, `pending_srcs` | — (operands ride `DispatchEntry`) |
//! | wakeup drain | countdown, seq/thread/op | address, memory ops only |
//! | issue selection | — (ready entries are self-contained) | — |
//! | issue (`begin_execution`) | state, `ready_cycle` | — (op + address ride the ready entry) |
//! | writeback | state, dst, op classification | — |
//! | branch resolution | seq, flags, op | instruction (+ the snapshot array, cond branches) |
//! | commit | retire poll, op, freed mapping | one read per retiring *store* (its address) |
//! | squash | walk stop, squash marking, mappings | arch dst + replay of squashed entries |

mod backend;
mod commit;
mod fetch;
mod squash;

use std::collections::VecDeque;

use hdsmt_bpred::{Btb, DirectionPredictor, Ras, RasSnapshot};
use hdsmt_isa::{Pc, ThreadId};
use hdsmt_mem::MemHier;
use hdsmt_pipeline::{
    Completion, CompletionWheel, FuPool, InstId, InstPool, IssueQueue, PipeModel, ReadyEntry,
    ReadyList, RegFile, RenameMap, RingBuf, Waiter,
};
use hdsmt_trace::{ChunkBuf, DynInst, TraceSource};

use crate::checkpoint::CheckpointLog;
use crate::config::{SimConfig, ThreadSpec, RENAME_REGS, ROB_ENTRIES};
use crate::stats::{SimStats, ThreadStats};
use crate::timeline::Timeline;

/// Per-stage activity bits for the quiescence proof (see
/// [`Processor::activity`]).
pub(crate) mod act {
    pub const COMMIT: u32 = 1 << 0;
    pub const WB_COMPLETE: u32 = 1 << 1;
    pub const WB_WAKEUP: u32 = 1 << 2;
    pub const FLUSH: u32 = 1 << 3;
    /// Issue selected a candidate that did anything but a clean bounce,
    /// or a load's ordering wait ended.
    pub const ISSUE_READY: u32 = 1 << 4;
    pub const DISPATCH: u32 = 1 << 5;
    pub const RENAME: u32 = 1 << 6;
    pub const DECODE: u32 = 1 << 7;
    pub const FETCH: u32 = 1 << 8;
    /// A load bounced off the full D-MSHR file after hitting the D-TLB
    /// and the L2: the only work a retry-only step does.
    pub const ISSUE_RETRY: u32 = 1 << 9;
}

/// One in-LQ store, denormalised for the load-ordering check: the walk
/// reads only this 32-byte record, never the instruction pool.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LqStore {
    /// Program-order sequence number (the list is ascending).
    pub seq: u64,
    /// Store address at 8-byte granularity (the forwarding match key).
    pub addr_word: u64,
    /// Cycle the address becomes architecturally visible: `u64::MAX`
    /// until the store issues, then its agen completion cycle.
    pub known_at: u64,
    pub id: InstId,
}

/// Front-end + architectural state of one hardware thread.
pub(crate) struct Thread {
    pub id: ThreadId,
    pub pipe: u8,
    /// The thread's dynamic-instruction front-end (synthetic benchmark
    /// model or RV64I emulator — see [`TraceSource`]).
    pub stream: Box<dyn TraceSource>,
    /// Fetch-side chunk buffer over `stream`: correct-path fetch reads
    /// through [`ChunkBuf::next_from`], which crosses the trait object
    /// only on a refill ([`TraceSource::fill`]), amortizing the virtual
    /// dispatch and the source's re-entry ~[`hdsmt_trace::CHUNK_INSTS`]×.
    pub chunk: ChunkBuf,
    /// Squashed-but-architecturally-required instructions awaiting
    /// re-fetch (FLUSH recovery), oldest at the front.
    pub replay: VecDeque<DynInst>,
    /// Next correct-path fetch PC (used when `replay` is empty and the
    /// thread is not on a wrong path).
    pub next_correct_pc: Pc,
    /// `Some(pc)` while fetching a mispredicted path from the basic-block
    /// dictionary.
    pub wrong_path: Option<Pc>,
    /// The unresolved mispredicted branch that opened the wrong path.
    pub wrong_path_branch: Option<InstId>,
    /// Fetch blocked until this cycle (I-cache miss, redirect bubble).
    pub stalled_until: u64,
    /// FLUSH policy gate: fetch blocked until this load completes.
    pub flush_gate: Option<InstId>,
    pub ras: Ras,
    /// Post-action (RAS, global-history) checkpoints per control
    /// instruction, for rewinds at arbitrary squash points.
    pub ckpt: CheckpointLog<(RasSnapshot, u64)>,
    pub map: RenameMap,
    /// Reorder buffer, program-ordered.
    pub rob: RingBuf<InstId>,
    pub next_seq: u64,
    pub last_committed_seq: u64,
    /// Pre-issue instruction count (the ICOUNT priority key).
    pub icount: i32,
    /// Executing loads (the L1MCOUNT priority key; FLUSH bookkeeping).
    pub inflight_loads: i32,
    /// This thread's stores currently in its pipeline's LQ, in program
    /// order (pushed at dispatch, popped at commit, pruned on squash).
    /// Load/store ordering checks walk this short, self-contained list —
    /// no LQ rescans and no instruction-pool traffic per candidate load.
    pub lq_stores: VecDeque<LqStore>,
    /// Ready loads blocked on a specific not-yet-issued older store
    /// (keyed by that store's sequence number). Put back into the ready
    /// list when the store issues, with an ordering wait that ends at its
    /// agen completion cycle.
    pub blocked_loads: Vec<(u64, ReadyEntry)>,
    pub st: ThreadStats,
    /// Retired its run-length target.
    pub done: bool,
}

/// One fetched instruction travelling the in-order front end (decoupling
/// buffer → decode latch → rename). Carries the static operands and the
/// effective address — all known at fetch — so rename reads nothing from
/// the cold pool record.
#[derive(Clone, Copy)]
pub(crate) struct FrontEntry {
    pub id: InstId,
    pub dst: Option<hdsmt_isa::ArchReg>,
    pub srcs: [Option<hdsmt_isa::ArchReg>; 2],
    pub addr: u64,
}

/// One renamed instruction in flight between rename and dispatch.
/// Carries what dispatch needs so it re-reads nothing from the pool
/// (rename had the record open anyway).
#[derive(Clone, Copy)]
pub(crate) struct DispatchEntry {
    pub id: InstId,
    pub op: hdsmt_isa::Op,
    pub seq: u64,
    pub addr: u64,
    pub thread: u8,
    pub src_phys: [Option<hdsmt_pipeline::PhysReg>; 2],
}

/// One pipeline (cluster): private decode/rename/queues/FUs.
pub(crate) struct Pipe {
    pub model: PipeModel,
    /// Decoupling buffer fed by the shared fetch engine.
    pub buffer: RingBuf<FrontEntry>,
    /// Decode-stage output latch (≤ width).
    pub decode_latch: Vec<FrontEntry>,
    /// Rename-stage output latch (≤ width), consumed by dispatch.
    pub dispatch_latch: Vec<DispatchEntry>,
    /// The IQ, FQ and LQ, indexed by `FuKind as usize`.
    pub queues: [IssueQueue; 3],
    /// The operand-ready members of the three queues, oldest first.
    pub ready: ReadyList,
    /// The integer, FP and load/store units, indexed by `FuKind as usize`.
    pub fus: [FuPool; 3],
    /// Threads mapped to this pipeline (global ids).
    pub threads: Vec<usize>,
    /// Round-robin commit pointer over `threads`.
    pub commit_rr: usize,
    pub retired: u64,
}

impl Pipe {
    fn new(model: PipeModel) -> Self {
        Pipe {
            buffer: RingBuf::new(model.buffer as usize),
            decode_latch: Vec::with_capacity(model.width as usize),
            dispatch_latch: Vec::with_capacity(model.width as usize),
            queues: [model.iq, model.fq, model.lq].map(|n| IssueQueue::new(n as usize)),
            ready: ReadyList::default(),
            fus: [model.int_units, model.fp_units, model.ldst_units]
                .map(|n| FuPool::new(n as usize)),
            threads: Vec::new(),
            commit_rr: 0,
            retired: 0,
            model,
        }
    }
}

/// The full machine.
pub struct Processor {
    pub(crate) cfg: SimConfig,
    pub(crate) cycle: u64,
    pub(crate) pool: InstPool,
    pub(crate) regfile: RegFile,
    pub(crate) mem: MemHier,
    pub(crate) dir: DirectionPredictor,
    pub(crate) btb: Btb,
    pub(crate) pipes: Vec<Pipe>,
    pub(crate) threads: Vec<Thread>,
    /// Executing instructions, filed by completion cycle: writeback
    /// drains exactly the bucket due now instead of scanning a list.
    pub(crate) wheel: CompletionWheel,
    /// FLUSH policy triggers (loads predicted to miss L2), filed by
    /// trigger cycle like the completion wheel: no per-cycle scan of
    /// outstanding candidates.
    pub(crate) flush_wheel: CompletionWheel,
    /// Rotating tie-break for fetch priority.
    pub(crate) fetch_rr: usize,
    pub(crate) stop: bool,
    /// Register read/write latency (§4: 1 monolithic, 2 hdSMT).
    pub(crate) rf_lat: u32,
    /// Warm-up completed; statistics measure from `measure_start_cycle`.
    pub(crate) warmed: bool,
    pub(crate) measure_start_cycle: u64,
    /// Running total of committed instructions (never reset; the warm-up
    /// check compares it against the budget instead of re-summing every
    /// thread's counter each cycle).
    pub(crate) committed_total: u64,
    /// Which stages performed observable work in the cycle just stepped
    /// (bitmask of [`act`] flags)? Every stage sets its bit the moment it
    /// moves, issues, completes, fetches, commits or squashes anything; a
    /// cycle that ends with the mask zero is *proven quiescent* and
    /// [`Self::run`] may warp over the dead range to the [`Timeline`]'s
    /// next event. The per-stage resolution costs nothing extra on the
    /// hot path and names the offender when the shadow-stepping
    /// differential (under `invariant-checks`) catches a bad warp.
    pub(crate) activity: u32,
    /// Cycle warping enabled (`SimConfig::warp`).
    warp_enabled: bool,
    /// Cycles skipped by warping (diagnostics; not part of `SimStats`).
    warped_cycles: u64,
    /// Warp jumps taken (diagnostics).
    warps: u64,
    /// Quiescent steps observed (diagnostics).
    quiescent_steps: u64,
    /// Cycles skipped by fast-forwarding retry-only stretches, a subset
    /// of `warped_cycles` (diagnostics; not part of `SimStats`).
    retry_warped_cycles: u64,
    /// Clean MSHR-full bounces in the step being run (see
    /// [`act::ISSUE_RETRY`]).
    step_bounces: u32,
    /// The clean bounces of the previous step when it was retry-only
    /// (its activity at most [`act::ISSUE_RETRY`]): with the current
    /// step, one full two-cycle retry period.
    retry_half: Option<u32>,

    // ---- reusable per-cycle scratch (kept across cycles so the steady-
    // state hot loop allocates nothing) ----
    /// Register-file wakeups being routed to ready lists.
    scratch_woken: Vec<Waiter>,
    /// Completions drained from the wheel this cycle.
    scratch_due: Vec<Completion>,
    /// Correct-path branches resolving this cycle.
    scratch_resolved: Vec<InstId>,
    /// FLUSH triggers firing this cycle.
    scratch_flush_due: Vec<Completion>,
    /// Eligible threads with their fetch-priority keys, sorted.
    scratch_order: Vec<((i64, i64, i64, i64), usize)>,
    /// Loads released by a store's issue, inserted into the ready list
    /// after the issue walk that lent it out.
    scratch_unblocked: Vec<ReadyEntry>,
    /// Squash scratch: correct-path instructions awaiting replay assembly.
    scratch_replay: Vec<(u64, DynInst)>,
    /// Squash scratch: slots to release after the structure purge.
    scratch_release: Vec<InstId>,
    /// Squash scratch: front-end ids snapshotted for the sweep.
    scratch_buffer_ids: Vec<InstId>,
}

impl Processor {
    /// Build a processor for `cfg` running `workload[i]` on thread `i`,
    /// with `mapping[i]` giving each thread's pipeline.
    ///
    /// # Panics
    /// Panics on invalid configuration, more threads than the architecture
    /// schedules, or a mapping that exceeds a pipeline's context count.
    pub fn new(cfg: SimConfig, workload: &[ThreadSpec], mapping: &[u8]) -> Self {
        cfg.validate().expect("invalid simulation config");
        assert_eq!(workload.len(), mapping.len(), "one pipeline per thread required");
        assert!(
            workload.len() <= cfg.arch.max_threads as usize,
            "{} threads exceed {}'s contexts",
            workload.len(),
            cfg.arch.name
        );
        let n_threads = workload.len();
        let mut pipes: Vec<Pipe> = cfg.arch.pipes.iter().map(|&m| Pipe::new(m)).collect();
        // Context-capacity check (the monolithic baseline is exempt per the
        // §3 six-thread assumption).
        for (p, pipe) in pipes.iter().enumerate() {
            let assigned = mapping.iter().filter(|&&m| m as usize == p).count();
            if !cfg.arch.is_monolithic() {
                assert!(
                    assigned <= pipe.model.contexts as usize,
                    "pipeline {p} ({}) given {assigned} threads but has {} contexts",
                    pipe.model.name,
                    pipe.model.contexts
                );
            }
        }

        let regfile = RegFile::new(n_threads, RENAME_REGS, RENAME_REGS);
        let mut threads = Vec::with_capacity(n_threads);
        for (i, (spec, &pipe)) in workload.iter().zip(mapping.iter()).enumerate() {
            assert!((pipe as usize) < pipes.len(), "mapping targets missing pipeline");
            pipes[pipe as usize].threads.push(i);
            let stream = spec.build_source(i as u8);
            let entry_pc = spec.program().block(spec.program().entry()).start;
            let ras = Ras::paper_config();
            let ckpt = CheckpointLog::new((ras.snapshot(), 0));
            threads.push(Thread {
                id: ThreadId(i as u8),
                pipe,
                stream,
                chunk: ChunkBuf::new(),
                replay: VecDeque::new(),
                next_correct_pc: entry_pc,
                wrong_path: None,
                wrong_path_branch: None,
                stalled_until: 0,
                flush_gate: None,
                ras,
                ckpt,
                map: RenameMap::new(i, &regfile),
                rob: RingBuf::new(ROB_ENTRIES),
                next_seq: 1,
                last_committed_seq: 0,
                icount: 0,
                inflight_loads: 0,
                lq_stores: VecDeque::new(),
                blocked_loads: Vec::new(),
                st: ThreadStats { benchmark: spec.name.clone(), pipe, ..Default::default() },
                done: false,
            });
        }

        // Worst-case in-flight population: ROBs + buffers + latches.
        let capacity = n_threads * ROB_ENTRIES
            + pipes.iter().map(|p| p.buffer.capacity() + 2 * p.model.width as usize).sum::<usize>()
            + 64;
        let rf_lat = cfg.effective_regfile_lat();
        // Horizon covering the longest possible completion: address
        // generation + TLB refill + a full memory miss + register file.
        let mut p = Processor {
            pool: InstPool::new(capacity),
            regfile,
            mem: MemHier::new(cfg.mem.clone()),
            dir: DirectionPredictor::new(cfg.predictor, n_threads),
            btb: Btb::paper_config(),
            pipes,
            threads,
            wheel: CompletionWheel::new(),
            flush_wheel: CompletionWheel::new(),
            fetch_rr: 0,
            stop: false,
            rf_lat,
            warmed: false,
            measure_start_cycle: 0,
            committed_total: 0,
            activity: 0,
            warp_enabled: cfg.warp,
            warped_cycles: 0,
            warps: 0,
            quiescent_steps: 0,
            retry_warped_cycles: 0,
            step_bounces: 0,
            retry_half: None,
            scratch_woken: Vec::new(),
            scratch_due: Vec::new(),
            scratch_resolved: Vec::new(),
            scratch_flush_due: Vec::new(),
            scratch_order: Vec::new(),
            scratch_unblocked: Vec::new(),
            scratch_replay: Vec::new(),
            scratch_release: Vec::new(),
            scratch_buffer_ids: Vec::new(),
            cycle: 0,
            cfg,
        };
        if p.cfg.warmup_insts == 0 {
            p.warmed = true;
        }
        p.prewarm_caches();
        p
    }

    /// Pre-load each thread's L2-resident working set and code image into
    /// the hierarchy. The paper's 300 M-instruction runs establish this
    /// residency naturally; scaled runs must start from it or compulsory
    /// misses (which are measurement noise at full scale) dominate.
    #[cold]
    fn prewarm_caches(&mut self) {
        /// Regions larger than this cannot be L2-resident in steady state;
        /// their accesses genuinely miss, which is what makes the MEM-class
        /// benchmarks memory-bound.
        const L2_RESIDENT_CAP: u64 = 512 * 1024;
        for t in &self.threads {
            let (code_start, code_bytes) = t.stream.code_range();
            self.mem.prewarm_code(code_start, code_bytes);
            // Largest resident region first so the hot small regions end up
            // most-recently-used and survive LRU pressure.
            // Oversized regions: only their hot prefix (the skewed share of
            // random draws) can plausibly be resident.
            let mut regions: Vec<(u64, u64)> = t
                .stream
                .region_layout()
                .into_iter()
                .map(|(start, bytes)| {
                    if bytes <= L2_RESIDENT_CAP {
                        (start, bytes)
                    } else {
                        (start, (bytes / 8).min(L2_RESIDENT_CAP))
                    }
                })
                .collect();
            regions.sort_by_key(|&(_, bytes)| std::cmp::Reverse(bytes));
            for (start, bytes) in regions {
                let also_l1 = bytes <= 32 * 1024;
                self.mem.prewarm_data(start, bytes, also_l1);
            }
        }
    }

    /// Current cycle.
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Simulation finished (a thread hit its retire target)?
    #[inline]
    pub fn finished(&self) -> bool {
        self.stop
    }

    /// Cycles skipped so far by the quiescence engine (diagnostics; never
    /// part of `SimStats`).
    #[inline]
    pub fn warped_cycles(&self) -> u64 {
        self.warped_cycles
    }

    /// Warp jumps taken so far (diagnostics).
    #[inline]
    pub fn warps(&self) -> u64 {
        self.warps
    }

    /// Quiescent steps observed so far (diagnostics).
    #[inline]
    pub fn quiescent_steps(&self) -> u64 {
        self.quiescent_steps
    }

    /// Cycles skipped so far by fast-forwarding retry-only stretches, a
    /// subset of [`Self::warped_cycles`] (diagnostics; never part of
    /// `SimStats`).
    #[inline]
    pub fn retry_warped_cycles(&self) -> u64 {
        self.retry_warped_cycles
    }

    /// Raw MSHR statistics (diagnostics; see [`MemHier::mshr_stats`]).
    pub fn mshr_stats(&self) -> ((u64, u64), (u64, u64)) {
        self.mem.mshr_stats()
    }

    /// Advance one cycle. Stages run back-to-front so in-flight state moves
    /// at most one stage per cycle.
    pub fn step(&mut self) {
        self.activity = 0;
        self.step_bounces = 0;
        self.commit_stage();
        self.writeback_stage();
        self.process_flushes();
        self.issue_stage();
        self.dispatch_stage();
        self.rename_stage();
        self.decode_stage();
        self.fetch_stage();
        self.cycle += 1;
        if !self.warmed {
            self.maybe_end_warmup();
        }
    }

    /// Reset statistics once the warm-up instruction budget has committed,
    /// keeping all microarchitectural state (caches, predictors, in-flight
    /// work) warm.
    fn maybe_end_warmup(&mut self) {
        // `committed_total` runs forever and is never reset, so this is a
        // single compare instead of an all-threads sum every cycle.
        if self.committed_total < self.cfg.warmup_insts {
            return;
        }
        self.warmed = true;
        self.measure_start_cycle = self.cycle;
        self.mem.reset_stats();
        for p in &mut self.pipes {
            p.retired = 0;
        }
        for t in &mut self.threads {
            t.st = ThreadStats {
                benchmark: t.st.benchmark.clone(),
                pipe: t.st.pipe,
                ..Default::default()
            };
        }
    }

    /// Run to completion (retire target or cycle cap) and return the
    /// statistics.
    ///
    /// The loop is *quiescence-skipping*: whenever a step proves the
    /// machine did nothing (see the module docs), the cycle counter warps
    /// straight to `min(next scheduled event, max_cycles)` instead of
    /// idling through the dead range — the statistics are bit-identical
    /// to single-stepping (golden-stats matrix + warp differential
    /// proptest), only the host time differs.
    pub fn run(&mut self) -> SimStats {
        self.run_interruptible(&mut || false).expect("an uninterrupted run always completes")
    }

    /// [`Self::run`] with a cooperative abandon hook: `should_stop` is
    /// polled every few thousand steps and, once it returns `true`, the
    /// run is abandoned and `None` comes back (mid-flight statistics are
    /// not meaningful). A run that completes is bit-identical to
    /// [`Self::run`] — the poll only reads host time, never machine
    /// state. This is how a per-cell watchdog deadline cancels a hung or
    /// over-budget simulation without a second thread.
    pub fn run_interruptible(&mut self, should_stop: &mut dyn FnMut() -> bool) -> Option<SimStats> {
        self.run_until(u64::MAX, should_stop).then(|| self.collect_stats())
    }

    /// The one cycle loop: step (warping over proven-quiescent ranges)
    /// until the run ends or the cycle counter reaches `stop_at` or
    /// `max_cycles`, whichever is first. No warp passes `stop_at`, so a
    /// caller that acts on the machine at that cycle (dynamic re-mapping)
    /// sees exactly the state single-stepping would have left. Returns
    /// `false` when `should_stop` abandoned the loop.
    pub(crate) fn run_until(
        &mut self,
        stop_at: u64,
        should_stop: &mut dyn FnMut() -> bool,
    ) -> bool {
        // Polling cadence: cheap enough to be invisible next to `step()`,
        // frequent enough that a deadline lands within milliseconds.
        const POLL_MASK: u64 = 4096 - 1;
        let limit = stop_at.min(self.cfg.max_cycles);
        let mut steps: u64 = 0;
        while !self.stop && self.cycle < limit {
            self.step();
            if self.warp_enabled {
                self.after_step(limit);
            }
            steps += 1;
            if steps & POLL_MASK == 0 && should_stop() {
                return false;
            }
        }
        true
    }

    /// The warp decisions after one step: warp over a proven-quiescent
    /// range, or fast-forward a retry-only stretch once a full retry
    /// period has been observed (see the module docs).
    fn after_step(&mut self, limit: u64) {
        if self.activity & !act::ISSUE_RETRY != 0 {
            self.retry_half = None;
            return;
        }
        if self.activity == 0 {
            self.quiescent_steps += 1;
            if self.try_warp(limit) {
                self.retry_half = None;
                return;
            }
        }
        // A retry-only step, or a quiescent one that could not warp
        // because a retry is due next: with the previous such step, a
        // full period if either bounced anything.
        let bounces = self.step_bounces;
        let period = self.retry_half.replace(bounces).map(|prev| prev + bounces);
        if let Some(bounces) = period.filter(|&b| b > 0) {
            if self.try_retry_warp(limit, bounces) {
                self.retry_half = None;
            }
        }
    }

    /// Aggregate every subsystem's next-activity report. Only meaningful
    /// right after a quiescent step (otherwise the current cycle's own
    /// work is the next activity), or, with `retry_period`, right after
    /// a full retry period: then the backed-off loads' retries are the
    /// period itself, not events, and the D-MSHR file's earliest fill is
    /// the event that ends it. See the [`Timeline`] docs for the list of
    /// reporters and why it is exhaustive.
    fn timeline(&mut self, retry_period: bool) -> Timeline {
        let now = self.cycle;
        let mut tl = Timeline::new();
        tl.observe("completion-wheel", self.wheel.next_due(now));
        tl.observe("flush-wheel", self.flush_wheel.next_due(now));
        for p in &self.pipes {
            // Quiescence, or a retry period, proves every ready entry is
            // a load whose wait has not ended: anything else would have
            // been an issue candidate. Within a retry period the MSHR
            // back-offs are the period itself, not events.
            let retry = p.ready.next_retry(!retry_period);
            debug_assert!(retry >= now, "a due retry cannot be pending while quiescent");
            tl.observe("lq-retry", retry);
        }
        // Outside a retry period the MSHR files report nothing: a fill
        // expiry on its own wakes no stage — its only effect is freeing
        // capacity for a *later* access, and every such access is driven
        // by a reporter above (a backed-off retry or a fetch-stall
        // release). Reporting the earliest outstanding fill was measured
        // to only truncate warps one or two cycles short of the
        // corresponding completion; the shadow-stepping differential and
        // the warp proptest enforce that leaving it out never skips real
        // work. Within a retry period the retries are not events, and the
        // fill is: a retry issued at cycle `c` reaches the D-MSHR file at
        // its agen cycle, `c + rf_lat`, so the first retry that can find
        // the fill expired issues `rf_lat` cycles before it.
        if retry_period {
            let fill = self.mem.dmshr_next_fill();
            tl.observe("dmshr-fill", fill.saturating_sub(self.rf_lat as u64));
        }
        for t in &self.threads {
            // A done thread never acts again; a FLUSH-gated or buffer-
            // blocked thread's release rides another reporter (the gating
            // load's completion-wheel entry / the completion that lets
            // decode drain the buffer), though a pending stall still
            // bounds it. A thread blocked by nothing but its stall timer
            // fetches the moment it expires — and quiescence proves that
            // expiry has not happened yet (`stalled_until >= now`, where
            // `now` is already the *next* step's cycle: a stall releasing
            // exactly now is an event on the very next step).
            if t.done {
                continue;
            }
            let externally_blocked =
                t.flush_gate.is_some() || self.pipes[t.pipe as usize].buffer.is_full();
            if !externally_blocked {
                debug_assert!(
                    t.stalled_until >= now,
                    "a fetchable thread past its stall cannot be quiescent"
                );
                tl.observe("fetch-stall", t.stalled_until);
            } else if t.stalled_until > now {
                tl.observe("fetch-stall", t.stalled_until);
            }
        }
        tl
    }

    /// After a proven-quiescent step: jump to the next event on the
    /// timeline, capped at `limit`. No-op (returning `false`) when the
    /// next event is the very next cycle or the timeline is empty with no
    /// finite cap (an idle-forever machine keeps its single-stepped
    /// semantics).
    fn try_warp(&mut self, limit: u64) -> bool {
        debug_assert_eq!(self.activity, 0);
        debug_assert_eq!(self.regfile.pending_wakeups(), 0, "quiescent with undrained wakeups");
        // Quiescent cycles commit nothing, so a warp can never jump the
        // warm-up boundary: it was either crossed before this stretch
        // began or needs commits that the warp target's events unlock.
        debug_assert!(self.warmed || self.committed_total < self.cfg.warmup_insts);
        let target = match self.timeline(false).next_event() {
            // `cycle` was already incremented past the quiescent step, so
            // an event at exactly `cycle` means "due on the very next
            // step" — no warp, but not a bug. Strictly earlier would be a
            // missed event.
            Some(at) => {
                debug_assert!(at >= self.cycle, "a past event cannot be pending while quiescent");
                at.min(limit)
            }
            // Nothing scheduled, ever. With a finite cap the
            // single-stepped machine would idle to the cap; replicate
            // that. With no cap it would hang — preserve that semantic
            // (such a machine is a modelling bug, not a warp decision).
            None if limit == u64::MAX => return false,
            None => limit,
        };
        if target <= self.cycle {
            return false;
        }
        self.warp_to(target, 0);
        true
    }

    /// After a full retry period — two consecutive steps whose only
    /// activity was `bounces` clean MSHR-full bounces — jump an even
    /// number of cycles, to just before the next event or `limit`,
    /// replaying the skipped bounces. Returns whether it jumped.
    fn try_retry_warp(&mut self, limit: u64, bounces: u32) -> bool {
        let now = self.cycle;
        debug_assert!(self.mem.dmshr_full(), "a bounce leaves the D-MSHR file full");
        // Every ready entry is a load that bounced in the period, backed
        // off to one of the next period's two cycles, or one whose
        // ordering wait is not yet due (it reports to the timeline).
        debug_assert!(self.pipes.iter().all(|p| {
            p.ready.entries().iter().all(|e| {
                if e.clear {
                    e.retry_at == now || e.retry_at == now + 1
                } else {
                    e.retry_at >= now
                }
            })
        }));
        // The D-MSHR file holds entries, so its fill always reports.
        let end = self.timeline(true).next_event().unwrap_or(limit).min(limit);
        let skipped = end.saturating_sub(now) & !1;
        if skipped == 0 {
            return false;
        }
        self.warp_to(now + skipped, bounces as u64 * skipped / 2);
        true
    }

    /// Jump from the current cycle to `target`, reproducing exactly the
    /// state single-stepping would have left: the rotation counters
    /// advance by the skipped distance and the timing wheels perform the
    /// far-entry migrations the skipped lap boundaries would have done.
    /// A retry-only stretch also replays its `bounces` skipped retries:
    /// the memory hierarchy charges them (its caches and MSHRs stay at
    /// their fixed point), and every backed-off load's retry moves out
    /// by the (even) skipped distance. Everything else is untouched —
    /// that is what quiescence, or the retry period's fixed point,
    /// proved.
    ///
    /// With the `invariant-checks` feature the skip is *shadow-stepped*
    /// instead: every skipped cycle is executed and asserted to do no
    /// more than the warp assumed, and the resulting statistics,
    /// counters, ready lists and cache/TLB/MSHR state are asserted equal
    /// to what the warp would have produced — the differential proof
    /// that warping is invisible.
    fn warp_to(&mut self, target: u64, bounces: u64) {
        let skipped = target - self.cycle;
        self.warped_cycles += skipped;
        self.warps += 1;
        if bounces > 0 {
            self.retry_warped_cycles += skipped;
        }
        #[cfg(feature = "invariant-checks")]
        self.shadow_step_to(target, bounces);
        #[cfg(not(feature = "invariant-checks"))]
        self.jump_to(target, bounces);
    }

    /// The fast path of [`Self::warp_to`].
    #[cfg_attr(feature = "invariant-checks", allow(dead_code))]
    fn jump_to(&mut self, target: u64, bounces: u64) {
        let now = self.cycle;
        let skipped = target - now;
        self.cycle = target;
        // Per-cycle rotation counters tick even on dead cycles; the
        // fetch priority and commit round-robin orders after the warp
        // must match the single-stepped machine's exactly.
        self.fetch_rr = self.fetch_rr.wrapping_add(skipped as usize);
        for p in &mut self.pipes {
            if !p.threads.is_empty() {
                p.commit_rr = p.commit_rr.wrapping_add(skipped as usize);
            }
        }
        // The wheels' skipped lap boundaries would have migrated far
        // entries into the near rings.
        self.wheel.warp_to(target);
        self.flush_wheel.warp_to(target);
        if bounces > 0 {
            debug_assert_eq!(skipped % 2, 0, "a retry stretch skips whole periods");
            self.mem.replay_load_bounces(bounces);
            for p in &mut self.pipes {
                p.ready.delay_retries(skipped);
            }
        }
    }

    /// The shadow-stepping check of [`Self::warp_to`]: single-step to
    /// `target` and compare with what [`Self::jump_to`] predicts.
    #[cfg(feature = "invariant-checks")]
    fn shadow_step_to(&mut self, target: u64, bounces: u64) {
        let now = self.cycle;
        let skipped = target - now;
        let want_fetch_rr = self.fetch_rr.wrapping_add(skipped as usize);
        let want_commit_rr: Vec<usize> = self
            .pipes
            .iter()
            .map(|p| {
                if p.threads.is_empty() {
                    p.commit_rr
                } else {
                    p.commit_rr.wrapping_add(skipped as usize)
                }
            })
            .collect();
        // The cycle counter and the replayed retries' counters are all
        // that may move; pre-age them so everything else compares
        // wholesale.
        let mut want = self.collect_stats();
        want.cycles = target - self.measure_start_cycle;
        want.mem.loads += bounces;
        want.mem.load_l1_misses += bounces;
        let ((dc, df), ifetch) = self.mem.mshr_stats();
        let want_mshr = ((dc, df + bounces), ifetch);
        let want_mem = self.mem.state_digest();
        let want_ready: Vec<Vec<ReadyEntry>> = self
            .pipes
            .iter()
            .map(|p| {
                let mut ready = p.ready.entries().to_vec();
                if bounces > 0 {
                    ready.iter_mut().filter(|e| e.clear).for_each(|e| e.retry_at += skipped);
                }
                ready
            })
            .collect();
        let allowed = if bounces > 0 { act::ISSUE_RETRY } else { 0 };
        let source = self.timeline(bounces > 0).source();
        while self.cycle < target {
            let at = self.cycle;
            self.step();
            assert_eq!(
                self.activity & !allowed,
                0,
                "cycle {at} inside a warp to {target} (source: {source}) performed \
                 work (activity mask {:#b})",
                self.activity
            );
            assert!(!self.stop, "a skipped cycle cannot end the run");
        }
        assert_eq!(self.collect_stats(), want, "shadow-stepped warp changed statistics");
        assert_eq!(self.mem.mshr_stats(), want_mshr, "warp MSHR statistics mismatch");
        assert_eq!(self.mem.state_digest(), want_mem, "warp moved cache, TLB or MSHR state");
        assert_eq!(self.fetch_rr, want_fetch_rr, "warp fetch-rotation mismatch");
        for (p, (want_rr, want_ready)) in
            self.pipes.iter().zip(want_commit_rr.into_iter().zip(want_ready))
        {
            assert_eq!(p.commit_rr, want_rr, "warp commit-rotation mismatch");
            assert_eq!(p.ready.entries(), &want_ready[..], "warp back-off mismatch");
        }
    }

    /// Gather statistics (measured post-warm-up) without consuming the
    /// processor.
    pub fn collect_stats(&self) -> SimStats {
        let threads: Vec<ThreadStats> = self.threads.iter().map(|t| t.st.clone()).collect();
        let retired = threads.iter().map(|t| t.retired).sum();
        let fetched_total = threads.iter().map(|t| t.fetched + t.wrong_path_fetched).sum();
        SimStats {
            cycles: self.cycle - self.measure_start_cycle,
            threads,
            mem: self.mem.stats(),
            retired,
            fetched_total,
            per_pipe_retired: self.pipes.iter().map(|p| p.retired).collect(),
        }
    }

    /// The simulated microarchitecture.
    pub fn arch(&self) -> &hdsmt_pipeline::MicroArch {
        &self.cfg.arch
    }

    /// Pipeline thread `t` currently runs on.
    pub fn thread_pipe(&self, t: usize) -> u8 {
        self.threads[t].pipe
    }

    /// Migrate a batch of threads atomically (dynamic re-mapping, §7
    /// future work): every mover is drained and removed from its old
    /// pipeline before any is re-homed, so swaps between full pipelines
    /// are legal as long as the *final* assignment respects capacities.
    ///
    /// Each thread's uncommitted work is squashed — architectural
    /// instructions re-enter through the replay queue, exactly like FLUSH
    /// recovery — and fetch resumes on the new pipeline after a redirect
    /// bubble.
    pub fn remap_threads(&mut self, moves: &[(usize, u8)]) {
        let now = self.cycle;
        // Phase 1: drain and detach every mover.
        for &(t, new_pipe) in moves {
            assert!((new_pipe as usize) < self.pipes.len(), "no such pipeline");
            if self.threads[t].pipe == new_pipe {
                continue;
            }
            let seq_min = self.threads[t].last_committed_seq;
            self.squash_younger(t, seq_min);
            let (ras_state, ghr) = self.threads[t].ckpt.rewind_to(seq_min);
            self.threads[t].ras.restore(ras_state);
            self.dir.set_history(t, ghr);
            debug_assert!(self.threads[t].rob.is_empty(), "drained thread keeps no ROB state");
            debug_assert_eq!(self.threads[t].icount, 0, "drained thread holds no pre-issue slots");
            let old = self.threads[t].pipe as usize;
            self.pipes[old].threads.retain(|&x| x != t);
        }
        // Phase 2: re-home.
        for &(t, new_pipe) in moves {
            if self.threads[t].pipe == new_pipe {
                continue;
            }
            let p = new_pipe as usize;
            assert!(
                self.cfg.arch.is_monolithic()
                    || self.pipes[p].threads.len() < self.pipes[p].model.contexts as usize,
                "pipeline {new_pipe} has no free context after the batch"
            );
            self.pipes[p].threads.push(t);
            let th = &mut self.threads[t];
            th.pipe = new_pipe;
            th.st.pipe = new_pipe;
            th.flush_gate = None;
            th.wrong_path = None;
            th.wrong_path_branch = None;
            th.stalled_until = th.stalled_until.max(now + 1);
            th.st.migrations += 1;
        }
    }

    /// Debug invariant: the per-thread ICOUNT counters must equal the
    /// actual pre-issue population: the front-end containers plus the
    /// thread's waiting (dispatched, not yet issued) ROB entries.
    /// O(everything); test-only.
    #[cfg(any(test, feature = "invariant-checks"))]
    pub fn check_icount_invariant(&self) {
        use hdsmt_pipeline::InstState;
        let mut counts = vec![0i32; self.threads.len()];
        for p in &self.pipes {
            for e in p.buffer.iter() {
                counts[self.pool.hot(e.id).thread().index()] += 1;
            }
            for e in p.decode_latch.iter() {
                counts[self.pool.hot(e.id).thread().index()] += 1;
            }
            for e in p.dispatch_latch.iter() {
                counts[e.thread as usize] += 1;
            }
        }
        for (t, th) in self.threads.iter().enumerate() {
            let waiting =
                th.rob.iter().filter(|&&id| self.pool.hot(id).state() == InstState::Waiting);
            counts[t] += waiting.count() as i32;
            assert_eq!(th.icount, counts[t], "icount drift on thread {:?}", th.id);
        }
    }

    /// Debug invariants of the event-driven scheduler structures: queue
    /// counts matching the members derived from the ROBs, ready lists in
    /// age order, sound and complete w.r.t. those members, with waits
    /// that match their cause, completion-wheel population matching the
    /// executing instructions, and the per-thread store lists matching
    /// the ROBs. O(everything); test-only. Call between cycles (mid-cycle the lazily-maintained
    /// sets are allowed to be stale).
    #[cfg(any(test, feature = "invariant-checks"))]
    pub fn check_scheduler_invariants(&self) {
        use hdsmt_isa::FuKind;
        use hdsmt_pipeline::InstState;

        let operands_ready = |id: InstId| {
            self.pool.cold(id).src_phys.iter().flatten().all(|&s| self.regfile.is_ready(s))
        };
        // A queue's members, as the ROBs of its pipeline's threads record
        // them: the waiting instructions of its kind, plus issued stores
        // until they commit.
        let queue_members = |pi: usize, kind: FuKind| -> Vec<InstId> {
            let in_queue = |h: &hdsmt_pipeline::HotInst| {
                h.state() == InstState::Waiting
                    || (h.op.is_store()
                        && matches!(h.state(), InstState::Executing | InstState::Done))
            };
            let robs = self.pipes[pi].threads.iter().flat_map(|&t| self.threads[t].rob.iter());
            robs.copied()
                .filter(|&id| self.pool.hot(id).op.fu_kind() == kind && in_queue(self.pool.hot(id)))
                .collect()
        };

        for (pi, p) in self.pipes.iter().enumerate() {
            let kinds = [FuKind::Int, FuKind::Fp, FuKind::LdSt];
            let members = kinds.map(|kind| queue_members(pi, kind));
            for ((kind, q), m) in kinds.iter().zip(&p.queues).zip(&members) {
                assert_eq!(q.len(), m.len(), "pipe {pi}: {kind:?} queue count drift");
            }
            // The ready list is strictly ascending in age key, so it
            // holds no duplicates and issue's walk is the age order.
            let ready = p.ready.entries();
            assert!(
                ready.windows(2).all(|w| w[0].age() < w[1].age()),
                "pipe {pi}: ready list out of age order"
            );
            // Soundness: the list is eagerly maintained, so every entry
            // is a live Waiting member of its kind's queue with all
            // operands available and metadata matching its instruction.
            for e in ready {
                let hot = self.pool.hot(e.id);
                assert_eq!(
                    hot.state(),
                    InstState::Waiting,
                    "pipe {pi}: ready entry {:?} is not waiting",
                    e.id
                );
                assert!(
                    members[e.op.fu_kind() as usize].contains(&e.id),
                    "pipe {pi}: ready entry {:?} not in its queue",
                    e.id
                );
                assert!(
                    operands_ready(e.id),
                    "pipe {pi}: ready entry {:?} has an unready operand",
                    e.id
                );
                assert!(
                    e.seq == hot.seq.0 && e.thread == hot.thread().index() as u8 && e.op == hot.op,
                    "pipe {pi}: ready entry {:?} carries stale metadata",
                    e.id
                );
                if e.op.is_mem() {
                    assert_eq!(
                        e.addr,
                        self.pool.cold(e.id).d.addr,
                        "pipe {pi}: ready entry {:?} carries a stale address",
                        e.id
                    );
                }
                // A back-off follows an MSHR bounce, which only a load
                // takes. An ordering wait ends when an older store's
                // address becomes visible.
                assert!(!e.clear || e.op.is_load(), "pipe {pi}: non-load {:?} backed off", e.id);
                if e.retry_at != 0 && !e.clear {
                    let stores = &self.threads[e.thread as usize].lq_stores;
                    assert!(
                        stores.iter().any(|s| s.seq < e.seq && s.known_at == e.retry_at),
                        "pipe {pi}: ordering wait of {:?} ends at no older store's agen",
                        e.id
                    );
                }
            }
            // Completeness: every operand-ready Waiting member is in the
            // ready list or blocked on a store's issue (the event-driven
            // core never strands a wakeup).
            for &id in members.iter().flatten() {
                let hot = self.pool.hot(id);
                if hot.state() == InstState::Waiting && operands_ready(id) {
                    let t = hot.thread().index();
                    assert!(
                        ready.iter().any(|e| e.id == id)
                            || self.threads[t].blocked_loads.iter().any(|&(_, e)| e.id == id),
                        "pipe {pi}: operand-ready {id:?} missing from the ready list"
                    );
                    assert_eq!(
                        hot.pending_srcs, 0,
                        "pipe {pi}: {id:?} ready but counts pending sources"
                    );
                }
            }
        }
        // Store-blocked loads: live waiting loads of the thread's ROB,
        // off the ready list, whose recorded blocker is a real,
        // not-yet-issued older store of the same thread.
        for (t, th) in self.threads.iter().enumerate() {
            for &(store_seq, e) in &th.blocked_loads {
                assert_eq!(e.thread as usize, t, "blocked load filed under the wrong thread");
                let state = self.pool.hot(e.id).state();
                assert_eq!(state, InstState::Waiting, "blocked load {:?} not waiting", e.id);
                assert!(
                    th.rob.iter().any(|&id| id == e.id),
                    "blocked load {:?} not in its ROB",
                    e.id
                );
                assert!(
                    !self.pipes[th.pipe as usize].ready.entries().iter().any(|r| r.id == e.id),
                    "blocked load {:?} also in the ready list",
                    e.id
                );
                assert!(store_seq < e.seq, "blocker must be older than the load");
                let blocker =
                    th.lq_stores.iter().find(|s| s.seq == store_seq).unwrap_or_else(|| {
                        panic!("blocked load {:?} waits on a missing store", e.id)
                    });
                assert_eq!(
                    blocker.known_at,
                    u64::MAX,
                    "load {:?} still filed under an already-issued store",
                    e.id
                );
            }
        }
        assert_eq!(self.regfile.pending_wakeups(), 0, "undrained register wakeups");

        // Wheel population == executing instructions. Squash releases
        // every squashed slot at once, so a live (generation-matching)
        // entry is always an executing instruction in its thread's ROB.
        let wheel_live = self
            .wheel
            .iter()
            .filter(|e| {
                self.pool.gen(e.c.id) == e.c.gen
                    && self.pool.hot(e.c.id).state() == InstState::Executing
            })
            .count();
        let executing = self
            .threads
            .iter()
            .flat_map(|t| t.rob.iter().copied())
            .filter(|&id| self.pool.hot(id).state() == InstState::Executing)
            .count();
        assert_eq!(wheel_live, executing, "completion wheel out of step with the ROBs");

        // Per-thread store lists mirror the thread's dispatched,
        // uncommitted stores, in ROB (program) order.
        for (t, th) in self.threads.iter().enumerate() {
            let expect: Vec<InstId> = th
                .rob
                .iter()
                .copied()
                .filter(|&id| {
                    let h = self.pool.hot(id);
                    h.op.is_store() && h.state() != InstState::Rename
                })
                .collect();
            let got: Vec<InstId> = th.lq_stores.iter().map(|s| s.id).collect();
            let seqs: Vec<u64> = th.lq_stores.iter().map(|s| s.seq).collect();
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "lq_stores not program-ordered on thread {t}"
            );
            assert_eq!(got, expect, "lq_stores drift on thread {t}");
            for s in th.lq_stores.iter() {
                let h = self.pool.hot(s.id);
                assert_eq!(s.seq, h.seq.0, "lq_stores stale seq on thread {t}");
                assert_eq!(
                    s.addr_word,
                    self.pool.cold(s.id).d.addr & !7,
                    "lq_stores stale address on thread {t}"
                );
                let want_known = match h.state() {
                    InstState::Waiting => u64::MAX,
                    _ => h.ready_cycle,
                };
                assert_eq!(s.known_at, want_known, "lq_stores stale agen cycle on thread {t}");
            }
        }
    }
}
