//! Decode, rename, dispatch, issue and writeback stages.

use hdsmt_bpred::branch_key;
use hdsmt_isa::{FuKind, Op};
use hdsmt_pipeline::{Completion, InstId, InstState, ReadyEntry};

use super::{DispatchEntry, LqStore, Processor};
use crate::config::FetchPolicy;

/// Load/store ordering verdict for a load in the LQ.
enum LoadOrder {
    /// An older same-thread store's address is still unknown. Carries the
    /// blocking store (the oldest unknown one) so the load can wait on the
    /// exact event that unblocks it: the store's issue (`known_at ==
    /// u64::MAX`) or its in-flight address generation (`known_at` > now).
    Blocked { store_seq: u64, known_at: u64 },
    /// Free to access the cache.
    Clear,
    /// Satisfied by store-to-load forwarding.
    Forward,
}

impl Processor {
    /// Move up to `width` instructions from each pipeline's decoupling
    /// buffer into its decode latch (topping up whatever rename left
    /// behind, so partial stalls don't quantise throughput).
    pub(crate) fn decode_stage(&mut self) {
        for p in 0..self.pipes.len() {
            let width = self.pipes[p].model.width as usize;
            let mut moved = 0;
            while self.pipes[p].decode_latch.len() < width && moved < width {
                let Some(e) = self.pipes[p].buffer.pop_front() else { break };
                // The record keeps `InBuffer` until rename: nothing
                // distinguishes the decode latch by state, so the stage
                // moves self-contained entries without touching the pool.
                self.pipes[p].decode_latch.push(e);
                moved += 1;
            }
            if moved > 0 {
                self.activity |= super::act::DECODE;
            }
        }
    }

    /// Rename: allocate physical destinations and ROB entries, in order,
    /// stalling on structural exhaustion (shared rename pool, per-thread
    /// ROB).
    pub(crate) fn rename_stage(&mut self) {
        for p in 0..self.pipes.len() {
            let width = self.pipes[p].model.width as usize;
            let room = width.saturating_sub(self.pipes[p].dispatch_latch.len());
            if room == 0 {
                continue; // dispatch latch full: rename stalls
            }
            let mut moved = 0;
            while moved < room && moved < self.pipes[p].decode_latch.len() {
                let fe = self.pipes[p].decode_latch[moved];
                let id = fe.id;
                let (dst, srcs) = (fe.dst, fe.srcs);
                // The operands and address arrived with the front-end
                // entry, so rename's only cold touch is *writing* the
                // source mappings; the pool borrow is disjoint from the
                // rename map / register file / ROB it works against, so
                // the whole transaction runs on one `pair_mut` access.
                let (hot, cold) = self.pool.pair_mut(id);
                let t = hot.thread().index();
                if self.threads[t].rob.is_full() {
                    break;
                }
                let dst_phys = match dst {
                    Some(a) => match self.regfile.alloc(a) {
                        Some(phys) => Some(phys),
                        None => break, // shared rename pool exhausted
                    },
                    None => None,
                };
                let src_phys = [
                    srcs[0].map(|a| self.threads[t].map.lookup(a)),
                    srcs[1].map(|a| self.threads[t].map.lookup(a)),
                ];
                let old_phys = match (dst, dst_phys) {
                    (Some(a), Some(phys)) => Some(self.threads[t].map.rename(a, phys)),
                    _ => None,
                };
                hot.set_dst_phys(dst_phys);
                hot.set_old_phys(old_phys);
                cold.src_phys = src_phys;
                hot.set_state(InstState::Rename);
                let entry = DispatchEntry {
                    id,
                    op: hot.op,
                    seq: hot.seq.0,
                    addr: fe.addr,
                    thread: t as u8,
                    src_phys,
                };
                let pushed = self.threads[t].rob.push_back(id);
                debug_assert!(pushed, "ROB space checked above");
                self.pipes[p].dispatch_latch.push(entry);
                moved += 1;
            }
            if moved > 0 {
                self.activity |= super::act::RENAME;
            }
            self.pipes[p].decode_latch.drain(..moved);
        }
    }

    /// Dispatch: insert renamed instructions into their issue queues, in
    /// order, stalling on a full queue. Entry point of the event-driven
    /// scheduler: an instruction with outstanding sources subscribes to
    /// their wakeup lists; one with none goes straight into its
    /// pipeline's ready list. Stores are also appended to their thread's
    /// in-LQ store list for incremental load-ordering checks.
    pub(crate) fn dispatch_stage(&mut self) {
        for p in 0..self.pipes.len() {
            let mut moved = 0;
            while moved < self.pipes[p].dispatch_latch.len() {
                let de = self.pipes[p].dispatch_latch[moved];
                let (id, op, srcs, t, seq, addr) =
                    (de.id, de.op, de.src_phys, de.thread as usize, de.seq, de.addr);
                let kind = op.fu_kind();
                if !self.pipes[p].queues[kind as usize].push() {
                    break;
                }
                let hot = self.pool.hot_mut(id);
                let gen = hot.gen();
                let mut pending = 0u8;
                for &s in srcs.iter().flatten() {
                    if !self.regfile.is_ready(s) {
                        self.regfile.subscribe(s, id, gen);
                        pending += 1;
                    }
                }
                hot.set_state(InstState::Waiting);
                hot.pending_srcs = pending;
                if pending == 0 {
                    self.pipes[p].ready.insert(ReadyEntry::new(seq, addr, id, t as u8, op));
                }
                if op.is_store() {
                    self.threads[t].lq_stores.push_back(LqStore {
                        seq,
                        addr_word: addr & !7,
                        known_at: u64::MAX,
                        id,
                    });
                }
                moved += 1;
            }
            if moved > 0 {
                self.activity |= super::act::DISPATCH;
            }
            self.pipes[p].dispatch_latch.drain(..moved);
        }
    }

    /// Issue: walk each pipeline's wakeup-fed ready list once, oldest
    /// first, claim functional units, compute completion times
    /// (register-file latency per §4, cache latency for loads), and file
    /// completions on the wheel. Event-driven: only instructions whose
    /// operands became ready are examined — a handful of self-contained
    /// entries — never the whole queues, and never the instruction pool.
    /// The list is already in age order, so each entry is decided where
    /// it stands: passed over while its wait lasts, made to wait when
    /// blocked on a store, left for next cycle past the width or when
    /// its FU pool is saturated, and otherwise issued (dropped) or
    /// bounced (backed off in place).
    ///
    /// Activity splits in two. A load that bounces off the full D-MSHR
    /// file after hitting the D-TLB and the L2 sets only
    /// [`act::ISSUE_RETRY`](super::act::ISSUE_RETRY), the raw material of
    /// a retry-only stretch (see the module docs). Everything else a
    /// candidate does, and the end of an ordering wait, sets
    /// [`act::ISSUE_READY`](super::act::ISSUE_READY).
    pub(crate) fn issue_stage(&mut self) {
        let now = self.cycle;
        for p in 0..self.pipes.len() {
            let width = self.pipes[p].model.width as usize;
            // The walk needs the whole processor; nothing it calls
            // touches a ready list, so the list is lent out meanwhile.
            let mut ready = std::mem::take(&mut self.pipes[p].ready);
            let mut issued = 0;
            ready.retain_mut(|e| {
                if e.retry_at > now {
                    return true; // passed over until its wait ends
                }
                let mut forward = false;
                if e.clear {
                    // A backed-off load was clear of every older store
                    // when it bounced, and stays clear: older stores
                    // only commit, and none younger can come before it.
                    debug_assert!(matches!(
                        self.load_order(e.thread as usize, e.seq, e.addr & !7),
                        LoadOrder::Clear
                    ));
                } else if e.op.is_load() {
                    debug_assert_eq!(self.pool.hot(e.id).state(), InstState::Waiting);
                    if e.retry_at != 0 {
                        // An ordering wait ends: order the load afresh.
                        debug_assert_eq!(e.retry_at, now, "a wait is visited when it ends");
                        e.retry_at = 0;
                        self.activity |= super::act::ISSUE_READY;
                    }
                    match self.load_order(e.thread as usize, e.seq, e.addr & !7) {
                        LoadOrder::Blocked { store_seq, known_at } => {
                            // A blocked load waits, whatever the width:
                            // in place until the agen of a store that
                            // issued earlier, maybe earlier in this walk,
                            // or off the list for the store's issue.
                            self.activity |= super::act::ISSUE_READY;
                            if known_at != u64::MAX {
                                e.retry_at = known_at;
                                return true;
                            }
                            self.threads[e.thread as usize].blocked_loads.push((store_seq, *e));
                            return false;
                        }
                        LoadOrder::Clear => {}
                        LoadOrder::Forward => forward = true,
                    }
                }
                if issued >= width {
                    // Left over for want of issue width: next cycle.
                    self.activity |= super::act::ISSUE_READY;
                    return true;
                }
                let occupy = if e.op.fu_pipelined() { 1 } else { e.op.exec_latency() };
                if !self.pipes[p].fus[e.op.fu_kind() as usize].try_issue(now, occupy) {
                    // This pool is saturated; other kinds may go. The
                    // entry tries again next cycle.
                    self.activity |= super::act::ISSUE_READY;
                    return true;
                }
                issued += 1;
                match self.begin_execution(p, e.id, e.op, e.addr, forward) {
                    Some(retry_at) => {
                        e.retry_at = retry_at;
                        e.clear = true;
                        true
                    }
                    None => false,
                }
            });
            // Loads released by the stores this walk issued, each waiting
            // in place for its store's agen.
            for e in self.scratch_unblocked.drain(..) {
                ready.insert(e);
            }
            self.pipes[p].ready = ready;
        }
    }

    /// Issue touches no cold pool memory at all: the ready entry carries
    /// the opcode and the full effective address, so the whole
    /// transition runs on one hot access (the reads here and the
    /// state/ready-cycle writes at the end; everything in between works
    /// on disjoint Processor fields). Returns the retry cycle of a load
    /// that bounced off the full D-MSHR file, or `None` once issued;
    /// either way the caller keeps or drops the ready entry.
    fn begin_execution(
        &mut self,
        p: usize,
        id: InstId,
        op: hdsmt_isa::Op,
        addr: u64,
        forward: bool,
    ) -> Option<u64> {
        let now = self.cycle;
        let rf_extra = self.rf_lat - 1; // §4: +1 per access in hdSMT
        let hot = self.pool.hot_mut(id);
        debug_assert_eq!(hot.op, op, "ready entry carries a stale opcode");
        let (t, seq, wrong, gen) =
            (hot.thread().index(), hot.seq.0, hot.is_wrong_path(), hot.gen());

        let ready_cycle = if op.is_load() {
            // Address generation, then the cache (unless forwarded).
            let agen_done = now + 1 + rf_extra as u64;
            if forward {
                hot.set_forwarded();
                agen_done + 1
            } else {
                let access = self.mem.load(addr, agen_done);
                if access.mshr_stall {
                    // Structural replay: stay Waiting, retry two cycles
                    // later. The issue slot and FU cycle are wasted, as in
                    // hardware. The entry keeps its ready-list place with
                    // a back-off.
                    if !access.tlb_miss && access.level == hdsmt_mem::HitLevel::L2 {
                        self.activity |= super::act::ISSUE_RETRY;
                        self.step_bounces += 1;
                    } else {
                        self.activity |= super::act::ISSUE_READY;
                    }
                    return Some(now + 2);
                }
                if !wrong && access.level != hdsmt_mem::HitLevel::L1 {
                    self.threads[t].st.dl1_misses += 1;
                }
                if self.cfg.fetch_policy == FetchPolicy::Flush
                    && access.latency > self.cfg.mem.l2_hit_latency()
                {
                    // FLUSH (§4): the load will look like an L2 miss once it
                    // has been outstanding longer than an L2 hit takes.
                    let trigger = agen_done + self.cfg.mem.l2_hit_latency() as u64 + 1;
                    self.flush_wheel.schedule(trigger, Completion { id, gen }, now);
                }
                agen_done + access.latency as u64 + rf_extra as u64
            }
        } else if op.is_store() {
            // Address generation only; data is written at commit. The
            // thread's store list learns the agen completion cycle so
            // load-ordering checks need no pool lookup, and loads blocked
            // on this store go back to the ready list, waiting there
            // until the agen result is visible. The walk has the list
            // lent out, so it inserts them when it is done.
            let agen_done = now + 1 + rf_extra as u64;
            let stores = &mut self.threads[t].lq_stores;
            let pos = stores.partition_point(|s| s.seq < seq);
            debug_assert!(stores[pos].id == id, "issuing store must be in its thread's list");
            stores[pos].known_at = agen_done;
            let unblocked = &mut self.scratch_unblocked;
            self.threads[t].blocked_loads.retain(|&(store_seq, e)| {
                if store_seq == seq {
                    unblocked.push(ReadyEntry { retry_at: agen_done, ..e });
                }
                store_seq != seq
            });
            agen_done
        } else {
            now + op.exec_latency() as u64 + rf_extra as u64
        };

        self.activity |= super::act::ISSUE_READY;
        hot.set_state(InstState::Executing);
        hot.ready_cycle = ready_cycle;
        self.wheel.schedule(ready_cycle, Completion { id, gen }, now);
        // Stores stay in the LQ itself (forwarding source) until commit;
        // everything else leaves its queue entirely.
        if !op.is_store() {
            self.pipes[p].queues[op.fu_kind() as usize].remove();
        }
        let th = &mut self.threads[t];
        th.icount -= 1;
        if op.is_load() {
            th.inflight_loads += 1;
            if !wrong {
                th.st.loads += 1;
            }
        }
        None
    }

    /// Memory-ordering check for a load against older same-thread stores in
    /// the LQ: blocked while any has an unknown address; forwarded on an
    /// exact (8-byte) match (the youngest older match is the forwarding
    /// source). Walks the thread's incremental in-LQ store list — program-
    /// ordered, so the scan stops at the first store younger than the load
    /// — instead of rescanning the whole LQ.
    fn load_order(&self, thread: usize, load_seq: u64, load_word: u64) -> LoadOrder {
        let now = self.cycle;
        let mut forward = false;
        // Slice-at-a-time over the deque so the hot walk (every ready
        // load, every cycle it is considered) skips per-step wrap checks.
        let (front, back) = self.threads[thread].lq_stores.as_slices();
        for part in [front, back] {
            for s in part {
                if s.seq >= load_seq {
                    return if forward { LoadOrder::Forward } else { LoadOrder::Clear };
                }
                // Address known once agen completed (`known_at` is MAX
                // while the store waits in its queue).
                if s.known_at > now {
                    return LoadOrder::Blocked { store_seq: s.seq, known_at: s.known_at };
                }
                // Ascending seq: a later match overwrites an earlier one,
                // so the youngest older store wins.
                if s.addr_word == load_word {
                    forward = true;
                }
            }
        }
        if forward {
            LoadOrder::Forward
        } else {
            LoadOrder::Clear
        }
    }

    /// Writeback: drain the completion-wheel bucket due this cycle, mark
    /// results ready (firing wakeups into the ready lists), clear FLUSH
    /// gates, resolve branches (training + misprediction recovery).
    pub(crate) fn writeback_stage(&mut self) {
        let now = self.cycle;
        // Destination register, opcode classification and state all live
        // in the hot record, so this loop never opens a cold record — the
        // cold half is only read later, for resolved branches.
        let mut due = std::mem::take(&mut self.scratch_due);
        due.clear();
        self.wheel.drain_due(now, &mut due);
        if !due.is_empty() {
            // Stale (squashed and released) completions count too: their
            // discard is the cheapest possible cycle, and treating them as
            // activity keeps the wheel's next-due report conservative.
            self.activity |= super::act::WB_COMPLETE;
        }
        let mut resolved = std::mem::take(&mut self.scratch_resolved);
        resolved.clear();
        for &c in &due {
            if self.pool.gen(c.id) != c.gen {
                continue; // squashed and released; the slot may be reused
            }
            let (t, wrong, op, dst) = {
                let hot = self.pool.hot_mut(c.id);
                debug_assert!(!hot.is_squashed(), "squash releases its slots at once");
                debug_assert_eq!(hot.state(), InstState::Executing);
                debug_assert_eq!(hot.ready_cycle, now);
                hot.set_state(InstState::Done);
                (hot.thread().index(), hot.is_wrong_path(), hot.op, hot.dst_phys())
            };
            if let Some(dstp) = dst {
                self.regfile.set_ready(dstp);
            }
            if op.is_load() {
                self.threads[t].inflight_loads -= 1;
                if self.threads[t].flush_gate == Some(c.id) {
                    // The flushed-past load returned: reopen fetch.
                    self.threads[t].flush_gate = None;
                    self.threads[t].stalled_until = self.threads[t].stalled_until.max(now + 1);
                }
            }
            if op.is_control() && !wrong {
                resolved.push(c.id);
            }
        }
        self.scratch_due = due;

        // Route this cycle's register wakeups into the ready lists before
        // issue runs.
        self.drain_wakeups();

        // Resolve branches oldest-first per thread: an older misprediction
        // squashes younger same-cycle resolutions before they can act.
        resolved.sort_unstable_by_key(|&id| {
            let h = self.pool.hot(id);
            (h.thread().index(), h.seq.0)
        });
        for &id in &resolved {
            if self.pool.hot(id).is_squashed() {
                continue; // squashed (and released) by an older resolution
            }
            self.resolve_branch(id);
        }
        self.scratch_resolved = resolved;
    }

    /// Deliver pending register-file wakeups: each subscriber counts one
    /// outstanding source down and enters its pipeline's ready list when
    /// none remain. Subscriptions of since-squashed (recycled) instructions are
    /// discarded by generation mismatch.
    ///
    /// Delivery runs on the hot record: the pending-source countdown and
    /// every ready-entry field except the address live there. Only a
    /// memory op becoming ready reads its cold record (the address word
    /// the load-ordering walk matches on).
    fn drain_wakeups(&mut self) {
        let mut woken = std::mem::take(&mut self.scratch_woken);
        woken.clear();
        self.regfile.drain_woken(&mut woken);
        if !woken.is_empty() {
            self.activity |= super::act::WB_WAKEUP;
        }
        for w in &woken {
            if self.pool.gen(w.id) != w.gen {
                continue; // subscriber squashed; slot since recycled
            }
            let (ready_now, pipe, seq, thread, op) = {
                let hot = self.pool.hot_mut(w.id);
                debug_assert_eq!(
                    hot.state(),
                    InstState::Waiting,
                    "a live subscriber is always still waiting"
                );
                debug_assert!(hot.pending_srcs > 0);
                hot.pending_srcs -= 1;
                (
                    hot.pending_srcs == 0,
                    hot.pipe() as usize,
                    hot.seq.0,
                    hot.thread().index() as u8,
                    hot.op,
                )
            };
            if ready_now {
                let addr = match op.fu_kind() {
                    // The effective address is 0 for non-memory ops, so
                    // only loads/stores pay the cold read.
                    FuKind::LdSt => self.pool.cold(w.id).d.addr,
                    _ => 0,
                };
                self.pipes[pipe].ready.insert(ReadyEntry::new(seq, addr, w.id, thread, op));
            }
        }
        self.scratch_woken = woken;
    }

    /// Train predictors with the architectural outcome and run recovery on
    /// a misprediction. Branch resolution is a legitimate cold-record
    /// consumer: it needs the fetched instruction and predictor snapshot.
    fn resolve_branch(&mut self, id: InstId) {
        let (t, seq, mispredicted, op) = {
            let h = self.pool.hot(id);
            (h.thread().index(), h.seq.0, h.is_mispredicted(), h.op)
        };
        let d = self.pool.cold(id).d;
        // Only conditional branches wrote a snapshot; reading it for other
        // control ops would be stale garbage, so fetch it per-arm below.
        let dir_snap = match op {
            Op::CondBranch => *self.pool.snap(id),
            _ => hdsmt_bpred::DirSnapshot::default(),
        };
        let actual = d.ctrl.expect("correct-path control inst carries its outcome");
        let key = branch_key(d.pc, t as u8);

        match op {
            Op::CondBranch => {
                self.dir.train(key, &dir_snap, actual.taken);
                self.threads[t].st.branches += 1;
                if mispredicted {
                    self.threads[t].st.mispredicts += 1;
                }
            }
            Op::IndirectJump => {
                self.btb.update(key, actual.target);
                if mispredicted {
                    self.threads[t].st.target_mispredicts += 1;
                }
            }
            Op::Return if mispredicted => {
                self.threads[t].st.target_mispredicts += 1;
            }
            _ => {}
        }

        if !mispredicted {
            return;
        }

        // ---- misprediction recovery ----
        let replay = self.squash_younger(t, seq);
        debug_assert!(replay == 0, "everything younger than a mispredict is wrong-path");

        // Rewind front-end state to just before this branch, then redo the
        // branch's own action with the architectural outcome.
        let (ras_state, ghr) = self.threads[t].ckpt.rewind_to(seq.saturating_sub(1));
        self.threads[t].ras.restore(ras_state);
        match op {
            Op::CondBranch => {
                self.dir.recover(t, &dir_snap, actual.taken);
            }
            Op::Return => {
                self.dir.set_history(t, ghr);
                let _ = self.threads[t].ras.pop(); // redo the architectural pop
            }
            _ => {
                self.dir.set_history(t, ghr);
            }
        }
        let snap = (self.threads[t].ras.snapshot(), self.dir.history(t));
        self.threads[t].ckpt.push(seq, snap);

        // Redirect fetch to the correct path.
        let th = &mut self.threads[t];
        th.wrong_path = None;
        th.wrong_path_branch = None;
        th.next_correct_pc = d.next_pc();
        th.stalled_until = th.stalled_until.max(self.cycle + 1);
    }

    /// Fire due FLUSH triggers: flush the offending thread past the load
    /// and gate its fetch until the load completes (Tullsen & Brown).
    pub(crate) fn process_flushes(&mut self) {
        if self.flush_wheel.is_empty() {
            return; // every bucket empty: nothing can be due
        }
        let now = self.cycle;
        let mut due = std::mem::take(&mut self.scratch_flush_due);
        due.clear();
        self.flush_wheel.drain_due(now, &mut due);
        if !due.is_empty() {
            self.activity |= super::act::FLUSH;
        }
        for &c in &due {
            let id = c.id;
            // Validate at fire time: the load may have been squashed (slot
            // released, generation bumped — possibly by an earlier flush
            // this same cycle) or already completed. A generation match
            // guarantees the same incarnation, so the schedule-time
            // classification still holds.
            if self.pool.gen(id) != c.gen {
                continue;
            }
            let hot = self.pool.hot(id);
            debug_assert!(hot.op.is_load(), "only loads arm FLUSH triggers");
            if hot.state() != InstState::Executing {
                continue;
            }
            let (t, seq) = (hot.thread().index(), hot.seq.0);
            if self.threads[t].flush_gate == Some(id) {
                continue;
            }
            self.squash_younger(t, seq);
            // Rewind speculative front-end state to the flush point.
            let (ras_state, ghr) = self.threads[t].ckpt.rewind_to(seq);
            self.threads[t].ras.restore(ras_state);
            self.dir.set_history(t, ghr);
            self.threads[t].flush_gate = Some(id);
            self.threads[t].st.flushes += 1;
        }
        self.scratch_flush_due = due;
    }
}

#[cfg(test)]
mod tests {
    use hdsmt_isa::{FuKind, Op, Pc, SeqNum, StaticInst, ThreadId};
    use hdsmt_pipeline::{ColdInst, HotInst, InstId, InstState, MicroArch};
    use hdsmt_trace::DynInst;

    use super::super::Processor;
    use super::{LoadOrder, LqStore, ReadyEntry};
    use crate::config::{SimConfig, ThreadSpec};

    /// A two-thread M8 machine with empty pipelines, used as a harness to
    /// hand-place instructions into the LQ.
    fn mini_proc(cfg_tweak: impl FnOnce(&mut SimConfig)) -> Processor {
        let mut cfg = SimConfig::paper_defaults(MicroArch::baseline(), 1_000);
        cfg_tweak(&mut cfg);
        let w = vec![ThreadSpec::for_benchmark("gzip", 1), ThreadSpec::for_benchmark("gcc", 2)];
        Processor::new(cfg, &w, &[0, 0])
    }

    /// Place an instruction in pipe 0's queue of its kind in the given
    /// state. Sources are `None` (always operand-ready).
    fn inject(
        p: &mut Processor,
        t: usize,
        seq: u64,
        op: Op,
        addr: u64,
        state: InstState,
        ready_cycle: u64,
    ) -> InstId {
        let sinst = StaticInst { op, dst: None, srcs: [None, None], mem: None };
        let d = DynInst { pc: Pc(0x100), sinst, addr, ctrl: None };
        let id = p
            .pool
            .alloc(HotInst::new(ThreadId(t as u8), 0, SeqNum(seq), op, false), ColdInst::new(d));
        {
            let h = p.pool.hot_mut(id);
            h.set_state(state);
            h.ready_cycle = ready_cycle;
        }
        assert!(p.pipes[0].queues[op.fu_kind() as usize].push());
        if state == InstState::Waiting {
            // Sources are None, so dispatch would mark it ready at once.
            p.pipes[0].ready.insert(ReadyEntry::new(seq, addr, id, t as u8, op));
        }
        if op.is_store() {
            let known_at = match state {
                InstState::Waiting => u64::MAX,
                _ => ready_cycle,
            };
            p.threads[t].lq_stores.push_back(LqStore { seq, addr_word: addr & !7, known_at, id });
        }
        p.threads[t].icount += 1; // mirrors dispatch bookkeeping
        id
    }

    fn verdict(p: &Processor, id: InstId) -> &'static str {
        let h = p.pool.hot(id);
        match p.load_order(h.thread().index(), h.seq.0, p.pool.cold(id).d.addr & !7) {
            LoadOrder::Blocked { .. } => "blocked",
            LoadOrder::Clear => "clear",
            LoadOrder::Forward => "forward",
        }
    }

    #[test]
    fn forwarding_requires_exact_8_byte_match() {
        let mut p = mini_proc(|_| {});
        inject(&mut p, 0, 1, Op::Store, 0x1000, InstState::Done, 0);
        let same_word = inject(&mut p, 0, 2, Op::Load, 0x1004, InstState::Waiting, 0);
        let next_word = inject(&mut p, 0, 3, Op::Load, 0x1008, InstState::Waiting, 0);
        let prev_word = inject(&mut p, 0, 4, Op::Load, 0x0ff8, InstState::Waiting, 0);
        assert_eq!(verdict(&p, same_word), "forward", "same 8-byte word forwards");
        assert_eq!(verdict(&p, next_word), "clear", "next word does not forward");
        assert_eq!(verdict(&p, prev_word), "clear", "previous word does not forward");
    }

    #[test]
    fn unknown_older_store_address_blocks_even_with_an_older_match() {
        let mut p = mini_proc(|_| {});
        // seq 1: store with known, matching address.
        inject(&mut p, 0, 1, Op::Store, 0x2000, InstState::Done, 0);
        // seq 3: store whose address is still unknown (pre-agen).
        inject(&mut p, 0, 3, Op::Store, 0x9999, InstState::Waiting, 0);
        // A load younger than both must be Blocked: the unknown address
        // dominates the older forwarding match.
        let young = inject(&mut p, 0, 4, Op::Load, 0x2000, InstState::Waiting, 0);
        assert_eq!(verdict(&p, young), "blocked");
        // A load *between* them only sees the known store: forwards.
        let mid = inject(&mut p, 0, 2, Op::Load, 0x2000, InstState::Waiting, 0);
        assert_eq!(verdict(&p, mid), "forward");
    }

    #[test]
    fn only_same_thread_stores_participate_in_ordering() {
        let mut p = mini_proc(|_| {});
        // Thread 1 has an unknown-address store; thread 0's load ignores it.
        inject(&mut p, 1, 1, Op::Store, 0x3000, InstState::Waiting, 0);
        let load = inject(&mut p, 0, 5, Op::Load, 0x3000, InstState::Waiting, 0);
        assert_eq!(verdict(&p, load), "clear");
    }

    #[test]
    fn executing_store_address_becomes_known_at_its_ready_cycle() {
        let mut p = mini_proc(|_| {});
        inject(&mut p, 0, 1, Op::Store, 0x4000, InstState::Executing, 10);
        let load = inject(&mut p, 0, 2, Op::Load, 0x4004, InstState::Waiting, 0);
        p.cycle = 9;
        assert_eq!(verdict(&p, load), "blocked", "agen not complete at cycle 9");
        p.cycle = 10;
        assert_eq!(verdict(&p, load), "forward", "agen result visible at its ready cycle");
    }

    #[test]
    fn youngest_matching_store_is_chosen_for_forwarding() {
        let mut p = mini_proc(|_| {});
        inject(&mut p, 0, 1, Op::Store, 0x5000, InstState::Done, 0);
        inject(&mut p, 0, 2, Op::Store, 0x5000, InstState::Done, 0);
        let load = inject(&mut p, 0, 3, Op::Load, 0x5004, InstState::Waiting, 0);
        assert_eq!(verdict(&p, load), "forward");
    }

    #[test]
    fn forwarded_load_bypasses_the_cache_with_fixed_latency() {
        let mut p = mini_proc(|_| {});
        inject(&mut p, 0, 1, Op::Store, 0x6000, InstState::Done, 0);
        let load = inject(&mut p, 0, 2, Op::Load, 0x6000, InstState::Waiting, 0);
        p.cycle = 100;
        p.begin_execution(0, load, Op::Load, p.pool.cold(load).d.addr, true);
        let h = p.pool.hot(load);
        assert_eq!(h.state(), InstState::Executing);
        assert!(h.is_forwarded());
        // agen (1 cycle + rf extra) + 1-cycle bypass, no cache access.
        let rf_extra = (p.rf_lat - 1) as u64;
        assert_eq!(h.ready_cycle, 100 + 1 + rf_extra + 1);
    }

    #[test]
    fn mshr_full_load_replays_with_retry_backoff() {
        let mut p = mini_proc(|c| c.mem.mshrs = 1);
        // Saturate the single MSHR with an outstanding far miss.
        let first = p.mem.load(0x5000_0000, 0);
        assert!(!first.mshr_stall, "first miss allocates the MSHR");
        assert!(first.latency > 1, "must actually miss");
        // A second missing load now structurally replays, behind an
        // older entry that stays put for want of an FP unit.
        p.pipes[0].fus[FuKind::Fp as usize] = hdsmt_pipeline::FuPool::new(0);
        let fp = inject(&mut p, 1, 1, Op::FpAlu, 0, InstState::Waiting, 0);
        let load = inject(&mut p, 0, 1, Op::Load, 0x6000_0000, InstState::Waiting, 0);
        p.cycle = 0;
        p.issue_stage();
        assert_eq!(
            p.pool.hot(load).state(),
            InstState::Waiting,
            "MSHR stall keeps the load waiting"
        );
        assert_eq!(p.pipes[0].queues[FuKind::LdSt as usize].len(), 1, "the load stays queued");
        let ids: Vec<_> =
            p.pipes[0].ready.entries().iter().map(|e| (e.id, e.retry_at, e.clear)).collect();
        assert_eq!(ids, [(load, 2, true), (fp, 0, false)], "backed off in place for two cycles");
        assert_eq!(p.pipes[0].ready.next_retry(true), 0, "the FP entry could issue now");

        // Retries against the full file bounce again, each pushing the
        // back-off out; the walk passes over the load in between. Once
        // the outstanding miss has drained, the retry allocates and
        // issues.
        let resume = first.latency as u64 + 8;
        let mut bounces = 1;
        for c in 1..=resume {
            p.cycle = c;
            p.issue_stage();
            if p.pool.hot(load).state() == InstState::Executing {
                break;
            }
            let e = p.pipes[0].ready.entries()[0];
            assert!(e.id == load && e.clear, "the load keeps its place, clear of stores");
            if c % 2 == 0 {
                bounces += 1;
                assert_eq!(e.retry_at, c + 2);
            } else {
                assert_eq!(e.retry_at, c + 1, "passed over until its retry");
            }
        }
        let h = p.pool.hot(load);
        assert_eq!(h.state(), InstState::Executing, "retry issues once an MSHR frees up");
        assert!(h.ready_cycle > p.cycle);
        let ids: Vec<_> = p.pipes[0].ready.entries().iter().map(|e| e.id).collect();
        assert_eq!(ids, [fp], "the issued entry left");
        assert_eq!(p.mshr_stats().0 .1, bounces, "every bounce is a full-file stall");
    }

    #[test]
    fn issue_walks_oldest_first_under_the_width_and_fu_limits() {
        let mut p = mini_proc(|_| {});
        // (thread, seq, op), injected out of age order; M8 issues 8 per
        // cycle and has 3 FP units.
        let plan = [
            (0, 8, Op::Load),
            (1, 7, Op::IntAlu),
            (0, 4, Op::FpAlu),
            (1, 5, Op::IntAlu),
            (0, 2, Op::FpAlu),
            (1, 1, Op::FpAlu),
            (0, 6, Op::IntAlu),
            (1, 2, Op::IntAlu),
            (0, 3, Op::FpAlu),
            (1, 4, Op::Load),
            (0, 5, Op::IntAlu),
        ];
        let ids: Vec<InstId> = plan
            .iter()
            .map(|&(t, seq, op)| inject(&mut p, t, seq, op, 0x40 * seq, InstState::Waiting, 0))
            .collect();
        p.cycle = 10;
        p.issue_stage();
        // Oldest first: (1,1)F (2,0)F (2,1)I (3,0)F issue; (4,0)F finds
        // the FP units taken; (4,1)L (5,0)I (5,1)I (6,0)I fill the width;
        // (7,1)I and (8,0)L are left over.
        let left: Vec<(u64, u8)> =
            p.pipes[0].ready.entries().iter().map(|e| (e.seq, e.thread)).collect();
        assert_eq!(left, [(4, 0), (7, 1), (8, 0)]);
        for (&(t, seq, _), &id) in plan.iter().zip(&ids) {
            let waiting = left.contains(&(seq, t as u8));
            let want = if waiting { InstState::Waiting } else { InstState::Executing };
            assert_eq!(p.pool.hot(id).state(), want, "thread {t} seq {seq}");
        }
        assert_eq!(p.pipes[0].queues.iter().map(|q| q.len()).sum::<usize>(), 3);
        assert_ne!(p.activity & super::super::act::ISSUE_READY, 0);
    }

    #[test]
    fn a_load_behind_a_store_issued_in_the_same_walk_parks_at_its_agen() {
        let mut p = mini_proc(|_| {});
        let store = inject(&mut p, 0, 1, Op::Store, 0x1000, InstState::Waiting, 0);
        let load = inject(&mut p, 0, 2, Op::Load, 0x1000, InstState::Waiting, 0);
        p.cycle = 100;
        p.issue_stage();
        let agen = p.pool.hot(store).ready_cycle;
        assert_eq!(p.pool.hot(store).state(), InstState::Executing);
        assert_eq!(p.pool.hot(load).state(), InstState::Waiting);
        let waits: Vec<_> =
            p.pipes[0].ready.entries().iter().map(|e| (e.id, e.retry_at, e.clear)).collect();
        assert_eq!(waits, [(load, agen, false)], "waits in place for the store's agen");
        assert!(p.threads[0].blocked_loads.is_empty(), "not filed under an issued store");
        assert_eq!(p.pipes[0].ready.next_retry(false), agen, "an ordering wait reports");
        for c in 101..=agen {
            p.cycle = c;
            p.issue_stage();
        }
        assert_eq!(p.pool.hot(load).state(), InstState::Executing);
        assert!(p.pool.hot(load).is_forwarded(), "the store's data is forwarded");

        // A store whose operands are not ready yet: the load waits off
        // the list for its issue, then in place for its agen the same way.
        let store = inject(&mut p, 1, 1, Op::Store, 0x2000, InstState::Waiting, 0);
        let load = inject(&mut p, 1, 2, Op::Load, 0x2000, InstState::Waiting, 0);
        let entry = p.pipes[0].ready.entries()[0];
        p.pipes[0].ready.retain_mut(|e| e.id != store);
        p.cycle = 200;
        p.issue_stage();
        let filed: Vec<_> = p.threads[1].blocked_loads.iter().map(|&(s, e)| (s, e.id)).collect();
        assert_eq!(filed, [(1, load)], "waits for the store's issue");
        p.pipes[0].ready.insert(entry);
        p.cycle = 201;
        p.issue_stage();
        assert!(p.threads[1].blocked_loads.is_empty());
        let agen = p.pool.hot(store).ready_cycle;
        let waits: Vec<_> =
            p.pipes[0].ready.entries().iter().map(|e| (e.id, e.retry_at, e.clear)).collect();
        assert_eq!(waits, [(load, agen, false)], "back in the list after the store issued");
    }

    #[test]
    fn a_slot_freed_by_squashing_an_executing_load_is_reused_in_the_same_cycle() {
        use crate::config::FetchPolicy;
        use hdsmt_isa::ArchReg;

        let mut p = mini_proc(|c| c.fetch_policy = FetchPolicy::Flush);
        p.cycle = 100;
        // An executing load that misses to memory: it files a completion
        // and a FLUSH trigger, both far beyond this cycle.
        let load = inject(&mut p, 0, 5, Op::Load, 0x6000_0000, InstState::Waiting, 0);
        p.threads[0].rob.push_back(load);
        p.begin_execution(0, load, Op::Load, 0x6000_0000, false);
        let (load_done, load_gen) = (p.pool.hot(load).ready_cycle, p.pool.gen(load));
        assert_eq!(p.pool.hot(load).state(), InstState::Executing);
        assert!(!p.flush_wheel.is_empty(), "the miss armed a FLUSH trigger");
        // A younger consumer subscribed to a register nobody has written.
        let src = p.regfile.alloc(ArchReg::INT0).expect("a free rename register");
        let consumer = inject(&mut p, 0, 6, Op::Load, 0x7000, InstState::Rename, 0);
        p.threads[0].rob.push_back(consumer);
        {
            let h = p.pool.hot_mut(consumer);
            h.set_state(InstState::Waiting);
            h.pending_srcs = 1;
        }
        p.regfile.subscribe(src, consumer, p.pool.gen(consumer));

        p.squash_younger(0, 4);
        assert!(p.threads[0].rob.is_empty());

        // Reallocate in the same cycle: the free list is LIFO, so the new
        // instruction lands in the squashed load's slot under a new
        // generation, and the next one in the consumer's.
        let fresh = inject(&mut p, 0, 5, Op::Load, 0x8000, InstState::Waiting, 0);
        assert_eq!(fresh, load, "the executing load's slot is free at squash");
        assert_ne!(p.pool.gen(fresh), load_gen);
        let waiter = inject(&mut p, 0, 6, Op::Load, 0x9000, InstState::Rename, 0);
        assert_eq!(waiter, consumer);
        {
            let h = p.pool.hot_mut(waiter);
            h.set_state(InstState::Waiting);
            h.pending_srcs = 1;
        }
        p.threads[0].rob.push_back(fresh);
        p.threads[0].rob.push_back(waiter);
        p.begin_execution(0, fresh, Op::Load, 0x8000, true);
        let fresh_done = p.pool.hot(fresh).ready_cycle;
        assert!(fresh_done < load_done);

        // The old consumer's subscription fires: dropped by generation, so
        // the new occupant still waits on its own operand.
        p.regfile.set_ready(src);
        // Run writeback and FLUSH every cycle past the stale load's
        // completion: its wheel and FLUSH entries are dropped by
        // generation, while the new occupant completes on time.
        for c in 101..=load_done + 1 {
            p.cycle = c;
            p.writeback_stage();
            p.process_flushes();
            if c == fresh_done {
                assert_eq!(p.pool.hot(fresh).state(), InstState::Done, "completes normally");
            }
        }
        assert_eq!(p.pool.gen(fresh), p.pool.gen(load), "no release behind its back");
        assert_eq!(p.pool.hot(fresh).state(), InstState::Done);
        assert_eq!(p.pool.hot(waiter).pending_srcs, 1, "stale wakeup was dropped");
        assert!(!p.pipes[0].ready.entries().iter().any(|e| e.id == waiter));
        assert_eq!(p.threads[0].st.flushes, 0, "stale FLUSH trigger was dropped");
        assert_eq!(p.threads[0].flush_gate, None);
        assert!(p.wheel.is_empty() && p.flush_wheel.is_empty());
    }
}
