//! The shared fetch engine (§2, §4).
//!
//! One fetch unit serves every pipeline: up to 8 instructions from at most
//! 2 threads per cycle, each thread's burst bounded by its I-cache line and
//! ended by predicted-taken branches. Fetched instructions are pushed
//! in-order into the owning pipeline's decoupling buffer.
//!
//! Thread selection implements the paper's policies: ICOUNT 2.8, FLUSH
//! (gating flushed threads), and L1MCOUNT (fewest in-flight loads, then
//! wider pipeline, then ICOUNT).

use hdsmt_bpred::branch_key;
use hdsmt_isa::{Op, Pc, SeqNum, StaticInst};
use hdsmt_pipeline::{ColdInst, HotInst};
use hdsmt_trace::DynInst;

use super::Processor;
use crate::config::{FetchPolicy, FETCH_THREADS, FETCH_WIDTH, ROB_ENTRIES};

impl Processor {
    /// Select threads and fetch up to the global bandwidth.
    pub(crate) fn fetch_stage(&mut self) {
        let now = self.cycle;
        let n = self.threads.len();
        let mut order = std::mem::take(&mut self.scratch_order);
        order.clear();
        order.extend((0..n).filter(|&t| self.fetch_eligible(t, now)));
        // An eligible thread always acts: even a burst that stalls on an
        // I-cache miss touches the hierarchy and re-arms its stall timer.
        if !order.is_empty() {
            self.activity |= super::act::FETCH;
        }
        let rr = self.fetch_rr;
        let key = |p: &Processor, t: usize| -> (i64, i64, i64, i64) {
            let th = &p.threads[t];
            let rr_pos = ((t + n - rr % n.max(1)) % n.max(1)) as i64;
            match p.cfg.fetch_policy {
                FetchPolicy::Icount | FetchPolicy::Flush => (th.icount as i64, rr_pos, 0, 0),
                FetchPolicy::L1mcount => (
                    th.inflight_loads as i64,
                    -(p.pipes[th.pipe as usize].model.width as i64),
                    th.icount as i64,
                    rr_pos,
                ),
                FetchPolicy::RoundRobin => (rr_pos, 0, 0, 0),
            }
        };
        order.sort_by_key(|&t| key(self, t));

        let mut budget = FETCH_WIDTH as u32;
        let mut threads_used = 0u8;
        #[allow(clippy::explicit_counter_loop)] // the counter is a port budget, not an index
        for &t in &order {
            if threads_used >= FETCH_THREADS || budget == 0 {
                break;
            }
            threads_used += 1; // the I-cache port is consumed even on a stall
            self.fetch_burst(t, &mut budget);
        }
        self.scratch_order = order;
        self.fetch_rr = self.fetch_rr.wrapping_add(1);
    }

    fn fetch_eligible(&self, t: usize, now: u64) -> bool {
        let th = &self.threads[t];
        !th.done
            && th.stalled_until <= now
            && th.flush_gate.is_none()
            && !self.pipes[th.pipe as usize].buffer.is_full()
    }

    /// Fetch one thread's burst: a run of consecutive instructions from a
    /// single I-cache line, ending at a predicted-taken branch, buffer
    /// fill, or bandwidth exhaustion.
    fn fetch_burst(&mut self, t: usize, budget: &mut u32) {
        let now = self.cycle;
        let pipe_idx = self.threads[t].pipe as usize;

        let start_pc = self.current_fetch_pc(t);
        let code_addr = self.threads[t].stream.code_base() + start_pc.0;
        let res = self.mem.ifetch(code_addr, now);
        if res.latency > 0 {
            let th = &mut self.threads[t];
            th.stalled_until = now + res.latency as u64;
            th.st.icache_stall_cycles += res.latency as u64;
            return;
        }

        let line_bytes = self.cfg.mem.l1i.line_bytes;
        let insts_per_line = (line_bytes / Pc::INST_BYTES) as u32;
        let mut line_left = insts_per_line - start_pc.line_offset(line_bytes) as u32;

        while *budget > 0 && line_left > 0 && !self.pipes[pipe_idx].buffer.is_full() {
            let (d, wrong) = self.next_fetch_inst(t);
            let end_burst = self.fetch_one(t, pipe_idx, d, wrong);
            *budget -= 1;
            line_left -= 1;
            if end_burst {
                break;
            }
        }
    }

    /// PC the thread will fetch next.
    fn current_fetch_pc(&self, t: usize) -> Pc {
        let th = &self.threads[t];
        if let Some(pc) = th.wrong_path {
            pc
        } else if let Some(d) = th.replay.front() {
            d.pc
        } else {
            th.next_correct_pc
        }
    }

    /// Pull the next instruction: wrong-path fabrication, replay, or the
    /// architectural stream.
    fn next_fetch_inst(&mut self, t: usize) -> (DynInst, bool) {
        let th = &mut self.threads[t];
        if let Some(wpc) = th.wrong_path {
            // The wrong path decodes real static instructions from the
            // basic-block dictionary, and no-ops once it runs off the image.
            let sinst = th.stream.program().inst_at(wpc).copied().unwrap_or(StaticInst {
                op: Op::Nop,
                dst: None,
                srcs: [None, None],
                mem: None,
            });
            let addr = sinst.mem.map_or(0, |g| th.stream.wrong_path_addr(g));
            (DynInst { pc: wpc, sinst, addr, ctrl: None }, true)
        } else if let Some(d) = th.replay.pop_front() {
            (d, false)
        } else {
            // Correct-path fetch drains the thread's chunk buffer and
            // crosses the `Box<dyn TraceSource>` seam only to refill it:
            // one virtual call (one tight block-at-a-time generation
            // loop) per chunk instead of per instruction.
            (th.chunk.next_from(th.stream.as_mut()), false)
        }
    }

    /// Rename-free front half of fetch for one instruction: prediction,
    /// RAS/history bookkeeping, wrong-path transitions, buffer insertion.
    /// Returns whether the burst ends after this instruction.
    fn fetch_one(&mut self, t: usize, pipe_idx: usize, d: DynInst, wrong: bool) -> bool {
        let op = d.sinst.op;
        let seq = self.threads[t].next_seq;
        self.threads[t].next_seq += 1;

        let mut hot = HotInst::new(self.threads[t].id, pipe_idx as u8, SeqNum(seq), op, wrong);
        let cold = ColdInst::new(d);
        let mut dir_snap = None;
        let mut end_burst = false;

        if op.is_control() {
            let key = branch_key(d.pc, t as u8);
            let (pred_taken, pred_target) = match op {
                Op::CondBranch => {
                    let (p, snap) = self.dir.predict(t, key);
                    self.dir.spec_update(t, p);
                    dir_snap = Some(snap);
                    let program = self.threads[t].stream.program();
                    (p, if p { program.taken_target(d.pc) } else { d.pc.next() })
                }
                Op::Jump | Op::Call => (true, self.threads[t].stream.program().taken_target(d.pc)),
                Op::Return => (true, self.threads[t].ras.pop()),
                Op::IndirectJump => (true, self.btb.lookup(key).unwrap_or(d.pc.next())),
                _ => unreachable!(),
            };
            if op == Op::Call {
                self.threads[t].ras.push(d.pc.next());
            }
            // Post-action checkpoint for arbitrary-point rewinds.
            let snap = (self.threads[t].ras.snapshot(), self.dir.history(t));
            self.threads[t].ckpt.push(seq, snap);

            if !wrong {
                let actual = d.ctrl.expect("correct-path control inst carries its outcome");
                let mispredicted = pred_taken != actual.taken
                    || (pred_taken && actual.taken && pred_target != actual.target);
                if mispredicted {
                    hot.set_mispredicted();
                }
                self.threads[t].next_correct_pc = d.next_pc();
                if mispredicted {
                    let wrong_pc = if pred_taken { pred_target } else { d.pc.next() };
                    let th = &mut self.threads[t];
                    th.wrong_path = Some(wrong_pc);
                    // A wrong-path episode opens here: anchor the stream's
                    // wrong-path fabrication to the consumption point (the
                    // chunk buffer holds generated-but-unfetched work the
                    // fabrication must not see).
                    th.stream.sync_wrong_path_view(th.chunk.len() as u64);
                    // Linked below once the id exists.
                }
            } else {
                // Down a wrong path the machine can only follow its own
                // prediction.
                let next = if pred_taken { pred_target } else { d.pc.next() };
                self.threads[t].wrong_path = Some(next);
            }
            if pred_taken {
                end_burst = true;
            }
        } else if !wrong {
            self.threads[t].next_correct_pc = d.pc.next();
        } else {
            self.threads[t].wrong_path = Some(d.pc.next());
        }

        let mispredicted = hot.is_mispredicted();
        let id = self.pool.alloc(hot, cold);
        if let Some(snap) = dir_snap {
            // Conditional branches only: the snapshot array is untouched —
            // and unread — for everything else.
            *self.pool.snap_mut(id) = snap;
        }
        if mispredicted {
            self.threads[t].wrong_path_branch = Some(id);
        }
        let fe = super::FrontEntry { id, dst: d.sinst.dst, srcs: d.sinst.srcs, addr: d.addr };
        let pushed = self.pipes[pipe_idx].buffer.push_back(fe);
        debug_assert!(pushed, "buffer space checked before fetch");
        debug_assert!(self.threads[t].rob.len() < ROB_ENTRIES * 2);

        let th = &mut self.threads[t];
        th.icount += 1;
        if wrong {
            th.st.wrong_path_fetched += 1;
        } else {
            th.st.fetched += 1;
        }
        self.fetched_total += 1;
        end_burst
    }
}
