//! In-order commit: per pipeline, up to `width` instructions per cycle,
//! round-robin across the pipeline's threads. Stores write the data cache
//! here (write-buffered: commit does not stall on store misses).

use hdsmt_isa::FuKind;
use hdsmt_pipeline::InstState;

use super::Processor;

impl Processor {
    pub(crate) fn commit_stage(&mut self) {
        let now = self.cycle;
        for p in 0..self.pipes.len() {
            let n_threads = self.pipes[p].threads.len();
            if n_threads == 0 {
                continue;
            }
            let mut budget = self.pipes[p].model.width as u32;
            let start = self.pipes[p].commit_rr % n_threads;
            for k in 0..n_threads {
                if budget == 0 {
                    break;
                }
                let t = self.pipes[p].threads[(start + k) % n_threads];
                while budget > 0 {
                    let Some(&head) = self.threads[t].rob.front() else { break };
                    // Hot half first: a head that cannot retire yet — the
                    // common case every polled cycle — is decided without
                    // touching its cold record.
                    let (state, ready, seq, wrong, op, old_phys) = {
                        let h = self.pool.hot(head);
                        (h.state(), h.ready_cycle, h.seq.0, h.is_wrong_path(), h.op, h.old_phys())
                    };
                    if state != InstState::Done {
                        break;
                    }
                    // Writeback marks `Done` at `ready_cycle`, and commit
                    // runs first in the next cycle.
                    debug_assert!(ready < now, "a done head's result is already visible");
                    self.activity |= super::act::COMMIT;
                    debug_assert!(!wrong, "wrong-path instructions never reach commit");
                    let is_ctrl = op.is_control();

                    if op.is_store() {
                        // Only a store retirement opens its cold record:
                        // the architectural memory update needs the
                        // effective address. Write-buffered, so the
                        // latency is not charged to commit.
                        let addr = self.pool.cold(head).d.addr;
                        let _ = self.mem.store(addr, now);
                        self.pipes[p].queues[FuKind::LdSt as usize].remove();
                        // In-order commit retires this thread's oldest
                        // in-LQ store: the front of its store list.
                        let popped = self.threads[t].lq_stores.pop_front();
                        debug_assert_eq!(popped.map(|s| s.id), Some(head));
                    }
                    // The previous mapping of the destination is now dead.
                    if let Some(old) = old_phys {
                        if self.regfile.is_rename_reg(old) {
                            self.regfile.free(old);
                        }
                    }
                    self.threads[t].rob.pop_front();
                    self.threads[t].last_committed_seq = seq;
                    if is_ctrl {
                        self.threads[t].ckpt.prune_committed(seq);
                    }
                    self.pool.release(head);
                    self.threads[t].st.retired += 1;
                    self.pipes[p].retired += 1;
                    self.committed_total += 1;
                    budget -= 1;

                    if self.warmed && self.threads[t].st.retired >= self.cfg.max_retired_per_thread
                    {
                        // The paper ends each simulation as soon as one
                        // thread finishes its instruction budget (§4).
                        self.threads[t].done = true;
                        self.stop = true;
                    }
                }
            }
            self.pipes[p].commit_rr = self.pipes[p].commit_rr.wrapping_add(1);
        }
    }
}
