//! Squash machinery: walk-back recovery of rename state, structure purge,
//! and correct-path replay collection (FLUSH re-fetch).

use hdsmt_isa::FuKind;
use hdsmt_pipeline::InstState;
use hdsmt_trace::DynInst;

use super::Processor;

impl Processor {
    /// Squash every instruction of thread `t` younger than `seq_min`, in
    /// every structure: decoupling buffer, stage latches, issue queues,
    /// ready list, store-blocked loads and ROB, releasing every squashed
    /// slot at once. Rename mappings are walked back youngest-first;
    /// squashed *correct-path* instructions are pushed onto the thread's
    /// replay queue (oldest first) so FLUSH can re-fetch them.
    ///
    /// Returns the number of correct-path instructions queued for replay.
    ///
    /// `#[cold]`: squashes fire every few dozen cycles at worst, and
    /// keeping this large recovery body out of line keeps the per-cycle
    /// stage loop's instruction footprint tight.
    #[cold]
    pub(crate) fn squash_younger(&mut self, t: usize, seq_min: u64) -> usize {
        let pipe_idx = self.threads[t].pipe as usize;
        let mut replay = std::mem::take(&mut self.scratch_replay);
        let mut to_release = std::mem::take(&mut self.scratch_release);
        replay.clear();
        to_release.clear();

        // ---- ROB walk-back (renamed instructions), youngest first ----
        //
        // The walk knows each squashed instruction's exact whereabouts, so
        // queue counts are undone with O(1) updates here. The pre-rename
        // front-end containers (decoupling buffer, stage latches) are
        // swept by flag below, and the short ready list and the
        // store-blocked loads by age.
        while let Some(&tail) = self.threads[t].rob.back() {
            // Hot half decides whether the walk stops; the cold half (rename
            // mappings, the fetched instruction) is opened only for entries
            // actually being squashed — walk-back is one of the two stages
            // allowed to rewrite both.
            let (seq, state, wrong, op, dst_phys, old_phys) = {
                let h = self.pool.hot(tail);
                (h.seq.0, h.state(), h.is_wrong_path(), h.op, h.dst_phys(), h.old_phys())
            };
            if seq <= seq_min {
                break;
            }
            self.threads[t].rob.pop_back();

            // Undo the rename, youngest-first restores the oldest mapping.
            // Only a renamed destination needs the cold record opened (for
            // the architectural register being restored).
            if let Some(phys) = dst_phys {
                let a = self.pool.cold(tail).d.sinst.dst;
                self.threads[t].map.restore(
                    a.expect("physical dst implies an architectural dst"),
                    old_phys.expect("renamed dst keeps old mapping"),
                );
                self.regfile.free(phys);
            }
            match state {
                InstState::Rename => {
                    self.threads[t].icount -= 1;
                    to_release.push(tail);
                }
                InstState::Waiting => {
                    // Its ready entry, if any, goes in the purge below.
                    self.threads[t].icount -= 1;
                    self.pipes[pipe_idx].queues[op.fu_kind() as usize].remove();
                    to_release.push(tail);
                }
                InstState::Executing => {
                    if op.is_load() {
                        self.threads[t].inflight_loads -= 1;
                    }
                    if op.is_store() {
                        // Issued stores remain LQ members (forwarding
                        // source) until commit; squash evicts them here.
                        self.pipes[pipe_idx].queues[FuKind::LdSt as usize].remove();
                    }
                    // Its completion-wheel and FLUSH-wheel entries go
                    // stale with the release and are dropped by
                    // generation when they come due.
                    to_release.push(tail);
                }
                InstState::Done => {
                    if op.is_store() {
                        self.pipes[pipe_idx].queues[FuKind::LdSt as usize].remove();
                    }
                    to_release.push(tail);
                }
                InstState::InBuffer => {
                    unreachable!("pre-rename instructions are not in the ROB")
                }
            }
            self.mark_squashed(tail, wrong, seq, &mut replay, t);
        }

        // Prune the thread's in-LQ store list: squashed stores are
        // exactly those younger than the squash point, a suffix of the
        // program-ordered list.
        while self.threads[t].lq_stores.back().is_some_and(|s| s.seq > seq_min) {
            self.threads[t].lq_stores.pop_back();
        }

        // ---- front-end structures (pre-rename, so younger than the ROB
        // tail): decoupling buffer and decode latch ----
        let mut buffer_ids = std::mem::take(&mut self.scratch_buffer_ids);
        buffer_ids.clear();
        buffer_ids.extend(
            self.pipes[pipe_idx]
                .buffer
                .iter()
                .map(|e| e.id)
                .chain(self.pipes[pipe_idx].decode_latch.iter().map(|e| e.id)),
        );
        for &id in &buffer_ids {
            let (tid, seq, wrong) = {
                let h = self.pool.hot(id);
                (h.thread().index(), h.seq.0, h.is_wrong_path())
            };
            if tid != t || seq <= seq_min {
                continue;
            }
            self.threads[t].icount -= 1;
            self.mark_squashed(id, wrong, seq, &mut replay, t);
            to_release.push(id);
        }
        self.scratch_buffer_ids = buffer_ids;

        // ---- purge the front-end containers of marked instructions,
        // and the thread's younger ready entries, waiting loads
        // included ----
        // (The queue counts were already updated in the walk above.)
        {
            let pool = &self.pool;
            let pipe = &mut self.pipes[pipe_idx];
            pipe.buffer.retain(|e| !pool.hot(e.id).is_squashed());
            pipe.decode_latch.retain(|e| !pool.hot(e.id).is_squashed());
            pipe.dispatch_latch.retain(|e| !pool.hot(e.id).is_squashed());
            pipe.ready.remove_younger(t as u8, seq_min);
        }
        // Loads waiting on a blocking store's issue: squashed ones are
        // exactly those younger than the squash point.
        {
            self.threads[t].blocked_loads.retain(|&(_, e)| e.seq <= seq_min);
        }

        // ---- release every squashed slot ----
        let n_replay = replay.len();
        for &id in &to_release {
            self.pool.release(id);
        }
        self.scratch_release = to_release;

        // ---- assemble the replay queue, oldest first at the front ----
        replay.sort_unstable_by_key(|&(seq, _)| seq);
        for (_, d) in replay.drain(..).rev() {
            self.threads[t].replay.push_front(d);
        }
        self.scratch_replay = replay;
        n_replay
    }

    /// Mark one instruction squashed, collect it for replay if it is
    /// architectural, and clear any thread state that pointed at it.
    fn mark_squashed(
        &mut self,
        id: hdsmt_pipeline::InstId,
        wrong: bool,
        seq: u64,
        replay: &mut Vec<(u64, DynInst)>,
        t: usize,
    ) {
        self.pool.hot_mut(id).set_squashed();
        self.threads[t].st.squashed += 1;
        if !wrong {
            // Only architectural (replayed) instructions need their cold
            // record read back; wrong-path ones die on the hot flag alone.
            replay.push((seq, self.pool.cold(id).d));
        }
        if self.threads[t].wrong_path_branch == Some(id) {
            // The branch that opened the wrong path is gone; the wrong path
            // dies with it and fetch resumes on the replay/correct path.
            self.threads[t].wrong_path = None;
            self.threads[t].wrong_path_branch = None;
        }
        if self.threads[t].flush_gate == Some(id) {
            self.threads[t].flush_gate = None;
        }
    }
}
