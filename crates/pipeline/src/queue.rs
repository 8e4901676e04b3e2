//! Issue queues (IQ / FQ / LQ).
//!
//! A queue is a member count with a capacity bound — dispatch stalls when
//! it is full — plus a **ready set**. Membership itself is not kept:
//! load/store ordering walks the per-thread store lists, and the
//! processor's ROBs already record which instructions wait in a queue,
//! so the invariant checks derive it from there. Capacities come from
//! the pipeline model (Fig 2(a)).
//!
//! The ready set holds the members whose operands are all available, fed
//! by register-file wakeups. The issue stage visits only the ready sets —
//! a handful of entries — instead of polling every queue member each
//! cycle, sorting its candidates on the pool-independent `(seq, thread)`
//! age key. (The sets stay unordered on purpose: with the wakeup-fed
//! population this small, a per-cycle sort of the genuine candidates is
//! cheaper than keeping every insertion in age position.) The set is
//! maintained eagerly — the scheduler removes an entry the moment its
//! instruction issues or is squashed — so every entry is live, and each
//! [`ReadyEntry`] is self-contained (sequence, thread, opcode, address):
//! candidate selection touches no instruction-pool memory at all, which
//! is what lets the scheduler's per-cycle paths run on the hot half of
//! the instruction pool alone (see `inst`).
//!
//! Only loads ever wait a known number of cycles with their operands
//! ready, in two ways. A load that bounced off a full MSHR file keeps
//! its place in the ready set with a **back-off**: its entry records the
//! first cycle it may retry (`retry_at`), and issue passes over it until
//! then. The bounce thus costs no removal or re-insertion, and
//! [`IssueQueue::next_retry`] is what the processor's `Timeline` reads
//! for the earliest retry. A load waiting for an older store's address
//! goes to the LQ's park instead, which the processor keeps beside the
//! LQ: a [`CompletionWheel`] of ready entries that
//! [`IssueQueue::unpark_due`] moves back onto the ready set when they
//! come due.

use hdsmt_isa::Op;

use crate::inst::InstId;
use crate::wheel::CompletionWheel;

/// One operand-ready instruction, with the metadata issue selection sorts
/// and filters on. Self-contained: age ordering, FU routing and the
/// load-ordering check all run without touching the instruction pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadyEntry {
    /// Per-thread program-order sequence number (issue age priority).
    pub seq: u64,
    /// Full effective address (loads/stores; 0 otherwise). The
    /// load-ordering walk masks it to 8-byte granularity; issue passes it
    /// straight to the memory hierarchy, so issuing a memory op touches
    /// no cold pool record at all.
    pub addr: u64,
    /// First cycle a load backed off after an MSHR-full bounce may
    /// retry; 0 when it never bounced.
    pub retry_at: u64,
    pub id: InstId,
    /// Thread index (the deterministic cross-thread age tie-break).
    pub thread: u8,
    pub op: Op,
}

impl ReadyEntry {
    /// The entry of an instruction whose operands just became ready.
    #[inline]
    pub fn new(seq: u64, addr: u64, id: InstId, thread: u8, op: Op) -> Self {
        ReadyEntry { seq, addr, retry_at: 0, id, thread, op }
    }
}

/// One issue queue: a capacity-bounded member count and a wakeup-fed
/// ready set.
pub struct IssueQueue {
    /// Members: dispatched and not yet issued, plus issued stores until
    /// they commit.
    len: usize,
    /// Operand-ready members, every entry live (eagerly maintained).
    ready: Vec<ReadyEntry>,
    capacity: usize,
}

impl IssueQueue {
    pub fn new(capacity: usize) -> Self {
        IssueQueue { len: 0, ready: Vec::new(), capacity }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    pub fn has_space(&self) -> bool {
        self.len < self.capacity
    }

    /// Admit one member. Returns `false` when full (dispatch stalls).
    pub fn push(&mut self) -> bool {
        if !self.has_space() {
            return false;
        }
        self.len += 1;
        true
    }

    /// One member left (issued, committed or squashed). It must also
    /// leave the ready set (or the LQ park) if it was there: every ready
    /// entry is required to be live.
    pub fn remove(&mut self) {
        debug_assert!(self.len > 0, "removing from an empty queue");
        self.len -= 1;
    }

    /// Record that a member's operands are all available. Callers mark
    /// each instruction at most once (at dispatch when nothing is
    /// outstanding, or when its last wakeup fires), so the set holds no
    /// duplicates.
    #[inline]
    pub fn mark_ready(&mut self, e: ReadyEntry) {
        self.ready.push(e);
    }

    /// The operand-ready members (unordered; issue sorts its candidates).
    #[inline]
    pub fn ready_entries(&self) -> &[ReadyEntry] {
        &self.ready
    }

    /// Drop `id`'s ready entry (it issued or was squashed). Returns
    /// `false` when it had none (operands still outstanding). O(ready).
    pub fn remove_ready(&mut self, id: InstId) -> bool {
        if let Some(i) = self.ready.iter().position(|e| e.id == id) {
            self.ready.swap_remove(i);
            true
        } else {
            false
        }
    }

    /// Back off load `id` after an MSHR-full bounce: it keeps its place
    /// in the ready set, skipped by issue until `retry_at`. O(ready).
    pub fn back_off(&mut self, id: InstId, retry_at: u64) {
        let e = self.ready.iter_mut().find(|e| e.id == id);
        let e = e.expect("a bounced load comes from the ready set");
        debug_assert!(e.op.is_load() && retry_at > 0);
        e.retry_at = retry_at;
    }

    /// Earliest cycle a ready entry can issue: its back-off, or 0 for an
    /// entry that never bounced (it could issue now); `u64::MAX` when the
    /// set is empty. O(ready).
    pub fn next_retry(&self) -> u64 {
        self.ready.iter().map(|e| e.retry_at).min().unwrap_or(u64::MAX)
    }

    /// Push every back-off out by `by` cycles: what `by` cycles of
    /// retries that all bounce again would leave, `by` being a whole
    /// number of back-off periods. Every entry must be backed off.
    pub fn delay_retries(&mut self, by: u64) {
        for e in &mut self.ready {
            debug_assert!(e.retry_at != 0, "only backed-off loads are delayed");
            e.retry_at += by;
        }
    }

    /// Move every entry of `park` due exactly at `now` back onto the
    /// ready set, in park order, returning how many moved. O(due). Must
    /// run every cycle the park is non-empty.
    pub fn unpark_due(&mut self, park: &mut CompletionWheel<ReadyEntry>, now: u64) -> usize {
        if park.is_empty() {
            return 0;
        }
        let before = self.ready.len();
        park.drain_due(now, &mut self.ready);
        self.ready.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_enforced() {
        let mut q = IssueQueue::new(2);
        assert!(q.push());
        assert!(q.push());
        assert!(!q.push());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn remove_is_constant_time_membership_update() {
        let mut q = IssueQueue::new(4);
        for _ in 0..4 {
            q.push();
        }
        assert!(!q.has_space());
        q.remove();
        assert_eq!(q.len(), 3);
        assert!(q.has_space());
        // The vacated slot is reusable.
        assert!(q.push());
        assert!(!q.push());
        for _ in 0..4 {
            q.remove();
        }
        assert!(q.is_empty());
    }

    fn re(id: u32, seq: u64) -> ReadyEntry {
        ReadyEntry::new(seq, 0, InstId(id), 0, Op::IntAlu)
    }

    #[test]
    fn backed_off_loads_keep_their_place_and_report_their_retry() {
        let mut q = IssueQueue::new(8);
        assert_eq!(q.next_retry(), u64::MAX, "an empty set never issues");
        for id in 0..2 {
            q.push();
            q.mark_ready(ReadyEntry::new(10 + id as u64, 0x40, InstId(id), 0, Op::Load));
        }
        assert_eq!(q.next_retry(), 0, "a fresh entry can issue now");
        q.back_off(InstId(0), 12);
        q.back_off(InstId(1), 13);
        assert_eq!(q.next_retry(), 12);
        q.delay_retries(4);
        let got: Vec<u64> = q.ready_entries().iter().map(|e| e.retry_at).collect();
        assert_eq!(got, [16, 17]);
        assert!(q.remove_ready(InstId(0)));
        assert_eq!(q.ready_entries()[0].id, InstId(1));
    }

    #[test]
    fn ready_set_marks_and_removes() {
        let mut q = IssueQueue::new(8);
        for _ in 0..4 {
            q.push();
        }
        q.mark_ready(re(2, 20));
        q.mark_ready(re(0, 10));
        q.mark_ready(re(3, 30));
        let mut seqs: Vec<u64> = q.ready_entries().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, [10, 20, 30]);
        assert!(q.remove_ready(InstId(0)), "issued: eagerly removed");
        assert!(!q.remove_ready(InstId(0)), "already gone");
        assert!(!q.remove_ready(InstId(1)), "never marked ready");
        let mut seqs: Vec<u64> = q.ready_entries().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, [20, 30]);
    }

    #[test]
    fn parked_entries_rejoin_the_ready_set_when_due() {
        let mut q = IssueQueue::new(8);
        let mut park = CompletionWheel::new();
        for _ in 0..3 {
            q.push();
        }
        q.mark_ready(re(0, 10));
        park.schedule(7, re(1, 20), 0);
        assert_eq!(q.ready_entries().len(), 1, "parked entries are not ready yet");
        assert_eq!(q.unpark_due(&mut park, 6), 0, "not due yet");
        assert_eq!(q.unpark_due(&mut park, 7), 1);
        let mut seqs: Vec<u64> = q.ready_entries().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, [10, 20]);
    }

    #[test]
    fn park_next_due_tracks_the_earliest_parked_entry() {
        let mut q = IssueQueue::new(8);
        let mut park = CompletionWheel::new();
        for _ in 0..3 {
            q.push();
        }
        assert_eq!(park.next_due(1), u64::MAX, "empty park reports no activity");
        park.schedule(9, re(0, 10), 1);
        park.schedule(4, re(1, 20), 1);
        assert_eq!(park.next_due(1), 4);
        for now in 1..=4 {
            q.unpark_due(&mut park, now);
        }
        assert_eq!(park.next_due(5), 9);
        for now in 5..=9 {
            q.unpark_due(&mut park, now);
        }
        assert_eq!(park.next_due(10), u64::MAX);
        assert_eq!(q.ready_entries().len(), 2);
    }
}
