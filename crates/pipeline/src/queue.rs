//! Issue queues (IQ / FQ / LQ).
//!
//! A queue is an unordered membership set with a capacity bound —
//! load/store ordering walks the per-thread store lists, so nothing
//! depends on queue iteration order. That makes membership removal O(1):
//! a per-id position index plus `swap_remove`. Capacities come from the
//! pipeline model (Fig 2(a)).
//!
//! Each queue also carries a **ready set**: the entries whose operands
//! are all available, fed by register-file wakeups. The issue stage
//! visits only the ready sets — a handful of entries — instead of
//! polling every queue member each cycle, sorting its candidates on the
//! pool-independent `(seq, thread)` age key. (The sets stay unordered on
//! purpose: with the wakeup-fed population this small, a per-cycle sort
//! of the genuine candidates is cheaper than keeping every insertion in
//! age position.) The set is maintained eagerly — the scheduler removes
//! an entry the moment its instruction issues or is squashed — so every
//! entry is live, and each [`ReadyEntry`] is self-contained (sequence,
//! thread, opcode, address): candidate selection touches no
//! instruction-pool memory at all, which is what lets the scheduler's
//! per-cycle paths run on the hot half of the instruction pool alone
//! (see `inst`).
//!
//! An operand-ready entry that cannot issue yet for a known number of
//! cycles (an MSHR-full load backing off, a load waiting for an older
//! store's address) leaves the ready set for the queue's **park**, a
//! [`CompletionWheel`] of `ReadyEntry` payloads filed by the cycle the
//! entry rejoins the ready set. Issue drains it once per cycle; squash
//! purges it eagerly, since every parked entry must be live; and its
//! [`CompletionWheel::next_due`] is the queue's report to the
//! processor's quiescence engine.

use hdsmt_isa::Op;

use crate::inst::InstId;
use crate::wheel::CompletionWheel;

/// Position sentinel: not in this queue.
const ABSENT: u32 = u32::MAX;

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
    pub id: InstId,
    /// Thread index (the deterministic cross-thread age tie-break).
    pub thread: u8,
    pub op: Op,
}

/// One issue queue: a capacity-bounded membership set with O(1)
/// insert/remove, a wakeup-fed ready set, and a retry park for entries
/// that must wait a known number of cycles before rejoining it.
pub struct IssueQueue {
    entries: Vec<InstId>,
    /// `pos[id] == i` ⇔ `entries[i] == id`; `ABSENT` when not a member.
    pos: Vec<u32>,
    /// Operand-ready members, every entry live (eagerly maintained).
    ready: Vec<ReadyEntry>,
    /// Near-future re-admissions (MSHR back-off, store-agen waits), filed
    /// by the cycle they rejoin `ready`.
    park: CompletionWheel<ReadyEntry>,
    capacity: usize,
}

impl IssueQueue {
    pub fn new(capacity: usize) -> Self {
        IssueQueue {
            entries: Vec::with_capacity(capacity),
            pos: Vec::new(),
            ready: Vec::new(),
            park: CompletionWheel::new(),
            capacity,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Insert. Returns `false` when full (dispatch stalls).
    pub fn push(&mut self, id: InstId) -> bool {
        if !self.has_space() {
            return false;
        }
        let i = id.0 as usize;
        if i >= self.pos.len() {
            self.pos.resize(i + 1, ABSENT);
        }
        debug_assert_eq!(self.pos[i], ABSENT, "double insert");
        self.pos[i] = self.entries.len() as u32;
        self.entries.push(id);
        true
    }

    /// Remove a specific instruction (after issue / store commit). O(1).
    pub fn remove(&mut self, id: InstId) -> bool {
        let Some(&p) = self.pos.get(id.0 as usize) else { return false };
        if p == ABSENT {
            return false;
        }
        self.entries.swap_remove(p as usize);
        self.pos[id.0 as usize] = ABSENT;
        if let Some(&moved) = self.entries.get(p as usize) {
            self.pos[moved.0 as usize] = p;
        }
        true
    }

    /// Membership iteration (no meaningful order).
    pub fn iter(&self) -> impl Iterator<Item = InstId> + '_ {
        self.entries.iter().copied()
    }

    /// Is `id` currently in this queue?
    pub fn contains(&self, id: InstId) -> bool {
        self.pos.get(id.0 as usize).is_some_and(|&p| p != ABSENT)
    }

    /// Keep only entries satisfying `f` (squash support). This does NOT
    /// touch the ready set or the park: callers removing members
    /// must also evict their ready/parked entries (the scheduler does so
    /// eagerly — see `squash_younger`), since every ready entry is
    /// required to be live.
    pub fn retain(&mut self, mut f: impl FnMut(&InstId) -> bool) {
        let mut w = 0;
        for r in 0..self.entries.len() {
            let id = self.entries[r];
            if f(&id) {
                self.entries[w] = id;
                self.pos[id.0 as usize] = w as u32;
                w += 1;
            } else {
                self.pos[id.0 as usize] = ABSENT;
            }
        }
        self.entries.truncate(w);
    }

    /// Record that a member's operands are all available. Callers mark
    /// each instruction at most once (at dispatch when nothing is
    /// outstanding, or when its last wakeup fires), so the set holds no
    /// duplicates.
    #[inline]
    pub fn mark_ready(&mut self, e: ReadyEntry) {
        debug_assert!(self.contains(e.id));
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

    /// Park an entry until cycle `at` (MSHR back-off, or a blocking
    /// store's pending address generation), at most 8 cycles after the
    /// current cycle `now`: always inside the wheel's near ring, so a
    /// processor warp never has a parked entry to migrate.
    /// [`IssueQueue::unpark_due`] must run every cycle.
    pub fn park_at(&mut self, at: u64, e: ReadyEntry, now: u64) {
        debug_assert!(at <= now + 8, "park waits are a few cycles");
        self.park.schedule(at, e, now);
    }

    /// Move every parked entry due exactly at `now` back onto the ready
    /// set, in park order, returning how many moved. O(due).
    pub fn unpark_due(&mut self, now: u64) -> usize {
        if self.park.is_empty() {
            return 0;
        }
        let before = self.ready.len();
        self.park.drain_due(now, &mut self.ready);
        self.ready.len() - before
    }

    /// Earliest cycle (`>= now`) any parked entry comes due, or
    /// `u64::MAX` when the park is empty — the queue's next-activity
    /// report into the processor's `Timeline`.
    #[inline]
    pub fn park_next_due(&self, now: u64) -> u64 {
        self.park.next_due(now)
    }

    /// Drop parked entries rejected by `keep` (squash support).
    pub fn purge_parked(&mut self, keep: impl FnMut(&ReadyEntry) -> bool) {
        self.park.retain(keep);
    }

    /// Parked entries (debug/invariant support).
    pub fn parked_entries(&self) -> impl Iterator<Item = &ReadyEntry> {
        self.park.iter().map(|e| &e.c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_enforced() {
        let mut q = IssueQueue::new(2);
        assert!(q.push(InstId(1)));
        assert!(q.push(InstId(2)));
        assert!(!q.push(InstId(3)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn iteration_covers_members() {
        let mut q = IssueQueue::new(4);
        for i in [5, 1, 9] {
            q.push(InstId(i));
        }
        let mut members: Vec<u32> = q.iter().map(|i| i.0).collect();
        members.sort_unstable();
        assert_eq!(members, [1, 5, 9]);
        assert!(q.contains(InstId(5)));
        assert!(!q.contains(InstId(2)));
    }

    #[test]
    fn remove_is_constant_time_membership_update() {
        let mut q = IssueQueue::new(4);
        for i in 0..4 {
            q.push(InstId(i));
        }
        assert!(q.remove(InstId(1)));
        assert!(!q.remove(InstId(1)), "already gone");
        assert!(!q.remove(InstId(99)));
        let mut members: Vec<u32> = q.iter().map(|i| i.0).collect();
        members.sort_unstable();
        assert_eq!(members, [0, 2, 3]);
        assert!(!q.contains(InstId(1)));
        assert!(q.has_space());
        // The vacated slot is reusable and consistent.
        assert!(q.push(InstId(7)));
        assert!(q.contains(InstId(7)));
        assert!(q.remove(InstId(0)) && q.remove(InstId(2)) && q.remove(InstId(3)));
        let members: Vec<u32> = q.iter().map(|i| i.0).collect();
        assert_eq!(members, [7]);
    }

    fn re(id: u32, seq: u64) -> ReadyEntry {
        ReadyEntry { seq, addr: 0, id: InstId(id), thread: 0, op: Op::IntAlu }
    }

    #[test]
    fn ready_set_marks_and_removes() {
        let mut q = IssueQueue::new(8);
        for i in 0..4 {
            q.push(InstId(i));
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
        for i in 0..3 {
            q.push(InstId(i));
        }
        q.mark_ready(re(0, 10));
        q.park_at(7, re(1, 20), 0);
        assert_eq!(q.ready_entries().len(), 1, "parked entries are not ready yet");
        q.unpark_due(6);
        assert_eq!(q.ready_entries().len(), 1, "not due yet");
        q.unpark_due(7);
        let mut seqs: Vec<u64> = q.ready_entries().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, [10, 20]);
    }

    #[test]
    fn park_next_due_tracks_the_earliest_parked_entry() {
        let mut q = IssueQueue::new(8);
        for i in 0..3 {
            q.push(InstId(i));
        }
        assert_eq!(q.park_next_due(1), u64::MAX, "empty park reports no activity");
        q.park_at(9, re(0, 10), 1);
        q.park_at(4, re(1, 20), 1);
        assert_eq!(q.park_next_due(1), 4);
        for now in 1..=4 {
            q.unpark_due(now);
        }
        assert_eq!(q.park_next_due(5), 9);
        for now in 5..=9 {
            q.unpark_due(now);
        }
        assert_eq!(q.park_next_due(10), u64::MAX);
        assert!(!q.ready_entries().is_empty());
    }

    #[test]
    fn retain_squashes() {
        let mut q = IssueQueue::new(8);
        for i in 0..6 {
            q.push(InstId(i));
        }
        q.retain(|id| id.0 % 2 == 0);
        let order: Vec<u32> = q.iter().map(|i| i.0).collect();
        assert_eq!(order, [0, 2, 4]);
        assert!(q.contains(InstId(4)));
        assert!(!q.contains(InstId(3)));
        assert!(q.remove(InstId(4)), "position index survives a retain");
    }
}
