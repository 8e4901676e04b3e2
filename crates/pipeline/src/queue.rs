//! Issue queues (IQ / FQ / LQ) and each pipeline's ready list.
//!
//! A queue is a member count with a capacity bound — dispatch stalls when
//! it is full — and nothing more. Membership itself is not kept:
//! load/store ordering walks the per-thread store lists, and the
//! processor's ROBs already record which instructions wait in a queue,
//! so the invariant checks derive it from there. Capacities come from
//! the pipeline model (Fig 2(a)).
//!
//! The operand-ready members of a pipeline's three queues wait in one
//! [`ReadyList`], fed by dispatch, register-file wakeups and the LQ's
//! park. The list is kept in ascending `(seq, thread)` age-key order at
//! insertion (a binary search and a short shift), so the issue stage
//! walks it once, oldest first, and decides each entry in place
//! ([`ReadyList::retain_mut`]): no candidate vector, no per-cycle sort,
//! no search by id. (Sorting a gathered copy every cycle instead was
//! measured slower: most entries wait several cycles, so they are
//! ordered once rather than once per cycle.) Every entry is live — the
//! scheduler drops an entry the moment its instruction issues or is
//! squashed — and each [`ReadyEntry`] is self-contained (sequence,
//! thread, opcode, address): selection touches no instruction-pool
//! memory at all, which is what lets the scheduler's per-cycle paths run
//! on the hot half of the instruction pool alone (see `inst`).
//!
//! Only loads ever wait a known number of cycles with their operands
//! ready, in two ways. A load that bounced off a full MSHR file keeps
//! its place in the list with a **back-off**: its entry records the
//! first cycle it may retry (`retry_at`), and issue passes over it until
//! then. The bounce thus costs no removal or re-insertion, and
//! [`ReadyList::next_retry`] is what the processor's `Timeline` reads
//! for the earliest retry. A load waiting for an older store's address
//! goes to the LQ's park instead, which the processor keeps beside the
//! LQ: a [`CompletionWheel`] of ready entries that
//! [`ReadyList::unpark_due`] moves back into the list when they come
//! due.

use hdsmt_isa::Op;

use crate::inst::InstId;
use crate::wheel::CompletionWheel;

/// One operand-ready instruction, with the metadata issue selection
/// orders and filters on. Self-contained: age ordering, FU routing and
/// the load-ordering check all run without touching the instruction pool.
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

    /// Packed issue-age priority: sequence number in the high bits,
    /// thread index in the low bits. `seq` is per-thread, so the
    /// cross-thread tie-break must not depend on pool slot numbering
    /// (allocator history): the thread index gives a total, reproducible
    /// order, and no two entries share a key.
    #[inline]
    pub fn age(&self) -> u64 {
        debug_assert!(self.seq < 1 << 56);
        (self.seq << 8) | self.thread as u64
    }
}

/// One issue queue: a capacity-bounded member count.
pub struct IssueQueue {
    /// Members: dispatched and not yet issued, plus issued stores until
    /// they commit.
    len: usize,
    capacity: usize,
}

impl IssueQueue {
    pub fn new(capacity: usize) -> Self {
        IssueQueue { len: 0, capacity }
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
    /// leave the ready list (or the LQ park) if it was there: every ready
    /// entry is required to be live.
    pub fn remove(&mut self) {
        debug_assert!(self.len > 0, "removing from an empty queue");
        self.len -= 1;
    }
}

/// A pipeline's operand-ready queue members, oldest first: ascending
/// [`ReadyEntry::age`], at most one entry per instruction.
#[derive(Default)]
pub struct ReadyList {
    entries: Vec<ReadyEntry>,
}

impl ReadyList {
    /// The entries, oldest first.
    #[inline]
    pub fn entries(&self) -> &[ReadyEntry] {
        &self.entries
    }

    /// Record that an instruction's operands are all available, at its
    /// age position. Callers mark each instruction at most once (at
    /// dispatch when nothing is outstanding, when its last wakeup fires,
    /// or when it leaves the LQ park), so the list holds no duplicates.
    #[inline]
    pub fn insert(&mut self, e: ReadyEntry) {
        let pos = self.entries.partition_point(|x| x.age() < e.age());
        self.entries.insert(pos, e);
    }

    /// The issue walk: visit every entry once, oldest first, keeping
    /// those `decide` returns `true` for (it may edit them in place, as
    /// a back-off does) and dropping the rest, in order.
    #[inline]
    pub fn retain_mut(&mut self, decide: impl FnMut(&mut ReadyEntry) -> bool) {
        self.entries.retain_mut(decide);
    }

    /// Drop every entry of `thread` younger than `seq_min` (squash).
    pub fn remove_younger(&mut self, thread: u8, seq_min: u64) {
        self.entries.retain(|e| e.thread != thread || e.seq <= seq_min);
    }

    /// Earliest cycle an entry can issue: its back-off, or 0 for an
    /// entry that never bounced (it could issue now); `u64::MAX` when the
    /// list is empty. O(entries).
    pub fn next_retry(&self) -> u64 {
        self.entries.iter().map(|e| e.retry_at).min().unwrap_or(u64::MAX)
    }

    /// Push every back-off out by `by` cycles: what `by` cycles of
    /// retries that all bounce again would leave, `by` being a whole
    /// number of back-off periods. Every entry must be backed off.
    pub fn delay_retries(&mut self, by: u64) {
        for e in &mut self.entries {
            debug_assert!(e.retry_at != 0, "only backed-off loads are delayed");
            e.retry_at += by;
        }
    }

    /// Move every entry of `park` due exactly at `now` into the list at
    /// its age position, returning how many moved. O(due × entries).
    /// Must run every cycle the park is non-empty.
    pub fn unpark_due(&mut self, park: &mut CompletionWheel<ReadyEntry>, now: u64) -> usize {
        if park.is_empty() {
            return 0;
        }
        let before = self.entries.len();
        park.drain_due(now, &mut self.entries);
        // Insertion-sort the drained tail into the ordered prefix.
        for i in before..self.entries.len() {
            let age = self.entries[i].age();
            let pos = self.entries[..i].partition_point(|x| x.age() < age);
            self.entries[pos..=i].rotate_right(1);
        }
        self.entries.len() - before
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

    fn re(id: u32, seq: u64, thread: u8) -> ReadyEntry {
        ReadyEntry::new(seq, 0, InstId(id), thread, Op::IntAlu)
    }

    fn keys(l: &ReadyList) -> Vec<(u64, u8)> {
        l.entries().iter().map(|e| (e.seq, e.thread)).collect()
    }

    #[test]
    fn insert_keeps_age_order_with_the_thread_tie_break() {
        let mut l = ReadyList::default();
        for (id, (seq, t)) in
            [(20, 0), (10, 1), (30, 0), (10, 0), (25, 2), (5, 3)].into_iter().enumerate()
        {
            l.insert(re(id as u32, seq, t));
        }
        assert_eq!(keys(&l), [(5, 3), (10, 0), (10, 1), (20, 0), (25, 2), (30, 0)]);
        assert!(l.entries().windows(2).all(|w| w[0].age() < w[1].age()));
    }

    #[test]
    fn squash_removes_only_the_younger_entries_of_its_thread() {
        let mut l = ReadyList::default();
        for (id, (seq, t)) in [(10, 0), (11, 1), (12, 0), (13, 1), (14, 0)].into_iter().enumerate()
        {
            l.insert(re(id as u32, seq, t));
        }
        l.remove_younger(0, 11);
        assert_eq!(keys(&l), [(10, 0), (11, 1), (13, 1)]);
        l.remove_younger(1, 0);
        assert_eq!(keys(&l), [(10, 0)]);
    }

    #[test]
    fn the_walk_visits_oldest_first_and_keeps_order() {
        let mut l = ReadyList::default();
        for (id, seq) in [40, 10, 30, 20].into_iter().enumerate() {
            l.insert(re(id as u32, seq, 0));
        }
        let mut seen = Vec::new();
        l.retain_mut(|e| {
            seen.push(e.seq);
            if e.seq == 20 {
                e.retry_at = 7; // backed off in place
            }
            e.seq % 20 == 0 // 10 and 30 issue
        });
        assert_eq!(seen, [10, 20, 30, 40]);
        assert_eq!(keys(&l), [(20, 0), (40, 0)]);
        assert_eq!(l.entries()[0].retry_at, 7);
    }

    #[test]
    fn backed_off_loads_keep_their_place_and_report_their_retry() {
        let mut l = ReadyList::default();
        assert_eq!(l.next_retry(), u64::MAX, "an empty list never issues");
        for id in 0..2 {
            l.insert(ReadyEntry::new(10 + id as u64, 0x40, InstId(id), 0, Op::Load));
        }
        assert_eq!(l.next_retry(), 0, "a fresh entry can issue now");
        let mut at = 12;
        l.retain_mut(|e| {
            e.retry_at = at;
            at += 1;
            true
        });
        assert_eq!(l.next_retry(), 12);
        l.delay_retries(4);
        let got: Vec<u64> = l.entries().iter().map(|e| e.retry_at).collect();
        assert_eq!(got, [16, 17]);
        assert_eq!(l.next_retry(), 16);
    }

    #[test]
    fn parked_entries_rejoin_the_list_in_age_order_when_due() {
        let mut l = ReadyList::default();
        let mut park = CompletionWheel::new();
        l.insert(re(0, 10, 0));
        l.insert(re(1, 40, 0));
        park.schedule(7, re(2, 50, 1), 0);
        park.schedule(7, re(3, 20, 1), 0);
        park.schedule(7, re(4, 5, 2), 0);
        park.schedule(9, re(5, 30, 0), 0);
        assert_eq!(l.unpark_due(&mut park, 6), 0, "not due yet");
        assert_eq!(l.unpark_due(&mut park, 7), 3);
        assert_eq!(keys(&l), [(5, 2), (10, 0), (20, 1), (40, 0), (50, 1)]);
        assert_eq!(park.next_due(8), 9);
        assert_eq!(l.unpark_due(&mut park, 8), 0);
        assert_eq!(l.unpark_due(&mut park, 9), 1);
        assert_eq!(keys(&l), [(5, 2), (10, 0), (20, 1), (30, 0), (40, 0), (50, 1)]);
        assert_eq!(park.next_due(10), u64::MAX);
    }

    #[test]
    fn park_next_due_tracks_the_earliest_parked_entry() {
        let mut l = ReadyList::default();
        let mut park = CompletionWheel::new();
        assert_eq!(park.next_due(1), u64::MAX, "empty park reports no activity");
        park.schedule(9, re(0, 10, 0), 1);
        park.schedule(4, re(1, 20, 0), 1);
        assert_eq!(park.next_due(1), 4);
        for now in 1..=4 {
            l.unpark_due(&mut park, now);
        }
        assert_eq!(park.next_due(5), 9);
        for now in 5..=9 {
            l.unpark_due(&mut park, now);
        }
        assert_eq!(park.next_due(10), u64::MAX);
        assert_eq!(keys(&l), [(10, 0), (20, 0)]);
    }
}
