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
//! [`ReadyList`], fed by dispatch, register-file wakeups and the issue
//! of a store that loads were waiting for. The list is kept in ascending
//! `(seq, thread)` age-key order at insertion (a binary search and a
//! short shift), so the issue stage walks it once, oldest first, and
//! decides each entry in place ([`ReadyList::retain_mut`]): no candidate
//! vector, no per-cycle sort, no search by id. (Sorting a gathered copy
//! every cycle instead was measured slower: most entries wait several
//! cycles, so they are ordered once rather than once per cycle.) Every
//! entry is live — the scheduler drops an entry the moment its
//! instruction issues or is squashed — and each [`ReadyEntry`] is
//! self-contained (sequence, thread, opcode, address): selection touches
//! no instruction-pool memory at all, which is what lets the scheduler's
//! per-cycle paths run on the hot half of the instruction pool alone
//! (see `inst`).
//!
//! Only loads ever wait a known number of cycles with their operands
//! ready, and they wait where they stand: the entry records the first
//! cycle it may issue (`retry_at`), and issue passes over it until then.
//! A wait costs no removal or re-insertion, and
//! [`ReadyList::next_retry`] is what the processor's `Timeline` reads
//! for the earliest one to end. There are two kinds. A load that
//! bounced off a full MSHR file is **backed off** and marked `clear`: it
//! was clear of every older store, stays so, and retries without the
//! load-ordering walk. A load waiting for an older store's address
//! generation has an **ordering wait**, due at that store's agen
//! completion, and runs the load-ordering walk again when it comes due.

use hdsmt_isa::Op;

use crate::inst::InstId;

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
    /// First cycle a waiting load may issue: the retry of a back-off,
    /// or the end of an ordering wait; 0 when it does not wait.
    pub retry_at: u64,
    pub id: InstId,
    /// Thread index (the deterministic cross-thread age tie-break).
    pub thread: u8,
    pub op: Op,
    /// A load that bounced off a full MSHR file: clear of every older
    /// store, so its retries skip the load-ordering walk. Unset on an
    /// ordering wait.
    pub clear: bool,
}

impl ReadyEntry {
    /// The entry of an instruction whose operands just became ready.
    #[inline]
    pub fn new(seq: u64, addr: u64, id: InstId, thread: u8, op: Op) -> Self {
        ReadyEntry { seq, addr, retry_at: 0, id, thread, op, clear: false }
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
    /// leave the ready list if it was there: every ready entry is
    /// required to be live.
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
    /// or when the store it waited for issues), so the list holds no
    /// duplicates.
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

    /// Earliest cycle an entry can issue: the end of its wait, or 0 for
    /// an entry that does not wait (it could issue now); `u64::MAX` when
    /// none. Without `with_backoffs` the MSHR back-offs (`clear` entries)
    /// are left out. O(entries).
    pub fn next_retry(&self, with_backoffs: bool) -> u64 {
        let waits = self.entries.iter().filter(|e| with_backoffs || !e.clear);
        waits.map(|e| e.retry_at).min().unwrap_or(u64::MAX)
    }

    /// Push every MSHR back-off out by `by` cycles: what `by` cycles of
    /// retries that all bounce again would leave, `by` being a whole
    /// number of back-off periods. Ordering waits stay put, as their
    /// stores' agen cycles do. Every entry must wait.
    pub fn delay_retries(&mut self, by: u64) {
        for e in &mut self.entries {
            debug_assert!(e.retry_at != 0, "only waiting loads are delayed");
            if e.clear {
                e.retry_at += by;
            }
        }
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
        assert_eq!(l.next_retry(true), u64::MAX, "an empty list never issues");
        for id in 0..3 {
            l.insert(ReadyEntry::new(10 + id as u64, 0x40, InstId(id), 0, Op::Load));
        }
        assert_eq!(l.next_retry(true), 0, "a fresh entry can issue now");
        // The two oldest bounce off the full MSHR file and back off; the
        // youngest waits for an older store's address.
        let mut at = 12;
        l.retain_mut(|e| {
            e.retry_at = at;
            e.clear = e.seq < 12;
            at += 1;
            true
        });
        assert_eq!(keys(&l), [(10, 0), (11, 0), (12, 0)], "every wait keeps its place");
        assert_eq!(l.next_retry(true), 12);
        assert_eq!(l.next_retry(false), 14, "the ordering wait alone");
        l.delay_retries(4);
        let got: Vec<(u64, bool)> = l.entries().iter().map(|e| (e.retry_at, e.clear)).collect();
        assert_eq!(got, [(16, true), (17, true), (14, false)], "only the back-offs move");
        assert_eq!(l.next_retry(true), 14);
    }
}
