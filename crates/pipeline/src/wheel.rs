//! The completion wheel: time-indexed buckets of scheduled events.
//!
//! Writeback used to scan a linear execution list every cycle, touching
//! every in-flight instruction to find the few whose `ready_cycle` is
//! *now*. The wheel replaces that with a classic timing wheel: an
//! instruction is filed under `ready_cycle % capacity` at issue, and
//! writeback drains exactly the bucket for the current cycle — O(due)
//! instead of O(in-flight).
//!
//! The wheel is two-tier: a small near ring (cache-resident — the vast
//! majority of completions are ALU/FP/L1/L2 latencies within a few dozen
//! cycles) and an unbounded far list for memory misses, swept into the
//! ring once per lap.
//!
//! The payload defaults to a [`Completion`]: just `(id, generation)`, as
//! everything writeback needs beyond the identity (state, destination
//! register, opcode classification) sits in the instruction's *hot* pool
//! record, so the drain runs without opening a single cold record.
//! Squashed instructions are *not* removed from their bucket; the
//! processor releases their pool slot (bumping the generation) and the
//! stale entry is discarded when its bucket comes up. The LQ's park is a
//! wheel of `ReadyEntry` payloads instead, purged eagerly on squash with
//! [`CompletionWheel::retain`].

use crate::inst::InstId;

/// Near-ring size: covers every non-memory-miss completion latency.
const NEAR_SLOTS: usize = 64;

/// One scheduled completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    pub id: InstId,
    /// Pool generation at scheduling time; mismatch marks a stale entry.
    pub gen: u32,
}

/// One wheel slot: a payload plus its absolute due cycle.
#[derive(Clone, Copy, Debug)]
pub struct WheelEntry<T = Completion> {
    /// Absolute cycle the entry comes due.
    pub at: u64,
    pub c: T,
}

/// Time-indexed buckets (near ring + far overflow) of `T` payloads.
pub struct CompletionWheel<T = Completion> {
    /// One lap of buckets; an entry due within `NEAR_SLOTS` cycles lives
    /// in bucket `at % NEAR_SLOTS`.
    near: Vec<Vec<WheelEntry<T>>>,
    /// Bit `b` set ⇔ `near[b]` is non-empty. Because a bucket only ever
    /// holds entries of one due cycle at a time (it is drained at that
    /// cycle before the index can recur), the mask plus the current cycle
    /// determine the earliest near completion in O(1) — which is what
    /// keeps [`Self::next_due`] cheap enough to consult on every
    /// quiescence check.
    occupied: u64,
    /// Completions beyond the ring horizon (memory misses), migrated into
    /// the ring at lap boundaries.
    far: Vec<WheelEntry<T>>,
    /// Exact earliest `at` on the far list (`u64::MAX` when empty);
    /// maintained on push and recomputed during the migration pass that
    /// removes entries.
    far_min: u64,
    /// Entries filed and not yet drained (stale entries included).
    scheduled: usize,
}

impl<T: Copy> Default for CompletionWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> CompletionWheel<T> {
    /// A wheel. The two-tier design handles any completion distance: the
    /// near ring covers one lap, the far list everything beyond it.
    pub fn new() -> Self {
        CompletionWheel {
            near: (0..NEAR_SLOTS).map(|_| Vec::new()).collect(),
            occupied: 0,
            far: Vec::new(),
            far_min: u64::MAX,
            scheduled: 0,
        }
    }

    #[inline]
    fn index(at: u64) -> usize {
        (at as usize) & (NEAR_SLOTS - 1)
    }

    /// File `c` for cycle `at` (strictly in the future of `now`).
    pub fn schedule(&mut self, at: u64, c: T, now: u64) {
        debug_assert!(at > now, "completions are always at least one cycle out");
        let e = WheelEntry { at, c };
        if ((at - now) as usize) < NEAR_SLOTS {
            self.near[Self::index(at)].push(e);
            self.occupied |= 1 << Self::index(at);
        } else {
            self.far.push(e);
            self.far_min = self.far_min.min(at);
        }
        self.scheduled += 1;
    }

    /// Remove and append to `out` every entry due exactly at `now`.
    /// Must be called every cycle (buckets hold one lap only).
    pub fn drain_due(&mut self, now: u64, out: &mut Vec<T>) {
        // Lap boundary: pull the next lap's far entries into the ring.
        if (now as usize) & (NEAR_SLOTS - 1) == 0 && !self.far.is_empty() {
            self.migrate_far(now);
        }
        let bucket = &mut self.near[Self::index(now)];
        debug_assert!(bucket.iter().all(|e| e.at == now), "bucket holds another lap's entry");
        self.scheduled -= bucket.len();
        self.occupied &= !(1 << Self::index(now));
        out.extend(bucket.drain(..).map(|e| e.c));
    }

    /// Move far entries due within one lap of `from` into the near ring,
    /// recomputing the far minimum over what stays.
    fn migrate_far(&mut self, from: u64) {
        let near = &mut self.near;
        let occupied = &mut self.occupied;
        let mut far_min = u64::MAX;
        self.far.retain(|&e| {
            if ((e.at - from) as usize) < NEAR_SLOTS {
                near[Self::index(e.at)].push(e);
                *occupied |= 1 << Self::index(e.at);
                false
            } else {
                far_min = far_min.min(e.at);
                true
            }
        });
        self.far_min = far_min;
    }

    /// Earliest cycle (`>= now`, the cycle about to be stepped) any filed
    /// entry — stale ones included — comes due, or `u64::MAX` when the
    /// wheel is empty: the wheel's next-activity report into the
    /// processor's `Timeline`. O(1): one rotation of the near-ring
    /// occupancy mask plus the maintained far minimum, so the quiescence
    /// engine can consult it on every quiescent cycle without touching
    /// the population.
    ///
    /// Stale (squashed) entries are deliberately included: they make the
    /// report *conservative* (the warp lands on a cycle whose drain
    /// discards them and does nothing, and the next quiescence check warps
    /// onward), never wrong.
    pub fn next_due(&self, now: u64) -> u64 {
        let mut best = self.far_min;
        if self.occupied != 0 {
            // Every near entry is due within [now, now + NEAR_SLOTS): one
            // rotation of the occupancy mask finds the earliest occupied
            // bucket's unique due cycle.
            let rot = self.occupied.rotate_right((now as u32) & (NEAR_SLOTS as u32 - 1));
            best = best.min(now + rot.trailing_zeros() as u64);
        }
        debug_assert_eq!(
            best,
            self.iter().map(|e| e.at).min().unwrap_or(u64::MAX),
            "incremental next-due out of step with the population"
        );
        best
    }

    /// Jump the wheel's notion of time from wherever it was to `to`
    /// without draining the skipped cycles. Callers must guarantee no
    /// entry is due *before* `to` (the processor warps to the minimum
    /// next-activity cycle, so none is); the only bookkeeping the skipped
    /// cycles would have done is the lap-boundary migration of far
    /// entries into the near ring, which this performs explicitly.
    pub fn warp_to(&mut self, to: u64) {
        debug_assert!(self.iter().all(|e| e.at >= to), "warp must not jump over a completion");
        if !self.far.is_empty() {
            self.migrate_far(to);
        }
    }

    /// Drop every filed entry whose payload `keep` rejects, keeping the
    /// order of the rest (eager squash purge). Visits only the
    /// occupied buckets.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut occupied = self.occupied;
        while occupied != 0 {
            let b = occupied.trailing_zeros() as usize;
            occupied &= occupied - 1;
            let bucket = &mut self.near[b];
            let before = bucket.len();
            bucket.retain(|e| keep(&e.c));
            self.scheduled -= before - bucket.len();
            if bucket.is_empty() {
                self.occupied &= !(1 << b);
            }
        }
        if !self.far.is_empty() {
            let before = self.far.len();
            self.far.retain(|e| keep(&e.c));
            self.scheduled -= before - self.far.len();
            self.far_min = self.far.iter().map(|e| e.at).min().unwrap_or(u64::MAX);
        }
    }

    /// Entries currently filed (stale ones included).
    #[inline]
    pub fn len(&self) -> usize {
        self.scheduled
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.scheduled == 0
    }

    /// Every filed entry, for invariant checking.
    pub fn iter(&self) -> impl Iterator<Item = &WheelEntry<T>> {
        self.near.iter().flatten().chain(self.far.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(id: u32, gen: u32) -> Completion {
        Completion { id: InstId(id), gen }
    }

    #[test]
    fn drains_exactly_the_due_cycle() {
        let mut w = CompletionWheel::new();
        w.schedule(3, c(1, 0), 0);
        w.schedule(5, c(2, 0), 0);
        w.schedule(3, c(3, 0), 0);
        assert_eq!(w.len(), 3);
        let mut out = Vec::new();
        for cycle in 1..=5 {
            out.clear();
            w.drain_due(cycle, &mut out);
            match cycle {
                3 => assert_eq!(out, vec![c(1, 0), c(3, 0)]),
                5 => assert_eq!(out, vec![c(2, 0)]),
                _ => assert!(out.is_empty(), "cycle {cycle}"),
            }
        }
        assert!(w.is_empty());
    }

    #[test]
    fn far_completions_survive_the_ring_horizon() {
        let mut w = CompletionWheel::new();
        w.schedule(2, c(1, 0), 0);
        // 1000 cycles out: far beyond the near ring — rides the far list.
        w.schedule(1000, c(2, 7), 0);
        let mut out = Vec::new();
        w.drain_due(2, &mut out);
        assert_eq!(out, vec![c(1, 0)]);
        out.clear();
        for cycle in 3..1000 {
            w.drain_due(cycle, &mut out);
            assert!(out.is_empty(), "cycle {cycle}");
        }
        w.drain_due(1000, &mut out);
        assert_eq!(out, vec![c(2, 7)]);
        assert!(w.is_empty());
    }

    #[test]
    fn next_due_reports_the_earliest_entry_across_both_tiers() {
        let mut w = CompletionWheel::new();
        assert_eq!(w.next_due(1), u64::MAX, "empty wheel has no activity");
        w.schedule(500, c(1, 0), 0); // far
        assert_eq!(w.next_due(1), 500);
        w.schedule(7, c(2, 0), 0); // near
        assert_eq!(w.next_due(1), 7);
        let mut out = Vec::new();
        for cycle in 1..=7 {
            assert_eq!(w.next_due(cycle), 7, "query cycle {cycle}");
            w.drain_due(cycle, &mut out);
        }
        assert_eq!(out, vec![c(2, 0)]);
        assert_eq!(w.next_due(8), 500, "drained entries stop reporting");
        // After migration at a lap boundary the near mask takes over.
        for cycle in 8..=500 {
            w.drain_due(cycle, &mut out);
        }
        assert_eq!(out, vec![c(2, 0), c(1, 0)]);
        assert_eq!(w.next_due(501), u64::MAX);
    }

    #[test]
    fn warp_skips_lap_boundaries_without_stranding_far_entries() {
        // A far entry due at 100; warping from cycle 10 to 100 skips the
        // lap boundary at 64 where drain_due would have migrated it into
        // the near ring. warp_to must perform that migration itself.
        let mut w = CompletionWheel::new();
        w.schedule(100, c(3, 1), 10);
        w.warp_to(100);
        let mut out = Vec::new();
        w.drain_due(100, &mut out);
        assert_eq!(out, vec![c(3, 1)]);
        assert!(w.is_empty());

        // An entry still beyond the ring horizon after the warp stays far
        // and is migrated by the next ordinary lap boundary.
        let mut w = CompletionWheel::new();
        w.schedule(400, c(4, 0), 10);
        w.warp_to(200);
        out.clear();
        for cycle in 200..400 {
            w.drain_due(cycle, &mut out);
            assert!(out.is_empty(), "cycle {cycle}");
        }
        w.drain_due(400, &mut out);
        assert_eq!(out, vec![c(4, 0)]);
    }

    #[test]
    fn warp_to_an_entrys_own_cycle_is_exact() {
        let mut w = CompletionWheel::new();
        w.schedule(1000, c(5, 2), 0);
        w.warp_to(1000);
        assert_eq!(w.next_due(1000), 1000);
        let mut out = Vec::new();
        w.drain_due(1000, &mut out);
        assert_eq!(out, vec![c(5, 2)]);
    }

    #[test]
    fn retain_purges_both_tiers() {
        let mut w = CompletionWheel::new();
        w.schedule(5, c(1, 0), 0);
        w.schedule(5, c(2, 0), 0);
        w.schedule(5, c(3, 0), 0);
        w.schedule(9, c(4, 0), 0);
        w.schedule(300, c(6, 0), 0); // far
        w.schedule(700, c(5, 0), 0); // far
        w.retain(|e| e.id.0 % 2 == 1);
        assert_eq!(w.len(), 3);
        assert_eq!(w.next_due(1), 5);
        w.retain(|e| e.id.0 != 1);
        let mut out = Vec::new();
        w.drain_due(5, &mut out);
        assert_eq!(out, vec![c(3, 0)], "the emptied bucket 9 no longer reports");
        assert_eq!(w.next_due(6), 700, "the far minimum follows the purge");
        w.warp_to(700);
        out.clear();
        w.drain_due(700, &mut out);
        assert_eq!(out, vec![c(5, 0)]);
        assert!(w.is_empty());
    }

    #[test]
    fn stale_entries_survive_until_their_cycle() {
        // The wheel itself never validates generations — it reports what
        // was filed; the drainer filters. This pins that contract.
        let mut w = CompletionWheel::new();
        w.schedule(4, c(9, 3), 1);
        assert_eq!(w.iter().count(), 1);
        let mut out = Vec::new();
        w.drain_due(4, &mut out);
        assert_eq!(out, vec![c(9, 3)]);
    }
}
