//! The [`Timeline`]: aggregated next-activity horizon of every
//! time-bearing subsystem, powering the quiescence-skipping cycle engine.
//!
//! # Contract
//!
//! When a cycle provably does nothing — no stage moved, issued, completed,
//! fetched or committed anything (see `Processor::step`'s activity flag) —
//! the only thing that can change the machine's behaviour is the *passage
//! of time* reaching a pre-scheduled event. Each subsystem that schedules
//! such events reports the earliest cycle at which it could act into a
//! `Timeline`:
//!
//! * every **wheel**, through `CompletionWheel::next_due`: the completion
//!   wheel and the FLUSH wheel (the earliest filed completion/trigger,
//!   stale entries included — conservative, never wrong);
//! * each pipeline's **waiting loads**, through `ReadyList::next_retry`:
//!   the earliest cycle a load that bounced off the full MSHR file
//!   retries, or a load waiting for an older store's address generation
//!   orders itself again (after a quiescent step every ready entry is
//!   such a load);
//! * the **front end**: each live thread's fetch-stall release cycle
//!   (`stalled_until` — I-cache misses, redirect bubbles). A thread that
//!   is done contributes nothing; a FLUSH-gated thread's release rides
//!   its gating load's completion-wheel entry; a thread that could fetch
//!   *right now* would have made the cycle active, so quiescence implies
//!   every thread is accounted for by one of these.
//!
//! The MSHR files deliberately do *not* report: a fill completion on its
//! own wakes no stage — it only frees capacity that a later access (a
//! backed-off MSHR-stall retry, a stall-released fetch) exploits, and
//! those accesses are all driven by the reporters above. Reporting the
//! earliest outstanding fill was tried: it is safe but measurably
//! counter-productive, landing warps one or two cycles short of the
//! completion that actually wakes the machine.
//!
//! After a full *retry period* (two steps whose only work was MSHR-full
//! bounces, see `hdsmt_core::proc`) the list changes: the MSHR back-offs
//! are the period itself and do not report (the ordering waits still
//! do), and the D-MSHR file's earliest fill does, as the first cycle a
//! retry could find room.
//!
//! The fold keeps the minimum (and its source label, for diagnostics).
//! The processor's one cycle loop (behind `Processor::run` and
//! `run_dynamic`) then warps the cycle counter directly to
//! `min(next_event, stop cycle)` — `max_cycles`, or the next re-mapping
//! decision — instead of idling through the dead range. Statistics stay bit-identical because a quiescent cycle
//! mutates nothing except the per-cycle rotation counters (`fetch_rr`,
//! `commit_rr`), which the warp advances by exactly the skipped distance.

/// Fold of next-activity reports; see the module docs for the contract.
#[derive(Clone, Copy, Debug)]
pub struct Timeline {
    next: u64,
    source: &'static str,
}

impl Timeline {
    /// An empty timeline: no subsystem has reported any future activity.
    pub fn new() -> Self {
        Timeline { next: u64::MAX, source: "none" }
    }

    /// Report that `source` can next act at `cycle` (`u64::MAX` = never;
    /// reports at or before the current cycle are the caller's bug —
    /// quiescence already proved nothing can act now).
    #[inline]
    pub fn observe(&mut self, source: &'static str, cycle: u64) {
        if cycle < self.next {
            self.next = cycle;
            self.source = source;
        }
    }

    /// The earliest reported activity cycle, or `None` when nothing is
    /// scheduled (a machine idle forever).
    #[inline]
    pub fn next_event(&self) -> Option<u64> {
        (self.next != u64::MAX).then_some(self.next)
    }

    /// Which subsystem owns the earliest report (diagnostics).
    #[inline]
    pub fn source(&self) -> &'static str {
        self.source
    }
}

impl Default for Timeline {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_minimum_and_its_source() {
        let mut t = Timeline::new();
        assert_eq!(t.next_event(), None);
        assert_eq!(t.source(), "none");
        t.observe("wheel", 120);
        t.observe("retry", 40);
        t.observe("stall", 300);
        t.observe("mshr", u64::MAX); // "never" reports are ignored
        assert_eq!(t.next_event(), Some(40));
        assert_eq!(t.source(), "retry");
        // Ties keep the first reporter (deterministic either way: the
        // warp target is the cycle, not the label).
        t.observe("wheel2", 40);
        assert_eq!(t.source(), "retry");
    }
}
