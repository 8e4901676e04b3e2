//! Miss-status holding registers: outstanding-miss tracking with
//! coalescing and structural back-pressure.
//!
//! A full file bounces every new miss, and a bounced load retries until
//! an entry frees. While no fill is due ([`MshrFile::next_fill`]) a full
//! file cannot change, so a run of such retries can be charged in one
//! batch ([`MshrFile::replay_stalls`]) when the processor fast-forwards
//! over it.

/// One MSHR file (per cache level).
pub struct MshrFile {
    /// (line address, fill-completion cycle) for each outstanding miss.
    entries: Vec<(u64, u64)>,
    capacity: usize,
    /// Earliest outstanding fill completion (`u64::MAX` when empty): the
    /// per-access expiry sweep — which runs on *every* load and ifetch —
    /// is skipped entirely while nothing can have completed yet.
    next_expiry: u64,
    /// Coalesced (secondary) misses observed.
    coalesced: u64,
    /// Allocation failures due to a full file.
    full_stalls: u64,
}

impl MshrFile {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        MshrFile {
            entries: Vec::with_capacity(capacity),
            capacity,
            next_expiry: u64::MAX,
            coalesced: 0,
            full_stalls: 0,
        }
    }

    /// Drop entries whose fills have completed by `now`.
    fn expire(&mut self, now: u64) {
        if self.next_expiry > now {
            return; // nothing outstanding can have completed
        }
        self.entries.retain(|&(_, ready)| ready > now);
        self.next_expiry = self.entries.iter().map(|&(_, ready)| ready).min().unwrap_or(u64::MAX);
    }

    /// Is a miss for `line` already outstanding at `now`? Returns its
    /// completion cycle (coalescing).
    pub fn lookup(&mut self, line: u64, now: u64) -> Option<u64> {
        self.expire(now);
        let hit = self.entries.iter().find(|&&(l, _)| l == line).map(|&(_, r)| r);
        if hit.is_some() {
            self.coalesced += 1;
        }
        hit
    }

    /// Try to allocate an entry for a new miss on `line` completing at
    /// `ready`. Returns `false` (and records a stall) when the file is full
    /// — the caller must replay the access later.
    pub fn allocate(&mut self, line: u64, ready: u64, now: u64) -> bool {
        self.expire(now);
        if self.entries.len() >= self.capacity {
            self.full_stalls += 1;
            return false;
        }
        self.entries.push((line, ready));
        self.next_expiry = self.next_expiry.min(ready);
        true
    }

    /// Earliest outstanding fill completion, `u64::MAX` when empty. An
    /// access at or after this cycle may find the file changed.
    #[inline]
    pub fn next_fill(&self) -> u64 {
        self.next_expiry
    }

    /// Is every entry taken?
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Charge `n` more failed allocations at once: what `n` retries
    /// against this unchanged, full file would have recorded.
    pub fn replay_stalls(&mut self, n: u64) {
        debug_assert!(n == 0 || self.is_full(), "only a full file bounces");
        self.full_stalls += n;
    }

    /// (coalesced hits, full-file stalls).
    pub fn stats(&self) -> (u64, u64) {
        (self.coalesced, self.full_stalls)
    }

    /// The outstanding misses `(line, fill cycle)`, in allocation order.
    pub fn entries(&self) -> &[(u64, u64)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesces_same_line() {
        let mut m = MshrFile::new(4);
        assert!(m.allocate(10, 100, 0));
        assert_eq!(m.lookup(10, 5), Some(100));
        assert_eq!(m.lookup(11, 5), None);
        assert_eq!(m.stats().0, 1);
    }

    #[test]
    fn entries_expire_at_completion() {
        let mut m = MshrFile::new(2);
        assert!(m.allocate(10, 100, 0));
        assert_eq!(m.lookup(10, 99), Some(100));
        assert_eq!(m.lookup(10, 100), None, "fill completed at cycle 100");
        // The completed entry no longer holds a slot: both are free again.
        assert!(m.allocate(11, 200, 100));
        assert!(m.allocate(12, 200, 100));
    }

    #[test]
    fn full_file_applies_back_pressure() {
        let mut m = MshrFile::new(2);
        assert!(m.allocate(1, 50, 0));
        assert!(m.allocate(2, 50, 0));
        assert!(!m.allocate(3, 50, 0), "third concurrent miss must stall");
        assert_eq!(m.stats().1, 1);
        // After the fills complete, capacity frees up.
        assert!(m.allocate(3, 120, 60));
    }
}
