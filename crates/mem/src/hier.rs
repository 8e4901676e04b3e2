//! The assembled memory hierarchy shared by every pipeline.

use crate::cache::Cache;
use crate::config::MemConfig;
use crate::mshr::MshrFile;
use crate::tlb::Tlb;

/// Deepest level an access had to travel to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HitLevel {
    L1,
    L2,
    Mem,
}

/// Access class (statistics bucketing).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    Load,
    Store,
    IFetch,
}

/// Outcome of one hierarchy access.
#[derive(Clone, Copy, Debug)]
pub struct AccessResult {
    /// Cycles until the data/line is usable (includes L1 access time).
    pub latency: u32,
    pub level: HitLevel,
    pub tlb_miss: bool,
    /// Structural stall: the MSHR file is full, the access must be
    /// replayed. `latency` is the suggested retry delay.
    pub mshr_stall: bool,
}

/// Aggregate statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MemHierStats {
    pub loads: u64,
    pub load_l1_misses: u64,
    pub load_l2_misses: u64,
    pub stores: u64,
    pub store_l1_misses: u64,
    pub ifetches: u64,
    pub ifetch_l1_misses: u64,
    pub dtlb_misses: u64,
    pub itlb_misses: u64,
}

impl MemHierStats {
    /// Data-cache misses per 1000 data accesses — the profile statistic the
    /// paper's mapping heuristic sorts threads by.
    pub fn dl1_mpka(&self) -> f64 {
        let acc = self.loads + self.stores;
        if acc == 0 {
            0.0
        } else {
            (self.load_l1_misses + self.store_l1_misses) as f64 * 1000.0 / acc as f64
        }
    }
}

/// L1I + L1D + unified L2 + TLBs + MSHRs, with Table 1 timing.
pub struct MemHier {
    cfg: MemConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    d_mshrs: MshrFile,
    i_mshrs: MshrFile,
    stats: MemHierStats,
}

impl MemHier {
    pub fn new(cfg: MemConfig) -> Self {
        cfg.validate().expect("invalid memory configuration");
        MemHier {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            itlb: Tlb::new(cfg.itlb_entries, cfg.page_bytes),
            dtlb: Tlb::new(cfg.dtlb_entries, cfg.page_bytes),
            d_mshrs: MshrFile::new(cfg.mshrs),
            i_mshrs: MshrFile::new(cfg.mshrs),
            stats: MemHierStats::default(),
            cfg,
        }
    }

    #[inline]
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Data load at cycle `now`. Fill-on-access with MSHR-coalesced timing.
    pub fn load(&mut self, addr: u64, now: u64) -> AccessResult {
        self.stats.loads += 1;
        let tlb_miss = !self.dtlb.access(addr);
        if tlb_miss {
            self.stats.dtlb_misses += 1;
        }
        let tlb_extra = if tlb_miss { self.cfg.tlb_miss_penalty } else { 0 };

        // A miss already in flight for this line: data arrives with the
        // original fill.
        let line = self.l1d.line_addr(addr);
        if let Some(ready) = self.d_mshrs.lookup(line, now) {
            self.stats.load_l1_misses += 1;
            let lat = (ready.saturating_sub(now) as u32).max(self.cfg.l1_lat) + tlb_extra;
            return AccessResult { latency: lat, level: HitLevel::L2, tlb_miss, mshr_stall: false };
        }

        if self.l1d.access(addr) {
            return AccessResult {
                latency: self.cfg.l1_lat + tlb_extra,
                level: HitLevel::L1,
                tlb_miss,
                mshr_stall: false,
            };
        }
        self.stats.load_l1_misses += 1;

        // Structural limit on outstanding misses.
        let (lat, level) = if self.l2.access(addr) {
            (self.cfg.l2_hit_latency(), HitLevel::L2)
        } else {
            self.stats.load_l2_misses += 1;
            self.l2.fill(addr);
            (self.cfg.mem_latency(), HitLevel::Mem)
        };
        // The fill cannot start until translation completes, so a cold page
        // delays the line's arrival too.
        let total = lat + tlb_extra;
        if !self.d_mshrs.allocate(line, now + total as u64, now) {
            return AccessResult { latency: 1, level, tlb_miss, mshr_stall: true };
        }
        self.l1d.fill(addr);
        AccessResult { latency: total, level, tlb_miss, mshr_stall: false }
    }

    /// Store performed at commit. Write-allocate, write-back; the paper's
    /// pipeline never stalls commit on store misses (write buffering), so
    /// callers typically ignore the latency but the hierarchy state and
    /// statistics update either way.
    pub fn store(&mut self, addr: u64, _now: u64) -> AccessResult {
        self.stats.stores += 1;
        let tlb_miss = !self.dtlb.access(addr);
        if tlb_miss {
            self.stats.dtlb_misses += 1;
        }
        if self.l1d.access(addr) {
            return AccessResult {
                latency: self.cfg.l1_lat,
                level: HitLevel::L1,
                tlb_miss,
                mshr_stall: false,
            };
        }
        self.stats.store_l1_misses += 1;
        let (lat, level) = if self.l2.access(addr) {
            (self.cfg.l2_hit_latency(), HitLevel::L2)
        } else {
            self.l2.fill(addr);
            (self.cfg.mem_latency(), HitLevel::Mem)
        };
        self.l1d.fill(addr);
        AccessResult { latency: lat, level, tlb_miss, mshr_stall: false }
    }

    /// Instruction fetch of the line containing `addr`.
    pub fn ifetch(&mut self, addr: u64, now: u64) -> AccessResult {
        self.stats.ifetches += 1;
        let tlb_miss = !self.itlb.access(addr);
        if tlb_miss {
            self.stats.itlb_misses += 1;
        }
        let tlb_extra = if tlb_miss { self.cfg.tlb_miss_penalty } else { 0 };

        let line = self.l1i.line_addr(addr);
        if let Some(ready) = self.i_mshrs.lookup(line, now) {
            self.stats.ifetch_l1_misses += 1;
            let lat = (ready.saturating_sub(now) as u32).max(self.cfg.l1_lat) + tlb_extra;
            return AccessResult { latency: lat, level: HitLevel::L2, tlb_miss, mshr_stall: false };
        }

        if self.l1i.access(addr) {
            // L1I hits are the pipelined common case; fetch charges no
            // extra latency for them.
            return AccessResult { latency: 0, level: HitLevel::L1, tlb_miss, mshr_stall: false };
        }
        self.stats.ifetch_l1_misses += 1;
        let (lat, level) = if self.l2.access(addr) {
            (self.cfg.l2_hit_latency(), HitLevel::L2)
        } else {
            self.l2.fill(addr);
            (self.cfg.mem_latency(), HitLevel::Mem)
        };
        let total = lat + tlb_extra;
        if !self.i_mshrs.allocate(line, now + total as u64, now) {
            return AccessResult { latency: 1, level, tlb_miss, mshr_stall: true };
        }
        self.l1i.fill(addr);
        AccessResult { latency: total, level, tlb_miss, mshr_stall: false }
    }

    /// Functionally pre-load a data byte range into the L2 (and optionally
    /// the L1D), without touching statistics or timing. Scaled runs use
    /// this to start from the steady-state residency a 300 M-instruction
    /// run would have established.
    pub fn prewarm_data(&mut self, start: u64, bytes: u64, also_l1: bool) {
        let step = self.cfg.l2.line_bytes;
        let mut addr = start;
        while addr < start + bytes {
            self.l2.fill(addr);
            if also_l1 {
                self.l1d.fill(addr);
            }
            addr += step;
        }
    }

    /// Functionally pre-load a code byte range into the L2 and L1I.
    pub fn prewarm_code(&mut self, start: u64, bytes: u64) {
        let step = self.cfg.l1i.line_bytes;
        let mut addr = start;
        while addr < start + bytes {
            self.l2.fill(addr);
            self.l1i.fill(addr);
            addr += step;
        }
    }

    /// Earliest cycle after `now` at which any outstanding miss fill (data
    /// or instruction MSHRs) completes, or `u64::MAX` when none is
    /// outstanding. Diagnostics only — deliberately **not** a reporter
    /// into the processor's quiescence `Timeline`: a fill expiry on its
    /// own wakes no pipeline stage (it only frees capacity that a later,
    /// separately-scheduled access exploits), so reporting it would just
    /// truncate warps short of the completion that actually wakes the
    /// machine (see `hdsmt_core::timeline`). Expires completed entries
    /// first, the same lazy sweep every access performs, so calling this
    /// on an arbitrary schedule cannot change observable behaviour.
    pub fn next_mshr_expiry(&mut self, now: u64) -> u64 {
        self.d_mshrs.expire(now);
        self.i_mshrs.expire(now);
        self.d_mshrs.next_expiry().min(self.i_mshrs.next_expiry())
    }

    #[inline]
    pub fn stats(&self) -> MemHierStats {
        self.stats
    }

    /// Raw MSHR statistics `((data coalesced, data full-stalls),
    /// (ifetch coalesced, ifetch full-stalls))` — diagnostics only, not
    /// part of the serialized statistics.
    pub fn mshr_stats(&self) -> ((u64, u64), (u64, u64)) {
        (self.d_mshrs.stats(), self.i_mshrs.stats())
    }

    /// Per-cache raw statistics `(l1i, l1d, l2)`.
    pub fn cache_stats(&self) -> (crate::CacheStats, crate::CacheStats, crate::CacheStats) {
        (self.l1i.stats(), self.l1d.stats(), self.l2.stats())
    }

    pub fn reset_stats(&mut self) {
        self.stats = MemHierStats::default();
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> MemHier {
        MemHier::new(MemConfig::default())
    }

    #[test]
    fn load_latency_ladder() {
        let mut m = hier();
        // Prime the TLB so the ladder is clean.
        m.load(0x1_0000, 0);
        // Cold: full miss to memory.
        let r = m.load(0x100_0000, 100);
        assert_eq!(r.level, HitLevel::Mem);
        assert_eq!(r.latency, 275 + 300, "mem latency + cold DTLB walk");
        // Second touch: L1 hit.
        let r = m.load(0x100_0000, 1000);
        assert_eq!(r.level, HitLevel::L1);
        assert_eq!(r.latency, 3);
        // Evicting nothing; a distinct line in the same (now warm) page
        // that's L2 resident: not possible without eviction, so check L2 by
        // invalidation path instead: new line in same page is a fresh mem
        // miss.
        let r = m.load(0x100_0040, 2000);
        assert_eq!(r.level, HitLevel::Mem);
        assert_eq!(r.latency, 275);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = hier();
        let base = 0x200_0000u64;
        m.load(base, 0);
        // L1D is 64 KB 2-way with 32 B lines: 1024 sets, set stride 32 KB.
        // Two more lines in the same set evict the first from L1 but leave
        // it in L2 (512 KB, 64 B lines, 4096 sets — different geometry).
        m.load(base + 32 * 1024, 600);
        m.load(base + 64 * 1024, 1200);
        let r = m.load(base, 2000);
        assert_eq!(r.level, HitLevel::L2, "line must still be L2 resident");
        assert_eq!(r.latency, 25);
    }

    #[test]
    fn mshr_coalescing_timing() {
        let mut m = hier();
        m.load(0x1_0000, 0); // warm TLB page for the target region
        let r1 = m.load(0x300_0000, 100);
        assert_eq!(r1.level, HitLevel::Mem);
        // Same line 10 cycles later: completes with the original fill.
        let r2 = m.load(0x300_0008, 110);
        assert!(r2.latency < r1.latency);
        // Original ready at 100 + 275 + 300(tlb); second pays the remainder
        // from cycle 110.
        assert_eq!(r2.latency, (100 + r1.latency as u64 - 110) as u32);
    }

    #[test]
    fn store_write_allocates() {
        let mut m = hier();
        let r = m.store(0x400_0000, 0);
        assert_eq!(r.level, HitLevel::Mem);
        let r = m.load(0x400_0000, 10);
        assert_eq!(r.level, HitLevel::L1, "store must have allocated the line");
        assert_eq!(m.stats().stores, 1);
        assert_eq!(m.stats().store_l1_misses, 1);
    }

    #[test]
    fn ifetch_hits_are_free_misses_are_not() {
        let mut m = hier();
        let r = m.ifetch(0x50_0000, 0);
        assert!(r.latency > 0);
        let r = m.ifetch(0x50_0000, 1000);
        assert_eq!(r.latency, 0, "pipelined L1I hit");
        assert_eq!(m.stats().ifetches, 2);
        assert_eq!(m.stats().ifetch_l1_misses, 1);
    }

    #[test]
    fn mshr_back_pressure_reports_stall() {
        let cfg = MemConfig { mshrs: 2, ..MemConfig::default() };
        let mut m = MemHier::new(cfg);
        m.load(0x1_0000, 0); // warm-up miss; its fill completes by cycle 600
                             // Three distinct-line misses in the same cycle window, after the
                             // warm-up fill has drained.
        let a = m.load(0x500_0000, 1000);
        let b = m.load(0x600_0000, 1000);
        let c = m.load(0x700_0000, 1000);
        assert!(!a.mshr_stall && !b.mshr_stall);
        assert!(c.mshr_stall, "third concurrent miss must be replayed");
        assert_eq!(c.latency, 1);
    }

    #[test]
    fn dl1_mpka_statistic() {
        let mut m = hier();
        m.load(0x1_0000, 0);
        // Spaced far enough apart that every fill completes before the next
        // access (otherwise coalesced accesses also count as misses).
        for i in 0..99 {
            m.load(0x1_0000 + i * 8, 1000 + i * 600);
        }
        let mpka = m.stats().dl1_mpka();
        // 100 loads covering 25 distinct 32 B lines → 25 misses → 250 MPKA.
        assert!((200.0..300.0).contains(&mpka), "mpka {mpka}");
        assert!(m.stats().loads == 100);
    }

    #[test]
    fn next_mshr_expiry_reports_the_earliest_outstanding_fill() {
        let mut m = hier();
        assert_eq!(m.next_mshr_expiry(0), u64::MAX, "no outstanding misses");
        m.load(0x1_0000, 0); // warm the TLB page
        let r = m.load(0x900_0000, 100);
        assert_eq!(r.level, HitLevel::Mem);
        let fill = 100 + r.latency as u64;
        let next = m.next_mshr_expiry(150);
        assert!(next > 150 && next <= fill, "next expiry {next} vs fill {fill}");
        assert_eq!(m.next_mshr_expiry(fill), u64::MAX, "completed fills expire");
    }

    #[test]
    fn tlb_miss_penalty_applied_once_page_is_cold() {
        let mut m = hier();
        let r1 = m.load(0x800_0000, 0);
        assert!(r1.tlb_miss);
        let r2 = m.load(0x800_0100, 10);
        assert!(!r2.tlb_miss, "same page now warm");
    }
}
