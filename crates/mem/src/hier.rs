//! The assembled memory hierarchy shared by every pipeline.

use crate::cache::{Cache, CacheConfig};
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

/// One side of the L1 (instruction or data): its TLB, tag array and MSHR
/// file.
struct L1Side {
    tlb: Tlb,
    cache: Cache,
    mshrs: MshrFile,
}

impl L1Side {
    fn new(cache: CacheConfig, tlb_entries: usize, cfg: &MemConfig) -> Self {
        L1Side {
            tlb: Tlb::new(tlb_entries, cfg.page_bytes),
            cache: Cache::new(cache),
            mshrs: MshrFile::new(cfg.mshrs),
        }
    }

    /// The one MSHR-tracked access path, shared by loads and instruction
    /// fetches: translate, coalesce with an outstanding miss to the same
    /// line, probe the L1, and on a miss take the L2 step, claim an MSHR
    /// and fill the L1. An L1 hit reports `l1_lat` plus any TLB walk; the
    /// caller decides what a hit costs it.
    ///
    /// Always inlined, so each caller compiles to the straight-line path
    /// it had as a hand-written copy: with a plain hint the compiler keeps
    /// one out-of-line body behind both, and loads run on every simulated
    /// memory operation.
    #[inline(always)]
    fn access(&mut self, l2: &mut Cache, cfg: &MemConfig, addr: u64, now: u64) -> AccessResult {
        let tlb_miss = !self.tlb.access(addr);
        let tlb_extra = if tlb_miss { cfg.tlb_miss_penalty } else { 0 };

        // A miss already in flight for this line: data arrives with the
        // original fill.
        let line = self.cache.line_addr(addr);
        if let Some(ready) = self.mshrs.lookup(line, now) {
            let lat = (ready.saturating_sub(now) as u32).max(cfg.l1_lat) + tlb_extra;
            return AccessResult { latency: lat, level: HitLevel::L2, tlb_miss, mshr_stall: false };
        }

        if self.cache.access(addr) {
            return AccessResult {
                latency: cfg.l1_lat + tlb_extra,
                level: HitLevel::L1,
                tlb_miss,
                mshr_stall: false,
            };
        }

        // The L2 is accessed (and filled) before the MSHR allocation can
        // fail, so an access replayed for a full MSHR file finds its line
        // in the L2.
        let (lat, level) = l2_step(l2, cfg, addr);
        // The fill cannot start until translation completes, so a cold page
        // delays the line's arrival too.
        let total = lat + tlb_extra;
        // Structural limit on outstanding misses.
        if !self.mshrs.allocate(line, now + total as u64, now) {
            return AccessResult { latency: 1, level, tlb_miss, mshr_stall: true };
        }
        self.cache.fill(addr);
        AccessResult { latency: total, level, tlb_miss, mshr_stall: false }
    }
}

/// The L2 step of every L1 miss: a hit costs the L2-hit latency; a miss
/// fills the line and costs the full memory latency.
#[inline]
fn l2_step(l2: &mut Cache, cfg: &MemConfig, addr: u64) -> (u32, HitLevel) {
    if l2.access(addr) {
        (cfg.l2_hit_latency(), HitLevel::L2)
    } else {
        l2.fill(addr);
        (cfg.mem_latency(), HitLevel::Mem)
    }
}

/// Word-at-a-time FNV-style fold, for [`MemHier::state_digest`].
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
    }
}

/// L1I + L1D + unified L2 + TLBs + MSHRs, with Table 1 timing.
pub struct MemHier {
    cfg: MemConfig,
    i: L1Side,
    d: L1Side,
    l2: Cache,
    stats: MemHierStats,
}

impl MemHier {
    pub fn new(cfg: MemConfig) -> Self {
        cfg.validate().expect("invalid memory configuration");
        MemHier {
            i: L1Side::new(cfg.l1i, cfg.itlb_entries, &cfg),
            d: L1Side::new(cfg.l1d, cfg.dtlb_entries, &cfg),
            l2: Cache::new(cfg.l2),
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
        let r = self.d.access(&mut self.l2, &self.cfg, addr, now);
        let s = &mut self.stats;
        s.loads += 1;
        s.dtlb_misses += r.tlb_miss as u64;
        s.load_l1_misses += (r.level != HitLevel::L1) as u64;
        s.load_l2_misses += (r.level == HitLevel::Mem) as u64;
        r
    }

    /// Earliest outstanding D-side fill, `u64::MAX` when none: the first
    /// access time at which the D-MSHR file may have room again.
    #[inline]
    pub fn dmshr_next_fill(&self) -> u64 {
        self.d.mshrs.next_fill()
    }

    /// Is every D-MSHR taken?
    #[inline]
    pub fn dmshr_full(&self) -> bool {
        self.d.mshrs.is_full()
    }

    /// Charge `n` load retries in one batch, exactly as `n` calls of
    /// [`Self::load`] would have. Exact only for a
    /// batch that repeats, in order, one period of retries that each
    /// hit the D-TLB, missed the L1D, hit the L2 and bounced off the
    /// full D-MSHR file, with nothing else touching the hierarchy and no
    /// D-side fill due in between. Then the caches and MSHRs cannot
    /// change: the L1D misses leave it alone, the file stays frozen, and
    /// re-promoting the same TLB pages and L2 lines in the same order
    /// leaves their recency as the previous period left it. What moves
    /// are the counters: every retry is a load, an L1D miss and a
    /// full-file stall.
    pub fn replay_load_bounces(&mut self, n: u64) {
        self.stats.loads += n;
        self.stats.load_l1_misses += n;
        self.d.mshrs.replay_stalls(n);
    }

    /// A digest of every piece of hierarchy state an access can observe:
    /// tags and recency of the three caches, both TLBs' resident pages in
    /// recency order, and both MSHR files' outstanding misses. Two
    /// hierarchies with equal digests behave identically from here on (up
    /// to hash collisions). Counters are left out: compare
    /// [`Self::stats`] and [`Self::mshr_stats`] for those. Diagnostics for
    /// differential tests.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for side in [&self.i, &self.d] {
            side.cache.digest_into(&mut |w| h.write(w));
            side.tlb.recency().for_each(|vpn| h.write(vpn));
            h.write(u64::MAX);
            for &(line, ready) in side.mshrs.entries() {
                h.write(line);
                h.write(ready);
            }
        }
        self.l2.digest_into(&mut |w| h.write(w));
        h.0
    }

    /// Store performed at commit. Write-allocate, write-back; the paper's
    /// pipeline never stalls commit on store misses (write buffering), so
    /// callers typically ignore the latency but the hierarchy state and
    /// statistics update either way. No MSHR, and no TLB term in the
    /// latency.
    pub fn store(&mut self, addr: u64, _now: u64) -> AccessResult {
        self.stats.stores += 1;
        let tlb_miss = !self.d.tlb.access(addr);
        self.stats.dtlb_misses += tlb_miss as u64;
        if self.d.cache.access(addr) {
            return AccessResult {
                latency: self.cfg.l1_lat,
                level: HitLevel::L1,
                tlb_miss,
                mshr_stall: false,
            };
        }
        self.stats.store_l1_misses += 1;
        let (latency, level) = l2_step(&mut self.l2, &self.cfg, addr);
        self.d.cache.fill(addr);
        AccessResult { latency, level, tlb_miss, mshr_stall: false }
    }

    /// Instruction fetch of the line containing `addr`.
    pub fn ifetch(&mut self, addr: u64, now: u64) -> AccessResult {
        let mut r = self.i.access(&mut self.l2, &self.cfg, addr, now);
        let s = &mut self.stats;
        s.ifetches += 1;
        s.itlb_misses += r.tlb_miss as u64;
        if r.level == HitLevel::L1 {
            // L1I hits are the pipelined common case; fetch charges no
            // extra latency for them, not even an I-TLB walk.
            r.latency = 0;
        } else {
            s.ifetch_l1_misses += 1;
        }
        r
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
                self.d.cache.fill(addr);
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
            self.i.cache.fill(addr);
            addr += step;
        }
    }

    #[inline]
    pub fn stats(&self) -> MemHierStats {
        self.stats
    }

    /// Raw MSHR statistics `((data coalesced, data full-stalls),
    /// (ifetch coalesced, ifetch full-stalls))` — diagnostics only, not
    /// part of the serialized statistics.
    pub fn mshr_stats(&self) -> ((u64, u64), (u64, u64)) {
        (self.d.mshrs.stats(), self.i.mshrs.stats())
    }

    pub fn reset_stats(&mut self) {
        self.stats = MemHierStats::default();
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

    /// A hierarchy whose two-entry D-MSHR file is full, with two lines
    /// that are L2-resident, absent from the L1D and on a warm page:
    /// every load of them bounces.
    fn saturated() -> MemHier {
        let mut m = MemHier::new(MemConfig { mshrs: 2, ..MemConfig::default() });
        for line in [0x900_0000u64, 0x900_0040] {
            m.prewarm_data(line, 64, false);
        }
        m.load(0x900_1000, 0); // warm the page (its fill is long done by 1000)
        assert!(!m.load(0x500_0100, 1000).mshr_stall);
        assert!(!m.load(0x600_0200, 1000).mshr_stall);
        assert!(m.dmshr_full());
        m
    }

    #[test]
    fn batched_bounces_equal_stepped_bounces() {
        const PERIODS: u64 = 50;
        let lines = [0x900_0040u64, 0x900_0000];
        let (mut stepped, mut batched) = (saturated(), saturated());
        // One period on each brings TLB and L2 recency to its fixed point.
        for m in [&mut stepped, &mut batched] {
            for (k, &a) in lines.iter().enumerate() {
                let r = m.load(a, 1010 + k as u64);
                assert!(r.mshr_stall && !r.tlb_miss && r.level == HitLevel::L2, "{r:?}");
            }
        }
        let fill = stepped.dmshr_next_fill();
        for p in 1..=PERIODS {
            for (k, &a) in lines.iter().enumerate() {
                let now = 1010 + 2 * p + k as u64;
                assert!(now < fill);
                let r = stepped.load(a, now);
                assert!(r.mshr_stall && !r.tlb_miss && r.level == HitLevel::L2, "{r:?}");
            }
        }
        batched.replay_load_bounces(PERIODS * lines.len() as u64);
        assert_eq!(stepped.stats(), batched.stats());
        assert_eq!(stepped.mshr_stats(), batched.mshr_stats());
        assert_eq!(stepped.state_digest(), batched.state_digest());
        assert_eq!(stepped.stats().loads, 3 + (PERIODS + 1) * 2);
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
        // 100 loads covering 25 distinct 32 B lines → 25 misses.
        assert_eq!(m.stats().load_l1_misses, 25);
        assert_eq!(m.stats().loads, 100);
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
