//! Generic banked, set-associative cache array with true LRU.
//!
//! The array models tags only (this is a performance simulator — data
//! values never matter). Timing is owned by [`crate::MemHier`]; this type
//! answers hit/miss and performs fills/evictions.

/// Geometry of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheConfig {
    pub size_bytes: u64,
    pub line_bytes: u64,
    pub ways: usize,
    /// Number of banks. A Table 1 parameter that the timing model does
    /// not use: there are no bank conflicts.
    pub banks: usize,
}

impl CacheConfig {
    pub fn num_sets(&self) -> usize {
        (self.size_bytes / self.line_bytes) as usize / self.ways
    }

    pub fn validate(&self) -> Result<(), String> {
        if !self.size_bytes.is_power_of_two() || !self.line_bytes.is_power_of_two() {
            return Err("cache size and line size must be powers of two".into());
        }
        if self.ways == 0 || self.banks == 0 {
            return Err("ways and banks must be positive".into());
        }
        // A line narrower than one 8-byte word breaks every consumer's
        // geometry arithmetic (fetch derives instructions-per-line from
        // it; data accesses are word-granular): the old silent acceptance
        // surfaced as a zero-length fetch burst that hung the simulation
        // at the cycle cap.
        if self.line_bytes < 8 {
            return Err(format!("line size {} is below one 8-byte word", self.line_bytes));
        }
        // Per-way LRU ranks are stored as `u8` (0 = MRU, one rank per way in
        // the set): more than 256 ways cannot be ranked distinctly, and the
        // old silent acceptance corrupted replacement order. 256 itself is
        // excluded too — `fill` ages every way with `saturating_add(1)`, so
        // rank 255 must remain reachable only as the oldest rank.
        if self.ways > u8::MAX as usize {
            return Err(format!(
                "ways = {} exceeds {} (per-way LRU ranks are u8)",
                self.ways,
                u8::MAX
            ));
        }
        if self.size_bytes < self.line_bytes * self.ways as u64 {
            return Err("cache smaller than one set".into());
        }
        if !self.num_sets().is_power_of_two() {
            return Err("set count must be a power of two".into());
        }
        if !self.banks.is_power_of_two() {
            return Err("bank count must be a power of two".into());
        }
        Ok(())
    }
}

/// One way of one set: tag, valid bit and LRU rank interleaved, so a
/// whole low-associativity set sits on one host cache line. (The old
/// layout kept three parallel arrays — every simulated access touched a
/// tag line, a valid line *and* an LRU line; this is the simulator's
/// single hottest leaf, hit several times per cycle.)
#[derive(Clone, Copy)]
struct WayEntry {
    /// Line-granular address; meaningful only while `valid`.
    tag: u64,
    valid: bool,
    /// LRU rank within the set (0 = MRU).
    lru: u8,
}

/// Tag array of one cache level.
pub struct Cache {
    cfg: CacheConfig,
    line_shift: u32,
    set_mask: u64,
    /// Flattened `[set][way]` store.
    ways: Vec<WayEntry>,
}

impl Cache {
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate().expect("invalid cache configuration");
        let n = cfg.num_sets() * cfg.ways;
        Cache {
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: (cfg.num_sets() - 1) as u64,
            ways: vec![WayEntry { tag: 0, valid: false, lru: 0 }; n],
            cfg,
        }
    }

    #[inline]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Line-granular address (tag) for `addr`.
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    #[inline]
    fn set_base(&self, line: u64) -> usize {
        ((line & self.set_mask) as usize) * self.cfg.ways
    }

    /// Access `addr`: returns `true` on hit (and promotes the line to MRU).
    /// A miss does **not** allocate — call [`Self::fill`] when modelling
    /// the fill.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = self.line_addr(addr);
        let base = self.set_base(line);
        let ways = self.cfg.ways;
        // One bounds check for the whole set; the scan and the promotion
        // share the slice.
        let set = &mut self.ways[base..base + ways];
        let Some(way) = set.iter().position(|e| e.valid && e.tag == line) else {
            return false;
        };
        let old = set[way].lru;
        if old != 0 {
            // Promote to MRU. Hitting the MRU way again — the dominant
            // pattern: sequential fetch walking one I-line, a replayed
            // load re-probing the same L2 line — skips the re-rank pass
            // entirely (promoting rank 0 is a no-op).
            for e in set.iter_mut() {
                if e.lru < old {
                    e.lru += 1;
                }
            }
            set[way].lru = 0;
        }
        true
    }

    /// Allocate the line containing `addr`, evicting the LRU way if needed.
    /// Returns the evicted line address, if any.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        let line = self.line_addr(addr);
        let base = self.set_base(line);
        let ways = self.cfg.ways;
        // Already present (e.g. race between coalesced misses): just touch.
        for w in 0..ways {
            let e = self.ways[base + w];
            if e.valid && e.tag == line {
                self.touch(base, w);
                return None;
            }
        }
        // Prefer an invalid way, else evict the max-LRU way.
        let mut victim = 0;
        let mut best = 0u16;
        for w in 0..ways {
            let e = self.ways[base + w];
            let score = if e.valid { e.lru as u16 } else { u16::MAX };
            if score >= best {
                best = score;
                victim = w;
            }
        }
        let v = self.ways[base + victim];
        let evicted = if v.valid { Some(v.tag) } else { None };
        self.ways[base + victim].tag = line;
        self.ways[base + victim].valid = true;
        // A fresh fill is least-recent history-wise: age everyone, then MRU.
        for w in 0..ways {
            let r = &mut self.ways[base + w].lru;
            *r = r.saturating_add(1);
        }
        self.ways[base + victim].lru = 0;
        evicted
    }

    /// Feed every way's tag, valid bit and LRU rank to `out`, in array
    /// order (see `MemHier::state_digest`).
    pub fn digest_into(&self, out: &mut dyn FnMut(u64)) {
        for e in &self.ways {
            out(e.tag);
            out((e.valid as u64) << 8 | e.lru as u64);
        }
    }

    fn touch(&mut self, base: usize, way: usize) {
        let old = self.ways[base + way].lru;
        for w in 0..self.cfg.ways {
            let e = &mut self.ways[base + w];
            if e.lru < old {
                e.lru += 1;
            }
        }
        self.ways[base + way].lru = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets × 2 ways × 32 B lines = 256 B.
        Cache::new(CacheConfig { size_bytes: 256, line_bytes: 32, ways: 2, banks: 2 })
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0x1000));
        c.fill(0x1000);
        assert!(c.access(0x1000));
        assert!(c.access(0x101f), "same line");
        assert!(!c.access(0x1020), "next line");
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small();
        // Three lines mapping to the same set (set stride = sets*line = 128).
        let (a, b, d) = (0x0u64, 0x80, 0x100);
        c.fill(a);
        c.fill(b);
        assert!(c.access(a)); // a = MRU, b = LRU
        c.fill(d); // evicts b
        assert!(c.access(a));
        assert!(!c.access(b));
        assert!(c.access(d));
    }

    #[test]
    fn fill_returns_evicted_line() {
        let mut c = small();
        assert_eq!(c.fill(0x0), None);
        assert_eq!(c.fill(0x80), None);
        let evicted = c.fill(0x100);
        assert_eq!(evicted, Some(0x0 >> 5));
    }

    #[test]
    fn capacity_and_conflict_behaviour() {
        // Working set ≤ capacity: second pass all hits.
        let mut c = small();
        let lines: Vec<u64> = (0..8).map(|i| i * 32).collect();
        for &a in &lines {
            if !c.access(a) {
                c.fill(a);
            }
        }
        for &a in &lines {
            assert!(c.access(a), "{a:#x} should hit on the second pass");
        }
        // Working set 2× capacity with LRU and a sequential scan: every
        // access misses (classic LRU worst case).
        let mut c = small();
        let lines: Vec<u64> = (0..16).map(|i| i * 32).collect();
        let mut hits = 0;
        for _ in 0..3 {
            for &a in &lines {
                if c.access(a) {
                    hits += 1;
                } else {
                    c.fill(a);
                }
            }
        }
        assert_eq!(hits, 0, "sequential over-capacity scan must thrash");
    }

    #[test]
    fn paper_l1_geometry() {
        let c =
            Cache::new(CacheConfig { size_bytes: 64 * 1024, line_bytes: 32, ways: 2, banks: 8 });
        assert_eq!(c.config().num_sets(), 1024);
    }

    #[test]
    #[should_panic]
    fn rejects_invalid_geometry() {
        let _ = Cache::new(CacheConfig { size_bytes: 100, line_bytes: 32, ways: 2, banks: 1 });
    }

    #[test]
    fn rejects_sub_word_lines() {
        // A 4-byte line used to validate and then hang fetch (zero
        // instructions per line → empty bursts forever).
        for line in [1u64, 2, 4] {
            let cfg = CacheConfig { size_bytes: 1 << 14, line_bytes: line, ways: 2, banks: 1 };
            let err = cfg.validate().unwrap_err();
            assert!(err.contains("8-byte word"), "line {line}: {err}");
        }
        CacheConfig { size_bytes: 1 << 14, line_bytes: 8, ways: 2, banks: 1 }.validate().unwrap();
    }

    #[test]
    fn rejects_ways_beyond_u8_lru_ranks() {
        // 512 ways would silently wrap the u8 per-way LRU ranks; the
        // validator must reject it rather than corrupt replacement order.
        let cfg = CacheConfig { size_bytes: 1 << 20, line_bytes: 32, ways: 512, banks: 1 };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("ways = 512"), "unclear error: {err}");
        // High-but-representable associativity still validates.
        let ok = CacheConfig { size_bytes: 1 << 13, line_bytes: 32, ways: 128, banks: 1 };
        ok.validate().unwrap();
    }
}
