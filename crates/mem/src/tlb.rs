//! Translation lookaside buffers: fully-associative, LRU, sized per
//! Table 1 (48-entry I-TLB, 128-entry D-TLB, 300-cycle miss penalty).

/// Fully-associative TLB over virtual page numbers.
///
/// True LRU via per-entry use stamps: a hit bumps the entry's stamp, a
/// fill on a full TLB evicts the minimum-stamp entry (stamps are unique,
/// so the victim is deterministic — exactly the recency-list victim). The
/// old implementation kept the entries recency-ordered, paying a
/// `rotate_right` memmove on every single translation; stamps make the
/// common case (hit) a pure scan, and consecutive same-page accesses —
/// the overwhelmingly common pattern for instruction fetch and stack
/// traffic — short-circuit on a one-entry memo.
/// Recent-translation memo slots (power of two). Purely an accelerator:
/// it can only point at a slot, never decide a hit — the authoritative
/// entry is always re-verified, so sizing affects host speed only. 256
/// slots (1 KB) keep the D-TLB's 128-entry full scans rare even with
/// four threads' page working sets hashed into the memo.
const MEMO_SLOTS: usize = 256;

pub struct Tlb {
    /// Resident page numbers, unordered (slot-stable between evictions).
    vpns: Vec<u64>,
    /// Last-use stamp per slot (parallel to `vpns`).
    stamps: Vec<u64>,
    /// vpn-hash → probable slot. Stale entries are caught by verifying
    /// `vpns[slot]` before use.
    memo: [u32; MEMO_SLOTS],
    clock: u64,
    capacity: usize,
    page_shift: u32,
}

impl Tlb {
    pub fn new(entries: usize, page_bytes: u64) -> Self {
        assert!(entries > 0);
        assert!(page_bytes.is_power_of_two());
        Tlb {
            vpns: Vec::with_capacity(entries),
            stamps: Vec::with_capacity(entries),
            memo: [u32::MAX; MEMO_SLOTS],
            clock: 0,
            capacity: entries,
            page_shift: page_bytes.trailing_zeros(),
        }
    }

    #[inline]
    fn vpn(&self, addr: u64) -> u64 {
        addr >> self.page_shift
    }

    #[inline]
    fn memo_slot(vpn: u64) -> usize {
        // Fibonacci hash: pages are region-clustered, low bits alone alias.
        (vpn.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as usize & (MEMO_SLOTS - 1)
    }

    /// Translate `addr`: returns `true` on TLB hit. A miss walks (modelled
    /// by the caller's latency charge) and fills.
    pub fn access(&mut self, addr: u64) -> bool {
        let vpn = self.vpn(addr);
        self.clock += 1;
        // Memo fast path: recently used pages resolve without a scan.
        let m = Self::memo_slot(vpn);
        let cached = self.memo[m] as usize;
        if let Some(&p) = self.vpns.get(cached) {
            if p == vpn {
                self.stamps[cached] = self.clock;
                return true;
            }
        }
        if let Some(pos) = self.vpns.iter().position(|&p| p == vpn) {
            self.stamps[pos] = self.clock;
            self.memo[m] = pos as u32;
            return true;
        }
        if self.vpns.len() < self.capacity {
            self.memo[m] = self.vpns.len() as u32;
            self.vpns.push(vpn);
            self.stamps.push(self.clock);
        } else {
            // Evict the least recently used entry (unique minimum stamp).
            let victim = self
                .stamps
                .iter()
                .enumerate()
                .min_by_key(|&(_, &stamp)| stamp)
                .map(|(i, _)| i)
                .expect("full TLB is non-empty");
            self.vpns[victim] = vpn;
            self.stamps[victim] = self.clock;
            self.memo[m] = victim as u32;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut t = Tlb::new(4, 8192);
        assert!(!t.access(0x0000));
        assert!(t.access(0x1000), "same 8K page");
        assert!(!t.access(0x2000), "next page");
        assert!(t.access(0x2001));
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2, 8192);
        t.access(0x0000); // page 0
        t.access(0x2000); // page 1
        t.access(0x0000); // page 0 MRU
        t.access(0x4000); // page 2 evicts page 1
        assert!(t.access(0x0000));
        assert!(!t.access(0x2000), "page 1 was LRU");
    }

    #[test]
    fn working_set_behaviour() {
        // 128-entry D-TLB with 8K pages covers 1 MB: a 512 KB set fits…
        let mut t = Tlb::new(128, 8192);
        let pages: Vec<u64> = (0..64).map(|i| i * 8192).collect();
        for &a in &pages {
            t.access(a);
        }
        for &a in &pages {
            assert!(t.access(a));
        }
        // …while an 8 MB random set keeps missing.
        let mut t = Tlb::new(128, 8192);
        let mut miss = 0;
        for i in 0..10_000u64 {
            let page = (i.wrapping_mul(0x9e3779b97f4a7c15) >> 32) % 1024;
            if !t.access(page * 8192) {
                miss += 1;
            }
        }
        assert!(miss > 8000, "large random set must thrash a 128-entry TLB (missed {miss})");
    }
}
