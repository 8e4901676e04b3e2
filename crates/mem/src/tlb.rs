//! Translation lookaside buffers: fully-associative, LRU, sized per
//! Table 1 (48-entry I-TLB, 128-entry D-TLB, 300-cycle miss penalty).

/// Marks an empty index bucket.
const EMPTY: u32 = u32::MAX;

/// One resident translation and its place in the recency list.
#[derive(Clone, Copy)]
struct Slot {
    vpn: u64,
    /// Neighbour toward the most recently used end.
    newer: u32,
    /// Neighbour toward the least recently used end.
    older: u32,
}

/// Fully-associative TLB over virtual page numbers, with exact LRU
/// replacement in O(1) per access.
///
/// The resident pages sit in slots threaded on a circular doubly linked
/// recency list through a sentinel slot, whose `older` link is the most
/// recently used page and whose `newer` link the least recently used
/// one. A hit moves its slot to the front, a fill on a full TLB reuses
/// the back slot, which is the true LRU victim. An open-addressed index
/// (linear probing, at most half full) finds a page's slot, so neither a
/// hit nor a miss scans the entries: the old design kept per-slot use
/// stamps, and every miss scanned all the page numbers, then all the
/// stamps for the oldest.
///
/// Re-touching the pages at the front of the list in their current
/// order leaves the list as it was. The processor relies on that to
/// batch a run of identical MSHR-full retries (see `MemHier`).
pub struct Tlb {
    /// Resident pages, then the sentinel (index `capacity`).
    slots: Vec<Slot>,
    /// Resident pages (the sentinel not counted).
    len: usize,
    /// Page-number hash → slot, `EMPTY` in empty buckets.
    index: Vec<u32>,
    /// `64 - log2(index.len())`: the hash keeps the product's top bits.
    index_shift: u32,
    page_shift: u32,
}

impl Tlb {
    pub fn new(entries: usize, page_bytes: u64) -> Self {
        assert!(entries > 0);
        assert!(entries < EMPTY as usize, "slot numbers are u32");
        assert!(page_bytes.is_power_of_two());
        let buckets = (2 * entries).next_power_of_two();
        let sentinel = entries as u32;
        Tlb {
            slots: vec![Slot { vpn: 0, newer: sentinel, older: sentinel }; entries + 1],
            len: 0,
            index: vec![EMPTY; buckets],
            index_shift: 64 - buckets.trailing_zeros(),
            page_shift: page_bytes.trailing_zeros(),
        }
    }

    #[inline]
    fn sentinel(&self) -> u32 {
        (self.slots.len() - 1) as u32
    }

    #[inline]
    fn vpn(&self, addr: u64) -> u64 {
        addr >> self.page_shift
    }

    /// Home bucket of `vpn`. Fibonacci hashing: pages are
    /// region-clustered, so low bits alone would alias.
    #[inline]
    fn home(&self, vpn: u64) -> usize {
        (vpn.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.index_shift) as usize
    }

    #[inline]
    fn mask(&self) -> usize {
        self.index.len() - 1
    }

    /// The bucket holding `vpn`, or the empty bucket where it would go.
    #[inline]
    fn probe(&self, vpn: u64) -> (usize, bool) {
        let mask = self.mask();
        let mut b = self.home(vpn);
        loop {
            let s = self.index[b];
            if s == EMPTY {
                return (b, false);
            }
            if self.slots[s as usize].vpn == vpn {
                return (b, true);
            }
            b = (b + 1) & mask;
        }
    }

    /// Remove the index entry in bucket `hole`, shifting later members
    /// of its probe run back so every lookup still finds its page.
    fn unindex(&mut self, mut hole: usize) {
        let mask = self.mask();
        self.index[hole] = EMPTY;
        let mut b = (hole + 1) & mask;
        loop {
            let s = self.index[b];
            if s == EMPTY {
                return;
            }
            let home = self.home(self.slots[s as usize].vpn);
            // Move the entry into the hole unless its home lies
            // cyclically in (hole, b]: then the hole is before its run.
            if (b.wrapping_sub(home) & mask) >= (b.wrapping_sub(hole) & mask) {
                self.index[hole] = s;
                self.index[b] = EMPTY;
                hole = b;
            }
            b = (b + 1) & mask;
        }
    }

    /// Move slot `s` (resident, or fresh and unlinked when `linked` is
    /// false) to the most recently used end.
    #[inline]
    fn make_mru(&mut self, s: u32, linked: bool) {
        let sentinel = self.sentinel();
        if linked {
            let Slot { newer, older, .. } = self.slots[s as usize];
            self.slots[newer as usize].older = older;
            self.slots[older as usize].newer = newer;
        }
        let head = self.slots[sentinel as usize].older;
        self.slots[s as usize].newer = sentinel;
        self.slots[s as usize].older = head;
        self.slots[head as usize].newer = s;
        self.slots[sentinel as usize].older = s;
    }

    /// Translate `addr`: returns `true` on TLB hit. A miss walks (modelled
    /// by the caller's latency charge) and fills, evicting the least
    /// recently used page when full.
    pub fn access(&mut self, addr: u64) -> bool {
        let vpn = self.vpn(addr);
        let (b, hit) = self.probe(vpn);
        if hit {
            let s = self.index[b];
            if s != self.slots[self.sentinel() as usize].older {
                self.make_mru(s, true);
            }
            return true;
        }
        if self.len < self.slots.len() - 1 {
            let s = self.len as u32;
            self.len += 1;
            self.slots[s as usize].vpn = vpn;
            self.index[b] = s;
            self.make_mru(s, false);
        } else {
            let victim = self.slots[self.sentinel() as usize].newer;
            let (vb, present) = self.probe(self.slots[victim as usize].vpn);
            debug_assert!(present, "every resident page is indexed");
            self.unindex(vb);
            self.slots[victim as usize].vpn = vpn;
            // The removal may have shifted `vpn`'s probe run: look again.
            let (b, _) = self.probe(vpn);
            self.index[b] = victim;
            self.make_mru(victim, true);
        }
        false
    }

    /// Resident page numbers, most recently used first.
    pub fn recency(&self) -> impl Iterator<Item = u64> + '_ {
        let sentinel = self.sentinel();
        let mut s = self.slots[sentinel as usize].older;
        std::iter::from_fn(move || {
            (s != sentinel).then(|| {
                let slot = self.slots[s as usize];
                s = slot.older;
                slot.vpn
            })
        })
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
    fn recency_lists_pages_most_recent_first() {
        let mut t = Tlb::new(3, 8192);
        for page in [1u64, 2, 3, 1, 4] {
            t.access(page * 8192);
        }
        assert_eq!(t.recency().collect::<Vec<_>>(), [4, 1, 3]);
        // Re-touching the head pages in order is a fixed point.
        for page in [3u64, 1, 4] {
            t.access(page * 8192);
        }
        let once: Vec<u64> = t.recency().collect();
        for page in [3u64, 1, 4] {
            t.access(page * 8192);
        }
        assert_eq!(t.recency().collect::<Vec<_>>(), once);
    }

    #[test]
    fn colliding_pages_survive_evictions() {
        // One-entry-per-bucket pressure: many pages, tiny index, every
        // fill after the first two evicts.
        let mut t = Tlb::new(2, 8192);
        for i in 0..1_000u64 {
            let page = i.wrapping_mul(0x2545_f491_4f6c_dd1d) % 64;
            let resident: Vec<u64> = t.recency().collect();
            assert_eq!(t.access(page * 8192), resident.contains(&page), "access {i}");
            assert!(t.recency().count() <= 2);
        }
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
