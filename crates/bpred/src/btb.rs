//! Branch target buffer: 256 entries, 4-way set associative (Table 1),
//! true-LRU within each set.
//!
//! Direct targets are available from the instruction at fetch in this
//! model, so the BTB serves *indirect* control transfers (indirect jumps;
//! returns go through the RAS).

use hdsmt_isa::Pc;

const WAYS: usize = 4;

#[derive(Clone, Copy, Default)]
struct Entry {
    valid: bool,
    tag: u64,
    target: u64,
    /// Lower = more recently used.
    lru: u8,
}

/// Set-associative branch target buffer.
pub struct Btb {
    sets: usize,
    entries: Vec<Entry>,
}

impl Btb {
    /// `entries` must be a multiple of the associativity (4).
    pub fn new(entries: usize) -> Self {
        assert!(
            entries >= WAYS && entries.is_multiple_of(WAYS),
            "BTB size must be a multiple of {WAYS}"
        );
        let sets = entries / WAYS;
        Btb { sets, entries: vec![Entry::default(); entries] }
    }

    /// The paper's configuration: 256 entries, 4-way.
    pub fn paper_config() -> Self {
        Self::new(256)
    }

    #[inline]
    fn set_range(&self, key: u64) -> std::ops::Range<usize> {
        let set = (key as usize) % self.sets;
        set * WAYS..(set + 1) * WAYS
    }

    /// Look up the predicted target for the branch identified by `key`,
    /// updating LRU on a hit.
    pub fn lookup(&mut self, key: u64) -> Option<Pc> {
        let r = self.set_range(key);
        let set = &mut self.entries[r];
        let w = set.iter().position(|e| e.valid && e.tag == key)?;
        let old = set[w].lru;
        for e in set.iter_mut() {
            if e.lru < old {
                e.lru += 1;
            }
        }
        set[w].lru = 0;
        Some(Pc(set[w].target))
    }

    /// Install/update the resolved target for `key` (LRU victim on fill).
    pub fn update(&mut self, key: u64, target: Pc) {
        let r = self.set_range(key);
        let set = &mut self.entries[r];
        let existing = set.iter().position(|e| e.valid && e.tag == key);
        let way = existing.unwrap_or_else(|| {
            set.iter()
                .enumerate()
                .max_by_key(|(_, e)| if e.valid { e.lru } else { u8::MAX })
                .map(|(i, _)| i)
                .unwrap()
        });
        // Age every way that was more recent than the claimed one. A fresh
        // fill (invalid entry or eviction) counts as least-recent, so all
        // other ways age.
        let old = if existing.is_some() { set[way].lru } else { u8::MAX };
        for e in set.iter_mut() {
            if e.lru < old {
                e.lru = e.lru.saturating_add(1);
            }
        }
        set[way] = Entry { valid: true, tag: key, target: target.0, lru: 0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_after_update() {
        let mut btb = Btb::paper_config();
        assert_eq!(btb.lookup(42), None);
        btb.update(42, Pc(0x2000));
        assert_eq!(btb.lookup(42), Some(Pc(0x2000)));
    }

    #[test]
    fn update_overwrites_target() {
        let mut btb = Btb::paper_config();
        btb.update(42, Pc(0x2000));
        btb.update(42, Pc(0x3000));
        assert_eq!(btb.lookup(42), Some(Pc(0x3000)));
    }

    #[test]
    fn lru_evicts_least_recent_within_set() {
        let mut btb = Btb::new(4); // one set of 4 ways
        for k in 0..4u64 {
            btb.update(k, Pc(k * 0x100));
        }
        // Touch 0..3 except 1; then a 5th key must evict key 1.
        assert!(btb.lookup(0).is_some());
        assert!(btb.lookup(2).is_some());
        assert!(btb.lookup(3).is_some());
        btb.update(4, Pc(0x400));
        assert_eq!(btb.lookup(1), None, "LRU way should have been evicted");
        assert!(btb.lookup(0).is_some());
        assert!(btb.lookup(4).is_some());
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut btb = Btb::new(8); // 2 sets × 4 ways
        for k in (0..8u64).map(|i| i * 2) {
            // even keys -> set 0
            btb.update(k, Pc(k));
        }
        btb.update(1, Pc(0x999)); // set 1
        assert_eq!(btb.lookup(1), Some(Pc(0x999)));
    }

    #[test]
    #[should_panic]
    fn rejects_non_multiple_of_ways() {
        let _ = Btb::new(6);
    }
}
