//! Deterministic expansion of a [`CampaignSpec`] into the cell matrix.
//!
//! Order is fixed — `archs × workloads × policies`, each in spec order,
//! selectors resolved in catalog order — so the same spec always produces
//! the same matrix, with the same per-thread seeds, and hence the same
//! cache keys.

use hdsmt_pipeline::MicroArch;

use crate::catalog::{Catalog, CatalogEntry};
use crate::job::{CampaignError, JobSpec, JobThread};
use crate::spec::{Budget, CampaignSpec};

/// Mapping policy of one cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Policy {
    /// The §2.1 profile-guided heuristic.
    Heur,
    /// Threads dealt to pipelines in order.
    RoundRobin,
    /// Seeded random capacity-respecting assignment.
    Random(u64),
    /// Oracle best over all distinct mappings (search at reduced budget).
    Best,
    /// Oracle worst (the envelope's lower edge).
    Worst,
}

impl Policy {
    pub fn parse(s: &str) -> Result<Self, CampaignError> {
        let lower = s.to_ascii_lowercase();
        if let Some(seed) = lower.strip_prefix("random:") {
            let seed = seed
                .parse::<u64>()
                .map_err(|_| CampaignError(format!("bad random seed in `{s}`")))?;
            return Ok(Policy::Random(seed));
        }
        match lower.as_str() {
            "heur" | "heuristic" => Ok(Policy::Heur),
            "rr" | "round-robin" | "roundrobin" => Ok(Policy::RoundRobin),
            "best" => Ok(Policy::Best),
            "worst" => Ok(Policy::Worst),
            _ => Err(CampaignError(format!(
                "unknown policy `{s}` (expected heur|rr|random:<seed>|best|worst)"
            ))),
        }
    }

    pub fn label(&self) -> String {
        match self {
            Policy::Heur => "heur".into(),
            Policy::RoundRobin => "rr".into(),
            Policy::Random(seed) => format!("random:{seed}"),
            Policy::Best => "best".into(),
            Policy::Worst => "worst".into(),
        }
    }

    /// Does this policy need an oracle mapping search?
    pub fn is_oracle(&self) -> bool {
        matches!(self, Policy::Best | Policy::Worst)
    }
}

/// One cell of the campaign matrix: a (microarchitecture, workload,
/// policy) combination to be measured.
#[derive(Clone, Debug)]
pub struct Cell {
    pub arch: String,
    pub workload: CatalogEntry,
    pub policy: Policy,
    /// Per-thread stream seeds (deterministic from the campaign seed).
    pub seeds: Vec<u64>,
}

impl Cell {
    pub fn threads(&self) -> Vec<JobThread> {
        self.workload
            .benchmarks
            .iter()
            .zip(&self.seeds)
            .map(|(b, &seed)| JobThread { bench: b.clone(), seed })
            .collect()
    }

    /// The measure-phase job for this cell under `mapping`.
    pub fn job(&self, mapping: Vec<u8>, budget: &Budget) -> JobSpec {
        JobSpec {
            arch: self.arch.clone(),
            threads: self.threads(),
            mapping,
            max_insts: budget.measure_insts,
            warmup_insts: budget.warmup_insts,
            fetch_policy: None,
            regfile_lat: None,
        }
    }

    /// A search-phase job (reduced budget, halved warm-up).
    pub fn search_job(&self, mapping: Vec<u8>, budget: &Budget) -> JobSpec {
        JobSpec {
            arch: self.arch.clone(),
            threads: self.threads(),
            mapping,
            max_insts: budget.search_insts,
            warmup_insts: budget.warmup_insts / 2,
            fetch_policy: None,
            regfile_lat: None,
        }
    }
}

/// One daemon's slice of a sharded campaign: `index` of `count` shards.
///
/// **Ownership rule:** a cell belongs to shard `i` iff the first eight
/// bytes of `SHA-256("<arch>\x1f<workload id>\x1f<policy>")`, read as a
/// big-endian `u64`, equal `i` modulo `count`. The hash covers the cell's
/// *identity* — not its mapping or budget — so every process pointed at
/// the same spec partitions the matrix identically without coordination,
/// and `best`/`worst` cells of one workload can land on different shards
/// (their shared search sweep is then run by each owner; the
/// content-addressed cache coalesces the duplicate sub-jobs after the
/// first writer lands). Shards cover the matrix exactly: every cell has
/// one owner, no cell has two.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct ShardSpec {
    pub index: u32,
    pub count: u32,
}

impl ShardSpec {
    /// Parse `"i/n"` (e.g. `0/2`), requiring `i < n` and `n ≥ 1`.
    pub fn parse(s: &str) -> Result<Self, CampaignError> {
        let bad = || CampaignError(format!("bad shard `{s}` (expected i/n with i < n)"));
        let (i, n) = s.split_once('/').ok_or_else(bad)?;
        let index = i.trim().parse::<u32>().map_err(|_| bad())?;
        let count = n.trim().parse::<u32>().map_err(|_| bad())?;
        if count == 0 || index >= count {
            return Err(bad());
        }
        Ok(ShardSpec { index, count })
    }

    pub fn label(&self) -> String {
        format!("{}/{}", self.index, self.count)
    }

    /// Does this shard own `cell`?
    pub fn owns(&self, cell: &Cell) -> bool {
        cell_shard(cell, self.count) == self.index
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The owning shard index of `cell` among `count` shards (see
/// [`ShardSpec`] for the rule).
pub fn cell_shard(cell: &Cell, count: u32) -> u32 {
    let identity = format!("{}\x1f{}\x1f{}", cell.arch, cell.workload.id, cell.policy.label());
    let digest = crate::hash::sha256(identity.as_bytes());
    let h = u64::from_be_bytes(digest[..8].try_into().unwrap());
    (h % count.max(1) as u64) as u32
}

/// Deterministic per-thread stream seed, so identical runs share cache
/// entries.
pub fn thread_seed(base: u64, workload_id: &str, position: usize) -> u64 {
    let mut h = base ^ 0x9e37_79b9_7f4a_7c15;
    for b in workload_id.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h ^ (position as u64) << 32
}

/// Expand `spec` against `catalog` into the ordered cell matrix.
///
/// Fails (rather than silently skipping) on unknown selectors, unknown
/// architectures, and workloads that exceed an architecture's contexts.
pub fn expand(spec: &CampaignSpec, catalog: &Catalog) -> Result<Vec<Cell>, CampaignError> {
    // Fold inline extra workloads into a working catalog copy.
    let mut catalog = catalog.clone();
    for extra in spec.extra_workloads.clone().unwrap_or_default() {
        for b in &extra.benchmarks {
            if !hdsmt_core::ThreadSpec::exists(b) {
                return Err(CampaignError(format!(
                    "extra workload `{}`: unknown benchmark `{b}`",
                    extra.id
                )));
            }
        }
        if extra.benchmarks.is_empty() {
            return Err(CampaignError(format!("extra workload `{}` has no benchmarks", extra.id)));
        }
        if catalog.get(&extra.id).is_some() {
            return Err(CampaignError(format!(
                "extra workload `{}` collides with an existing catalog id",
                extra.id
            )));
        }
        catalog = catalog.with_entry(CatalogEntry {
            id: extra.id,
            benchmarks: extra.benchmarks,
            class: extra.class,
        });
    }

    let archs: Vec<MicroArch> = spec
        .archs
        .iter()
        .map(|name| {
            MicroArch::parse(name).map_err(|e| CampaignError(format!("arch `{name}`: {e}")))
        })
        .collect::<Result<_, _>>()?;

    let mut workloads: Vec<CatalogEntry> = Vec::new();
    for selector in &spec.workloads {
        let matched = catalog.resolve(selector);
        if matched.is_empty() {
            return Err(CampaignError(format!("workload selector `{selector}` matched nothing")));
        }
        for m in matched {
            if !workloads.iter().any(|w| w.id == m.id) {
                workloads.push(m.clone());
            }
        }
    }

    let policies: Vec<Policy> =
        spec.policies().iter().map(|p| Policy::parse(p)).collect::<Result<_, _>>()?;

    let base_seed = spec.seed();
    let mut cells = Vec::new();
    for (arch, arch_name) in archs.iter().zip(&spec.archs) {
        for w in &workloads {
            if w.threads() > arch.max_threads as usize {
                return Err(CampaignError(format!(
                    "workload {} ({} threads) exceeds {arch_name}'s {} contexts",
                    w.id,
                    w.threads(),
                    arch.max_threads
                )));
            }
            let seeds: Vec<u64> =
                (0..w.threads()).map(|i| thread_seed(base_seed, &w.id, i)).collect();
            for policy in &policies {
                cells.push(Cell {
                    arch: arch_name.clone(),
                    workload: w.clone(),
                    policy: policy.clone(),
                    seeds: seeds.clone(),
                });
            }
        }
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(workloads: &[&str], policies: &[&str]) -> CampaignSpec {
        CampaignSpec {
            name: None,
            archs: vec!["M8".into(), "2M4+2M2".into()],
            workloads: workloads.iter().map(|s| s.to_string()).collect(),
            policies: Some(policies.iter().map(|s| s.to_string()).collect()),
            budget: None,
            seed: Some(1),
            workers: None,
            cache_dir: None,
            profile_insts: None,
            extra_workloads: None,
            use_rv_workloads: None,
        }
    }

    #[test]
    fn expansion_is_deterministic_and_ordered() {
        let s = spec(&["MEM", "2W7"], &["heur", "rr"]);
        let catalog = Catalog::paper();
        let a = expand(&s, &catalog).unwrap();
        let b = expand(&s, &catalog).unwrap();
        assert_eq!(a.len(), 2 * 6 * 2); // 2 archs × (5 MEM + 2W7) × 2 policies
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arch, y.arch);
            assert_eq!(x.workload.id, y.workload.id);
            assert_eq!(x.policy, y.policy);
            assert_eq!(x.seeds, y.seeds);
        }
        // Spec order: all M8 cells first.
        assert!(a[..12].iter().all(|c| c.arch == "M8"));
        assert_eq!(a[0].workload.id, "2W4"); // first MEM workload in catalog order
    }

    #[test]
    fn duplicate_selectors_collapse() {
        let s = spec(&["2W7", "MIX"], &["heur"]);
        let cells = expand(&s, &Catalog::paper()).unwrap();
        // 2W7 is MIX: must appear once per arch, not twice.
        let m8_ids: Vec<&str> =
            cells.iter().filter(|c| c.arch == "M8").map(|c| c.workload.id.as_str()).collect();
        assert_eq!(m8_ids.iter().filter(|id| **id == "2W7").count(), 1);
    }

    #[test]
    fn errors_are_loud() {
        let catalog = Catalog::paper();
        assert!(expand(&spec(&["9W9"], &["heur"]), &catalog).is_err());
        let mut s = spec(&["2W1"], &["heur"]);
        s.archs = vec!["M5".into()];
        assert!(expand(&s, &catalog).is_err());
        // 6 threads do not fit on 2M2 (2 pipelines × 1 context).
        let mut s = spec(&["6W1"], &["heur"]);
        s.archs = vec!["2M2".into()];
        assert!(expand(&s, &catalog).is_err());
    }

    #[test]
    fn shards_partition_the_matrix_exactly() {
        let s = spec(&["MEM", "2W7", "MIX"], &["heur", "rr"]);
        let cells = expand(&s, &Catalog::paper()).unwrap();
        assert!(cells.len() > 10);
        for count in [1u32, 2, 3, 5] {
            let shards: Vec<ShardSpec> =
                (0..count).map(|index| ShardSpec { index, count }).collect();
            for cell in &cells {
                let owners = shards.iter().filter(|s| s.owns(cell)).count();
                assert_eq!(
                    owners, 1,
                    "cell {}/{} must have exactly one owner of {count}",
                    cell.arch, cell.workload.id
                );
            }
        }
        // A single shard owns everything.
        let solo = ShardSpec { index: 0, count: 1 };
        assert!(cells.iter().all(|c| solo.owns(c)));
        // Ownership is identity-stable: recomputing yields the same split.
        let first: Vec<u32> = cells.iter().map(|c| cell_shard(c, 4)).collect();
        let second: Vec<u32> = cells.iter().map(|c| cell_shard(c, 4)).collect();
        assert_eq!(first, second);
        // And with >1 shard on this matrix, work actually spreads.
        assert!(first.iter().any(|&s| s != first[0]), "degenerate split: {first:?}");
    }

    #[test]
    fn shard_spec_parses_and_rejects() {
        assert_eq!(ShardSpec::parse("0/2").unwrap(), ShardSpec { index: 0, count: 2 });
        assert_eq!(ShardSpec::parse("1/2").unwrap().label(), "1/2");
        assert!(ShardSpec::parse("2/2").is_err(), "index must be < count");
        assert!(ShardSpec::parse("0/0").is_err());
        assert!(ShardSpec::parse("1").is_err());
        assert!(ShardSpec::parse("a/b").is_err());
    }

    #[test]
    fn seeds_differ_by_thread_and_workload() {
        assert_eq!(thread_seed(1, "2W1", 0), thread_seed(1, "2W1", 0));
        assert_ne!(thread_seed(1, "2W1", 0), thread_seed(1, "2W1", 1));
        assert_ne!(thread_seed(1, "2W1", 0), thread_seed(1, "2W2", 0));
        assert_ne!(thread_seed(1, "2W1", 0), thread_seed(2, "2W1", 0));
    }
}
