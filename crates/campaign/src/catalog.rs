//! Workload catalog: name → benchmark list resolution for campaign specs.
//!
//! Ships the paper's Tables 2–3 as the built-in catalog (the workspace's
//! only copy: `hdsmt-workloads` builds its typed table from it), and
//! accepts user-defined entries from spec files.

/// One named multiprogrammed workload.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CatalogEntry {
    pub id: String,
    pub benchmarks: Vec<String>,
    /// Paper classification label (`ILP` / `MEM` / `MIX`) when known.
    pub class: Option<String>,
}

impl CatalogEntry {
    pub fn threads(&self) -> usize {
        self.benchmarks.len()
    }
}

/// The paper's Tables 2 and 3 as plain static data.
pub const PAPER_WORKLOADS: &[(&str, &[&str], &str)] = &[
    // ---- two-threaded (Table 2, left) ----
    ("2W1", &["eon", "gcc"], "ILP"),
    ("2W2", &["crafty", "bzip2"], "ILP"),
    ("2W3", &["gap", "vortex"], "ILP"),
    ("2W4", &["mcf", "twolf"], "MEM"),
    ("2W5", &["vpr", "perlbmk"], "MEM"),
    ("2W6", &["vpr", "twolf"], "MEM"),
    ("2W7", &["gzip", "twolf"], "MIX"),
    ("2W8", &["crafty", "perlbmk"], "MIX"),
    ("2W9", &["parser", "vpr"], "MIX"),
    // ---- four-threaded (Table 2, right) ----
    ("4W1", &["eon", "gcc", "gzip", "bzip2"], "ILP"),
    ("4W2", &["crafty", "bzip2", "eon", "gzip"], "ILP"),
    ("4W3", &["gap", "vortex", "parser", "crafty"], "ILP"),
    ("4W4", &["mcf", "twolf", "vpr", "perlbmk"], "MEM"),
    ("4W5", &["vpr", "perlbmk", "mcf", "twolf"], "MEM"),
    ("4W6", &["gzip", "twolf", "bzip2", "mcf"], "MIX"),
    ("4W7", &["crafty", "perlbmk", "mcf", "bzip2"], "MIX"),
    ("4W8", &["parser", "vpr", "vortex", "twolf"], "MIX"),
    ("4W9", &["vpr", "twolf", "gap", "vortex"], "MIX"),
    // ---- six-threaded (Table 3) ----
    ("6W1", &["gzip", "gcc", "crafty", "eon", "gap", "bzip2"], "ILP"),
    ("6W2", &["gcc", "crafty", "parser", "eon", "gap", "vortex"], "ILP"),
    ("6W3", &["gzip", "vpr", "mcf", "eon", "perlbmk", "bzip2"], "MIX"),
    ("6W4", &["vpr", "mcf", "crafty", "perlbmk", "vortex", "twolf"], "MIX"),
];

/// Program-backed workloads: pure RV64I cells (`RV`) and mixed
/// synthetic+real cells (`XRV`). Opt-in via a spec's
/// `use_rv_workloads = true` (so existing specs using `all` / `2T`
/// selectors keep their exact matrices and cache keys).
pub const RV_WORKLOADS: &[(&str, &[&str], &str)] = &[
    ("RV2", &["rv:matmul", "rv:sort"], "RV"),
    ("RV4", &["rv:matmul", "rv:sort", "rv:prime", "rv:fib"], "RV"),
    ("XRV2", &["gzip", "rv:matmul"], "XRV"),
    ("XRV4", &["mcf", "rv:sort", "gzip", "rv:prime"], "XRV"),
];

fn entries_of(table: &[(&str, &[&str], &str)]) -> Vec<CatalogEntry> {
    table
        .iter()
        .map(|(id, benchmarks, class)| CatalogEntry {
            id: id.to_string(),
            benchmarks: benchmarks.iter().map(|b| b.to_string()).collect(),
            class: Some(class.to_string()),
        })
        .collect()
}

/// A resolvable set of named workloads.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    entries: Vec<CatalogEntry>,
}

impl Catalog {
    pub fn empty() -> Self {
        Catalog::default()
    }

    /// The built-in paper catalog (Tables 2–3).
    pub fn paper() -> Self {
        Catalog { entries: entries_of(PAPER_WORKLOADS) }
    }

    /// The paper catalog plus the program-backed RV64I workloads.
    pub fn paper_with_rv() -> Self {
        let mut c = Catalog::paper();
        c.entries.extend(entries_of(RV_WORKLOADS));
        c
    }

    pub fn with_entry(mut self, entry: CatalogEntry) -> Self {
        self.entries.push(entry);
        self
    }

    pub fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }

    /// Look up one workload by exact id.
    pub fn get(&self, id: &str) -> Option<&CatalogEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Resolve a workload *selector*: an exact id, `all`, a class label
    /// (`ILP`/`MEM`/`MIX`), or a thread-count group (`2T`/`4T`/`6T`).
    /// Returns entries in catalog order; an empty result means the
    /// selector matched nothing.
    pub fn resolve(&self, selector: &str) -> Vec<&CatalogEntry> {
        if let Some(e) = self.get(selector) {
            return vec![e];
        }
        let upper = selector.to_ascii_uppercase();
        if upper == "ALL" {
            return self.entries.iter().collect();
        }
        if let Some(class) = ["ILP", "MEM", "MIX", "RV", "XRV"].iter().find(|c| **c == upper) {
            return self.entries.iter().filter(|e| e.class.as_deref() == Some(*class)).collect();
        }
        if let Some(count) = upper.strip_suffix('T').and_then(|n| n.parse::<usize>().ok()) {
            return self.entries.iter().filter(|e| e.threads() == count).collect();
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_catalog_shape() {
        let c = Catalog::paper();
        assert_eq!(c.entries().len(), 22);
        assert_eq!(c.resolve("all").len(), 22);
        assert_eq!(c.resolve("2T").len(), 9);
        assert_eq!(c.resolve("4T").len(), 9);
        assert_eq!(c.resolve("6T").len(), 4);
        // MEM workloads exist only at 2 and 4 threads (§4): 3 + 2 = 5.
        assert_eq!(c.resolve("MEM").len(), 5);
        assert_eq!(c.resolve("mem").len(), 5);
        assert_eq!(c.resolve("2W7").len(), 1);
        assert!(c.resolve("9W9").is_empty());
    }

    #[test]
    fn all_paper_benchmarks_exist() {
        for e in Catalog::paper().entries() {
            for b in &e.benchmarks {
                assert!(hdsmt_trace::by_name(b).is_some(), "{}: unknown benchmark {b}", e.id);
            }
        }
    }

    #[test]
    fn rv_catalog_extends_without_disturbing_paper_selectors() {
        let c = Catalog::paper_with_rv();
        assert_eq!(c.entries().len(), 22 + RV_WORKLOADS.len());
        // Paper selectors keep their exact meaning…
        assert_eq!(c.resolve("MEM").len(), 5);
        // …while the new entries resolve by id and class.
        assert_eq!(c.resolve("RV").len(), 2);
        assert_eq!(c.resolve("XRV").len(), 2);
        assert_eq!(c.resolve("XRV2").len(), 1);
        // Every rv benchmark name resolves through either front-end.
        for e in c.entries() {
            for b in &e.benchmarks {
                assert!(hdsmt_core::ThreadSpec::exists(b), "{}: unknown benchmark {b}", e.id);
            }
        }
        // The default catalog stays rv-free: existing specs' matrices
        // (and hence cache keys) are untouched.
        assert!(Catalog::paper().get("RV2").is_none());
    }
}
