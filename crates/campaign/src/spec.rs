//! The declarative campaign specification (TOML or JSON).
//!
//! A spec names *what* to evaluate — microarchitectures × workloads ×
//! mapping policies × budgets — and the engine turns it into a
//! deterministic job matrix. Example (TOML):
//!
//! ```toml
//! name = "paper-smoke"
//! archs = ["M8", "3M4", "4M4", "2M4+2M2", "3M4+2M2", "1M6+2M4+2M2"]
//! workloads = ["2W7", "4W6", "MEM"]        # ids, classes, or NT groups
//! policies = ["heur", "rr"]                # heur|rr|random:<seed>|best|worst
//! seed = 24333
//!
//! [budget]
//! measure_insts = 12000
//! warmup_insts = 8000
//! search_insts = 5000                      # only used by best/worst
//!
//! [[extra_workloads]]                      # optional user workloads
//! id = "mine"
//! benchmarks = ["gzip", "mcf"]
//! ```

use crate::job::CampaignError;

/// Instruction budgets for one campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Budget {
    /// Per-thread retire target of the measured runs.
    pub measure_insts: u64,
    /// Committed instructions before statistics reset.
    pub warmup_insts: u64,
    /// Per-thread retire target of oracle mapping-search runs
    /// (`best`/`worst` policies only).
    pub search_insts: u64,
}

impl Default for Budget {
    fn default() -> Self {
        Budget { measure_insts: 30_000, warmup_insts: 15_000, search_insts: 8_000 }
    }
}

/// A user-defined workload declared inline in the spec.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ExtraWorkload {
    pub id: String,
    pub benchmarks: Vec<String>,
    pub class: Option<String>,
}

/// The parsed campaign specification.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CampaignSpec {
    /// Campaign name (labels exports; defaults to `campaign`).
    pub name: Option<String>,
    /// Microarchitecture names (`M8`, `2M4+2M2`, ...).
    pub archs: Vec<String>,
    /// Workload selectors: catalog ids (`2W1`), classes (`ILP`), thread
    /// groups (`4T`), `all`, or ids declared in `extra_workloads`.
    pub workloads: Vec<String>,
    /// Mapping policies per cell (default `["heur"]`).
    pub policies: Option<Vec<String>>,
    pub budget: Option<Budget>,
    /// Base seed for deterministic per-thread stream seeds.
    pub seed: Option<u64>,
    /// Worker threads (0 or absent = auto).
    pub workers: Option<u64>,
    /// Result-cache directory (defaults to `.hdsmt-cache`).
    pub cache_dir: Option<String>,
    /// Per-benchmark instruction budget when profiling for `heur`.
    pub profile_insts: Option<u64>,
    /// Workloads defined inline, usable from `workloads` by id.
    pub extra_workloads: Option<Vec<ExtraWorkload>>,
    /// Register the program-backed RV64I workloads (`RV2`, `XRV2`, …) in
    /// the catalog. Opt-in so specs using broad selectors (`all`, `2T`)
    /// keep their existing matrices and cache keys.
    pub use_rv_workloads: Option<bool>,
}

impl CampaignSpec {
    pub fn display_name(&self) -> &str {
        self.name.as_deref().unwrap_or("campaign")
    }

    pub fn budget(&self) -> Budget {
        self.budget.unwrap_or_default()
    }

    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(0x5eed)
    }

    pub fn policies(&self) -> Vec<String> {
        self.policies.clone().unwrap_or_else(|| vec!["heur".to_string()])
    }

    /// Should the catalog include the program-backed RV64I workloads?
    pub fn use_rv_workloads(&self) -> bool {
        self.use_rv_workloads.unwrap_or(false)
    }

    /// Parse a spec from TOML or JSON text (format auto-detected: JSON
    /// iff the first non-space byte is `{`).
    pub fn parse(text: &str) -> Result<Self, CampaignError> {
        let trimmed = text.trim_start();
        let value = if trimmed.starts_with('{') {
            serde_json::from_str_value(text)
                .map_err(|e| CampaignError(format!("spec JSON: {e}")))?
        } else {
            crate::toml::parse(text).map_err(|e| CampaignError(format!("spec TOML: {e}")))?
        };
        let spec: CampaignSpec = serde_json::from_value(&value)
            .map_err(|e| CampaignError(format!("spec shape: {e}")))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Load a spec file (`.toml` or `.json`).
    pub fn load(path: &std::path::Path) -> Result<Self, CampaignError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CampaignError(format!("cannot read {}: {e}", path.display())))?;
        Self::parse(&text)
    }

    fn validate(&self) -> Result<(), CampaignError> {
        if self.archs.is_empty() {
            return Err(CampaignError("spec has no archs".into()));
        }
        if self.workloads.is_empty() {
            return Err(CampaignError("spec has no workloads".into()));
        }
        for p in self.policies() {
            crate::matrix::Policy::parse(&p)?;
        }
        let b = self.budget();
        if b.measure_insts == 0 {
            return Err(CampaignError("budget.measure_insts must be positive".into()));
        }
        // A zero-length profile has no miss rate to rank threads by.
        if self.profile_insts == Some(0) {
            return Err(CampaignError("profile_insts must be positive".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOML_SPEC: &str = r#"
name = "smoke"
archs = ["M8", "2M4+2M2"]
workloads = ["2W7", "MEM"]
policies = ["heur", "random:7"]
seed = 99

[budget]
measure_insts = 4000
warmup_insts = 2000
search_insts = 1500

[[extra_workloads]]
id = "mine"
benchmarks = ["gzip", "mcf"]
class = "MIX"
"#;

    #[test]
    fn parses_toml() {
        let spec = CampaignSpec::parse(TOML_SPEC).unwrap();
        assert_eq!(spec.display_name(), "smoke");
        assert_eq!(spec.archs, vec!["M8", "2M4+2M2"]);
        assert_eq!(spec.seed(), 99);
        assert_eq!(spec.budget().measure_insts, 4000);
        let extra = spec.extra_workloads.as_ref().unwrap();
        assert_eq!(extra[0].id, "mine");
        assert_eq!(extra[0].benchmarks, vec!["gzip", "mcf"]);
    }

    #[test]
    fn parses_json() {
        let spec = CampaignSpec::parse(
            r#"{"archs": ["M8"], "workloads": ["2W1"], "budget":
               {"measure_insts": 1000, "warmup_insts": 500, "search_insts": 200}}"#,
        )
        .unwrap();
        assert_eq!(spec.display_name(), "campaign");
        assert_eq!(spec.policies(), vec!["heur"]);
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(CampaignSpec::parse(r#"{"archs": [], "workloads": ["2W1"]}"#).is_err());
        assert!(CampaignSpec::parse(r#"{"archs": ["M8"], "workloads": []}"#).is_err());
        assert!(CampaignSpec::parse(
            r#"{"archs": ["M8"], "workloads": ["2W1"], "policies": ["bogus"]}"#
        )
        .is_err());
    }

    #[test]
    fn rejects_a_zero_length_profile() {
        // Zero profiled instructions would rank `heur` threads by a NaN
        // miss rate; admission refuses the spec instead.
        let err = CampaignSpec::parse(
            r#"{"archs": ["2M4+2M2"], "workloads": ["2W1"], "profile_insts": 0}"#,
        )
        .unwrap_err();
        assert!(err.0.contains("profile_insts must be positive"), "{err}");
    }
}
