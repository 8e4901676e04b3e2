//! The paper's experiment: BEST / HEUR / WORST mapping envelopes per
//! (microarchitecture, workload) — the data behind Figs 4 and 5.
//!
//! An envelope is three cells of one campaign: the `best` and `worst`
//! oracle policies (every distinct thread-to-pipeline mapping simulated
//! at a reduced search budget, the extremes re-simulated at full length)
//! and the §2.1 `heur` heuristic. [`run_paper_experiments`] runs that
//! campaign through the campaign engine — cached when the spec names a
//! `cache_dir` — and folds each (arch, workload) cell triple into one
//! [`EnvelopeResult`].

use hdsmt_campaign::engine::open_cache;
use hdsmt_campaign::{
    run_campaign_with, Budget, CampaignError, CampaignSpec, Catalog, CellResult, JobRunner,
};
use hdsmt_pipeline::MicroArch;

use crate::tables::WorkloadClass;

/// The envelope campaign over all six microarchitectures × Tables 2–3.
/// Workers are left to the runner's default; the `heur` miss profile is
/// the engine's default 300k-instruction synthetic profile.
fn envelope_spec(budget: Budget) -> CampaignSpec {
    CampaignSpec {
        name: Some("paper-envelopes".to_string()),
        archs: MicroArch::paper_set().into_iter().map(|a| a.name).collect(),
        workloads: vec!["all".to_string()],
        policies: Some(["best", "heur", "worst"].map(String::from).to_vec()),
        budget: Some(budget),
        seed: Some(0x5eed),
        workers: None,
        cache_dir: None,
        profile_insts: None,
        extra_workloads: None,
        use_rv_workloads: None,
    }
}

/// Full reproduction scale (the `reproduce` binary). The paper measures
/// 300 M instructions per thread; these runs are scaled down, so absolute
/// IPCs differ while the orderings between machines are the target.
pub fn paper_spec() -> CampaignSpec {
    envelope_spec(Budget { measure_insts: 120_000, warmup_insts: 60_000, search_insts: 25_000 })
}

/// Reduced scale for tests, smoke benches and `reproduce --quick`.
pub fn quick_spec() -> CampaignSpec {
    envelope_spec(Budget { measure_insts: 12_000, warmup_insts: 8_000, search_insts: 5_000 })
}

/// BEST/HEUR/WORST outcome for one (microarchitecture, workload) cell.
#[derive(Clone, Debug, serde::Serialize)]
pub struct EnvelopeResult {
    pub arch: String,
    pub workload: String,
    pub class: WorkloadClass,
    pub threads: usize,
    pub best_ipc: f64,
    pub best_mapping: Vec<u8>,
    pub heur_ipc: f64,
    pub heur_mapping: Vec<u8>,
    pub worst_ipc: f64,
    pub worst_mapping: Vec<u8>,
    /// Size of the oracle search space (distinct mappings).
    pub n_mappings: usize,
}

impl EnvelopeResult {
    /// HEUR accuracy relative to the oracle (the paper's "92% average
    /// accuracy" metric).
    pub fn heur_accuracy(&self) -> f64 {
        if self.best_ipc == 0.0 {
            1.0
        } else {
            self.heur_ipc / self.best_ipc
        }
    }
}

/// Fold the `best`/`heur`/`worst` cells of one (arch, workload) into its
/// envelope. A missing or failed cell is an error naming that cell.
fn fold_envelope(cells: &[CellResult]) -> Result<EnvelopeResult, CampaignError> {
    let (arch, workload) = (&cells[0].arch, &cells[0].workload);
    let cell = |policy: &str| match cells.iter().find(|c| c.policy == policy) {
        None => Err(CampaignError(format!("{arch}/{workload}: spec has no `{policy}` policy"))),
        Some(CellResult { error: Some(e), .. }) => {
            Err(CampaignError(format!("cell {arch}/{workload}/{policy} failed: {e}")))
        }
        Some(c) => Ok(c),
    };
    let (best, heur, worst) = (cell("best")?, cell("heur")?, cell("worst")?);
    let class = heur.class.as_deref().and_then(WorkloadClass::from_label).ok_or_else(|| {
        CampaignError(format!("{arch}/{workload}: workload has no paper class label"))
    })?;
    // The measured (full-length) envelope must stay ordered even if the
    // short search mispicked: clamp so BEST ≥ HEUR ≥ WORST holds by
    // definition of an envelope.
    Ok(EnvelopeResult {
        arch: arch.clone(),
        workload: workload.clone(),
        class,
        threads: heur.threads,
        best_ipc: best.ipc.max(heur.ipc),
        best_mapping: best.mapping.clone(),
        heur_ipc: heur.ipc,
        heur_mapping: heur.mapping.clone(),
        worst_ipc: worst.ipc.min(heur.ipc),
        worst_mapping: worst.mapping.clone(),
        n_mappings: best.n_mappings,
    })
}

/// Metric selector for aggregation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Metric {
    Best,
    Heur,
    Worst,
}

/// Results of the full campaign: every (arch, workload) envelope plus the
/// area table.
#[derive(Clone, Debug, serde::Serialize)]
pub struct PaperResults {
    pub envelopes: Vec<EnvelopeResult>,
    /// (arch name, total mm²).
    pub areas: Vec<(String, f64)>,
    pub config: CampaignSpec,
}

impl PaperResults {
    pub fn area_of(&self, arch: &str) -> f64 {
        self.areas.iter().find(|(n, _)| n == arch).map(|(_, a)| *a).unwrap_or(f64::NAN)
    }

    fn pick(e: &EnvelopeResult, m: Metric) -> f64 {
        match m {
            Metric::Best => e.best_ipc,
            Metric::Heur => e.heur_ipc,
            Metric::Worst => e.worst_ipc,
        }
    }

    /// Harmonic mean of IPC over the workloads of `class` (all sizes if
    /// `threads` is `None`), for one arch and metric — one bar of Fig 4.
    pub fn hmean_ipc(
        &self,
        arch: &str,
        class: WorkloadClass,
        threads: Option<usize>,
        metric: Metric,
    ) -> f64 {
        let vals: Vec<f64> = self
            .envelopes
            .iter()
            .filter(|e| {
                e.arch == arch && e.class == class && threads.is_none_or(|t| e.threads == t)
            })
            .map(|e| Self::pick(e, metric))
            .collect();
        hdsmt_core::stats::harmonic_mean(&vals)
    }

    /// Same, in IPC per mm² — one bar of Fig 5.
    pub fn hmean_ipc_per_area(
        &self,
        arch: &str,
        class: WorkloadClass,
        threads: Option<usize>,
        metric: Metric,
    ) -> f64 {
        self.hmean_ipc(arch, class, threads, metric) / self.area_of(arch)
    }

    /// Harmonic-mean IPC over *all* workloads (the paper's global
    /// comparisons).
    pub fn hmean_ipc_all(&self, arch: &str, metric: Metric) -> f64 {
        let vals: Vec<f64> = self
            .envelopes
            .iter()
            .filter(|e| e.arch == arch)
            .map(|e| Self::pick(e, metric))
            .collect();
        hdsmt_core::stats::harmonic_mean(&vals)
    }
}

/// Run an envelope campaign (`policies = ["best", "heur", "worst"]`; see
/// [`paper_spec`] / [`quick_spec`]) over the paper catalog and fold its
/// cells into envelopes. The job totals go to stderr.
pub fn run_paper_experiments(spec: &CampaignSpec) -> Result<PaperResults, CampaignError> {
    let cache = spec.cache_dir.as_ref().map(|_| open_cache(spec)).transpose()?;
    let runner = JobRunner::new(spec.workers.unwrap_or(0) as usize, cache);
    let campaign = run_campaign_with(spec, &Catalog::paper(), &runner)?;
    let r = &campaign.report;
    eprintln!("{} jobs ({} cache hits, {} simulated)", r.total, r.cache_hits, r.simulated);

    let mut envelopes = Vec::new();
    let mut areas: Vec<(String, f64)> = Vec::new();
    // Cells come in arch × workload × policy order, so each envelope's
    // cells are adjacent.
    for cells in campaign.cells.chunk_by(|a, b| a.arch == b.arch && a.workload == b.workload) {
        envelopes.push(fold_envelope(cells)?);
        if !areas.iter().any(|(name, _)| *name == cells[0].arch) {
            areas.push((cells[0].arch.clone(), cells[0].area_mm2));
        }
    }
    Ok(PaperResults { envelopes, areas, config: spec.clone() })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-arch, one-workload envelope spec at quick scale.
    fn one_cell(arch: &str, workload: &str) -> CampaignSpec {
        let mut spec = quick_spec();
        spec.archs = vec![arch.to_string()];
        spec.workloads = vec![workload.to_string()];
        spec.profile_insts = Some(50_000);
        spec
    }

    fn envelope(spec: &CampaignSpec) -> EnvelopeResult {
        let mut r = run_paper_experiments(spec).unwrap();
        assert_eq!(r.envelopes.len(), 1);
        r.envelopes.remove(0)
    }

    #[test]
    fn envelope_ordering_holds() {
        let e = envelope(&one_cell("2M4+2M2", "2W7")); // gzip+twolf (MIX)
        assert_eq!(e.class, WorkloadClass::Mix);
        assert!(e.best_ipc >= e.heur_ipc, "{e:?}");
        assert!(e.heur_ipc >= e.worst_ipc, "{e:?}");
        assert!(e.n_mappings > 1);
        assert!(e.heur_accuracy() <= 1.0 + 1e-12);
    }

    #[test]
    fn monolithic_envelope_is_degenerate() {
        let e = envelope(&one_cell("M8", "2W1"));
        assert_eq!(e.n_mappings, 1);
        assert_eq!(e.best_ipc, e.heur_ipc);
        assert_eq!(e.heur_ipc, e.worst_ipc);
    }

    #[test]
    fn cached_envelope_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("hdsmt-envelope-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = one_cell("2M4+2M2", "2W7");
        spec.budget =
            Some(Budget { measure_insts: 3_000, warmup_insts: 1_000, search_insts: 1_500 });
        spec.cache_dir = Some(dir.to_string_lossy().into_owned());
        let cold = envelope(&spec);
        let warm = envelope(&spec);
        assert_eq!(cold.best_ipc.to_bits(), warm.best_ipc.to_bits());
        assert_eq!(cold.heur_ipc.to_bits(), warm.heur_ipc.to_bits());
        assert_eq!(cold.worst_ipc.to_bits(), warm.worst_ipc.to_bits());
        assert_eq!(cold.best_mapping, warm.best_mapping);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The fixture holds the envelopes of the standalone engine this fold
    /// replaced (its own mapping enumeration, search, best/worst pick and
    /// measure runs), recorded with the spec stored beside them. Same
    /// seeds, budgets and profile give the same jobs, so the fold must
    /// reproduce them bit for bit.
    #[test]
    fn fold_reproduces_recorded_envelopes() {
        let fixture: serde_json::Value =
            serde_json::from_str(include_str!("../tests/fixtures/envelopes_tiny.json")).unwrap();
        let spec: CampaignSpec = serde_json::from_value(fixture.get("spec").unwrap()).unwrap();
        let expected = fixture.get("envelopes").and_then(|v| v.as_array()).unwrap();
        let r = run_paper_experiments(&spec).unwrap();
        assert_eq!(r.envelopes.len(), expected.len());
        for (e, want) in r.envelopes.iter().zip(expected) {
            let got = serde_json::json!({
                "arch": e.arch,
                "workload": e.workload,
                "class": e.class.label(),
                "threads": e.threads,
                "n_mappings": e.n_mappings,
                "best_ipc_bits": e.best_ipc.to_bits(),
                "best_mapping": e.best_mapping,
                "heur_ipc_bits": e.heur_ipc.to_bits(),
                "heur_mapping": e.heur_mapping,
                "worst_ipc_bits": e.worst_ipc.to_bits(),
                "worst_mapping": e.worst_mapping,
            });
            assert_eq!(&got, want);
        }
    }

    #[test]
    fn failed_cell_is_an_error_naming_it() {
        let cell = |policy: &str, error: Option<&str>| CellResult {
            arch: "3M4".into(),
            workload: "2W7".into(),
            class: Some("MIX".into()),
            threads: 2,
            policy: policy.into(),
            mapping: vec![0, 1],
            ipc: 1.0,
            cycles: 1,
            retired: 1,
            area_mm2: 1.0,
            n_mappings: 2,
            error: error.map(String::from),
        };
        let ok = [cell("best", None), cell("heur", None), cell("worst", None)];
        assert!(fold_envelope(&ok).is_ok());
        let failed = [cell("best", None), cell("heur", Some("timed out")), cell("worst", None)];
        let err = fold_envelope(&failed).unwrap_err().0;
        assert!(err.contains("3M4/2W7/heur") && err.contains("timed out"), "{err}");
        let err = fold_envelope(&ok[..2]).unwrap_err().0;
        assert!(err.contains("worst"), "{err}");
    }
}
