//! The campaign engine: expand → resolve mappings → simulate (cached).
//!
//! Execution is phased so that *every* simulation — oracle mapping-search
//! runs included — goes through the cached [`JobRunner`]:
//!
//! 1. **Plan**: expand the spec into the deterministic cell matrix,
//!    derive the oracle search sweeps and every static mapping. `run`
//!    and `status` share this step.
//! 2. **Search** (only for `best`/`worst` cells): every distinct mapping
//!    of every oracle cell, flattened into one global batch.
//! 3. **Measure**: one full-length job per cell, mappings now known.
//!
//! Interrupting a campaign between (or inside) phases loses nothing:
//! completed jobs sit in the content-addressed cache and are not
//! re-simulated on the next run.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

use hdsmt_core::{enumerate_mappings, heuristic_mapping, MissProfile};
use hdsmt_pipeline::MicroArch;

use crate::cache::ResultCache;
use crate::catalog::Catalog;
use crate::job::{CampaignError, JobEvent, JobOutcome, JobRunner, JobSpec, RunReport};
use crate::matrix::{expand, Cell, Policy, ShardSpec};
use crate::spec::CampaignSpec;

/// Observer of one campaign run (all methods optional). Callbacks fire
/// from worker threads, so implementations must be `Sync`; the unit
/// implementation `()` observes nothing.
///
/// The serve daemon implements this to maintain the per-cell progress
/// counters behind `GET /campaigns/:id`.
pub trait CampaignProgress: Sync {
    /// The matrix was expanded (and shard-filtered): these are the cells
    /// this run will measure, in order.
    fn cells_expanded(&self, _cells: &[Cell]) {}
    /// The oracle search phase will run `_jobs` reduced-budget jobs.
    fn search_planned(&self, _jobs: usize) {}
    fn search_job_finished(&self, _outcome: JobOutcome) {}
    /// A cell's full-length measure job left the queue (`_cell` indexes
    /// the `cells_expanded` slice). Cancelled cells never start.
    fn cell_started(&self, _cell: usize) {}
    /// One full-length measure job per cell concluded.
    fn cell_finished(&self, _cell: usize, _outcome: JobOutcome) {}
}

impl CampaignProgress for () {}

/// Measured outcome of one cell.
#[derive(Clone, Debug, serde::Serialize)]
pub struct CellResult {
    pub arch: String,
    pub workload: String,
    pub class: Option<String>,
    pub threads: usize,
    pub policy: String,
    pub mapping: Vec<u8>,
    pub ipc: f64,
    pub cycles: u64,
    pub retired: u64,
    /// Architecture area (mm², §3 model) — for IPC/area tables.
    pub area_mm2: f64,
    /// Distinct mappings searched (oracle policies; 1 otherwise).
    pub n_mappings: usize,
    /// Why this cell failed (timeout budget exhausted, simulator panic);
    /// `None` for a measured cell. Failed cells carry zeroed numerics
    /// and are excluded from every aggregate.
    pub error: Option<String>,
}

impl CellResult {
    pub fn ipc_per_mm2(&self) -> f64 {
        self.ipc / self.area_mm2
    }

    /// Did this cell conclude without a measurement?
    pub fn failed(&self) -> bool {
        self.error.is_some()
    }
}

/// Full campaign outcome.
#[derive(Clone, Debug, serde::Serialize)]
pub struct CampaignResult {
    pub name: String,
    pub cells: Vec<CellResult>,
    /// Job counters across both phases (search + measure).
    pub report: RunReport,
}

impl CampaignResult {
    /// Cells of one (arch, policy) slice.
    pub fn slice<'a>(
        &'a self,
        arch: &'a str,
        policy: &'a str,
    ) -> impl Iterator<Item = &'a CellResult> + 'a {
        self.cells.iter().filter(move |c| c.arch == arch && c.policy == policy)
    }

    /// Harmonic-mean IPC over a slice (empty slice → 0). Failed cells
    /// are excluded — a harmonic mean with a zero term would be zero, so
    /// including them would poison the whole slice.
    pub fn hmean_ipc(&self, arch: &str, policy: &str) -> f64 {
        let v: Vec<f64> = self.slice(arch, policy).filter(|c| !c.failed()).map(|c| c.ipc).collect();
        hdsmt_core::stats::harmonic_mean(&v)
    }

    /// Cells that concluded without a measurement (watchdog timeout,
    /// simulator panic).
    pub fn failed_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.failed()).count()
    }
}

/// Per-profile-length memoized miss profiles: `heur` mappings are pure
/// functions of (benchmarks, profile), and profiling all 12 benchmarks is
/// ~100× one cell's simulation time — share it across cells and calls.
/// The bundled `rv:*` programs are profiled only when a campaign's heur
/// cells actually reference one (keyed separately so an rv-free campaign
/// never pays the emulation cost).
fn miss_profile(profile_insts: u64, with_rv: bool) -> Arc<MissProfile> {
    /// Memo key: (profile length, rv programs included).
    type ProfileMemo = HashMap<(u64, bool), Arc<MissProfile>>;
    static PROFILES: OnceLock<Mutex<ProfileMemo>> = OnceLock::new();
    let lock = PROFILES.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = lock.lock().unwrap();
    if let Some(hit) = map.get(&(profile_insts, with_rv)) {
        return hit.clone();
    }
    // The rv-extended profile layers on top of the synthetic base, so a
    // process running both rv and rv-free campaigns profiles the twelve
    // synthetic models once, not once per variant.
    let base = map
        .entry((profile_insts, false))
        .or_insert_with(|| Arc::new(MissProfile::build_with_len(profile_insts)))
        .clone();
    if !with_rv {
        return base;
    }
    let extended = Arc::new((*base).clone().with_rv_programs(profile_insts));
    map.insert((profile_insts, true), extended.clone());
    extended
}

/// Do any heur cells contain an `rv:*` thread (whose ranking needs the
/// rv programs profiled)?
fn heur_needs_rv(cells: &[Cell]) -> bool {
    cells.iter().any(|c| {
        c.policy == Policy::Heur
            && c.workload.benchmarks.iter().any(|b| b.starts_with(hdsmt_core::RV_BENCH_PREFIX))
    })
}

/// The mapping a `heur`/`rr`/`random` cell decides without simulating;
/// `None` for oracle cells, and for `heur` cells without a profile.
fn static_mapping(cell: &Cell, arch: &MicroArch, profile: Option<&MissProfile>) -> Option<Vec<u8>> {
    match &cell.policy {
        Policy::Heur => {
            let benchmarks: Vec<&str> =
                cell.workload.benchmarks.iter().map(String::as_str).collect();
            profile.map(|p| heuristic_mapping(arch, &benchmarks, p))
        }
        Policy::RoundRobin => {
            Some(hdsmt_core::mapping::round_robin_mapping(arch, cell.workload.threads()))
        }
        Policy::Random(seed) => {
            Some(hdsmt_core::mapping::random_mapping(arch, cell.workload.threads(), *seed))
        }
        Policy::Best | Policy::Worst => None,
    }
}

/// One search sweep per distinct (arch, workload): `best` and `worst`
/// cells of the same pair share it rather than enqueueing duplicate jobs.
struct SearchSweep {
    cell_indices: Vec<usize>,
    mappings: Vec<Vec<u8>>,
    job_range: Range<usize>,
}

/// Everything a campaign will run, derived once from its spec.
struct Plan {
    /// The expanded (and shard-filtered) cells, in measure order.
    cells: Vec<Cell>,
    /// Each cell's parsed architecture, by name.
    archs: HashMap<String, MicroArch>,
    sweeps: Vec<SearchSweep>,
    /// The oracle search batch; each sweep owns a contiguous range.
    search_jobs: Vec<JobSpec>,
    /// Per cell: its [`static_mapping`].
    static_mappings: Vec<Option<Vec<u8>>>,
}

/// Plan `spec` (or one shard of it). `with_profile` builds the miss
/// profile that `heur` mappings need; without it those cells stay
/// unresolved. `progress` hears about the cells as soon as they are
/// expanded, before any profiling.
fn plan(
    spec: &CampaignSpec,
    catalog: &Catalog,
    shard: Option<ShardSpec>,
    with_profile: bool,
    progress: &dyn CampaignProgress,
) -> Result<Plan, CampaignError> {
    let mut cells = expand(spec, catalog)?;
    if let Some(shard) = shard {
        cells.retain(|c| shard.owns(c));
    }
    progress.cells_expanded(&cells);
    let budget = spec.budget();

    // Parse each arch once; expansion already validated them.
    let mut archs: HashMap<String, MicroArch> = HashMap::new();
    for cell in &cells {
        if !archs.contains_key(&cell.arch) {
            archs.insert(cell.arch.clone(), MicroArch::parse(&cell.arch).map_err(CampaignError)?);
        }
    }

    let profile = (with_profile && cells.iter().any(|c| c.policy == Policy::Heur))
        .then(|| miss_profile(spec.profile_insts.unwrap_or(300_000), heur_needs_rv(&cells)));

    let mut search_jobs: Vec<JobSpec> = Vec::new();
    let mut sweeps: Vec<SearchSweep> = Vec::new();
    let mut sweep_of: HashMap<(&str, &str), usize> = HashMap::new();
    let mut static_mappings = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let arch = &archs[&cell.arch];
        static_mappings.push(static_mapping(cell, arch, profile.as_deref()));
        if !cell.policy.is_oracle() {
            continue;
        }
        let pair = (cell.arch.as_str(), cell.workload.id.as_str());
        if let Some(&s) = sweep_of.get(&pair) {
            sweeps[s].cell_indices.push(i);
            continue;
        }
        let mappings = enumerate_mappings(arch, cell.workload.threads());
        let start = search_jobs.len();
        search_jobs.extend(mappings.iter().map(|m| cell.search_job(m.clone(), &budget)));
        sweep_of.insert(pair, sweeps.len());
        sweeps.push(SearchSweep {
            cell_indices: vec![i],
            mappings,
            job_range: start..search_jobs.len(),
        });
    }
    Ok(Plan { cells, archs, sweeps, search_jobs, static_mappings })
}

/// Index of the best and worst mapping by score (ties broken by mapping
/// bytes, so the outcome is independent of enumeration details).
pub fn best_worst(mappings: &[Vec<u8>], scores: &[f64]) -> (usize, usize) {
    let mut bi = 0;
    let mut wi = 0;
    for i in 1..scores.len() {
        if scores[i] > scores[bi] || (scores[i] == scores[bi] && mappings[i] < mappings[bi]) {
            bi = i;
        }
        if scores[i] < scores[wi] || (scores[i] == scores[wi] && mappings[i] < mappings[wi]) {
            wi = i;
        }
    }
    (bi, wi)
}

/// The built-in catalog a spec asks for: the paper's Tables 2–3, plus
/// the program-backed RV64I workloads when `use_rv_workloads = true`.
pub fn catalog_for(spec: &CampaignSpec) -> Catalog {
    if spec.use_rv_workloads() {
        Catalog::paper_with_rv()
    } else {
        Catalog::paper()
    }
}

/// Parse spec text and expand it (cheap, no simulation), so selector,
/// arch and capacity errors surface at admission — a daemon's 400, or a
/// pending file dropped at replay — instead of as a failed campaign.
pub fn admit(spec_text: &str) -> Result<CampaignSpec, CampaignError> {
    let spec = CampaignSpec::parse(spec_text)?;
    expand(&spec, &catalog_for(&spec))?;
    Ok(spec)
}

/// Open the spec's cache (default directory `.hdsmt-cache`).
pub fn open_cache(spec: &CampaignSpec) -> Result<ResultCache, CampaignError> {
    let dir = spec.cache_dir.clone().unwrap_or_else(|| ".hdsmt-cache".to_string());
    ResultCache::open(dir).map_err(|e| CampaignError(format!("cannot open cache: {e}")))
}

/// Build the runner a spec asks for (worker count + cache directory).
pub fn runner_for(spec: &CampaignSpec) -> Result<JobRunner, CampaignError> {
    let cache = open_cache(spec)?;
    Ok(JobRunner::new(spec.workers.unwrap_or(0) as usize, Some(cache)))
}

/// Run a campaign through an explicit runner (tests inject a tmp cache;
/// the CLI uses [`runner_for`]).
pub fn run_campaign_with(
    spec: &CampaignSpec,
    catalog: &Catalog,
    runner: &JobRunner,
) -> Result<CampaignResult, CampaignError> {
    run_campaign_observed(spec, catalog, runner, None, &())
}

/// [`run_campaign_with`] plus the daemon's two hooks: an optional
/// [`ShardSpec`] restricting this run to the cells it owns (the other
/// shards' cells are neither searched nor measured here), and a
/// [`CampaignProgress`] observer fed per-job completion events. Cache
/// keys, phase structure, and panic isolation are identical to the
/// unobserved path.
pub fn run_campaign_observed(
    spec: &CampaignSpec,
    catalog: &Catalog,
    runner: &JobRunner,
    shard: Option<ShardSpec>,
    progress: &dyn CampaignProgress,
) -> Result<CampaignResult, CampaignError> {
    let Plan { cells, archs, sweeps, search_jobs, static_mappings } =
        plan(spec, catalog, shard, true, progress)?;
    let budget = spec.budget();

    // ---- phase 1: oracle mapping search, flattened across cells ----
    progress.search_planned(search_jobs.len());
    let search_results = runner
        .try_run_all(&search_jobs, &|_, event| {
            if let JobEvent::Finished(outcome) = event {
                progress.search_job_finished(outcome);
            }
        })?
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;

    // ---- reduce: chosen mapping per cell ----
    let mut chosen: Vec<Option<(Vec<u8>, usize)>> =
        static_mappings.into_iter().map(|m| m.map(|m| (m, 1))).collect();
    for sweep in &sweeps {
        let scores: Vec<f64> =
            search_results[sweep.job_range.clone()].iter().map(|r| r.ipc()).collect();
        let (bi, wi) = best_worst(&sweep.mappings, &scores);
        for &ci in &sweep.cell_indices {
            let pick = match cells[ci].policy {
                Policy::Best => bi,
                Policy::Worst => wi,
                _ => unreachable!(),
            };
            chosen[ci] = Some((sweep.mappings[pick].clone(), sweep.mappings.len()));
        }
    }
    let chosen: Vec<(Vec<u8>, usize)> =
        chosen.into_iter().map(|c| c.expect("every cell's mapping resolves")).collect();

    // ---- phase 2: full-length measurement, one job per cell ----
    let measure_jobs: Vec<JobSpec> = cells
        .iter()
        .zip(&chosen)
        .map(|(cell, (mapping, _))| cell.job(mapping.clone(), &budget))
        .collect();
    // Per-cell fault isolation: a timed-out or panicking cell becomes a
    // failed `CellResult` (zeroed numerics, error message attached) and
    // the campaign completes around it — one wedged cell must not wipe
    // out hours of finished, cached cells.
    let measured = runner.try_run_all(&measure_jobs, &|i, event| match event {
        JobEvent::Started => progress.cell_started(i),
        JobEvent::Finished(outcome) => progress.cell_finished(i, outcome),
    })?;

    // Graceful shutdown keeps its all-or-nothing contract: cancelled jobs
    // fail the whole campaign (resumable from the cache on resubmit)
    // instead of quietly producing a result with holes.
    if runner.is_cancelled() {
        if let Some(err) = measured.iter().find_map(|r| r.as_ref().err()) {
            return Err(err.clone());
        }
    }

    let mut results = Vec::with_capacity(cells.len());
    for ((cell, (mapping, n_mappings)), sim) in cells.iter().zip(&chosen).zip(&measured) {
        let arch = &archs[cell.arch.as_str()];
        let (ipc, cycles, retired, error) = match sim {
            Ok(sim) => (sim.ipc(), sim.stats.cycles, sim.stats.retired, None),
            Err(e) => (0.0, 0, 0, Some(e.0.clone())),
        };
        results.push(CellResult {
            arch: cell.arch.clone(),
            workload: cell.workload.id.clone(),
            class: cell.workload.class.clone(),
            threads: cell.workload.threads(),
            policy: cell.policy.label(),
            mapping: mapping.clone(),
            ipc,
            cycles,
            retired,
            area_mm2: hdsmt_area::microarch_area(arch).total(),
            n_mappings: *n_mappings,
            error,
        });
    }

    Ok(CampaignResult {
        name: spec.display_name().to_string(),
        cells: results,
        report: runner.report(),
    })
}

/// Run a campaign with the runner the spec describes.
pub fn run_campaign(
    spec: &CampaignSpec,
    catalog: &Catalog,
) -> Result<CampaignResult, CampaignError> {
    let runner = runner_for(spec)?;
    run_campaign_with(spec, catalog, &runner)
}

/// Cache-state preview for `status`: how much of the campaign is already
/// on disk, without simulating anything.
#[derive(Clone, Debug, serde::Serialize)]
pub struct CampaignStatus {
    pub cells: usize,
    /// Search jobs implied by oracle cells.
    pub search_jobs: usize,
    pub search_cached: usize,
    /// Measure jobs whose mapping (and hence cache key) is already
    /// decidable without running the search phase.
    pub measure_known: usize,
    pub measure_cached: usize,
    /// Oracle measure jobs whose key depends on pending search results.
    pub measure_pending_search: usize,
}

pub fn status(
    spec: &CampaignSpec,
    catalog: &Catalog,
    cache: &ResultCache,
) -> Result<CampaignStatus, CampaignError> {
    // `heur` cache keys need the miss profile, which costs real profiling
    // simulations — only worth it if the cache could contain anything.
    // An empty cache trivially has zero coverage; report that without
    // simulating a single instruction.
    let empty = cache.is_empty();
    let plan = plan(spec, catalog, None, !empty, &())?;
    let budget = spec.budget();
    let cached = |job: &JobSpec| !empty && cache.contains(&job.key());
    let oracle_cells = plan.cells.iter().filter(|c| c.policy.is_oracle()).count();
    let measure_cached = plan
        .cells
        .iter()
        .zip(&plan.static_mappings)
        .filter_map(|(cell, mapping)| Some(cell.job(mapping.clone()?, &budget)))
        .filter(|job| cached(job))
        .count();
    Ok(CampaignStatus {
        cells: plan.cells.len(),
        search_jobs: plan.search_jobs.len(),
        search_cached: plan.search_jobs.iter().filter(|job| cached(job)).count(),
        measure_known: plan.cells.len() - oracle_cells,
        measure_cached,
        measure_pending_search: oracle_cells,
    })
}
