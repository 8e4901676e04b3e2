//! Shared daemon state: the campaign registry, per-campaign progress
//! counters, the bounded memo of finished results, and the global
//! service counters behind `GET /stats`. It is the only registry on
//! every daemon: a supervising one hands its campaigns to the fleet
//! [`Supervisor`] instead of the local queue, and the supervisor's
//! monitor writes the fleet-level view back into each entry.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::cache::ResultCache;
use crate::engine::{self, CampaignProgress, CampaignResult};
use crate::job::{CampaignError, JobOutcome, JobRunner, RunReport, Watchdog};
use crate::matrix::{Cell, ShardSpec};
use crate::pending::{self, Pending};
use crate::serve::queue::{BoundedQueue, PushError};
use crate::serve::supervisor::Supervisor;
use crate::spec::CampaignSpec;

/// Daemon configuration (CLI flags; every field has a usable default).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:8181` by default).
    pub addr: String,
    /// Result-cache directory — shared between shard workers.
    pub cache_dir: String,
    /// Simulation worker threads per running campaign (0 = auto). The
    /// daemon overrides any `workers` field in submitted specs.
    pub sim_workers: usize,
    /// Bounded campaign-queue capacity; beyond it, `POST /campaigns`
    /// returns 503.
    pub queue_cap: usize,
    /// This worker's slice of every submitted campaign (`--shard i/n`).
    pub shard: Option<ShardSpec>,
    /// Run as a fleet supervisor over N shard-worker child processes
    /// instead of executing campaigns in-process (`--supervise n`).
    pub supervise: Option<u32>,
    /// Binary to spawn supervised workers from. `None` = the current
    /// executable; tests point this at `CARGO_BIN_EXE_hdsmt-campaign`.
    pub worker_binary: Option<std::path::PathBuf>,
    /// Per-cell watchdog soft deadline (`--cell-deadline-ms`). `None`
    /// disables the watchdog.
    pub cell_deadline: Option<std::time::Duration>,
    /// Retries per timed-out cell before it is marked failed
    /// (`--cell-retries`).
    pub cell_retries: u32,
    /// Extra environment for supervised workers only (fault plans are
    /// injected here so the supervisor itself stays fault-free).
    pub child_env: Vec<(String, String)>,
    /// Record every accept durably under `<cache>/pending/` and replay
    /// the unfinished ones at startup. On by default; supervised *worker*
    /// children run with `--no-journal` because the fleet's pending
    /// directory at the supervisor is their source of truth (a worker
    /// restart is the supervisor's job, not replay's).
    pub journal: bool,
    /// Fsync cache entries before publishing them (`--durable`): extends
    /// the crash model from process death to host power loss, at the
    /// cost of one fsync + one directory fsync per simulated cell.
    pub durable: bool,
    /// Reap orphaned `*.tmp` files older than this at startup.
    pub tmp_reap_age: std::time::Duration,
    /// Peer daemons (`--peer host:port`) whose caches back this one: a
    /// local miss is retried against each peer's `GET /cells/:hash` and
    /// landed locally on success.
    pub peers: Vec<String>,
    /// Remote workers (`--worker host:port`) the supervisor adopts
    /// alongside (or instead of) spawned children.
    pub remote_workers: Vec<String>,
}

impl ServerConfig {
    /// The daemon owns the cache and worker budget: any `cache_dir` or
    /// `workers` fields in a submitted spec are overridden.
    pub(crate) fn own(&self, mut spec: CampaignSpec) -> CampaignSpec {
        spec.cache_dir = Some(self.cache_dir.clone());
        spec.workers = Some(self.sim_workers as u64);
        spec
    }

    /// A job runner on `cache` with the daemon's simulation threads and
    /// per-cell watchdog.
    fn runner(&self, cache: ResultCache) -> JobRunner {
        let watchdog =
            self.cell_deadline.map(|deadline| Watchdog { deadline, retries: self.cell_retries });
        JobRunner::new(self.sim_workers, Some(cache)).with_watchdog(watchdog)
    }
}

/// Run `spec` (daemon-owned, see [`ServerConfig::own`]), or one shard of
/// it, through the engine on `cache` with the daemon's runner and no
/// progress observer. Once the campaign has finished, every cell is a
/// cache hit, so this is pure reads: it computes a done campaign's
/// result when the memo does not hold it and re-owns a broken fleet
/// worker's shard. A failed cell was never cached, so a replay attempts
/// it again under the same watchdog.
pub(crate) fn replay(
    spec: &CampaignSpec,
    config: &ServerConfig,
    cache: ResultCache,
    shard: Option<ShardSpec>,
) -> Result<CampaignResult, CampaignError> {
    let catalog = engine::catalog_for(spec);
    engine::run_campaign_observed(spec, &catalog, &config.runner(cache), shard, &())
}

/// How many done campaigns keep their full [`CampaignResult`] (~6 KB
/// each) in memory. Older ones still answer `/campaigns/:id/results`:
/// [`replay`] recomputes the result from the cache.
pub const RESULTS_RETAINED: usize = 16;

/// The finished results held in memory, at most [`RESULTS_RETAINED`];
/// the one least recently finished or read is dropped first. Each
/// daemon's registry keeps one. Its lock is a leaf: callers take it
/// before a campaign entry's lock, never inside it.
#[derive(Debug, Default)]
pub(crate) struct ResultMemo {
    /// `(campaign id, result)`, most recently finished or read last.
    retained: Mutex<VecDeque<(String, Arc<CampaignResult>)>>,
}

impl ResultMemo {
    fn held(&self) -> MutexGuard<'_, VecDeque<(String, Arc<CampaignResult>)>> {
        // Every mutation is a single push or remove: valid after a panic.
        self.retained.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The retained result of `id`, now the most recently read.
    pub(crate) fn get(&self, id: &str) -> Option<Arc<CampaignResult>> {
        let mut held = self.held();
        let at = held.iter().position(|(held_id, _)| held_id == id)?;
        let hit = held.remove(at)?;
        let result = hit.1.clone();
        held.push_back(hit);
        Some(result)
    }

    /// Retain `result` as the most recent, dropping the oldest past the
    /// bound; returns the retained copy.
    pub(crate) fn put(&self, id: &str, result: CampaignResult) -> Arc<CampaignResult> {
        let result = Arc::new(result);
        let mut held = self.held();
        held.retain(|(held_id, _)| held_id != id);
        held.push_back((id.to_string(), result.clone()));
        while held.len() > RESULTS_RETAINED {
            held.pop_front();
        }
        result
    }

    pub(crate) fn len(&self) -> usize {
        self.held().len()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8181".into(),
            cache_dir: ".hdsmt-cache".into(),
            sim_workers: 0,
            queue_cap: 64,
            shard: None,
            supervise: None,
            worker_binary: None,
            cell_deadline: None,
            cell_retries: 2,
            child_env: Vec::new(),
            journal: true,
            durable: false,
            tmp_reap_age: std::time::Duration::from_secs(15 * 60),
            peers: Vec::new(),
            remote_workers: Vec::new(),
        }
    }
}

/// Lifecycle of one submitted campaign.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CampaignPhase {
    #[default]
    Queued,
    Running,
    Done,
    Failed,
    /// Interrupted by shutdown before completing — resubmit after restart
    /// to resume from the cache.
    Cancelled,
    /// Fleet only: a broken shard can no longer finish its slice.
    Degraded,
}

impl CampaignPhase {
    pub fn as_str(self) -> &'static str {
        match self {
            CampaignPhase::Queued => "queued",
            CampaignPhase::Running => "running",
            CampaignPhase::Done => "done",
            CampaignPhase::Failed => "failed",
            CampaignPhase::Cancelled => "cancelled",
            CampaignPhase::Degraded => "degraded",
        }
    }

    /// `done` and `failed` are terminal: counted once, pending file
    /// resolved, never run or backfilled again.
    pub(crate) fn is_settled(self) -> bool {
        matches!(self, CampaignPhase::Done | CampaignPhase::Failed)
    }
}

/// Per-cell progress counters of one campaign (measure phase; one job per
/// cell). Invariant once expanded: `queued + running + done + cached +
/// failed + cancelled == total`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CellCounts {
    pub total: usize,
    pub queued: usize,
    pub running: usize,
    /// Concluded by simulation.
    pub done: usize,
    /// Concluded from the content-addressed cache.
    pub cached: usize,
    pub failed: usize,
    pub cancelled: usize,
}

/// Oracle search-phase counters (reduced-budget mapping-search sub-jobs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SearchCounts {
    pub total: usize,
    pub finished: usize,
}

/// A campaign's mutable progress. A fleet monitor tick replaces it
/// whole with the view aggregated across shards.
#[derive(Debug, Default)]
pub(crate) struct CampaignInner {
    pub(crate) phase: CampaignPhase, // Default = Queued, so the entry is valid from birth
    pub(crate) cells: CellCounts,
    pub(crate) search: SearchCounts,
    pub(crate) error: Option<String>,
    /// Job counts of the local run that finished the campaign: a
    /// replayed result reports these, not its own all-hit counts. A fleet
    /// campaign has none, so its result keeps the replay's counts.
    pub(crate) report: Option<RunReport>,
}

/// One submitted campaign: immutable identity + mutable progress.
#[derive(Debug)]
pub struct CampaignEntry {
    pub id: String,
    pub name: String,
    /// The verbatim spec text the client submitted (what a fleet sends
    /// its workers).
    pub(crate) spec_text: String,
    /// The parsed spec, with the daemon's cache and worker budget.
    pub spec: CampaignSpec,
    inner: Mutex<CampaignInner>,
}

/// JSON shape of `GET /campaigns/:id` (and the list elements of
/// `GET /campaigns`).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct CampaignSnapshot {
    pub id: String,
    pub name: String,
    pub status: String,
    pub cells: CellCounts,
    pub search: SearchCounts,
    pub error: Option<String>,
}

impl CampaignEntry {
    fn new(id: String, spec_text: String, spec: CampaignSpec) -> Self {
        CampaignEntry {
            id,
            name: spec.display_name().to_string(),
            spec_text,
            spec,
            inner: Mutex::new(CampaignInner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CampaignInner> {
        // A panicking simulation is contained at the job boundary; state
        // mutations here are plain counter writes, so a poisoned lock
        // still guards consistent data.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub fn phase(&self) -> CampaignPhase {
        self.lock().phase
    }

    pub fn snapshot(&self) -> CampaignSnapshot {
        let inner = self.lock();
        CampaignSnapshot {
            id: self.id.clone(),
            name: self.name.clone(),
            status: inner.phase.as_str().to_string(),
            cells: inner.cells,
            search: inner.search,
            error: inner.error.clone(),
        }
    }

    pub(crate) fn set_running(&self) {
        self.lock().phase = CampaignPhase::Running;
    }

    pub(crate) fn finish(&self, outcome: Result<RunReport, (CampaignPhase, String)>) {
        let mut inner = self.lock();
        match outcome {
            Ok(report) => {
                inner.phase = CampaignPhase::Done;
                inner.report = Some(report);
            }
            Err((phase, error)) => {
                inner.phase = phase;
                inner.error = Some(error);
            }
        }
    }
}

/// [`CampaignProgress`] implementation that keeps a [`CampaignEntry`]'s
/// counters current while the engine runs it.
pub(crate) struct EntryProgress<'a>(pub &'a CampaignEntry);

impl CampaignProgress for EntryProgress<'_> {
    fn cells_expanded(&self, cells: &[Cell]) {
        let mut inner = self.0.lock();
        inner.cells =
            CellCounts { total: cells.len(), queued: cells.len(), ..CellCounts::default() };
    }

    fn search_planned(&self, jobs: usize) {
        self.0.lock().search.total = jobs;
    }

    fn search_job_finished(&self, _outcome: JobOutcome) {
        self.0.lock().search.finished += 1;
    }

    fn cell_started(&self, _cell: usize) {
        let mut inner = self.0.lock();
        inner.cells.queued = inner.cells.queued.saturating_sub(1);
        inner.cells.running += 1;
    }

    fn cell_finished(&self, _cell: usize, outcome: JobOutcome) {
        let mut inner = self.0.lock();
        let cells = &mut inner.cells;
        match outcome {
            // Cancelled jobs never start: they leave `queued` directly.
            JobOutcome::Cancelled => cells.queued = cells.queued.saturating_sub(1),
            _ => cells.running = cells.running.saturating_sub(1),
        }
        match outcome {
            JobOutcome::CacheHit => cells.cached += 1,
            JobOutcome::Simulated => cells.done += 1,
            JobOutcome::Failed => cells.failed += 1,
            JobOutcome::Cancelled => cells.cancelled += 1,
        }
    }
}

/// Why a submission was refused (mapped to an HTTP status by the API).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Unparseable or invalid spec (400).
    Invalid(String),
    /// Queue at capacity — retry later (503).
    QueueFull,
    /// Daemon is draining for shutdown (503).
    ShuttingDown,
    /// The accept could not be durably recorded (ENOSPC, injected
    /// fault). The daemon must not acknowledge work it cannot promise to
    /// survive, so this degrades to 503 + Retry-After.
    Journal(String),
}

#[derive(Debug, Default)]
struct JobTotals {
    total: AtomicU64,
    cache_hits: AtomicU64,
    simulated: AtomicU64,
    failed: AtomicU64,
    timeouts: AtomicU64,
    retries: AtomicU64,
}

/// Everything the HTTP handlers and the campaign executor share.
pub struct ServerState {
    pub config: ServerConfig,
    pub cache: ResultCache,
    pub queue: BoundedQueue<Arc<CampaignEntry>>,
    campaigns: Mutex<Vec<Arc<CampaignEntry>>>,
    /// Results of the most recently finished or read done campaigns.
    results: ResultMemo,
    /// Once true: no new submissions, queued campaigns drain, and every
    /// campaign runner's cancel token fires (it IS this flag).
    shutdown: Arc<AtomicBool>,
    started: Instant,
    seq: AtomicU64,
    jobs: JobTotals,
    campaigns_done: AtomicU64,
    campaigns_failed: AtomicU64,
    /// Set once by [`Supervisor::start`] when `config.supervise` is on:
    /// the executor accepted campaigns are handed to instead of the
    /// local queue.
    supervisor: std::sync::OnceLock<Arc<Supervisor>>,
    /// Durable pending accepts (absent with `--no-journal`).
    pending: Option<Pending>,
    /// Orphaned tmp files reaped at startup.
    tmp_reaped: u64,
}

impl ServerState {
    /// Poison-tolerant registry lock: the campaign list is a plain Vec of
    /// Arcs — valid after any partial mutation — and an executor that
    /// panicked mid-simulation must not take the whole API down with it.
    fn campaigns_lock(&self) -> std::sync::MutexGuard<'_, Vec<Arc<CampaignEntry>>> {
        self.campaigns.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub fn new(config: ServerConfig) -> std::io::Result<Self> {
        let cache = ResultCache::open(&config.cache_dir)?
            .with_durable(config.durable)
            .with_peers(config.peers.clone());
        // Reap what killed writers stranded before accepting new work;
        // the age threshold protects other live daemons on this cache.
        let tmp_reaped = cache.reap_tmp(config.tmp_reap_age) as u64;
        let pending = if config.journal {
            let dir = std::path::Path::new(&config.cache_dir);
            Some(Pending::open(dir, &pending_role(&config))?)
        } else {
            None
        };
        let state = ServerState {
            queue: BoundedQueue::new(config.queue_cap),
            config,
            cache,
            campaigns: Mutex::new(Vec::new()),
            results: ResultMemo::default(),
            shutdown: Arc::new(AtomicBool::new(false)),
            started: Instant::now(),
            seq: AtomicU64::new(0),
            jobs: JobTotals::default(),
            campaigns_done: AtomicU64::new(0),
            campaigns_failed: AtomicU64::new(0),
            supervisor: std::sync::OnceLock::new(),
            pending,
            tmp_reaped,
        };
        state.recover_local();
        Ok(state)
    }

    /// Resubmit replayed campaigns through the ordinary hand-off,
    /// preserving their ids. Idempotent by construction: every
    /// already-finished cell is a cache hit, so a campaign that was 90%
    /// done re-runs as 10% simulation.
    fn recover_local(&self) {
        let recovered = self.pending.as_ref().map(|p| p.take_recovered()).unwrap_or_default();
        for rec in recovered {
            // Seed the id counter past every revived campaign so fresh
            // submissions never collide with it.
            self.seq.fetch_max(pending::id_seq(&rec.id).unwrap_or(0), Ordering::Relaxed);
            let entry = CampaignEntry::new(rec.id, rec.spec_text, self.config.own(rec.spec));
            // Only refused once the queue is closed: the file stays
            // pending for the next restart.
            let _ = self.hand_off(Arc::new(entry), true);
        }
    }

    /// The one hand-off point for an accepted campaign, new or recovered:
    /// register it, then give it to whatever runs campaigns here. A local
    /// daemon queues it for its executor (a recovered campaign past the
    /// queue bound too). A fleet daemon fans it out to the workers that
    /// are up; the monitor backfills the rest, including every campaign
    /// recovered before the supervisor started.
    fn hand_off(&self, entry: Arc<CampaignEntry>, recovered: bool) -> Result<(), PushError> {
        self.campaigns_lock().push(entry.clone());
        if self.config.supervise.is_some() {
            if let Some(sup) = self.supervisor() {
                sup.dispatch(&entry);
            }
            return Ok(());
        }
        let queued = if recovered {
            self.queue.push_recovered(entry.clone())
        } else {
            self.queue.push(entry.clone())
        };
        if queued.is_err() {
            self.campaigns_lock().retain(|e| !Arc::ptr_eq(e, &entry));
        }
        queued
    }

    /// Count a campaign that reached `done` or `failed` and delete its
    /// pending file; other phases are not settled and do nothing. Called
    /// before the entry shows the phase, so a reader that sees it also
    /// sees the count.
    fn settle(&self, id: &str, phase: CampaignPhase) {
        match phase {
            CampaignPhase::Done => self.campaigns_done.fetch_add(1, Ordering::Relaxed),
            CampaignPhase::Failed => self.campaigns_failed.fetch_add(1, Ordering::Relaxed),
            _ => return,
        };
        self.resolve(id);
    }

    /// Delete a settled (or refused) campaign's pending file.
    fn resolve(&self, id: &str) {
        if let Some(pending) = &self.pending {
            pending.resolve(id);
        }
    }

    /// Replace `entry`'s progress with a fleet monitor tick's view.
    pub(crate) fn observe(&self, entry: &CampaignEntry, view: CampaignInner) {
        self.settle(&entry.id, view.phase);
        *entry.lock() = view;
    }

    /// The fleet supervisor, when this daemon runs in `--supervise` mode.
    pub fn supervisor(&self) -> Option<&Arc<Supervisor>> {
        self.supervisor.get()
    }

    pub(crate) fn set_supervisor(&self, sup: Arc<Supervisor>) {
        let _ = self.supervisor.set(sup);
    }

    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Begin the graceful drain: refuse new work, cancel not-yet-started
    /// jobs of running campaigns, and mark still-queued campaigns
    /// cancelled. In-flight simulations finish and stay cached.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for orphan in self.queue.drain() {
            orphan.finish(Err((
                CampaignPhase::Cancelled,
                "cancelled by shutdown before starting; resubmit to resume from the cache".into(),
            )));
        }
    }

    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Parse, validate, record, and hand off a campaign spec (TOML or
    /// JSON text). Ids are `c…` on a local daemon and `f…` on a fleet.
    pub fn submit(&self, spec_text: &str) -> Result<Arc<CampaignEntry>, SubmitError> {
        if self.is_shutting_down() {
            return Err(SubmitError::ShuttingDown);
        }
        let spec = engine::admit(spec_text).map_err(|e| SubmitError::Invalid(e.0))?;
        let spec = self.config.own(spec);

        let prefix = if self.config.supervise.is_some() { 'f' } else { 'c' };
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let id = pending::campaign_id(prefix, seq, spec_text);
        // Record the accept — durably, *before* the 202 leaves the
        // daemon. If the write cannot promise the campaign will survive a
        // crash, the daemon refuses the work instead of lying.
        if let Some(pending) = &self.pending {
            pending.accept(&id, spec_text).map_err(|e| SubmitError::Journal(e.to_string()))?;
        }
        crate::fault::on_accept();
        let entry = Arc::new(CampaignEntry::new(id, spec_text.to_string(), spec));
        match self.hand_off(entry.clone(), false) {
            Ok(()) => Ok(entry),
            Err(push_err) => {
                // A rejected submission leaves no ghost: its pending file
                // goes too, or the rejected accept would be resurrected
                // on every restart.
                self.resolve(&entry.id);
                Err(match push_err {
                    PushError::Full => SubmitError::QueueFull,
                    PushError::Closed => SubmitError::ShuttingDown,
                })
            }
        }
    }

    pub fn get(&self, id: &str) -> Option<Arc<CampaignEntry>> {
        self.campaigns_lock().iter().find(|e| e.id == id).cloned()
    }

    pub fn list(&self) -> Vec<Arc<CampaignEntry>> {
        self.campaigns_lock().clone()
    }

    /// The result of done campaign `id`: from the memo while retained,
    /// otherwise replayed from the cache and retained again. A fleet
    /// first pulls what its live workers cached, so the replay stays a
    /// read. `Err` carries the HTTP status and message for the API layer.
    pub fn results(&self, id: &str) -> Result<Arc<CampaignResult>, (u16, String)> {
        if let Some(result) = self.results.get(id) {
            return Ok(result);
        }
        let entry = self.get(id).ok_or_else(|| (404, format!("no campaign `{id}`")))?;
        let phase = entry.phase();
        if phase != CampaignPhase::Done {
            return Err((
                409,
                format!(
                    "campaign `{id}` is {}; results exist only once it is done",
                    phase.as_str()
                ),
            ));
        }
        if let Some(sup) = self.supervisor() {
            sup.pull_worker_caches();
        }
        let mut result = replay(&entry.spec, &self.config, self.cache.clone(), self.config.shard)
            .map_err(|e| (500, format!("results replay failed: {}", e.0)))?;
        if let Some(report) = entry.lock().report {
            result.report = report;
        }
        Ok(self.results.put(id, result))
    }

    /// Execute one dequeued campaign (executor-thread body): a fresh
    /// [`JobRunner`] on the shared cache, cancel token linked to the
    /// shutdown flag, progress streamed into the entry.
    pub fn execute(&self, entry: &Arc<CampaignEntry>) {
        entry.set_running();
        let catalog = engine::catalog_for(&entry.spec);
        let runner =
            self.config.runner(self.cache.clone()).with_cancel_token(self.shutdown.clone());
        let progress = EntryProgress(entry);
        let outcome = engine::run_campaign_observed(
            &entry.spec,
            &catalog,
            &runner,
            self.config.shard,
            &progress,
        );
        self.merge_jobs(runner.report());
        match outcome {
            Ok(result) => {
                // Retained before the entry reads `done`, so a reader that
                // sees `done` finds the result here or replays it.
                let report = result.report;
                self.results.put(&entry.id, result);
                self.settle(&entry.id, CampaignPhase::Done);
                entry.finish(Ok(report));
            }
            Err(e) if self.is_shutting_down() => {
                entry.finish(Err((
                    CampaignPhase::Cancelled,
                    format!("interrupted by shutdown; resubmit to resume from the cache ({e})"),
                )));
                // Deliberately NOT resolved: a shutdown-cancelled
                // campaign stays pending, so the next incarnation resumes
                // it automatically from the cache.
            }
            Err(e) => {
                self.settle(&entry.id, CampaignPhase::Failed);
                entry.finish(Err((CampaignPhase::Failed, e.0)));
            }
        }
    }

    fn merge_jobs(&self, report: RunReport) {
        self.jobs.total.fetch_add(report.total as u64, Ordering::Relaxed);
        self.jobs.cache_hits.fetch_add(report.cache_hits as u64, Ordering::Relaxed);
        self.jobs.simulated.fetch_add(report.simulated as u64, Ordering::Relaxed);
        self.jobs.failed.fetch_add(report.failed as u64, Ordering::Relaxed);
        self.jobs.timeouts.fetch_add(report.timeouts as u64, Ordering::Relaxed);
        self.jobs.retries.fetch_add(report.retries as u64, Ordering::Relaxed);
    }

    /// The `GET /stats` payload.
    pub fn stats(&self) -> ServerStats {
        let submitted = self.campaigns_lock().len();
        let cache_counters = self.cache.counters();
        ServerStats {
            uptime_secs: self.uptime_secs(),
            accepting: !self.is_shutting_down(),
            shard: self.config.shard.map(|s| s.label()),
            sim_workers: match self.config.sim_workers {
                0 => crate::job::default_workers(),
                n => n,
            },
            queue: QueueStats { depth: self.queue.len(), capacity: self.queue.capacity() },
            campaigns: CampaignStats {
                submitted,
                done: self.campaigns_done.load(Ordering::Relaxed),
                failed: self.campaigns_failed.load(Ordering::Relaxed),
                results_retained: self.results.len(),
            },
            jobs: RunReport {
                total: self.jobs.total.load(Ordering::Relaxed) as usize,
                cache_hits: self.jobs.cache_hits.load(Ordering::Relaxed) as usize,
                simulated: self.jobs.simulated.load(Ordering::Relaxed) as usize,
                failed: self.jobs.failed.load(Ordering::Relaxed) as usize,
                timeouts: self.jobs.timeouts.load(Ordering::Relaxed) as usize,
                retries: self.jobs.retries.load(Ordering::Relaxed) as usize,
            },
            cache_remote_hits: cache_counters.remote_hits,
            cells_replicated: cache_counters.replicated,
            cache: cache_counters,
            cache_entries: self.cache.len(),
            cache_quarantined: self.cache.quarantined_entries(),
            quarantine_oldest_secs: self.cache.quarantine_oldest_age().map(|a| a.as_secs()),
            net_faults_injected: crate::fault::net_faults_injected(),
            partitions_total: self.supervisor().map_or(0, |s| s.partitions_total()),
            journal_records: self.pending.as_ref().map_or(0, |p| p.held()),
            journal_replayed: self.pending.as_ref().map_or(0, |p| p.replayed),
            tmp_reaped: self.tmp_reaped,
        }
    }
}

/// Which `pending/<role>/` directory this daemon owns. Shard workers
/// sharing a cache directory each get their own; a supervising daemon
/// gets another, so concurrent daemons never replay each other's
/// accepts.
fn pending_role(config: &ServerConfig) -> String {
    if config.supervise.is_some() {
        "fleet".to_string()
    } else if let Some(shard) = config.shard {
        format!("serve-shard-{}", shard.label().replace('/', "-of-"))
    } else {
        "serve".to_string()
    }
}

#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct QueueStats {
    pub depth: usize,
    pub capacity: usize,
}

#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct CampaignStats {
    pub submitted: usize,
    pub done: u64,
    pub failed: u64,
    /// Done campaigns whose result is held in memory (at most
    /// [`RESULTS_RETAINED`]); the others replay from the cache.
    pub results_retained: usize,
}

/// JSON shape of `GET /stats`.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ServerStats {
    pub uptime_secs: u64,
    pub accepting: bool,
    pub shard: Option<String>,
    pub sim_workers: usize,
    pub queue: QueueStats,
    pub campaigns: CampaignStats,
    /// Batch counters across every campaign run by this daemon.
    pub jobs: RunReport,
    /// Cache lookup telemetry (hit/miss/corrupt/quarantined) since daemon
    /// start.
    pub cache: crate::cache::CacheCounters,
    pub cache_entries: usize,
    /// Entries currently sitting in the cache's `quarantine/` directory
    /// (on-disk count, not since-start).
    pub cache_quarantined: usize,
    /// Age of the oldest quarantined entry, seconds — forgotten evidence
    /// shows up here instead of rotting silently.
    pub quarantine_oldest_secs: Option<u64>,
    /// Cache misses satisfied by a peer over HTTP (mirrors
    /// `cache.remote_hits`; surfaced top-level for scripts).
    pub cache_remote_hits: u64,
    /// Entries landed from peers (read-through, `PUT`, or anti-entropy;
    /// mirrors `cache.replicated`).
    pub cells_replicated: u64,
    /// Network perturbations the fault layer injected in this process
    /// (always 0 without the `fault-inject` feature).
    pub net_faults_injected: u64,
    /// Fleet-wide network-attributed worker losses (supervise mode).
    pub partitions_total: u64,
    /// Pending-accept files this daemon holds (accepted, not yet done
    /// or failed).
    pub journal_records: u64,
    /// Pending campaigns resubmitted at startup.
    pub journal_replayed: u64,
    /// Orphaned `*.tmp` files reaped at startup.
    pub tmp_reaped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str) -> CampaignResult {
        CampaignResult { name: name.to_string(), cells: Vec::new(), report: RunReport::default() }
    }

    #[test]
    fn result_memo_drops_the_least_recently_finished_or_read() {
        let memo = ResultMemo::default();
        for i in 0..RESULTS_RETAINED {
            memo.put(&format!("c{i}"), result(&format!("c{i}")));
        }
        assert_eq!(memo.len(), RESULTS_RETAINED);
        // Reading c0 makes it the most recent, so the next finish drops c1.
        assert_eq!(memo.get("c0").map(|r| r.name.clone()).as_deref(), Some("c0"));
        memo.put("new", result("new"));
        assert_eq!(memo.len(), RESULTS_RETAINED);
        assert!(memo.get("c1").is_none(), "the least recent result is dropped");
        assert!(memo.get("c0").is_some() && memo.get("c2").is_some());
        // Retaining an id again replaces its result instead of holding two.
        memo.put("new", result("newer"));
        assert_eq!(memo.len(), RESULTS_RETAINED);
        assert_eq!(memo.get("new").map(|r| r.name.clone()).as_deref(), Some("newer"));
    }
}
