//! Shared daemon state: the bounded campaign registry, per-campaign
//! progress counters, the bounded memo of finished results, and the
//! global service counters behind `GET /stats`. Every accepted campaign
//! is registered here and queued for the daemon's one executor.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::cache::ResultCache;
use crate::engine::{self, CampaignProgress, CampaignResult};
use crate::job::{default_workers, JobOutcome, JobRunner, RunReport, Watchdog};
use crate::matrix::{Cell, ShardSpec};
use crate::pending::{self, Pending};
use crate::serve::queue::{BoundedQueue, PushError};
use crate::spec::CampaignSpec;

/// Default simulation workers of a daemon: every core but two, at least
/// one. A batch run owns its host and takes every core
/// ([`default_workers`]); a daemon shares its host with its clients and
/// its HTTP acceptor and handlers, so it leaves them a reserve.
pub(crate) fn daemon_workers() -> usize {
    default_workers().saturating_sub(2).max(1)
}

/// Daemon configuration (CLI flags; every field has a usable default).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:8181` by default).
    pub addr: String,
    /// Result-cache directory — shared between shard daemons.
    pub cache_dir: String,
    /// Simulation worker threads per running campaign. `0` means every
    /// core but two, at least one (`daemon_workers`); [`ServerState::new`]
    /// resolves it once, so `/stats`, the executor and every accepted spec
    /// agree. The daemon overrides any `workers` field in submitted specs.
    pub sim_workers: usize,
    /// Bounded campaign-queue capacity; beyond it, `POST /campaigns`
    /// returns 503.
    pub queue_cap: usize,
    /// This daemon's slice of every submitted campaign (`--shard i/n`).
    pub shard: Option<ShardSpec>,
    /// Per-cell watchdog soft deadline (`--cell-deadline-ms`). `None`
    /// disables the watchdog.
    pub cell_deadline: Option<std::time::Duration>,
    /// Retries per timed-out cell before it is marked failed
    /// (`--cell-retries`).
    pub cell_retries: u32,
    /// Record every accept durably under `<cache>/pending/` and replay
    /// the unfinished ones at startup (on by default; `--no-journal`).
    pub journal: bool,
    /// Fsync cache entries before publishing them (`--durable`): extends
    /// the crash model from process death to host power loss, at the
    /// cost of one fsync + one directory fsync per simulated cell.
    pub durable: bool,
    /// Reap orphaned `*.tmp` files older than this at startup.
    pub tmp_reap_age: std::time::Duration,
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

/// How many done campaigns keep their full [`CampaignResult`] (~6 KB
/// each) in memory. Older ones still answer `/campaigns/:id/results`:
/// [`ServerState::results`] recomputes the result from the cache.
pub const RESULTS_RETAINED: usize = 16;

/// The finished results held in memory, at most [`RESULTS_RETAINED`];
/// the one least recently finished or read is dropped first. Its lock
/// is a leaf: callers take it before a campaign entry's lock, never
/// inside it.
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

/// How many settled (done or failed) campaigns the registry keeps. Past
/// the bound the one least recently settled or read is dropped, and its
/// id then answers 404 like an unknown one. Queued and running campaigns
/// are always kept.
pub const CAMPAIGNS_RETAINED: usize = 256;

/// The campaign registry: every queued or running campaign, plus the
/// [`CAMPAIGNS_RETAINED`] most recently settled or read settled ones.
#[derive(Debug, Default)]
struct Registry {
    /// Held entries by registration number, i.e. in submission order.
    entries: BTreeMap<u64, Arc<CampaignEntry>>,
    /// Campaign id → its registration number and, once settled, the
    /// tick of its last read.
    ids: BTreeMap<String, Held>,
    /// Settled entries: last-read tick → registration number, least
    /// recently read first.
    settled: BTreeMap<u64, u64>,
    /// Source of registration numbers and read ticks.
    clock: u64,
}

#[derive(Debug)]
struct Held {
    order: u64,
    read: Option<u64>,
}

impl Registry {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn insert(&mut self, entry: Arc<CampaignEntry>) {
        let order = self.tick();
        self.ids.insert(entry.id.clone(), Held { order, read: None });
        self.entries.insert(order, entry);
    }

    fn remove(&mut self, id: &str) {
        if let Some(held) = self.ids.remove(id) {
            self.entries.remove(&held.order);
            if let Some(read) = held.read {
                self.settled.remove(&read);
            }
        }
    }

    /// `id`'s entry; a settled one becomes the most recently read.
    fn get(&mut self, id: &str) -> Option<Arc<CampaignEntry>> {
        let now = self.tick();
        let held = self.ids.get_mut(id)?;
        if let Some(read) = held.read.as_mut() {
            self.settled.remove(read);
            self.settled.insert(now, held.order);
            *read = now;
        }
        self.entries.get(&held.order).cloned()
    }

    /// Mark `id` settled and read now, then drop the least recently read
    /// settled entries past the bound.
    fn settle(&mut self, id: &str) {
        let now = self.tick();
        if let Some(held) = self.ids.get_mut(id) {
            if let Some(read) = held.read.replace(now) {
                self.settled.remove(&read);
            }
            self.settled.insert(now, held.order);
        }
        while self.settled.len() > CAMPAIGNS_RETAINED {
            let Some((_, order)) = self.settled.pop_first() else { break };
            if let Some(entry) = self.entries.remove(&order) {
                self.ids.remove(&entry.id);
            }
        }
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
            cell_deadline: None,
            cell_retries: 2,
            journal: true,
            durable: false,
            tmp_reap_age: std::time::Duration::from_secs(15 * 60),
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
}

impl CampaignPhase {
    pub fn as_str(self) -> &'static str {
        match self {
            CampaignPhase::Queued => "queued",
            CampaignPhase::Running => "running",
            CampaignPhase::Done => "done",
            CampaignPhase::Failed => "failed",
            CampaignPhase::Cancelled => "cancelled",
        }
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

/// A campaign's mutable progress.
#[derive(Debug, Default)]
struct CampaignInner {
    phase: CampaignPhase, // Default = Queued, so the entry is valid from birth
    cells: CellCounts,
    search: SearchCounts,
    error: Option<String>,
    /// Job counts of the run that finished the campaign: a replayed
    /// result reports these, not its own all-hit counts.
    report: Option<RunReport>,
}

/// One submitted campaign: immutable identity + mutable progress.
#[derive(Debug)]
pub struct CampaignEntry {
    pub id: String,
    pub name: String,
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
    fn new(id: String, spec: CampaignSpec) -> Self {
        CampaignEntry {
            id,
            name: spec.display_name().to_string(),
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
    campaigns: Mutex<Registry>,
    /// Results of the most recently finished or read done campaigns.
    results: ResultMemo,
    /// Once true: no new submissions, queued campaigns drain, and every
    /// campaign runner's cancel token fires (it IS this flag).
    shutdown: Arc<AtomicBool>,
    started: Instant,
    seq: AtomicU64,
    jobs: JobTotals,
    campaigns_submitted: AtomicU64,
    campaigns_done: AtomicU64,
    campaigns_failed: AtomicU64,
    /// Durable pending accepts (absent with `--no-journal`).
    pending: Option<Pending>,
    /// Orphaned tmp files reaped at startup.
    tmp_reaped: u64,
}

impl ServerState {
    /// Poison-tolerant registry lock: registry mutations are map inserts
    /// and removes that cannot panic halfway, and an executor that
    /// panicked mid-simulation must not take the whole API down with it.
    fn campaigns_lock(&self) -> std::sync::MutexGuard<'_, Registry> {
        self.campaigns.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub fn new(mut config: ServerConfig) -> std::io::Result<Self> {
        if config.sim_workers == 0 {
            config.sim_workers = daemon_workers();
        }
        let cache = ResultCache::open(&config.cache_dir)?.with_durable(config.durable);
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
            campaigns: Mutex::new(Registry::default()),
            results: ResultMemo::default(),
            shutdown: Arc::new(AtomicBool::new(false)),
            started: Instant::now(),
            seq: AtomicU64::new(0),
            jobs: JobTotals::default(),
            campaigns_submitted: AtomicU64::new(0),
            campaigns_done: AtomicU64::new(0),
            campaigns_failed: AtomicU64::new(0),
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
            let entry = CampaignEntry::new(rec.id, self.config.own(rec.spec));
            // Only refused once the queue is closed: the file stays
            // pending for the next restart.
            let _ = self.hand_off(Arc::new(entry), true);
        }
    }

    /// The one hand-off point for an accepted campaign, new or recovered:
    /// register it and queue it for the executor (a recovered campaign
    /// past the queue bound too).
    fn hand_off(&self, entry: Arc<CampaignEntry>, recovered: bool) -> Result<(), PushError> {
        self.campaigns_lock().insert(entry.clone());
        let queued = if recovered {
            self.queue.push_recovered(entry.clone())
        } else {
            self.queue.push(entry.clone())
        };
        if queued.is_ok() {
            self.campaigns_submitted.fetch_add(1, Ordering::Relaxed);
        } else {
            self.campaigns_lock().remove(&entry.id);
        }
        queued
    }

    /// Count a campaign that reached `done` or `failed`, let the registry
    /// bound it, and delete its pending file; other phases are not
    /// settled and do nothing. Called before the entry shows the phase,
    /// so a reader that sees it also sees the count.
    fn settle(&self, id: &str, phase: CampaignPhase) {
        match phase {
            CampaignPhase::Done => self.campaigns_done.fetch_add(1, Ordering::Relaxed),
            CampaignPhase::Failed => self.campaigns_failed.fetch_add(1, Ordering::Relaxed),
            _ => return,
        };
        self.campaigns_lock().settle(id);
        self.resolve(id);
    }

    /// Delete a settled (or refused) campaign's pending file.
    fn resolve(&self, id: &str) {
        if let Some(pending) = &self.pending {
            pending.resolve(id);
        }
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
    /// JSON text) under a fresh `c…` id.
    pub fn submit(&self, spec_text: &str) -> Result<Arc<CampaignEntry>, SubmitError> {
        if self.is_shutting_down() {
            return Err(SubmitError::ShuttingDown);
        }
        let spec = engine::admit(spec_text).map_err(|e| SubmitError::Invalid(e.0))?;
        let spec = self.config.own(spec);

        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let id = pending::campaign_id(seq, spec_text);
        // Record the accept — durably, *before* the 202 leaves the
        // daemon. If the write cannot promise the campaign will survive a
        // crash, the daemon refuses the work instead of lying.
        if let Some(pending) = &self.pending {
            pending.accept(&id, spec_text).map_err(|e| SubmitError::Journal(e.to_string()))?;
        }
        crate::fault::on_accept();
        let entry = Arc::new(CampaignEntry::new(id, spec));
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

    /// The registered campaign `id`, counted as a read: `None` once it
    /// was dropped past [`CAMPAIGNS_RETAINED`], like an unknown id.
    pub fn get(&self, id: &str) -> Option<Arc<CampaignEntry>> {
        self.campaigns_lock().get(id)
    }

    /// Every registered campaign, in submission order.
    pub fn list(&self) -> Vec<Arc<CampaignEntry>> {
        self.campaigns_lock().entries.values().cloned().collect()
    }

    /// The result of done campaign `id` (404 once the registry dropped
    /// it, which a read here postpones): from the memo while retained,
    /// otherwise replayed from the cache and retained again. Every cell of
    /// a done campaign is a cache hit, so the replay is pure reads; a
    /// failed cell was never cached, so it is attempted again under the
    /// same watchdog. `Err` carries the HTTP status and message for the
    /// API layer.
    pub fn results(&self, id: &str) -> Result<Arc<CampaignResult>, (u16, String)> {
        let entry = self.get(id).ok_or_else(|| (404, format!("no campaign `{id}`")))?;
        if let Some(result) = self.results.get(id) {
            return Ok(result);
        }
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
        let catalog = engine::catalog_for(&entry.spec);
        let runner = self.config.runner(self.cache.clone());
        let mut result =
            engine::run_campaign_observed(&entry.spec, &catalog, &runner, self.config.shard, &())
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
        let cache_counters = self.cache.counters();
        ServerStats {
            uptime_secs: self.uptime_secs(),
            accepting: !self.is_shutting_down(),
            shard: self.config.shard.map(|s| s.label()),
            sim_workers: self.config.sim_workers,
            queue: QueueStats { depth: self.queue.len(), capacity: self.queue.capacity() },
            campaigns: CampaignStats {
                submitted: self.campaigns_submitted.load(Ordering::Relaxed) as usize,
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
            cells_replicated: cache_counters.replicated,
            cache: cache_counters,
            cache_entries: self.cache.len(),
            cache_quarantined: self.cache.quarantined_entries(),
            quarantine_oldest_secs: self.cache.quarantine_oldest_age().map(|a| a.as_secs()),
            journal_records: self.pending.as_ref().map_or(0, |p| p.held()),
            journal_replayed: self.pending.as_ref().map_or(0, |p| p.replayed),
            tmp_reaped: self.tmp_reaped,
        }
    }
}

/// Which `pending/<role>/` directory this daemon owns. Shard daemons
/// sharing a cache directory each get their own, so concurrent daemons
/// never replay each other's accepts.
fn pending_role(config: &ServerConfig) -> String {
    match config.shard {
        Some(shard) => format!("serve-shard-{}", shard.label().replace('/', "-of-")),
        None => "serve".to_string(),
    }
}

#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct QueueStats {
    pub depth: usize,
    pub capacity: usize,
}

#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct CampaignStats {
    /// Campaigns accepted since start, recovered ones included (the
    /// registry holds at most [`CAMPAIGNS_RETAINED`] settled ones).
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
    /// Entries landed by `PUT /cells/:hash` (mirrors
    /// `cache.replicated`; surfaced top-level for scripts).
    pub cells_replicated: u64,
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

    #[test]
    fn registry_drops_the_least_recently_read_settled_campaigns() {
        const SPEC: &str = r#"{"archs": ["M8"], "workloads": ["2W1"], "policies": ["rr"]}"#;
        let dir = std::env::temp_dir().join(format!("hdsmt-serve-registry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = ServerState::new(ServerConfig {
            cache_dir: dir.to_string_lossy().into_owned(),
            journal: false,
            ..ServerConfig::default()
        })
        .unwrap();
        let run = || {
            let entry = state.submit(SPEC).unwrap();
            state.execute(&state.queue.pop().unwrap());
            entry.id.clone()
        };
        // Taken off the queue but never run: it stays `queued`.
        let queued = state.submit(SPEC).unwrap().id.clone();
        state.queue.pop().unwrap();
        let watched = run();
        let k = 3;
        let others: Vec<String> = (1..CAMPAIGNS_RETAINED + k)
            .map(|_| {
                let id = run();
                assert!(state.get(&watched).is_some(), "the campaign being read stays");
                id
            })
            .collect();

        // The bound plus k settled campaigns: the k least recently read
        // are gone and answer 404, like an unknown id.
        for id in &others[..k] {
            assert!(state.get(id).is_none(), "{id} should have been dropped");
            assert_eq!(state.results(id).err().map(|e| e.0), Some(404));
        }
        let mut kept = vec![queued.clone(), watched.clone()];
        kept.extend(others[k..].iter().cloned());
        let listed: Vec<String> = state.list().iter().map(|e| e.id.clone()).collect();
        assert_eq!(listed, kept, "held campaigns list in submission order");
        assert_eq!(state.get(&queued).map(|e| e.phase()), Some(CampaignPhase::Queued));
        assert!(state.results(&watched).is_ok());
        let stats = state.stats().campaigns;
        assert_eq!(stats.submitted, CAMPAIGNS_RETAINED + k + 1, "submitted never falls");
        assert_eq!(stats.done as usize, CAMPAIGNS_RETAINED + k);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
