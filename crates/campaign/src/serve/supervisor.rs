//! Fleet supervision: `serve --supervise n` runs the daemon as a parent
//! that spawns, monitors, and restarts `n` shard-worker child processes
//! instead of executing campaigns in-process.
//!
//! Each worker is a plain `hdsmt-campaign serve --shard i/n` child on the
//! shared content-addressed cache, bound to an ephemeral port it reports
//! back through an atomically written address file. The supervisor:
//!
//! - **submits** every accepted campaign to every live worker, keeping a
//!   ledger of spec texts so restarted workers are backfilled (the cache
//!   makes resubmission idempotent — completed cells are hits);
//! - **monitors** workers with a heartbeat loop: process exit, address
//!   handshake timeout, or [`MAX_MISSED`](SupervisorConfig::max_missed)
//!   consecutive failed `/healthz` probes all count as a crash;
//! - **restarts** crashed workers under exponential backoff with
//!   deterministic jitter, up to a crash-loop circuit breaker
//!   ([`SupervisorConfig::max_restarts`]); a worker that trips the
//!   breaker is marked *broken* and the fleet degrades to the surviving
//!   shards — their cells still complete, the broken shard's cells stay
//!   resumable in the cache;
//! - **aggregates** per-worker campaign snapshots into one fleet-level
//!   view (`GET /campaigns/:id` sums per-cell counters across shards) and
//!   reports worker health at `GET /workers`;
//! - **serves results** by replaying the campaign through the local
//!   engine once every shard reports done — by then every cell is a
//!   cache hit, so the replay is a read, not a re-simulation.
//!
//! The supervisor itself runs no simulations and holds no job state: kill
//! it (or any worker) at any point and resubmitting the same specs to a
//! fresh fleet resumes from the cache.
//!
//! # Remote workers and partitions
//!
//! `--worker ADDR` entries are **adopted** rather than spawned: the
//! supervisor probes the fixed address through the same
//! Starting→Up→Backoff lifecycle, but never forks a process, never kills
//! one, and leaves the remote daemon running at shutdown (it belongs to
//! its own operator). A remote worker's health failures are counted as
//! *partitions* — the worker may be fine, the network between us is not —
//! and surface per-worker in `GET /workers`. Remote workers keep their
//! own cache directories; the supervisor's cache reads through its
//! configured peers and runs an anti-entropy manifest pull before the
//! results replay, so results never assume filesystem locality.
//!
//! When a worker trips the circuit breaker with campaign cells still
//! unfinished, the monitor **re-owns** the broken shard: a local engine
//! run over exactly that shard's cells (any cells the worker managed to
//! finish are cache or peer hits) records a synthetic `done` snapshot on
//! its behalf, so the campaign completes instead of staying `degraded`.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cache::ResultCache;
use crate::engine::{self, CampaignResult};
use crate::job::JobRunner;
use crate::matrix::ShardSpec;
use crate::pending::{self, Pending, Replayed};
use crate::serve::http::{HttpClient, RetryPolicy};
use crate::serve::state::{CampaignSnapshot, CellCounts, SearchCounts, SubmitError};
use crate::spec::CampaignSpec;

/// Everything the supervisor needs to run a fleet. Defaults are tuned
/// for "a worker crash costs sub-second recovery" on a local machine.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Number of shard workers (shard `i/n` for `i` in `0..n`).
    pub workers: u32,
    /// Shared cache directory (also holds the worker address files under
    /// `.supervise/`).
    pub cache_dir: String,
    /// Simulation threads per worker (0 = auto).
    pub sim_workers: usize,
    /// Worker binary. `None` = this executable (`std::env::current_exe`);
    /// tests point it at `CARGO_BIN_EXE_hdsmt-campaign`.
    pub binary: Option<PathBuf>,
    /// Per-cell watchdog forwarded to workers (`--cell-deadline-ms`).
    pub cell_deadline: Option<Duration>,
    pub cell_retries: u32,
    /// Monitor tick period (heartbeat + snapshot poll).
    pub heartbeat_interval: Duration,
    /// Consecutive failed `/healthz` probes before a worker is declared
    /// crashed.
    pub max_missed: u32,
    /// Restart backoff: `base * 2^(restarts-1)` clamped to `cap`, plus
    /// deterministic jitter.
    pub backoff_base: Duration,
    pub backoff_cap: Duration,
    /// Crash-loop circuit breaker: restarts beyond this mark the worker
    /// broken and the fleet degrades to the surviving shards.
    pub max_restarts: u32,
    /// How long a spawned worker may take to report its address before
    /// the start counts as a crash.
    pub spawn_timeout: Duration,
    /// Extra environment for workers only — fault plans (`HDSMT_FAULT`)
    /// are injected here so the supervisor process stays fault-free.
    pub child_env: Vec<(String, String)>,
    /// Remote workers to adopt (fixed `host:port` addresses). They take
    /// the shard indices after the spawned workers; the operator must
    /// start each with the matching `--shard i/n`.
    pub remote_workers: Vec<String>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            workers: 1,
            cache_dir: ".hdsmt-cache".into(),
            sim_workers: 0,
            binary: None,
            cell_deadline: None,
            cell_retries: 2,
            heartbeat_interval: Duration::from_millis(200),
            max_missed: 3,
            backoff_base: Duration::from_millis(250),
            backoff_cap: Duration::from_secs(5),
            max_restarts: 5,
            spawn_timeout: Duration::from_secs(10),
            child_env: Vec::new(),
            remote_workers: Vec::new(),
        }
    }
}

/// One worker's lifecycle state.
#[derive(Debug)]
enum Phase {
    /// Spawned; waiting for the address-file handshake.
    Starting { since: Instant },
    /// Handshook and answering `/healthz`.
    Up { addr: String, missed: u32 },
    /// Crashed; waiting out the restart backoff.
    Backoff { until: Instant },
    /// Crash-loop breaker tripped: no further restarts.
    Broken,
    /// Shut down deliberately.
    Stopped,
}

impl Phase {
    fn label(&self) -> &'static str {
        match self {
            Phase::Starting { .. } => "starting",
            Phase::Up { .. } => "up",
            Phase::Backoff { .. } => "backoff",
            Phase::Broken => "broken",
            Phase::Stopped => "stopped",
        }
    }
}

/// How a worker came to be supervised.
#[derive(Clone, Debug)]
enum WorkerKind {
    /// A child process this supervisor forks, kills, and restarts.
    Spawned,
    /// A daemon someone else runs at a fixed address: probed and
    /// backfilled like any worker, never forked or killed.
    Remote { addr: String },
}

struct Worker {
    index: u32,
    kind: WorkerKind,
    addr_file: PathBuf,
    child: Option<Child>,
    /// Pooled keep-alive connection to the worker, created when it
    /// reaches `Up` and dropped on any crash/partition.
    client: Option<HttpClient>,
    phase: Phase,
    restarts: u32,
    /// Health failures attributed to the network rather than the
    /// process (remote workers only — we cannot tell a dead remote from
    /// an unreachable one, so every remote loss counts as a partition).
    partitions: u64,
    /// Ledger id → this incarnation's child-side campaign id.
    submitted: HashMap<String, String>,
    /// Ledger id → last snapshot polled from the child (survives the
    /// incarnation that produced it, so aggregation never goes blind
    /// during a restart).
    snapshots: HashMap<String, ChildSnapshot>,
}

impl Worker {
    fn is_remote(&self) -> bool {
        matches!(self.kind, WorkerKind::Remote { .. })
    }
}

/// The slice of a child's `GET /campaigns/:id` the supervisor keeps.
#[derive(Clone, Debug)]
struct ChildSnapshot {
    status: String,
    cells: CellCounts,
    search: SearchCounts,
    error: Option<String>,
}

/// One campaign as the supervisor tracks it: the spec text (for worker
/// backfill and the local results replay) plus the replayed result.
struct LedgerEntry {
    id: String,
    name: String,
    spec_text: String,
    result: Option<CampaignResult>,
    /// Whether the campaign's fleet pending file has been resolved —
    /// once, by the monitor, when the aggregate status settles on `done`
    /// or `failed`.
    resolved: bool,
}

struct Inner {
    workers: Vec<Worker>,
    ledger: Vec<LedgerEntry>,
    seq: u64,
}

/// A running fleet. Created by `Server::start` when
/// `ServerConfig::supervise` is set; the HTTP API routes campaign verbs
/// here instead of the local queue.
pub struct Supervisor {
    config: SupervisorConfig,
    cache: ResultCache,
    inner: Mutex<Inner>,
    stop: Arc<AtomicBool>,
    monitor: Mutex<Option<JoinHandle<()>>>,
    /// The fleet's pending accepts (`pending/fleet/`), shared with the
    /// owning [`crate::serve::ServerState`]. Workers run `--no-journal`;
    /// this is the single source of truth for accepted fleet campaigns.
    pending: Option<Arc<Pending>>,
    /// Finished re-own runs, pushed by their worker threads and drained
    /// by the next monitor tick (`(ledger id, worker index, outcome)` —
    /// `None` means the run failed and may be retried).
    reown_done: Arc<Mutex<Vec<ReownOutcome>>>,
    /// `(ledger id, worker index)` pairs with a re-own run in flight.
    reown_inflight: Mutex<HashSet<(String, u32)>>,
    /// Completed re-own runs (broken shards whose cells a local run
    /// covered).
    reowned: AtomicU64,
}

type ReownOutcome = (String, u32, Option<ChildSnapshot>);

/// JSON shape of one row of `GET /workers`.
#[derive(Clone, Debug, serde::Serialize)]
pub struct WorkerReport {
    pub index: u32,
    pub shard: String,
    pub kind: String,
    pub state: String,
    pub addr: Option<String>,
    pub pid: Option<u32>,
    pub restarts: u32,
    pub partitions: u64,
}

/// JSON shape of `GET /workers`.
#[derive(Clone, Debug, serde::Serialize)]
pub struct FleetReport {
    pub supervising: u32,
    pub restarts_total: u64,
    pub broken: usize,
    pub partitions_total: u64,
    pub reowned: u64,
    pub workers: Vec<WorkerReport>,
}

impl Supervisor {
    /// Spawn the fleet and its monitor thread. `recovered` is the
    /// pending accepts replayed from a previous incarnation's fleet
    /// directory — they are re-ledgered with their original ids, and the
    /// monitor backfills them into workers exactly like any other
    /// ledgered campaign (idempotent: finished cells are cache hits).
    pub fn start(
        config: SupervisorConfig,
        cache: ResultCache,
        pending: Option<Arc<Pending>>,
        recovered: Vec<Replayed>,
    ) -> std::io::Result<Arc<Supervisor>> {
        let handshake_dir = std::path::Path::new(&config.cache_dir).join(".supervise");
        std::fs::create_dir_all(&handshake_dir)?;
        // A SIGKILLed previous incarnation leaves its workers' address
        // files behind; trusting one would point this supervisor at a
        // dead port (or worse, an unrelated process that reused it).
        let stale = clean_stale_addr_files(&config.cache_dir);
        if stale > 0 {
            eprintln!("supervisor: removed {stale} stale worker address file(s)");
        }
        // Spawned workers take shard indices 0..spawned; adopted remote
        // workers take the indices after them. Everyone starts in an
        // expired Backoff so startup and restart share one code path.
        let spawned = spawned_workers(&config);
        let new_worker = |index: u32, kind: WorkerKind| Worker {
            index,
            kind,
            addr_file: handshake_dir.join(format!("worker-{index}.addr")),
            child: None,
            client: None,
            phase: Phase::Backoff { until: Instant::now() },
            restarts: 0,
            partitions: 0,
            submitted: HashMap::new(),
            snapshots: HashMap::new(),
        };
        let mut workers: Vec<Worker> =
            (0..spawned).map(|index| new_worker(index, WorkerKind::Spawned)).collect();
        for (i, addr) in config.remote_workers.iter().enumerate() {
            let index = spawned + i as u32;
            eprintln!("supervisor: adopting remote worker {index} at {addr}");
            workers.push(new_worker(index, WorkerKind::Remote { addr: addr.clone() }));
        }
        let seq = recovered.iter().filter_map(|r| pending::id_seq(&r.id)).max().unwrap_or(0);
        let ledger: Vec<LedgerEntry> = recovered
            .into_iter()
            .map(|rec| LedgerEntry {
                name: rec.spec.display_name().to_string(),
                id: rec.id,
                spec_text: rec.spec_text,
                result: None,
                resolved: false,
            })
            .collect();
        let supervisor = Arc::new(Supervisor {
            config,
            cache,
            inner: Mutex::new(Inner { workers, ledger, seq }),
            stop: Arc::new(AtomicBool::new(false)),
            monitor: Mutex::new(None),
            pending,
            reown_done: Arc::new(Mutex::new(Vec::new())),
            reown_inflight: Mutex::new(HashSet::new()),
            reowned: AtomicU64::new(0),
        });
        let monitor = {
            let supervisor = supervisor.clone();
            std::thread::Builder::new()
                .name("serve-supervisor".into())
                .spawn(move || supervisor.monitor_loop())?
        };
        *supervisor.monitor.lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
            Some(monitor);
        Ok(supervisor)
    }

    fn binary(&self) -> PathBuf {
        self.config
            .binary
            .clone()
            .or_else(|| std::env::current_exe().ok())
            .unwrap_or_else(|| PathBuf::from("hdsmt-campaign"))
    }

    fn backoff_policy(&self) -> RetryPolicy {
        RetryPolicy {
            attempts: u32::MAX,
            base: self.config.backoff_base,
            cap: self.config.backoff_cap,
        }
    }

    /// Total shard count: spawned children plus adopted remotes. Every
    /// `--shard i/n` denominator and fleet report uses this.
    fn shard_total(&self) -> u32 {
        (spawned_workers(&self.config) + self.config.remote_workers.len() as u32).max(1)
    }

    // ------------------------------------------------------------ monitor

    fn monitor_loop(&self) {
        while !self.stop.load(Ordering::Relaxed) {
            self.tick();
            std::thread::sleep(self.config.heartbeat_interval);
        }
    }

    /// One heartbeat over every worker: reap exits, advance handshakes,
    /// probe health, backfill submissions, poll snapshots, restart what
    /// the backoff clock allows, and re-own broken shards' cells.
    ///
    /// Locks are taken strictly sequentially (re-own queues first, then
    /// `inner`, then the queues again after `inner` is released) — never
    /// nested.
    fn tick(&self) {
        let drained: Vec<ReownOutcome> = {
            let mut q = self.reown_done.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::take(&mut *q)
        };
        {
            let mut inflight =
                self.reown_inflight.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            for (id, widx, _) in &drained {
                inflight.remove(&(id.clone(), *widx));
            }
        }
        let now = Instant::now();
        let mut guard = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let Inner { workers, ledger, .. } = &mut *guard;
        for (id, widx, outcome) in drained {
            let Some(snap) = outcome else { continue };
            self.reowned.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "supervisor: re-owned {} cell(s) of {id} from broken worker {widx}",
                snap.cells.total
            );
            if let Some(w) = workers.iter_mut().find(|w| w.index == widx) {
                w.snapshots.insert(id, snap);
            }
        }
        for w in workers.iter_mut() {
            // A reaped child trumps whatever phase says: SIGKILL, abort(),
            // or a clean-but-unexpected exit all land here.
            if let Some(child) = w.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    w.child = None;
                    if !matches!(w.phase, Phase::Stopped) {
                        self.crashed(w, now, &format!("process exited: {status}"), false);
                        continue;
                    }
                }
            }
            enum Action {
                Spawn,
                Handshake { since: Instant },
                Probe,
                Idle,
            }
            let action = match &w.phase {
                Phase::Backoff { until } if now >= *until => Action::Spawn,
                Phase::Starting { since } => Action::Handshake { since: *since },
                Phase::Up { .. } => Action::Probe,
                _ => Action::Idle,
            };
            match action {
                Action::Spawn => self.spawn_worker(w, now),
                Action::Handshake { since } => {
                    // An address alone is not proof of life: a stale
                    // address file points at a dead port, and a remote
                    // address is just configuration. Only a live
                    // `/healthz` promotes the worker to Up.
                    let candidate = match &w.kind {
                        WorkerKind::Spawned => read_addr_file(&w.addr_file),
                        WorkerKind::Remote { addr } => Some(addr.clone()),
                    };
                    let live = candidate.and_then(|addr| {
                        let mut client = HttpClient::new(&addr);
                        let resp = client.request("GET", "/healthz", None);
                        resp.is_ok_and(|r| r.status == 200).then_some(client)
                    });
                    if let Some(client) = live {
                        let addr = client.addr().to_string();
                        eprintln!("supervisor: worker {} up at {addr}", w.index);
                        w.client = Some(client);
                        w.phase = Phase::Up { addr, missed: 0 };
                    } else if now.duration_since(since) > self.config.spawn_timeout {
                        let partition = w.is_remote();
                        self.crashed(
                            w,
                            now,
                            "no address handshake before the spawn timeout",
                            partition,
                        );
                    }
                }
                Action::Probe => {
                    let healthy = w
                        .client
                        .as_mut()
                        .and_then(|c| c.request("GET", "/healthz", None).ok())
                        .is_some_and(|resp| resp.status == 200);
                    if healthy {
                        if let Phase::Up { missed, .. } = &mut w.phase {
                            *missed = 0;
                        }
                        backfill(w, ledger);
                        poll_snapshots(w);
                    } else {
                        let gone = match &mut w.phase {
                            Phase::Up { missed, .. } => {
                                *missed += 1;
                                *missed >= self.config.max_missed.max(1)
                            }
                            _ => false,
                        };
                        if gone {
                            let partition = w.is_remote();
                            self.crashed(w, now, "health probes timed out", partition);
                        }
                    }
                }
                Action::Idle => {}
            }
        }
        let reown = self.reown_candidates(workers, ledger);
        // Resolve pending files once per campaign, from the aggregate
        // view: `done` and `failed` are settled; `degraded`/`cancelled`
        // stay pending so the next incarnation resumes them.
        if let Some(p) = &self.pending {
            for entry in ledger.iter_mut().filter(|e| !e.resolved) {
                if matches!(aggregate(entry, workers).status.as_str(), "done" | "failed") {
                    p.resolve(&entry.id);
                    entry.resolved = true;
                }
            }
        }
        drop(guard);
        for (id, spec_text, widx) in reown {
            let claimed = self
                .reown_inflight
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert((id.clone(), widx));
            if claimed {
                self.spawn_reown(id, spec_text, widx);
            }
        }
    }

    /// Broken-shard slices whose cells no one is finishing: each becomes
    /// a local re-own run. Pure inspection — the in-flight claim happens
    /// after `inner` is released.
    fn reown_candidates(
        &self,
        workers: &[Worker],
        ledger: &[LedgerEntry],
    ) -> Vec<(String, String, u32)> {
        let mut out = Vec::new();
        for w in workers.iter().filter(|w| matches!(w.phase, Phase::Broken)) {
            for entry in ledger {
                if w.snapshots.get(&entry.id).is_some_and(|s| s.status == "done") {
                    continue;
                }
                let status = aggregate(entry, workers).status;
                if status == "failed" || status == "cancelled" {
                    continue;
                }
                out.push((entry.id.clone(), entry.spec_text.clone(), w.index));
            }
        }
        out
    }

    /// Run one broken shard's slice of a campaign on a thread, against
    /// the supervisor's own (peer-reading) cache, and queue the outcome
    /// for the next tick.
    fn spawn_reown(&self, id: String, spec_text: String, widx: u32) {
        eprintln!("supervisor: worker {widx} is broken; re-owning its shard of {id} locally");
        let total = self.shard_total();
        let cache = self.cache.clone();
        let cache_dir = self.config.cache_dir.clone();
        let sim_workers = self.config.sim_workers;
        let done = self.reown_done.clone();
        let key = (id.clone(), widx);
        let spawned = std::thread::Builder::new().name(format!("reown-{widx}")).spawn(move || {
            let outcome = reown_shard(&spec_text, &cache_dir, sim_workers, cache, widx, total);
            done.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push((id, widx, outcome));
        });
        if spawned.is_err() {
            self.reown_inflight
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .remove(&key);
        }
    }

    /// Account a crash: clear the incarnation, arm the backoff clock, or
    /// trip the breaker. `partition` attributes the loss to the network
    /// (remote workers) rather than the process.
    fn crashed(&self, w: &mut Worker, now: Instant, why: &str, partition: bool) {
        kill(w);
        w.client = None;
        w.submitted.clear();
        if partition {
            w.partitions += 1;
        }
        w.restarts += 1;
        if w.restarts > self.config.max_restarts {
            eprintln!(
                "supervisor: worker {} BROKEN after {} restarts ({why}); \
                 degrading to the surviving shards",
                w.index, self.config.max_restarts
            );
            w.phase = Phase::Broken;
            return;
        }
        let delay = self.backoff_policy().backoff(w.restarts, &format!("worker-{}", w.index));
        eprintln!(
            "supervisor: worker {} crashed ({why}); restart {}/{} in {:.2}s",
            w.index,
            w.restarts,
            self.config.max_restarts,
            delay.as_secs_f64()
        );
        w.phase = Phase::Backoff { until: now + delay };
    }

    fn spawn_worker(&self, w: &mut Worker, now: Instant) {
        if w.is_remote() {
            // Adopted, not spawned: enter Starting and let the handshake
            // probe the fixed address until it answers or times out.
            w.phase = Phase::Starting { since: now };
            return;
        }
        let _ = std::fs::remove_file(&w.addr_file);
        let mut cmd = Command::new(self.binary());
        cmd.arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--addr-file")
            .arg(&w.addr_file)
            .arg("--cache")
            .arg(&self.config.cache_dir)
            .arg("--shard")
            .arg(format!("{}/{}", w.index, self.shard_total()))
            .arg("--workers")
            .arg(self.config.sim_workers.to_string())
            .arg("--executors")
            .arg("1")
            .arg("--cell-retries")
            .arg(self.config.cell_retries.to_string())
            // The fleet's pending directory is the source of truth for
            // accepted campaigns; per-worker ones would replay every
            // backfilled spec a second time on each restart.
            .arg("--no-journal");
        // Fault domains are explicit: a worker sees only the plan in
        // `child_env`, never one inherited from the supervisor's own
        // environment (the net-fault chaos tests seed the supervisor).
        cmd.env_remove("HDSMT_FAULT");
        if let Some(d) = self.config.cell_deadline {
            cmd.arg("--cell-deadline-ms").arg(d.as_millis().to_string());
        }
        for (k, v) in &self.config.child_env {
            cmd.env(k, v);
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::null());
        match cmd.spawn() {
            Ok(child) => {
                w.child = Some(child);
                w.phase = Phase::Starting { since: now };
            }
            Err(e) => self.crashed(w, now, &format!("spawn failed: {e}"), false),
        }
    }

    // ---------------------------------------------------------- campaigns

    /// Accept a campaign: validate locally (clean 400s), ledger it, and
    /// push it to every live worker. Restarted workers are backfilled by
    /// the monitor.
    pub fn submit(&self, spec_text: &str) -> Result<CampaignSnapshot, SubmitError> {
        // Same pre-flight as the local path: a bad spec must fail the
        // submission, not n workers later.
        let spec = engine::admit(spec_text).map_err(|e| SubmitError::Invalid(e.0))?;

        let mut guard = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let id = pending::campaign_id('f', guard.seq + 1, spec_text);
        // Durably record the accept before the ledger (and thus the 202)
        // sees it — an accept that cannot be promised to survive is
        // refused, not acknowledged.
        if let Some(p) = &self.pending {
            p.accept(&id, spec_text).map_err(|e| SubmitError::Journal(e.to_string()))?;
        }
        crate::fault::on_accept();
        guard.seq += 1;
        // Build the entry first and ledger it after the worker fan-out:
        // no `expect("just pushed")` back-reference needed, and the
        // snapshot is computed from the same state either way (workers
        // have not reported any cells for a campaign this young).
        let entry = LedgerEntry {
            id: id.clone(),
            name: spec.display_name().to_string(),
            spec_text: spec_text.to_string(),
            result: None,
            resolved: false,
        };
        for w in &mut guard.workers {
            if matches!(w.phase, Phase::Up { .. }) {
                submit_to_worker(w, &entry);
            }
        }
        let snap = aggregate(&entry, &guard.workers);
        guard.ledger.push(entry);
        drop(guard);
        Ok(snap)
    }

    /// Fleet-level snapshot of one campaign: per-cell counters summed
    /// across shards.
    pub fn snapshot(&self, id: &str) -> Option<CampaignSnapshot> {
        let guard = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let entry = guard.ledger.iter().find(|e| e.id == id)?;
        Some(aggregate(entry, &guard.workers))
    }

    pub fn list(&self) -> Vec<CampaignSnapshot> {
        let guard = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.ledger.iter().map(|e| aggregate(e, &guard.workers)).collect()
    }

    /// The finished result: once every shard reports done, replay the
    /// campaign through the local engine on the shared cache (a pure
    /// read — every cell is a hit) and memoize it. `Err` carries the
    /// HTTP status + message for the API layer.
    pub fn results(&self, id: &str) -> Result<CampaignResult, (u16, String)> {
        let (spec_text, worker_addrs) = {
            let guard = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let entry = guard
                .ledger
                .iter()
                .find(|e| e.id == id)
                .ok_or_else(|| (404, format!("no campaign `{id}`")))?;
            if let Some(result) = &entry.result {
                return Ok(result.clone());
            }
            let snap = aggregate(entry, &guard.workers);
            if snap.status != "done" {
                return Err((
                    409,
                    format!(
                        "campaign `{id}` is {}; results exist only once every shard is done",
                        snap.status
                    ),
                ));
            }
            let addrs: Vec<String> = guard
                .workers
                .iter()
                .filter_map(|w| match &w.phase {
                    Phase::Up { addr, .. } => Some(addr.clone()),
                    _ => None,
                })
                .collect();
            (entry.spec_text.clone(), addrs)
        };
        // Anti-entropy: remote workers land cells in *their* caches, not
        // ours. Pull every live worker's manifest diff first so the
        // replay below stays a pure local read (misses the pull raced
        // still resolve through the read-through peer tier).
        for addr in &worker_addrs {
            let pulled = self.cache.sync_from_peer(addr, None);
            if pulled > 0 {
                eprintln!("supervisor: anti-entropy pulled {pulled} cell(s) from {addr}");
            }
        }
        // Replay outside the lock: the engine run is all cache hits, but
        // there is no reason to stall heartbeats on it.
        let mut spec =
            CampaignSpec::parse(&spec_text).map_err(|e| (500, format!("ledger spec: {}", e.0)))?;
        spec.cache_dir = Some(self.config.cache_dir.clone());
        spec.workers = Some(self.config.sim_workers as u64);
        let catalog = engine::catalog_for(&spec);
        let runner = JobRunner::new(self.config.sim_workers, Some(self.cache.clone()));
        let result = engine::run_campaign_with(&spec, &catalog, &runner)
            .map_err(|e| (500, format!("results replay failed: {}", e.0)))?;
        let mut guard = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(entry) = guard.ledger.iter_mut().find(|e| e.id == id) {
            entry.result = Some(result.clone());
        }
        Ok(result)
    }

    /// `GET /workers`.
    pub fn fleet(&self) -> FleetReport {
        let guard = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let workers: Vec<WorkerReport> = guard
            .workers
            .iter()
            .map(|w| WorkerReport {
                index: w.index,
                shard: format!("{}/{}", w.index, self.shard_total()),
                kind: match &w.kind {
                    WorkerKind::Spawned => "spawned".to_string(),
                    WorkerKind::Remote { .. } => "remote".to_string(),
                },
                state: w.phase.label().to_string(),
                addr: match (&w.phase, &w.kind) {
                    (Phase::Up { addr, .. }, _) => Some(addr.clone()),
                    // A down remote still has a configured address worth
                    // showing to the operator.
                    (_, WorkerKind::Remote { addr }) => Some(addr.clone()),
                    _ => None,
                },
                pid: w.child.as_ref().map(Child::id),
                restarts: w.restarts,
                partitions: w.partitions,
            })
            .collect();
        FleetReport {
            supervising: self.shard_total(),
            restarts_total: guard.workers.iter().map(|w| w.restarts as u64).sum(),
            broken: guard.workers.iter().filter(|w| matches!(w.phase, Phase::Broken)).count(),
            partitions_total: guard.workers.iter().map(|w| w.partitions).sum(),
            reowned: self.reowned.load(Ordering::Relaxed),
            workers,
        }
    }

    /// Stop the monitor, drain the workers (graceful `POST /shutdown`,
    /// bounded wait, then kill), and join.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) =
            self.monitor.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take()
        {
            let _ = handle.join();
        }
        let mut guard = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for w in &mut guard.workers {
            if w.is_remote() {
                // An adopted worker belongs to its own operator: stop
                // probing it, but never drain or kill it.
                w.client = None;
                w.phase = Phase::Stopped;
                continue;
            }
            if let (Phase::Up { .. }, Some(client)) = (&w.phase, w.client.as_mut()) {
                let _ = client.request("POST", "/shutdown", None);
            }
            if let Some(child) = w.child.as_mut() {
                let deadline = Instant::now() + Duration::from_secs(5);
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        _ if Instant::now() >= deadline => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                        _ => std::thread::sleep(Duration::from_millis(20)),
                    }
                }
            }
            w.child = None;
            w.client = None;
            w.phase = Phase::Stopped;
        }
    }

    /// Health losses attributed to the network, summed over the fleet.
    pub fn partitions_total(&self) -> u64 {
        let guard = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.workers.iter().map(|w| w.partitions).sum()
    }

    /// Broken-shard slices completed locally on the workers' behalf.
    pub fn reowned_total(&self) -> u64 {
        self.reowned.load(Ordering::Relaxed)
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        // Never leak child processes, even on a panicking exit path.
        self.stop.store(true, Ordering::Relaxed);
        let mut guard = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for w in &mut guard.workers {
            kill(w);
        }
    }
}

fn kill(w: &mut Worker) {
    if let Some(child) = w.child.as_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
    w.child = None;
}

/// How many workers this supervisor forks itself. The legacy default (no
/// remotes, `workers: 0`) still spawns one; a pure-remote fleet
/// (`--supervise 0 --worker ...`) spawns none.
fn spawned_workers(config: &SupervisorConfig) -> u32 {
    if config.workers == 0 && config.remote_workers.is_empty() {
        1
    } else {
        config.workers
    }
}

/// Run one broken shard's slice locally. The supervisor's cache reads
/// through its peers, so cells the broken worker already finished are
/// hits, not re-simulations. `None` = the run failed; a later tick may
/// retry.
fn reown_shard(
    spec_text: &str,
    cache_dir: &str,
    sim_workers: usize,
    cache: ResultCache,
    widx: u32,
    total: u32,
) -> Option<ChildSnapshot> {
    let shard = ShardSpec::parse(&format!("{widx}/{total}")).ok()?;
    let mut spec = CampaignSpec::parse(spec_text).ok()?;
    spec.cache_dir = Some(cache_dir.to_string());
    spec.workers = Some(sim_workers as u64);
    let catalog = engine::catalog_for(&spec);
    let runner = JobRunner::new(sim_workers, Some(cache));
    let result = engine::run_campaign_observed(&spec, &catalog, &runner, Some(shard), &()).ok()?;
    let n = result.cells.len();
    Some(ChildSnapshot {
        status: "done".to_string(),
        cells: CellCounts { total: n, done: n, ..CellCounts::default() },
        search: SearchCounts::default(),
        error: None,
    })
}

/// Remove every `*.addr` (and stranded `*.tmp`) file under
/// `<cache_dir>/.supervise/`, returning how many were removed. A fresh
/// supervisor must start from a clean handshake directory: address files
/// left by a SIGKILLed previous incarnation point at dead ports — or at
/// ports the OS has since handed to unrelated processes.
pub fn clean_stale_addr_files(cache_dir: &str) -> usize {
    let dir = std::path::Path::new(cache_dir).join(".supervise");
    let mut removed = 0usize;
    for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let stale = name.ends_with(".addr") || name.contains(".tmp");
        if stale && path.is_file() && std::fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// The worker wrote its bound address with tmp+rename, so a read sees
/// either nothing or a complete `host:port` line.
fn read_addr_file(path: &std::path::Path) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let addr = text.trim();
    if addr.contains(':') {
        Some(addr.to_string())
    } else {
        None
    }
}

/// Submission retry policy: a couple of quick attempts over the pooled
/// connection. Anything still failing is retried by the next heartbeat's
/// backfill pass, so the budget stays small to keep ticks snappy.
const SUBMIT_RETRY: RetryPolicy =
    RetryPolicy { attempts: 3, base: Duration::from_millis(25), cap: Duration::from_millis(100) };

/// Push every not-yet-submitted ledger entry to a live worker (no-op for
/// a worker that already has them — this is what re-seeds a restarted
/// incarnation).
fn backfill(w: &mut Worker, ledger: &[LedgerEntry]) {
    for entry in ledger {
        if !w.submitted.contains_key(&entry.id) {
            submit_to_worker(w, entry);
        }
    }
}

fn submit_to_worker(w: &mut Worker, entry: &LedgerEntry) {
    let Some(client) = w.client.as_mut() else { return };
    // Transient errors and 503 backpressure get a short retry budget
    // here; anything else waits for the next backfill pass.
    let Ok(resp) =
        client.request_retry("POST", "/campaigns", Some(&entry.spec_text), &SUBMIT_RETRY)
    else {
        return;
    };
    if resp.status != 202 {
        return;
    }
    if let Some(child_id) = serde_json::from_str_value(&resp.body)
        .ok()
        .and_then(|v| v.get("id").and_then(|i| i.as_str()).map(str::to_string))
    {
        w.submitted.insert(entry.id.clone(), child_id);
    }
}

/// Refresh the worker's last-known snapshot of every submitted campaign.
fn poll_snapshots(w: &mut Worker) {
    let pairs: Vec<(String, String)> =
        w.submitted.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
    let mut fresh: Vec<(String, ChildSnapshot)> = Vec::new();
    let mut lost: Vec<String> = Vec::new();
    if let Some(client) = w.client.as_mut() {
        for (ledger_id, child_id) in pairs {
            let Ok(resp) = client.request("GET", &format!("/campaigns/{child_id}"), None) else {
                continue;
            };
            if resp.status == 200 {
                if let Some(snap) = parse_child_snapshot(&resp.body) {
                    fresh.push((ledger_id, snap));
                }
            } else if resp.status == 404 {
                // The worker answers but does not know the campaign: it
                // restarted (same address, fresh ledger) between two
                // probes, fast enough that no probe ever failed. An
                // adopted remote can do this at any time — forget the
                // submission so the next tick backfills it. Finished
                // cells are cache hits on the worker, so the resubmit is
                // idempotent.
                lost.push(ledger_id);
            }
        }
    }
    for (ledger_id, snap) in fresh {
        w.snapshots.insert(ledger_id, snap);
    }
    for ledger_id in lost {
        eprintln!(
            "supervisor: worker {} forgot campaign {ledger_id} (restarted?); resubmitting",
            w.index
        );
        w.submitted.remove(&ledger_id);
    }
}

fn parse_child_snapshot(body: &str) -> Option<ChildSnapshot> {
    let v = serde_json::from_str_value(body).ok()?;
    let counts = |key: &str| {
        let c = v.get(key)?;
        let n = |k: &str| c.get(k).and_then(|x| x.as_u64()).unwrap_or(0) as usize;
        Some((
            n("total"),
            n("queued"),
            n("running"),
            n("done"),
            n("cached"),
            n("failed"),
            n("cancelled"),
            n("finished"),
        ))
    };
    let (total, queued, running, done, cached, failed, cancelled, _) = counts("cells")?;
    let (s_total, .., s_finished) = counts("search").unwrap_or((0, 0, 0, 0, 0, 0, 0, 0));
    Some(ChildSnapshot {
        status: v.get("status")?.as_str()?.to_string(),
        cells: CellCounts { total, queued, running, done, cached, failed, cancelled },
        search: SearchCounts { total: s_total, finished: s_finished },
        error: v.get("error").and_then(|e| e.as_str()).map(str::to_string),
    })
}

/// Sum one campaign's per-worker snapshots into the fleet-level view.
///
/// Status precedence: any shard `failed` → failed; any `cancelled` →
/// cancelled; every live shard `done` → done (or **degraded** when a
/// broken shard can no longer finish its slice); otherwise running —
/// or queued while no shard has reported at all.
///
/// A broken worker whose snapshot is `done` (its slice finished before
/// the breaker tripped, or a re-own run completed it on its behalf)
/// still *covers* its shard, so it counts toward done, not degraded.
fn aggregate(entry: &LedgerEntry, workers: &[Worker]) -> CampaignSnapshot {
    let mut cells = CellCounts::default();
    let mut search = SearchCounts::default();
    let mut error: Option<String> = None;
    let mut any_failed = false;
    let mut any_cancelled = false;
    let mut reported = 0usize;
    let mut live_done = 0usize;
    let mut live = 0usize;
    let mut broken = 0usize;
    for w in workers {
        let snap = w.snapshots.get(&entry.id);
        let done_snap = snap.is_some_and(|s| s.status == "done");
        if matches!(w.phase, Phase::Broken) && !done_snap {
            broken += 1;
        } else {
            live += 1;
            if done_snap {
                live_done += 1;
            }
        }
        let Some(snap) = snap else { continue };
        reported += 1;
        cells.total += snap.cells.total;
        cells.queued += snap.cells.queued;
        cells.running += snap.cells.running;
        cells.done += snap.cells.done;
        cells.cached += snap.cells.cached;
        cells.failed += snap.cells.failed;
        cells.cancelled += snap.cells.cancelled;
        search.total += snap.search.total;
        search.finished += snap.search.finished;
        match snap.status.as_str() {
            "failed" => any_failed = true,
            "cancelled" => any_cancelled = true,
            _ => {}
        }
        if error.is_none() {
            error = snap.error.clone();
        }
    }
    let status = if any_failed {
        "failed"
    } else if any_cancelled {
        "cancelled"
    } else if live > 0 && live_done == live {
        if broken > 0 {
            "degraded"
        } else {
            "done"
        }
    } else if live == 0 {
        // Every shard tripped the breaker: nothing can make progress.
        "degraded"
    } else if reported == 0 {
        "queued"
    } else {
        "running"
    };
    CampaignSnapshot {
        id: entry.id.clone(),
        name: entry.name.clone(),
        status: status.to_string(),
        cells,
        search,
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_addr_files_are_removed_on_startup() {
        let dir =
            std::env::temp_dir().join(format!("hdsmt-supervisor-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handshake = dir.join(".supervise");
        std::fs::create_dir_all(&handshake).unwrap();
        // What a SIGKILLed incarnation leaves behind: address files
        // pointing at dead ports and a stranded tmp from an in-flight
        // atomic write.
        std::fs::write(handshake.join("worker-0.addr"), "127.0.0.1:1\n").unwrap();
        std::fs::write(handshake.join("worker-1.addr"), "127.0.0.1:2\n").unwrap();
        std::fs::write(handshake.join("worker-2.addr.tmp"), "127.0.0").unwrap();
        std::fs::write(handshake.join("unrelated.txt"), "keep me").unwrap();

        let cache_dir = dir.to_string_lossy().into_owned();
        assert_eq!(clean_stale_addr_files(&cache_dir), 3);
        assert!(!handshake.join("worker-0.addr").exists());
        assert!(!handshake.join("worker-2.addr.tmp").exists());
        assert!(handshake.join("unrelated.txt").exists(), "only handshake files are removed");
        assert_eq!(clean_stale_addr_files(&cache_dir), 0, "idempotent");
        // A cache dir with no .supervise/ at all is fine too.
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(clean_stale_addr_files(&cache_dir), 0);
    }
}
