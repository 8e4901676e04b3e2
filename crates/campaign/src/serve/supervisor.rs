//! Fleet supervision: `serve --supervise n [--worker ADDR]...` runs the
//! daemon as a parent over shard workers instead of executing campaigns
//! in-process.
//!
//! # One worker lifecycle
//!
//! Every worker is a `hdsmt-campaign serve --shard i/n` daemon that the
//! supervisor *adopts by address*. A `--worker ADDR` entry names the
//! address up front. A spawned child runs on the shared cache, binds an
//! ephemeral port and reports it through an atomically written address
//! file; once that file appears, the child is adopted exactly like a
//! `--worker`. From there every worker follows one path:
//!
//! - **Starting**: wait for an address that answers `/healthz`. An
//!   address alone is not proof of life: a stale address file points at
//!   a dead port, and a configured address is just configuration.
//! - **Up**: every heartbeat probes `/healthz`, **backfills** each
//!   ledgered campaign the worker has not accepted (the cache makes
//!   resubmission idempotent: completed cells are hits), and polls the
//!   worker's campaign snapshots. [`MAX_MISSED`] consecutive failed
//!   probes count as a loss.
//! - **Backoff**: a lost worker is restarted under exponential backoff
//!   with deterministic jitter.
//! - **Broken**: past [`SupervisorConfig::max_restarts`] the crash-loop
//!   breaker trips and the fleet degrades to the surviving shards. Their
//!   cells still complete, and the broken shard's cells are re-owned
//!   (below).
//!
//! What differs is only what owning a process means. A spawned child is
//! reaped (an exit is a loss too), killed on any loss and relaunched on
//! restart, and drained at shutdown. An adoptee is never killed and is
//! left running at shutdown: it belongs to its own operator. Its losses
//! count as *partitions* — the worker may be fine, the network between
//! us is not — and surface per worker in `GET /workers`.
//!
//! The supervisor also **aggregates** per-worker snapshots into one
//! fleet-level view (`GET /campaigns/:id` sums per-cell counters across
//! shards) and **serves results** by replaying the campaign through the
//! local engine once every shard reports done; like the local registry,
//! it keeps only the most recently finished or read results in memory
//! and replays the others on demand. Adoptees may keep their
//! own cache directories, so the supervisor's cache reads through its
//! configured peers and runs an anti-entropy manifest pull before the
//! replay; by then every cell is a hit, so the replay is a read, not a
//! re-simulation.
//!
//! The supervisor itself runs no simulations and holds no job state: kill
//! it (or any worker) at any point and resubmitting the same specs to a
//! fresh fleet resumes from the cache.
//!
//! When a worker trips the circuit breaker with campaign cells still
//! unfinished, the monitor **re-owns** the broken shard: a local engine
//! run over exactly that shard's cells (any cells the worker managed to
//! finish are cache or peer hits) records a synthetic `done` snapshot on
//! its behalf, so the campaign completes instead of staying `degraded`.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cache::ResultCache;
use crate::engine::{self, CampaignResult};
use crate::job::CampaignError;
use crate::matrix::ShardSpec;
use crate::pending::{self, Pending, Replayed};
use crate::serve::http::{HttpClient, RetryPolicy};
use crate::serve::state::{
    replay, CampaignSnapshot, CellCounts, ResultMemo, SearchCounts, ServerConfig, SubmitError,
};
use crate::spec::CampaignSpec;

/// Fleet timing. Everything else (fleet size, cache, simulation threads,
/// the worker binary and its flags) comes from the daemon's
/// [`ServerConfig`]. Defaults are tuned for "a worker crash costs
/// sub-second recovery" on a local machine.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Monitor tick period (heartbeat + snapshot poll).
    pub heartbeat_interval: Duration,
    /// Restart backoff: `base * 2^(restarts-1)` clamped to `cap`, plus
    /// deterministic jitter.
    pub backoff_base: Duration,
    pub backoff_cap: Duration,
    /// Crash-loop circuit breaker: restarts beyond this mark the worker
    /// broken and the fleet degrades to the surviving shards.
    pub max_restarts: u32,
    /// How long a (re)started worker may take to answer `/healthz` at its
    /// address before the start counts as a loss.
    pub spawn_timeout: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            heartbeat_interval: Duration::from_millis(200),
            backoff_base: Duration::from_millis(250),
            backoff_cap: Duration::from_secs(5),
            max_restarts: 5,
            spawn_timeout: Duration::from_secs(10),
        }
    }
}

/// Consecutive failed `/healthz` probes before an Up worker counts as
/// lost.
const MAX_MISSED: u32 = 3;

/// One worker's lifecycle state.
#[derive(Clone, Copy, Debug)]
enum Phase {
    /// (Re)started; waiting for an address that answers `/healthz`.
    Starting { since: Instant },
    /// Adopted and answering `/healthz`.
    Up { missed: u32 },
    /// Lost; waiting out the restart backoff.
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

struct Worker {
    index: u32,
    /// The address this worker is adopted at: fixed for a `--worker`
    /// adoptee; for an owned child, read from its address file and
    /// forgotten when the child goes.
    addr: Option<String>,
    /// The child process behind this worker, when the supervisor spawned
    /// it.
    owned: Option<OwnedChild>,
    /// Pooled keep-alive connection to the worker, created when it
    /// reaches `Up` and dropped on any loss.
    client: Option<HttpClient>,
    phase: Phase,
    restarts: u32,
    /// Losses of an adoptee. We cannot tell a dead remote from an
    /// unreachable one, so every adoptee loss counts as a partition.
    partitions: u64,
    /// Ledger id → this incarnation's child-side campaign id.
    submitted: HashMap<String, String>,
    /// Ledger id → last snapshot polled from the child (survives the
    /// incarnation that produced it, so aggregation never goes blind
    /// during a restart).
    snapshots: HashMap<String, CampaignSnapshot>,
}

/// What owning a worker's process means: the supervisor launches it,
/// reaps it, kills it and relaunches it. An adoptee has none of this.
struct OwnedChild {
    /// Where the child reports its bound address
    /// (`<cache>/.supervise/worker-<i>.addr`).
    addr_file: PathBuf,
    /// The running incarnation, if any.
    process: Option<Child>,
}

impl OwnedChild {
    /// Launch a fresh incarnation as shard `shard` of the fleet, with
    /// the daemon's simulation flags.
    fn launch(&mut self, server: &ServerConfig, shard: &str) -> std::io::Result<()> {
        let _ = std::fs::remove_file(&self.addr_file);
        let binary = server
            .worker_binary
            .clone()
            .or_else(|| std::env::current_exe().ok())
            .unwrap_or_else(|| PathBuf::from("hdsmt-campaign"));
        let mut cmd = Command::new(binary);
        cmd.arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--addr-file")
            .arg(&self.addr_file)
            .arg("--cache")
            .arg(&server.cache_dir)
            .arg("--shard")
            .arg(shard)
            .arg("--workers")
            .arg(server.sim_workers.to_string())
            .arg("--cell-retries")
            .arg(server.cell_retries.to_string())
            // The fleet's pending directory is the source of truth for
            // accepted campaigns; per-worker ones would replay every
            // backfilled spec a second time on each restart.
            .arg("--no-journal");
        // Fault domains are explicit: a worker sees only the plan in
        // `child_env`, never one inherited from the supervisor's own
        // environment (the net-fault chaos tests seed the supervisor).
        cmd.env_remove("HDSMT_FAULT");
        if let Some(d) = server.cell_deadline {
            cmd.arg("--cell-deadline-ms").arg(d.as_millis().to_string());
        }
        for (k, v) in &server.child_env {
            cmd.env(k, v);
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::null());
        self.process = Some(cmd.spawn()?);
        Ok(())
    }

    /// The status of an incarnation that has exited, which is then
    /// forgotten.
    fn reap(&mut self) -> Option<ExitStatus> {
        let status = self.process.as_mut()?.try_wait().ok()??;
        self.process = None;
        Some(status)
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.process.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Give an incarnation asked to shut down `grace` to exit, then kill
    /// it.
    fn drain(&mut self, grace: Duration) {
        let deadline = Instant::now() + grace;
        while let Some(child) = self.process.as_mut() {
            match child.try_wait() {
                Ok(Some(_)) => self.process = None,
                _ if Instant::now() >= deadline => self.kill(),
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

/// One campaign as the supervisor tracks it: the spec text, for worker
/// backfill and the local results replay.
struct LedgerEntry {
    id: String,
    name: String,
    spec_text: String,
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
    /// The daemon's configuration: fleet size, cache, simulation flags.
    server: ServerConfig,
    /// Shard count: spawned children plus adoptees. Every `--shard i/n`
    /// denominator and fleet report uses it.
    shards: u32,
    cache: ResultCache,
    inner: Mutex<Inner>,
    /// Replayed results of the most recently finished or read campaigns.
    results: ResultMemo,
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

type ReownOutcome = (String, u32, Option<CampaignSnapshot>);

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
    /// Start the fleet described by `server` (`supervise`,
    /// `remote_workers`) and its monitor thread. `recovered` is the
    /// pending accepts replayed from a previous incarnation's fleet
    /// directory — they are re-ledgered with their original ids, and the
    /// monitor backfills them into workers exactly like any other
    /// ledgered campaign (idempotent: finished cells are cache hits).
    pub fn start(
        server: &ServerConfig,
        config: SupervisorConfig,
        cache: ResultCache,
        pending: Option<Arc<Pending>>,
        recovered: Vec<Replayed>,
    ) -> std::io::Result<Arc<Supervisor>> {
        let handshake_dir = Path::new(&server.cache_dir).join(".supervise");
        std::fs::create_dir_all(&handshake_dir)?;
        // A SIGKILLed previous incarnation leaves its workers' address
        // files behind; trusting one would point this supervisor at a
        // dead port (or worse, an unrelated process that reused it).
        let stale = clean_stale_addr_files(&server.cache_dir);
        if stale > 0 {
            eprintln!("supervisor: removed {stale} stale worker address file(s)");
        }
        // Spawned children take shard indices 0..children; adoptees take
        // the indices after them. Everyone starts in an expired Backoff
        // so startup and restart share one code path.
        let children = (0..spawned_children(server)).map(|i| {
            let addr_file = handshake_dir.join(format!("worker-{i}.addr"));
            (None, Some(OwnedChild { addr_file, process: None }))
        });
        let adoptees = server.remote_workers.iter().map(|addr| (Some(addr.clone()), None));
        let workers: Vec<Worker> = children
            .chain(adoptees)
            .enumerate()
            .map(|(index, (addr, owned))| {
                let index = index as u32;
                if let (Some(addr), None) = (&addr, &owned) {
                    eprintln!("supervisor: adopting remote worker {index} at {addr}");
                }
                Worker {
                    index,
                    addr,
                    owned,
                    client: None,
                    phase: Phase::Backoff { until: Instant::now() },
                    restarts: 0,
                    partitions: 0,
                    submitted: HashMap::new(),
                    snapshots: HashMap::new(),
                }
            })
            .collect();
        let seq = recovered.iter().filter_map(|r| pending::id_seq(&r.id)).max().unwrap_or(0);
        let ledger: Vec<LedgerEntry> = recovered
            .into_iter()
            .map(|rec| LedgerEntry {
                name: rec.spec.display_name().to_string(),
                id: rec.id,
                spec_text: rec.spec_text,
                resolved: false,
            })
            .collect();
        let supervisor = Arc::new(Supervisor {
            config,
            server: server.clone(),
            shards: workers.len() as u32,
            cache,
            inner: Mutex::new(Inner { workers, ledger, seq }),
            results: ResultMemo::default(),
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

    fn backoff_policy(&self) -> RetryPolicy {
        RetryPolicy {
            attempts: u32::MAX,
            base: self.config.backoff_base,
            cap: self.config.backoff_cap,
        }
    }

    // ------------------------------------------------------------ monitor

    fn monitor_loop(&self) {
        while !self.stop.load(Ordering::Relaxed) {
            self.tick();
            std::thread::sleep(self.config.heartbeat_interval);
        }
    }

    /// One heartbeat over every worker: reap exited children, advance
    /// every worker one lifecycle step, and re-own broken shards' cells.
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
            if let Some(status) = w.owned.as_mut().and_then(OwnedChild::reap) {
                if !matches!(w.phase, Phase::Stopped) {
                    self.lost(w, now, &format!("process exited: {status}"));
                    continue;
                }
            }
            match w.phase {
                Phase::Backoff { until } if now >= until => self.restart(w, now),
                Phase::Starting { since } => self.handshake(w, now, since),
                Phase::Up { .. } => self.probe(w, now, ledger),
                _ => {}
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

    /// Backoff → Starting: relaunch an owned child, then wait for its
    /// address like any adoptee's.
    fn restart(&self, w: &mut Worker, now: Instant) {
        if let Some(child) = &mut w.owned {
            let shard = format!("{}/{}", w.index, self.shards);
            if let Err(e) = child.launch(&self.server, &shard) {
                self.lost(w, now, &format!("spawn failed: {e}"));
                return;
            }
        }
        w.phase = Phase::Starting { since: now };
    }

    /// Starting → Up once the worker's address answers `/healthz`. An
    /// owned child's address is the one its address file reports.
    fn handshake(&self, w: &mut Worker, now: Instant, since: Instant) {
        if w.addr.is_none() {
            w.addr = w.owned.as_ref().and_then(|child| read_addr_file(&child.addr_file));
        }
        let live = w.addr.as_deref().and_then(|addr| {
            let mut client = HttpClient::new(addr);
            let resp = client.request("GET", "/healthz", None);
            resp.is_ok_and(|r| r.status == 200).then_some(client)
        });
        if let Some(client) = live {
            eprintln!("supervisor: worker {} up at {}", w.index, client.addr());
            w.client = Some(client);
            w.phase = Phase::Up { missed: 0 };
        } else if now.duration_since(since) > self.config.spawn_timeout {
            self.lost(w, now, "no address handshake before the spawn timeout");
        }
    }

    /// Up: probe `/healthz`; a healthy worker is backfilled and polled,
    /// and [`MAX_MISSED`] failed probes in a row lose it.
    fn probe(&self, w: &mut Worker, now: Instant, ledger: &[LedgerEntry]) {
        let healthy = w
            .client
            .as_mut()
            .and_then(|c| c.request("GET", "/healthz", None).ok())
            .is_some_and(|resp| resp.status == 200);
        let Phase::Up { missed } = &mut w.phase else { return };
        if healthy {
            *missed = 0;
            backfill(w, ledger);
            poll_snapshots(w);
        } else {
            *missed += 1;
            if *missed >= MAX_MISSED {
                self.lost(w, now, "health probes timed out");
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
        let total = self.shards;
        let cache = self.cache.clone();
        let server = self.server.clone();
        let done = self.reown_done.clone();
        let key = (id.clone(), widx);
        let spawned = std::thread::Builder::new().name(format!("reown-{widx}")).spawn(move || {
            let outcome = reown_shard(&id, &spec_text, &server, cache, widx, total);
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

    /// Account a lost worker: end the incarnation, then arm the backoff
    /// clock or trip the breaker. An owned child is killed and its
    /// address forgotten (the next incarnation reports a fresh one); an
    /// adoptee's loss counts as a partition.
    fn lost(&self, w: &mut Worker, now: Instant, why: &str) {
        match &mut w.owned {
            Some(child) => {
                child.kill();
                w.addr = None;
            }
            None => w.partitions += 1,
        }
        w.client = None;
        w.submitted.clear();
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
    /// read — every cell is a hit) and retain it in the bounded memo.
    /// `Err` carries the HTTP status + message for the API layer.
    pub fn results(&self, id: &str) -> Result<Arc<CampaignResult>, (u16, String)> {
        // The memo's lock is taken before `inner`, never inside it.
        if let Some(result) = self.results.get(id) {
            return Ok(result);
        }
        let (spec_text, worker_addrs) = {
            let guard = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let entry = guard
                .ledger
                .iter()
                .find(|e| e.id == id)
                .ok_or_else(|| (404, format!("no campaign `{id}`")))?;
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
                .filter(|w| matches!(w.phase, Phase::Up { .. }))
                .filter_map(|w| w.addr.clone())
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
        let result = run_locally(&spec_text, &self.server, self.cache.clone(), None)
            .map_err(|e| (500, format!("results replay failed: {}", e.0)))?;
        Ok(self.results.put(id, result))
    }

    /// Replayed results held in memory (at most
    /// [`crate::serve::state::RESULTS_RETAINED`]).
    pub fn results_retained(&self) -> usize {
        self.results.len()
    }

    /// `GET /workers`.
    pub fn fleet(&self) -> FleetReport {
        let guard = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let workers: Vec<WorkerReport> = guard
            .workers
            .iter()
            .map(|w| WorkerReport {
                index: w.index,
                shard: format!("{}/{}", w.index, self.shards),
                kind: if w.owned.is_some() { "spawned" } else { "remote" }.to_string(),
                state: w.phase.label().to_string(),
                // A down adoptee still has a configured address worth
                // showing to the operator.
                addr: w.addr.clone(),
                pid: w.owned.as_ref().and_then(|c| c.process.as_ref()).map(Child::id),
                restarts: w.restarts,
                partitions: w.partitions,
            })
            .collect();
        FleetReport {
            supervising: self.shards,
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
            // An adoptee belongs to its own operator: stop probing it,
            // but never drain or kill it.
            if let Some(child) = &mut w.owned {
                if let (Phase::Up { .. }, Some(client)) = (w.phase, w.client.as_mut()) {
                    let _ = client.request("POST", "/shutdown", None);
                }
                child.drain(Duration::from_secs(5));
                w.addr = None;
            }
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
        for child in guard.workers.iter_mut().filter_map(|w| w.owned.as_mut()) {
            child.kill();
        }
    }
}

/// The fleet-size rule: how many children `--supervise n` spawns. That
/// is `n`, except that a fleet with no `--worker` adoptees always spawns
/// at least one; `--supervise 0 --worker ...` spawns none.
fn spawned_children(server: &ServerConfig) -> u32 {
    match server.supervise.unwrap_or(0) {
        0 if !server.remote_workers.is_empty() => 0,
        n => n.max(1),
    }
}

/// Run one broken shard's slice locally. The supervisor's cache reads
/// through its peers, so cells the broken worker already finished are
/// hits, not re-simulations. `None` = the run failed; a later tick may
/// retry.
fn reown_shard(
    id: &str,
    spec_text: &str,
    server: &ServerConfig,
    cache: ResultCache,
    widx: u32,
    total: u32,
) -> Option<CampaignSnapshot> {
    let shard = ShardSpec::parse(&format!("{widx}/{total}")).ok()?;
    let result = run_locally(spec_text, server, cache, Some(shard)).ok()?;
    let n = result.cells.len();
    Some(CampaignSnapshot {
        id: id.to_string(),
        name: result.name,
        status: "done".to_string(),
        cells: CellCounts { total: n, done: n, ..CellCounts::default() },
        search: SearchCounts::default(),
        error: None,
    })
}

/// Run a ledgered campaign, or one shard of it, through the local engine
/// on the supervisor's (peer-reading) cache: [`replay`] of the spec text.
fn run_locally(
    spec_text: &str,
    server: &ServerConfig,
    cache: ResultCache,
    shard: Option<ShardSpec>,
) -> Result<CampaignResult, CampaignError> {
    replay(&server.own(CampaignSpec::parse(spec_text)?), server, cache, shard)
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
    let mut fresh: Vec<(String, CampaignSnapshot)> = Vec::new();
    let mut lost: Vec<String> = Vec::new();
    if let Some(client) = w.client.as_mut() {
        for (ledger_id, child_id) in pairs {
            let Ok(resp) = client.request("GET", &format!("/campaigns/{child_id}"), None) else {
                continue;
            };
            if resp.status == 200 {
                if let Ok(snap) = serde_json::from_str::<CampaignSnapshot>(&resp.body) {
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
