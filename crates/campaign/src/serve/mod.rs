//! `hdsmt-campaign serve` — the sweep-service daemon.
//!
//! Runs campaigns as a long-lived HTTP/JSON service instead of one-shot
//! CLI invocations: clients `POST` a TOML/JSON spec, poll per-cell
//! progress, and fetch results, while a persistent executor runs them,
//! one campaign at a time, through the exact same cached
//! [`crate::job::JobRunner`] path as `hdsmt-campaign run` — identical
//! cache keys, identical oracle search sub-jobs, identical panic
//! isolation.
//!
//! # API
//!
//! | Route                     | Method | Meaning                                    |
//! |---------------------------|--------|--------------------------------------------|
//! | `/healthz`                | GET    | liveness probe                             |
//! | `/stats`                  | GET    | uptime, job totals, cache hit/miss/corrupt |
//! | `/campaigns`              | POST   | submit a spec (TOML or JSON body) → 202 + id |
//! | `/campaigns`              | GET    | list held campaigns, in submission order   |
//! | `/campaigns/:id`          | GET    | per-cell progress snapshot (404 if dropped) |
//! | `/campaigns/:id/results`  | GET    | export (`?format=json\|csv\|summary`)      |
//! | `/cells/:hash`            | GET    | verbatim cache entry by content key        |
//! | `/cells/:hash?sha256=hex` | PUT    | land one checksummed cache entry           |
//! | `/shutdown`               | POST   | graceful drain (same as SIGINT)            |
//!
//! The registry holds every queued and running campaign, plus the
//! [`state::CAMPAIGNS_RETAINED`] settled (done or failed) ones most
//! recently settled or read; reading a campaign's snapshot or results
//! counts. Past that bound the least recently read settled campaign is
//! dropped: its id then answers 404 on both routes, like an unknown one,
//! and its cells stay in the cache. `/stats` counts every submission.
//!
//! Errors are structured JSON (`{"error":{"status":…,"message":…}}`) —
//! see [`api`] for the exact status-code mapping. Backpressure 503s from
//! the bounded queue carry a `Retry-After` header scaled to the backlog;
//! the bundled thin client honors it with capped exponential backoff
//! (see [`http::RetryPolicy`]).
//!
//! # One daemon, one executor, and the failure model
//!
//! Every daemon runs the campaigns it accepts. There is one campaign
//! registry, [`ServerState`]: it assigns ids, records pending accepts,
//! counts campaigns and serves results. Each accepted campaign is queued
//! for the daemon's one executor thread, which runs it on a fresh
//! [`crate::job::JobRunner`] and streams per-cell progress into the
//! registry entry. The failure model, in decreasing order of blast
//! radius:
//!
//! - **Daemon crash** (SIGKILL, `abort()`, OOM): every accepted campaign
//!   is a pending file (below), so a restarted daemon on the same cache
//!   replays it under its original id and resumes from the cells already
//!   cached.
//! - **Hung cell** (infinite loop in a simulation): the per-cell
//!   watchdog (`--cell-deadline-ms`) cancels the attempt cooperatively,
//!   retries it up to `--cell-retries` times, then marks the cell
//!   failed-with-timeout; the campaign completes around it with the
//!   failure recorded in the cell's `error` field.
//! - **Corrupt cache entry** (torn write, bit rot): quarantined on
//!   detection — atomically renamed into `quarantine/` with a reason
//!   file — so it is re-simulated on next use and never read twice;
//!   `status` and `GET /stats` report the quarantined count.
//! - **Failed cache write** (injected I/O error, full disk): costs
//!   resumability, not correctness — the in-hand result is returned and
//!   the cell re-simulates next run.
//!
//! # Deterministic fault injection
//!
//! Compiled with `--features fault-inject`, the daemon (and CLI) honor a
//! seeded fault plan in `HDSMT_FAULT`: `;`-separated directives of the
//! form `kind@counter=n[,n...]`, firing on the n-th event of a
//! per-process counter (see [`crate::fault`] for the grammar — `hang@sim`,
//! `corrupt@put`, `err@put`, `kill@accept`, `err@journal`,
//! `torn@journal`). The chaos e2e suite drives
//! hang/corrupt matrices through a daemon with one simulation worker, so
//! every failure fires at the same cell on every run. Without the
//! feature (the default), every hook compiles to a no-op.
//!
//! # Sharding
//!
//! Several daemons can split one campaign across processes with
//! `serve --shard i/n`, all pointing at the same cache directory.
//! **Ownership rule:** shard `i` of `n` owns a cell
//! iff the first 8 bytes of `SHA-256("<arch>\x1f<workload id>\x1f<policy>")`,
//! read as a big-endian `u64`, are ≡ `i` (mod `n`). Ownership depends only
//! on cell *identity* — not on mappings or budgets — so every shard
//! partitions the same spec identically with zero coordination: no cell
//! is lost, none is measured twice. (`best`/`worst` cells of one
//! (arch, workload) pair landing on different shards duplicate a search
//! *sweep*; the shared content-addressed cache coalesces those jobs, so
//! the duplication costs at most one warm pass.)
//!
//! # Cell replication
//!
//! `PUT /cells/:hash` lands one entry copied from another cache, under
//! one rule: **byte-equality or quarantine.** Cache entries are
//! deterministic, so two copies of one content key must be
//! byte-identical. The route verifies a `?sha256=` checksum of the body
//! (transit corruption → 422, nothing lands), validates the entry, and
//! lands it atomically; if a *different* body already exists under the
//! same key, the incoming copy is quarantined and the PUT answers 409 —
//! never last-write-wins, and a quarantined copy is never served.
//! `GET /stats` counts landed copies as `cells_replicated`.
//!
//! # The cache is the database
//!
//! The daemon keeps no job state of its own: every finished simulation is
//! an atomically written (`tmp` + rename) entry in the content-addressed
//! cache, and progress/`/stats` counters are derived in memory. Killing a
//! daemon mid-campaign therefore loses nothing — resubmitting the same
//! spec to a fresh daemon (or running `hdsmt-campaign run` on the same
//! cache) resumes from the completed cells. Graceful shutdown (SIGINT or
//! `POST /shutdown`) stops accepting work, cancels not-yet-started jobs,
//! and lets in-flight simulations finish and cache before exiting 0.
//!
//! # Durability & recovery
//!
//! The cache makes finished *cells* durable; pending files make accepted
//! *campaigns* durable. Before any `POST /campaigns` returns its 202,
//! the verbatim spec text is published as
//! `<cache>/pending/<role>/<id>.spec` by [`crate::cache::write_atomic`]
//! (role `serve`, or `serve-shard-i-of-n` for `--shard`), and deleted
//! when the campaign reaches `done` or `failed`. The rename is the commit
//! point, so there is no torn record to detect or repair (see
//! [`crate::pending`]).
//!
//! On startup the daemon reaps orphaned `*.tmp` files older than a
//! safety threshold, replays its role directory in id order, and
//! resubmits every unfinished campaign — **with its original id** —
//! through the ordinary cached JobRunner path. Replay is idempotent by
//! construction: cells the previous incarnation finished are cache
//! hits, so a SIGKILLed campaign resumes rather than restarts, with zero
//! lost or duplicated cells. A campaign cancelled by shutdown keeps its
//! file and resumes the same way. `GET /stats` reports
//! `journal_records` (pending files this daemon holds),
//! `journal_replayed`, and `tmp_reaped`.
//!
//! An accept that cannot be made durable (full disk, injected
//! `err@journal`) is refused with 503 + `Retry-After` — the daemon never
//! acknowledges work it cannot promise to survive. `--no-journal`
//! disables pending files entirely, and `--durable` extends the crash
//! model from process death to host power loss by fsyncing every cache
//! entry before its rename publishes it. `hdsmt-campaign fsck` (see
//! [`crate::fsck`]) verifies and repairs a cache tree offline: scrub +
//! quarantine, tmp reaping, a pending-accept count, quarantine GC.

pub mod api;
pub mod http;
pub mod queue;
pub mod state;

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

pub use state::{ServerConfig, ServerState};

/// Per-connection socket timeouts: a stalled peer must not pin a handler
/// thread forever.
const CONN_TIMEOUT: Duration = Duration::from_secs(30);

/// Connection-handler threads for the HTTP front door.
const HTTP_WORKERS: usize = 4;

// ------------------------------------------------------------- SIGINT
// No `libc` crate is available offline, so the handler installation is a
// one-line FFI declaration of POSIX `signal(2)`. The handler itself only
// stores to an atomic — the single thing that is async-signal-safe.

#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGINT_SEEN: AtomicBool = AtomicBool::new(false);
    const SIGINT: i32 = 2;

    extern "C" fn on_sigint(_signum: i32) {
        SIGINT_SEEN.store(true, Ordering::Relaxed);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        // SAFETY: `signal(2)` with a handler that only stores to a static
        // AtomicBool — async-signal-safe, no allocation, no locks; the
        // handler address stays valid for the process lifetime.
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    }

    pub fn seen() -> bool {
        SIGINT_SEEN.load(Ordering::Relaxed)
    }
}

#[cfg(not(unix))]
mod sigint {
    pub fn install() {}
    pub fn seen() -> bool {
        false
    }
}

/// A running daemon: acceptor + HTTP handler pool + campaign executor.
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
    handlers: Vec<JoinHandle<()>>,
    /// Runs queued campaigns one at a time, each on its own
    /// [`crate::job::JobRunner`].
    executor: JoinHandle<()>,
    /// Set once a shutdown poke has been sent, so idempotent shutdown
    /// paths (handler, SIGINT loop, explicit call) don't race.
    poked: Arc<AtomicBool>,
}

impl Server {
    /// Bind `config.addr` (use port 0 for an ephemeral test port) and
    /// start all threads. Returns once the daemon is accepting.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState::new(config)?);
        let poked = Arc::new(AtomicBool::new(false));

        // The campaign executor drains the bounded queue until it
        // closes. Spawn failures (thread exhaustion) propagate as the
        // start error they are, instead of panicking half-started.
        let executor = {
            let state = state.clone();
            std::thread::Builder::new().name("serve-exec".into()).spawn(move || {
                while let Some(entry) = state.queue.pop() {
                    state.execute(&entry);
                }
            })?
        };

        // HTTP handlers: one shared receiver of accepted connections.
        // Handlers exit when the acceptor drops the sender.
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let handlers = (0..HTTP_WORKERS)
            .map(|i| {
                let state = state.clone();
                let conn_rx = conn_rx.clone();
                let poked = poked.clone();
                std::thread::Builder::new().name(format!("serve-http-{i}")).spawn(move || loop {
                    let Ok(stream) = ({
                        let guard = conn_rx.lock().unwrap_or_else(|e| e.into_inner());
                        guard.recv()
                    }) else {
                        return;
                    };
                    handle_connection(&state, stream);
                    // A request may have initiated shutdown
                    // (`POST /shutdown`): wake the blocked acceptor.
                    if state.is_shutting_down() {
                        poke(&addr, &poked);
                    }
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        let acceptor = {
            let state = state.clone();
            std::thread::Builder::new().name("serve-accept".into()).spawn(move || {
                for conn in listener.incoming() {
                    if state.is_shutting_down() {
                        break; // the poke connection lands here
                    }
                    let Ok(stream) = conn else { continue };
                    let _ = stream.set_read_timeout(Some(CONN_TIMEOUT));
                    let _ = stream.set_write_timeout(Some(CONN_TIMEOUT));
                    // Responses leave in one write; no-delay also sends
                    // the tail segment of a multi-segment body at once.
                    let _ = stream.set_nodelay(true);
                    if conn_tx.send(stream).is_err() {
                        break;
                    }
                }
                // conn_tx drops here → handler pool drains and exits.
            })?
        };

        Ok(Server { state, addr, acceptor, handlers, executor, poked })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Block until SIGINT or `POST /shutdown`, then drain and join.
    /// This is the `hdsmt-campaign serve` main loop.
    pub fn run(self) {
        sigint::install();
        while !self.state.is_shutting_down() {
            if sigint::seen() {
                self.state.begin_shutdown();
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        self.join();
    }

    /// Initiate the graceful drain and wait for every thread: stop
    /// accepting, cancel not-yet-started jobs, let in-flight simulations
    /// finish and cache, then return.
    pub fn shutdown_and_join(self) {
        self.state.begin_shutdown();
        self.join();
    }

    fn join(self) {
        poke(&self.addr, &self.poked);
        let _ = self.acceptor.join();
        for h in self.handlers {
            let _ = h.join();
        }
        let _ = self.executor.join();
    }
}

/// Wake an acceptor blocked in `accept()` with a throwaway connection
/// (once — the flag makes repeated shutdown paths cheap and race-free).
fn poke(addr: &SocketAddr, poked: &AtomicBool) {
    if !poked.swap(true, Ordering::Relaxed) {
        let _ = TcpStream::connect(addr);
    }
}

/// How long a keep-alive connection may sit idle between requests before
/// the handler closes it and returns to the accept pool.
const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(5);

/// Serve one connection: parse, route, respond — repeatedly, while the
/// peer asks for keep-alive. One buffered reader lives as long as the
/// connection, so pipelined requests that arrive in one segment are all
/// served. Transport errors that yield no parseable request are answered
/// with a structured JSON error when possible and otherwise dropped.
fn handle_connection(state: &ServerState, stream: TcpStream) {
    let mut reader = BufReader::new(stream);
    let mut first = true;
    loop {
        if !first && !wait_for_next_request(state, &reader) {
            return;
        }
        first = false;
        let request = match http::read_request(&mut reader) {
            Ok(request) => request,
            Err(http::HttpError::Io(_)) => return, // peer went away mid-request
            Err(err) => {
                let response = api::transport_error_response(&err);
                let _ = http::write_response(reader.get_mut(), &response, false);
                return;
            }
        };
        // A draining daemon closes after the in-hand response so no
        // handler thread stays pinned to an idle connection.
        let keep = request.keep_alive && !state.is_shutting_down();
        let response = api::handle(state, &request);
        if http::write_response(reader.get_mut(), &response, keep).is_err() || !keep {
            return;
        }
    }
}

/// Park between keep-alive requests. A request already buffered by the
/// reader is here at once; otherwise peek (never read) the socket in
/// short slices so shutdown is noticed promptly and a partially arrived
/// request is never consumed and dropped. `false` means close the
/// connection (peer gone, idle past [`KEEP_ALIVE_IDLE`], or the daemon
/// is draining).
fn wait_for_next_request(state: &ServerState, reader: &BufReader<TcpStream>) -> bool {
    if !reader.buffer().is_empty() {
        return !state.is_shutting_down();
    }
    let stream = reader.get_ref();
    let deadline = std::time::Instant::now() + KEEP_ALIVE_IDLE;
    let mut byte = [0u8; 1];
    loop {
        if state.is_shutting_down() {
            return false;
        }
        if stream.set_read_timeout(Some(Duration::from_millis(250))).is_err() {
            return false;
        }
        match stream.peek(&mut byte) {
            Ok(0) => return false, // peer closed
            Ok(_) => return stream.set_read_timeout(Some(CONN_TIMEOUT)).is_ok(),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if std::time::Instant::now() >= deadline {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::http::{HttpClient, HttpResponse};

    fn test_config(tag: &str) -> ServerConfig {
        let dir =
            std::env::temp_dir().join(format!("hdsmt-serve-mod-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            cache_dir: dir.to_string_lossy().into_owned(),
            sim_workers: 2,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn serves_health_and_stats_over_a_real_socket() {
        let server = Server::start(test_config("health")).unwrap();
        let addr = server.addr().to_string();
        let HttpResponse { status, body, .. } =
            HttpClient::new(&addr).request("GET", "/healthz", None).unwrap();
        assert_eq!((status, body.as_str()), (200, r#"{"status":"ok"}"#));
        let HttpResponse { status, body, .. } =
            HttpClient::new(&addr).request("GET", "/stats", None).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"uptime_secs\""), "{body}");
        let cache_dir = server.state().cache.dir().to_path_buf();
        server.shutdown_and_join();
        let _ = std::fs::remove_dir_all(cache_dir);
    }

    #[test]
    fn post_shutdown_terminates_the_daemon() {
        let server = Server::start(test_config("shutdown")).unwrap();
        let addr = server.addr().to_string();
        let HttpResponse { status, .. } =
            HttpClient::new(&addr).request("POST", "/shutdown", None).unwrap();
        assert_eq!(status, 202);
        let cache_dir = server.state().cache.dir().to_path_buf();
        // All threads must come down without an external poke or timeout.
        server.shutdown_and_join();
        assert!(
            HttpClient::new(&addr).request("GET", "/healthz", None).is_err(),
            "the socket must be closed after shutdown"
        );
        let _ = std::fs::remove_dir_all(cache_dir);
    }
}
