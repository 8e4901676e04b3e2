//! Chaos and fault-tolerance tests: the supervised fleet surviving
//! SIGKILL, the per-cell watchdog, and — behind the `fault-inject`
//! feature — the deterministic fault matrix (hung simulations, torn
//! cache writes, worker kills) riding through to a complete, bit-stable
//! campaign.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hdsmt_campaign::serve::http::{HttpClient, HttpResponse};
use hdsmt_campaign::serve::{Server, ServerConfig};
use hdsmt_campaign::{JobRunner, JobSpec, JobThread, ResultCache, Watchdog};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hdsmt-chaos-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

fn json(body: &str) -> serde_json::Value {
    serde_json::from_str_value(body).unwrap_or_else(|e| panic!("bad JSON ({e}): {body}"))
}

fn submit(addr: &str, spec: &str) -> String {
    let HttpResponse { status, body, .. } =
        HttpClient::new(addr).request("POST", "/campaigns", Some(spec)).unwrap();
    assert_eq!(status, 202, "{body}");
    json(&body).get("id").and_then(|i| i.as_str()).unwrap().to_string()
}

fn cell_count(snap: &serde_json::Value, key: &str) -> u64 {
    snap.get("cells").and_then(|c| c.get(key)).and_then(|v| v.as_u64()).unwrap()
}

/// Poll until the campaign reaches a terminal/steady phase.
fn wait_terminal(addr: &str, id: &str) -> serde_json::Value {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let HttpResponse { status, body, .. } =
            HttpClient::new(addr).request("GET", &format!("/campaigns/{id}"), None).unwrap();
        assert_eq!(status, 200, "{body}");
        let snap = json(&body);
        let phase = snap.get("status").and_then(|s| s.as_str()).unwrap().to_string();
        if ["done", "failed", "cancelled", "degraded"].contains(&phase.as_str()) {
            return snap;
        }
        assert!(Instant::now() < deadline, "campaign `{id}` stuck: {snap:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// A supervised daemon: the parent executes nothing itself; shard-worker
/// child processes (spawned from the test-built binary) do the work.
fn supervised_server(cache: &Path, workers: u32, env: Vec<(String, String)>) -> Server {
    supervised_server_with(cache, workers, env, |_| {})
}

fn supervised_server_with(
    cache: &Path,
    workers: u32,
    env: Vec<(String, String)>,
    tweak: impl FnOnce(&mut ServerConfig),
) -> Server {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: cache.to_string_lossy().into_owned(),
        sim_workers: 1,
        supervise: Some(workers),
        worker_binary: Some(env!("CARGO_BIN_EXE_hdsmt-campaign").into()),
        child_env: env,
        ..ServerConfig::default()
    };
    tweak(&mut config);
    Server::start(config).unwrap()
}

fn fleet(addr: &str) -> serde_json::Value {
    let HttpResponse { status, body, .. } =
        HttpClient::new(addr).request("GET", "/workers", None).unwrap();
    assert_eq!(status, 200, "{body}");
    json(&body)
}

fn restarts_total(report: &serde_json::Value) -> u64 {
    report.get("restarts_total").and_then(|v| v.as_u64()).unwrap()
}

/// rr-policy spec (no oracle search phase): 4 cells.
const SPEC: &str = r#"
name = "chaos-e2e"
archs = ["M8", "2M4+2M2"]
workloads = ["2W1", "2W7"]
policies = ["rr"]
seed = 9
[budget]
measure_insts = 1500
warmup_insts = 600
search_insts = 500
"#;

/// A slower 8-cell campaign, so a SIGKILL can land mid-flight. The
/// budget is sized so the campaign spans many 200ms supervisor ticks
/// even on a fast host: a kill gated on a *partial* snapshot (see
/// [`wait_partial`]) needs a genuine mid-flight window to aim at.
const SLOW_SPEC: &str = r#"
name = "chaos-kill"
archs = ["M8", "3M4", "4M4", "2M4+2M2"]
workloads = ["2W1", "2W7"]
policies = ["rr"]
seed = 9
[budget]
measure_insts = 150000
warmup_insts = 1500
search_insts = 500
"#;

#[test]
fn supervised_fleet_completes_a_campaign_and_reports_its_workers() {
    let dir = tmpdir("fleet");
    let server = supervised_server(&dir.join("cache"), 2, Vec::new());
    let addr = server.addr().to_string();

    let id = submit(&addr, SPEC);
    assert!(id.starts_with('f'), "fleet campaign ids are supervisor-scoped: {id}");
    let snap = wait_terminal(&addr, &id);
    assert_eq!(snap.get("status").and_then(|s| s.as_str()), Some("done"), "{snap:?}");
    assert_eq!(cell_count(&snap, "total"), 4, "{snap:?}");
    assert_eq!(cell_count(&snap, "failed"), 0, "{snap:?}");
    assert_eq!(
        cell_count(&snap, "done") + cell_count(&snap, "cached"),
        4,
        "no cell lost, none duplicated: {snap:?}"
    );

    // The fleet is visible and healthy.
    let report = fleet(&addr);
    assert_eq!(report.get("supervising").and_then(|v| v.as_u64()), Some(2), "{report:?}");
    assert_eq!(restarts_total(&report), 0, "{report:?}");
    let workers = report.get("workers").and_then(|w| w.as_array()).unwrap();
    assert_eq!(workers.len(), 2);
    for w in workers {
        assert_eq!(w.get("state").and_then(|s| s.as_str()), Some("up"), "{w:?}");
        assert!(w.get("pid").and_then(|p| p.as_u64()).is_some(), "{w:?}");
        assert!(w.get("shard").and_then(|s| s.as_str()).unwrap().ends_with("/2"), "{w:?}");
    }

    // Results come from a cache replay; two fetches are byte-identical.
    let HttpResponse { status, body: body1, .. } =
        HttpClient::new(&addr).request("GET", &format!("/campaigns/{id}/results"), None).unwrap();
    assert_eq!(status, 200, "{body1}");
    let HttpResponse { body: body2, .. } =
        HttpClient::new(&addr).request("GET", &format!("/campaigns/{id}/results"), None).unwrap();
    assert_eq!(body1, body2, "results must be memoized bit-identically");
    assert_eq!(json(&body1).get("cells").and_then(|c| c.as_array()).map(|a| a.len()), Some(4));

    // Resubmit: every shard serves its slice from the shared cache.
    let id2 = submit(&addr, SPEC);
    let snap2 = wait_terminal(&addr, &id2);
    assert_eq!(snap2.get("status").and_then(|s| s.as_str()), Some("done"), "{snap2:?}");
    assert_eq!(cell_count(&snap2, "cached"), 4, "resubmit must be fully cached: {snap2:?}");

    server.shutdown_and_join();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_worker_restarts_and_the_campaign_still_completes_exactly() {
    let dir = tmpdir("sigkill");
    let server = supervised_server(&dir.join("cache"), 1, Vec::new());
    let addr = server.addr().to_string();
    let id = submit(&addr, SLOW_SPEC);

    // Let the worker make some progress, then SIGKILL it mid-campaign.
    let deadline = Instant::now() + Duration::from_secs(120);
    let pid = loop {
        let HttpResponse { body, .. } =
            HttpClient::new(&addr).request("GET", &format!("/campaigns/{id}"), None).unwrap();
        let snap = json(&body);
        let concluded = cell_count(&snap, "done") + cell_count(&snap, "cached");
        let report = fleet(&addr);
        let pid = report
            .get("workers")
            .and_then(|w| w.as_array())
            .and_then(|w| w.first())
            .and_then(|w| w.get("pid"))
            .and_then(|p| p.as_u64());
        if concluded >= 1 {
            break pid.expect("a worker that reported progress has a pid");
        }
        assert!(Instant::now() < deadline, "no progress before the kill: {snap:?}");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .unwrap()
        .success());

    // The supervisor must notice the crash and restart within its backoff.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if restarts_total(&fleet(&addr)) >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "crash never detected: {:?}", fleet(&addr));
        std::thread::sleep(Duration::from_millis(50));
    }

    // ... and the campaign completes around the crash: no cell lost, no
    // cell failed, everything either cached (pre-kill work reused) or
    // freshly simulated by the new incarnation.
    let snap = wait_terminal(&addr, &id);
    assert_eq!(snap.get("status").and_then(|s| s.as_str()), Some("done"), "{snap:?}");
    assert_eq!(cell_count(&snap, "total"), 8, "{snap:?}");
    assert_eq!(cell_count(&snap, "failed"), 0, "{snap:?}");
    assert_eq!(cell_count(&snap, "done") + cell_count(&snap, "cached"), 8, "{snap:?}");

    let report = fleet(&addr);
    assert!(restarts_total(&report) >= 1, "{report:?}");
    assert_eq!(report.get("broken").and_then(|v| v.as_u64()), Some(0), "{report:?}");

    // Bit-identical results, twice, and a fully cached resubmit.
    let HttpResponse { status, body: body1, .. } =
        HttpClient::new(&addr).request("GET", &format!("/campaigns/{id}/results"), None).unwrap();
    assert_eq!(status, 200, "{body1}");
    let HttpResponse { body: body2, .. } =
        HttpClient::new(&addr).request("GET", &format!("/campaigns/{id}/results"), None).unwrap();
    assert_eq!(body1, body2);
    assert_eq!(json(&body1).get("cells").and_then(|c| c.as_array()).map(|a| a.len()), Some(8));

    let id2 = submit(&addr, SLOW_SPEC);
    let snap2 = wait_terminal(&addr, &id2);
    assert_eq!(snap2.get("status").and_then(|s| s.as_str()), Some("done"), "{snap2:?}");
    assert_eq!(cell_count(&snap2, "cached"), 8, "the kill must not cost cached work: {snap2:?}");

    server.shutdown_and_join();
    let _ = fs::remove_dir_all(&dir);
}

// ------------------------------------ crash-consistent daemon (journal)
//
// These spawn the test-built binary as a real daemon process, so a
// SIGKILL takes out the whole server — journal, queue, executors — and
// recovery runs through the startup replay path exactly as it would in
// production.

use std::process::{Child, Command, Stdio};

/// Spawn `hdsmt-campaign serve` as a child process on an ephemeral port
/// and wait for its `--addr-file` handshake plus a live `/healthz`.
fn spawn_daemon(
    dir: &Path,
    cache: &Path,
    tag: &str,
    extra: &[&str],
    env: &[(&str, &str)],
) -> (Child, String) {
    let addr_file = dir.join(format!("addr-{tag}"));
    let _ = fs::remove_file(&addr_file);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hdsmt-campaign"));
    cmd.arg("serve")
        .args(["--addr", "127.0.0.1:0"])
        .arg("--addr-file")
        .arg(&addr_file)
        .arg("--cache")
        .arg(cache)
        .args(["--workers", "1"])
        .args(extra)
        .stdin(Stdio::null());
    for (k, v) in env {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(text) = fs::read_to_string(&addr_file) {
            let addr = text.trim().to_string();
            if addr.contains(':')
                && HttpClient::new(&addr)
                    .request("GET", "/healthz", None)
                    .is_ok_and(|r| r.status == 200)
            {
                return (child, addr);
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!("daemon `{tag}` exited before its handshake: {status}");
        }
        assert!(Instant::now() < deadline, "daemon `{tag}` never came up");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn sigkill(child: &mut Child) {
    assert!(Command::new("kill").args(["-9", &child.id().to_string()]).status().unwrap().success());
    let _ = child.wait();
}

/// Graceful drain: `POST /shutdown`, then reap the process.
fn shutdown_daemon(mut child: Child, addr: &str) {
    let _ = HttpClient::new(addr).request("POST", "/shutdown", None);
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        if let Ok(Some(_)) = child.try_wait() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    panic!("daemon did not exit after /shutdown");
}

fn stats(addr: &str) -> serde_json::Value {
    let HttpResponse { status, body, .. } =
        HttpClient::new(addr).request("GET", "/stats", None).unwrap();
    assert_eq!(status, 200, "{body}");
    json(&body)
}

fn journal_replayed(addr: &str) -> u64 {
    stats(addr).get("journal_replayed").and_then(|v| v.as_u64()).unwrap()
}

/// Run `hdsmt-campaign fsck` on a cache and parse its JSON report.
fn fsck_report(cache: &Path) -> serde_json::Value {
    let out = Command::new(env!("CARGO_BIN_EXE_hdsmt-campaign"))
        .arg("fsck")
        .arg("--cache")
        .arg(cache)
        .output()
        .unwrap();
    assert!(out.status.success(), "fsck: {}", String::from_utf8_lossy(&out.stderr));
    json(&String::from_utf8_lossy(&out.stdout))
}

fn assert_fsck_clean(cache: &Path) {
    let report = fsck_report(cache);
    assert_eq!(report.get("clean").and_then(|v| v.as_bool()), Some(true), "{report:?}");
    assert_eq!(report.get("corrupt_quarantined").and_then(|v| v.as_u64()), Some(0), "{report:?}");
}

/// The `cells` array of an independent single-worker engine run on a
/// fresh cache — the ground truth a recovered daemon must match.
fn reference_cells(spec_text: &str, cache: &Path) -> serde_json::Value {
    let mut spec = hdsmt_campaign::CampaignSpec::parse(spec_text).unwrap();
    spec.cache_dir = Some(cache.to_string_lossy().into_owned());
    spec.workers = Some(1);
    let catalog = hdsmt_campaign::engine::catalog_for(&spec);
    let runner = JobRunner::new(1, Some(ResultCache::open(cache).unwrap()));
    let result = hdsmt_campaign::run_campaign_with(&spec, &catalog, &runner).unwrap();
    json(&hdsmt_campaign::export::to_json(&result)).get("cells").unwrap().clone()
}

/// Poll `/campaigns/:id` until at least one cell has concluded, so a
/// kill lands mid-campaign rather than before any work happened.
fn wait_progress(addr: &str, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let HttpResponse { body, .. } =
            HttpClient::new(addr).request("GET", &format!("/campaigns/{id}"), None).unwrap();
        let snap = json(&body);
        if cell_count(&snap, "done") + cell_count(&snap, "cached") >= 1 {
            return;
        }
        assert!(Instant::now() < deadline, "no progress before the kill: {snap:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Poll `/campaigns/:id` until the campaign is observably *mid-flight*:
/// some cells concluded, some still outstanding, and the status not yet
/// terminal. A kill gated on this cannot race the supervisor's done-mark
/// — on a loaded 1-CPU host, "at least one cell concluded" may only
/// become observable in the same tick that concludes the whole campaign,
/// and a kill landing after the done-mark tests nothing.
fn wait_partial(addr: &str, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let HttpResponse { body, .. } =
            HttpClient::new(addr).request("GET", &format!("/campaigns/{id}"), None).unwrap();
        let snap = json(&body);
        let status = snap.get("status").and_then(|s| s.as_str()).unwrap().to_string();
        let concluded = cell_count(&snap, "done")
            + cell_count(&snap, "cached")
            + cell_count(&snap, "failed")
            + cell_count(&snap, "cancelled");
        let total = cell_count(&snap, "total");
        let terminal = ["done", "failed", "cancelled", "degraded"].contains(&status.as_str());
        if !terminal && concluded >= 1 && concluded < total {
            return;
        }
        assert!(!terminal, "campaign finished before a mid-flight kill could land: {snap:?}");
        assert!(Instant::now() < deadline, "no progress before the kill: {snap:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn sigkilled_daemon_replays_its_journal_and_completes_the_campaign() {
    let dir = tmpdir("daemon-kill");
    let cache = dir.join("cache");
    let (mut first, addr) = spawn_daemon(&dir, &cache, "a", &["--durable"], &[]);
    let id = submit(&addr, SLOW_SPEC);
    assert!(id.starts_with('c'), "{id}");

    // Let it conclude at least one cell, then SIGKILL the whole daemon.
    wait_progress(&addr, &id);
    sigkill(&mut first);

    // Restart over the same cache: the journaled accept replays, the
    // campaign keeps its id, and it finishes exactly — no cell lost,
    // none duplicated, pre-kill work served from the cache.
    let (second, addr) = spawn_daemon(&dir, &cache, "b", &["--durable"], &[]);
    assert_eq!(journal_replayed(&addr), 1);
    let snap = wait_terminal(&addr, &id);
    assert_eq!(snap.get("status").and_then(|s| s.as_str()), Some("done"), "{snap:?}");
    assert_eq!(cell_count(&snap, "total"), 8, "{snap:?}");
    assert_eq!(cell_count(&snap, "failed"), 0, "{snap:?}");
    assert_eq!(cell_count(&snap, "done") + cell_count(&snap, "cached"), 8, "{snap:?}");

    // Byte-identical results, and cell-for-cell identical to an
    // undisturbed run on a fresh cache.
    let HttpResponse { status, body: body1, .. } =
        HttpClient::new(&addr).request("GET", &format!("/campaigns/{id}/results"), None).unwrap();
    assert_eq!(status, 200, "{body1}");
    let HttpResponse { body: body2, .. } =
        HttpClient::new(&addr).request("GET", &format!("/campaigns/{id}/results"), None).unwrap();
    assert_eq!(body1, body2, "results must replay bit-identically");
    assert_eq!(
        json(&body1).get("cells").unwrap(),
        &reference_cells(SLOW_SPEC, &dir.join("reference-cache")),
        "a kill mid-campaign must not perturb a single cell"
    );

    shutdown_daemon(second, &addr);
    assert_fsck_clean(&cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_supervisor_replays_its_fleet_journal_and_completes() {
    let dir = tmpdir("super-kill");
    let cache = dir.join("cache");
    let (mut first, addr) = spawn_daemon(&dir, &cache, "a", &["--supervise", "1"], &[]);
    let id = submit(&addr, SLOW_SPEC);
    assert!(id.starts_with('f'), "fleet ids are supervisor-scoped: {id}");

    // A *partial* snapshot, then a whole-host crash: SIGKILL the
    // supervisor AND its worker (an orphaned worker would otherwise keep
    // simulating). Gating on wait_progress alone was flaky on 1-CPU
    // hosts — the first observable progress could be the all-done
    // snapshot whose tick also journals the done-mark, and the replay
    // then had nothing to prove.
    wait_partial(&addr, &id);
    let worker_pids: Vec<u64> = fleet(&addr)
        .get("workers")
        .and_then(|w| w.as_array())
        .unwrap()
        .iter()
        .filter_map(|w| w.get("pid").and_then(|p| p.as_u64()))
        .collect();
    sigkill(&mut first);
    for pid in worker_pids {
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    }

    // Restart: the fleet journal replays the accept with its original
    // id, a fresh worker is backfilled, and the campaign completes.
    let (second, addr) = spawn_daemon(&dir, &cache, "b", &["--supervise", "1"], &[]);
    assert_eq!(journal_replayed(&addr), 1);
    let snap = wait_terminal(&addr, &id);
    assert_eq!(snap.get("status").and_then(|s| s.as_str()), Some("done"), "{snap:?}");
    assert_eq!(cell_count(&snap, "total"), 8, "{snap:?}");
    assert_eq!(cell_count(&snap, "failed"), 0, "{snap:?}");
    assert_eq!(cell_count(&snap, "done") + cell_count(&snap, "cached"), 8, "{snap:?}");

    let HttpResponse { status, body: body1, .. } =
        HttpClient::new(&addr).request("GET", &format!("/campaigns/{id}/results"), None).unwrap();
    assert_eq!(status, 200, "{body1}");
    let HttpResponse { body: body2, .. } =
        HttpClient::new(&addr).request("GET", &format!("/campaigns/{id}/results"), None).unwrap();
    assert_eq!(body1, body2, "results must replay bit-identically");

    shutdown_daemon(second, &addr);
    assert_fsck_clean(&cache);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_worker_addr_file_cannot_point_a_fresh_fleet_at_a_dead_port() {
    let dir = tmpdir("stale-addr");
    let cache = dir.join("cache");
    let handshake = cache.join(".supervise");
    fs::create_dir_all(&handshake).unwrap();
    // What a SIGKILLed fleet leaves behind: an address file naming a
    // port nobody listens on anymore.
    let dead = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    fs::write(handshake.join("worker-0.addr"), format!("{dead}\n")).unwrap();

    // A fresh fleet must scrub it, handshake its own worker, and finish.
    let server = supervised_server(&cache, 1, Vec::new());
    let addr = server.addr().to_string();
    let id = submit(&addr, SPEC);
    let snap = wait_terminal(&addr, &id);
    assert_eq!(snap.get("status").and_then(|s| s.as_str()), Some("done"), "{snap:?}");
    assert_eq!(cell_count(&snap, "failed"), 0, "{snap:?}");
    let report = fleet(&addr);
    assert_eq!(restarts_total(&report), 0, "a stale file must not count as a crash: {report:?}");
    server.shutdown_and_join();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn startup_reaps_aged_tmp_files_but_spares_fresh_ones() {
    let dir = tmpdir("tmp-reap");
    let cache = dir.join("cache");
    fs::create_dir_all(cache.join("ab")).unwrap();
    fs::write(cache.join("ab").join("deadbeef.json.tmp.4242.7"), "torn write").unwrap();
    fs::write(cache.join("deadc0de.json.tmp.4242.9"), "torn write").unwrap();

    let config = |age| ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: cache.to_string_lossy().into_owned(),
        sim_workers: 1,
        tmp_reap_age: age,
        ..ServerConfig::default()
    };

    // Under the default 15-minute threshold these are in-flight writes.
    let server = Server::start(config(Duration::from_secs(900))).unwrap();
    let addr = server.addr().to_string();
    let st = stats(&addr);
    assert_eq!(st.get("tmp_reaped").and_then(|v| v.as_u64()), Some(0), "{st:?}");
    server.shutdown_and_join();

    // With a zero threshold they are orphans and startup reaps them.
    let server = Server::start(config(Duration::ZERO)).unwrap();
    let addr = server.addr().to_string();
    let st = stats(&addr);
    assert_eq!(st.get("tmp_reaped").and_then(|v| v.as_u64()), Some(2), "{st:?}");
    server.shutdown_and_join();
    assert!(!cache.join("ab").join("deadbeef.json.tmp.4242.7").exists());
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------- distributed fleet (no shared fs)
//
// Two independent worker daemons on disjoint cache directories, adopted
// by a supervisor (`--supervise 0 --worker ADDR`). Nothing crosses a
// filesystem boundary: results reach the supervisor purely over HTTP —
// peer read-through plus anti-entropy — and replication refuses any
// byte that differs from what a shard already holds.

/// Fetch a daemon's cell manifest (`GET /cells`) as `(key, text)` pairs.
fn manifest_cells(addr: &str) -> Vec<(String, String)> {
    let HttpResponse { status, body, .. } =
        HttpClient::new(addr).request("GET", "/cells", None).unwrap();
    assert_eq!(status, 200, "{body}");
    json(&body)
        .get("cells")
        .and_then(|c| c.as_array())
        .unwrap()
        .iter()
        .map(|c| {
            let key = c.get("key").and_then(|k| k.as_str()).unwrap().to_string();
            let HttpResponse { status, body: text, .. } =
                HttpClient::new(addr).request("GET", &format!("/cells/{key}"), None).unwrap();
            assert_eq!(status, 200, "{text}");
            (key, text)
        })
        .collect()
}

fn healthz_up(addr: &str) -> bool {
    HttpClient::new(addr).request("GET", "/healthz", None).is_ok_and(|r| r.status == 200)
}

#[test]
fn distributed_fleet_replicates_results_over_http_with_no_shared_filesystem() {
    use hdsmt_campaign::hash::sha256_hex;

    let dir = tmpdir("dist");
    let cache_a = dir.join("cache-a");
    let cache_b = dir.join("cache-b");
    let cache_sup = dir.join("cache-sup");

    let (worker_a, addr_a) = spawn_daemon(&dir, &cache_a, "wa", &["--shard", "0/2"], &[]);
    let (worker_b, addr_b) = spawn_daemon(&dir, &cache_b, "wb", &["--shard", "1/2"], &[]);
    let (sup, addr) = spawn_daemon(
        &dir,
        &cache_sup,
        "sup",
        &[
            "--supervise",
            "0",
            "--worker",
            &addr_a,
            "--worker",
            &addr_b,
            "--peer",
            &addr_a,
            "--peer",
            &addr_b,
        ],
        &[],
    );

    let id = submit(&addr, SPEC);
    assert!(id.starts_with('f'), "fleet ids are supervisor-scoped: {id}");
    let snap = wait_terminal(&addr, &id);
    assert_eq!(snap.get("status").and_then(|s| s.as_str()), Some("done"), "{snap:?}");
    assert_eq!(cell_count(&snap, "total"), 4, "{snap:?}");
    assert_eq!(cell_count(&snap, "failed"), 0, "{snap:?}");
    assert_eq!(
        cell_count(&snap, "done") + cell_count(&snap, "cached"),
        4,
        "no cell lost, none duplicated: {snap:?}"
    );

    // The fleet report shows two adopted shards, healthy, unpartitioned.
    let report = fleet(&addr);
    assert_eq!(report.get("supervising").and_then(|v| v.as_u64()), Some(2), "{report:?}");
    assert_eq!(report.get("partitions_total").and_then(|v| v.as_u64()), Some(0), "{report:?}");
    let workers = report.get("workers").and_then(|w| w.as_array()).unwrap();
    assert_eq!(workers.len(), 2, "{report:?}");
    for w in workers {
        assert_eq!(w.get("kind").and_then(|k| k.as_str()), Some("remote"), "{w:?}");
        assert_eq!(w.get("state").and_then(|s| s.as_str()), Some("up"), "{w:?}");
        assert!(w.get("pid").and_then(|p| p.as_u64()).is_none(), "adopted, not spawned: {w:?}");
    }

    // Results replay through HTTP replication: byte-identical, twice,
    // and cell-for-cell equal to an undisturbed single-node run.
    let HttpResponse { status, body: body1, .. } =
        HttpClient::new(&addr).request("GET", &format!("/campaigns/{id}/results"), None).unwrap();
    assert_eq!(status, 200, "{body1}");
    let HttpResponse { body: body2, .. } =
        HttpClient::new(&addr).request("GET", &format!("/campaigns/{id}/results"), None).unwrap();
    assert_eq!(body1, body2, "results must replay bit-identically");
    assert_eq!(
        json(&body1).get("cells").unwrap(),
        &reference_cells(SPEC, &dir.join("reference-cache")),
        "HTTP replication must not perturb a single cell"
    );

    // The supervisor landed every cell over the wire, none from disk.
    let st = stats(&addr);
    assert!(
        st.get("cells_replicated").and_then(|v| v.as_u64()).unwrap() >= 4,
        "all four cells crossed the network: {st:?}"
    );
    assert!(st.get("cache_remote_hits").and_then(|v| v.as_u64()).is_some(), "{st:?}");

    // Replication is byte-equality-or-quarantine, never last-write-wins:
    // push worker A's (valid, correctly checksummed) cell to worker B
    // under a key worker B already owns with different bytes.
    let cells_a = manifest_cells(&addr_a);
    let cells_b = manifest_cells(&addr_b);
    assert_eq!(cells_a.len(), 2, "shard 0/2 of a 4-cell campaign: {cells_a:?}");
    assert_eq!(cells_b.len(), 2, "shard 1/2 of a 4-cell campaign: {cells_b:?}");
    let (victim_key, victim_text) = &cells_b[0];
    let foreign_text = &cells_a[0].1;
    assert_ne!(victim_text, foreign_text);
    let resp = HttpClient::new(&addr_b)
        .request(
            "PUT",
            &format!("/cells/{victim_key}?sha256={}", sha256_hex(foreign_text.as_bytes())),
            Some(foreign_text),
        )
        .unwrap();
    assert_eq!(resp.status, 409, "conflicting bytes must be refused: {}", resp.body);
    let HttpResponse { body: after, .. } =
        HttpClient::new(&addr_b).request("GET", &format!("/cells/{victim_key}"), None).unwrap();
    assert_eq!(&after, victim_text, "the quarantined impostor must never be served");
    let st_b = stats(&addr_b);
    let conflicts = st_b.get("cache").and_then(|c| c.get("conflicts")).and_then(|v| v.as_u64());
    assert_eq!(conflicts, Some(1), "{st_b:?}");

    // Shutting the supervisor down must NOT take the adopted workers
    // with it — they belong to their own operators.
    shutdown_daemon(sup, &addr);
    assert!(healthz_up(&addr_a), "supervisor shutdown must not kill adopted worker A");
    assert!(healthz_up(&addr_b), "supervisor shutdown must not kill adopted worker B");
    shutdown_daemon(worker_a, &addr_a);
    shutdown_daemon(worker_b, &addr_b);

    assert_fsck_clean(&cache_a);
    assert_fsck_clean(&cache_sup);
    // Worker B's cache is clean too; the conflict left evidence, not rot.
    let report_b = fsck_report(&cache_b);
    assert_eq!(report_b.get("clean").and_then(|v| v.as_bool()), Some(true), "{report_b:?}");
    assert_eq!(
        report_b.get("quarantine_entries").and_then(|v| v.as_u64()),
        Some(1),
        "the refused replica must sit in quarantine: {report_b:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// `--supervise 1 --worker ADDR`: one spawned child and one adoptee in a
/// single fleet. Both reach `up` through the same lifecycle; only
/// ownership differs — shutdown stops the child, never the adoptee.
#[test]
fn mixed_fleet_runs_a_spawned_child_beside_an_adoptee() {
    let dir = tmpdir("mixed");
    // The adoptee takes the shard index after the spawned child's.
    let (remote, addr_remote) =
        spawn_daemon(&dir, &dir.join("cache-remote"), "remote", &["--shard", "1/2"], &[]);
    let adoptee = addr_remote.clone();
    let server = supervised_server_with(&dir.join("cache"), 1, Vec::new(), |config| {
        config.remote_workers = vec![adoptee];
    });
    let addr = server.addr().to_string();

    let id = submit(&addr, SPEC);
    let snap = wait_terminal(&addr, &id);
    assert_eq!(snap.get("status").and_then(|s| s.as_str()), Some("done"), "{snap:?}");
    assert_eq!(cell_count(&snap, "failed"), 0, "{snap:?}");
    assert_eq!(cell_count(&snap, "done") + cell_count(&snap, "cached"), 4, "{snap:?}");

    let report = fleet(&addr);
    assert_eq!(report.get("supervising").and_then(|v| v.as_u64()), Some(2), "{report:?}");
    let workers = report.get("workers").and_then(|w| w.as_array()).unwrap();
    assert_eq!(workers.len(), 2, "{report:?}");
    let (spawned, adopted) = (&workers[0], &workers[1]);
    assert_eq!(spawned.get("kind").and_then(|k| k.as_str()), Some("spawned"), "{spawned:?}");
    assert_eq!(spawned.get("state").and_then(|s| s.as_str()), Some("up"), "{spawned:?}");
    let child_pid = spawned.get("pid").and_then(|p| p.as_u64()).expect("a spawned child has a pid");
    let child_addr = spawned.get("addr").and_then(|a| a.as_str()).unwrap().to_string();
    assert_eq!(adopted.get("kind").and_then(|k| k.as_str()), Some("remote"), "{adopted:?}");
    assert_eq!(adopted.get("state").and_then(|s| s.as_str()), Some("up"), "{adopted:?}");
    assert!(adopted.get("pid").and_then(|p| p.as_u64()).is_none(), "adopted: {adopted:?}");
    assert_eq!(adopted.get("addr").and_then(|a| a.as_str()), Some(addr_remote.as_str()));

    let HttpResponse { status, body, .. } =
        HttpClient::new(&addr).request("GET", &format!("/campaigns/{id}/results"), None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        json(&body).get("cells").unwrap(),
        &reference_cells(SPEC, &dir.join("reference-cache")),
        "a mixed fleet must not perturb a single cell"
    );

    server.shutdown_and_join();
    let child_alive = Command::new("kill")
        .args(["-0", &child_pid.to_string()])
        .stderr(Stdio::null())
        .status()
        .unwrap()
        .success();
    assert!(!child_alive, "supervisor shutdown must stop its spawned child");
    assert!(!healthz_up(&child_addr), "the spawned child's port must be closed");
    assert!(healthz_up(&addr_remote), "supervisor shutdown must not kill the adoptee");
    shutdown_daemon(remote, &addr_remote);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn broken_remote_workers_shard_is_reowned_and_the_campaign_completes() {
    use hdsmt_campaign::serve::supervisor::{Supervisor, SupervisorConfig};

    let dir = tmpdir("reown");
    let cache_live = dir.join("cache-live");
    let cache_sup = dir.join("cache-sup");
    let (live, addr_live) = spawn_daemon(&dir, &cache_live, "live", &["--shard", "0/2"], &[]);

    // A worker that will never answer: a port nothing listens on.
    let dead = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };

    let cache = ResultCache::open(&cache_sup).unwrap().with_peers(vec![addr_live.clone()]);
    let server = ServerConfig {
        cache_dir: cache_sup.to_string_lossy().into_owned(),
        sim_workers: 1,
        supervise: Some(0),
        remote_workers: vec![addr_live.clone(), dead],
        ..ServerConfig::default()
    };
    let config = SupervisorConfig {
        heartbeat_interval: Duration::from_millis(50),
        spawn_timeout: Duration::from_millis(300),
        backoff_base: Duration::from_millis(50),
        backoff_cap: Duration::from_millis(100),
        max_restarts: 0,
    };
    let sup = Supervisor::start(&server, config, cache, None, Vec::new()).unwrap();

    let id = sup.submit(SPEC).unwrap().id;
    // "degraded" is transient here — the breaker trips, then the re-own
    // recomputes the orphaned shard — so poll for full completion.
    let deadline = Instant::now() + Duration::from_secs(120);
    let snap = loop {
        let snap = sup.snapshot(&id).expect("a submitted campaign is ledgered");
        assert_ne!(snap.status, "failed", "{snap:?}");
        assert_ne!(snap.status, "cancelled", "{snap:?}");
        if snap.status == "done" {
            break snap;
        }
        assert!(Instant::now() < deadline, "re-own never completed: {snap:?}");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(snap.cells.failed, 0, "{snap:?}");

    let report = sup.fleet();
    assert_eq!(report.broken, 1, "the dead adoptee must trip the breaker: {report:?}");
    assert!(report.partitions_total >= 1, "unreachable-remote crashes are partitions: {report:?}");
    assert!(report.reowned >= 1, "the orphaned shard must be re-owned: {report:?}");
    assert!(sup.reowned_total() >= 1);

    // The stitched result — the live worker's shard read over HTTP plus
    // the re-owned shard computed locally — matches an undisturbed run.
    let result = sup.results(&id).unwrap_or_else(|(code, body)| panic!("{code}: {body}"));
    let cells = json(&hdsmt_campaign::export::to_json(&result)).get("cells").unwrap().clone();
    assert_eq!(
        cells,
        reference_cells(SPEC, &dir.join("reference-cache")),
        "re-owning a shard must not perturb a single cell"
    );

    sup.shutdown();
    assert!(healthz_up(&addr_live), "shutdown must not kill the adopted worker");
    shutdown_daemon(live, &addr_live);
    assert_fsck_clean(&cache_sup);
    assert_fsck_clean(&cache_live);
    let _ = fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------- watchdog

fn runaway_job() -> JobSpec {
    JobSpec {
        arch: "2M4+2M2".into(),
        threads: vec![
            JobThread { bench: "gzip".into(), seed: 11 },
            JobThread { bench: "mcf".into(), seed: 12 },
        ],
        mapping: vec![0, 2],
        // Far more work than the deadline below allows.
        max_insts: 200_000_000,
        warmup_insts: 800,
        fetch_policy: None,
        regfile_lat: None,
    }
}

#[test]
fn watchdog_times_out_a_runaway_cell_after_its_retry_budget() {
    let dir = tmpdir("watchdog");
    let cache = ResultCache::open(&dir).unwrap();
    let runner = JobRunner::new(1, Some(cache.clone()))
        .with_watchdog(Some(Watchdog { deadline: Duration::from_millis(50), retries: 1 }));

    let err = runner.run_all(&[runaway_job()]).expect_err("the runaway job must time out");
    assert!(err.0.contains("timed out"), "{err}");
    assert!(err.0.contains("2 attempt(s)"), "1 + 1 retry: {err}");

    let report = runner.report();
    assert_eq!(report.timeouts, 2, "both attempts hit the deadline: {report:?}");
    assert_eq!(report.retries, 1, "{report:?}");
    assert_eq!(report.failed, 1, "{report:?}");
    assert_eq!(cache.len(), 0, "an abandoned attempt must leave no cache entry");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_generous_watchdog_changes_nothing_bit_for_bit() {
    // The interruptible simulation path must be bit-identical to the
    // plain one when the deadline never fires.
    let dir = tmpdir("watchdog-id");
    let mut job = runaway_job();
    job.max_insts = 2_000;
    let runner = JobRunner::new(1, Some(ResultCache::open(&dir).unwrap()))
        .with_watchdog(Some(Watchdog { deadline: Duration::from_secs(60), retries: 1 }));
    let watched = runner.run_all(std::slice::from_ref(&job)).unwrap().remove(0);
    let plain = job.run_uncached().unwrap();
    assert_eq!(
        serde_json::to_string(&watched).unwrap(),
        serde_json::to_string(&plain).unwrap(),
        "watchdog instrumentation must not perturb the simulation"
    );
    let _ = fs::remove_dir_all(&dir);
}

// ------------------------------------- deterministic fault matrix (e2e)
//
// These need the fault hooks compiled in:
//     cargo test -p hdsmt-campaign --features fault-inject --test chaos

#[cfg(feature = "fault-inject")]
mod fault_matrix {
    use super::*;
    use std::process::Command;

    fn cli() -> Command {
        Command::new(env!("CARGO_BIN_EXE_hdsmt-campaign"))
    }

    /// The combined chaos scenario from the module docs of
    /// `campaign::fault`, run under supervision with one simulation
    /// worker so the schedule is deterministic:
    ///
    /// Each worker incarnation (counters are per-process) hangs its first
    /// simulation (watchdog timeout → retry), tears its third cache write
    /// (quarantined + re-simulated on next read), and aborts at its fifth
    /// simulation start. Over a 6-cell campaign that yields exactly three
    /// incarnations, two restarts, and two quarantined entries — and a
    /// complete, zero-failure campaign.
    #[test]
    fn fault_matrix_rides_hang_corrupt_and_kill_to_a_complete_campaign() {
        let dir = tmpdir("matrix");
        let spec = r#"
name = "chaos-matrix"
archs = ["M8", "2M4+2M2", "3M4"]
workloads = ["2W1", "2W7"]
policies = ["rr"]
seed = 9
[budget]
measure_insts = 1500
warmup_insts = 600
search_insts = 500
"#;
        let server = supervised_server_with(
            &dir.join("cache"),
            1,
            vec![("HDSMT_FAULT".into(), "hang@sim=1;corrupt@put=3;kill@sim=5".into())],
            |c| {
                c.cell_deadline = Some(Duration::from_millis(500));
                c.cell_retries = 2;
            },
        );
        let addr = server.addr().to_string();

        let id = submit(&addr, spec);
        let snap = wait_terminal(&addr, &id);
        assert_eq!(snap.get("status").and_then(|s| s.as_str()), Some("done"), "{snap:?}");
        assert_eq!(cell_count(&snap, "total"), 6, "{snap:?}");
        assert_eq!(cell_count(&snap, "failed"), 0, "every fault must be absorbed: {snap:?}");
        assert_eq!(cell_count(&snap, "done") + cell_count(&snap, "cached"), 6, "{snap:?}");

        // The deterministic schedule: two kills → two restarts; two torn
        // writes → two quarantined entries.
        let report = fleet(&addr);
        assert_eq!(restarts_total(&report), 2, "{report:?}");
        assert_eq!(report.get("broken").and_then(|v| v.as_u64()), Some(0), "{report:?}");
        let HttpResponse { body: stats, .. } =
            HttpClient::new(&addr).request("GET", "/stats", None).unwrap();
        let stats = json(&stats);
        assert_eq!(
            stats.get("cache_quarantined").and_then(|v| v.as_u64()),
            Some(2),
            "torn writes must be quarantined, not deleted: {stats:?}"
        );

        // Despite hangs, kills, and torn writes, the final cache is whole:
        // a resubmit simulates nothing.
        let id2 = submit(&addr, spec);
        let snap2 = wait_terminal(&addr, &id2);
        assert_eq!(snap2.get("status").and_then(|s| s.as_str()), Some("done"), "{snap2:?}");
        assert_eq!(cell_count(&snap2, "cached"), 6, "{snap2:?}");
        assert_eq!(cell_count(&snap2, "done"), 0, "{snap2:?}");

        // And the results replay cleanly, twice, byte-identically.
        let HttpResponse { status, body: body1, .. } = HttpClient::new(&addr)
            .request("GET", &format!("/campaigns/{id}/results"), None)
            .unwrap();
        assert_eq!(status, 200, "{body1}");
        let HttpResponse { body: body2, .. } = HttpClient::new(&addr)
            .request("GET", &format!("/campaigns/{id}/results"), None)
            .unwrap();
        assert_eq!(body1, body2);

        server.shutdown_and_join();
        let _ = fs::remove_dir_all(&dir);
    }

    /// A cell whose every attempt hangs exhausts its retry budget and is
    /// marked failed-with-timeout; its sibling completes and the run
    /// degrades gracefully instead of wedging.
    #[test]
    fn hung_cell_exhausts_its_retry_budget_and_the_run_degrades() {
        let dir = tmpdir("hung");
        let cache = dir.join("cache");
        let spec_path = dir.join("spec.toml");
        fs::write(
            &spec_path,
            format!(
                "name = \"chaos-hung\"\narchs = [\"M8\"]\nworkloads = [\"2W1\", \"2W7\"]\n\
                 policies = [\"rr\"]\nseed = 9\ncache_dir = \"{}\"\n\
                 [budget]\nmeasure_insts = 1500\nwarmup_insts = 600\nsearch_insts = 500\n",
                cache.display()
            ),
        )
        .unwrap();

        // Attempts 1 and 2 of the first cell both hang (retries = 1).
        let run = cli()
            .arg("run")
            .arg(&spec_path)
            .args(["--workers", "1", "--cell-deadline-ms", "300", "--cell-retries", "1"])
            .env("HDSMT_FAULT", "hang@sim=1,2")
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "degradation is not a crash: {stderr}");
        assert!(stderr.contains("WARNING: 1 cell(s) failed (2 watchdog timeout(s))"), "{stderr}");

        // A clean re-run heals: the failed cell re-simulates, the healthy
        // sibling is a cache hit.
        let run2 = cli().arg("run").arg(&spec_path).args(["--workers", "1"]).output().unwrap();
        let stderr2 = String::from_utf8_lossy(&run2.stderr);
        assert!(run2.status.success(), "{stderr2}");
        assert!(stderr2.contains("1 cache hits, 1 simulated"), "{stderr2}");
        assert!(!stderr2.contains("WARNING"), "{stderr2}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A torn cache write is quarantined on first read and the entry
    /// re-simulates — visible in `status`, healed by the next run.
    #[test]
    fn torn_cache_write_is_quarantined_and_heals_on_the_next_run() {
        let dir = tmpdir("torn");
        let cache = dir.join("cache");
        let spec_path = dir.join("spec.toml");
        fs::write(
            &spec_path,
            format!(
                "name = \"chaos-torn\"\narchs = [\"M8\"]\nworkloads = [\"2W1\"]\n\
                 policies = [\"rr\"]\nseed = 9\ncache_dir = \"{}\"\n\
                 [budget]\nmeasure_insts = 1500\nwarmup_insts = 600\nsearch_insts = 500\n",
                cache.display()
            ),
        )
        .unwrap();

        // First run tears its only cache write.
        let run = cli()
            .arg("run")
            .arg(&spec_path)
            .args(["--workers", "1"])
            .env("HDSMT_FAULT", "corrupt@put=1")
            .output()
            .unwrap();
        assert!(run.status.success(), "stderr: {}", String::from_utf8_lossy(&run.stderr));

        // Second run (no faults): the torn entry reads as corrupt, is
        // quarantined, and the cell re-simulates.
        let run2 = cli().arg("run").arg(&spec_path).args(["--workers", "1"]).output().unwrap();
        let stderr2 = String::from_utf8_lossy(&run2.stderr);
        assert!(run2.status.success(), "{stderr2}");
        assert!(stderr2.contains("0 cache hits, 1 simulated"), "{stderr2}");

        let status = cli().arg("status").arg(&spec_path).output().unwrap();
        let out = String::from_utf8_lossy(&status.stdout);
        assert!(out.contains("cache quarantined entries: 1"), "{out}");
        assert!(
            out.contains("cache corrupt entries: 0"),
            "quarantine empties the live tree: {out}"
        );

        // Third run: healed — a clean hit.
        let run3 = cli().arg("run").arg(&spec_path).args(["--workers", "1"]).output().unwrap();
        let stderr3 = String::from_utf8_lossy(&run3.stderr);
        assert!(stderr3.contains("1 cache hits, 0 simulated"), "{stderr3}");
        let _ = fs::remove_dir_all(&dir);
    }

    // ------------------------------------------- journal fault injection

    /// Wait (bounded) for a daemon that is expected to die on its own —
    /// `kill@accept`, `torn@journal` — to actually exit.
    fn wait_exit(child: &mut Child, why: &str) {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(Some(_)) = child.try_wait() {
                return;
            }
            assert!(Instant::now() < deadline, "daemon still alive: {why}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// `err@journal`: an accept whose journal write fails is refused with
    /// a 503 and a `Retry-After` hint — never acknowledged, never
    /// ledgered — and the retry goes through cleanly.
    #[test]
    fn journal_write_failure_refuses_the_accept_with_a_retry_hint() {
        let dir = tmpdir("err-journal");
        let cache = dir.join("cache");
        let (daemon, addr) =
            spawn_daemon(&dir, &cache, "a", &[], &[("HDSMT_FAULT", "err@journal=1")]);

        let resp = HttpClient::new(&addr).request("POST", "/campaigns", Some(SPEC)).unwrap();
        assert_eq!(resp.status, 503, "{}", resp.body);
        assert_eq!(resp.retry_after, Some(10), "{resp:?}");
        assert!(resp.body.contains("journal"), "{}", resp.body);
        let HttpResponse { body: list, .. } =
            HttpClient::new(&addr).request("GET", "/campaigns", None).unwrap();
        assert_eq!(
            json(&list).as_array().map(|a| a.len()),
            Some(0),
            "a refused accept must not be ledgered: {list}"
        );

        // The plan fires once; the resubmission is accepted and runs.
        let id = submit(&addr, SPEC);
        let snap = wait_terminal(&addr, &id);
        assert_eq!(snap.get("status").and_then(|s| s.as_str()), Some("done"), "{snap:?}");
        assert_eq!(cell_count(&snap, "failed"), 0, "{snap:?}");

        shutdown_daemon(daemon, &addr);
        assert_fsck_clean(&cache);
        let _ = fs::remove_dir_all(&dir);
    }

    /// `kill@accept`: the daemon dies after fsyncing the accept but
    /// before answering. The client never saw a 202, yet the journaled
    /// accept replays on restart — crash-consistency errs toward
    /// at-least-once, and the cache makes the re-run idempotent.
    #[test]
    fn kill_at_accept_still_replays_the_fsynced_accept_on_restart() {
        let dir = tmpdir("kill-accept");
        let cache = dir.join("cache");
        let (mut first, addr) =
            spawn_daemon(&dir, &cache, "a", &[], &[("HDSMT_FAULT", "kill@accept=1")]);

        // The POST rides into the abort: a dead socket, never a 202.
        let _ = HttpClient::new(&addr).request("POST", "/campaigns", Some(SPEC));
        wait_exit(&mut first, "kill@accept should have aborted the daemon");

        let (second, addr) = spawn_daemon(&dir, &cache, "b", &[], &[]);
        assert_eq!(journal_replayed(&addr), 1);
        let HttpResponse { body: list, .. } =
            HttpClient::new(&addr).request("GET", "/campaigns", None).unwrap();
        let list = json(&list);
        let campaigns = list.as_array().unwrap();
        assert_eq!(campaigns.len(), 1, "{list:?}");
        let id = campaigns[0].get("id").and_then(|i| i.as_str()).unwrap().to_string();
        let snap = wait_terminal(&addr, &id);
        assert_eq!(snap.get("status").and_then(|s| s.as_str()), Some("done"), "{snap:?}");
        assert_eq!(cell_count(&snap, "total"), 4, "{snap:?}");
        assert_eq!(cell_count(&snap, "failed"), 0, "{snap:?}");

        shutdown_daemon(second, &addr);
        assert_fsck_clean(&cache);
        let _ = fs::remove_dir_all(&dir);
    }

    /// `torn@journal`: a crash halfway through a pending-accept write
    /// (power loss) leaves a torn tmp file that was never renamed.
    /// Restart ignores it and replays every published accept.
    #[test]
    fn torn_journal_tail_is_discarded_and_complete_records_replay() {
        let dir = tmpdir("torn-journal");
        let cache = dir.join("cache");
        let (mut first, addr) =
            spawn_daemon(&dir, &cache, "a", &[], &[("HDSMT_FAULT", "torn@journal=2")]);

        // Accept #1 journals cleanly; accept #2 tears mid-frame and
        // takes the daemon down. (The slow 8-cell campaign keeps its
        // done-mark far behind these two appends, so the schedule is
        // deterministic.)
        let id = submit(&addr, SLOW_SPEC);
        let _ = HttpClient::new(&addr).request("POST", "/campaigns", Some(SPEC));
        wait_exit(&mut first, "torn@journal should have aborted the daemon");

        let (second, addr) = spawn_daemon(&dir, &cache, "b", &[], &[]);
        assert_eq!(journal_replayed(&addr), 1, "exactly the complete record replays");
        let HttpResponse { body: list, .. } =
            HttpClient::new(&addr).request("GET", "/campaigns", None).unwrap();
        assert_eq!(
            json(&list).as_array().map(|a| a.len()),
            Some(1),
            "the torn accept must not resurrect: {list}"
        );
        let snap = wait_terminal(&addr, &id);
        assert_eq!(snap.get("status").and_then(|s| s.as_str()), Some("done"), "{snap:?}");
        assert_eq!(cell_count(&snap, "total"), 8, "{snap:?}");
        assert_eq!(cell_count(&snap, "failed"), 0, "{snap:?}");
        assert_eq!(cell_count(&snap, "done") + cell_count(&snap, "cached"), 8, "{snap:?}");

        shutdown_daemon(second, &addr);
        // fsck must agree nothing is left pending: the torn accept never
        // published a file, and the finished campaign resolved its own.
        let report = fsck_report(&cache);
        assert_eq!(report.get("clean").and_then(|v| v.as_bool()), Some(true), "{report:?}");
        assert_eq!(report.get("pending").and_then(|v| v.as_u64()), Some(0), "{report:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    // --------------------------------------- network fault injection

    /// `partition@net`: a deterministic partition separates the
    /// supervisor from both adopted workers mid-campaign. The workers
    /// keep simulating on their side; when the partition heals, the
    /// supervisor reconnects, backfills, and completes the campaign
    /// with zero lost and zero duplicated cells — bit-identical to an
    /// undisturbed single-node run on a fresh cache.
    #[test]
    fn network_partition_heals_and_the_distributed_campaign_completes_exactly() {
        let dir = tmpdir("partition");
        let cache_a = dir.join("cache-a");
        let cache_b = dir.join("cache-b");
        let cache_sup = dir.join("cache-sup");

        // The fault plan rides on the supervisor daemon ONLY: workers
        // stay fault-free, so the partition is purely a network event
        // between otherwise-healthy processes.
        let (worker_a, addr_a) = spawn_daemon(&dir, &cache_a, "pa", &["--shard", "0/2"], &[]);
        let (worker_b, addr_b) = spawn_daemon(&dir, &cache_b, "pb", &["--shard", "1/2"], &[]);
        let (sup, addr) = spawn_daemon(
            &dir,
            &cache_sup,
            "psup",
            &[
                "--supervise",
                "0",
                "--worker",
                &addr_a,
                "--worker",
                &addr_b,
                "--peer",
                &addr_a,
                "--peer",
                &addr_b,
            ],
            &[("HDSMT_FAULT", "partition@net=9:1400")],
        );

        let id = submit(&addr, SLOW_SPEC);
        let snap = wait_terminal(&addr, &id);
        assert_eq!(snap.get("status").and_then(|s| s.as_str()), Some("done"), "{snap:?}");
        assert_eq!(cell_count(&snap, "total"), 8, "{snap:?}");
        assert_eq!(cell_count(&snap, "failed"), 0, "{snap:?}");
        assert_eq!(
            cell_count(&snap, "done") + cell_count(&snap, "cached"),
            8,
            "no cell lost, none duplicated: {snap:?}"
        );

        // The partition was injected, detected as such, and healed:
        // workers crashed-and-recovered in the supervisor's eyes, and
        // nobody tripped the circuit breaker.
        let report = fleet(&addr);
        assert!(restarts_total(&report) >= 1, "the partition must be detected: {report:?}");
        assert_eq!(report.get("broken").and_then(|v| v.as_u64()), Some(0), "{report:?}");
        assert!(
            report.get("partitions_total").and_then(|v| v.as_u64()).unwrap() >= 1,
            "remote-worker crashes must be counted as partitions: {report:?}"
        );
        let st = stats(&addr);
        assert!(st.get("net_faults_injected").and_then(|v| v.as_u64()).unwrap() >= 1, "{st:?}");
        assert!(st.get("partitions_total").and_then(|v| v.as_u64()).unwrap() >= 1, "{st:?}");

        // Bit-stability rides through the partition.
        let HttpResponse { status, body: body1, .. } = HttpClient::new(&addr)
            .request("GET", &format!("/campaigns/{id}/results"), None)
            .unwrap();
        assert_eq!(status, 200, "{body1}");
        let HttpResponse { body: body2, .. } = HttpClient::new(&addr)
            .request("GET", &format!("/campaigns/{id}/results"), None)
            .unwrap();
        assert_eq!(body1, body2, "results must replay bit-identically");
        assert_eq!(
            json(&body1).get("cells").unwrap(),
            &reference_cells(SLOW_SPEC, &dir.join("reference-cache")),
            "a healed partition must not perturb a single cell"
        );

        shutdown_daemon(sup, &addr);
        shutdown_daemon(worker_a, &addr_a);
        shutdown_daemon(worker_b, &addr_b);
        assert_fsck_clean(&cache_a);
        assert_fsck_clean(&cache_b);
        assert_fsck_clean(&cache_sup);
        let _ = fs::remove_dir_all(&dir);
    }
}
