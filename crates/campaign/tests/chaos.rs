//! Chaos and fault-tolerance tests: a daemon surviving SIGKILL, the
//! per-cell watchdog, and — behind the `fault-inject` feature — the
//! deterministic fault matrix (hung simulations, torn cache writes,
//! journal faults) riding through to a complete, bit-stable campaign.

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
        if ["done", "failed", "cancelled"].contains(&phase.as_str()) {
            return snap;
        }
        assert!(Instant::now() < deadline, "campaign `{id}` stuck: {snap:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// A slower 8-cell campaign, so a SIGKILL can land mid-flight even on a
/// fast host.
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

    /// The combined chaos scenario from the module docs of
    /// `campaign::fault`, run through a daemon with one simulation worker
    /// so the schedule is deterministic: the first simulation hangs
    /// (watchdog timeout → retry) and the third cache write is torn
    /// (quarantined + re-simulated on the next read). The campaign still
    /// completes with zero failures, and every cell equals an undisturbed
    /// run on a fresh cache.
    #[test]
    fn fault_matrix_rides_hang_and_corrupt_to_a_complete_campaign() {
        let dir = tmpdir("matrix");
        let cache = dir.join("cache");
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
        let (daemon, addr) = spawn_daemon(
            &dir,
            &cache,
            "matrix",
            &["--cell-deadline-ms", "500", "--cell-retries", "2"],
            &[("HDSMT_FAULT", "hang@sim=1;corrupt@put=3")],
        );

        let id = submit(&addr, spec);
        let snap = wait_terminal(&addr, &id);
        assert_eq!(snap.get("status").and_then(|s| s.as_str()), Some("done"), "{snap:?}");
        assert_eq!(cell_count(&snap, "total"), 6, "{snap:?}");
        assert_eq!(cell_count(&snap, "failed"), 0, "every fault must be absorbed: {snap:?}");
        assert_eq!(cell_count(&snap, "done"), 6, "{snap:?}");

        // The deterministic schedule: one hang → one timeout and one
        // retry; the torn write is found and quarantined by the next read.
        let jobs = stats(&addr).get("jobs").cloned().unwrap();
        let count = |k: &str| jobs.get(k).and_then(|v| v.as_u64());
        assert_eq!((count("timeouts"), count("retries")), (Some(1), Some(1)), "{jobs:?}");
        let id2 = submit(&addr, spec);
        let snap2 = wait_terminal(&addr, &id2);
        assert_eq!(snap2.get("status").and_then(|s| s.as_str()), Some("done"), "{snap2:?}");
        assert_eq!(cell_count(&snap2, "cached"), 5, "{snap2:?}");
        assert_eq!(cell_count(&snap2, "done"), 1, "the torn cell re-simulates: {snap2:?}");
        let st = stats(&addr);
        assert_eq!(
            st.get("cache_quarantined").and_then(|v| v.as_u64()),
            Some(1),
            "torn writes must be quarantined, not deleted: {st:?}"
        );

        // Despite the hang and the torn write, the cache is now whole: a
        // resubmit simulates nothing.
        let id3 = submit(&addr, spec);
        let snap3 = wait_terminal(&addr, &id3);
        assert_eq!(cell_count(&snap3, "cached"), 6, "{snap3:?}");

        // And the results replay byte-identically, cell-for-cell equal to
        // an undisturbed run.
        let results = |id: &str| {
            let HttpResponse { status, body, .. } = HttpClient::new(&addr)
                .request("GET", &format!("/campaigns/{id}/results"), None)
                .unwrap();
            assert_eq!(status, 200, "{body}");
            body
        };
        let body1 = results(&id);
        assert_eq!(body1, results(&id));
        assert_eq!(
            json(&body1).get("cells").unwrap(),
            &reference_cells(spec, &dir.join("reference-cache")),
            "absorbed faults must not perturb a single cell"
        );

        shutdown_daemon(daemon, &addr);
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

    /// A failed cache write costs resumability, not correctness: the run
    /// keeps the result in hand, warns, and reports the same cells as an
    /// undisturbed run; the next run simulates exactly the lost cell.
    #[test]
    fn failed_cache_write_warns_and_only_that_cell_resimulates() {
        let dir = tmpdir("err-put");
        let spec_text = |cache: &Path| {
            format!(
                "name = \"chaos-err-put\"\narchs = [\"M8\"]\nworkloads = [\"2W1\", \"2W7\"]\n\
                 policies = [\"rr\"]\nseed = 9\ncache_dir = \"{}\"\n\
                 [budget]\nmeasure_insts = 1500\nwarmup_insts = 600\nsearch_insts = 500\n",
                cache.display()
            )
        };
        let spec_path = dir.join("spec.toml");
        fs::write(&spec_path, spec_text(&dir.join("cache"))).unwrap();
        let reference_path = dir.join("reference.toml");
        fs::write(&reference_path, spec_text(&dir.join("reference-cache"))).unwrap();

        // First run: its first cache write fails.
        let run = cli()
            .arg("run")
            .arg(&spec_path)
            .args(["--workers", "1"])
            .env("HDSMT_FAULT", "err@put=1")
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "{stderr}");
        assert!(stderr.contains("warning: cache write failed"), "{stderr}");
        assert!(stderr.contains("0 cache hits, 2 simulated"), "{stderr}");

        // Same cells as an undisturbed run on a fresh cache.
        let reference =
            cli().arg("run").arg(&reference_path).args(["--workers", "1"]).output().unwrap();
        assert!(reference.status.success(), "{}", String::from_utf8_lossy(&reference.stderr));
        assert_eq!(
            String::from_utf8_lossy(&run.stdout),
            String::from_utf8_lossy(&reference.stdout)
        );

        // Next run (no faults): only the unwritten cell simulates.
        let run2 = cli().arg("run").arg(&spec_path).args(["--workers", "1"]).output().unwrap();
        let stderr2 = String::from_utf8_lossy(&run2.stderr);
        assert!(run2.status.success(), "{stderr2}");
        assert!(stderr2.contains("1 cache hits, 1 simulated"), "{stderr2}");
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
}
