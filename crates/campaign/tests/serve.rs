//! End-to-end tests of the sweep-service daemon: submit → poll → results
//! over a real socket, cache-resumable shutdown, shard-partitioned
//! completion, structured API errors, keep-alive latency and pipelining,
//! results replayed once the memo drops them, and the `--remote`
//! thin-client CLI against a `serve` subprocess.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hdsmt_campaign::serve::http::{HttpClient, HttpResponse};
use hdsmt_campaign::serve::{Server, ServerConfig};
use hdsmt_campaign::{engine, expand, CampaignSpec, MicroArch, ShardSpec};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hdsmt-serve-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

fn server_on(cache: &Path, shard: Option<ShardSpec>) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: cache.to_string_lossy().into_owned(),
        sim_workers: 2,
        shard,
        ..ServerConfig::default()
    })
    .unwrap()
}

/// A small rr/random campaign: no oracle search phase, and every cell's
/// cache key is computable client-side (needed for `GET /cells/:hash`).
const SPEC: &str = r#"
name = "serve-e2e"
archs = ["M8", "2M4+2M2"]
workloads = ["2W1", "2W7"]
policies = ["rr"]
seed = 9
[budget]
measure_insts = 1500
warmup_insts = 600
search_insts = 500
"#;

fn json(body: &str) -> serde_json::Value {
    serde_json::from_str_value(body).unwrap_or_else(|e| panic!("bad JSON ({e}): {body}"))
}

fn submit(addr: &str, spec: &str) -> String {
    let HttpResponse { status, body, .. } =
        HttpClient::new(addr).request("POST", "/campaigns", Some(spec)).unwrap();
    assert_eq!(status, 202, "{body}");
    json(&body).get("id").and_then(|i| i.as_str()).unwrap().to_string()
}

/// Poll until the campaign reaches a terminal phase; returns the final
/// snapshot.
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

fn cell_count(snap: &serde_json::Value, key: &str) -> u64 {
    snap.get("cells").and_then(|c| c.get(key)).and_then(|v| v.as_u64()).unwrap()
}

#[test]
fn submit_poll_results_and_full_cache_on_resubmit() {
    let dir = tmpdir("e2e");
    let server = server_on(&dir.join("cache"), None);
    let addr = server.addr().to_string();

    // ---- first submission: everything simulates ----
    let id = submit(&addr, SPEC);
    let snap = wait_terminal(&addr, &id);
    assert_eq!(snap.get("status").and_then(|s| s.as_str()), Some("done"), "{snap:?}");
    assert_eq!(cell_count(&snap, "total"), 4);
    assert_eq!(cell_count(&snap, "done"), 4, "cold cache: all simulated: {snap:?}");
    assert_eq!(cell_count(&snap, "cached"), 0, "{snap:?}");

    let HttpResponse { status, body, .. } =
        HttpClient::new(&addr).request("GET", &format!("/campaigns/{id}/results"), None).unwrap();
    assert_eq!(status, 200);
    let result = json(&body);
    assert_eq!(result.get("cells").and_then(|c| c.as_array()).map(|a| a.len()), Some(4));

    let HttpResponse { status, body: csv, .. } = HttpClient::new(&addr)
        .request("GET", &format!("/campaigns/{id}/results?format=csv"), None)
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(csv.lines().count(), 5, "header + 4 rows: {csv}");

    // ---- second submission of the same spec: 100% cache hits ----
    let id2 = submit(&addr, SPEC);
    assert_ne!(id2, id, "each submission is its own campaign");
    let snap2 = wait_terminal(&addr, &id2);
    assert_eq!(snap2.get("status").and_then(|s| s.as_str()), Some("done"));
    assert_eq!(cell_count(&snap2, "cached"), 4, "resubmit must be fully cached: {snap2:?}");
    assert_eq!(cell_count(&snap2, "done"), 0, "{snap2:?}");

    // ---- direct cell lookup by a client-computed content key ----
    let spec = CampaignSpec::parse(SPEC).unwrap();
    let catalog = engine::catalog_for(&spec);
    let cells = expand(&spec, &catalog).unwrap();
    let budget = spec.budget();
    for cell in &cells {
        let arch = MicroArch::parse(&cell.arch).unwrap();
        let mapping = hdsmt_core::mapping::round_robin_mapping(&arch, cell.workload.threads());
        let key = cell.job(mapping, &budget).key();
        let HttpResponse { status, body, .. } =
            HttpClient::new(&addr).request("GET", &format!("/cells/{key}"), None).unwrap();
        assert_eq!(status, 200, "cell {}/{} must be cached: {body}", cell.arch, cell.workload.id);
        let entry = json(&body);
        assert!(entry.get("result").is_some(), "verbatim cache entry: {body}");
    }

    // ---- /stats reflects the work ----
    let HttpResponse { body: stats, .. } =
        HttpClient::new(&addr).request("GET", "/stats", None).unwrap();
    let stats = json(&stats);
    let jobs = stats.get("jobs").unwrap();
    assert_eq!(jobs.get("total").and_then(|v| v.as_u64()), Some(8));
    assert_eq!(jobs.get("cache_hits").and_then(|v| v.as_u64()), Some(4));
    assert_eq!(
        stats.get("campaigns").and_then(|c| c.get("done")).and_then(|v| v.as_u64()),
        Some(2)
    );

    server.shutdown_and_join();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn api_errors_over_the_socket_are_structured_json() {
    let dir = tmpdir("errors");
    let server = server_on(&dir.join("cache"), None);
    let addr = server.addr().to_string();

    let HttpResponse { status, body, .. } =
        HttpClient::new(&addr).request("POST", "/campaigns", Some("{ not a spec")).unwrap();
    assert_eq!(status, 400);
    let err = json(&body).get("error").cloned().expect("structured error");
    assert_eq!(err.get("status").and_then(|s| s.as_u64()), Some(400));
    assert!(err.get("message").and_then(|m| m.as_str()).is_some());

    let HttpResponse { status, body, .. } = HttpClient::new(&addr)
        .request("POST", "/campaigns", Some(r#"{"archs": ["M99"], "workloads": ["2W1"]}"#))
        .unwrap();
    assert_eq!(status, 400, "validation failures are client errors: {body}");
    assert!(body.contains("M99"), "the message names the bad arch: {body}");

    let HttpResponse { status, .. } =
        HttpClient::new(&addr).request("GET", "/campaigns/c0-nope", None).unwrap();
    assert_eq!(status, 404);
    let HttpResponse { status, .. } =
        HttpClient::new(&addr).request("GET", "/campaigns/c0-nope/results", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = http_request_raw(&addr, "PUT /campaigns HTTP/1.1");
    assert_eq!(status, 405);
    let (status, _) = http_request_raw(&addr, "GET /definitely/not/a/route HTTP/1.1");
    assert_eq!(status, 404);
    let (status, body) = http_request_raw(&addr, "complete garbage");
    assert_eq!(status, 400, "unparseable requests get a structured 400: {body}");
    assert!(json(&body).get("error").is_some(), "{body}");

    server.shutdown_and_join();
    let _ = fs::remove_dir_all(&dir);
}

/// Send a raw request line (no body) and return (status, body).
fn http_request_raw(addr: &str, request_line: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.write_all(format!("{request_line}\r\nContent-Length: 0\r\n\r\n").as_bytes()).unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    let status = out.split_whitespace().nth(1).and_then(|v| v.parse().ok()).unwrap_or(0);
    let body = out.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

#[test]
fn shutdown_mid_campaign_leaves_a_resumable_cache() {
    let dir = tmpdir("resume");
    let cache_dir = dir.join("cache");

    // One slow-ish campaign on a single-threaded runner so a shutdown can
    // land mid-flight.
    let spec = r#"
name = "serve-resume"
archs = ["M8", "3M4", "4M4", "2M4+2M2"]
workloads = ["2W1", "2W7"]
policies = ["rr"]
seed = 9
[budget]
measure_insts = 4000
warmup_insts = 1500
search_insts = 500
"#;
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: cache_dir.to_string_lossy().into_owned(),
        sim_workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    let id = submit(&addr, spec);

    // Wait until at least one cell concluded, then pull the plug.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let HttpResponse { body, .. } =
            HttpClient::new(&addr).request("GET", &format!("/campaigns/{id}"), None).unwrap();
        let snap = json(&body);
        let concluded = cell_count(&snap, "done") + cell_count(&snap, "cached");
        let terminal = snap.get("status").and_then(|s| s.as_str()).unwrap() != "running"
            && snap.get("status").and_then(|s| s.as_str()).unwrap() != "queued";
        if concluded >= 1 || terminal {
            break;
        }
        assert!(Instant::now() < deadline, "no progress: {snap:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let HttpResponse { status, .. } =
        HttpClient::new(&addr).request("POST", "/shutdown", None).unwrap();
    assert_eq!(status, 202);
    server.shutdown_and_join();

    // The daemon may have finished the campaign in the race — both ends
    // are legal; what matters is what the *cache* enables next.
    // A fresh daemon on the same cache resumes: nothing already simulated
    // re-simulates, and the campaign completes.
    let server2 = server_on(&cache_dir, None);
    let addr2 = server2.addr().to_string();
    let id2 = submit(&addr2, spec);
    let snap = wait_terminal(&addr2, &id2);
    assert_eq!(snap.get("status").and_then(|s| s.as_str()), Some("done"), "{snap:?}");
    assert_eq!(cell_count(&snap, "total"), 8);
    assert!(
        cell_count(&snap, "cached") >= 1,
        "work finished before the shutdown must be reused: {snap:?}"
    );
    assert_eq!(cell_count(&snap, "cached") + cell_count(&snap, "done"), 8, "{snap:?}");
    assert_eq!(cell_count(&snap, "failed"), 0, "{snap:?}");
    server2.shutdown_and_join();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn two_shards_sharing_one_cache_complete_a_campaign_exactly() {
    let dir = tmpdir("shards");
    let cache_dir = dir.join("cache");
    let spec_text = r#"
name = "serve-shards"
archs = ["M8", "2M4+2M2"]
workloads = ["2W1", "2W7"]
policies = ["rr", "random:7"]
seed = 9
[budget]
measure_insts = 1500
warmup_insts = 600
search_insts = 500
"#;
    let spec = CampaignSpec::parse(spec_text).unwrap();
    let catalog = engine::catalog_for(&spec);
    let all_cells = expand(&spec, &catalog).unwrap();
    assert_eq!(all_cells.len(), 8);

    // Two daemons, same cache directory, complementary shards — as two
    // worker processes on a shared filesystem would run.
    let s0 = server_on(&cache_dir, Some(ShardSpec::parse("0/2").unwrap()));
    let s1 = server_on(&cache_dir, Some(ShardSpec::parse("1/2").unwrap()));
    let (a0, a1) = (s0.addr().to_string(), s1.addr().to_string());

    let id0 = submit(&a0, spec_text);
    let id1 = submit(&a1, spec_text);
    let snap0 = wait_terminal(&a0, &id0);
    let snap1 = wait_terminal(&a1, &id1);
    assert_eq!(snap0.get("status").and_then(|s| s.as_str()), Some("done"), "{snap0:?}");
    assert_eq!(snap1.get("status").and_then(|s| s.as_str()), Some("done"), "{snap1:?}");

    // Exact partition: the shard totals match the ownership rule and sum
    // to the full matrix — no cell lost, none owned twice.
    let owned0 =
        all_cells.iter().filter(|c| ShardSpec::parse("0/2").unwrap().owns(c)).count() as u64;
    assert_eq!(cell_count(&snap0, "total"), owned0, "{snap0:?}");
    assert_eq!(cell_count(&snap0, "total") + cell_count(&snap1, "total"), 8);
    assert!(cell_count(&snap0, "total") > 0, "degenerate split: {snap0:?}");
    assert!(cell_count(&snap1, "total") > 0, "degenerate split: {snap1:?}");
    for snap in [&snap0, &snap1] {
        assert_eq!(cell_count(snap, "failed"), 0, "{snap:?}");
        assert_eq!(
            cell_count(snap, "done") + cell_count(snap, "cached"),
            cell_count(snap, "total"),
            "{snap:?}"
        );
    }

    s0.shutdown_and_join();
    s1.shutdown_and_join();

    // The union is complete: an unsharded run over the same cache
    // simulates nothing.
    let mut full = spec.clone();
    full.cache_dir = Some(cache_dir.to_string_lossy().into_owned());
    full.workers = Some(2);
    let r = engine::run_campaign(&full, &catalog).unwrap();
    assert_eq!(r.cells.len(), 8);
    assert_eq!(r.report.simulated, 0, "shards must have covered every cell: {:?}", r.report);
    let _ = fs::remove_dir_all(&dir);
}

// ------------------------------------------------- transport and memo

#[test]
fn pipelined_requests_in_one_write_get_two_responses_in_order() {
    use std::io::{Read, Write};
    let dir = tmpdir("pipeline");
    let server = server_on(&dir.join("cache"), None);
    let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(
        b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n\
          GET /campaigns/c0-nope HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    // The second request asks to close, so the daemon closes after
    // answering it and the read ends.
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    let statuses: Vec<&str> =
        out.match_indices("HTTP/1.1 ").map(|(at, _)| &out[at + 9..at + 12]).collect();
    assert_eq!(statuses, ["200", "404"], "{out}");
    server.shutdown_and_join();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn keep_alive_gets_do_not_wait_on_delayed_acks() {
    let dir = tmpdir("latency");
    let server = server_on(&dir.join("cache"), None);
    let addr = server.addr().to_string();
    let id = submit(&addr, SPEC);
    wait_terminal(&addr, &id);
    // A response sent in two writes waits ~40 ms for the client's delayed
    // ACK; 50 of them would take ~2 s.
    let mut http = HttpClient::new(&addr);
    let started = Instant::now();
    for _ in 0..50 {
        let HttpResponse { status, body, .. } =
            http.request("GET", &format!("/campaigns/{id}"), None).unwrap();
        assert_eq!(status, 200, "{body}");
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(1), "50 keep-alive GETs took {elapsed:?}");
    server.shutdown_and_join();
    let _ = fs::remove_dir_all(&dir);
}

/// `GET /campaigns/:id/results` in every export format.
fn exports(http: &mut HttpClient, id: &str) -> Vec<String> {
    ["json", "csv", "summary"]
        .iter()
        .map(|format| {
            let path = format!("/campaigns/{id}/results?format={format}");
            let HttpResponse { status, body, .. } = http.request("GET", &path, None).unwrap();
            assert_eq!(status, 200, "{path}: {body}");
            body
        })
        .collect()
}

fn results_retained(http: &mut HttpClient) -> u64 {
    let HttpResponse { body, .. } = http.request("GET", "/stats", None).unwrap();
    let stats = json(&body);
    stats.get("campaigns").and_then(|c| c.get("results_retained")).and_then(|v| v.as_u64()).unwrap()
}

#[test]
fn results_past_the_memo_bound_replay_byte_identically() {
    use hdsmt_campaign::serve::state::RESULTS_RETAINED;
    let dir = tmpdir("memo");
    let server = server_on(&dir.join("cache"), None);
    let addr = server.addr().to_string();
    let mut http = HttpClient::new(&addr);

    // The first campaign simulates every cell, so its export reports
    // simulated jobs; the replay must report the same counts.
    let first = submit(&addr, SPEC);
    wait_terminal(&addr, &first);
    let held = exports(&mut http, &first);
    assert!(held[2].contains("4 simulated"), "{}", held[2]);
    assert_eq!(results_retained(&mut http), 1);

    // The bound plus four campaigns in all, every later one fully cached:
    // the first is the least recently finished or read, so it is dropped.
    for _ in 0..RESULTS_RETAINED + 3 {
        let id = submit(&addr, SPEC);
        let snap = wait_terminal(&addr, &id);
        assert_eq!(cell_count(&snap, "cached"), 4, "{snap:?}");
    }
    assert_eq!(results_retained(&mut http), RESULTS_RETAINED as u64);

    assert_eq!(exports(&mut http, &first), held, "a replayed export must be byte-identical");
    assert_eq!(results_retained(&mut http), RESULTS_RETAINED as u64);
    let HttpResponse { status, .. } =
        http.request("GET", "/campaigns/c0-nope/results", None).unwrap();
    assert_eq!(status, 404);
    server.shutdown_and_join();
    let _ = fs::remove_dir_all(&dir);
}

// --------------------------------------------------- CLI thin client

#[test]
fn cli_remote_round_trip_against_a_serve_subprocess() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    let dir = tmpdir("cli-remote");
    let cache_dir = dir.join("cache");
    let spec_path = dir.join("spec.toml");
    fs::write(&spec_path, SPEC).unwrap();

    // `serve` on an ephemeral port; the daemon prints the resolved
    // address on stderr.
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_hdsmt-campaign"))
        .args(["serve", "--addr", "127.0.0.1:0", "--cache"])
        .arg(&cache_dir)
        .args(["--workers", "2"])
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stderr = BufReader::new(daemon.stderr.take().unwrap());
    let mut banner = String::new();
    stderr.read_line(&mut banner).unwrap();
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner: {banner}"))
        .to_string();
    assert!(banner.contains(", 2 workers"), "the banner names the worker count: {banner}");

    // Thin-client run: submits, polls, prints the summary.
    let run = Command::new(env!("CARGO_BIN_EXE_hdsmt-campaign"))
        .arg("run")
        .arg(&spec_path)
        .args(["--remote", &addr])
        .output()
        .unwrap();
    assert!(run.status.success(), "stderr: {}", String::from_utf8_lossy(&run.stderr));
    let summary = String::from_utf8_lossy(&run.stdout);
    assert!(summary.contains("hmean IPC"), "{summary}");

    // Thin-client status: daemon stats + campaign list.
    let status = Command::new(env!("CARGO_BIN_EXE_hdsmt-campaign"))
        .args(["status", "--remote", &addr])
        .output()
        .unwrap();
    assert!(status.status.success());
    let out = String::from_utf8_lossy(&status.stdout);
    assert!(out.contains("\"uptime_secs\""), "{out}");
    assert!(out.contains("serve-e2e"), "the submitted campaign is listed: {out}");

    // Thin-client export: fully cached second pass, files on disk.
    let out_dir = dir.join("out");
    let export = Command::new(env!("CARGO_BIN_EXE_hdsmt-campaign"))
        .arg("export")
        .arg(&spec_path)
        .args(["--remote", &addr, "--out"])
        .arg(&out_dir)
        .output()
        .unwrap();
    assert!(export.status.success(), "stderr: {}", String::from_utf8_lossy(&export.stderr));
    for name in ["campaign.json", "cells.csv", "summary.txt"] {
        assert!(out_dir.join(name).is_file(), "{name} missing");
    }

    // SIGINT → graceful drain → exit code 0 (the daemon's whole point).
    let pid = daemon.id().to_string();
    assert!(Command::new("kill").args(["-INT", &pid]).status().unwrap().success());
    let code = daemon.wait().unwrap();
    assert!(code.success(), "graceful SIGINT shutdown must exit 0, got {code:?}");
    let _ = fs::remove_dir_all(&dir);
}
