//! The JSON API: routing, status codes, and error bodies.
//!
//! Every failure is a structured JSON object so thin clients and scripts
//! never have to scrape prose:
//!
//! ```json
//! {"error": {"status": 404, "message": "no campaign `c9-deadbeef`"}}
//! ```
//!
//! | Route                        | Method | Success                            |
//! |------------------------------|--------|------------------------------------|
//! | `/healthz`                   | GET    | 200 `{"status":"ok"}`              |
//! | `/stats`                     | GET    | 200 service counters               |
//! | `/campaigns`                 | POST   | 202 snapshot of the queued campaign|
//! | `/campaigns`                 | GET    | 200 list of snapshots              |
//! | `/campaigns/:id`             | GET    | 200 snapshot                       |
//! | `/campaigns/:id/results`     | GET    | 200 export (`?format=json\|csv\|summary`)¹ |
//! | `/cells/:hash`               | GET    | 200 verbatim cache entry           |
//! | `/cells/:hash?sha256=hex`    | PUT    | 200 replication landed             |
//! | `/shutdown`                  | POST   | 202 drain begins                   |
//!
//! ¹ Only the most recently finished or read
//! [`RESULTS_RETAINED`](crate::serve::state::RESULTS_RETAINED) results
//! stay in memory. The export of an older done campaign replays it
//! through the engine on the daemon's cache: pure cache reads, and
//! byte-identical to the export it had when it finished.
//!
//! The daemon answers the campaign routes from its one registry,
//! [`ServerState`], and runs every accepted campaign on its own
//! executor. Queue-full 503s carry a `Retry-After` header scaled to the
//! backlog.

use crate::cache::{valid_cell_key, EntryLookup, Replicate, ReplicateError};
use crate::export;
use crate::serve::http::{HttpError, Request, Response};
use crate::serve::state::{ServerState, SubmitError};

#[derive(serde::Serialize)]
struct ErrorDetail {
    status: u16,
    message: String,
}

#[derive(serde::Serialize)]
struct ErrorBody {
    error: ErrorDetail,
}

/// The structured JSON error response every failing route returns.
pub fn error_response(status: u16, message: impl Into<String>) -> Response {
    let body = ErrorBody { error: ErrorDetail { status, message: message.into() } };
    // A plain struct of a u16 and a String always serializes; if that
    // assumption ever breaks, degrade to a schema-compatible static body
    // rather than panicking the handler thread.
    let text = serde_json::to_string(&body).unwrap_or_else(|_| {
        format!("{{\"error\":{{\"status\":{status},\"message\":\"error serialization failed\"}}}}")
    });
    Response::json(status, text)
}

/// Map a transport-level parse failure to a response (mod.rs calls this
/// for connections whose bytes never became a [`Request`]).
pub fn transport_error_response(err: &HttpError) -> Response {
    match err {
        HttpError::TooLarge(what) => error_response(413, format!("request too large: {what}")),
        _ => error_response(400, err.to_string()),
    }
}

fn json_ok(status: u16, value: &impl serde::Serialize) -> Response {
    match serde_json::to_string(value) {
        Ok(text) => Response::json(status, text),
        // Unreachable for the plain-data API types, but a handler thread
        // must answer 500, not unwind.
        Err(_) => error_response(500, "response serialization failed"),
    }
}

/// Route one request against the daemon state. Pure request→response:
/// socket handling (and shutdown plumbing) lives in `mod.rs`.
pub fn handle(state: &ServerState, req: &Request) -> Response {
    let segments = req.segments();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", []) => json_ok(200, &ServiceIndex::default()),
        ("GET", ["healthz"]) => Response::json(200, r#"{"status":"ok"}"#.to_string()),
        ("GET", ["stats"]) => json_ok(200, &state.stats()),
        ("POST", ["campaigns"]) => submit(state, req),
        ("GET", ["campaigns"]) => {
            let list: Vec<_> = state.list().iter().map(|e| e.snapshot()).collect();
            json_ok(200, &list)
        }
        ("GET", ["campaigns", id]) => match state.get(id) {
            Some(entry) => json_ok(200, &entry.snapshot()),
            None => error_response(404, format!("no campaign `{id}`")),
        },
        ("GET", ["campaigns", id, "results"]) => results(state, req, id),
        ("GET", ["cells", hash]) => cell(state, hash),
        ("PUT", ["cells", hash]) => cell_put(state, req, hash),
        ("POST", ["shutdown"]) => {
            state.begin_shutdown();
            Response::json(202, r#"{"status":"draining"}"#.to_string())
        }
        // Known paths with the wrong verb get a 405, not a 404.
        (_, [] | ["healthz"] | ["stats"] | ["campaigns", ..] | ["cells", _] | ["shutdown"]) => {
            error_response(405, format!("method {} not allowed on {}", req.method, req.path))
        }
        _ => error_response(404, format!("no route for {}", req.path)),
    }
}

/// `GET /` — a tiny machine-readable index so a curl of the bare address
/// explains the service.
#[derive(serde::Serialize)]
struct ServiceIndex {
    service: &'static str,
    routes: Vec<&'static str>,
}

impl Default for ServiceIndex {
    fn default() -> Self {
        ServiceIndex {
            service: "hdsmt-campaign serve",
            routes: vec![
                "GET /healthz",
                "GET /stats",
                "POST /campaigns",
                "GET /campaigns",
                "GET /campaigns/:id",
                "GET /campaigns/:id/results?format=json|csv|summary",
                "GET /cells/:hash",
                "PUT /cells/:hash?sha256=hex",
                "POST /shutdown",
            ],
        }
    }
}

fn submit(state: &ServerState, req: &Request) -> Response {
    let spec_text = match req.body_str() {
        Ok(text) if !text.trim().is_empty() => text,
        Ok(_) => return error_response(400, "empty body: POST a TOML or JSON campaign spec"),
        Err(e) => return error_response(400, e.to_string()),
    };
    if state.is_shutting_down() {
        return error_response(503, "daemon is shutting down; not accepting campaigns");
    }
    match state.submit(spec_text) {
        Ok(entry) => json_ok(202, &entry.snapshot()),
        Err(SubmitError::Invalid(msg)) => error_response(400, msg),
        // Backpressure: tell the client *when* to come back, scaled to
        // the backlog, instead of letting it guess.
        Err(SubmitError::QueueFull) => {
            error_response(503, "campaign queue is full; retry after a campaign finishes")
                .with_retry_after(state.queue.retry_after_hint())
        }
        Err(SubmitError::ShuttingDown) => {
            error_response(503, "daemon is shutting down; not accepting campaigns")
        }
        Err(SubmitError::Journal(msg)) => journal_unavailable(&msg),
    }
}

/// A failed pending-accept write (full disk, injected fault) refuses the
/// submission: the daemon must not 202 work it cannot promise to
/// survive. Degrade to 503 + Retry-After — such failures are usually
/// transient (disk pressure), so tell the client to come back.
fn journal_unavailable(msg: &str) -> Response {
    error_response(503, format!("cannot journal the accept ({msg}); retry later"))
        .with_retry_after(10)
}

fn results(state: &ServerState, req: &Request, id: &str) -> Response {
    let result = match state.results(id) {
        Ok(result) => result,
        Err((status, message)) => return error_response(status, message),
    };
    match req.query_param("format").unwrap_or("json") {
        "json" => Response::json(200, export::to_json(&result)),
        "csv" => Response::csv(export::to_csv(&result)),
        "summary" => Response::text(200, export::summary(&result)),
        other => error_response(400, format!("unknown format `{other}` (json|csv|summary)")),
    }
}

fn cell(state: &ServerState, hash: &str) -> Response {
    if !valid_cell_key(hash) {
        return error_response(400, "cell key must be 64 lowercase hex chars (a SHA-256)");
    }
    match state.cache.entry_text(hash) {
        // The on-disk entry is already the JSON response body.
        EntryLookup::Hit(text) => Response::json(200, text),
        EntryLookup::Miss => error_response(404, format!("no cached cell `{hash}`")),
        EntryLookup::Corrupt => error_response(
            500,
            format!("cell `{hash}` was corrupt and has been quarantined; it will re-simulate on next use"),
        ),
    }
}

/// `PUT /cells/:hash?sha256=hex` — land a replicated entry. The checksum
/// covers the body in transit; the byte-equality conflict rule (entries
/// are deterministic, so divergence is corruption) lives in the cache.
fn cell_put(state: &ServerState, req: &Request, hash: &str) -> Response {
    if !valid_cell_key(hash) {
        return error_response(400, "cell key must be 64 lowercase hex chars (a SHA-256)");
    }
    let Some(claimed) = req.query_param("sha256") else {
        return error_response(400, "missing sha256 checksum query parameter");
    };
    let body = match req.body_str() {
        Ok(text) => text,
        Err(e) => return error_response(400, e.to_string()),
    };
    if crate::hash::sha256_hex(body.as_bytes()) != claimed {
        return error_response(422, "body does not match the sha256 checksum (corrupt in transit)");
    }
    match state.cache.put_entry_text(hash, body) {
        Ok(Replicate::Stored) => Response::json(200, r#"{"status":"stored"}"#.to_string()),
        Ok(Replicate::AlreadyPresent) => {
            Response::json(200, r#"{"status":"already-present"}"#.to_string())
        }
        Err(ReplicateError::Invalid) => {
            error_response(422, "body is not a valid cache entry; refusing to land it")
        }
        Err(ReplicateError::Conflict) => error_response(
            409,
            format!("cell `{hash}` already exists with different bytes; incoming copy quarantined"),
        ),
        Err(ReplicateError::Io(e)) => error_response(500, format!("failed to land cell: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::state::ServerConfig;

    fn tmp_state(tag: &str) -> ServerState {
        let dir =
            std::env::temp_dir().join(format!("hdsmt-serve-api-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ServerState::new(ServerConfig {
            cache_dir: dir.to_string_lossy().into_owned(),
            ..ServerConfig::default()
        })
        .unwrap()
    }

    fn get(path: &str) -> Request {
        let (path, query) = path.split_once('?').unwrap_or((path, ""));
        Request {
            method: "GET".into(),
            path: path.into(),
            query: query.into(),
            body: Vec::new(),
            keep_alive: true,
        }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            query: String::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    fn put(path: &str, body: &str) -> Request {
        let (path, query) = path.split_once('?').unwrap_or((path, ""));
        Request {
            method: "PUT".into(),
            path: path.into(),
            query: query.into(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    fn body_json(resp: &Response) -> serde_json::Value {
        serde_json::from_str_value(std::str::from_utf8(&resp.body).unwrap()).unwrap()
    }

    const SPEC: &str = r#"{"archs": ["M8"], "workloads": ["2W1"], "policies": ["rr"]}"#;

    #[test]
    fn health_stats_and_index() {
        let state = tmp_state("health");
        assert_eq!(handle(&state, &get("/healthz")).status, 200);
        let stats = handle(&state, &get("/stats"));
        assert_eq!(stats.status, 200);
        let v = body_json(&stats);
        assert_eq!(v.get("accepting").and_then(|b| b.as_bool()), Some(true));
        assert!(v.get("cache").and_then(|c| c.get("corrupt")).is_some(), "corrupt counter");
        let index = handle(&state, &get("/"));
        assert!(body_json(&index).get("routes").and_then(|r| r.as_array()).is_some());
    }

    #[test]
    fn auto_workers_resolve_once_to_the_daemon_reserve() {
        // `tmp_state` leaves `sim_workers` at 0 (auto). The daemon keeps
        // two cores for its clients and acceptor, and `/stats`, the
        // accepted spec and the state's own config all carry that count.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let want = cores.saturating_sub(2).max(1);
        let state = tmp_state("auto-workers");
        assert_eq!(state.config.sim_workers, want);
        let stats = body_json(&handle(&state, &get("/stats")));
        assert_eq!(stats.get("sim_workers").and_then(|w| w.as_u64()), Some(want as u64));

        let accepted = handle(&state, &post("/campaigns", SPEC));
        assert_eq!(accepted.status, 202, "{:?}", accepted.body);
        let id = body_json(&accepted).get("id").and_then(|i| i.as_str()).unwrap().to_string();
        assert_eq!(state.get(&id).unwrap().spec.workers, Some(want as u64));
    }

    #[test]
    fn submit_lifecycle_without_an_executor() {
        let state = tmp_state("lifecycle");
        // No executor is draining the queue, so the campaign stays queued
        // — exactly what the progress/results error paths need.
        let accepted = handle(&state, &post("/campaigns", SPEC));
        assert_eq!(accepted.status, 202, "{:?}", accepted.body);
        let id = body_json(&accepted).get("id").and_then(|i| i.as_str()).unwrap().to_string();
        assert!(id.starts_with("c1-"), "sequence + spec digest: {id}");

        let snap = handle(&state, &get(&format!("/campaigns/{id}")));
        assert_eq!(snap.status, 200);
        assert_eq!(body_json(&snap).get("status").and_then(|s| s.as_str()), Some("queued"));

        let list = handle(&state, &get("/campaigns"));
        assert_eq!(body_json(&list).as_array().map(|a| a.len()), Some(1));

        let res = handle(&state, &get(&format!("/campaigns/{id}/results")));
        assert_eq!(res.status, 409, "results before completion must conflict");
        let msg = body_json(&res);
        assert_eq!(
            msg.get("error").and_then(|e| e.get("status")).and_then(|s| s.as_u64()),
            Some(409)
        );
    }

    #[test]
    fn error_paths_are_structured_json() {
        let state = tmp_state("errors");

        // Malformed specs: bad JSON, empty body, validation failure.
        for (body, want) in [
            ("{ not json", 400),
            ("", 400),
            (r#"{"archs": [], "workloads": ["2W1"]}"#, 400),
            (r#"{"archs": ["M8"], "workloads": ["2W1"], "policies": ["bogus"]}"#, 400),
        ] {
            let resp = handle(&state, &post("/campaigns", body));
            assert_eq!(resp.status, want, "spec {body:?}");
            let v = body_json(&resp);
            assert!(
                v.get("error").and_then(|e| e.get("message")).is_some(),
                "structured error for {body:?}"
            );
        }

        assert_eq!(handle(&state, &get("/campaigns/c9-unknown")).status, 404);
        assert_eq!(handle(&state, &get("/campaigns/c9-unknown/results")).status, 404);
        assert_eq!(handle(&state, &get("/nope")).status, 404);
        assert_eq!(handle(&state, &post("/healthz", "")).status, 405);
        assert_eq!(handle(&state, &post("/campaigns/x", "")).status, 405);

        // Cell lookups: bad key shape vs a well-formed miss.
        assert_eq!(handle(&state, &get("/cells/shorthash")).status, 400);
        assert_eq!(handle(&state, &get(&format!("/cells/{}", "A".repeat(64)))).status, 400);
        assert_eq!(handle(&state, &get(&format!("/cells/{}", "a".repeat(64)))).status, 404);
    }

    #[test]
    fn results_format_selection() {
        let state = tmp_state("formats");
        let accepted = handle(&state, &post("/campaigns", SPEC));
        let id = body_json(&accepted).get("id").and_then(|i| i.as_str()).unwrap().to_string();
        // Run the queued campaign inline (what an executor thread does).
        let entry = state.queue.pop().unwrap();
        state.execute(&entry);

        let json = handle(&state, &get(&format!("/campaigns/{id}/results")));
        assert_eq!(json.status, 200, "{:?}", String::from_utf8_lossy(&json.body));
        assert!(body_json(&json).get("cells").is_some());

        let csv = handle(&state, &get(&format!("/campaigns/{id}/results?format=csv")));
        assert_eq!(csv.status, 200);
        assert_eq!(csv.content_type, "text/csv; charset=utf-8");
        assert!(std::str::from_utf8(&csv.body).unwrap().starts_with("arch,workload"));

        let summary = handle(&state, &get(&format!("/campaigns/{id}/results?format=summary")));
        assert_eq!(summary.status, 200);
        assert!(std::str::from_utf8(&summary.body).unwrap().contains("hmean IPC"));

        let bad = handle(&state, &get(&format!("/campaigns/{id}/results?format=xml")));
        assert_eq!(bad.status, 400);

        // The snapshot now reports terminal per-cell counts.
        let snap = body_json(&handle(&state, &get(&format!("/campaigns/{id}"))));
        assert_eq!(snap.get("status").and_then(|s| s.as_str()), Some("done"));
        let cells = snap.get("cells").unwrap();
        let n = |k: &str| cells.get(k).and_then(|v| v.as_u64()).unwrap();
        assert_eq!(n("total"), 1);
        assert_eq!(n("done") + n("cached"), 1, "{cells:?}");
        assert_eq!(n("queued") + n("running") + n("failed") + n("cancelled"), 0, "{cells:?}");

        let _ = std::fs::remove_dir_all(state.cache.dir());
    }

    #[test]
    fn queue_full_503_carries_a_retry_after_hint() {
        let dir =
            std::env::temp_dir().join(format!("hdsmt-serve-api-qfull-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = ServerState::new(ServerConfig {
            cache_dir: dir.to_string_lossy().into_owned(),
            queue_cap: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        // No executor drains the queue: the second submission must bounce
        // with backpressure advice.
        assert_eq!(handle(&state, &post("/campaigns", SPEC)).status, 202);
        let bounced = handle(&state, &post("/campaigns", SPEC));
        assert_eq!(bounced.status, 503);
        assert_eq!(bounced.retry_after, Some(1), "one queued campaign → 1s hint");
        // Shutdown 503s advise nothing — retrying won't help.
        handle(&state, &post("/shutdown", ""));
        let refused = handle(&state, &post("/campaigns", SPEC));
        assert_eq!((refused.status, refused.retry_after), (503, None));
    }

    #[test]
    fn stats_report_the_quarantined_count() {
        let state = tmp_state("quarantine");
        let v = body_json(&handle(&state, &get("/stats")));
        assert_eq!(
            v.get("cache").and_then(|c| c.get("quarantined")).and_then(|q| q.as_u64()),
            Some(0)
        );
        assert_eq!(v.get("cache_quarantined").and_then(|q| q.as_u64()), Some(0));
    }

    #[test]
    fn shutdown_refuses_new_submissions() {
        let state = tmp_state("shutdown");
        assert_eq!(handle(&state, &post("/shutdown", "")).status, 202);
        let refused = handle(&state, &post("/campaigns", SPEC));
        assert_eq!(refused.status, 503);
        let v = body_json(&refused);
        assert!(
            v.get("error")
                .and_then(|e| e.get("message"))
                .and_then(|m| m.as_str())
                .unwrap()
                .contains("shutting down"),
            "{v:?}"
        );
        let stats = body_json(&handle(&state, &get("/stats")));
        assert_eq!(stats.get("accepting").and_then(|b| b.as_bool()), Some(false));
    }

    /// Exercise the replication surface end to end at the handler level:
    /// checksum enforcement, idempotent landing, and the byte-equality
    /// conflict rule.
    #[test]
    fn cell_replication_put_manifest_and_conflicts() {
        // Source daemon: run a two-cell campaign so the cache holds two
        // distinct entries (same spec shape, different bytes).
        let src = tmp_state("repl-src");
        let spec = r#"{"archs": ["M8"], "workloads": ["2W1", "2W7"], "policies": ["rr"]}"#;
        assert_eq!(handle(&src, &post("/campaigns", spec)).status, 202);
        let entry = src.queue.pop().unwrap();
        src.execute(&entry);

        let keys: Vec<String> = src.cache.manifest(None).into_iter().map(|(key, _)| key).collect();
        assert_eq!(keys.len(), 2, "{keys:?}");

        let fetch = |key: &str| {
            let resp = handle(&src, &get(&format!("/cells/{key}")));
            assert_eq!(resp.status, 200);
            String::from_utf8(resp.body.clone()).unwrap()
        };
        let (text_a, text_b) = (fetch(&keys[0]), fetch(&keys[1]));
        assert_ne!(text_a, text_b, "distinct cells must serialize differently");

        // Destination daemon: an empty cache on a "different host".
        let dst = tmp_state("repl-dst");
        let sha_a = crate::hash::sha256_hex(text_a.as_bytes());
        let route = |sha: &str| format!("/cells/{}?sha256={sha}", keys[0]);
        assert_eq!(handle(&dst, &put(&format!("/cells/{}", keys[0]), &text_a)).status, 400);
        assert_eq!(handle(&dst, &put(&route(&"0".repeat(64)), &text_a)).status, 422);
        assert_eq!(handle(&dst, &get(&format!("/cells/{}", keys[0]))).status, 404);

        let stored = handle(&dst, &put(&route(&sha_a), &text_a));
        assert_eq!(stored.status, 200, "{:?}", String::from_utf8_lossy(&stored.body));
        assert_eq!(body_json(&stored).get("status").and_then(|s| s.as_str()), Some("stored"));
        let again = body_json(&handle(&dst, &put(&route(&sha_a), &text_a)));
        assert_eq!(again.get("status").and_then(|s| s.as_str()), Some("already-present"));

        // A checksum-valid body that is not a cache entry never lands.
        let garbage = r#"{"not": "a cache entry"}"#;
        let sha_g = crate::hash::sha256_hex(garbage.as_bytes());
        assert_eq!(handle(&dst, &put(&route(&sha_g), garbage)).status, 422);

        // Byte conflict: different valid bytes under an existing key is
        // corruption by definition — quarantined, never last-write-wins.
        let sha_b = crate::hash::sha256_hex(text_b.as_bytes());
        assert_eq!(handle(&dst, &put(&route(&sha_b), &text_b)).status, 409);
        let served = handle(&dst, &get(&format!("/cells/{}", keys[0])));
        assert_eq!(String::from_utf8(served.body).unwrap(), text_a, "original bytes survive");
        let quarantine = std::path::Path::new(dst.cache.dir()).join("quarantine");
        assert!(
            std::fs::read_dir(&quarantine).map(|d| d.count() > 0).unwrap_or(false),
            "conflicting copy must land in quarantine/"
        );

        let stats = body_json(&handle(&dst, &get("/stats")));
        let counter = |k: &str| stats.get(k).and_then(|v| v.as_u64());
        assert_eq!(counter("cells_replicated"), Some(1), "{stats:?}");

        let _ = std::fs::remove_dir_all(src.cache.dir());
        let _ = std::fs::remove_dir_all(dst.cache.dir());
    }
}
