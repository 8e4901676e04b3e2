//! `serve_warm`: the sweep service with a warm cache. Two keep-alive
//! clients run a closed loop of cache reads, result exports, fully
//! cached resubmits and replication puts against in-process daemons; no
//! simulation runs while it is measured.

use std::path::{Path, PathBuf};
use std::time::Instant;

use hdsmt_campaign::engine::{self, run_campaign_with};
use hdsmt_campaign::serve::http::{HttpClient, HttpResponse};
use hdsmt_campaign::serve::{Server, ServerConfig};
use hdsmt_campaign::{export, CampaignSpec, JobRunner, ResultCache};

use crate::probe;
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{fastest, median, tail};
use crate::Args;

const SPEC: &str = include_str!("../specs/serve_warm.toml");
/// Client rounds each client always completes, however short `--seconds`.
const MIN_ROUNDS: usize = 3;
/// Result exports fetched per client round.
const RESULTS_PER_ROUND: usize = 2;
/// Replication puts per client round.
const PUTS_PER_ROUND: usize = 8;

/// Where a cache rooted at `dir` keeps the entry for `key`.
fn entry_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(&key[..2]).join(format!("{key}.json"))
}

/// A populated daemon `a`, an empty replication target `b`, and what the
/// clients check their responses against.
pub struct Daemons {
    a: Server,
    b: Server,
    dirs: [PathBuf; 2],
    spec_json: String,
    campaign: String,
    /// Cache key → the verbatim on-disk entry.
    entries: Vec<(String, String)>,
    /// The results export of a local engine run over the same cache.
    export: String,
    cell_lines: Vec<String>,
}

impl Daemons {
    pub fn shutdown(self) {
        self.a.shutdown_and_join();
        self.b.shutdown_and_join();
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn start(dir: &Path) -> Result<Server, String> {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: dir.to_string_lossy().into_owned(),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("daemon failed to start: {e}"))
}

fn field<'a>(body: &'a serde_json::Value, key: &str) -> Option<&'a str> {
    body.get(key).and_then(|v| v.as_str())
}

/// POST the spec and poll until the campaign is done; returns its id and
/// the accept and completion latencies in ms.
fn resubmit(s: &mut Session, http: &mut HttpClient, spec_json: &str) -> Option<(String, f64, f64)> {
    let t0 = Instant::now();
    let span = s.tracer.as_mut().map(|t| t.open("serve.resubmit"));
    let accepted = submit_and_wait(s, http, spec_json, t0);
    if let (Some(t), Some(span)) = (s.tracer.as_mut(), span) {
        t.close(span);
    }
    let (id, accept_ms) = accepted?;
    Some((id, accept_ms, t0.elapsed().as_secs_f64() * 1e3))
}

fn submit_and_wait(
    s: &mut Session,
    http: &mut HttpClient,
    spec_json: &str,
    t0: Instant,
) -> Option<(String, f64)> {
    let accepted = s.request(http, "serve.accept", "POST", "/campaigns", Some(spec_json), 202)?;
    let accept_ms = t0.elapsed().as_secs_f64() * 1e3;
    let id = field(&serde_json::from_str_value(&accepted.body).ok()?, "id")?.to_string();
    let path = format!("/campaigns/{id}");
    loop {
        let snap = s.request(http, "serve.poll", "GET", &path, None, 200)?;
        match field(&serde_json::from_str_value(&snap.body).ok()?, "status") {
            Some("done") => return Some((id, accept_ms)),
            Some("queued" | "running") => std::thread::sleep(std::time::Duration::from_millis(1)),
            other => {
                s.check(false, || format!("resubmitted campaign {id} ended {other:?}"));
                return None;
            }
        }
    }
}

pub fn setup(seed: u64, dir: &Path) -> Result<Daemons, String> {
    let dirs = [dir.join("a"), dir.join("b")];
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    let mut spec = CampaignSpec::parse(SPEC).expect("committed serve spec parses");
    spec.seed = Some(seed);
    let spec_json = serde_json::to_string(&spec).expect("spec serializes");
    spec.cache_dir = Some(dirs[0].to_string_lossy().into_owned());
    let catalog = engine::catalog_for(&spec);
    let cache = ResultCache::open(&dirs[0]).map_err(|e| format!("cannot open cache: {e}"))?;
    let populate = run_campaign_with(&spec, &catalog, &JobRunner::new(0, Some(cache.clone())))
        .map_err(|e| format!("populating campaign failed: {e}"))?;
    let cell_lines: Vec<String> = populate.cells.iter().map(crate::sweep::result_line).collect();
    let a = start(&dirs[0])?;
    let b = start(&dirs[1])?;

    let mut http = HttpClient::new(&a.addr().to_string());
    let mut s = Session::new(None);
    let (campaign, _, _) = resubmit(&mut s, &mut http, &spec_json)
        .ok_or_else(|| "the warm-up submission failed".to_string())?;
    let export = export::to_json(
        &run_campaign_with(&spec, &catalog, &JobRunner::new(0, Some(cache.clone())))
            .map_err(|e| format!("local export run failed: {e}"))?,
    );
    let entries = cache
        .manifest(None)
        .into_iter()
        .map(|(key, _)| {
            let path = entry_path(&dirs[0], &key);
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path:?}: {e}"))?;
            Ok((key, text))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Daemons { a, b, dirs, spec_json, campaign, entries, export, cell_lines })
}

/// One client's counters, latencies and (in a traced run) spans.
struct Session {
    tracer: Option<Tracer>,
    requests: u64,
    failed: u64,
    non_2xx: u64,
    retries_503: u64,
    mismatches: u64,
    get_ms: Vec<f64>,
    accept_ms: Vec<f64>,
    resubmit_ms: Vec<f64>,
    round_s: Vec<f64>,
}

impl Session {
    fn new(tracer: Option<Tracer>) -> Self {
        Session {
            tracer,
            requests: 0,
            failed: 0,
            non_2xx: 0,
            retries_503: 0,
            mismatches: 0,
            get_ms: Vec::new(),
            accept_ms: Vec::new(),
            resubmit_ms: Vec::new(),
            round_s: Vec::new(),
        }
    }

    /// Send one request (inside span `name` when tracing); `None` unless
    /// it completed with status `want`.
    fn request(
        &mut self,
        http: &mut HttpClient,
        name: &'static str,
        method: &str,
        path: &str,
        body: Option<&str>,
        want: u16,
    ) -> Option<HttpResponse> {
        self.requests += 1;
        let resp = match self.tracer.as_mut() {
            Some(t) => t.span(name, || http.request(method, path, body)),
            None => http.request(method, path, body),
        };
        match resp {
            Ok(r) if r.status == want => Some(r),
            Ok(r) => {
                self.failed += 1;
                self.non_2xx += u64::from(!(200..300).contains(&r.status));
                self.retries_503 += u64::from(r.status == 503);
                eprintln!("{method} {path}: status {} ({})", r.status, r.body);
                None
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("{method} {path}: {e}");
                None
            }
        }
    }

    /// A timed GET whose body must equal `expected`.
    fn get_checked(
        &mut self,
        http: &mut HttpClient,
        name: &'static str,
        path: &str,
        expected: &str,
    ) {
        let t0 = Instant::now();
        if let Some(r) = self.request(http, name, "GET", path, None, 200) {
            self.get_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            self.check(r.body == expected, || {
                format!("GET {path}: body differs from the reference")
            });
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches += 1;
            eprintln!("output check failed: {}", what());
        }
    }
}

/// One client's closed loop until `seconds` have passed since `start`.
/// Client `c` of `n` starts its key sweep at its own offset and
/// replicates its own share of the keys into `b`. After each round, off
/// the clock, it removes the entries it landed there, so every put of the
/// next round lands a new entry again.
fn client(
    d: &Daemons,
    c: usize,
    n: usize,
    seconds: f64,
    start: Instant,
    tracer: Option<Tracer>,
) -> Session {
    let mut s = Session::new(tracer);
    let mut a = HttpClient::new(&d.a.addr().to_string());
    let mut b = HttpClient::new(&d.b.addr().to_string());
    let keys = d.entries.len();
    let results = format!("/campaigns/{}/results", d.campaign);
    let share: Vec<&(String, String)> = d.entries.iter().skip(c).step_by(n).collect();
    let mut put_cursor = 0;
    while s.round_s.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        s.request(&mut a, "serve.healthz", "GET", "/healthz", None, 200);
        for i in 0..keys {
            let (key, text) = &d.entries[(i + c * keys / n) % keys];
            s.get_checked(&mut a, "serve.cell", &format!("/cells/{key}"), text);
        }
        for _ in 0..RESULTS_PER_ROUND {
            s.get_checked(&mut a, "serve.results", &results, &d.export);
        }
        if let Some((_, accept, done)) = resubmit(&mut s, &mut a, &d.spec_json) {
            s.accept_ms.push(accept);
            s.resubmit_ms.push(done);
        }
        let mut landed = Vec::new();
        for _ in 0..PUTS_PER_ROUND.min(share.len()) {
            let (key, text) = share[put_cursor % share.len()];
            put_cursor += 1;
            let sum = hdsmt_campaign::hash::sha256_hex(text.as_bytes());
            let path = format!("/cells/{key}?sha256={sum}");
            if let Some(r) = s.request(&mut b, "serve.replicate", "PUT", &path, Some(text), 200) {
                s.check(r.body.contains("\"stored\""), || {
                    format!("PUT {key} landed no new entry: {}", r.body)
                });
            }
            landed.push(key);
        }
        s.round_s.push(t0.elapsed().as_secs_f64());
        for key in landed {
            let _ = std::fs::remove_file(entry_path(&d.dirs[1], key));
        }
    }
    s
}

/// Both clients for `seconds`; returns their sessions and the wall time.
fn session(d: &Daemons, seconds: f64, traced: Option<Instant>) -> (Vec<Session>, f64) {
    let n = std::thread::available_parallelism().map_or(1, |p| p.get()).min(2);
    let start = Instant::now();
    let sessions = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|c| {
                let tracer = traced.map(|epoch| Tracer::new(epoch, c as u32));
                scope.spawn(move || client(d, c, n, seconds, start, tracer))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    (sessions, start.elapsed().as_secs_f64())
}

fn fold(out: &mut Outcome, sessions: &[Session]) {
    for s in sessions {
        out.attempted += s.requests;
        out.failed += s.failed + s.mismatches;
        out.correct &= s.failed == 0 && s.mismatches == 0;
    }
}

/// The fastest client round of any client.
fn round_s(sessions: &[Session]) -> f64 {
    fastest(&gather(sessions, |s| &s.round_s)).unwrap_or(0.0)
}

fn gather(sessions: &[Session], pick: impl Fn(&Session) -> &Vec<f64>) -> Vec<f64> {
    sessions.iter().flat_map(|s| pick(s).iter().copied()).collect()
}

/// The untraced run: set-ups, then the closed loop.
pub fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let setup_s = crate::setup_s(args, Vec::new())?;
    let d = setup(args.seed, &scratch.join("serve"))?;
    crate::check_digest(&mut out, "serve_warm", args.seed, &d.cell_lines);
    let (sessions, wall) = session(&d, args.seconds, None);
    d.shutdown();
    fold(&mut out, &sessions);

    let requests: u64 = sessions.iter().map(|s| s.requests - s.failed).sum();
    let get_ms = gather(&sessions, |s| &s.get_ms);
    out.set("setup_s", setup_s);
    out.set("wall_s", round_s(&sessions));
    out.set("throughput", requests as f64 / wall);
    out.set("peak_rss_mb", probe::peak_rss_mb());
    out.notes.push(format!(
        "req_per_s = {:.1} 1/s ({requests} requests, {} clients)",
        requests as f64 / wall,
        sessions.len()
    ));
    out.notes.push(format!(
        "req_p50_ms = {:.4} ms over {} GETs",
        median(&get_ms).unwrap_or(0.0),
        get_ms.len()
    ));
    if let Some(t) = tail(&get_ms) {
        out.notes.push(format!("req_p{}_ms = {:.4} ms over {} GETs", t.pct, t.value, t.samples));
    }
    let resubmit = gather(&sessions, |s| &s.resubmit_ms);
    out.notes.push(format!(
        "resubmit_p50_ms = {:.3} ms over {} resubmits (accept p50 {:.3} ms)",
        median(&resubmit).unwrap_or(0.0),
        resubmit.len(),
        median(&gather(&sessions, |s| &s.accept_ms)).unwrap_or(0.0)
    ));
    Ok(out)
}

/// Durations (not self times) in ms of the spans called `name`.
fn durations_ms(t: &Tracer, name: &str) -> Vec<f64> {
    t.spans().iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e6).collect()
}

/// The traced part. For `serve_warm` itself (`own`) an untraced session
/// runs first and the traced/untraced ratio of median client rounds is
/// returned; other workloads run a short traced session only, so every
/// traced run reports the service layers.
pub fn traced(
    args: &Args,
    scratch: &Path,
    t: &mut Tracer,
    out: &mut Outcome,
    own: bool,
) -> Result<Option<f64>, String> {
    let d = setup(args.seed, &scratch.join("serve-traced"))?;
    let seconds = if own { args.seconds / 2.0 } else { 1.0 };
    let untraced = own.then(|| session(&d, seconds, None).0);
    let (sessions, _) = session(&d, seconds, Some(t.epoch()));
    let stats = HttpClient::new(&d.a.addr().to_string())
        .request("GET", "/stats", None)
        .map_err(|e| format!("GET /stats: {e}"))?;
    d.shutdown();
    fold(out, &sessions);

    if let Some(u) = &untraced {
        fold(out, u);
    }
    let overhead = untraced.as_ref().map(|u| round_s(&sessions) / round_s(u));
    let (mut non_2xx, mut retries_503) = (0, 0);
    for s in sessions {
        non_2xx += s.non_2xx;
        retries_503 += s.retries_503;
        if let Some(tracer) = s.tracer {
            t.absorb(tracer);
        }
    }
    let p50 = |name: &str| median(&durations_ms(t, name)).unwrap_or(0.0);
    out.set("serve.healthz_p50_us", p50("serve.healthz") * 1e3);
    out.set("serve.cell_p50_us", p50("serve.cell") * 1e3);
    out.set("serve.results_p50_ms", p50("serve.results"));
    out.set("serve.accept_p50_ms", p50("serve.accept"));
    out.set("serve.resubmit_p50_ms", p50("serve.resubmit"));
    out.set("serve.replicate_p50_us", p50("serve.replicate") * 1e3);
    let mut gets = durations_ms(t, "serve.cell");
    gets.extend(durations_ms(t, "serve.results"));
    out.set("serve.get_p50_ms", median(&gets).unwrap_or(0.0));
    let tail = tail(&gets);
    out.set("serve.get_tail_ms", tail.map_or(0.0, |x| x.value));
    out.set("serve.get_tail_pct", tail.map_or(0.0, |x| x.pct as f64));
    out.set("serve.get_samples", gets.len() as f64);
    let cache = serde_json::from_str_value(&stats.body)
        .ok()
        .and_then(|v| v.get("cache").cloned())
        .ok_or_else(|| "GET /stats has no cache counters".to_string())?;
    let count = |k: &str| cache.get(k).and_then(|v| v.as_u64()).unwrap_or(0) as f64;
    out.set("serve.cache_hit_ratio", count("hits") / (count("hits") + count("misses")).max(1.0));
    out.set("serve.retries_503", retries_503 as f64);
    out.set("serve.non_2xx", non_2xx as f64);
    Ok(overhead)
}
