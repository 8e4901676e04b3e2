//! The campaign CLI.
//!
//! ```text
//! hdsmt-campaign run    <spec.(toml|json)> [--workers N] [--cache DIR] [--remote ADDR]
//! hdsmt-campaign status [<spec>]           [--cache DIR] [--remote ADDR]
//! hdsmt-campaign export <spec> [--out DIR] [--cache DIR] [--remote ADDR]
//! hdsmt-campaign serve  [--addr A] [--cache DIR] [--workers N]
//!                       [--queue-cap N] [--shard I/N] [--addr-file PATH]
//!                       [--cell-deadline-ms N] [--cell-retries N]
//!                       [--durable] [--no-journal]
//! hdsmt-campaign fsck   [--cache DIR] [--tmp-age-secs N] [--gc]
//!                       [--gc-age-secs N]
//! ```
//!
//! `run` executes the campaign (cache-first) and prints the summary;
//! `status` reports how much of the matrix is already cached without
//! simulating anything; `export` runs (fully cached after a prior `run`)
//! and writes `campaign.json`, `cells.csv`, and `summary.txt`; `serve`
//! runs the sweep-service daemon (see `hdsmt_campaign::serve`); `fsck`
//! verifies and repairs a cache tree — scrub + quarantine, orphaned-tmp
//! reaping, a pending-accept count, quarantine GC — and prints a
//! machine-readable JSON report (see `hdsmt_campaign::fsck`).
//!
//! `serve` records every accepted campaign as an atomically renamed file
//! under `<cache>/pending/` before acknowledging it and replays
//! unfinished campaigns at startup (`--no-journal` opts out);
//! `--durable` additionally fsyncs every cache entry before publishing
//! it, extending the crash model from process death to host power loss.
//!
//! Without `--workers` (or a spec `workers` field), `run` and `export`
//! simulate on every core, while `serve` keeps two cores for its clients
//! and HTTP acceptor (at least one worker).
//!
//! Every `serve` daemon runs the campaigns it accepts on its own
//! executor; `--shard i/n` gives it one slice of every campaign, so
//! several daemons on one cache directory can split a campaign.
//! `--addr-file` makes the daemon report its bound address through an
//! atomically written file (useful with an ephemeral `--addr` port);
//! `--cell-deadline-ms`/`--cell-retries` arm the per-cell watchdog so a
//! hung simulation is cancelled, retried, and at worst marked
//! failed-with-timeout while the campaign completes around it. See
//! `hdsmt_campaign::serve` for the failure model.
//!
//! With `--remote ADDR`, `run`/`status`/`export` become thin HTTP clients
//! of a `serve` daemon instead of simulating locally: `run` submits the
//! spec and polls to completion, `status` queries `/stats` and the
//! campaign list, `export` fetches all three result formats. The client
//! retries connection refusals and 503s with capped exponential backoff
//! (honoring `Retry-After`), and `--poll-timeout-secs` bounds the
//! submit-and-wait polling loop.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use hdsmt_campaign::cache::write_atomic;
use hdsmt_campaign::job::Watchdog;
use hdsmt_campaign::serve::http::{HttpClient, RetryPolicy};
use hdsmt_campaign::serve::{Server, ServerConfig};
use hdsmt_campaign::{engine, export, CampaignSpec, JobRunner, ResultCache, ShardSpec};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

struct Options {
    spec_path: Option<PathBuf>,
    workers: Option<usize>,
    cache_dir: Option<String>,
    out_dir: PathBuf,
    /// `serve` listen address.
    addr: String,
    /// Thin-client mode: talk to a daemon instead of simulating locally.
    remote: Option<String>,
    queue_cap: usize,
    shard: Option<ShardSpec>,
    /// Report the bound listen address through this file (tmp+rename).
    addr_file: Option<PathBuf>,
    /// Per-cell watchdog soft deadline, in milliseconds.
    cell_deadline_ms: Option<u64>,
    cell_retries: u32,
    /// Total deadline for the thin client's submit-and-wait poll loop.
    poll_timeout_secs: u64,
    /// Fsync cache entries before publishing them (host-crash safety).
    durable: bool,
    /// Disable durable pending accepts in `serve`.
    no_journal: bool,
    /// `fsck`: only reap `*.tmp` files at least this old.
    tmp_age_secs: u64,
    /// `fsck`: remove aged quarantine entries.
    gc: bool,
    /// `fsck`: age threshold for `--gc`.
    gc_age_secs: u64,
}

fn usage() -> String {
    "usage: hdsmt-campaign <run|status|export> <spec.(toml|json)> \
     [--workers N] [--cache DIR] [--out DIR] [--remote ADDR] \
     [--poll-timeout-secs N]\n       \
     hdsmt-campaign serve [--addr A] [--cache DIR] [--workers N] \
     [--queue-cap N] [--shard I/N] \
     [--addr-file PATH] [--cell-deadline-ms N] [--cell-retries N] \
     [--durable] [--no-journal]\n       \
     hdsmt-campaign fsck [--cache DIR] [--tmp-age-secs N] [--gc] \
     [--gc-age-secs N]"
        .to_string()
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        spec_path: None,
        workers: None,
        cache_dir: None,
        out_dir: PathBuf::from("results"),
        addr: "127.0.0.1:8181".to_string(),
        remote: None,
        queue_cap: 64,
        shard: None,
        addr_file: None,
        cell_deadline_ms: None,
        cell_retries: 2,
        poll_timeout_secs: 3600,
        durable: false,
        no_journal: false,
        tmp_age_secs: 15 * 60,
        gc: false,
        gc_age_secs: 7 * 24 * 3600,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                opts.workers = Some(v.parse::<usize>().map_err(|_| "--workers: not a number")?);
            }
            "--cache" => {
                opts.cache_dir = Some(it.next().ok_or("--cache needs a value")?.clone());
            }
            "--out" => {
                opts.out_dir = PathBuf::from(it.next().ok_or("--out needs a value")?);
            }
            "--addr" => {
                opts.addr = it.next().ok_or("--addr needs a value")?.clone();
            }
            "--remote" => {
                opts.remote = Some(it.next().ok_or("--remote needs a value")?.clone());
            }
            "--queue-cap" => {
                let v = it.next().ok_or("--queue-cap needs a value")?;
                opts.queue_cap = v.parse::<usize>().map_err(|_| "--queue-cap: not a number")?;
            }
            "--shard" => {
                let v = it.next().ok_or("--shard needs a value (I/N)")?;
                opts.shard = Some(ShardSpec::parse(v).map_err(|e| e.to_string())?);
            }
            "--addr-file" => {
                opts.addr_file = Some(PathBuf::from(it.next().ok_or("--addr-file needs a value")?));
            }
            "--cell-deadline-ms" => {
                let v = it.next().ok_or("--cell-deadline-ms needs a value")?;
                opts.cell_deadline_ms =
                    Some(v.parse::<u64>().map_err(|_| "--cell-deadline-ms: not a number")?);
            }
            "--cell-retries" => {
                let v = it.next().ok_or("--cell-retries needs a value")?;
                opts.cell_retries = v.parse::<u32>().map_err(|_| "--cell-retries: not a number")?;
            }
            "--poll-timeout-secs" => {
                let v = it.next().ok_or("--poll-timeout-secs needs a value")?;
                opts.poll_timeout_secs =
                    v.parse::<u64>().map_err(|_| "--poll-timeout-secs: not a number")?;
            }
            "--durable" => opts.durable = true,
            "--no-journal" => opts.no_journal = true,
            "--tmp-age-secs" => {
                let v = it.next().ok_or("--tmp-age-secs needs a value")?;
                opts.tmp_age_secs = v.parse::<u64>().map_err(|_| "--tmp-age-secs: not a number")?;
            }
            "--gc" => opts.gc = true,
            "--gc-age-secs" => {
                let v = it.next().ok_or("--gc-age-secs needs a value")?;
                opts.gc_age_secs = v.parse::<u64>().map_err(|_| "--gc-age-secs: not a number")?;
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}\n{}", usage()));
            }
            other => {
                if opts.spec_path.replace(PathBuf::from(other)).is_some() {
                    return Err(format!("more than one spec file given\n{}", usage()));
                }
            }
        }
    }
    Ok(opts)
}

fn spec_path(opts: &Options) -> Result<&PathBuf, String> {
    opts.spec_path.as_ref().ok_or_else(|| format!("missing spec file\n{}", usage()))
}

fn watchdog_of(opts: &Options) -> Option<Watchdog> {
    opts.cell_deadline_ms
        .map(|ms| Watchdog { deadline: Duration::from_millis(ms), retries: opts.cell_retries })
}

fn load(opts: &Options) -> Result<(CampaignSpec, ResultCache), String> {
    let mut spec = CampaignSpec::load(spec_path(opts)?).map_err(|e| e.to_string())?;
    if let Some(w) = opts.workers {
        spec.workers = Some(w as u64);
    }
    if let Some(dir) = &opts.cache_dir {
        spec.cache_dir = Some(dir.clone());
    }
    let cache = engine::open_cache(&spec).map_err(|e| e.to_string())?.with_durable(opts.durable);
    Ok((spec, cache))
}

fn run(args: Vec<String>) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    let opts = parse_options(rest)?;
    match (cmd.as_str(), &opts.remote) {
        ("run", Some(remote)) => remote_run(remote, &opts),
        ("status", Some(remote)) => remote_status(remote),
        ("export", Some(remote)) => remote_export(remote, &opts),
        ("run", None) => {
            let (spec, cache) = load(&opts)?;
            let catalog = engine::catalog_for(&spec);
            let runner = JobRunner::new(spec.workers.unwrap_or(0) as usize, Some(cache.clone()))
                .with_watchdog(watchdog_of(&opts));
            eprintln!(
                "campaign `{}`: {} workers, cache at {}",
                spec.display_name(),
                runner.workers(),
                cache.dir().display()
            );
            let t0 = std::time::Instant::now();
            let result =
                engine::run_campaign_with(&spec, &catalog, &runner).map_err(|e| e.to_string())?;
            eprintln!(
                "finished in {:.1}s: {} cells, {} jobs ({} cache hits, {} simulated)",
                t0.elapsed().as_secs_f64(),
                result.cells.len(),
                result.report.total,
                result.report.cache_hits,
                result.report.simulated,
            );
            if result.failed_cells() > 0 {
                eprintln!(
                    "WARNING: {} cell(s) failed ({} watchdog timeout(s)); see the summary",
                    result.failed_cells(),
                    result.report.timeouts,
                );
            }
            print!("{}", export::summary(&result));
            Ok(())
        }
        ("status", None) => {
            let (spec, cache) = load(&opts)?;
            let catalog = engine::catalog_for(&spec);
            let st = engine::status(&spec, &catalog, &cache).map_err(|e| e.to_string())?;
            println!("campaign `{}` at cache {}", spec.display_name(), cache.dir().display());
            println!("cells:                {}", st.cells);
            println!("search jobs cached:   {}/{}", st.search_cached, st.search_jobs);
            println!("measure jobs cached:  {}/{}", st.measure_cached, st.measure_known);
            if st.measure_pending_search > 0 {
                println!(
                    "oracle measure jobs:  {} (keys depend on search phase)",
                    st.measure_pending_search
                );
            }
            println!("cache entries on disk: {}", cache.len());
            // Rotten entries re-simulate silently on the next run; the
            // count makes that visible here instead of just slow.
            println!("cache corrupt entries: {}", cache.corrupt_entries());
            println!("cache quarantined entries: {}", cache.quarantined_entries());
            if let Some(age) = cache.quarantine_oldest_age() {
                println!("cache quarantine oldest: {}s ago", age.as_secs());
            }
            println!("cache tmp files: {}", cache.tmp_files());
            for (role, n) in hdsmt_campaign::pending::counts(cache.dir()) {
                println!("pending accepts {role}: {n}");
            }
            Ok(())
        }
        ("export", None) => {
            let (spec, cache) = load(&opts)?;
            let catalog = engine::catalog_for(&spec);
            let runner = JobRunner::new(spec.workers.unwrap_or(0) as usize, Some(cache))
                .with_watchdog(watchdog_of(&opts));
            let result =
                engine::run_campaign_with(&spec, &catalog, &runner).map_err(|e| e.to_string())?;
            write_exports(&opts.out_dir, &export_texts(&result))?;
            eprintln!(
                "wrote {} ({} cells; {} cache hits / {} jobs)",
                opts.out_dir.display(),
                result.cells.len(),
                result.report.cache_hits,
                result.report.total,
            );
            print!("{}", export::summary(&result));
            Ok(())
        }
        ("fsck", _) => {
            let cache_dir = opts.cache_dir.clone().unwrap_or_else(|| ".hdsmt-cache".into());
            let fsck_opts = hdsmt_campaign::FsckOptions {
                tmp_age: Duration::from_secs(opts.tmp_age_secs),
                gc: opts.gc,
                gc_age: Duration::from_secs(opts.gc_age_secs),
            };
            let report = hdsmt_campaign::fsck::fsck(std::path::Path::new(&cache_dir), &fsck_opts)
                .map_err(|e| format!("fsck of {cache_dir}: {e}"))?;
            // Machine-readable by contract: stdout is the JSON report,
            // human commentary goes to stderr.
            println!("{}", serde_json::to_string_pretty(&report).map_err(|e| e.0)?);
            if !report.clean {
                eprintln!("fsck: tree NOT clean ({} quarantined)", report.corrupt_quarantined);
            }
            Ok(())
        }
        ("serve", _) => {
            let config = ServerConfig {
                addr: opts.addr.clone(),
                cache_dir: opts.cache_dir.clone().unwrap_or_else(|| ".hdsmt-cache".into()),
                sim_workers: opts.workers.unwrap_or(0),
                queue_cap: opts.queue_cap,
                shard: opts.shard,
                cell_deadline: opts.cell_deadline_ms.map(Duration::from_millis),
                cell_retries: opts.cell_retries,
                journal: !opts.no_journal,
                durable: opts.durable,
                ..ServerConfig::default()
            };
            let cache_dir = config.cache_dir.clone();
            let server =
                Server::start(config).map_err(|e| format!("cannot start on {}: {e}", opts.addr))?;
            // Report the bound (possibly ephemeral) address atomically,
            // so a reader never sees a torn write.
            if let Some(addr_file) = &opts.addr_file {
                write_atomic(addr_file, format!("{}\n", server.addr()).as_bytes(), false)
                    .map_err(|e| format!("cannot write {}: {e}", addr_file.display()))?;
            }
            eprintln!(
                "hdsmt-campaign serve: listening on {} (cache {}, 1 executor{})",
                server.addr(),
                cache_dir,
                match opts.shard {
                    Some(s) => format!(", shard {s}"),
                    None => String::new(),
                }
            );
            server.run();
            eprintln!("hdsmt-campaign serve: drained, exiting");
            Ok(())
        }
        (other, _) => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

// ------------------------------------------------------- remote clients

/// One shared retry policy for every thin-client request: 503s and
/// connection refusals (a daemon restarting) are
/// retried with capped exponential backoff, honoring `Retry-After`.
fn client_policy() -> RetryPolicy {
    RetryPolicy::default()
}

/// `GET` a path and fail on any non-2xx (surfacing the structured error
/// body the daemon returns).
fn remote_get(addr: &str, path: &str) -> Result<String, String> {
    let resp = HttpClient::new(addr)
        .request_retry("GET", path, None, &client_policy())
        .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    if !(200..300).contains(&resp.status) {
        return Err(format!("{addr} answered {} for {path}: {}", resp.status, resp.body));
    }
    Ok(resp.body)
}

/// Submit the spec file and poll until the campaign reaches a terminal
/// phase; returns its id. Polling backs off from 200 ms to 2 s and gives
/// up — naming the campaign, which stays submitted and resumable — after
/// `--poll-timeout-secs`.
fn remote_submit_and_wait(addr: &str, opts: &Options) -> Result<String, String> {
    let path = spec_path(opts)?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let resp = HttpClient::new(addr)
        .request_retry("POST", "/campaigns", Some(&text), &client_policy())
        .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    if resp.status != 202 {
        return Err(format!("{addr} rejected the spec ({}): {}", resp.status, resp.body));
    }
    let snapshot =
        serde_json::from_str_value(&resp.body).map_err(|e| format!("bad submit response: {e}"))?;
    let id =
        snapshot.get("id").and_then(|i| i.as_str()).ok_or("submit response has no id")?.to_string();
    eprintln!("submitted as `{id}`; polling {addr}");
    let deadline = std::time::Instant::now() + Duration::from_secs(opts.poll_timeout_secs.max(1));
    let mut interval = Duration::from_millis(200);
    loop {
        if std::time::Instant::now() >= deadline {
            return Err(format!(
                "campaign `{id}` still not finished after {}s of polling {addr}; it keeps \
                 running server-side — poll `/campaigns/{id}` later or re-run with a larger \
                 --poll-timeout-secs",
                opts.poll_timeout_secs
            ));
        }
        std::thread::sleep(interval);
        // Capped backoff: fast feedback on short campaigns, light load on
        // long ones.
        interval = (interval * 2).min(Duration::from_secs(2));
        let body = remote_get(addr, &format!("/campaigns/{id}"))?;
        let snap =
            serde_json::from_str_value(&body).map_err(|e| format!("bad progress response: {e}"))?;
        let phase = snap.get("status").and_then(|s| s.as_str()).unwrap_or("?").to_string();
        match phase.as_str() {
            "done" => return Ok(id),
            "failed" | "cancelled" => {
                let why = snap
                    .get("error")
                    .and_then(|e| e.as_str())
                    .unwrap_or("no error message")
                    .to_string();
                return Err(format!("campaign `{id}` {phase}: {why}"));
            }
            _ => {}
        }
    }
}

fn remote_run(addr: &str, opts: &Options) -> Result<(), String> {
    let id = remote_submit_and_wait(addr, opts)?;
    print!("{}", remote_get(addr, &format!("/campaigns/{id}/results?format=summary"))?);
    Ok(())
}

fn remote_status(addr: &str) -> Result<(), String> {
    println!("{}", remote_get(addr, "/stats")?);
    println!("{}", remote_get(addr, "/campaigns")?);
    Ok(())
}

fn remote_export(addr: &str, opts: &Options) -> Result<(), String> {
    let id = remote_submit_and_wait(addr, opts)?;
    let json = remote_get(addr, &format!("/campaigns/{id}/results?format=json"))?;
    let csv = remote_get(addr, &format!("/campaigns/{id}/results?format=csv"))?;
    let summary = remote_get(addr, &format!("/campaigns/{id}/results?format=summary"))?;
    write_exports(&opts.out_dir, &ExportTexts { json, csv, summary })?;
    eprintln!("wrote {} (campaign `{id}` from {addr})", opts.out_dir.display());
    Ok(())
}

// ------------------------------------------------------------- exports

struct ExportTexts {
    json: String,
    csv: String,
    summary: String,
}

fn export_texts(result: &hdsmt_campaign::CampaignResult) -> ExportTexts {
    ExportTexts {
        json: export::to_json(result),
        csv: export::to_csv(result),
        summary: export::summary(result),
    }
}

/// Write `campaign.json`, `cells.csv`, `summary.txt` — one layout for the
/// local and remote export paths.
fn write_exports(out_dir: &std::path::Path, texts: &ExportTexts) -> Result<(), String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    for (name, text) in
        [("campaign.json", &texts.json), ("cells.csv", &texts.csv), ("summary.txt", &texts.summary)]
    {
        std::fs::write(out_dir.join(name), text)
            .map_err(|e| format!("cannot write {name}: {e}"))?;
    }
    Ok(())
}
