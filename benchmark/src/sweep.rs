//! `sweep_cold`: the committed sweep spec through the campaign engine on
//! an empty cache, each round in a fresh process so nothing the engine
//! memoizes per process (the heuristic's miss profile, translated RV
//! images) survives between rounds — what `hdsmt-campaign run` pays.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::Instant;

use hdsmt_campaign::engine::{self, CampaignProgress};
use hdsmt_campaign::{
    best_worst, expand, Cell, CellResult, JobOutcome, JobSpec, Policy, ResultCache, SimResult,
};
use hdsmt_core::mapping::{random_mapping, round_robin_mapping};
use hdsmt_core::{enumerate_mappings, heuristic_mapping, MissProfile, ThreadSpec};
use hdsmt_pipeline::MicroArch;

use crate::probe::{self, Tally};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{fastest, median, tail};
use crate::Args;

/// Hidden first argument that turns the benchmark binary into one sweep
/// round: `<binary> --sweep-round <spec.json> <cache-dir>`.
pub const CHILD_FLAG: &str = "--sweep-round";

const SPEC: &str = include_str!("../specs/sweep_cold.toml");
/// Rounds a run always completes, however short `--seconds`.
const MIN_ROUNDS: usize = 3;

/// What one round reports back to the parent (one JSON line).
#[derive(serde::Serialize, serde::Deserialize)]
pub struct RoundReport {
    /// Engine wall time inside the child.
    pub engine_s: f64,
    pub cpu_s: f64,
    pub workers: u64,
    pub total: u64,
    pub cache_hits: u64,
    pub failed: u64,
    pub retries: u64,
    pub failed_cells: u64,
    pub peak_rss_mb: f64,
    pub search_s: f64,
    pub measure_s: f64,
    /// Host ms of each cell's measure job, from its start to its end.
    pub cell_ms: Vec<f64>,
    /// One [`cell_line`] per cell, in matrix order.
    pub cells: Vec<String>,
}

/// The digested output of one cell: its identity, then mapping, IPC
/// bits, cycles and retired instructions.
fn cell_line(cell: [&str; 3], mapping: &[u8], ipc: f64, cycles: u64, retired: u64) -> String {
    let [arch, workload, policy] = cell;
    format!("{arch}|{workload}|{policy}|{mapping:?}|{:016x}|{cycles}|{retired}", ipc.to_bits())
}

pub fn result_line(c: &CellResult) -> String {
    cell_line([&c.arch, &c.workload, &c.policy], &c.mapping, c.ipc, c.cycles, c.retired)
}

/// The committed spec with the run's seed.
pub fn spec(seed: u64) -> hdsmt_campaign::CampaignSpec {
    let mut spec = hdsmt_campaign::CampaignSpec::parse(SPEC).expect("committed sweep spec parses");
    spec.seed = Some(seed);
    spec
}

/// Set-up: build the spec, expand it, validate every job it implies and
/// synthesize each program once, then write the spec for the rounds.
pub fn setup(seed: u64, spec_path: &Path) {
    let spec = spec(seed);
    let catalog = engine::catalog_for(&spec);
    let cells = expand(&spec, &catalog).expect("committed sweep spec expands");
    let budget = spec.budget();
    let mut benches: Vec<&str> = Vec::new();
    for cell in &cells {
        let arch = MicroArch::parse(&cell.arch).expect("expanded arch parses");
        let mappings = if cell.policy.is_oracle() {
            enumerate_mappings(&arch, cell.workload.threads())
        } else {
            vec![round_robin_mapping(&arch, cell.workload.threads())]
        };
        for m in mappings {
            cell.search_job(m.clone(), &budget).check().expect("search job validates");
            cell.job(m, &budget).check().expect("measure job validates");
        }
        benches.extend(cell.workload.benchmarks.iter().map(String::as_str));
    }
    benches.sort_unstable();
    benches.dedup();
    for b in benches {
        std::hint::black_box(
            ThreadSpec::try_for_benchmark(b, seed).expect("benchmark synthesizes"),
        );
    }
    let json = serde_json::to_string(&spec).expect("spec serializes");
    std::fs::write(spec_path, json).expect("scratch directory is writable");
}

/// Phase and per-cell timestamps from the engine's progress hooks.
struct PhaseClock {
    t0: Instant,
    inner: Mutex<Phases>,
}

#[derive(Default)]
struct Phases {
    search_planned: f64,
    last_search: Option<f64>,
    started: Vec<Option<f64>>,
    finished: Vec<Option<f64>>,
}

impl PhaseClock {
    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Phases> {
        self.inner.lock().expect("phase clock lock is never held across a panic")
    }
}

impl CampaignProgress for PhaseClock {
    fn cells_expanded(&self, cells: &[Cell]) {
        let mut p = self.lock();
        p.started = vec![None; cells.len()];
        p.finished = vec![None; cells.len()];
    }
    fn search_planned(&self, _jobs: usize) {
        let now = self.now();
        self.lock().search_planned = now;
    }
    fn search_job_finished(&self, _outcome: JobOutcome) {
        let now = self.now();
        self.lock().last_search = Some(now);
    }
    fn cell_started(&self, cell: usize) {
        let now = self.now();
        self.lock().started[cell] = Some(now);
    }
    fn cell_finished(&self, cell: usize, _outcome: JobOutcome) {
        let now = self.now();
        self.lock().finished[cell] = Some(now);
    }
}

/// The child side of a round: one engine run, reported as a JSON line.
/// `workers` stays unset in the spec, so the engine picks its default.
pub fn child_main(args: &[String]) -> i32 {
    let [spec_path, cache_dir] = args else {
        eprintln!("usage: {CHILD_FLAG} <spec.json> <cache-dir>");
        return 2;
    };
    let text = std::fs::read_to_string(spec_path).expect("round spec is readable");
    let mut spec = hdsmt_campaign::CampaignSpec::parse(&text).expect("round spec parses");
    spec.cache_dir = Some(cache_dir.clone());
    let catalog = engine::catalog_for(&spec);
    let clock = PhaseClock { t0: Instant::now(), inner: Mutex::default() };
    let cpu0 = probe::cpu_seconds();
    let runner = engine::runner_for(&spec).expect("round cache opens");
    // `run_campaign_with` is this call with no shard and no observer; the
    // observer only reads the clock.
    let result = engine::run_campaign_observed(&spec, &catalog, &runner, None, &clock)
        .expect("sweep campaign runs");
    let engine_s = clock.now();
    let cpu_s = probe::cpu_seconds() - cpu0;
    let p = clock.lock();
    let search_end = p.last_search.unwrap_or(p.search_planned);
    let measure_end = p.finished.iter().flatten().fold(search_end, |a, &b| a.max(b));
    let report = RoundReport {
        engine_s,
        cpu_s,
        workers: runner.workers() as u64,
        total: result.report.total as u64,
        cache_hits: result.report.cache_hits as u64,
        failed: result.report.failed as u64,
        retries: result.report.retries as u64,
        failed_cells: result.failed_cells() as u64,
        peak_rss_mb: probe::peak_rss_mb(),
        search_s: search_end - p.search_planned,
        measure_s: measure_end - search_end,
        cell_ms: p
            .started
            .iter()
            .zip(&p.finished)
            .filter_map(|(s, f)| Some((f.as_ref()? - s.as_ref()?) * 1e3))
            .collect(),
        cells: result.cells.iter().map(result_line).collect(),
    };
    println!("{}", serde_json::to_string(&report).expect("round report serializes"));
    0
}

/// Run one round in a child process; returns its report and the child's
/// whole lifetime in seconds.
fn round(spec_path: &Path, cache_dir: &Path) -> Result<(RoundReport, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let t0 = Instant::now();
    let output = Command::new(exe)
        .arg(CHILD_FLAG)
        .arg(spec_path)
        .arg(cache_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a sweep round: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(cache_dir);
    if !output.status.success() {
        return Err(format!("sweep round exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let report = serde_json::from_str(line).map_err(|e| format!("bad round report: {e}"))?;
    Ok((report, wall))
}

/// Fold one round's outcome into `out`, checking its cells against the
/// reference round (and the committed digest on the first round).
fn check_round(
    out: &mut Outcome,
    args: &Args,
    rep: &RoundReport,
    reference: &mut Option<Vec<String>>,
) {
    out.attempted += rep.total;
    out.failed += rep.failed + rep.failed_cells;
    out.correct &= rep.failed == 0 && rep.failed_cells == 0;
    match reference {
        None => {
            crate::check_digest(out, "sweep_cold", args.seed, &rep.cells);
            *reference = Some(rep.cells.clone());
        }
        Some(want) => {
            out.check(want.len() == rep.cells.len(), || "sweep rounds differ in cell count".into());
            for (w, g) in want.iter().zip(&rep.cells) {
                out.check(w == g, || format!("sweep cell differs between rounds: {w} vs {g}"));
            }
        }
    }
}

/// The untraced run: cold rounds until `--seconds` have elapsed, with one
/// set-up sample after each.
pub fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let spec_path = scratch.join("sweep_cold.json");
    setup(args.seed, &spec_path);

    let mut setups = Vec::new();

    let (mut wall, mut cell_ms, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference = None;
    let (mut workers, mut jobs) = (0, 0);
    let start = Instant::now();
    while wall.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        let (rep, lifetime) = round(&spec_path, &scratch.join(format!("sweep-{}", wall.len())))?;
        check_round(&mut out, args, &rep, &mut reference);
        eprintln!("sweep_cold round {}: {lifetime:.4} s", wall.len() + 1);
        wall.push(lifetime);
        cell_ms.extend_from_slice(&rep.cell_ms);
        rss.push(rep.peak_rss_mb);
        (workers, jobs) = (rep.workers, rep.total);
        setups.push(crate::setup_sample(args)?);
    }

    // Every round runs the same jobs, so the rate follows from the round time.
    let round_s = fastest(&wall).unwrap_or(0.0);
    let jobs_per_s = jobs as f64 / round_s;
    out.set("setup_s", crate::setup_s(args, setups)?);
    out.set("wall_s", round_s);
    out.set("throughput", jobs_per_s);
    out.set("peak_rss_mb", median(&rss).unwrap_or(0.0));
    out.notes.push(format!(
        "jobs_per_s = {jobs_per_s:.1} 1/s ({} cold rounds of {} cells and {jobs} jobs, \
         engine workers {workers})",
        wall.len(),
        reference.map_or(0, |r| r.len())
    ));
    out.notes.push(format!(
        "cell latency p50 = {:.3} ms over {} measure jobs",
        median(&cell_ms).unwrap_or(0.0),
        cell_ms.len()
    ));
    if let Some(t) = tail(&cell_ms) {
        out.notes.push(format!(
            "cell latency p{} = {:.3} ms over {} measure jobs",
            t.pct, t.value, t.samples
        ));
    }
    Ok(out)
}

/// Run `job` the way the engine's runner does, one span per layer call:
/// key, cache probe, and on a miss `check` + thread synthesis +
/// `Processor::new` + `run` + cache put.
fn traced_job(t: &mut Tracer, cache: &ResultCache, job: &JobSpec, tally: &mut Tally) -> SimResult {
    let span = t.open("campaign.job");
    let (key, descriptor) = t.span("campaign.cache.key", || {
        let descriptor = job.descriptor();
        (ResultCache::key_for(&descriptor), descriptor)
    });
    let (hit, probe_id) = t.time("campaign.cache.get", || cache.get(&key));
    let result = match hit {
        Some(hit) => {
            t.rename(probe_id, "campaign.cache.get_hit");
            hit
        }
        None => {
            t.rename(probe_id, "campaign.cache.get_miss");
            let cfg = t.span("campaign.job.check", || job.check()).expect("job validates");
            let threads: Vec<(&str, u64)> =
                job.threads.iter().map(|th| (th.bench.as_str(), th.seed)).collect();
            let run = probe::traced_sim(t, cfg, &threads, &job.mapping);
            tally.add(&run);
            t.span("campaign.cache.put", || cache.put(&key, &descriptor, &run.result))
                .expect("cache put succeeds");
            run.result
        }
    };
    t.close(span);
    result
}

/// The mappings of one oracle search sweep and their search-run IPCs.
type Sweep = (Vec<Vec<u8>>, Vec<f64>);

/// The engine's phases, driven single-threaded through public calls:
/// expand, the miss profile, the oracle search sweeps, the static
/// mappings, then one measure job per cell. Returns the cell lines, the
/// jobs run, and their results.
fn decompose(
    spec: &hdsmt_campaign::CampaignSpec,
    cache: &ResultCache,
    t: &mut Tracer,
    tally: &mut Tally,
) -> (Vec<String>, Vec<JobSpec>, Vec<SimResult>) {
    let catalog = engine::catalog_for(spec);
    let cells = t.span("campaign.expand", || expand(spec, &catalog)).expect("spec expands");
    let budget = spec.budget();
    let archs: HashMap<&str, MicroArch> = cells
        .iter()
        .map(|c| (c.arch.as_str(), MicroArch::parse(&c.arch).expect("expanded arch parses")))
        .collect();
    let heur = |c: &&Cell| c.policy == Policy::Heur;
    let profile = cells.iter().any(|c| heur(&c)).then(|| {
        let with_rv = cells.iter().filter(heur).any(|c| {
            c.workload.benchmarks.iter().any(|b| b.starts_with(hdsmt_core::RV_BENCH_PREFIX))
        });
        let len = spec.profile_insts.unwrap_or(300_000);
        t.span("campaign.profile", || {
            let base = MissProfile::build_with_len(len);
            if with_rv {
                base.with_rv_programs(len)
            } else {
                base
            }
        })
    });

    let mut jobs = Vec::new();
    let mut results = Vec::new();
    let mut run = |t: &mut Tracer, job: JobSpec, tally: &mut Tally| {
        let r = traced_job(t, cache, &job, tally);
        jobs.push(job);
        results.push(r.clone());
        r
    };

    // Oracle search: one sweep per distinct (arch, workload).
    let mut sweep_of: HashMap<(&str, &str), Sweep> = HashMap::new();
    for cell in cells.iter().filter(|c| c.policy.is_oracle()) {
        let pair = (cell.arch.as_str(), cell.workload.id.as_str());
        if sweep_of.contains_key(&pair) {
            continue;
        }
        let arch = &archs[cell.arch.as_str()];
        let mappings =
            t.span("campaign.enumerate", || enumerate_mappings(arch, cell.workload.threads()));
        let scores: Vec<f64> = mappings
            .iter()
            .map(|m| run(t, cell.search_job(m.clone(), &budget), tally).ipc())
            .collect();
        sweep_of.insert(pair, (mappings, scores));
    }
    let chosen: Vec<Vec<u8>> = cells
        .iter()
        .map(|cell| {
            let arch = &archs[cell.arch.as_str()];
            let n = cell.workload.threads();
            match &cell.policy {
                Policy::Best | Policy::Worst => {
                    let (mappings, scores) =
                        &sweep_of[&(cell.arch.as_str(), cell.workload.id.as_str())];
                    let (bi, wi) = best_worst(mappings, scores);
                    mappings[if cell.policy == Policy::Best { bi } else { wi }].clone()
                }
                Policy::Heur => {
                    let benches: Vec<&str> =
                        cell.workload.benchmarks.iter().map(String::as_str).collect();
                    let profile = profile.as_ref().expect("heur cells build the profile");
                    t.span("campaign.heuristic", || heuristic_mapping(arch, &benches, profile))
                }
                Policy::RoundRobin => round_robin_mapping(arch, n),
                Policy::Random(seed) => random_mapping(arch, n, *seed),
            }
        })
        .collect();

    // Measure: one full-length job per cell.
    let mut lines = Vec::new();
    for (cell, mapping) in cells.iter().zip(chosen) {
        let r = run(t, cell.job(mapping.clone(), &budget), tally);
        let id = [cell.arch.as_str(), cell.workload.id.as_str(), &cell.policy.label()];
        lines.push(cell_line(id, &mapping, r.ipc(), r.stats.cycles, r.stats.retired));
    }
    (lines, jobs, results)
}

/// The traced part: an untraced cold round for reference (engine phases,
/// scheduling, failures), then the single-threaded decomposition, whose
/// cells must match the round's exactly. Returns the decomposition's
/// wall time over that of the engine on one worker, as the decomposition
/// runs.
pub fn traced(
    args: &Args,
    scratch: &Path,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Result<f64, String> {
    let spec_path = scratch.join("sweep_cold.json");
    setup(args.seed, &spec_path);
    let (rep, _) = round(&spec_path, &scratch.join("sweep-reference"))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    out.set("campaign.search_s", rep.search_s);
    out.set("campaign.measure_s", rep.measure_s);
    out.set("campaign.sched.workers", rep.workers as f64);
    out.set("campaign.sched.cpu_util", rep.cpu_s / (rep.engine_s * nproc));
    out.set("campaign.jobs_in_run_hits", rep.cache_hits as f64);
    out.set("campaign.failed", (rep.failed + rep.failed_cells) as f64);
    out.set("campaign.retries", rep.retries as f64);
    let mut reference = None;
    check_round(out, args, &rep, &mut reference);
    let one_worker_s = if rep.workers == 1 {
        rep.engine_s
    } else {
        let mut one = spec(args.seed);
        one.workers = Some(1);
        let path = scratch.join("sweep_cold_1w.json");
        std::fs::write(&path, serde_json::to_string(&one).expect("spec serializes"))
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        let (rep, _) = round(&path, &scratch.join("sweep-reference-1w"))?;
        check_round(out, args, &rep, &mut reference);
        rep.engine_s
    };

    let cache_dir: PathBuf = scratch.join("sweep-traced");
    let cache =
        ResultCache::open(&cache_dir).map_err(|e| format!("cannot open trace cache: {e}"))?;
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let (lines, jobs, results) = decompose(&spec(args.seed), &cache, t, &mut tally);
    let overhead = t0.elapsed().as_secs_f64() / one_worker_s;
    out.attempted += jobs.len() as u64;
    out.check(lines == rep.cells, || "traced sweep cells differ from the engine's".into());

    // Warm probes: every key again, now a hit.
    for job in &jobs {
        let key = job.key();
        let (hit, id) = t.time("campaign.cache.get", || cache.get(&key));
        t.rename(
            id,
            if hit.is_some() { "campaign.cache.get_hit" } else { "campaign.cache.get_miss" },
        );
        out.check(hit.is_some(), || format!("cached job {key} missing on the warm probe"));
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    let by_name = t.self_times_by_name();
    let ms = |name: &str| by_name.get(name).map_or(0, |v| v.iter().sum::<u64>()) as f64 / 1e6;
    out.set("campaign.expand_ms", ms("campaign.expand"));
    out.set("campaign.profile_ms", ms("campaign.profile"));
    for (metric, span) in [
        ("campaign.cache.key_us", "campaign.cache.key"),
        ("campaign.cache.get_hit_us", "campaign.cache.get_hit"),
        ("campaign.cache.get_miss_us", "campaign.cache.get_miss"),
        ("campaign.cache.put_us", "campaign.cache.put"),
    ] {
        out.set(metric, probe::span_median_us(t, span));
    }
    tally.report(t, out);
    probe::json_round_trips(t, &results, out);
    out.notes.push(format!(
        "traced sweep: {} jobs decomposed, engine round {:.3} s on {} worker(s)",
        jobs.len(),
        rep.engine_s,
        rep.workers
    ));
    Ok(overhead)
}

/// Distinct benchmarks of the sweep spec (inputs of the trace probe).
pub fn benches(seed: u64) -> Vec<String> {
    let spec = spec(seed);
    let cells = expand(&spec, &engine::catalog_for(&spec)).expect("sweep spec expands");
    let mut v: Vec<String> = cells.iter().flat_map(|c| c.workload.benchmarks.clone()).collect();
    v.sort();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced decomposition of a small sweep is deterministic and
    /// reproduces the engine's cells exactly.
    #[test]
    fn decomposition_matches_the_engine_and_repeats() {
        let spec = hdsmt_campaign::CampaignSpec::parse(
            "archs = [\"M8\", \"2M4+2M2\"]\nworkloads = [\"2W4\"]\n\
             policies = [\"best\", \"heur\", \"rr\"]\nprofile_insts = 2000\n\
             [budget]\nmeasure_insts = 800\nwarmup_insts = 400\nsearch_insts = 300\n",
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("hdsmt-benchmark-test-{}", std::process::id()));
        let mut lines = Vec::new();
        for run in 0..2 {
            let cache = ResultCache::open(dir.join(format!("traced-{run}"))).unwrap();
            let mut t = Tracer::new(Instant::now(), 0);
            lines.push(decompose(&spec, &cache, &mut t, &mut Tally::default()).0);
        }
        let runner =
            hdsmt_campaign::JobRunner::new(1, Some(ResultCache::open(dir.join("engine")).unwrap()));
        let engine =
            engine::run_campaign_with(&spec, &engine::catalog_for(&spec), &runner).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(lines[0], lines[1]);
        assert_eq!(lines[0], engine.cells.iter().map(result_line).collect::<Vec<_>>());
        assert_eq!(probe::digest(&lines[0]), probe::digest(&lines[1]));
    }
}
