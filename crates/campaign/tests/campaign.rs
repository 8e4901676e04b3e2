//! End-to-end campaign engine tests: cache identity, resumability, and
//! the `hdsmt-campaign` CLI acceptance flow (≥24-cell matrix, 100% cache
//! hits on the second invocation, valid JSON/CSV exports).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use hdsmt_campaign::{
    engine, expand, Budget, CampaignSpec, Catalog, JobEvent, JobRunner, JobSpec, JobThread,
    MicroArch, Policy, ResultCache,
};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hdsmt-campaign-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

fn tiny_spec(archs: &[&str], workloads: &[&str], policies: &[&str], cache: &Path) -> CampaignSpec {
    CampaignSpec {
        name: Some("it".into()),
        archs: archs.iter().map(|s| s.to_string()).collect(),
        workloads: workloads.iter().map(|s| s.to_string()).collect(),
        policies: Some(policies.iter().map(|s| s.to_string()).collect()),
        budget: Some(Budget { measure_insts: 1_500, warmup_insts: 600, search_insts: 600 }),
        seed: Some(3),
        workers: Some(4),
        cache_dir: Some(cache.to_string_lossy().into_owned()),
        profile_insts: Some(15_000),
        extra_workloads: None,
        use_rv_workloads: None,
    }
}

fn job() -> JobSpec {
    JobSpec {
        arch: "2M4+2M2".into(),
        threads: vec![
            JobThread { bench: "gzip".into(), seed: 11 },
            JobThread { bench: "mcf".into(), seed: 12 },
        ],
        mapping: vec![0, 2],
        max_insts: 2_000,
        warmup_insts: 800,
        fetch_policy: None,
        regfile_lat: None,
    }
}

/// Byte-faithful comparison proxy: the JSON encoding keeps integers in
/// exact lanes and floats in shortest-round-trip form, so equal strings
/// ⇔ bit-identical results.
fn fingerprint(r: &hdsmt_campaign::SimResult) -> String {
    serde_json::to_string(r).unwrap()
}

#[test]
fn cache_hit_is_bit_identical_to_cold_run() {
    let dir = tmpdir("bitident");
    let cache = ResultCache::open(&dir).unwrap();
    let runner = JobRunner::new(2, Some(cache));
    let job = job();

    let cold = runner.run_all(std::slice::from_ref(&job)).unwrap().remove(0);
    assert_eq!(runner.report().simulated, 1);
    let warm = runner.run_all(std::slice::from_ref(&job)).unwrap().remove(0);
    assert_eq!(runner.report().cache_hits, 1, "second run must hit");

    let uncached = job.run_uncached().unwrap();
    assert_eq!(fingerprint(&cold), fingerprint(&uncached), "cold == direct");
    assert_eq!(fingerprint(&cold), fingerprint(&warm), "cache round-trip must be bit-identical");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn rerun_simulates_nothing_and_interrupt_resumes() {
    let dir = tmpdir("resume");
    let catalog = Catalog::paper();

    // "Interrupted" campaign: only half the architectures ran before the
    // plug was pulled.
    let partial = tiny_spec(&["M8"], &["2W7", "2W4"], &["heur"], &dir);
    let r1 = engine::run_campaign(&partial, &catalog).unwrap();
    assert_eq!(r1.report.simulated, 2);
    assert_eq!(r1.report.cache_hits, 0);

    // Resume with the full spec: only the new cells simulate.
    let full = tiny_spec(&["M8", "2M4+2M2"], &["2W7", "2W4"], &["heur"], &dir);
    let r2 = engine::run_campaign(&full, &catalog).unwrap();
    assert_eq!(r2.report.total, 4);
    assert_eq!(r2.report.cache_hits, 2, "already-simulated cells must be hits");
    assert_eq!(r2.report.simulated, 2);

    // Identical re-run: zero re-simulated cells.
    let r3 = engine::run_campaign(&full, &catalog).unwrap();
    assert_eq!(r3.report.cache_hits, r3.report.total);
    assert_eq!(r3.report.simulated, 0);

    // And the numbers are bit-stable across the resume boundary.
    let pick = |r: &engine::CampaignResult| {
        r.cells
            .iter()
            .find(|c| c.arch == "M8" && c.workload == "2W7")
            .map(|c| c.ipc.to_bits())
            .unwrap()
    };
    assert_eq!(pick(&r1), pick(&r3));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn oracle_policies_share_the_search_phase_and_order_correctly() {
    let dir = tmpdir("oracle");
    let catalog = Catalog::paper();
    let spec = tiny_spec(&["2M4+2M2"], &["2W7"], &["best", "worst", "heur"], &dir);

    let cells = expand(&spec, &catalog).unwrap();
    assert_eq!(cells.len(), 3);
    assert!(cells.iter().any(|c| c.policy == Policy::Best));

    let r = engine::run_campaign(&spec, &catalog).unwrap();
    let ipc_of = |p: &str| r.cells.iter().find(|c| c.policy == p).unwrap().ipc;
    assert!(ipc_of("best") >= ipc_of("worst"), "oracle envelope must be ordered");
    let best = r.cells.iter().find(|c| c.policy == "best").unwrap();
    assert!(best.n_mappings > 1, "2 threads on 2M4+2M2 have multiple mappings");

    // best and worst share ONE search sweep even on a cold cache: total
    // jobs = one sweep over the mapping space + three measure runs.
    assert_eq!(r.report.total, best.n_mappings + 3, "duplicate search sweeps enqueued");

    // And a re-run is fully cached.
    let r2 = engine::run_campaign(&spec, &catalog).unwrap();
    assert_eq!(r2.report.simulated, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn rv_program_workloads_sweep_mixed_cells_through_the_cache() {
    // Acceptance: a campaign mixing RV64I-program threads with synthetic
    // ones — catalog entries (RV2/XRV2) plus an inline mixed extra —
    // completes through the cache on both machine families, and a re-run
    // is 100% hits.
    let dir = tmpdir("rvmix");
    let mut spec = tiny_spec(&["M8", "2M4+2M2"], &["RV2", "XRV2", "fibmix"], &["heur"], &dir);
    spec.use_rv_workloads = Some(true);
    spec.extra_workloads = Some(vec![hdsmt_campaign::ExtraWorkload {
        id: "fibmix".into(),
        benchmarks: vec!["rv:fib".into(), "twolf".into()],
        class: Some("XRV".into()),
    }]);
    let catalog = engine::catalog_for(&spec);
    assert!(catalog.get("RV2").is_some(), "rv workloads must register in the catalog");

    let r = engine::run_campaign(&spec, &catalog).unwrap();
    assert_eq!(r.cells.len(), 6);
    for c in &r.cells {
        assert!(c.ipc > 0.1, "{}/{}: ipc {}", c.arch, c.workload, c.ipc);
        assert!(c.retired > 0);
    }
    // The mixed cells genuinely interleave front-ends on one machine.
    let xrv = r.cells.iter().find(|c| c.workload == "XRV2").unwrap();
    assert_eq!(xrv.threads, 2);

    let r2 = engine::run_campaign(&spec, &catalog).unwrap();
    assert_eq!(r2.report.simulated, 0, "second sweep must be fully cached");
    assert_eq!(r2.report.cache_hits, r2.report.total);

    // Spec-reader path: the same opt-in round-trips through TOML.
    let toml_spec = CampaignSpec::parse(
        "archs = [\"M8\"]\nworkloads = [\"XRV2\"]\nuse_rv_workloads = true\n\
         [budget]\nmeasure_insts = 1000\nwarmup_insts = 400\nsearch_insts = 300\n",
    )
    .unwrap();
    assert!(toml_spec.use_rv_workloads());
    assert!(engine::catalog_for(&toml_spec).get("XRV2").is_some());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn one_panicking_job_fails_cleanly_without_aborting_the_batch() {
    // Mapping [2, 2] on 2M4+2M2 passes the cheap pre-flight `check` (the
    // pipeline index is valid) but panics in the simulator: the M2 has a
    // single context. The batch must return one clean error naming the
    // panic — not abort the process on a poisoned lock — and the healthy
    // sibling jobs must land in the cache.
    let dir = tmpdir("panicjob");
    let cache = ResultCache::open(&dir).unwrap();
    let runner = JobRunner::new(4, Some(cache.clone()));
    let mut bad = job();
    bad.mapping = vec![2, 2];
    assert!(bad.check().is_ok(), "the panic must come from the simulator, not pre-flight");
    let batch = vec![job(), bad, job()];
    let err = runner.run_all(&batch).expect_err("the bad job must surface as an error");
    assert!(err.0.contains("panicked"), "{err}");
    assert!(err.0.contains("contexts"), "the original panic message survives: {err}");
    assert_eq!(cache.len(), 1, "the healthy sibling job still completed and cached");
    let _ = fs::remove_dir_all(&dir);
}

/// `n` small jobs that differ only in one thread's stream seed.
fn distinct_jobs(n: u64) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            let mut j = job();
            j.threads[0].seed = 100 + i;
            j.max_insts = 600;
            j.warmup_insts = 0;
            j
        })
        .collect()
}

/// `n` distinct jobs and their results, run one at a time outside any
/// runner; every result differs, so a misplaced one shows.
fn distinct_jobs_and_results(n: u64) -> (Vec<JobSpec>, Vec<String>) {
    let jobs = distinct_jobs(n);
    let expected: Vec<String> =
        jobs.iter().map(|j| fingerprint(&j.run_uncached().unwrap())).collect();
    let mut unique = expected.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), jobs.len(), "every job has a distinct result, so order shows");
    (jobs, expected)
}

#[test]
fn runner_returns_results_in_input_order() {
    // More jobs than workers: a lone worker (the calling thread), a pair,
    // and an odd count that does not divide the batch.
    let (jobs, expected) = distinct_jobs_and_results(17);
    for workers in [1, 2, 7] {
        let out = JobRunner::new(workers, None).run_all(&jobs).unwrap();
        let got: Vec<String> = out.iter().map(fingerprint).collect();
        assert_eq!(got, expected, "{workers} worker(s): each result at its input index");
    }
}

#[test]
fn runner_runs_every_job_exactly_once() {
    let jobs = distinct_jobs(17);
    for workers in [1, 2, 7] {
        let starts: Vec<AtomicUsize> = jobs.iter().map(|_| AtomicUsize::new(0)).collect();
        let runner = JobRunner::new(workers, None);
        let out = runner
            .try_run_all(&jobs, &|i, event| {
                if event == JobEvent::Started {
                    starts[i].fetch_add(1, Ordering::Relaxed);
                }
            })
            .unwrap();
        assert!(out.iter().all(|r| r.is_ok()), "{workers} worker(s): every job succeeds");
        let starts: Vec<usize> = starts.iter().map(|n| n.load(Ordering::Relaxed)).collect();
        assert_eq!(starts, vec![1; jobs.len()], "{workers} worker(s): every job starts once");
        assert_eq!(runner.report().simulated, jobs.len());
    }
}

#[test]
fn runner_handles_one_worker_an_empty_batch_and_more_workers_than_jobs() {
    let (jobs, expected) = distinct_jobs_and_results(3);
    let out = JobRunner::new(1, None).run_all(&jobs).unwrap();
    assert_eq!(out.iter().map(fingerprint).collect::<Vec<_>>(), expected);
    let out = JobRunner::new(16, None).run_all(&jobs[..1]).unwrap();
    assert_eq!(out.iter().map(fingerprint).collect::<Vec<_>>(), expected[..1]);
    assert!(JobRunner::new(4, None).try_run_all(&[], &|_, _| {}).unwrap().is_empty());
}

#[test]
fn a_repeated_cache_key_simulates_once_on_many_workers() {
    let dir = tmpdir("repeated-key");
    let jobs = vec![distinct_jobs(1).remove(0); 8];
    let events: Vec<AtomicUsize> = jobs.iter().map(|_| AtomicUsize::new(0)).collect();
    let runner = JobRunner::new(4, Some(ResultCache::open(&dir).unwrap()));
    let out = runner
        .try_run_all(&jobs, &|i, _| {
            events[i].fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
    let report = runner.report();
    assert_eq!((report.simulated, report.cache_hits), (1, 7), "{report:?}");
    let events: Vec<usize> = events.iter().map(|n| n.load(Ordering::Relaxed)).collect();
    assert_eq!(events, vec![2; jobs.len()], "every repeat starts and finishes once");
    let got: Vec<String> = out.iter().map(|r| fingerprint(r.as_ref().unwrap())).collect();
    assert!(got.iter().all(|f| *f == got[0]), "every repeat gets the one result");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn batch_default_is_every_core() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(hdsmt_campaign::default_workers(), cores);
    assert_eq!(JobRunner::new(0, None).workers(), cores, "0 resolves to the batch default");
}

/// Every file under a cache directory, by relative path, with its bytes.
fn cache_files(dir: &Path) -> std::collections::BTreeMap<PathBuf, Vec<u8>> {
    let mut files = std::collections::BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let bytes = fs::read(&path).unwrap();
                files.insert(path.strip_prefix(dir).unwrap().to_path_buf(), bytes);
            }
        }
    }
    files
}

#[test]
fn the_default_worker_count_changes_no_output() {
    // `oracle_smoke.toml` lists one cache key twice (13 jobs, 12 keys), so
    // the job counters would expose a key simulated twice.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs/oracle_smoke.toml");
    let catalog = Catalog::paper();
    let run = |workers: Option<u64>, tag: &str| {
        let dir = tmpdir(tag);
        let mut spec = CampaignSpec::load(&path).unwrap();
        spec.workers = workers;
        spec.cache_dir = Some(dir.to_string_lossy().into_owned());
        let r = engine::run_campaign(&spec, &catalog).unwrap();
        let files = cache_files(&dir);
        let _ = fs::remove_dir_all(&dir);
        (serde_json::to_string(&r.cells).unwrap(), r.report, files)
    };
    let (default_cells, default_report, default_files) = run(None, "default-workers");
    let (one_cells, one_report, one_files) = run(Some(1), "one-worker");
    assert!(one_report.simulated < one_report.total, "the spec repeats keys: {one_report:?}");
    assert_eq!(default_cells, one_cells);
    assert_eq!(
        (default_report.simulated, default_report.cache_hits),
        (one_report.simulated, one_report.cache_hits)
    );
    assert_eq!(default_files.len(), one_report.simulated, "one entry per simulated key");
    assert!(default_files == one_files, "cache entries differ between worker counts");
}

#[test]
fn a_repeat_of_a_failed_job_reports_the_same_error() {
    let dir = tmpdir("repeated-failure");
    // Passes pre-flight but panics in the simulator (see
    // `one_panicking_job_fails_cleanly_without_aborting_the_batch`).
    let mut bad = job();
    bad.mapping = vec![2, 2];
    let runner = JobRunner::new(2, Some(ResultCache::open(&dir).unwrap()));
    let out = runner.try_run_all(&[bad.clone(), job(), bad], &|_, _| {}).unwrap();
    let (first, repeat) = (out[0].as_ref().unwrap_err(), out[2].as_ref().unwrap_err());
    assert_eq!(first, repeat);
    assert!(out[1].is_ok());
    let report = runner.report();
    assert_eq!((report.simulated, report.failed, report.cache_hits), (3, 2, 0), "{report:?}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_cancelled_batch_simulates_nothing() {
    let runner = JobRunner::new(2, None).with_cancel_token(Arc::new(AtomicBool::new(true)));
    let out = runner.try_run_all(&distinct_jobs(3), &|_, _| {}).unwrap();
    for r in &out {
        let err = r.as_ref().expect_err("a cancelled job yields no result");
        assert!(err.0.contains("cancelled"), "{err}");
    }
    let report = runner.report();
    assert_eq!(report.total, 3);
    assert_eq!(report.simulated, 0, "skipped jobs are not simulations");
    assert_eq!(report.cache_hits, 0);
    assert_eq!(report.failed, 0);
}

#[test]
fn status_reports_cache_coverage() {
    let dir = tmpdir("status");
    let catalog = Catalog::paper();
    let spec = tiny_spec(&["M8", "3M4"], &["2W1"], &["heur"], &dir);
    let cache = engine::open_cache(&spec).unwrap();

    let st = engine::status(&spec, &catalog, &cache).unwrap();
    assert_eq!(st.cells, 2);
    assert_eq!(st.measure_cached, 0);

    engine::run_campaign(&spec, &catalog).unwrap();
    let st = engine::status(&spec, &catalog, &cache).unwrap();
    assert_eq!(st.measure_cached, 2, "after a run, status must see the cache");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn status_counts_each_oracle_sweep_once() {
    let dir = tmpdir("status-oracle");
    let catalog = Catalog::paper();
    let archs = ["M8", "2M4+2M2"];
    let spec = tiny_spec(&archs, &["2W1"], &["best", "worst"], &dir);
    let cache = engine::open_cache(&spec).unwrap();
    let cold = engine::status(&spec, &catalog, &cache).unwrap();
    assert_eq!(cold.search_cached, 0);
    engine::run_campaign(&spec, &catalog).unwrap();

    let st = engine::status(&spec, &catalog, &cache).unwrap();
    assert_eq!(st.search_jobs, cold.search_jobs);
    // `best` and `worst` of one (arch, workload) pair share one sweep.
    let sweeps: usize = archs
        .iter()
        .map(|a| hdsmt_core::enumerate_mappings(&MicroArch::parse(a).unwrap(), 2).len())
        .sum();
    assert_eq!(st.cells, 4);
    assert_eq!(st.search_jobs, sweeps);
    assert_eq!(st.search_cached, st.search_jobs, "after a run every search job is cached");
    assert_eq!(st.measure_pending_search, 4, "every oracle cell waits on its sweep");
    assert_eq!(st.measure_known, 0);
    let _ = fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------------- CLI

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hdsmt-campaign"))
}

#[test]
fn cli_run_export_acceptance_flow() {
    let dir = tmpdir("cli");
    let cache = dir.join("cache");
    let out = dir.join("out");
    // 6 archs × 4 workloads × 1 policy = 24 cells (the acceptance floor).
    let spec_text = format!(
        r#"
name = "cli-acceptance"
archs = ["M8", "3M4", "4M4", "2M4+2M2", "3M4+2M2", "1M6+2M4+2M2"]
workloads = ["2W1", "2W7", "4W4", "4W6"]
policies = ["heur"]
seed = 5
profile_insts = 15000
cache_dir = "{}"

[budget]
measure_insts = 1200
warmup_insts = 500
search_insts = 400
"#,
        cache.display()
    );
    let spec_path = dir.join("spec.toml");
    fs::write(&spec_path, spec_text).unwrap();

    // First run: everything simulates.
    let run1 = cli().arg("run").arg(&spec_path).output().unwrap();
    assert!(run1.status.success(), "stderr: {}", String::from_utf8_lossy(&run1.stderr));
    let err1 = String::from_utf8_lossy(&run1.stderr);
    assert!(err1.contains("24 cells"), "{err1}");
    assert!(err1.contains("0 cache hits, 24 simulated"), "{err1}");

    // Second run: 100% cache hits.
    let run2 = cli().arg("run").arg(&spec_path).output().unwrap();
    assert!(run2.status.success());
    let err2 = String::from_utf8_lossy(&run2.stderr);
    assert!(err2.contains("24 cache hits, 0 simulated"), "{err2}");

    // Status sees full coverage.
    let status = cli().arg("status").arg(&spec_path).output().unwrap();
    assert!(status.status.success());
    let out_s = String::from_utf8_lossy(&status.stdout);
    assert!(out_s.contains("measure jobs cached:  24/24"), "{out_s}");

    // Export writes valid JSON + CSV + summary.
    let export = cli().arg("export").arg(&spec_path).arg("--out").arg(&out).output().unwrap();
    assert!(export.status.success(), "stderr: {}", String::from_utf8_lossy(&export.stderr));

    let json = fs::read_to_string(out.join("campaign.json")).unwrap();
    let v = serde_json::from_str_value(&json).expect("campaign.json is valid JSON");
    assert_eq!(v.get("cells").and_then(|c| c.as_array()).map(|a| a.len()), Some(24));

    let csv = fs::read_to_string(out.join("cells.csv")).unwrap();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 25, "header + 24 rows");
    assert!(lines[0].starts_with("arch,workload,class,threads,policy,mapping,ipc"));
    for row in &lines[1..] {
        assert_eq!(row.split(',').count(), lines[0].split(',').count(), "{row}");
    }

    let summary = fs::read_to_string(out.join("summary.txt")).unwrap();
    assert!(summary.contains("most complexity-effective machine"), "{summary}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cli_rejects_bad_input() {
    let dir = tmpdir("cli-bad");
    let bad_spec = dir.join("bad.toml");
    fs::write(&bad_spec, "archs = [\"M8\"]\n").unwrap(); // no workloads
    assert!(!cli().arg("run").arg(&bad_spec).output().unwrap().status.success());
    assert!(!cli().arg("run").arg(dir.join("missing.toml")).output().unwrap().status.success());
    assert!(!cli().arg("frobnicate").arg(&bad_spec).output().unwrap().status.success());
    assert!(!cli().output().unwrap().status.success());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cli_rejects_flags_the_verb_does_not_read() {
    let dir = tmpdir("cli-verb-flags");
    let spec = dir.join("spec.toml");
    fs::write(&spec, "archs = [\"M8\"]\nworkloads = [\"2W1\"]\n").unwrap();
    let spec = spec.to_string_lossy().into_owned();
    for (args, flag, verb) in [
        // Used to run the whole campaign, not a shard.
        (vec!["run", spec.as_str(), "--shard", "0/2"], "--shard", "`run`"),
        (vec!["serve", "--out", "x"], "--out", "`serve`"),
        (vec!["fsck", "--gc-age-secs", "1", "--remote", "a"], "--remote", "`fsck`"),
        // With --remote the daemon picks its own worker count.
        (
            vec!["run", spec.as_str(), "--remote", "a", "--workers", "4"],
            "--workers",
            "`run --remote`",
        ),
    ] {
        let out = cli().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains(verb) && stderr.contains("usage:"),
            "{args:?}: {stderr}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cli_rejects_the_retired_fleet_flags_with_usage() {
    let dir = tmpdir("cli-fleet-flags");
    let spec = dir.join("spec.toml");
    fs::write(&spec, "archs = [\"M8\"]\nworkloads = [\"2W1\"]\n").unwrap();
    let spec = spec.to_string_lossy().into_owned();
    for args in [
        vec!["serve", "--supervise", "1"],
        vec!["serve", "--worker", "127.0.0.1:1"],
        vec!["run", spec.as_str(), "--peer", "127.0.0.1:1"],
    ] {
        let out = cli().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown flag") && stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    let _ = fs::remove_dir_all(&dir);
}
