//! Cache-writer race stress tests: many threads and multiple processes
//! hammering one cache directory — same keys and different keys — must
//! leave only whole, parseable, bit-identical entries behind. This is the
//! property the serve daemon's shards (and any two concurrent
//! `hdsmt-campaign run`s) stand on.

use std::fs;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

use hdsmt_campaign::{EntryLookup, JobSpec, JobThread, ResultCache};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hdsmt-cache-race-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

/// A cheap deterministic job per index: distinct descriptors → distinct
/// keys; equal indices → bit-identical payloads.
fn job(i: usize) -> JobSpec {
    JobSpec {
        arch: "M8".into(),
        threads: vec![JobThread { bench: "gzip".into(), seed: i as u64 }],
        mapping: vec![0],
        max_insts: 300,
        warmup_insts: 100,
        fetch_policy: None,
        regfile_lat: None,
    }
}

#[test]
fn threads_racing_on_same_and_different_keys_leave_whole_entries() {
    let dir = tmpdir("threads");
    let cache = Arc::new(ResultCache::open(&dir).unwrap());

    // 8 threads × 6 jobs; each job is written by TWO threads (thread t
    // and thread t+4 share the same 6 keys), so every key sees concurrent
    // same-key writes while different keys interleave in the same shard
    // directories.
    const JOBS: usize = 6;
    let results: Vec<_> = (0..JOBS).map(|i| job(i).run_uncached().unwrap()).collect();
    let results = Arc::new(results);
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let cache = cache.clone();
            let results = results.clone();
            std::thread::spawn(move || {
                for i in 0..JOBS {
                    // Stagger the two writers of each key differently.
                    let i = (i + t) % JOBS;
                    let spec = job(i);
                    cache.put(&spec.key(), &spec.descriptor(), &results[i]).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(cache.len(), JOBS, "exactly one entry per key");
    assert_eq!(cache.corrupt_entries(), 0, "no torn writes");

    // Every surviving entry is bit-identical to an uncontended write of
    // the same job into a fresh cache.
    let control_dir = tmpdir("threads-control");
    let control = ResultCache::open(&control_dir).unwrap();
    for i in 0..JOBS {
        let spec = job(i);
        control.put(&spec.key(), &spec.descriptor(), &results[i]).unwrap();
        let (EntryLookup::Hit(raced), EntryLookup::Hit(clean)) =
            (cache.entry_text(&spec.key()), control.entry_text(&spec.key()))
        else {
            panic!("job {i} missing from a cache");
        };
        assert_eq!(raced, clean, "job {i}: raced entry differs from clean write");
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&control_dir);
}

#[test]
fn concurrent_cli_processes_share_one_cache_without_corruption() {
    let dir = tmpdir("procs");
    let cache_dir = dir.join("cache");
    let spec_path = dir.join("spec.toml");
    fs::write(
        &spec_path,
        format!(
            r#"
name = "race"
archs = ["M8", "2M4+2M2"]
workloads = ["2W1", "2W7"]
policies = ["rr"]
seed = 21
cache_dir = "{}"
[budget]
measure_insts = 1500
warmup_insts = 600
search_insts = 500
"#,
            cache_dir.display()
        ),
    )
    .unwrap();

    // Two whole `run` processes race the same 4-cell campaign: every cell
    // is simulated and written by both (cross-process same-key races),
    // in shared shard directories (different-key races).
    let spawn = || {
        Command::new(env!("CARGO_BIN_EXE_hdsmt-campaign"))
            .arg("run")
            .arg(&spec_path)
            .args(["--workers", "2"])
            .spawn()
            .unwrap()
    };
    let (mut a, mut b) = (spawn(), spawn());
    assert!(a.wait().unwrap().success());
    assert!(b.wait().unwrap().success());

    // The cache holds exactly the 4 cells, none corrupt…
    let cache = ResultCache::open(&cache_dir).unwrap();
    assert_eq!(cache.len(), 4);
    assert_eq!(cache.corrupt_entries(), 0, "cross-process torn write");

    // …`status` agrees (and surfaces the corrupt count satellite)…
    let status = Command::new(env!("CARGO_BIN_EXE_hdsmt-campaign"))
        .arg("status")
        .arg(&spec_path)
        .output()
        .unwrap();
    assert!(status.status.success());
    let out = String::from_utf8_lossy(&status.stdout);
    assert!(out.contains("measure jobs cached:  4/4"), "{out}");
    assert!(out.contains("cache corrupt entries: 0"), "{out}");

    // …and a third run is 100% hits.
    let rerun = Command::new(env!("CARGO_BIN_EXE_hdsmt-campaign"))
        .arg("run")
        .arg(&spec_path)
        .output()
        .unwrap();
    assert!(rerun.status.success());
    let err = String::from_utf8_lossy(&rerun.stderr);
    assert!(err.contains("4 cache hits, 0 simulated"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}
