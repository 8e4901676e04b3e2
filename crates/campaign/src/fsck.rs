//! Cache-tree verification and repair — the `hdsmt-campaign fsck` verb.
//!
//! "The cache is the database", so it gets a database's integrity
//! tooling. An fsck pass over a cache directory:
//!
//! 1. **Scrubs** every live entry: anything that fails to deserialize is
//!    quarantined (atomic rename into `quarantine/` plus a reason file),
//!    exactly as the lazy lookup path would have done eventually — but
//!    eagerly, for cells no campaign is currently polling.
//! 2. **Reaps** orphaned `*.tmp` files stranded by killed writers, but
//!    only ones older than [`FsckOptions::tmp_age`], so a racing live
//!    writer's in-flight tmp file is never touched.
//! 3. **Counts** the pending campaign accepts under `pending/*/` — the
//!    work a restarted daemon would resume. Each is one atomically
//!    renamed file, so there is no torn state to check or repair.
//! 4. Optionally (**`--gc`**) removes quarantined entries older than
//!    [`FsckOptions::gc_age`] — quarantine is evidence, not a landfill.
//!    Besides scrub-time deserialization failures, replication conflicts
//!    land here too: a `PUT /cells/:hash` whose bytes disagree with the
//!    entry a shard already holds is quarantined as corruption evidence
//!    (cells are content-addressed and simulations deterministic, so
//!    honest replicas can never differ).
//!
//! The report is machine-readable (the CLI prints it as JSON). `clean`
//! means the live tree had no rot; the *presence* of tmp files, pending
//! accepts, or quarantine evidence is expected operational state, not
//! corruption, and does not fail the check.
//!
//! Run fsck on a quiescent cache. Every individual repair is atomic, so
//! racing a live daemon cannot corrupt anything, but the report's counts
//! can be stale the moment they are produced.

use std::io;
use std::path::Path;
use std::time::Duration;

use crate::cache::ResultCache;

/// Tuning knobs for an fsck pass.
#[derive(Clone, Debug)]
pub struct FsckOptions {
    /// Only reap `*.tmp` files at least this old (safety margin for
    /// racing live writers).
    pub tmp_age: Duration,
    /// Remove quarantined entries older than [`Self::gc_age`].
    pub gc: bool,
    /// Age threshold for `--gc`.
    pub gc_age: Duration,
}

impl Default for FsckOptions {
    fn default() -> Self {
        FsckOptions {
            tmp_age: Duration::from_secs(15 * 60),
            gc: false,
            gc_age: Duration::from_secs(7 * 24 * 3600),
        }
    }
}

/// Machine-readable result of an fsck pass.
#[derive(Clone, Debug, serde::Serialize)]
pub struct FsckReport {
    pub cache_dir: String,
    /// Live entries walked by the scrub.
    pub entries_checked: u64,
    /// Entries that parsed cleanly.
    pub entries_valid: u64,
    /// Entries quarantined by this pass.
    pub corrupt_quarantined: u64,
    /// Orphaned tmp files deleted by this pass.
    pub tmp_reaped: u64,
    /// Tmp files left in place (younger than the threshold).
    pub tmp_remaining: u64,
    /// Quarantined entries on disk after this pass.
    pub quarantine_entries: u64,
    /// Age of the oldest quarantined entry, seconds.
    pub quarantine_oldest_secs: Option<u64>,
    /// Quarantined entries removed by `--gc`.
    pub quarantine_gc_removed: u64,
    /// Pending campaign accepts, summed over every role.
    pub pending: u64,
    /// No rot found.
    pub clean: bool,
}

/// Run a full fsck pass over the cache at `cache_dir`.
pub fn fsck(cache_dir: &Path, opts: &FsckOptions) -> io::Result<FsckReport> {
    let cache = ResultCache::open(cache_dir)?;
    let (checked, quarantined) = cache.scrub();
    let tmp_reaped = cache.reap_tmp(opts.tmp_age);
    let gc_removed = if opts.gc { cache.quarantine_gc(opts.gc_age) } else { 0 };
    Ok(FsckReport {
        cache_dir: cache_dir.display().to_string(),
        entries_checked: checked as u64,
        entries_valid: (checked - quarantined) as u64,
        corrupt_quarantined: quarantined as u64,
        tmp_reaped: tmp_reaped as u64,
        tmp_remaining: cache.tmp_files() as u64,
        quarantine_entries: cache.quarantined_entries() as u64,
        quarantine_oldest_secs: cache.quarantine_oldest_age().map(|a| a.as_secs()),
        quarantine_gc_removed: gc_removed as u64,
        pending: crate::pending::counts(cache_dir).iter().map(|(_, n)| n).sum(),
        clean: quarantined == 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsmt_core::{SimResult, SimStats};
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hdsmt-fsck-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn fake_result() -> SimResult {
        SimResult { arch: "M8".into(), mapping: vec![0], stats: SimStats::default() }
    }

    #[test]
    fn fsck_quarantines_rot_reaps_orphans_and_counts_pending() {
        let dir = tmpdir("full");
        let cache = ResultCache::open(&dir).unwrap();
        let good = ResultCache::key_for("{\"job\":1}");
        let bad = ResultCache::key_for("{\"job\":2}");
        cache.put(&good, "{\"job\":1}", &fake_result()).unwrap();
        cache.put(&bad, "{\"job\":2}", &fake_result()).unwrap();
        fs::write(dir.join(&bad[..2]).join(format!("{bad}.json")), "rot").unwrap();
        fs::write(dir.join(&good[..2]).join(format!("{good}.json.tmp.1.0")), "orphan").unwrap();

        // One pending accept, plus the tmp file a writer killed before
        // its rename leaves behind.
        let role = dir.join(crate::pending::PENDING_DIR).join("serve");
        fs::create_dir_all(&role).unwrap();
        fs::write(role.join("c2-bb.spec"), "s2").unwrap();
        fs::write(role.join("c3-cc.spec.tmp.1.1"), "s").unwrap();

        let opts = FsckOptions { tmp_age: Duration::ZERO, ..FsckOptions::default() };
        let report = fsck(&dir, &opts).unwrap();
        assert_eq!(report.entries_checked, 2);
        assert_eq!(report.entries_valid, 1);
        assert_eq!(report.corrupt_quarantined, 1);
        assert_eq!(report.tmp_reaped, 2);
        assert_eq!(report.tmp_remaining, 0);
        assert_eq!(report.quarantine_entries, 1);
        assert_eq!(report.pending, 1, "c2-bb is still pending");
        assert!(!report.clean, "rot → not clean");

        // The rot is quarantined now; pending accepts and quarantine
        // evidence alone do not fail the check.
        let report = fsck(&dir, &opts).unwrap();
        assert_eq!(report.corrupt_quarantined, 0);
        assert!(report.clean);

        // --gc clears the quarantine.
        let opts = FsckOptions { gc: true, gc_age: Duration::ZERO, ..opts };
        let report = fsck(&dir, &opts).unwrap();
        assert_eq!(report.quarantine_gc_removed, 1);
        assert_eq!(report.quarantine_entries, 0);
        assert!(report.clean);

        // The report serializes — it is the CLI's output contract.
        let text = serde_json::to_string_pretty(&report).unwrap();
        assert!(text.contains("\"clean\""), "{text}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_on_an_empty_cache_is_clean() {
        let dir = tmpdir("empty");
        let report = fsck(&dir, &FsckOptions::default()).unwrap();
        assert!(report.clean);
        assert_eq!(report.entries_checked, 0);
        assert_eq!(report.pending, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
