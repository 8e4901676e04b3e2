//! Content-addressed on-disk result cache.
//!
//! Every simulation job serializes to a canonical JSON descriptor; its
//! cache key is the SHA-256 of that descriptor plus a code-version salt.
//! Entries live at `<dir>/<k0k1>/<key>.json` (sharded by the first key
//! byte) and are written atomically (`tmp` + rename), so an interrupted
//! campaign never leaves a truncated entry behind — a half-written file
//! simply re-simulates. Re-running a campaign therefore only simulates
//! the missing cells: resumability and incrementality by construction.
//!
//! # Replication
//!
//! [`ResultCache::put_entry_text`] lands an entry copied from another
//! cache (`PUT /cells/:hash`) under one rule, *byte-equality or
//! quarantine*: entries are deterministic, so two copies of one key must
//! be byte-identical, and any divergence is treated as corruption — the
//! suspect copy is quarantined as evidence, never merged
//! last-write-wins, never served.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hdsmt_core::SimResult;

use crate::hash::sha256_hex;

/// Bump when the meaning of a cached result changes (simulator semantics,
/// result schema, key schema). Old entries are then simply never hit.
pub const CODE_VERSION: &str = concat!("hdsmt-campaign/", env!("CARGO_PKG_VERSION"), "/schema-2");

/// Runtime lookup counters, shared by every clone of a [`ResultCache`]
/// (the serve daemon reports them in `GET /stats`). A **corrupt** entry is
/// one that exists on disk but fails to deserialize — served as a miss
/// (the caller re-simulates), counted separately so silent cache rot is
/// visible instead of just slow, and **quarantined**: atomically renamed
/// into `<dir>/quarantine/` with a reason file, so the rotten bytes are
/// kept as evidence instead of being overwritten.
#[derive(Debug, Default)]
pub struct CacheTelemetry {
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    quarantined: AtomicU64,
    replicated: AtomicU64,
    conflicts: AtomicU64,
}

/// Point-in-time snapshot of [`CacheTelemetry`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    /// Entries present on disk but undeserializable at lookup time.
    pub corrupt: u64,
    /// Corrupt entries this process moved into `quarantine/`.
    pub quarantined: u64,
    /// Entries landed by `PUT /cells/:hash`.
    pub replicated: u64,
    /// Replication attempts rejected because a byte-different copy of
    /// the same key already existed (incoming copy quarantined).
    pub conflicts: u64,
}

/// Subdirectory (inside the cache root) holding quarantined entries.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Outcome of a raw entry lookup (`GET /cells/:hash`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EntryLookup {
    /// The verbatim JSON entry text (version + descriptor + result).
    Hit(String),
    Miss,
    /// Present on disk but does not deserialize.
    Corrupt,
}

/// Successful outcome of landing a replicated entry (`PUT /cells/:hash`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Replicate {
    /// The entry landed (atomically) in the live tree.
    Stored,
    /// A byte-identical copy was already present — idempotent no-op.
    AlreadyPresent,
}

/// Why a replicated entry was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplicateError {
    /// The body does not deserialize as a cache entry.
    Invalid,
    /// A byte-*different* copy of this key already exists locally; the
    /// incoming bytes were quarantined, the local copy stays.
    Conflict,
    /// The landing write failed.
    Io(String),
}

/// A content-addressed store of [`SimResult`]s.
#[derive(Clone, Debug)]
pub struct ResultCache {
    dir: PathBuf,
    telemetry: Arc<CacheTelemetry>,
    /// When set, [`Self::put`] fsyncs the entry before the rename and
    /// fsyncs the shard directory after it, extending the crash model
    /// from process death to host power loss (`--durable`).
    durable: bool,
}

impl ResultCache {
    /// Open (and create) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultCache { dir, telemetry: Arc::new(CacheTelemetry::default()), durable: false })
    }

    /// Toggle fsync-before-rename writes (see the `durable` field).
    pub fn with_durable(mut self, durable: bool) -> Self {
        self.durable = durable;
        self
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Cache key for a canonical job descriptor.
    pub fn key_for(descriptor_json: &str) -> String {
        let mut salted = String::with_capacity(descriptor_json.len() + CODE_VERSION.len() + 1);
        salted.push_str(CODE_VERSION);
        salted.push('\n');
        salted.push_str(descriptor_json);
        sha256_hex(salted.as_bytes())
    }

    fn path(&self, key: &str) -> PathBuf {
        // Total for any key: a key shorter than the two-char shard prefix
        // (impossible for sha256 hex, but this is a durability path) maps
        // to a shard named after the whole key instead of panicking.
        let shard = key.get(..2).unwrap_or(key);
        self.dir.join(shard).join(format!("{key}.json"))
    }

    /// Is a result for `key` present on disk?
    pub fn contains(&self, key: &str) -> bool {
        self.path(key).is_file()
    }

    /// Load the cached result for `key`. Corrupt or unreadable entries
    /// count as misses (the caller re-simulates and overwrites them), but
    /// corrupt ones are additionally tallied in [`Self::counters`].
    pub fn get(&self, key: &str) -> Option<SimResult> {
        self.lookup(key).ok().map(|(_, entry)| entry.result)
    }

    /// Raw entry lookup: the verbatim on-disk JSON, validated. This is
    /// the `GET /cells/:hash` backend — the entry text is already the
    /// response body. Updates the telemetry counters. A corrupt entry is
    /// quarantined on detection (see [`Self::quarantined_entries`]), so
    /// the *next* lookup of the same key is a clean miss that
    /// re-simulates.
    pub fn entry_text(&self, key: &str) -> EntryLookup {
        match self.lookup(key) {
            Ok((text, _)) => EntryLookup::Hit(text),
            Err(miss) => miss,
        }
    }

    /// Read and decode `key`'s entry once, for both [`Self::get`] and
    /// [`Self::entry_text`]: the text and its decoded entry on a hit,
    /// otherwise [`EntryLookup::Miss`] or [`EntryLookup::Corrupt`] (the
    /// corrupt entry quarantined). Counts the outcome.
    fn lookup(&self, key: &str) -> Result<(String, CacheEntry), EntryLookup> {
        let Ok(text) = fs::read_to_string(self.path(key)) else {
            self.telemetry.misses.fetch_add(1, Ordering::Relaxed);
            return Err(EntryLookup::Miss);
        };
        match serde_json::from_str::<CacheEntry>(&text) {
            Ok(entry) => {
                self.telemetry.hits.fetch_add(1, Ordering::Relaxed);
                Ok((text, entry))
            }
            Err(_) => {
                self.telemetry.corrupt.fetch_add(1, Ordering::Relaxed);
                self.quarantine(key, "failed to deserialize at lookup");
                Err(EntryLookup::Corrupt)
            }
        }
    }

    /// Move a rotten entry into `<dir>/quarantine/` (atomic rename) with a
    /// sibling `.reason.txt`, so cache rot is preserved evidence instead
    /// of silently overwritten. Losing the rename race (a concurrent
    /// process already quarantined it, or a writer just healed the key) is
    /// fine — the entry is gone from the live tree either way.
    pub(crate) fn quarantine(&self, key: &str, reason: &str) {
        let qdir = self.dir.join(QUARANTINE_DIR);
        let _ = fs::create_dir_all(&qdir);
        if fs::rename(self.path(key), qdir.join(format!("{key}.json"))).is_ok() {
            self.telemetry.quarantined.fetch_add(1, Ordering::Relaxed);
            let _ = fs::write(
                qdir.join(format!("{key}.reason.txt")),
                format!("quarantined by pid {}: {reason}\n", std::process::id()),
            );
        }
    }

    /// Number of quarantined entries on disk (any process may have put
    /// them there — this scans, unlike the per-process counter in
    /// [`Self::counters`]).
    pub fn quarantined_entries(&self) -> usize {
        fs::read_dir(self.dir.join(QUARANTINE_DIR))
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .count()
    }

    /// Snapshot of the runtime lookup counters (shared across clones).
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.telemetry.hits.load(Ordering::Relaxed),
            misses: self.telemetry.misses.load(Ordering::Relaxed),
            corrupt: self.telemetry.corrupt.load(Ordering::Relaxed),
            quarantined: self.telemetry.quarantined.load(Ordering::Relaxed),
            replicated: self.telemetry.replicated.load(Ordering::Relaxed),
            conflicts: self.telemetry.conflicts.load(Ordering::Relaxed),
        }
    }

    /// Walk every entry on disk and count the ones that fail to
    /// deserialize. O(cache size) — used by `status` reporting, not by
    /// the lookup path (which counts lazily via [`Self::counters`]).
    pub fn corrupt_entries(&self) -> usize {
        self.entry_paths()
            .filter(|p| {
                fs::read_to_string(p)
                    .map(|t| serde_json::from_str::<CacheEntry>(&t).is_err())
                    .unwrap_or(true)
            })
            .count()
    }

    /// Atomically store `result` under `key`, alongside its descriptor
    /// (kept for human inspection of the cache).
    pub fn put(&self, key: &str, descriptor_json: &str, result: &SimResult) -> std::io::Result<()> {
        let descriptor = serde_json::from_str_value(descriptor_json)
            .unwrap_or(serde_json::Value::String(descriptor_json.to_string()));
        let entry =
            CacheEntry { version: CODE_VERSION.to_string(), descriptor, result: result.clone() };
        let mut payload = serde_json::to_string_pretty(&entry).map_err(io_err)?.into_bytes();
        crate::fault::on_cache_put(&mut payload)?;
        self.land_text(key, &payload)
    }

    /// Publish verbatim entry bytes under `key` through [`write_atomic`]
    /// (honoring `--durable`). Shared by [`Self::put`] and
    /// [`Self::put_entry_text`], whose payload is an already-serialized
    /// entry; callers validate the bytes first.
    fn land_text(&self, key: &str, payload: &[u8]) -> std::io::Result<()> {
        write_atomic(&self.path(key), payload, self.durable)
    }

    /// Land an entry copied from another cache (`PUT /cells/:hash`).
    /// Enforces the byte-equality-or-quarantine rule: an identical copy
    /// is idempotent, a divergent copy under a valid local entry is
    /// quarantined evidence (the local copy stays authoritative), and a
    /// rotten local copy is quarantined so the verified incoming copy
    /// heals the key.
    pub fn put_entry_text(&self, key: &str, body: &str) -> Result<Replicate, ReplicateError> {
        if serde_json::from_str::<CacheEntry>(body).is_err() {
            return Err(ReplicateError::Invalid);
        }
        match fs::read_to_string(self.path(key)) {
            Ok(existing) if existing == body => return Ok(Replicate::AlreadyPresent),
            Ok(existing) => {
                if serde_json::from_str::<CacheEntry>(&existing).is_ok() {
                    // Entries are deterministic: same key, different
                    // bytes means one side is corrupt. Keep the local
                    // copy, quarantine the incoming bytes as evidence —
                    // never last-write-wins.
                    self.telemetry.conflicts.fetch_add(1, Ordering::Relaxed);
                    self.quarantine_conflict(key, body);
                    return Err(ReplicateError::Conflict);
                }
                self.telemetry.corrupt.fetch_add(1, Ordering::Relaxed);
                self.quarantine(key, "local copy invalid when replication landed");
            }
            Err(_) => {}
        }
        self.land_text(key, body.as_bytes()).map_err(|e| ReplicateError::Io(e.to_string()))?;
        self.telemetry.replicated.fetch_add(1, Ordering::Relaxed);
        Ok(Replicate::Stored)
    }

    /// Preserve a conflicting incoming copy in `quarantine/` (the live
    /// tree keeps the local entry). Distinct file names per key keep the
    /// evidence from colliding with a quarantined local copy.
    fn quarantine_conflict(&self, key: &str, body: &str) {
        let qdir = self.dir.join(QUARANTINE_DIR);
        let _ = fs::create_dir_all(&qdir);
        if fs::write(qdir.join(format!("{key}.conflict.json")), body).is_ok() {
            self.telemetry.quarantined.fetch_add(1, Ordering::Relaxed);
            let _ = fs::write(
                qdir.join(format!("{key}.conflict.reason.txt")),
                format!(
                    "replication conflict detected by pid {}: incoming bytes differ from \
                     the local entry for this key\n",
                    std::process::id()
                ),
            );
        }
    }

    /// `(key, mtime unix-seconds)` for every live entry, sorted by key.
    /// With `since`, entries modified before `since - 1` are filtered out
    /// (one second of slack absorbs filesystem timestamp granularity).
    pub fn manifest(&self, since: Option<u64>) -> Vec<(String, u64)> {
        let floor = since.map(|s| s.saturating_sub(1));
        let mut cells: Vec<(String, u64)> = self
            .entry_paths()
            .filter_map(|p| {
                let key = p.file_stem()?.to_str()?.to_string();
                let mtime = fs::metadata(&p)
                    .ok()?
                    .modified()
                    .ok()?
                    .duration_since(std::time::UNIX_EPOCH)
                    .ok()?
                    .as_secs();
                Some((key, mtime))
            })
            .filter(|(_, mtime)| floor.is_none_or(|f| *mtime >= f))
            .collect();
        cells.sort();
        cells
    }

    /// Every live `*.json` entry path on disk, in directory order. Only
    /// the two-hex-char shard directories count: `quarantine/` (and any
    /// other bookkeeping subdirectory) is not part of the live cache.
    fn entry_paths(&self) -> impl Iterator<Item = PathBuf> + '_ {
        fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|d| {
                let name = d.file_name();
                let name = name.to_string_lossy();
                name.len() == 2 && name.bytes().all(|b| b.is_ascii_hexdigit()) && d.path().is_dir()
            })
            .filter_map(|d| fs::read_dir(d.path()).ok())
            .flat_map(|entries| entries.flatten())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
    }

    /// Number of entries on disk (status reporting).
    pub fn len(&self) -> usize {
        self.entry_paths().count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Walk every live entry, quarantining the ones that fail to parse.
    /// Returns `(entries_checked, corrupt_quarantined)`. This is the
    /// `fsck` scrub pass: unlike the lazy lookup path it touches the
    /// whole tree, so rot in cells no campaign is currently polling is
    /// found too. Run it on a quiescent cache — a writer racing the scan
    /// can publish an entry the walk misses (harmless: the next scrub
    /// sees it).
    pub fn scrub(&self) -> (usize, usize) {
        let paths: Vec<PathBuf> = self.entry_paths().collect();
        let mut quarantined = 0usize;
        for path in &paths {
            let rotten = fs::read_to_string(path)
                .map(|t| serde_json::from_str::<CacheEntry>(&t).is_err())
                .unwrap_or(true);
            if rotten {
                if let Some(key) = path.file_stem().and_then(|s| s.to_str()) {
                    self.telemetry.corrupt.fetch_add(1, Ordering::Relaxed);
                    self.quarantine(key, "failed to deserialize during scrub");
                    quarantined += 1;
                }
            }
        }
        (paths.len(), quarantined)
    }

    /// Directories a killed writer can strand `*.tmp` files in: the
    /// shard dirs (cache entries) and `pending/*/` (accepted campaigns).
    fn tmp_dirs(&self) -> Vec<PathBuf> {
        let subdirs = |dir: &Path| {
            fs::read_dir(dir)
                .into_iter()
                .flatten()
                .flatten()
                .map(|d| d.path())
                .filter(|p| p.is_dir())
        };
        let shard = |d: &PathBuf| {
            let name = d.file_name().unwrap_or_default().to_string_lossy();
            name.len() == 2 && name.bytes().all(|b| b.is_ascii_hexdigit())
        };
        subdirs(&self.dir)
            .filter(shard)
            .chain(subdirs(&self.dir.join(crate::pending::PENDING_DIR)))
            .chain([self.dir.clone()])
            .collect()
    }

    /// Every orphan-candidate `*.tmp*` file under the cache tree.
    fn tmp_paths(&self) -> Vec<PathBuf> {
        self.tmp_dirs()
            .into_iter()
            .filter_map(|d| fs::read_dir(d).ok())
            .flat_map(|entries| entries.flatten())
            .map(|e| e.path())
            .filter(|p| {
                p.is_file()
                    && p.file_name().map(|n| n.to_string_lossy().contains(".tmp")).unwrap_or(false)
            })
            .collect()
    }

    /// Number of `*.tmp` files currently in the tree (status reporting).
    pub fn tmp_files(&self) -> usize {
        self.tmp_paths().len()
    }

    /// Delete `*.tmp` files older than `older_than` and return how many
    /// were reaped. The age threshold is the safety margin that keeps a
    /// racing *live* writer's seconds-old tmp file untouched; a file a
    /// killed writer stranded only gets older. An unreadable mtime means
    /// "not provably old" — the file is skipped, never reaped.
    pub fn reap_tmp(&self, older_than: Duration) -> usize {
        let mut reaped = 0usize;
        for path in self.tmp_paths() {
            let old = fs::metadata(&path)
                .and_then(|m| m.modified())
                .ok()
                .and_then(|m| m.elapsed().ok())
                .is_some_and(|age| age >= older_than);
            if old && fs::remove_file(&path).is_ok() {
                reaped += 1;
            }
        }
        reaped
    }

    /// Age of the oldest quarantined entry, if any — surfaced in stats
    /// so forgotten quarantine evidence shows up instead of rotting
    /// silently forever.
    pub fn quarantine_oldest_age(&self) -> Option<Duration> {
        fs::read_dir(self.dir.join(QUARANTINE_DIR))
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .filter_map(|e| e.metadata().ok()?.modified().ok()?.elapsed().ok())
            .max()
    }

    /// Remove quarantined entries (and their reason files) older than
    /// `older_than`. Returns the number of entries removed. This is the
    /// `fsck --gc` pass: quarantine is evidence, not a landfill.
    pub fn quarantine_gc(&self, older_than: Duration) -> usize {
        let qdir = self.dir.join(QUARANTINE_DIR);
        let mut removed = 0usize;
        for entry in fs::read_dir(&qdir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.extension().is_none_or(|x| x != "json") {
                continue;
            }
            let old = entry
                .metadata()
                .ok()
                .and_then(|m| m.modified().ok())
                .and_then(|m| m.elapsed().ok())
                .is_some_and(|age| age >= older_than);
            if old && fs::remove_file(&path).is_ok() {
                removed += 1;
                if let Some(key) = path.file_stem().and_then(|s| s.to_str()) {
                    let _ = fs::remove_file(qdir.join(format!("{key}.reason.txt")));
                }
            }
        }
        removed
    }
}

fn io_err(e: serde_json::Error) -> std::io::Error {
    std::io::Error::other(e.0)
}

/// Is `key` a well-formed cache key (64 lowercase hex chars, a SHA-256)?
/// Keys that arrive from outside — a request path — must pass this
/// before they name a file.
pub(crate) fn valid_cell_key(key: &str) -> bool {
    key.len() == 64 && key.bytes().all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
}

/// The workspace's one way to publish a file: write `bytes` to a unique
/// sibling `<path>.tmp.<pid>.<seq>` (creating the directory as needed),
/// then rename it over `path`, so a reader sees the old file or the
/// complete new one, never a torn write.
/// With `durable`, the tmp file is fsynced before the rename and the
/// directory after it, extending the guarantee from process death to
/// host power loss. The tmp name is unique per write: concurrent writers
/// of one deterministic payload must not share a tmp path, or the
/// loser's rename fails; last-writer-wins on the final name is correct.
pub fn write_atomic(path: &Path, bytes: &[u8], durable: bool) -> std::io::Result<()> {
    let tmp = write_tmp(path, bytes, durable)?;
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    match path.parent() {
        Some(dir) if durable => fs::File::open(dir)?.sync_all(),
        _ => Ok(()),
    }
}

/// The first half of [`write_atomic`]: `bytes` in a fresh tmp sibling of
/// `path` (fsynced when `durable`). Returns the tmp path.
pub(crate) fn write_tmp(path: &Path, bytes: &[u8], durable: bool) -> std::io::Result<PathBuf> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}.{}", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed)));
    let tmp = path.with_file_name(name);
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut file = fs::File::create(&tmp)?;
    std::io::Write::write_all(&mut file, bytes)?;
    if durable {
        file.sync_all()?;
    }
    Ok(tmp)
}

#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
struct CacheEntry {
    version: String,
    descriptor: serde_json::Value,
    result: SimResult,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsmt_core::SimStats;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hdsmt-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn fake_result() -> SimResult {
        SimResult { arch: "M8".into(), mapping: vec![0, 0], stats: SimStats::default() }
    }

    #[test]
    fn put_get_round_trip() {
        let dir = tmpdir("roundtrip");
        let cache = ResultCache::open(&dir).unwrap();
        let key = ResultCache::key_for("{\"job\":1}");
        assert!(!cache.contains(&key));
        assert!(cache.get(&key).is_none());
        cache.put(&key, "{\"job\":1}", &fake_result()).unwrap();
        assert!(cache.contains(&key));
        let got = cache.get(&key).unwrap();
        assert_eq!(got.arch, "M8");
        assert_eq!(got.mapping, vec![0, 0]);
        assert_eq!(cache.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupt_entry_read_through_get_is_quarantined() {
        let dir = tmpdir("corrupt-get");
        let cache = ResultCache::open(&dir).unwrap();
        let key = ResultCache::key_for("{\"job\":4}");
        cache.put(&key, "{\"job\":4}", &fake_result()).unwrap();
        assert!(cache.get(&key).is_some());
        // Valid JSON of the wrong shape: it parses, but not as an entry.
        let path = dir.join(&key[..2]).join(format!("{key}.json"));
        fs::write(&path, "{\"version\": 1}").unwrap();

        assert!(cache.get(&key).is_none(), "a corrupt entry reads as a miss");
        assert!(!cache.contains(&key), "quarantine removes the live entry");
        assert_eq!(cache.quarantined_entries(), 1);
        assert!(dir.join(QUARANTINE_DIR).join(format!("{key}.json")).is_file());
        assert!(cache.get(&key).is_none(), "then a clean miss");
        let counters = cache.counters();
        assert_eq!((counters.hits, counters.corrupt, counters.misses), (1, 1, 1), "{counters:?}");
        assert_eq!(counters.quarantined, 1, "{counters:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_served_as_a_miss() {
        let dir = tmpdir("corrupt");
        let cache = ResultCache::open(&dir).unwrap();
        let key = ResultCache::key_for("{\"job\":2}");
        let good = ResultCache::key_for("{\"job\":3}");
        cache.put(&key, "{\"job\":2}", &fake_result()).unwrap();
        cache.put(&good, "{\"job\":3}", &fake_result()).unwrap();
        // Truncate one entry mid-file — the shape an interrupted write
        // would leave if the tmp+rename protocol were ever violated.
        let path = dir.join(&key[..2]).join(format!("{key}.json"));
        fs::write(&path, "{ truncated").unwrap();

        // First lookup detects the rot, reports it, and quarantines the
        // bytes; the file leaves the live tree.
        assert_eq!(cache.entry_text(&key), EntryLookup::Corrupt);
        assert!(!cache.contains(&key), "quarantine removes the live entry");
        assert_eq!(cache.quarantined_entries(), 1);
        assert_eq!(cache.len(), 1, "quarantined entries are not live entries");
        assert_eq!(cache.corrupt_entries(), 0, "the live tree is clean again");
        let reason = dir.join(QUARANTINE_DIR).join(format!("{key}.reason.txt"));
        assert!(reason.is_file(), "a reason file documents the quarantine");

        // Subsequent lookups are clean misses; siblings are unaffected.
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.entry_text(&key), EntryLookup::Miss);
        assert!(cache.get(&good).is_some(), "sibling entries are unaffected");

        // Telemetry distinguishes the outcomes — and is shared across
        // clones (the daemon holds clones per worker).
        let counters = cache.clone().counters();
        assert_eq!(counters.corrupt, 1, "{counters:?}");
        assert_eq!(counters.quarantined, 1, "{counters:?}");
        assert_eq!(counters.hits, 1, "{counters:?}");
        assert_eq!(counters.misses, 2, "{counters:?}");

        // Re-simulating re-creates the entry and heals the cache; the
        // quarantined evidence stays put.
        cache.put(&key, "{\"job\":2}", &fake_result()).unwrap();
        assert!(cache.get(&key).is_some());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.quarantined_entries(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_quarantines_rot_the_lookup_path_never_touched() {
        let dir = tmpdir("scrub");
        let cache = ResultCache::open(&dir).unwrap();
        let good = ResultCache::key_for("{\"job\":10}");
        let bad = ResultCache::key_for("{\"job\":11}");
        cache.put(&good, "{\"job\":10}", &fake_result()).unwrap();
        cache.put(&bad, "{\"job\":11}", &fake_result()).unwrap();
        fs::write(dir.join(&bad[..2]).join(format!("{bad}.json")), "not json").unwrap();

        let (checked, quarantined) = cache.scrub();
        assert_eq!(checked, 2);
        assert_eq!(quarantined, 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.quarantined_entries(), 1);
        assert_eq!(cache.scrub(), (1, 0), "a second scrub finds a clean tree");

        // --gc with a zero threshold clears the quarantine, reason files
        // included; a huge threshold removes nothing.
        assert_eq!(cache.quarantine_gc(Duration::from_secs(1 << 20)), 0);
        assert!(cache.quarantine_oldest_age().is_some());
        assert_eq!(cache.quarantine_gc(Duration::ZERO), 1);
        assert_eq!(cache.quarantined_entries(), 0);
        assert!(cache.quarantine_oldest_age().is_none());
        assert!(
            !dir.join(QUARANTINE_DIR).join(format!("{bad}.reason.txt")).exists(),
            "gc removes the reason file with the entry"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_reaping_respects_the_age_threshold() {
        let dir = tmpdir("reap");
        let cache = ResultCache::open(&dir).unwrap();
        let key = ResultCache::key_for("{\"job\":20}");
        cache.put(&key, "{\"job\":20}", &fake_result()).unwrap();
        // Strand tmp files where killed writers leave them: a shard dir
        // and a pending-accept role dir.
        let shard = dir.join(&key[..2]);
        fs::write(shard.join(format!("{key}.json.tmp.999.0")), "orphan").unwrap();
        let role = dir.join(crate::pending::PENDING_DIR).join("serve");
        fs::create_dir_all(&role).unwrap();
        fs::write(role.join("c1-aa.spec.tmp.999.1"), "orphan").unwrap();
        assert_eq!(cache.tmp_files(), 2);

        // Fresh files survive a thresholded reap (they might be a live
        // writer's), then a zero threshold takes them all.
        assert_eq!(cache.reap_tmp(Duration::from_secs(1 << 20)), 0);
        assert_eq!(cache.tmp_files(), 2);
        assert_eq!(cache.reap_tmp(Duration::ZERO), 2);
        assert_eq!(cache.tmp_files(), 0);
        assert!(cache.contains(&key), "live entries are untouched");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_put_round_trips() {
        let dir = tmpdir("durable");
        let cache = ResultCache::open(&dir).unwrap().with_durable(true);
        let key = ResultCache::key_for("{\"job\":30}");
        cache.put(&key, "{\"job\":30}", &fake_result()).unwrap();
        assert!(cache.get(&key).is_some());
        assert_eq!(cache.tmp_files(), 0, "no tmp file survives a durable put");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_depends_on_descriptor_and_version() {
        let a = ResultCache::key_for("{\"a\":1}");
        let b = ResultCache::key_for("{\"a\":2}");
        assert_ne!(a, b);
        assert_eq!(a, ResultCache::key_for("{\"a\":1}"));
        assert_eq!(a.len(), 64);
    }
}
