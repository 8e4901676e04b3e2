//! Durable record of accepted-but-unfinished campaigns.
//!
//! Each accept is one file, `<cache>/pending/<role>/<id>.spec`, holding
//! the verbatim spec text. It is published with [`write_atomic`] *before*
//! the 202 leaves the daemon and deleted when the campaign reaches `done`
//! or `failed`. The rename is the commit point, so a torn record cannot
//! exist: after a crash a file is either complete or still a `*.tmp*`
//! the reaper collects. Deletion is best-effort and unsynced — a file
//! that comes back only causes an idempotent replay from the cache.
//!
//! On open the role directory is replayed in id order; a file that
//! cannot be (not UTF-8, no id sequence, a spec that no longer parses or
//! expands) is logged and removed rather than wedging recovery.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use crate::cache::{write_atomic, write_tmp};
use crate::hash::sha256_hex;
use crate::spec::CampaignSpec;

/// Subdirectory of the cache root holding one directory per role.
pub const PENDING_DIR: &str = "pending";

/// One accepted campaign recovered at open.
#[derive(Clone, Debug)]
pub struct Replayed {
    pub id: String,
    /// The spec text the client submitted, parsed and checked to expand.
    pub spec: CampaignSpec,
}

/// The pending-accept directory of one role (`serve` or
/// `serve-shard-i-of-n`).
#[derive(Debug)]
pub struct Pending {
    dir: PathBuf,
    /// What `open` recovered, until the daemon takes it.
    recovered: Mutex<Vec<Replayed>>,
    /// How many campaigns `open` recovered (surfaced in `GET /stats`).
    pub replayed: u64,
}

impl Pending {
    /// Open (creating as needed) the directory for `role` and replay what
    /// a previous incarnation left, in id order.
    pub fn open(cache_dir: &Path, role: &str) -> io::Result<Pending> {
        let dir = cache_dir.join(PENDING_DIR).join(role);
        fs::create_dir_all(&dir)?;
        let mut files: Vec<(Option<u64>, String)> =
            spec_ids(&dir).into_iter().map(|id| (id_seq(&id), id)).collect();
        files.sort();
        let mut recovered = Vec::new();
        for (seq, id) in files {
            let path = dir.join(format!("{id}.spec"));
            let revived = match (seq, fs::read(&path)) {
                (None, _) => Err("the id has no sequence number".to_string()),
                (_, Err(e)) => Err(format!("unreadable: {e}")),
                (Some(_), Ok(bytes)) => String::from_utf8(bytes)
                    .map_err(|_| "not UTF-8".to_string())
                    .and_then(|text| crate::engine::admit(&text).map_err(|e| e.0)),
            };
            match revived {
                Ok(spec) => recovered.push(Replayed { id, spec }),
                Err(why) => {
                    eprintln!("pending replay: dropping campaign {id}: {why}");
                    let _ = fs::remove_file(&path);
                }
            }
        }
        let replayed = recovered.len() as u64;
        Ok(Pending { dir, recovered: Mutex::new(recovered), replayed })
    }

    fn path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.spec"))
    }

    /// The campaigns recovered at open, handed out once.
    pub fn take_recovered(&self) -> Vec<Replayed> {
        std::mem::take(&mut *self.recovered.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Durably record an accept. Only returns `Ok` once the file is
    /// published and on stable storage — callers answer the client
    /// *after* this. Failures (ENOSPC, injected `err@journal`) surface as
    /// `Err` so the API can degrade to 503 + Retry-After.
    pub fn accept(&self, id: &str, spec_text: &str) -> io::Result<()> {
        let path = self.path(id);
        let mut bytes = spec_text.as_bytes().to_vec();
        if crate::fault::on_pending_write(&mut bytes)? == crate::fault::PendingWrite::TornAbort {
            // Half the bytes durably in the tmp file, no rename — exactly
            // what a power loss mid-accept leaves — now die like one.
            let _ = write_tmp(&path, &bytes, true);
            eprintln!("fault-inject: torn@journal — torn accept persisted, aborting");
            std::process::abort();
        }
        write_atomic(&path, &bytes, true)
    }

    /// Delete a finished campaign's file, best-effort: a failure is
    /// logged and only costs a redundant — idempotent — replay after the
    /// next restart.
    pub fn resolve(&self, id: &str) {
        match fs::remove_file(self.path(id)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => {
                eprintln!("pending: failed to resolve {id}: {e}");
            }
            _ => {}
        }
    }

    /// Pending files this role holds right now.
    pub fn held(&self) -> u64 {
        spec_ids(&self.dir).len() as u64
    }
}

/// The ids of every published `<id>.spec` in `dir`; tmp files are left
/// for the reaper.
fn spec_ids(dir: &Path) -> Vec<String> {
    fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|name| !name.contains(".tmp"))
        .filter_map(|name| name.strip_suffix(".spec").map(str::to_string))
        .collect()
}

/// Pending accepts per role under `cache_dir`, sorted by role — the
/// `status` verb's lines and `fsck`'s total.
pub fn counts(cache_dir: &Path) -> Vec<(String, u64)> {
    let mut roles: Vec<(String, u64)> = fs::read_dir(cache_dir.join(PENDING_DIR))
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().is_dir())
        .map(|e| (e.file_name().to_string_lossy().into_owned(), spec_ids(&e.path()).len() as u64))
        .collect();
    roles.sort();
    roles
}

/// A campaign id: `c<seq>-<first 8 hex of the spec's SHA-256>`.
pub(crate) fn campaign_id(seq: u64, spec_text: &str) -> String {
    let digest = sha256_hex(spec_text.as_bytes());
    // Always 64 hex chars, but this is a durability path: degrade to the
    // full digest rather than slicing.
    format!("c{seq}-{}", digest.get(..8).unwrap_or(&digest))
}

/// The sequence number inside a campaign id (`c12-ab…` → 12). Recovery seeds the daemon's id counter past the replayed maximum
/// so fresh submissions never collide with revived campaigns.
pub(crate) fn id_seq(id: &str) -> Option<u64> {
    let digits: String = id
        .chars()
        .skip_while(|c| c.is_ascii_alphabetic())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "name = \"t\"\narchs = [\"M8\"]\nworkloads = [\"2W1\"]\n";

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("hdsmt-pending-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn accept_replay_and_resolve_round_trip() {
        let dir = tmpdir("roundtrip");
        let pending = Pending::open(&dir, "serve").unwrap();
        assert!(pending.take_recovered().is_empty());
        pending.accept("c1-aa", SPEC).unwrap();
        pending.accept("c2-bb", SPEC).unwrap();
        pending.resolve("c1-aa");
        pending.resolve("c1-aa"); // idempotent
        assert_eq!(pending.held(), 1);
        assert_eq!(counts(&dir), vec![("serve".to_string(), 1)]);

        let pending = Pending::open(&dir, "serve").unwrap();
        let replayed = pending.take_recovered();
        assert_eq!(replayed.len(), 1, "resolved campaigns are not pending");
        assert_eq!(replayed[0].id, "c2-bb");
        assert_eq!(replayed[0].spec.display_name(), "t");
        assert_eq!((pending.held(), pending.replayed), (1, 1));
        assert!(pending.take_recovered().is_empty(), "handed out once");
        let shard = Pending::open(&dir, "serve-shard-0-of-2").unwrap();
        assert_eq!(shard.replayed, 0, "roles are separate");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_survives_junk_and_leaves_tmp_files_for_the_reaper() {
        let dir = tmpdir("junk");
        let role = dir.join(PENDING_DIR).join("serve");
        fs::create_dir_all(&role).unwrap();
        fs::write(role.join("c5-bad.spec"), [0xff, 0xfe, 0x00, 0x80]).unwrap();
        fs::write(role.join("c6-empty.spec"), "").unwrap();
        fs::write(role.join("c7-garbled.spec"), "archs = [\"M8\"\n[[[").unwrap();
        fs::write(role.join("x.spec.tmp.1.0"), SPEC).unwrap();
        fs::write(role.join("c8-notes.txt"), SPEC).unwrap();
        fs::write(role.join("nodigits.spec"), SPEC).unwrap();
        fs::write(role.join("c10-late.spec"), SPEC).unwrap();
        fs::write(role.join("c9-early.spec"), SPEC).unwrap();

        let pending = Pending::open(&dir, "serve").unwrap();
        let ids: Vec<String> = pending.take_recovered().into_iter().map(|r| r.id).collect();
        assert_eq!(ids, ["c9-early", "c10-late"], "numeric id order, valid specs only");
        assert_eq!(pending.held(), 2);
        for gone in ["c5-bad", "c6-empty", "c7-garbled", "nodigits"] {
            assert!(!role.join(format!("{gone}.spec")).exists(), "{gone} is removed");
        }
        assert!(role.join("x.spec.tmp.1.0").exists(), "tmp files belong to the reaper");
        assert!(role.join("c8-notes.txt").exists(), "foreign files are left alone");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn id_seq_parses_the_sequence_prefix() {
        assert_eq!(id_seq("c12-deadbeef"), Some(12));
        assert_eq!(id_seq("c3-00aa11"), Some(3));
        assert_eq!(id_seq("garbage"), None);
        assert_eq!(id_seq(""), None);
    }
}
