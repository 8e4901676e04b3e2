//! Deterministic fault injection for chaos testing.
//!
//! Every failure mode the fault-tolerance layer handles — process
//! crashes, torn cache writes, cache I/O errors, hung simulations — can
//! be injected on a fixed schedule, so chaos scenarios are reproducible
//! tests instead of flakes. Injection is doubly gated: the crate must be
//! built with the `fault-inject` feature **and** the process must carry
//! a plan in the `HDSMT_FAULT` environment variable. Production builds
//! compile every hook to a no-op.
//!
//! # Plan grammar
//!
//! A plan is `;`-separated directives, each `kind@counter=n[,n...]`:
//!
//! | Directive        | Effect when the counter reaches `n`                  |
//! |------------------|------------------------------------------------------|
//! | `hang@sim=n`     | the n-th simulation wedges until its watchdog deadline |
//! | `corrupt@put=n`  | the n-th cache write is torn (payload truncated)     |
//! | `err@put=n`      | the n-th cache write fails with an injected I/O error |
//! | `kill@accept=n`  | abort right after the n-th durably recorded campaign accept |
//! | `err@journal=n`  | the n-th pending-accept write fails with an injected I/O error |
//! | `torn@journal=n` | the n-th pending-accept write fsyncs half its bytes to the tmp file, then the process aborts before the rename |
//!
//! Counters are per-process and count from 1, so a restarted daemon
//! replays the same schedule — which is exactly what makes chaos runs
//! deterministic: with one simulation worker, the k-th simulation of
//! each incarnation is always the same cell.
//!
//! Example: `HDSMT_FAULT='hang@sim=1;corrupt@put=3'`.

use std::time::Instant;

/// One parsed `HDSMT_FAULT` plan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub hang_sim: Vec<u64>,
    pub corrupt_put: Vec<u64>,
    pub err_put: Vec<u64>,
    pub kill_accept: Vec<u64>,
    pub err_journal: Vec<u64>,
    pub torn_journal: Vec<u64>,
}

impl FaultPlan {
    pub fn is_empty(&self) -> bool {
        self.hang_sim.is_empty()
            && self.corrupt_put.is_empty()
            && self.err_put.is_empty()
            && self.kill_accept.is_empty()
            && self.err_journal.is_empty()
            && self.torn_journal.is_empty()
    }
}

/// Parse a plan (see the module docs for the grammar).
pub fn parse_plan(text: &str) -> Result<FaultPlan, String> {
    fn count(directive: &str, n: &str) -> Result<u64, String> {
        let n: u64 = n
            .parse()
            .map_err(|_| format!("fault directive `{directive}`: `{n}` is not a count"))?;
        if n == 0 {
            return Err(format!("fault directive `{directive}`: counts start at 1"));
        }
        Ok(n)
    }
    let mut plan = FaultPlan::default();
    for directive in text.split(';').map(str::trim).filter(|d| !d.is_empty()) {
        let (head, counts) = directive
            .split_once('=')
            .ok_or_else(|| format!("fault directive `{directive}` has no `=n` part"))?;
        let list: &mut Vec<u64> = match head.trim() {
            "hang@sim" => &mut plan.hang_sim,
            "corrupt@put" => &mut plan.corrupt_put,
            "err@put" => &mut plan.err_put,
            "kill@accept" => &mut plan.kill_accept,
            "err@journal" => &mut plan.err_journal,
            "torn@journal" => &mut plan.torn_journal,
            other => return Err(format!("unknown fault directive `{other}`")),
        };
        for n in counts.split(',').map(str::trim) {
            list.push(count(directive, n)?);
        }
    }
    Ok(plan)
}

/// What [`on_sim_start`] decided for this simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimStart {
    /// Run normally.
    Run,
    /// The simulation "hung": the hook already burned the watchdog
    /// deadline; the caller should take its timeout path.
    Hung,
}

#[cfg(feature = "fault-inject")]
mod active {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::OnceLock;

    pub(super) static SIMS: AtomicU64 = AtomicU64::new(0);
    pub(super) static PUTS: AtomicU64 = AtomicU64::new(0);
    pub(super) static ACCEPTS: AtomicU64 = AtomicU64::new(0);
    pub(super) static PENDING_WRITES: AtomicU64 = AtomicU64::new(0);

    /// The process-wide plan, read from `HDSMT_FAULT` exactly once. A
    /// malformed plan aborts loudly: silently running a chaos test with
    /// no faults would make every scenario vacuously green.
    pub(super) fn plan() -> Option<&'static FaultPlan> {
        static PLAN: OnceLock<Option<FaultPlan>> = OnceLock::new();
        PLAN.get_or_init(|| {
            let text = std::env::var("HDSMT_FAULT").ok()?;
            match parse_plan(&text) {
                Ok(p) if p.is_empty() => None,
                Ok(p) => Some(p),
                Err(e) => panic!("invalid HDSMT_FAULT plan: {e}"),
            }
        })
        .as_ref()
    }
}

/// Called as each simulation starts (cache misses only). May burn the
/// watchdog deadline (`hang@sim`).
#[cfg_attr(not(feature = "fault-inject"), allow(unused_variables))]
pub fn on_sim_start(deadline: Option<Instant>) -> SimStart {
    #[cfg(feature = "fault-inject")]
    {
        use std::sync::atomic::Ordering;
        let Some(plan) = active::plan() else { return SimStart::Run };
        let n = active::SIMS.fetch_add(1, Ordering::Relaxed) + 1;
        if plan.hang_sim.contains(&n) {
            // Emulate a wedged simulation: block until the watchdog
            // deadline passes, hard-capped so an unconfigured watchdog
            // cannot wedge a test suite forever.
            let cap = Instant::now() + std::time::Duration::from_secs(5);
            let until = deadline.map_or(cap, |d| d.min(cap));
            while Instant::now() < until {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            return SimStart::Hung;
        }
    }
    SimStart::Run
}

/// Called with each cache write's payload before it hits disk. May tear
/// the payload (`corrupt@put`) or fail the write (`err@put`).
#[cfg_attr(not(feature = "fault-inject"), allow(unused_variables))]
pub fn on_cache_put(payload: &mut Vec<u8>) -> std::io::Result<()> {
    #[cfg(feature = "fault-inject")]
    {
        use std::sync::atomic::Ordering;
        if let Some(plan) = active::plan() {
            let n = active::PUTS.fetch_add(1, Ordering::Relaxed) + 1;
            if plan.err_put.contains(&n) {
                eprintln!("fault-inject: err@put={n}");
                return Err(std::io::Error::other("injected cache write failure (err@put)"));
            }
            if plan.corrupt_put.contains(&n) {
                eprintln!("fault-inject: corrupt@put={n}");
                payload.truncate(payload.len() / 2);
            }
        }
    }
    let _ = payload;
    Ok(())
}

/// What [`on_pending_write`] decided for this accept.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PendingWrite {
    /// Publish the file normally.
    Write,
    /// The bytes were torn in place (`torn@journal`); the writer must
    /// persist them to the tmp file and abort before the rename,
    /// emulating a power loss mid-accept.
    TornAbort,
}

/// Called right after a campaign accept is durably recorded, before the
/// 202 is sent. May abort the process (`kill@accept`) — the canonical
/// "daemon died between the durable write and the reply" crash point.
pub fn on_accept() {
    #[cfg(feature = "fault-inject")]
    {
        use std::sync::atomic::Ordering;
        if let Some(plan) = active::plan() {
            let n = active::ACCEPTS.fetch_add(1, Ordering::Relaxed) + 1;
            if plan.kill_accept.contains(&n) {
                eprintln!("fault-inject: kill@accept={n} — aborting");
                std::process::abort();
            }
        }
    }
}

/// Called with each pending-accept file's bytes before they hit disk
/// (accepts only; resolving unlinks, which is no write). May fail the
/// write (`err@journal` → the API degrades to 503) or tear the bytes
/// (`torn@journal` → half persist in the tmp file, then the process
/// aborts before the rename).
#[cfg_attr(not(feature = "fault-inject"), allow(unused_variables))]
pub fn on_pending_write(bytes: &mut Vec<u8>) -> std::io::Result<PendingWrite> {
    #[cfg(feature = "fault-inject")]
    {
        use std::sync::atomic::Ordering;
        if let Some(plan) = active::plan() {
            let n = active::PENDING_WRITES.fetch_add(1, Ordering::Relaxed) + 1;
            if plan.err_journal.contains(&n) {
                eprintln!("fault-inject: err@journal={n}");
                return Err(std::io::Error::other("injected pending write failure (err@journal)"));
            }
            if plan.torn_journal.contains(&n) {
                eprintln!("fault-inject: torn@journal={n}");
                bytes.truncate(bytes.len() / 2);
                return Ok(PendingWrite::TornAbort);
            }
        }
    }
    let _ = bytes;
    Ok(PendingWrite::Write)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_directive_kind_and_multi_counts() {
        let plan = parse_plan(
            "hang@sim=1,2,7 ;corrupt@put=2;err@put=9;kill@accept=1;err@journal=2;\
             torn@journal=5",
        )
        .unwrap();
        assert_eq!(plan.hang_sim, vec![1, 2, 7]);
        assert_eq!(plan.corrupt_put, vec![2]);
        assert_eq!(plan.err_put, vec![9]);
        assert_eq!(plan.kill_accept, vec![1]);
        assert_eq!(plan.err_journal, vec![2]);
        assert_eq!(plan.torn_journal, vec![5]);
        assert!(parse_plan("").unwrap().is_empty());
        assert!(parse_plan(" ; ").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_plans() {
        for bad in ["hang@sim", "boom@sim=1", "hang@sim=x", "hang@sim=0", "hang=1", "kill@sim=1"] {
            assert!(parse_plan(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn hooks_are_inert_without_a_plan() {
        // Whatever the build features, a test process without HDSMT_FAULT
        // must see every hook as a no-op.
        assert_eq!(on_sim_start(None), SimStart::Run);
        let mut payload = b"{\"ok\":true}".to_vec();
        on_cache_put(&mut payload).unwrap();
        assert_eq!(payload, b"{\"ok\":true}");
        on_accept();
        let mut bytes = vec![1u8, 2, 3, 4];
        assert_eq!(on_pending_write(&mut bytes).unwrap(), PendingWrite::Write);
        assert_eq!(bytes, vec![1, 2, 3, 4]);
    }
}
