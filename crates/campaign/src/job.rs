//! The unit of campaign work: one deterministic simulation, fully
//! described by a serializable [`JobSpec`] — which is also its cache
//! identity — plus the cached [`JobRunner`] that executes batches of
//! them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdsmt_core::{run_sim, run_sim_interruptible, FetchPolicy, SimConfig, SimResult, ThreadSpec};
use hdsmt_pipeline::MicroArch;

use crate::cache::ResultCache;

/// Default worker count for batch campaigns (`run`, `export`,
/// `reproduce`): every available core. A batch run owns its host for its
/// lifetime, and its simulations are independent. Only the sweep daemon
/// keeps a reserve (`serve::state::daemon_workers`), because it shares
/// its host with its clients and its HTTP acceptor.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Indices of `jobs` grouped by cache key, groups in order of each
/// key's first appearance.
fn group_by_key(jobs: &[JobSpec]) -> Vec<Vec<usize>> {
    let mut group_of: HashMap<String, usize> = HashMap::with_capacity(jobs.len());
    let mut groups: Vec<Vec<usize>> = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let g = *group_of.entry(job.key()).or_insert(groups.len());
        if g == groups.len() {
            groups.push(Vec::new());
        }
        groups[g].push(i);
    }
    groups
}

/// Human-readable panic payload (the `&str`/`String` forms `panic!`
/// produces).
fn payload_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One software thread of a job: benchmark model + stream seed.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct JobThread {
    pub bench: String,
    pub seed: u64,
}

/// A complete, self-contained description of one simulation run.
///
/// Serializing a `JobSpec` to canonical JSON and hashing it (plus the
/// code-version salt) yields the job's cache key; two jobs with equal
/// specs are bit-identical simulations, because the simulator is
/// deterministic.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct JobSpec {
    /// Microarchitecture name (`M8`, `2M4+2M2`, ...).
    pub arch: String,
    pub threads: Vec<JobThread>,
    /// Thread i runs on pipeline `mapping[i]`.
    pub mapping: Vec<u8>,
    /// Per-thread retire target after warm-up.
    pub max_insts: u64,
    /// Committed instructions before statistics reset.
    pub warmup_insts: u64,
    /// Fetch-policy override (`icount`/`flush`/`l1mcount`/`rr`);
    /// `None` = the paper's per-architecture rule.
    pub fetch_policy: Option<String>,
    /// Register-file latency override; `None` = the §4 rule.
    pub regfile_lat: Option<u32>,
}

/// Spec/expansion error with a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignError(pub String);

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CampaignError {}

impl JobSpec {
    /// Canonical JSON descriptor (field order is fixed by the struct).
    pub fn descriptor(&self) -> String {
        serde_json::to_string(self).expect("JobSpec serializes")
    }

    /// Content hash identifying this job in the result cache.
    pub fn key(&self) -> String {
        ResultCache::key_for(&self.descriptor())
    }

    fn parse_fetch_policy(name: &str) -> Result<FetchPolicy, CampaignError> {
        match name.to_ascii_lowercase().as_str() {
            "icount" => Ok(FetchPolicy::Icount),
            "flush" => Ok(FetchPolicy::Flush),
            "l1mcount" => Ok(FetchPolicy::L1mcount),
            "rr" | "round-robin" | "roundrobin" => Ok(FetchPolicy::RoundRobin),
            other => Err(CampaignError(format!("unknown fetch policy `{other}`"))),
        }
    }

    /// Validate the job and build its simulator configuration — cheap
    /// (no program synthesis), suitable for batch pre-flight checks.
    pub fn check(&self) -> Result<SimConfig, CampaignError> {
        let arch = MicroArch::parse(&self.arch)
            .map_err(|e| CampaignError(format!("bad arch `{}`: {e}", self.arch)))?;
        if self.threads.is_empty() {
            return Err(CampaignError("job has no threads".into()));
        }
        if self.mapping.len() != self.threads.len() {
            return Err(CampaignError(format!(
                "mapping length {} != thread count {}",
                self.mapping.len(),
                self.threads.len()
            )));
        }
        for t in &self.threads {
            // Either front-end: synthetic models or `rv:*` programs.
            if !ThreadSpec::exists(&t.bench) {
                return Err(CampaignError(format!("unknown benchmark `{}`", t.bench)));
            }
        }
        for (i, &p) in self.mapping.iter().enumerate() {
            if p as usize >= arch.pipes.len() {
                return Err(CampaignError(format!(
                    "thread {i} mapped to pipeline {p}, but {} has {} pipelines",
                    self.arch,
                    arch.pipes.len()
                )));
            }
        }
        let mut cfg = SimConfig::paper_defaults(arch, self.max_insts);
        cfg.warmup_insts = self.warmup_insts;
        if let Some(fp) = &self.fetch_policy {
            cfg.fetch_policy = Self::parse_fetch_policy(fp)?;
        }
        cfg.regfile_lat = self.regfile_lat;
        cfg.validate().map_err(CampaignError)?;
        Ok(cfg)
    }

    /// Validate and build the simulator configuration + thread specs. The
    /// first use of a benchmark in the process synthesizes its program;
    /// later jobs share it (see [`ThreadSpec::for_benchmark`]).
    pub fn materialize(&self) -> Result<(SimConfig, Vec<ThreadSpec>), CampaignError> {
        let cfg = self.check()?;
        let specs =
            self.threads.iter().map(|t| ThreadSpec::for_benchmark(&t.bench, t.seed)).collect();
        Ok((cfg, specs))
    }

    /// Run the simulation, bypassing any cache.
    pub fn run_uncached(&self) -> Result<SimResult, CampaignError> {
        let (cfg, specs) = self.materialize()?;
        Ok(run_sim(&cfg, &specs, &self.mapping))
    }

    /// Run the simulation (no cache) under an optional soft deadline.
    /// `Ok(None)` means the deadline fired mid-simulation — or an
    /// injected `hang@sim` fault wedged the run — and it was abandoned.
    /// This is the [`JobRunner`] watchdog's execution path.
    pub fn run_watched(
        &self,
        deadline: Option<Instant>,
    ) -> Result<Option<SimResult>, CampaignError> {
        let (cfg, specs) = self.materialize()?;
        if crate::fault::on_sim_start(deadline) == crate::fault::SimStart::Hung {
            return Ok(None);
        }
        match deadline {
            None => Ok(Some(run_sim(&cfg, &specs, &self.mapping))),
            Some(deadline) => Ok(run_sim_interruptible(&cfg, &specs, &self.mapping, &mut || {
                Instant::now() >= deadline
            })),
        }
    }
}

/// How one job of a batch concluded (reported to [`JobRunner`]
/// observers — the serve daemon turns these into per-cell progress).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// Served from the content-addressed cache.
    CacheHit,
    /// Simulated (and written to the cache, if one is attached).
    Simulated,
    /// The job errored or its simulation panicked.
    Failed,
    /// Skipped because the runner's cancel token fired before it started.
    Cancelled,
}

/// One job's lifecycle, as seen by a [`JobRunner`] observer.
///
/// `Started` is emitted when a worker picks the job up (cache probe
/// included); `Finished` when it concludes. A job skipped by
/// cancellation emits **only** `Finished(Cancelled)` — it never starts —
/// so observers can treat `Started` as "left the queue".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobEvent {
    Started,
    Finished(JobOutcome),
}

/// Execution counters for one `run_all` batch. `simulated` counts every
/// job that started and was not served from the cache (including the
/// ones that ultimately failed); a job skipped by cancellation counts in
/// neither. `failed`/`timeouts`/`retries` break the unhappy paths out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct RunReport {
    pub total: usize,
    pub cache_hits: usize,
    pub simulated: usize,
    /// Jobs that concluded with an error (panic, timeout budget
    /// exhausted, spec failure).
    pub failed: usize,
    /// Watchdog deadline expiries (one per abandoned attempt, so one job
    /// can contribute several).
    pub timeouts: usize,
    /// Attempts re-run after a deadline expiry.
    pub retries: usize,
}

impl RunReport {
    fn merge(&mut self, other: RunReport) {
        self.total += other.total;
        self.cache_hits += other.cache_hits;
        self.simulated += other.simulated;
        self.failed += other.failed;
        self.timeouts += other.timeouts;
        self.retries += other.retries;
    }
}

/// Per-job watchdog policy: a soft wall-clock deadline per simulation
/// attempt, and how many times a timed-out attempt is retried before the
/// job is marked failed-with-timeout. The deadline is cooperative — the
/// simulation loop polls it (see `hdsmt_core::run_sim_interruptible`) —
/// so no watchdog thread exists and a cancelled attempt leaves no state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Watchdog {
    pub deadline: Duration,
    pub retries: u32,
}

/// Batch executor: parallel workers + content-addressed caching.
pub struct JobRunner {
    workers: usize,
    cache: Option<ResultCache>,
    report: std::sync::Mutex<RunReport>,
    /// Cooperative cancellation: once set, jobs that have not started yet
    /// fail fast with a `cancelled` error; in-flight simulations finish
    /// (and cache) normally. The serve daemon's graceful shutdown relies
    /// on this to leave a resumable cache behind.
    cancel: Arc<AtomicBool>,
    /// Optional per-job deadline + retry budget. Orthogonal to `cancel`:
    /// shutdown never interrupts an in-flight simulation, the watchdog
    /// only ever does.
    watchdog: Option<Watchdog>,
}

impl JobRunner {
    /// `workers = 0` means auto: [`default_workers`], every core.
    pub fn new(workers: usize, cache: Option<ResultCache>) -> Self {
        let workers = if workers == 0 { default_workers() } else { workers };
        JobRunner {
            workers,
            cache,
            report: std::sync::Mutex::new(RunReport::default()),
            cancel: Arc::new(AtomicBool::new(false)),
            watchdog: None,
        }
    }

    /// Attach (or clear) the per-job watchdog.
    pub fn with_watchdog(mut self, watchdog: Option<Watchdog>) -> Self {
        self.watchdog = watchdog;
        self
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    pub fn cache(&self) -> Option<&ResultCache> {
        self.cache.as_ref()
    }

    /// Link this runner to an externally owned cancel token (the serve
    /// daemon points every campaign's runner at its shutdown flag).
    /// Setting it to `true` makes every not-yet-started job of any
    /// current or future batch fail with a `cancelled by shutdown`
    /// error; completed work stays cached.
    pub fn with_cancel_token(mut self, token: Arc<AtomicBool>) -> Self {
        self.cancel = token;
        self
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Cumulative counters across every `run_all` on this runner.
    pub fn report(&self) -> RunReport {
        *self.report.lock().unwrap()
    }

    /// Execute `jobs` (cache-first), returning results in input order.
    /// Any job failure fails the batch (all-or-nothing).
    pub fn run_all(&self, jobs: &[JobSpec]) -> Result<Vec<SimResult>, CampaignError> {
        self.try_run_all(jobs, &|_, _| {})?.into_iter().collect()
    }

    /// Execute `jobs` (cache-first) with per-job fault isolation: each
    /// job's outcome comes back individually, at its input index, so a
    /// panicking or timed-out cell does not take its siblings' finished
    /// work with it. `observe(index, event)` is called from the worker
    /// threads as each job starts and concludes. The outer `Err` is
    /// batch-level only (a job failed pre-flight validation — nothing
    /// was simulated).
    ///
    /// With a cache attached, jobs that share a cache key form one group
    /// (campaigns list some keys more than once), and workers take the
    /// next group from one shared cursor. The group's first job runs;
    /// each repeat then reports what one worker reaching it later would:
    /// a cache hit with the same result after a success, the same error
    /// after a failure. Every repeat still gets its own `Started` and
    /// `Finished` events, so a key simulates once for any worker count.
    /// Without a cache each job is its own group. The calling thread is
    /// one of the workers, so a single worker spawns no thread.
    pub fn try_run_all(
        &self,
        jobs: &[JobSpec],
        observe: &(dyn Fn(usize, JobEvent) + Sync),
    ) -> Result<Vec<Result<SimResult, CampaignError>>, CampaignError> {
        // Validate everything up front (cheaply — no program synthesis)
        // so a bad cell fails the campaign before burning simulation time
        // on its neighbours.
        for job in jobs {
            job.check()?;
        }
        let groups = match self.cache {
            Some(_) => group_by_key(jobs),
            None => (0..jobs.len()).map(|i| vec![i]).collect(),
        };
        let cursor = AtomicUsize::new(0);
        // Each worker tallies its own counters; they are summed once the
        // batch drains.
        let work = || {
            let mut done: Vec<(usize, Result<SimResult, CampaignError>)> = Vec::new();
            let mut report = RunReport::default();
            loop {
                let g = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(group) = groups.get(g) else { return (done, report) };
                // Where the group's first job to run left its outcome.
                let mut first: Option<usize> = None;
                for &i in group {
                    if self.is_cancelled() {
                        observe(i, JobEvent::Finished(JobOutcome::Cancelled));
                        let err = "cancelled by shutdown before this job started";
                        done.push((i, Err(CampaignError(err.into()))));
                        continue;
                    }
                    observe(i, JobEvent::Started);
                    let out = match first.map(|at| &done[at].1) {
                        None => self.run_one(&jobs[i], &mut report),
                        Some(Ok(result)) => Ok((JobOutcome::CacheHit, result.clone())),
                        Some(Err(e)) => Err(e.clone()),
                    };
                    let outcome = out.as_ref().map_or(JobOutcome::Failed, |(o, _)| *o);
                    match outcome {
                        JobOutcome::CacheHit => report.cache_hits += 1,
                        _ => report.simulated += 1,
                    }
                    if outcome == JobOutcome::Failed {
                        report.failed += 1;
                    }
                    observe(i, JobEvent::Finished(outcome));
                    first.get_or_insert(done.len());
                    done.push((i, out.map(|(_, r)| r)));
                }
            }
        };
        let (mut done, mut report) = std::thread::scope(|scope| {
            let helpers: Vec<_> =
                (1..self.workers.min(groups.len())).map(|_| scope.spawn(work)).collect();
            let (mut done, mut report) = work();
            for helper in helpers {
                // `run_one` contains simulation panics; anything else
                // (an observer bug) propagates with its own payload.
                let (more, tally) = helper.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
                done.extend(more);
                report.merge(tally);
            }
            (done, report)
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        report.total = jobs.len();
        self.report.lock().unwrap().merge(report);
        Ok(done.into_iter().map(|(_, out)| out).collect())
    }

    fn run_one(
        &self,
        job: &JobSpec,
        report: &mut RunReport,
    ) -> Result<(JobOutcome, SimResult), CampaignError> {
        let descriptor = job.descriptor();
        let key = ResultCache::key_for(&descriptor);
        let attempts = 1 + self.watchdog.map_or(0, |w| w.retries);
        for attempt in 1..=attempts {
            // Probed per attempt, not once: while this worker was timing
            // out, another process on the same cache (a shard daemon, a
            // concurrent `run`) may have finished the job.
            if let Some(cache) = &self.cache {
                if let Some(hit) = cache.get(&key) {
                    return Ok((JobOutcome::CacheHit, hit));
                }
            }
            let deadline = self.watchdog.map(|w| Instant::now() + w.deadline);
            // A panicking simulation (a model bug, or a structural
            // impossibility `check` cannot see, like a context-count
            // violation) fails *this job* — the sibling jobs finish
            // and the campaign reports one clean error instead of a
            // poisoned-lock abort. Panics are not retried: the simulator
            // is deterministic, so a panic would just repeat.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                job.run_watched(deadline)
            }))
            .unwrap_or_else(|p| {
                let msg = payload_msg(p.as_ref());
                Err(CampaignError(format!("job `{descriptor}` panicked: {msg}")))
            })?;
            let Some(result) = result else {
                // The watchdog deadline fired mid-simulation.
                report.timeouts += 1;
                if attempt < attempts {
                    report.retries += 1;
                    continue;
                }
                let deadline = self.watchdog.expect("timeouts imply a watchdog").deadline;
                return Err(CampaignError(format!(
                    "job `{descriptor}` timed out: {attempts} attempt(s) exceeded the \
                     {:.1}s cell deadline",
                    deadline.as_secs_f64()
                )));
            };
            if let Some(cache) = &self.cache {
                if let Err(e) = cache.put(&key, &descriptor, &result) {
                    // A failed write costs resumability, not correctness:
                    // the result is in hand, the cell just re-simulates
                    // next time. Degrade loudly instead of failing a
                    // finished simulation.
                    eprintln!("warning: cache write failed for {key}: {e}");
                }
            }
            return Ok((JobOutcome::Simulated, result));
        }
        unreachable!("the attempt loop always returns")
    }
}
