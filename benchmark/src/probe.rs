//! Measurements shared by the workloads: process resources, output
//! digests, and the traced simulation path with its counter tally.

use hdsmt_campaign::hash::sha256_hex;
use hdsmt_core::{Processor, SimConfig, SimResult, SimStats, ThreadSpec};
use hdsmt_trace::ChunkBuf;

use crate::report::Outcome;
use crate::spans::Tracer;

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// User + system CPU seconds this process has used so far. `/proc`
/// reports them in USER_HZ ticks, which Linux fixes at 100 per second.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Hex SHA-256 over `lines`, one per line.
pub fn digest(lines: &[String]) -> String {
    sha256_hex(lines.join("\n").as_bytes())
}

/// The serialized statistics of one simulation: the output the sim
/// workloads check.
pub fn stats_line(stats: &SimStats) -> String {
    serde_json::to_string(stats).expect("SimStats serializes")
}

/// One traced simulation and the diagnostics its `Processor` exposes.
pub struct SimRun {
    pub result: SimResult,
    /// All simulated cycles, warm-up included.
    pub cycles_total: u64,
    pub warped: u64,
    pub warps: u64,
    pub quiescent: u64,
    /// `(coalesced, full-file stalls)` summed over the data and
    /// instruction MSHR files.
    pub mshr: (u64, u64),
}

/// Build the threads and run one simulation with a span around each
/// layer call: `ThreadSpec::for_benchmark` per thread, `Processor::new`,
/// and `Processor::run`.
pub fn traced_sim(
    t: &mut Tracer,
    cfg: SimConfig,
    threads: &[(&str, u64)],
    mapping: &[u8],
) -> SimRun {
    let specs: Vec<ThreadSpec> = threads
        .iter()
        .map(|&(bench, seed)| {
            t.span("core.for_benchmark", || ThreadSpec::for_benchmark(bench, seed))
        })
        .collect();
    let arch = cfg.arch.name.clone();
    let mut proc = t.span("core.processor_new", || Processor::new(cfg, &specs, mapping));
    let stats = t.span("core.run", || proc.run());
    let ((dc, df), (ic, i_full)) = proc.mshr_stats();
    SimRun {
        result: SimResult { arch, mapping: mapping.to_vec(), stats },
        cycles_total: proc.cycle(),
        warped: proc.warped_cycles(),
        warps: proc.warps(),
        quiescent: proc.quiescent_steps(),
        mshr: (dc + ic, df + i_full),
    }
}

/// Sums of simulated counts over every traced simulation of a run.
#[derive(Default)]
pub struct Tally {
    retired: u64,
    cycles: u64,
    cycles_total: u64,
    warped: u64,
    warps: u64,
    quiescent: u64,
    fetched: u64,
    wrong_path: u64,
    squashed: u64,
    flushes: u64,
    branches: u64,
    mispredicts: u64,
    loads: u64,
    l1_misses: u64,
    l2_misses: u64,
    coalesced: u64,
    full_stalls: u64,
}

impl Tally {
    pub fn add(&mut self, run: &SimRun) {
        let s = &run.result.stats;
        self.retired += s.retired;
        self.cycles += s.cycles;
        self.cycles_total += run.cycles_total;
        self.warped += run.warped;
        self.warps += run.warps;
        self.quiescent += run.quiescent;
        for th in &s.threads {
            self.fetched += th.fetched;
            self.wrong_path += th.wrong_path_fetched;
            self.squashed += th.squashed;
            self.flushes += th.flushes;
            self.branches += th.branches;
            self.mispredicts += th.mispredicts;
        }
        self.loads += s.mem.loads;
        self.l1_misses += s.mem.load_l1_misses;
        self.l2_misses += s.mem.load_l2_misses;
        self.coalesced += run.mshr.0;
        self.full_stalls += run.mshr.1;
    }

    /// The `core.*`, `mem.*` and `bpred.*` metrics: host times from the
    /// tracer's spans, simulated counts from the tally.
    pub fn report(&self, t: &Tracer, out: &mut Outcome) {
        let by_name = t.self_times_by_name();
        let runs = by_name.get("core.run").map_or(0, Vec::len).max(1) as f64;
        let run_ns = by_name.get("core.run").map_or(0, |v| v.iter().sum::<u64>()) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        out.set("core.for_benchmark_us", span_median_us(t, "core.for_benchmark"));
        out.set("core.processor_new_us", span_median_us(t, "core.processor_new"));
        out.set("core.run_ms", run_ns / runs / 1e6);
        out.set("core.ns_per_inst", run_ns / self.retired.max(1) as f64);
        out.set(
            "core.ns_per_stepped_cycle",
            run_ns / (self.cycles_total - self.warped).max(1) as f64,
        );
        out.set("core.warp_ratio", ratio(self.warped, self.cycles_total));
        out.set("core.warps", self.warps as f64);
        out.set("core.quiescent_steps", self.quiescent as f64);
        out.set("core.ipc", ratio(self.retired, self.cycles));
        out.set("core.fetch.useful_ratio", ratio(self.fetched, self.fetched + self.wrong_path));
        out.set("core.squashed_per_kinst", 1e3 * ratio(self.squashed, self.retired));
        out.set("core.flushes_per_kinst", 1e3 * ratio(self.flushes, self.retired));
        out.set("mem.dl1_load_miss_ratio", ratio(self.l1_misses, self.loads));
        out.set("mem.l2_load_miss_ratio", ratio(self.l2_misses, self.l1_misses));
        out.set("mem.mshr_full_stalls", self.full_stalls as f64);
        out.set("mem.mshr_coalesced", self.coalesced as f64);
        out.set("bpred.mispredict_ratio", ratio(self.mispredicts, self.branches));
    }
}

/// Median self time in microseconds of the spans called `name`.
pub fn span_median_us(t: &Tracer, name: &str) -> f64 {
    let v: Vec<f64> = t
        .spans()
        .iter()
        .zip(t.self_times())
        .filter(|(s, _)| s.name == name)
        .map(|(_, ns)| ns as f64 / 1e3)
        .collect();
    crate::stats::median(&v).unwrap_or(0.0)
}

/// Encode every result to JSON and decode it back, timing both; the
/// round trip must be exact (the result cache depends on it).
pub fn json_round_trips(t: &mut Tracer, results: &[SimResult], out: &mut Outcome) {
    for r in results {
        let text =
            t.span("json.encode", || serde_json::to_string(r).expect("SimResult serializes"));
        let back = t.span("json.decode", || serde_json::from_str::<SimResult>(&text));
        out.attempted += 1;
        out.check(back.as_ref().is_ok_and(|b| b.stats == r.stats), || {
            format!("JSON round trip of a {} result changed it", r.arch)
        });
    }
    out.set("json.encode_us", span_median_us(t, "json.encode"));
    out.set("json.decode_us", span_median_us(t, "json.decode"));
}

/// Instructions generated per benchmark when timing trace generation.
const FILL_INSTS: u64 = 400_000;

/// Time `build_source` + `TraceSource::fill` for each benchmark under
/// span `name`, returning host ns per generated instruction.
pub fn fill_ns_per_inst(t: &mut Tracer, name: &'static str, benches: &[String], seed: u64) -> f64 {
    let mut insts = 0u64;
    let mut ns = 0u64;
    for bench in benches {
        let spec = ThreadSpec::for_benchmark(bench, seed);
        let (generated, id) = t.time(name, || {
            let mut source = spec.build_source(0);
            let mut buf = ChunkBuf::new();
            let mut n = 0u64;
            while n < FILL_INSTS {
                buf.reset();
                source.fill(&mut buf);
                n += buf.len() as u64;
            }
            std::hint::black_box(n)
        });
        insts += generated;
        ns += t.spans()[id].duration_ns();
    }
    ns as f64 / insts.max(1) as f64
}
