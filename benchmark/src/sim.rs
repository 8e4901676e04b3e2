//! `sim_memsat` and `sim_ilp`: long direct `run_sim` calls on three
//! fixed cells each, warm-up disabled (every committed instruction is
//! timed, as in the `throughput` harness).

use std::time::Instant;

use hdsmt_core::{run_sim, FetchPolicy, SimConfig, ThreadSpec};
use hdsmt_pipeline::MicroArch;

use crate::probe::{self, Tally};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{fastest, median, tail};
use crate::Args;

/// One fixed simulation: machine, threads, fetch policy and mapping.
pub struct CellDef {
    pub arch: &'static str,
    pub benches: &'static [&'static str],
    /// `None` keeps the paper's per-architecture rule (FLUSH on M8,
    /// L1MCOUNT on multipipeline machines).
    pub policy: Option<FetchPolicy>,
    pub mapping: &'static [u8],
}

/// Memory-saturated cells: the quiescence warp engine, MSHR-full replay
/// storms and the issue stage carry the host time. The FLUSH cell is the
/// regime where warping gains least.
pub const MEMSAT: &[CellDef] = &[
    CellDef {
        arch: "M8",
        benches: &["mcf", "mcf", "mcf", "mcf"],
        policy: Some(FetchPolicy::Icount),
        mapping: &[0, 0, 0, 0],
    },
    CellDef {
        arch: "M8",
        benches: &["mcf", "mcf", "twolf", "vpr"],
        policy: None,
        mapping: &[0, 0, 0, 0],
    },
    // 4W4 with mcf and perlbmk on the narrow pipelines.
    CellDef {
        arch: "2M4+2M2",
        benches: &["mcf", "twolf", "vpr", "perlbmk"],
        policy: None,
        mapping: &[2, 0, 1, 3],
    },
];

/// Compute-bound cells of the same shape: warping almost never fires;
/// trace generation, fetch, rename and branch prediction dominate.
pub const ILP: &[CellDef] = &[
    CellDef {
        arch: "M8",
        benches: &["eon", "gcc", "gzip", "bzip2"],
        policy: None,
        mapping: &[0, 0, 0, 0],
    },
    CellDef {
        arch: "2M4+2M2",
        benches: &["gzip", "gcc", "crafty", "eon", "gap", "bzip2"],
        policy: None,
        mapping: &[0, 0, 1, 1, 2, 3],
    },
    CellDef {
        arch: "M8",
        benches: &["rv:sum", "rv:matmul", "rv:fib", "rv:prime"],
        policy: None,
        mapping: &[0, 0, 0, 0],
    },
];

/// Per-thread retire target of every cell.
const INSTS_PER_THREAD: u64 = 150_000;
/// Passes over the cells a run always completes, however short `--seconds`.
const MIN_PASSES: usize = 3;

/// A cell ready to simulate.
pub struct Cell {
    cfg: SimConfig,
    specs: Vec<ThreadSpec>,
    threads: Vec<(&'static str, u64)>,
    mapping: Vec<u8>,
}

/// Stream seed of thread `t` of cell `c`, derived from the workload seed.
fn thread_seed(seed: u64, c: usize, t: usize) -> u64 {
    let mut z = seed ^ ((c as u64) << 32 | t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Set-up: configure each machine and synthesize every thread's program.
pub fn build(defs: &[CellDef], seed: u64) -> Vec<Cell> {
    build_sized(defs, seed, INSTS_PER_THREAD)
}

fn build_sized(defs: &[CellDef], seed: u64, insts: u64) -> Vec<Cell> {
    defs.iter()
        .enumerate()
        .map(|(c, d)| {
            let arch = MicroArch::parse(d.arch).expect("cell arch parses");
            let mut cfg = SimConfig::paper_defaults(arch, insts);
            cfg.warmup_insts = 0;
            if let Some(p) = d.policy {
                cfg.fetch_policy = p;
            }
            let threads: Vec<(&'static str, u64)> =
                d.benches.iter().enumerate().map(|(t, &b)| (b, thread_seed(seed, c, t))).collect();
            let specs = threads.iter().map(|&(b, s)| ThreadSpec::for_benchmark(b, s)).collect();
            Cell { cfg, specs, threads, mapping: d.mapping.to_vec() }
        })
        .collect()
}

/// One untraced pass over the cells: per-cell host ms, serialized
/// statistics, and committed instructions.
fn pass(cells: &[Cell]) -> (Vec<f64>, Vec<String>, u64) {
    let mut ms = Vec::new();
    let mut lines = Vec::new();
    let mut retired = 0;
    for cell in cells {
        let t0 = Instant::now();
        let r = run_sim(&cell.cfg, &cell.specs, &cell.mapping);
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        retired += r.stats.retired;
        lines.push(probe::stats_line(&r.stats));
    }
    (ms, lines, retired)
}

/// Compare a pass's statistics with the reference pass, cell by cell.
fn check_pass(out: &mut Outcome, reference: &[String], lines: &[String]) {
    for (c, (want, got)) in reference.iter().zip(lines).enumerate() {
        out.check(want == got, || format!("cell {c} statistics differ between passes"));
    }
}

/// The untraced run: whole passes until `--seconds` have elapsed, with
/// one set-up sample after each.
pub fn run(name: &str, defs: &[CellDef], args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let cells = build(defs, args.seed);

    let mut setups = Vec::new();
    // Host ms of every run of each cell, in pass order.
    let mut cell_ms = vec![Vec::new(); cells.len()];
    let mut passes = 0;
    let mut retired_per_pass = 0;
    let mut reference: Option<Vec<String>> = None;
    let start = Instant::now();
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        let (ms, lines, retired) = pass(&cells);
        let wall = t0.elapsed().as_secs_f64();
        passes += 1;
        eprintln!("{name} pass {passes}: {wall:.4} s");
        out.attempted += cells.len() as u64;
        for (runs, ms) in cell_ms.iter_mut().zip(ms) {
            runs.push(ms);
        }
        retired_per_pass = retired;
        match &reference {
            None => {
                crate::check_digest(&mut out, name, args.seed, &lines);
                reference = Some(lines);
            }
            Some(want) => check_pass(&mut out, want, &lines),
        }
        setups.push(crate::setup_sample(args)?);
    }

    // One pass at each cell's fastest run. Every pass retires the same
    // instructions (the statistics repeat exactly), so the rate follows
    // from the pass time.
    let wall = cell_ms.iter().filter_map(|runs| fastest(runs)).sum::<f64>() / 1e3;
    let kips = retired_per_pass as f64 / wall / 1e3;
    out.set("setup_s", crate::setup_s(args, setups)?);
    out.set("wall_s", wall);
    out.set("throughput", kips);
    out.set("peak_rss_mb", probe::peak_rss_mb());
    out.notes.push(format!(
        "sim_kips = {kips:.1} k insts/s ({passes} passes over {} cells, {INSTS_PER_THREAD} \
         insts/thread, {retired_per_pass} insts/pass)",
        cells.len()
    ));
    let cell_ms: Vec<f64> = cell_ms.concat();
    out.notes.push(format!(
        "cell run p50 = {:.3} ms over {} runs",
        median(&cell_ms).unwrap_or(0.0),
        cell_ms.len()
    ));
    if let Some(t) = tail(&cell_ms) {
        out.notes.push(format!("cell run p{} = {:.3} ms over {} runs", t.pct, t.value, t.samples));
    }
    Ok(out)
}

/// The traced part: one untraced pass as the overhead reference, then
/// one pass through [`probe::traced_sim`]. Returns the traced pass's
/// wall time over the untraced one.
pub fn traced(defs: &[CellDef], args: &Args, t: &mut Tracer, out: &mut Outcome) -> f64 {
    let cells = build(defs, args.seed);
    let t0 = Instant::now();
    let (_, reference, _) = pass(&cells);
    let untraced = t0.elapsed().as_secs_f64();

    let mut tally = Tally::default();
    let mut results = Vec::new();
    let t0 = Instant::now();
    for cell in &cells {
        let run = probe::traced_sim(t, cell.cfg.clone(), &cell.threads, &cell.mapping);
        tally.add(&run);
        results.push(run.result);
    }
    let traced = t0.elapsed().as_secs_f64();
    out.attempted += 2 * cells.len() as u64;
    let lines: Vec<String> = results.iter().map(|r| probe::stats_line(&r.stats)).collect();
    check_pass(out, &reference, &lines);
    tally.report(t, out);
    probe::json_round_trips(t, &results, out);
    traced / untraced
}

/// Distinct benchmarks the cells run (inputs of the trace-generation probe).
pub fn benches(defs: &[CellDef]) -> Vec<String> {
    let mut v: Vec<String> =
        defs.iter().flat_map(|d| d.benches.iter().map(|b| b.to_string())).collect();
    v.sort();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two runs of the same cells and seed digest identically; another
    /// seed digests differently.
    #[test]
    fn digests_are_deterministic_across_runs() {
        for defs in [MEMSAT, ILP] {
            let digest_of = |seed| probe::digest(&pass(&build_sized(defs, seed, 3_000)).1);
            let first = digest_of(7);
            assert_eq!(first, digest_of(7));
            assert_ne!(first, digest_of(8));
        }
    }
}
