//! The repository benchmark: end-to-end metrics from an untraced run and
//! per-layer metrics from a traced run, over four workloads that drive
//! the public entry points (`run_campaign_with`, `run_sim`/`Processor`,
//! and an in-process `serve::Server` over `HttpClient`).
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <sweep_cold|sim_memsat|sim_ilp|serve_warm> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. See
//! `benchmark/README.md` for what each workload and metric measures.

mod probe;
mod report;
mod serve;
mod sim;
mod spans;
mod stats;
mod sweep;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use report::{Outcome, END_TO_END, PER_LAYER};
use spans::Tracer;

pub const WORKLOADS: &[&str] = &["sweep_cold", "sim_memsat", "sim_ilp", "serve_warm"];

/// The seed whose output digests are committed in `digests.json`.
pub const DEFAULT_SEED: u64 = 1;
const DIGESTS: &str = include_str!("../digests.json");

/// Where runs leave result files and spans (relative to the working
/// directory, which is the repository root).
const OUT_DIR: &str = ".bench_out";

/// Hidden first argument: run one set-up of the named workload in this
/// process and print its duration in seconds (see [`setup_s`]).
const SETUP_FLAG: &str = "--setup-only";
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

const USAGE: &str = "usage: hdsmt-benchmark --workload <sweep_cold|sim_memsat|sim_ilp|serve_warm> \
                     [--seed N] [--seconds S] [--trace 0|1]";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown or missing --workload `{}`", args.workload));
    }
    Ok(args)
}

/// Check a workload's output lines against the committed digest (default
/// seed only; other seeds are checked run against run by the workload).
pub fn check_digest(out: &mut Outcome, workload: &str, seed: u64, lines: &[String]) {
    let got = probe::digest(lines);
    out.notes.push(format!("output digest ({workload}, seed {seed}) = {got}"));
    if seed == DEFAULT_SEED {
        let committed = serde_json::from_str_value(DIGESTS).expect("digests.json parses");
        let want = committed.get(workload).and_then(|v| v.as_str()).map(str::to_string);
        out.check(want.as_deref() == Some(got.as_str()), || {
            format!("{workload} digest {got} differs from the committed {want:?}")
        });
    }
}

/// One set-up of the workload, timed. The daemons `serve_warm` starts are
/// shut down after the clock stops.
fn setup_once(args: &Args, scratch: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    match args.workload.as_str() {
        "sweep_cold" => sweep::setup(args.seed, &scratch.join("sweep_cold.json")),
        "sim_memsat" => drop(sim::build(sim::MEMSAT, args.seed)),
        "sim_ilp" => drop(sim::build(sim::ILP, args.seed)),
        _ => {
            let daemons = serve::setup(args.seed, &scratch.join("serve"))?;
            let elapsed = t0.elapsed().as_secs_f64();
            daemons.shutdown();
            return Ok(elapsed);
        }
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// One `setup_s` sample: a set-up of the workload in a fresh child
/// process, so an accident of one process (its memory layout, the core it
/// lands on) moves one sample rather than the figure.
pub fn setup_sample(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = Command::new(&exe)
        .args([SETUP_FLAG, "--workload", &args.workload, "--seed", &args.seed.to_string()])
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a set-up: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.lines().last().and_then(|l| l.trim().parse::<f64>().ok()) {
        Some(secs) if out.status.success() => Ok(secs),
        _ => Err(format!("set-up child failed ({})", out.status)),
    }
}

/// `setup_s`: the median of `samples` topped up to at least [`SETUPS`].
/// Workloads with cheap set-ups take one sample between repeats of the
/// measured phase, so the samples span the run rather than one moment of
/// a shared host.
pub fn setup_s(args: &Args, mut samples: Vec<f64>) -> Result<f64, String> {
    while samples.len() < SETUPS {
        samples.push(setup_sample(args)?);
    }
    Ok(stats::median(&samples).expect("SETUPS > 0"))
}

/// First line of a command's output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The run context recorded beside every result.
fn context(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"engine_workers\": {}, \"commit\": \"{}\", \"rustc\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        hdsmt_campaign::default_workers(),
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["--version"]),
    )
}

/// The traced run. Every part has its own tracer; the parts a workload
/// does not exercise still run (briefly), so every traced run reports
/// every layer. Read a layer's figures on the workload BENCHMARK.json
/// pairs it with.
fn traced(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let epoch = Instant::now();
    let mut all = Tracer::new(epoch, 0);
    let w = args.workload.as_str();

    // Campaign engine, cache and JSON layers, plus core layers of its jobs.
    let mut t = Tracer::new(epoch, 1);
    let sweep_overhead = sweep::traced(args, scratch, &mut t, &mut out)?;
    all.absorb(t);
    let mut overhead = (w == "sweep_cold").then_some(sweep_overhead);

    // Core layers on the sim cells (these replace the sweep's figures).
    let cells = match w {
        "sim_memsat" => Some(sim::MEMSAT),
        "sim_ilp" => Some(sim::ILP),
        _ => None,
    };
    let benches = match cells {
        Some(defs) => {
            let mut t = Tracer::new(epoch, 2);
            overhead = Some(sim::traced(defs, args, &mut t, &mut out));
            all.absorb(t);
            sim::benches(defs)
        }
        None => sweep::benches(args.seed),
    };

    // Service layers.
    let mut t = Tracer::new(epoch, 3);
    if let Some(ratio) = serve::traced(args, scratch, &mut t, &mut out, w == "serve_warm")? {
        overhead = Some(ratio);
    }
    all.absorb(t);

    // Trace generation on the workload's own programs; a workload without
    // RV64I threads times the bundled programs the sim_ilp cell runs.
    let mut t = Tracer::new(epoch, 4);
    let (rv, synth): (Vec<String>, Vec<String>) =
        benches.into_iter().partition(|b| b.starts_with(hdsmt_core::RV_BENCH_PREFIX));
    let rv = if rv.is_empty() { sim::benches(&sim::ILP[2..]) } else { rv };
    out.set(
        "trace.synth.ns_per_inst",
        probe::fill_ns_per_inst(&mut t, "trace.synth", &synth, args.seed),
    );
    out.set("trace.rv.ns_per_inst", probe::fill_ns_per_inst(&mut t, "trace.rv", &rv, args.seed));
    all.absorb(t);

    out.set("bench.trace_overhead_ratio", overhead.expect("every workload has an own part"));
    let spans_path = PathBuf::from(OUT_DIR).join(format!("spans-{w}-seed{}.jsonl", args.seed));
    all.write_jsonl(&spans_path).map_err(|e| format!("writing {spans_path:?}: {e}"))?;
    out.notes.push(format!("{} spans written to {}", all.spans().len(), spans_path.display()));
    Ok(out)
}

fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    if args.trace {
        return traced(args, scratch);
    }
    match args.workload.as_str() {
        "sweep_cold" => sweep::run(args, scratch),
        "sim_memsat" => sim::run("sim_memsat", sim::MEMSAT, args),
        "sim_ilp" => sim::run("sim_ilp", sim::ILP, args),
        "serve_warm" => serve::run(args, scratch),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(sweep::CHILD_FLAG) {
        std::process::exit(sweep::child_main(&argv[1..]));
    }
    let setup_only = argv.first().map(String::as_str) == Some(SETUP_FLAG);
    let args = match parse_args(&argv[usize::from(setup_only)..]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let scratch = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {scratch:?}: {e}");
        std::process::exit(1);
    }
    if setup_only {
        let secs = setup_once(&args, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        match secs {
            Ok(secs) => println!("{secs}"),
            Err(e) => {
                eprintln!("set-up failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let outcome = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    };

    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    let line = match report::result_line(&outcome, expected) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("benchmark produced an incomplete result: {e}");
            std::process::exit(1);
        }
    };
    let context = context(&args);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for &(name, unit) in expected {
        println!("# {name} = {} {unit}", outcome.metrics[name]);
    }
    let fail_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("# fail_ratio = {fail_ratio} ({} of {} ops)", outcome.failed, outcome.attempted);
    println!("# context: {context}");
    let file = PathBuf::from(OUT_DIR).join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::write(&file, format!("{{\"context\": {context}, \"result\": {line}}}\n"))
    {
        eprintln!("warning: cannot write {file:?}: {e}");
    }
    println!("{line}");
}
