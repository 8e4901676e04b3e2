//! Regenerate every table and figure of the paper.
//!
//! ```text
//! reproduce [all|fig2a|fig2b|fig3|table1|tables23|fig4|fig5|summary|
//!            ablate-fetch|ablate-regfile|ablate-mapping|ablate-bpred|ablate-buffers]
//!            [--quick]
//! ```
//!
//! Printed tables follow the paper's layout; machine-readable copies land
//! in `results/*.json`. Absolute IPCs are not expected to match the
//! paper's: the paper runs 300 M-instruction SimPoint segments of Alpha
//! SPECint2000 traces, while these runs use calibrated synthetic
//! benchmark models (`hdsmt-trace`) at 120k instructions per thread
//! (12k with `--quick`). Shapes and relative orderings are the
//! reproduction targets.

use std::fs;

use hdsmt_area::{paper_area_table, pipeline_area};
use hdsmt_campaign::{default_workers, CampaignSpec};
use hdsmt_core::{run_sim, FetchPolicy, MissProfile, SimConfig, ThreadSpec};
use hdsmt_pipeline::{MicroArch, M2, M4, M6, M8};
use hdsmt_workloads::{
    all_workloads, format_figure_panel, paper_spec, quick_spec, run_paper_experiments, summarize,
    WorkloadClass,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let what = args.iter().find(|a| !a.starts_with("--")).map(String::as_str).unwrap_or("all");
    fs::create_dir_all("results").ok();

    match what {
        "fig2a" => fig2a(),
        "fig2b" => fig2b(),
        "fig3" => fig3(),
        "table1" => table1(),
        "tables23" => tables23(),
        "fig4" | "fig5" | "summary" => figs45(quick, what),
        "ablate-fetch" => ablate_fetch(quick),
        "ablate-regfile" => ablate_regfile(quick),
        "ablate-mapping" => ablate_mapping(quick),
        "ablate-bpred" => ablate_bpred(quick),
        "ablate-buffers" => ablate_buffers(quick),
        "ablate-dynmap" => ablate_dynmap(quick),
        "all" => {
            fig2a();
            fig2b();
            fig3();
            table1();
            tables23();
            figs45(quick, "all");
            ablate_fetch(quick);
            ablate_regfile(quick);
            ablate_mapping(quick);
            ablate_bpred(quick);
            ablate_buffers(quick);
            ablate_dynmap(quick);
        }
        other => {
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    }
}

fn envelope_spec(quick: bool) -> CampaignSpec {
    let mut spec = if quick { quick_spec() } else { paper_spec() };
    // Route every simulation through the campaign result cache: an
    // interrupted or repeated `reproduce` run only simulates missing
    // cells (`rm -rf results/sim-cache` forces a cold run).
    spec.cache_dir = Some("results/sim-cache".to_string());
    spec
}

// ---------------------------------------------------------------- Fig 2(a)
fn fig2a() {
    println!("== Fig 2(a): pipeline model resources ==");
    println!("{:<22}{:>6}{:>6}{:>6}{:>6}", "", "M8", "M6", "M4", "M2");
    let models = [M8, M6, M4, M2];
    let row = |name: &str, f: &dyn Fn(&hdsmt_pipeline::PipeModel) -> u16| {
        print!("{name:<22}");
        for m in &models {
            print!("{:>6}", f(m));
        }
        println!();
    };
    row("Hardware Contexts", &|m| m.contexts as u16);
    row("Max. Instr./cycle", &|m| m.width as u16);
    row("Max. Threads/cycle", &|m| m.fetch_threads as u16);
    row("Queues (IQ/FQ/LQ)", &|m| m.iq);
    row("Integer Func. Units", &|m| m.int_units as u16);
    row("FP Func. Units", &|m| m.fp_units as u16);
    row("LD/ST Units", &|m| m.ldst_units as u16);
    println!();
}

// ---------------------------------------------------------------- Fig 2(b)
fn fig2b() {
    println!("== Fig 2(b): area estimation per pipeline model (mm², 0.18 µm) ==");
    println!("(M6/M4/M2 measured as single-pipeline hdSMT machines: fetch ×1.2, EX ×1.1)");
    let rows: Vec<(&str, bool)> = vec![("M8", false), ("M6", true), ("M4", true), ("M2", true)];
    println!(
        "{:<6}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>9}",
        "model", "IF", "DE", "DI", "EX", "IC", "DEQ", "DIQ", "CQ", "total"
    );
    let mut json = Vec::new();
    for (name, multi) in rows {
        let m = hdsmt_pipeline::PipeModel::by_name(name).unwrap();
        let a = pipeline_area(&m, multi);
        let f = hdsmt_area::model::fetch_area(multi).mm2;
        let s = a.stages;
        let total = f + a.total();
        println!(
            "{name:<6}{f:>8.2}{:>8.2}{:>8.2}{:>8.2}{:>8.2}{:>8.2}{:>8.2}{:>8.2}{total:>9.1}",
            s.decode, s.dispatch, s.execute, s.completion, s.decode_q, s.dispatch_q, s.completion_q
        );
        json.push(serde_json::json!({
            "model": name, "fetch": f, "stages": a.stages, "total": total
        }));
    }
    fs::write("results/fig2b.json", serde_json::to_string_pretty(&json).unwrap()).ok();
    println!();
}

// ------------------------------------------------------------------- Fig 3
fn fig3() {
    println!("== Fig 3: area of evaluated microarchitectures ==");
    let paper = [
        ("M8", 0.0),
        ("3M4", -17.0),
        ("4M4", 10.14),
        ("2M4+2M2", -27.0),
        ("3M4+2M2", -1.0),
        ("1M6+2M4+2M2", 2.0),
    ];
    println!("{:<14}{:>10}{:>12}{:>14}", "microarch", "mm²", "model Δ%", "paper Δ%");
    let table = paper_area_table();
    for ((name, total, delta), (_, paper_delta)) in table.iter().zip(paper.iter()) {
        println!("{name:<14}{total:>10.1}{delta:>+12.1}{paper_delta:>+14.1}");
    }
    fs::write("results/fig3.json", serde_json::to_string_pretty(&table).unwrap()).ok();
    println!();
}

// ------------------------------------------------------------------ Table 1
fn table1() {
    println!("== Table 1: simulation parameters ==");
    let cfg = SimConfig::paper_defaults(MicroArch::baseline(), 1);
    let m = &cfg.mem;
    println!("Branch Predictor       perceptron (4K local, 256 perceps)");
    println!("BTB                    256 entries, 4-way associative");
    println!("RAS*                   256 entries");
    println!("ROB Size*              {} entries", cfg.rob_entries);
    println!("Rename Registers       {} regs.", cfg.rename_regs);
    println!(
        "L1 I-Cache             {}KB, {}-way, {} banks",
        m.l1i.size_bytes / 1024,
        m.l1i.ways,
        m.l1i.banks
    );
    println!(
        "L1 D-Cache             {}KB, {}-way, {} banks",
        m.l1d.size_bytes / 1024,
        m.l1d.ways,
        m.l1d.banks
    );
    println!("L1 lat./misspenalty    {}/{} cyc.", m.l1_lat, m.l1_miss_penalty);
    println!(
        "L2 Cache               {}KB, {}-way, {} banks",
        m.l2.size_bytes / 1024,
        m.l2.ways,
        m.l2.banks
    );
    println!("Main Memory Latency    {} cyc.", m.mem_lat);
    println!(
        "I-TLB/D-TLB/TLB missp. {} ent. / {} ent. / {} cyc.",
        m.itlb_entries, m.dtlb_entries, m.tlb_miss_penalty
    );
    println!("(* replicated per thread)");
    println!();
}

// -------------------------------------------------------------- Tables 2–3
fn tables23() {
    println!("== Tables 2–3: workloads ==");
    for threads in [2usize, 4, 6] {
        for w in all_workloads().iter().filter(|w| w.threads() == threads) {
            println!(
                "{:<5} {:<45} {}",
                w.id,
                w.benchmarks.join(", "),
                match w.class {
                    WorkloadClass::Ilp => "I",
                    WorkloadClass::Mem => "M",
                    WorkloadClass::Mix => "X",
                }
            );
        }
    }
    println!();
}

// ------------------------------------------------------------- Fig 4/5/§5
fn figs45(quick: bool, what: &str) {
    let spec = envelope_spec(quick);
    eprintln!(
        "running full campaign (6 archs × 22 workloads, oracle mapping search; {} insts/thread)…",
        spec.budget().measure_insts
    );
    // The envelope spec leaves `workers` unset: the batch default.
    let workers = default_workers();
    let t0 = std::time::Instant::now();
    let r = run_paper_experiments(&spec).unwrap_or_else(|e| {
        eprintln!("envelope campaign failed: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "campaign finished in {:.1}s on {workers} workers (cache at {})",
        t0.elapsed().as_secs_f64(),
        spec.cache_dir.as_deref().unwrap_or("-")
    );
    fs::write("results/fig45_campaign.json", serde_json::to_string_pretty(&r).unwrap()).ok();

    if what == "fig4" || what == "all" {
        println!("== Fig 4: performance comparison (IPC) ==");
        for class in [WorkloadClass::Ilp, WorkloadClass::Mem, WorkloadClass::Mix] {
            println!("{}", format_figure_panel(&r, class, false));
        }
    }
    if what == "fig5" || what == "all" {
        println!("== Fig 5: performance-per-area comparison (IPC/mm²) ==");
        for class in [WorkloadClass::Ilp, WorkloadClass::Mem, WorkloadClass::Mix] {
            println!("{}", format_figure_panel(&r, class, true));
        }
    }
    if what == "summary" || what == "all" {
        let s = summarize(&r);
        println!("== §5 summary ==");
        println!("best heterogeneous per-area machine:          {}", s.best_het_per_area);
        println!(
            "perf/area vs monolithic SMT:                  {:+.1}%   (paper: +13%)",
            s.per_area_vs_mono_pct
        );
        println!(
            "perf/area vs homogeneous clustering:          {:+.1}%   (paper: +14%)",
            s.per_area_vs_homo_pct
        );
        for (class, pct) in &s.per_area_by_class_pct {
            println!("  perf/area vs M8, {class} workloads:           {pct:+.1}%");
        }
        println!(
            "monolithic raw-IPC advantage over hdSMT:      {:+.1}%   (paper: ~+6%)",
            s.mono_raw_vs_het_pct
        );
        println!(
            "hdSMT raw-IPC advantage over homogeneous:     {:+.1}%   (paper: ~+7%)",
            s.het_raw_vs_homo_pct
        );
        for (arch, acc) in &s.heuristic_accuracy {
            println!("heuristic accuracy on {arch:<14}             {:.0}%", acc * 100.0);
        }
        println!("6-thread ILP upset (hdSMT beats M8 raw):      {}", s.six_thread_ilp_upset);
        fs::write("results/summary.json", serde_json::to_string_pretty(&s).unwrap()).ok();
        println!();
    }
}

// ------------------------------------------------------------- ablations
fn two_thread_specs() -> Vec<ThreadSpec> {
    vec![ThreadSpec::for_benchmark("gzip", 11), ThreadSpec::for_benchmark("twolf", 12)]
}

fn ablate_fetch(quick: bool) {
    println!("== ablation: fetch policy (gzip+twolf on M8 and 2M4+2M2) ==");
    let insts = if quick { 20_000 } else { 60_000 };
    let specs = two_thread_specs();
    let mut rows = Vec::new();
    for arch_name in ["M8", "2M4+2M2"] {
        let arch = MicroArch::parse(arch_name).unwrap();
        let mapping: Vec<u8> = if arch.is_monolithic() { vec![0, 0] } else { vec![0, 2] };
        for policy in [
            FetchPolicy::RoundRobin,
            FetchPolicy::Icount,
            FetchPolicy::Flush,
            FetchPolicy::L1mcount,
        ] {
            let mut cfg = SimConfig::paper_defaults(arch.clone(), insts);
            cfg.fetch_policy = policy;
            let ipc = run_sim(&cfg, &specs, &mapping).ipc();
            println!("{arch_name:<10} {policy:?}: IPC {ipc:.3}");
            rows.push(
                serde_json::json!({"arch": arch_name, "policy": format!("{policy:?}"), "ipc": ipc}),
            );
        }
    }
    fs::write("results/ablate_fetch.json", serde_json::to_string_pretty(&rows).unwrap()).ok();
    println!();
}

fn ablate_regfile(quick: bool) {
    println!("== ablation: hdSMT shared-regfile latency (2M4+2M2, gzip+twolf) ==");
    let insts = if quick { 20_000 } else { 60_000 };
    let specs = two_thread_specs();
    let arch = MicroArch::parse("2M4+2M2").unwrap();
    let mut rows = Vec::new();
    for lat in [1u32, 2, 3] {
        let mut cfg = SimConfig::paper_defaults(arch.clone(), insts);
        cfg.regfile_lat = Some(lat);
        let ipc = run_sim(&cfg, &specs, &[0, 2]).ipc();
        println!("regfile latency {lat} cycles: IPC {ipc:.3}");
        rows.push(serde_json::json!({"regfile_lat": lat, "ipc": ipc}));
    }
    fs::write("results/ablate_regfile.json", serde_json::to_string_pretty(&rows).unwrap()).ok();
    println!();
}

fn ablate_mapping(quick: bool) {
    println!("== ablation: mapping policy (4W6 on 2M4+2M2) ==");
    let insts = if quick { 15_000 } else { 50_000 };
    let arch = MicroArch::parse("2M4+2M2").unwrap();
    let w = all_workloads().iter().find(|w| w.id == "4W6").unwrap();
    let specs: Vec<ThreadSpec> = w
        .benchmarks
        .iter()
        .enumerate()
        .map(|(i, b)| ThreadSpec::for_benchmark(b, 40 + i as u64))
        .collect();
    let profile = MissProfile::build();
    let cfg = SimConfig::paper_defaults(arch.clone(), insts);

    let heur = hdsmt_core::heuristic_mapping(&arch, w.benchmarks, &profile);
    let rr = hdsmt_core::mapping::round_robin_mapping(&arch, w.threads());
    let rnd = hdsmt_core::mapping::random_mapping(&arch, w.threads(), 99);
    let mut rows = Vec::new();
    for (name, m) in [("heuristic", &heur), ("round-robin", &rr), ("random", &rnd)] {
        let ipc = run_sim(&cfg, &specs, m).ipc();
        println!("{name:<12} {m:?}: IPC {ipc:.3}");
        rows.push(serde_json::json!({"policy": name, "mapping": m, "ipc": ipc}));
    }
    // Oracle for reference.
    let mappings = hdsmt_core::enumerate_mappings(&arch, w.threads());
    let best = mappings.iter().map(|m| run_sim(&cfg, &specs, m).ipc()).fold(f64::MIN, f64::max);
    println!("{:<12} (over {} mappings): IPC {best:.3}", "oracle", mappings.len());
    rows.push(serde_json::json!({"policy": "oracle", "ipc": best}));
    fs::write("results/ablate_mapping.json", serde_json::to_string_pretty(&rows).unwrap()).ok();
    println!();
}

fn ablate_bpred(quick: bool) {
    println!("== ablation: direction predictor (gzip+twolf on M8) ==");
    let insts = if quick { 20_000 } else { 60_000 };
    let specs = two_thread_specs();
    let mut rows = Vec::new();
    for kind in [hdsmt_bpred::DirPredictorKind::Perceptron, hdsmt_bpred::DirPredictorKind::Gshare] {
        let mut cfg = SimConfig::paper_defaults(MicroArch::baseline(), insts);
        cfg.predictor = kind;
        let r = run_sim(&cfg, &specs, &[0, 0]);
        let misp: f64 = r.stats.threads.iter().map(|t| t.mispredict_rate()).sum::<f64>()
            / r.stats.threads.len() as f64;
        println!("{kind:?}: IPC {:.3}, mean mispredict {:.1}%", r.ipc(), misp * 100.0);
        rows.push(serde_json::json!({"predictor": format!("{kind:?}"), "ipc": r.ipc(), "mispredict": misp}));
    }
    fs::write("results/ablate_bpred.json", serde_json::to_string_pretty(&rows).unwrap()).ok();
    println!();
}

fn ablate_dynmap(quick: bool) {
    println!("== extension: dynamic re-mapping (§7 future work; 4W6 on 2M4+2M2) ==");
    let insts = if quick { 15_000 } else { 50_000 };
    let arch = MicroArch::parse("2M4+2M2").unwrap();
    let w = all_workloads().iter().find(|w| w.id == "4W6").unwrap();
    let specs: Vec<ThreadSpec> = w
        .benchmarks
        .iter()
        .enumerate()
        .map(|(i, b)| ThreadSpec::for_benchmark(b, 70 + i as u64))
        .collect();
    let cfg = SimConfig::paper_defaults(arch.clone(), insts);

    let profile = MissProfile::build();
    let heur = hdsmt_core::heuristic_mapping(&arch, w.benchmarks, &profile);
    let naive = hdsmt_core::mapping::round_robin_mapping(&arch, w.threads());

    let static_heur = run_sim(&cfg, &specs, &heur).ipc();
    let static_naive = run_sim(&cfg, &specs, &naive).ipc();
    let mut rows = Vec::new();
    println!("static heuristic (profile-guided):        IPC {static_heur:.3}");
    println!("static round-robin (no profile):          IPC {static_naive:.3}");
    rows.push(serde_json::json!({"policy": "static-heuristic", "ipc": static_heur}));
    rows.push(serde_json::json!({"policy": "static-round-robin", "ipc": static_naive}));
    for interval in [2_000u64, 8_000, 32_000] {
        let d = hdsmt_core::run_dynamic(&cfg, &specs, &naive, interval);
        println!(
            "dynamic from round-robin, interval {interval:>6}: IPC {:.3} ({} migrations)",
            d.result.ipc(),
            d.migrations
        );
        rows.push(serde_json::json!({
            "policy": format!("dynamic-{interval}"), "ipc": d.result.ipc(),
            "migrations": d.migrations
        }));
    }
    fs::write("results/ablate_dynmap.json", serde_json::to_string_pretty(&rows).unwrap()).ok();
    println!();
}

fn ablate_buffers(quick: bool) {
    println!("== ablation: decoupling-buffer depth (2M4+2M2, gzip+twolf) ==");
    let insts = if quick { 20_000 } else { 60_000 };
    let specs = two_thread_specs();
    let mut rows = Vec::new();
    for depth in [4u16, 8, 16, 32, 64] {
        let mut arch = MicroArch::parse("2M4+2M2").unwrap();
        for p in &mut arch.pipes {
            p.buffer = depth;
        }
        let cfg = SimConfig::paper_defaults(arch, insts);
        let ipc = run_sim(&cfg, &specs, &[0, 2]).ipc();
        println!("buffer depth {depth:>2}: IPC {ipc:.3}");
        rows.push(serde_json::json!({"depth": depth, "ipc": ipc}));
    }
    fs::write("results/ablate_buffers.json", serde_json::to_string_pretty(&rows).unwrap()).ok();
    println!();
}
