//! Design-space sweep: one workload across all six microarchitectures of
//! the paper (Fig 3 set), reporting raw IPC and complexity-effectiveness.
//!
//! Driven entirely by the campaign engine: the sweep is a declarative
//! [`CampaignSpec`] built in code, executed on the parallel job runner
//! with the on-disk result cache — re-running the example is ~instant.
//!
//! ```sh
//! cargo run --release --example design_space [-- 4W6]
//! ```

use hdsmt::campaign::{engine, export, CampaignSpec, Catalog};

fn main() {
    let wanted = std::env::args().nth(1).unwrap_or_else(|| "4W6".to_string());
    let catalog = Catalog::paper();
    let w =
        catalog.get(&wanted).unwrap_or_else(|| panic!("unknown workload {wanted} (try 2W1..6W4)"));
    println!(
        "workload {} ({}): {}\n",
        w.id,
        w.class.as_deref().unwrap_or("?"),
        w.benchmarks.join(", ")
    );

    let spec = CampaignSpec {
        name: Some(format!("design-space-{wanted}")),
        archs: ["M8", "3M4", "4M4", "2M4+2M2", "3M4+2M2", "1M6+2M4+2M2"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        workloads: vec![wanted.clone()],
        policies: Some(vec!["heur".into()]),
        budget: Some(hdsmt::campaign::Budget {
            measure_insts: 30_000,
            warmup_insts: 15_000,
            search_insts: 8_000,
        }),
        seed: Some(10),
        workers: None,
        cache_dir: Some(".hdsmt-cache".into()),
        profile_insts: None,
        extra_workloads: None,
        use_rv_workloads: None,
    };

    println!("running campaign (profiling for the mapping heuristic on first use)…");
    let result = engine::run_campaign(&spec, &catalog).expect("campaign runs");

    println!("\n{:<14}{:>8}{:>11}{:>16}   mapping", "microarch", "IPC", "area mm²", "IPC/mm² ×1e3");
    let mut best: Option<(String, f64)> = None;
    for cell in &result.cells {
        let pa = cell.ipc_per_mm2() * 1e3;
        println!(
            "{:<14}{:>8.3}{:>11.1}{pa:>16.3}   {:?}",
            cell.arch, cell.ipc, cell.area_mm2, cell.mapping
        );
        if best.as_ref().is_none_or(|(_, b)| pa > *b) {
            best = Some((cell.arch.clone(), pa));
        }
    }
    let (name, _) = best.expect("non-empty campaign");
    println!("\nmost complexity-effective machine for {}: {name}", w.id);
    println!(
        "(jobs: {} total, {} cache hits, {} simulated)",
        result.report.total, result.report.cache_hits, result.report.simulated
    );
    let _ = export::summary(&result);
}
