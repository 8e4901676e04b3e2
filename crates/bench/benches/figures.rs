//! Smoke-scale figure regeneration under `cargo bench`.
//!
//! Each bench regenerates one paper artefact (at reduced scale for the
//! Fig 4/5 cells) and prints the series to stderr, so `cargo bench` output
//! doubles as a quick reproduction check. The full-scale campaign lives in
//! the `reproduce` binary.

use criterion::{criterion_group, criterion_main, Criterion};

use hdsmt_area::{microarch_area, paper_area_table, pipeline_area};
use hdsmt_campaign::Budget;
use hdsmt_pipeline::{MicroArch, M2, M4, M6, M8};
use hdsmt_workloads::{quick_spec, run_paper_experiments};

fn bench_fig2b(c: &mut Criterion) {
    c.bench_function("fig2b_area_model", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for (m, multi) in [(M8, false), (M6, true), (M4, true), (M2, true)] {
                total += pipeline_area(&m, multi).total();
            }
            total
        })
    });
    eprintln!("[fig2b] pipeline bodies (mm²):");
    for (m, multi) in [(M8, false), (M6, true), (M4, true), (M2, true)] {
        eprintln!("  {:4} {:7.1}", m.name, pipeline_area(&m, multi).total());
    }
}

fn bench_fig3(c: &mut Criterion) {
    c.bench_function("fig3_microarch_areas", |b| {
        b.iter(|| MicroArch::paper_set().iter().map(|a| microarch_area(a).total()).sum::<f64>())
    });
    eprintln!("[fig3] microarchitecture areas:");
    for (name, total, delta) in paper_area_table() {
        eprintln!("  {name:<14} {total:7.1} mm²  {delta:+.1}%");
    }
}

fn bench_fig4_smoke(c: &mut Criterion) {
    // One representative cell at smoke scale; the criterion timing covers
    // a full envelope computation (oracle search + measured runs).
    let mut spec = quick_spec();
    spec.archs = vec!["2M4+2M2".to_string()];
    spec.workloads = vec!["2W7".to_string()];
    spec.budget = Some(Budget { measure_insts: 6_000, warmup_insts: 8_000, search_insts: 3_000 });
    spec.profile_insts = Some(50_000);
    let envelope = || run_paper_experiments(&spec).expect("envelope campaign").envelopes.remove(0);
    let mut g = c.benchmark_group("fig4_smoke");
    g.sample_size(10);
    g.bench_function("envelope_2M4+2M2_2W7", |b| b.iter(envelope));
    g.finish();
    let e = envelope();
    eprintln!(
        "[fig4 smoke] 2W7 on 2M4+2M2: BEST {:.2} / HEUR {:.2} / WORST {:.2} over {} mappings",
        e.best_ipc, e.heur_ipc, e.worst_ipc, e.n_mappings
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig2b, bench_fig3, bench_fig4_smoke
}
criterion_main!(benches);
