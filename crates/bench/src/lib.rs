//! # hdsmt-bench — paper figure and table regeneration
//!
//! `cargo run -p hdsmt-bench --bin reproduce --release [-- <exp>]`
//! regenerates every table and figure of the paper (Fig 2(a,b), Fig 3,
//! Table 1, Tables 2–3, Fig 4, Fig 5, the §5 summary) plus ablations of
//! fetch policy, register-file latency, mapping policy, branch predictor,
//! buffer depth and dynamic re-mapping, printing paper-style tables and
//! writing JSON to `results/`. This library holds the shared panel
//! formatter.
//!
//! Performance is measured by the separate `benchmark/` package (end to
//! end and per layer), not here.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

use hdsmt_workloads::experiments::{Metric, PaperResults};
use hdsmt_workloads::WorkloadClass;

/// Format one Fig 4/Fig 5 panel (a workload class) as an aligned text
/// table: rows = thread counts + HMEAN, columns = architectures, three
/// values per cell (BEST/HEUR/WORST).
pub fn format_figure_panel(r: &PaperResults, class: WorkloadClass, per_area: bool) -> String {
    let archs = ["M8", "3M4", "4M4", "2M4+2M2", "3M4+2M2", "1M6+2M4+2M2"];
    let sizes: &[usize] = if class == WorkloadClass::Mem { &[2, 4] } else { &[2, 4, 6] };
    let mut out = String::new();
    let metric_of = |arch: &str, t: Option<usize>, m: Metric| {
        if per_area {
            r.hmean_ipc_per_area(arch, class, t, m)
        } else {
            r.hmean_ipc(arch, class, t, m)
        }
    };
    let (unit, scale) = if per_area { ("IPC/mm2 x1000", 1000.0) } else { ("IPC", 1.0) };
    let _ = writeln!(out, "{} workloads ({unit}; BEST / HEUR / WORST)", class.label());
    let _ = write!(out, "{:>10}", "");
    for a in archs {
        let _ = write!(out, " {a:>20}");
    }
    let _ = writeln!(out);
    for &t in sizes {
        let _ = write!(out, "{:>8}T ", t);
        for a in archs {
            let b = metric_of(a, Some(t), Metric::Best) * scale;
            let h = metric_of(a, Some(t), Metric::Heur) * scale;
            let w = metric_of(a, Some(t), Metric::Worst) * scale;
            let _ = write!(out, " {b:>6.2}/{h:>6.2}/{w:>6.2}");
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:>9} ", "HMEAN");
    for a in archs {
        let b = metric_of(a, None, Metric::Best) * scale;
        let h = metric_of(a, None, Metric::Heur) * scale;
        let w = metric_of(a, None, Metric::Worst) * scale;
        let _ = write!(out, " {b:>6.2}/{h:>6.2}/{w:>6.2}");
    }
    let _ = writeln!(out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsmt_workloads::experiments::{quick_spec, EnvelopeResult};

    #[test]
    fn panel_formatting_smoke() {
        let r = PaperResults {
            envelopes: vec![EnvelopeResult {
                arch: "M8".into(),
                workload: "2W1".into(),
                class: WorkloadClass::Ilp,
                threads: 2,
                best_ipc: 3.0,
                best_mapping: vec![0, 0],
                heur_ipc: 3.0,
                heur_mapping: vec![0, 0],
                worst_ipc: 3.0,
                worst_mapping: vec![0, 0],
                n_mappings: 1,
            }],
            areas: vec![("M8".into(), 170.0)],
            config: quick_spec(),
        };
        let s = format_figure_panel(&r, WorkloadClass::Ilp, false);
        assert!(s.contains("ILP workloads"));
        assert!(s.contains("3.00"));
        let s = format_figure_panel(&r, WorkloadClass::Ilp, true);
        assert!(s.contains("IPC/mm2"));
    }
}
