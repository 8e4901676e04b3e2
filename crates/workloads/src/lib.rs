//! # hdsmt-workloads — the paper's workloads, envelopes and §5 summary
//!
//! This crate turns campaign results into the paper's figures:
//!
//! * [`tables`] — the multiprogrammed workloads of Tables 2–3 (2W1–2W9,
//!   4W1–4W9, 6W1–6W4, classed ILP / MEM / MIX), typed over the campaign
//!   catalog's single copy;
//! * [`experiments`] — the BEST / HEUR / WORST mapping envelope per
//!   (microarchitecture, workload), folded from one `best`/`heur`/`worst`
//!   campaign: the data behind Fig 4 (IPC) and Fig 5 (IPC/area);
//! * [`summary`] — the §5 headline numbers (performance-per-area
//!   improvements, heuristic accuracy, raw-performance comparisons);
//! * [`format_figure_panel`] — one Fig 4/Fig 5 panel as a text table.
//!
//! The `reproduce` binary (`src/bin/reproduce.rs`) regenerates every
//! table and figure of the paper plus the ablations, printing
//! paper-style tables and writing JSON to `results/`.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

use experiments::Metric;

pub mod experiments;
pub mod summary;
pub mod tables;

pub use experiments::{
    paper_spec, quick_spec, run_paper_experiments, EnvelopeResult, PaperResults,
};
pub use summary::{summarize, Summary};
pub use tables::{all_workloads, Workload, WorkloadClass};

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
    use crate::experiments::{quick_spec, EnvelopeResult};

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
