//! §5 headline numbers, computed from a [`PaperResults`] campaign.

use crate::experiments::{Metric, PaperResults};
use crate::tables::WorkloadClass;

/// The paper's summary comparisons.
#[derive(Clone, Debug, serde::Serialize)]
pub struct Summary {
    /// Best heterogeneous configuration by overall IPC/area (the paper's
    /// 2M4+2M2).
    pub best_het_per_area: String,
    /// Performance-per-area improvement of the best heterogeneous hdSMT
    /// over the monolithic baseline, % (paper: 13%).
    pub per_area_vs_mono_pct: f64,
    /// …and over the best homogeneous clustering, % (paper: 14%).
    pub per_area_vs_homo_pct: f64,
    /// Per-class IPC/area improvement of the best heterogeneous machine
    /// over M8, % (paper: ILP 15, MEM 18, MIX 10).
    pub per_area_by_class_pct: Vec<(String, f64)>,
    /// Raw-IPC advantage of the monolithic baseline over the best
    /// heterogeneous machine, % (paper: ~6%).
    pub mono_raw_vs_het_pct: f64,
    /// Raw-IPC advantage of the best heterogeneous machine over the best
    /// homogeneous clustering, % (paper: ~7%).
    pub het_raw_vs_homo_pct: f64,
    /// Mean heuristic accuracy per multipipeline architecture (paper: 92%
    /// on 2M4+2M2, 96% on 1M6+2M4+2M2, 88% on 3M4+2M2).
    pub heuristic_accuracy: Vec<(String, f64)>,
    /// Does some hdSMT beat M8 on raw IPC for 6-thread ILP (paper: yes,
    /// 1M6+2M4+2M2)?
    pub six_thread_ilp_upset: bool,
}

const HET: [&str; 3] = ["2M4+2M2", "3M4+2M2", "1M6+2M4+2M2"];
const HOMO: [&str; 2] = ["3M4", "4M4"];

/// Compute the summary from a campaign. Uses the HEUR results — the
/// configuration a real system would run.
pub fn summarize(r: &PaperResults) -> Summary {
    let per_area_all = |arch: &str| r.hmean_ipc_all(arch, Metric::Heur) / r.area_of(arch);
    let raw_all = |arch: &str| r.hmean_ipc_all(arch, Metric::Heur);

    // An arch missing from the results has no area (NaN per-area value):
    // it cannot win, and must not poison the comparison.
    let best_het = HET
        .iter()
        .map(|a| (a, per_area_all(a)))
        .filter(|(_, pa)| pa.is_finite())
        .max_by(|(_, x), (_, y)| x.total_cmp(y))
        .map_or("n/a", |(a, _)| a)
        .to_string();
    let best_homo_pa = HOMO.iter().map(|a| per_area_all(a)).fold(f64::MIN, f64::max);
    let best_homo_raw = HOMO.iter().map(|a| raw_all(a)).fold(f64::MIN, f64::max);
    let best_het_raw = HET.iter().map(|a| raw_all(a)).fold(f64::MIN, f64::max);

    let pct = |new: f64, old: f64| (new / old - 1.0) * 100.0;

    let per_area_by_class_pct = [WorkloadClass::Ilp, WorkloadClass::Mem, WorkloadClass::Mix]
        .iter()
        .map(|&c| {
            let het = r.hmean_ipc_per_area(&best_het, c, None, Metric::Heur);
            let mono = r.hmean_ipc_per_area("M8", c, None, Metric::Heur);
            (c.label().to_string(), pct(het, mono))
        })
        .collect();

    let heuristic_accuracy = HET
        .iter()
        .chain(HOMO.iter())
        .map(|arch| {
            let cells: Vec<f64> =
                r.envelopes.iter().filter(|e| e.arch == *arch).map(|e| e.heur_accuracy()).collect();
            (arch.to_string(), cells.iter().sum::<f64>() / cells.len().max(1) as f64)
        })
        .collect();

    let m8_6ilp = r.hmean_ipc("M8", WorkloadClass::Ilp, Some(6), Metric::Best);
    let six_thread_ilp_upset =
        HET.iter().any(|a| r.hmean_ipc(a, WorkloadClass::Ilp, Some(6), Metric::Best) > m8_6ilp);

    Summary {
        per_area_vs_mono_pct: pct(per_area_all(&best_het), per_area_all("M8")),
        per_area_vs_homo_pct: pct(per_area_all(&best_het), best_homo_pa),
        per_area_by_class_pct,
        mono_raw_vs_het_pct: pct(raw_all("M8"), best_het_raw),
        het_raw_vs_homo_pct: pct(best_het_raw, best_homo_raw),
        heuristic_accuracy,
        six_thread_ilp_upset,
        best_het_per_area: best_het,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{quick_spec, EnvelopeResult, PaperResults};

    /// Build a synthetic campaign over `archs` with known numbers to
    /// verify the summary arithmetic without running simulations.
    fn fake_results(archs: &[&str]) -> PaperResults {
        // IPCs chosen so 2M4+2M2 wins per-area (its area is smallest).
        let ipc = |arch: &str| match arch {
            "M8" => 3.0,
            "3M4" => 2.5,
            "4M4" => 2.7,
            "2M4+2M2" => 2.6,
            "3M4+2M2" => 2.7,
            _ => 2.8,
        };
        let mut envelopes = Vec::new();
        for &arch in archs {
            for (wl, class, threads) in [
                ("2W1", WorkloadClass::Ilp, 2),
                ("2W4", WorkloadClass::Mem, 2),
                ("2W7", WorkloadClass::Mix, 2),
                ("6W1", WorkloadClass::Ilp, 6),
            ] {
                let v = ipc(arch);
                envelopes.push(EnvelopeResult {
                    arch: arch.to_string(),
                    workload: wl.to_string(),
                    class,
                    threads,
                    best_ipc: v * 1.05,
                    best_mapping: vec![],
                    heur_ipc: v,
                    heur_mapping: vec![],
                    worst_ipc: v * 0.8,
                    worst_mapping: vec![],
                    n_mappings: 4,
                });
            }
        }
        let areas = archs
            .iter()
            .map(|a| {
                (
                    a.to_string(),
                    hdsmt_area::microarch_area(&hdsmt_pipeline::MicroArch::parse(a).unwrap())
                        .total(),
                )
            })
            .collect();
        PaperResults { envelopes, areas, config: quick_spec() }
    }

    const PAPER_ARCHS: [&str; 6] = ["M8", "3M4", "4M4", "2M4+2M2", "3M4+2M2", "1M6+2M4+2M2"];

    #[test]
    fn summary_arithmetic() {
        let s = summarize(&fake_results(&PAPER_ARCHS));
        // 2M4+2M2: ipc 2.6 at ~0.73× area vs M8 3.0 → per-area win ~18%.
        assert_eq!(s.best_het_per_area, "2M4+2M2");
        assert!(s.per_area_vs_mono_pct > 10.0, "{}", s.per_area_vs_mono_pct);
        // M8 raw 3.0 vs best het 2.8 → ~7%.
        assert!((s.mono_raw_vs_het_pct - (3.0 / 2.8 - 1.0) * 100.0).abs() < 0.5);
        // Accuracy = heur/best = 1/1.05.
        for (_, acc) in &s.heuristic_accuracy {
            assert!((acc - 1.0 / 1.05).abs() < 1e-9);
        }
    }

    #[test]
    fn missing_het_arch_is_skipped() {
        // A subset campaign without 3M4+2M2: its per-area value is NaN,
        // which must neither panic nor win.
        let archs: Vec<&str> = PAPER_ARCHS.into_iter().filter(|a| *a != "3M4+2M2").collect();
        let s = summarize(&fake_results(&archs));
        assert_eq!(s.best_het_per_area, "2M4+2M2");
        assert!(s.per_area_vs_mono_pct.is_finite());
    }
}
