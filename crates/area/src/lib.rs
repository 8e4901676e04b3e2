//! # hdsmt-area — the area cost model (§3)
//!
//! The paper measures "complexity" as processor area in mm² at 0.18 µm,
//! estimated with the Karlsruhe Simultaneous Multithreaded Simulator's
//! transistor-count tooling and Burns & Gaudiot's SMT layout-overhead data.
//! Register file and caches are *excluded* ("Since both hdSMT and SMT
//! approaches share the same register file and caches, we have removed
//! them from the model"), but the sharing logic is charged back:
//!
//! * **+10 %** on each pipeline's execution core in multipipeline
//!   configurations (shared cache/register-file data access logic);
//! * **+20 %** on the fetch engine in multipipeline configurations
//!   (multipipeline steering support).
//!
//! We do not have the Karlsruhe tool, so this is a *parametric* model
//! whose constants are calibrated against the two anchors
//! the paper publishes: the per-model stacked areas of Fig 2(b) (M8 total
//! ≈ 170 mm²) and the microarchitecture deltas of Fig 3 (3M4 ≈ −17 %,
//! 4M4 ≈ +10.14 %, 2M4+2M2 ≈ −27 %, 3M4+2M2 ≈ −1 %, 1M6+2M4+2M2 ≈ +2 %
//! versus the M8 baseline). The fit reproduces all five deltas within
//! ~1.5 points (asserted by tests). Structurally:
//!
//! * execution core ∝ functional-unit areas (int 2.0, fp 4.5, ld/st
//!   3.2 mm²);
//! * each queue (decode/dispatch/completion) ∝ entries² — wakeup/select
//!   CAM logic dominates at these sizes, and the quadratic term is what
//!   the Fig 3 deltas demand;
//! * SMT context replication: a (contexts−1)² term plus a multiplicative
//!   per-context overhead (Burns & Gaudiot measure super-linear SMT
//!   layout overhead);
//! * width appears only through the FU mix — the paper's own numbers make
//!   M6 barely larger than M4 (same queues, same contexts, one more int
//!   unit), which rules out strong width-superlinear terms.

#![forbid(unsafe_code)]

pub mod microarch;
pub mod model;

pub use microarch::{microarch_area, paper_area_table, MicroArchArea};
pub use model::{pipeline_area, FetchArea, PipelineArea, StageAreas};

#[cfg(test)]
mod tests {
    use super::*;
    use hdsmt_pipeline::MicroArch;

    #[test]
    fn fig3_deltas_match_paper() {
        // (name, paper delta %) from Fig 3; tolerance ±1.6 points.
        let expected = [
            ("3M4", -17.0),
            ("4M4", 10.14),
            ("2M4+2M2", -27.0),
            ("3M4+2M2", -1.0),
            ("1M6+2M4+2M2", 2.0),
        ];
        let base = microarch_area(&MicroArch::baseline()).total();
        for (name, paper_delta) in expected {
            let a = microarch_area(&MicroArch::parse(name).unwrap()).total();
            let delta = (a / base - 1.0) * 100.0;
            assert!(
                (delta - paper_delta).abs() < 1.6,
                "{name}: model {delta:.1}% vs paper {paper_delta}%"
            );
        }
    }

    #[test]
    fn m8_total_near_170mm2() {
        let a = microarch_area(&MicroArch::baseline()).total();
        assert!((165.0..175.0).contains(&a), "M8 area {a:.1} mm²");
    }
}
