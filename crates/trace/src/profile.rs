//! Behavioural benchmark profiles.
//!
//! A [`BenchProfile`] is the knob set from which a synthetic benchmark is
//! generated. Every knob maps onto one of the behavioural axes the paper's
//! evaluation depends on; see the crate docs for the substitution argument.

/// Paper-level workload classification of a benchmark (Table 2/3 footnote:
/// I = high instruction-level parallelism, M = bad memory behaviour).
#[derive(Clone, Copy, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
pub enum BenchClass {
    /// High-ILP, cache-friendly.
    Ilp,
    /// Memory-bound.
    Mem,
}

/// Generator parameters for one synthetic benchmark.
///
/// Fractions are over the relevant population (e.g. `frac_load` over
/// non-control instructions, `loop_frac` over conditional terminators).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct BenchProfile {
    pub name: &'static str,
    pub class: BenchClass,

    // ---- static code shape ----
    /// Number of basic blocks in the main region (controls the instruction
    /// footprint and hence I-cache behaviour; ~7 instructions / 28 bytes per
    /// block on average).
    pub blocks: u16,
    /// Inclusive range of block body lengths (excluding the terminator
    /// instruction).
    pub block_len: (u8, u8),
    /// Number of called functions (exercises call/return and the RAS).
    pub funcs: u8,

    // ---- dynamic instruction mix (fractions of body instructions) ----
    pub frac_load: f32,
    pub frac_store: f32,
    /// Fraction of ALU body ops that are floating point.
    pub frac_fp: f32,
    /// Fraction of integer ALU ops that are multiplies.
    pub frac_mul: f32,

    // ---- dependence structure (ILP) ----
    /// Probability that an instruction's first source is the *immediately
    /// preceding* producer (long serial chains → low ILP). Low values leave
    /// wide instruction-level parallelism for the pipeline to harvest.
    pub serial_dep: f32,
    /// Probability that a load's base register is a recent load result
    /// (pointer chasing: serialises cache misses, the mcf signature).
    pub ptr_chase: f32,

    // ---- memory behaviour ----
    /// Portion of memory ops accessing the small hot stack frame.
    pub stack_frac: f32,
    /// Of the remaining memory ops, the portion doing strided scans (the
    /// rest access their region uniformly at random).
    pub stride_frac: f32,
    /// Scan stride in bytes.
    pub stride_bytes: u16,
    /// Working-set region sizes in KB: `[small, medium, large]`. Relative
    /// to the paper's 64 KB L1D / 512 KB L2, a region ≤ 32 KB is L1-resident,
    /// ~256–512 KB lives in L2, and multi-MB regions stream from memory.
    pub ws_kb: [u32; 3],
    /// Relative weights distributing non-stack memory ops over the three
    /// regions.
    pub region_weights: [f32; 3],

    // ---- control behaviour ----
    /// Fraction of conditional terminators that are counted loops
    /// (near-perfectly predictable).
    pub loop_frac: f32,
    /// Inclusive trip-count range for counted loops.
    pub loop_trip: (u16, u16),
    /// Mean taken-bias of non-loop conditionals (0.5 = coin flip, 1.0 =
    /// always taken).
    pub br_bias: f32,
    /// Fraction of non-loop conditionals that are data-dependent coin flips
    /// (p ≈ 0.5), which no predictor can learn.
    pub br_noise_frac: f32,
    /// Fraction of block terminators that are calls.
    pub call_frac: f32,
    /// Fraction of block terminators that are indirect jumps (interpreter
    /// dispatch, virtual calls; stresses the BTB).
    pub indirect_frac: f32,
}

impl BenchProfile {
    /// Sanity-check the knob ranges. Returns a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        let frac = |v: f32, what: &str| -> Result<(), String> {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{}: {what} = {v} out of [0,1]", self.name))
            }
        };
        frac(self.frac_load, "frac_load")?;
        frac(self.frac_store, "frac_store")?;
        if self.frac_load + self.frac_store > 0.8 {
            return Err(format!("{}: memory fraction implausibly high", self.name));
        }
        frac(self.frac_fp, "frac_fp")?;
        frac(self.frac_mul, "frac_mul")?;
        frac(self.serial_dep, "serial_dep")?;
        frac(self.ptr_chase, "ptr_chase")?;
        frac(self.stack_frac, "stack_frac")?;
        frac(self.stride_frac, "stride_frac")?;
        frac(self.loop_frac, "loop_frac")?;
        frac(self.br_noise_frac, "br_noise_frac")?;
        frac(self.call_frac, "call_frac")?;
        frac(self.indirect_frac, "indirect_frac")?;
        if self.call_frac + self.indirect_frac > 0.9 {
            return Err(format!("{}: too few conditional branches", self.name));
        }
        if !(0.5..=1.0).contains(&self.br_bias) {
            return Err(format!("{}: br_bias {} out of [0.5,1]", self.name, self.br_bias));
        }
        if self.blocks == 0 {
            return Err(format!("{}: no blocks", self.name));
        }
        if self.block_len.0 == 0 || self.block_len.0 > self.block_len.1 {
            return Err(format!("{}: bad block_len range", self.name));
        }
        if self.loop_trip.0 == 0 || self.loop_trip.0 > self.loop_trip.1 {
            return Err(format!("{}: bad loop_trip range", self.name));
        }
        if self.ws_kb.contains(&0) {
            return Err(format!("{}: zero-sized working-set region", self.name));
        }
        if self.region_weights.iter().any(|&w| w < 0.0 || !w.is_finite())
            || self.region_weights.iter().sum::<f32>() <= 0.0
        {
            return Err(format!("{}: bad region weights", self.name));
        }
        if self.stride_bytes == 0 {
            return Err(format!("{}: zero stride", self.name));
        }
        Ok(())
    }

    /// Approximate static code footprint in bytes (for I-cache reasoning in
    /// tests and docs).
    pub fn approx_code_bytes(&self) -> u64 {
        let avg_len = (self.block_len.0 as u64 + self.block_len.1 as u64) / 2 + 1;
        self.blocks as u64 * avg_len * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn base() -> BenchProfile {
        BenchProfile {
            name: "test",
            class: BenchClass::Ilp,
            blocks: 100,
            block_len: (4, 10),
            funcs: 4,
            frac_load: 0.25,
            frac_store: 0.10,
            frac_fp: 0.05,
            frac_mul: 0.05,
            serial_dep: 0.2,
            ptr_chase: 0.1,
            stack_frac: 0.3,
            stride_frac: 0.5,
            stride_bytes: 8,
            ws_kb: [16, 256, 2048],
            region_weights: [0.5, 0.3, 0.2],
            loop_frac: 0.3,
            loop_trip: (8, 64),
            br_bias: 0.9,
            br_noise_frac: 0.08,
            call_frac: 0.05,
            indirect_frac: 0.02,
        }
    }

    #[test]
    fn valid_profile_passes() {
        base().validate().unwrap();
    }

    #[test]
    fn rejects_out_of_range_fractions() {
        let mut p = base();
        p.frac_load = 1.5;
        assert!(p.validate().is_err());
        let mut p = base();
        p.br_bias = 0.3;
        assert!(p.validate().is_err());
        let mut p = base();
        p.frac_load = 0.6;
        p.frac_store = 0.4;
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_degenerate_shapes() {
        let mut p = base();
        p.blocks = 0;
        assert!(p.validate().is_err());
        let mut p = base();
        p.block_len = (5, 3);
        assert!(p.validate().is_err());
        let mut p = base();
        p.loop_trip = (0, 4);
        assert!(p.validate().is_err());
        let mut p = base();
        p.ws_kb = [0, 1, 1];
        assert!(p.validate().is_err());
        let mut p = base();
        p.region_weights = [0.0, 0.0, 0.0];
        assert!(p.validate().is_err());
    }

    #[test]
    fn code_footprint_estimate() {
        let p = base();
        // 100 blocks * (7 + 1) * 4 bytes.
        assert_eq!(p.approx_code_bytes(), 100 * 8 * 4);
    }
}
