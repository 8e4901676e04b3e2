//! Order statistics for timings: medians, the fastest repeat, and the
//! tail-percentile rule.

/// Median of `values` (mean of the middle pair for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The fastest of `values`; `None` for an empty slice. Every repeat of a
/// measured phase does exactly the same work (its outputs are checked),
/// and other tenants of a shared host only ever add time to a repeat, so
/// the fastest repeat of a run tracks the measured code's own cost. Slow
/// stretches of a shared host last seconds to minutes; a median of the
/// repeats follows them, the fastest repeat does not.
pub fn fastest(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::min)
}

/// A tail latency: the highest whole percentile (at most 99) whose
/// nearest-rank sample still has at least ten samples beyond it, so the
/// figure never rests on a handful of outliers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub pct: u32,
    pub value: f64,
    pub samples: usize,
}

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `values` under the rule above; `None` when fewer samples
/// exist than any percentile from the median up needs.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    (50..=99u32).rev().find_map(|pct| {
        // Nearest rank: the smallest sample with at least pct% at or below it.
        let rank = (pct as usize * n).div_ceil(100).max(1);
        let index = rank - 1;
        (n - 1 - index >= TAIL_BEYOND).then(|| Tail { pct, value: v[index], samples: n })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the functions must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn fastest_uses_every_repeat() {
        assert_eq!(fastest(&[5.0, 3.0, 4.0, 9.0, 8.0, 7.0, 1.0]), Some(1.0), "the last counts");
        assert_eq!(fastest(&[4.0]), Some(4.0));
        assert_eq!(fastest(&[]), None);
        // A long slow stretch does not move the figure while one repeat ran clear.
        assert_eq!(fastest(&[1.4, 1.5, 1.6, 1.5, 1.4, 1.0, 1.5]), Some(1.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (99, 989.0, 1000));
        // Exactly ten samples (990..=999) lie beyond the reported value.
        assert_eq!(ramp(1000).iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        // One sample short of a thousand drops to p98.
        assert_eq!(tail(&ramp(999)).unwrap().pct, 98);
    }

    #[test]
    fn small_samples_fall_back_then_give_up() {
        assert_eq!(tail(&ramp(100)).unwrap().pct, 90);
        assert_eq!(tail(&ramp(20)).unwrap().pct, 50);
        assert_eq!(tail(&ramp(15)), None, "below the median there is no tail to report");
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn every_reported_tail_keeps_ten_samples_beyond() {
        for n in 20..1200 {
            let v = ramp(n);
            let t = tail(&v).unwrap();
            assert!(v.iter().filter(|&&x| x > t.value).count() >= TAIL_BEYOND, "n={n}");
            assert_eq!(t.samples, n);
        }
    }
}
