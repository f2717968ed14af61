//! Exact sample statistics.
//!
//! Quantiles are nearest-rank over the raw samples (no histogram
//! buckets), and a percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it. Run-level summaries (median and
//! quartiles across repeated runs) follow Python's
//! `statistics.quantiles(values, n=4)`, the method the acceptance check
//! for this benchmark uses.

/// A percentile needs this many samples strictly above its rank.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `q`-quantile among `n` sorted samples:
/// the smallest rank whose cumulative share reaches `q`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the `q`-quantile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Raw samples of one op, sorted once.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The exact `q`-quantile, whatever the sample count (`None` only
    /// when there are no samples).
    pub fn quantile_unchecked(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted[rank(self.sorted.len(), q) - 1])
        }
    }

    /// The exact `q`-quantile, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if beyond(self.sorted.len(), q) < MIN_BEYOND {
            None
        } else {
            self.quantile_unchecked(q)
        }
    }
}

/// Median of a handful of run-level values (mean of the middle two for
/// an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    (out[0], out[1], out[2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Rng;

    /// The q-quantile by definition: the smallest sample `x` with at
    /// least `q·n` samples `<= x`, found by brute force over every
    /// candidate.
    fn brute_quantile(values: &[f64], q: f64) -> f64 {
        let n = values.len() as f64;
        let mut best: Option<f64> = None;
        for &x in values {
            let at_or_below = values.iter().filter(|&&v| v <= x).count() as f64;
            if at_or_below >= (q * n).ceil().max(1.0) && best.is_none_or(|b| x < b) {
                best = Some(x);
            }
        }
        best.expect("some sample qualifies")
    }

    #[test]
    fn quantiles_match_brute_force_sort() {
        let mut rng = Rng::new(7);
        for n in [1usize, 2, 3, 9, 10, 11, 99, 100, 101, 999, 1000, 1013] {
            let values: Vec<f64> = (0..n)
                .map(|_| (rng.below(500) as f64) * 0.25 + rng.unit())
                .collect();
            let samples = Samples::new(values.clone());
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(
                    samples.quantile_unchecked(q),
                    Some(brute_quantile(&values, q)),
                    "n={n} q={q}"
                );
                let beyond_brute = values
                    .iter()
                    .filter(|&&v| v > brute_quantile(&values, q))
                    .count();
                // Ties can only push samples to the rank's side, never
                // beyond it, so the rule is conservative.
                assert!(beyond(n, q) >= beyond_brute, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let s = Samples::new((1..=100).map(f64::from).collect());
        assert_eq!(s.quantile(0.9), Some(90.0));
        assert_eq!(s.quantile(0.99), None, "one sample beyond p99 of 100");
        let s = Samples::new((1..=1000).map(f64::from).collect());
        assert_eq!(s.quantile(0.99), Some(990.0));
        assert_eq!(Samples::new(vec![]).quantile(0.5), None);
    }

    #[test]
    fn run_summary_matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]: Python
        // extrapolates beyond the data for tiny samples, and so do we.
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 3.0, 6.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0, 1.0, 3.0]), 3.0);
        // The middle quartile is the median, for odd and even counts.
        let mut rng = Rng::new(3);
        for n in 2..40 {
            let v: Vec<f64> = (0..n).map(|_| rng.unit()).collect();
            assert!((quartiles(&v).1 - median(&v)).abs() < 1e-12, "n={n}");
        }
    }
}
