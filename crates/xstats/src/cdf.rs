//! Empirical cumulative distribution functions (Fig. 14a).

/// An empirical CDF over a sample set.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from raw samples, dropping non-finite values.
    ///
    /// Returns `None` when no finite samples remain.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Option<Self> {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|v| v.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Some(Self { sorted })
    }

    /// `P(X <= x)`, in `[0, 1]`.
    pub fn at(&self, x: f64) -> f64 {
        // partition_point gives the count of samples <= x.
        let le = self.sorted.partition_point(|&v| v <= x);
        le as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: smallest sample `x` with `P(X <= x) >= q`, `q` in `(0, 1]`.
    ///
    /// Total over all inputs: `q <= 0` returns the smallest sample,
    /// `q > 1` the largest, and a non-finite `q` returns `f64::NAN`.
    /// Use [`Cdf::try_quantile`] to detect out-of-range requests
    /// instead of absorbing them.
    pub fn quantile(&self, q: f64) -> f64 {
        if !q.is_finite() {
            return f64::NAN;
        }
        if q <= 0.0 {
            return self.sorted[0];
        }
        self.try_quantile(q.min(1.0))
            .expect("clamped q is in range")
    }

    /// Inverse CDF; `None` when `q` is non-finite or outside `(0, 1]`.
    pub(crate) fn try_quantile(&self, q: f64) -> Option<f64> {
        if !(q.is_finite() && q > 0.0 && q <= 1.0) {
            return None;
        }
        let n = self.sorted.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        Some(self.sorted[idx])
    }

    /// Evaluates the CDF at `points` evenly spaced x-values spanning the
    /// sample range, returning `(x, P(X <= x))` pairs — the series a plot of
    /// Fig. 14a is drawn from.
    ///
    /// Degenerate requests degrade instead of panicking: `points == 0`
    /// yields an empty series and `points == 1` a single point at the
    /// smallest sample.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        if points == 0 {
            return Vec::new();
        }
        if points == 1 {
            return vec![(self.sorted[0], self.at(self.sorted[0]))];
        }
        let lo = self.sorted[0];
        let hi = *self.sorted.last().expect("non-empty");
        let step = (hi - lo) / (points - 1) as f64;
        (0..points)
            .map(|i| {
                let x = lo + step * i as f64;
                (x, self.at(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cdf(v: &[f64]) -> Cdf {
        Cdf::from_samples(v.iter().copied()).expect("non-empty")
    }

    #[test]
    fn empty_is_none() {
        assert!(Cdf::from_samples(std::iter::empty()).is_none());
    }

    #[test]
    fn at_endpoints() {
        let c = cdf(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.at(0.5), 0.0);
        assert_eq!(c.at(4.0), 1.0);
        assert_eq!(c.at(100.0), 1.0);
    }

    #[test]
    fn at_is_right_continuous_step() {
        let c = cdf(&[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(c.at(2.0), 0.75);
        assert_eq!(c.at(1.999_999), 0.25);
    }

    #[test]
    fn quantile_inverts_at() {
        let c = cdf(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(c.quantile(0.2), 10.0);
        assert_eq!(c.quantile(0.5), 30.0);
        assert_eq!(c.quantile(1.0), 50.0);
    }

    #[test]
    fn quantile_clamps_out_of_range_and_rejects_non_finite() {
        let c = cdf(&[10.0, 20.0, 30.0]);
        // q <= 0 degrades to the smallest sample, q > 1 to the largest.
        assert_eq!(c.quantile(0.0), 10.0);
        assert_eq!(c.quantile(-1.0), 10.0);
        assert_eq!(c.quantile(2.0), 30.0);
        // Non-finite q yields NaN rather than a panic.
        assert!(c.quantile(f64::NAN).is_nan());
        assert!(c.quantile(f64::NEG_INFINITY).is_nan());
    }

    #[test]
    fn try_quantile_is_strict() {
        let c = cdf(&[10.0, 20.0, 30.0]);
        assert_eq!(c.try_quantile(0.5), Some(20.0));
        assert_eq!(c.try_quantile(1.0), Some(30.0));
        assert_eq!(c.try_quantile(0.0), None);
        assert_eq!(c.try_quantile(1.1), None);
        assert_eq!(c.try_quantile(f64::NAN), None);
    }

    #[test]
    fn series_degenerate_point_counts_degrade() {
        let c = cdf(&[1.0, 2.0, 3.0]);
        assert!(c.series(0).is_empty());
        let one = c.series(1);
        assert_eq!(one, vec![(1.0, c.at(1.0))]);
    }

    #[test]
    fn series_spans_range_and_is_monotone() {
        let c = cdf(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        let s = c.series(11);
        assert_eq!(s.len(), 11);
        assert_eq!(s[0].0, 1.0);
        assert_eq!(s[10].0, 5.0);
        assert_eq!(s[10].1, 1.0);
        for w in s.windows(2) {
            assert!(w[1].1 >= w[0].1, "CDF must be non-decreasing");
        }
    }
}
