//! Percentile summaries over latency samples.
//!
//! The paper reports the 75th/90th/95th/99th percentiles and the mean of
//! end-to-end latency distributions (Figs. 1, 12, 13, 14). Percentiles use
//! the linear-interpolation definition (type 7 in the R taxonomy), which is
//! what gnuplot/numpy produce and therefore what the paper's plots show.

/// A sorted sample set with cached moments.
///
/// Build one with [`Summary::from_samples`]; all queries are then `O(1)` or
/// `O(log n)`.
#[derive(Debug, Clone)]
pub struct Summary {
    sorted: Vec<f64>,
    mean: f64,
    variance: f64,
    skewness: f64,
}

impl Summary {
    /// Builds a summary from raw samples.
    ///
    /// Non-finite samples are rejected because they would poison every
    /// moment; an empty (or all-non-finite) input yields `None`.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Option<Self> {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        sort_finite(&mut sorted);
        if sorted.is_empty() {
            return None;
        }
        let n = sorted.len() as f64;
        let mean = sorted.iter().sum::<f64>() / n;
        let m2 = sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        let m3 = sorted.iter().map(|v| (v - mean).powi(3)).sum::<f64>() / n;
        // Fisher-Pearson moment coefficient of skewness (§3.1 footnote: the
        // paper cites the standard formula for workload skewness).
        let skewness = if m2 > 0.0 { m3 / m2.powf(1.5) } else { 0.0 };
        Some(Self {
            sorted,
            mean,
            variance: m2,
            skewness,
        })
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Fisher-Pearson moment coefficient of skewness.
    pub fn skewness(&self) -> f64 {
        self.skewness
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }

    /// Median (the 50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Linear-interpolation percentile, `p` in `[0, 100]`.
    ///
    /// Total over all inputs: `p` outside `[0, 100]` is clamped to the
    /// range (so `percentile(-3.0) == min()` and
    /// `percentile(250.0) == max()`), and a non-finite `p` returns
    /// `f64::NAN`. Use [`Summary::try_percentile`] to detect
    /// out-of-range requests instead of absorbing them.
    pub fn percentile(&self, p: f64) -> f64 {
        if !p.is_finite() {
            return f64::NAN;
        }
        self.try_percentile(p.clamp(0.0, 100.0))
            .expect("clamped p is in range")
    }

    /// Linear-interpolation percentile, `p` in `[0, 100]`; `None` when
    /// `p` is non-finite or outside the range.
    pub(crate) fn try_percentile(&self, p: f64) -> Option<f64> {
        (p.is_finite() && (0.0..=100.0).contains(&p)).then(|| interpolate(&self.sorted, p))
    }

    /// The paper's standard report row: 75th, 90th, 95th, 99th percentiles
    /// and the mean, in that order.
    pub fn paper_row(&self) -> [f64; 5] {
        [
            self.percentile(75.0),
            self.percentile(90.0),
            self.percentile(95.0),
            self.percentile(99.0),
            self.mean(),
        ]
    }
}

/// `Summary::from_samples(samples).map(|s| s.percentile(p))` for `p` in
/// `[0, 100]`, computed in `samples`' own buffer instead of a new one:
/// the non-finite samples are dropped and the rest sorted in place, as
/// [`Summary`] keeps them. A caller that reuses one buffer per window
/// pays no allocation.
///
/// # Panics
///
/// Panics when `p` is outside `[0, 100]` or not a number.
pub fn percentile_in_place(samples: &mut Vec<f64>, p: f64) -> Option<f64> {
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile {p} outside [0, 100]"
    );
    sort_finite(samples);
    (!samples.is_empty()).then(|| interpolate(samples, p))
}

/// Drops the non-finite samples and sorts the rest ascending. The sort
/// is stable, so equal-comparing samples keep their input order.
fn sort_finite(samples: &mut Vec<f64>) {
    samples.retain(|v| v.is_finite());
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
}

/// The type-7 percentile of the non-empty ascending `sorted`, `p` in
/// `[0, 100]`.
fn interpolate(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Relative speedup `(base - new) / base`, in percent — how the paper
/// presents "Speedup for Latency (%)" in Fig. 1.
pub fn speedup_percent(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (base - new) / base * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(v: &[f64]) -> Summary {
        Summary::from_samples(v.iter().copied()).expect("non-empty")
    }

    #[test]
    fn empty_input_is_none() {
        assert!(Summary::from_samples(std::iter::empty()).is_none());
    }

    #[test]
    fn non_finite_filtered() {
        let s = Summary::from_samples(vec![1.0, f64::NAN, 3.0, f64::INFINITY]).unwrap();
        assert_eq!(s.sorted.len(), 2);
        assert_eq!(s.max(), 3.0);
    }

    #[test]
    fn all_non_finite_is_none() {
        assert!(Summary::from_samples(vec![f64::NAN, f64::INFINITY]).is_none());
    }

    #[test]
    fn single_sample() {
        let s = summary(&[42.0]);
        assert_eq!(s.percentile(0.0), 42.0);
        assert_eq!(s.percentile(99.0), 42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn median_of_even_count_interpolates() {
        let s = summary(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.median(), 2.5);
    }

    #[test]
    fn percentile_matches_linear_interpolation() {
        // numpy.percentile([10,20,30,40,50], 75) == 40.0.
        let s = summary(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(s.percentile(75.0), 40.0);
        assert_eq!(s.percentile(90.0), 46.0);
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.percentile(100.0), 50.0);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let s = summary(&[5.0, 1.0, 3.0]);
        assert_eq!(s.sorted, [1.0, 3.0, 5.0]);
    }

    #[test]
    fn moments() {
        let s = summary(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric_distribution_has_zero_skew() {
        let s = summary(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(s.skewness().abs() < 1e-12);
    }

    #[test]
    fn right_tailed_distribution_has_positive_skew() {
        let s = summary(&[1.0, 1.0, 1.0, 1.0, 10.0]);
        assert!(s.skewness() > 1.0);
    }

    #[test]
    fn paper_row_ordering() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let row = summary(&samples).paper_row();
        assert!(row[0] < row[1] && row[1] < row[2] && row[2] < row[3]);
        assert!((row[4] - 499.5).abs() < 1e-9);
    }

    #[test]
    fn percentile_clamps_out_of_range_and_rejects_non_finite() {
        let s = summary(&[10.0, 20.0, 30.0]);
        // Out-of-range p clamps to the extremes (documented totality).
        assert_eq!(s.percentile(101.0), 30.0);
        assert_eq!(s.percentile(-5.0), 10.0);
        // Non-finite p yields NaN rather than a panic.
        assert!(s.percentile(f64::NAN).is_nan());
        assert!(s.percentile(f64::INFINITY).is_nan());
    }

    #[test]
    fn try_percentile_is_strict() {
        let s = summary(&[10.0, 20.0, 30.0]);
        assert_eq!(s.try_percentile(50.0), Some(20.0));
        assert_eq!(s.try_percentile(0.0), Some(10.0));
        assert_eq!(s.try_percentile(100.0), Some(30.0));
        assert_eq!(s.try_percentile(100.1), None);
        assert_eq!(s.try_percentile(-0.1), None);
        assert_eq!(s.try_percentile(f64::NAN), None);
    }

    /// The in-place percentile is the summary's, bit for bit: same
    /// finite filter, same stable sort, same interpolation.
    #[test]
    fn percentile_in_place_matches_the_summary_bitwise() {
        let windows: [&[f64]; 6] = [
            &[],
            &[f64::NAN, f64::INFINITY],
            &[42.0],
            &[3.0, -0.0, 0.0, 3.0, f64::NAN, 1e-9, 7.5],
            &[250.0, 120.5, 120.5, 998.25, f64::NEG_INFINITY, 133.0, 121.0],
            &[0.1, 0.7, 0.2, 0.9, 0.3, 0.6, 0.4, 0.5, 0.8, 0.0, 1.0],
        ];
        for window in windows {
            for p in [0.0, 0.5, 50.0, 99.0, 99.9, 100.0] {
                let want = Summary::from_samples(window.iter().copied()).map(|s| s.percentile(p));
                let mut buf = window.to_vec();
                let got = percentile_in_place(&mut buf, p);
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{window:?} at p = {p}"
                );
                assert!(buf.iter().all(|v| v.is_finite()));
                assert!(buf.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }

    #[test]
    fn speedup_percent_basics() {
        assert_eq!(speedup_percent(100.0, 80.0), 20.0);
        assert_eq!(speedup_percent(0.0, 80.0), 0.0);
        assert!(speedup_percent(80.0, 100.0) < 0.0);
    }
}
