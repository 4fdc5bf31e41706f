//! Fixed-width histograms (headroom-size distribution, §4.2).

/// A histogram over `[lo, hi)` with equally sized bins plus an overflow bin.
///
/// Out-of-range mass is never folded into an edge bin: samples below
/// `lo` count as [`Histogram::underflow`], samples at or above `hi` as
/// [`Histogram::overflow`], and non-finite samples (NaN, ±∞ — which
/// would otherwise slip through both range checks and saturate into
/// bin 0) as [`Histogram::nonfinite`]. Real lowest-bucket mass is
/// therefore always distinguishable from clamped garbage.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    overflow: u64,
    underflow: u64,
    nonfinite: u64,
    count: u64,
}

impl Histogram {
    /// Creates an empty histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "lo must be below hi");
        assert!(bins > 0, "need at least one bin");
        Self {
            lo,
            hi,
            bins: vec![0; bins],
            overflow: 0,
            underflow: 0,
            nonfinite: 0,
            count: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if !x.is_finite() {
            // NaN compares false with both edges and `as usize`
            // saturates NaN to 0 — without this branch a NaN would be
            // silently clamped into bin 0. +∞ is caught by the
            // overflow check but -∞ would underflow ambiguously; all
            // three are accounted here instead.
            self.nonfinite += 1;
        } else if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = (((x - self.lo) / width) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total recorded samples, including under/overflow.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples below `lo`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Per-bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// `(bin_low_edge, count)` pairs.
    pub fn edges(&self) -> Vec<(f64, u64)> {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo + width * i as f64, c))
            .collect()
    }

    /// Fraction of in-range samples at or below the bin containing `x`.
    ///
    /// Used for statements such as "95 % of the values are less than 512 B".
    /// A NaN threshold has no ordering, so it returns NaN rather than
    /// silently behaving like `x < lo`.
    pub fn fraction_le(&self, x: f64) -> f64 {
        if x.is_nan() {
            return f64::NAN;
        }
        if self.count == 0 {
            return 0.0;
        }
        let mut acc = self.underflow;
        if x >= self.hi {
            acc += self.bins.iter().sum::<u64>() + self.overflow;
        } else if x >= self.lo {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = (((x - self.lo) / width) as usize).min(self.bins.len() - 1);
            acc += self.bins[..=idx].iter().sum::<u64>();
        }
        acc as f64 / self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.0);
        h.record(0.5);
        h.record(9.99);
        assert_eq!(h.bins()[0], 2);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-0.1);
        h.record(1.0);
        h.record(5.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bins().iter().sum::<u64>(), 0);
    }

    /// Both edges stay distinguishable from real edge-bin mass: a
    /// below-range sample lands in `underflow` (not bin 0), an at-`hi`
    /// sample lands in `overflow` (not the last bin), and a sample at
    /// `lo` exactly is real bin-0 mass.
    #[test]
    fn edge_samples_never_clamp_into_edge_bins() {
        let mut h = Histogram::new(10.0, 20.0, 5);
        h.record(10.0); // lowest in-range value: bin 0
        h.record(9.999_999); // below lo: underflow, NOT bin 0
        h.record(20.0); // at hi: overflow, NOT last bin
        h.record(19.999_999); // highest in-range value: last bin
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.bins()[4], 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 4);
    }

    /// NaN and ±∞ are counted separately, never silently binned (NaN
    /// used to saturate into bin 0 through the `as usize` cast).
    #[test]
    fn nonfinite_samples_are_counted_not_binned() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        h.record(0.5);
        assert_eq!(h.nonfinite, 3);
        assert_eq!(h.bins().iter().sum::<u64>(), 1);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.count(), 4);
        assert!(h.fraction_le(f64::NAN).is_nan());
    }

    #[test]
    fn fraction_le() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64);
        }
        assert!((h.fraction_le(49.0) - 0.5).abs() < 1e-12);
        assert_eq!(h.fraction_le(1000.0), 1.0);
        assert_eq!(h.fraction_le(-1.0), 0.0);
    }

    #[test]
    fn edges_are_monotone() {
        let h = Histogram::new(2.0, 12.0, 5);
        let e = h.edges();
        assert_eq!(e.len(), 5);
        assert_eq!(e[0].0, 2.0);
        assert_eq!(e[4].0, 10.0);
    }

    #[test]
    #[should_panic(expected = "lo must be below hi")]
    fn rejects_inverted_range() {
        Histogram::new(1.0, 0.0, 4);
    }
}
