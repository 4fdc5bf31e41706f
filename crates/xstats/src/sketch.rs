//! Bounded-memory streaming quantiles: a fixed-bucket log-histogram.
//!
//! `Summary::from_samples` keeps every sample and sorts — O(samples)
//! memory, which is exactly what a million-request figure run must not
//! do. [`LogHist`] streams instead: geometric buckets over `[lo, hi)`
//! with ratio `γ = (1+α)/(1−α)`, so any quantile whose rank falls in
//! range is answered with **guaranteed relative error ≤ α** (the
//! DDSketch bound) from a few KiB of fixed state, no matter how many
//! samples were recorded.
//!
//! # Error bound
//!
//! Bucket `i > 0` covers `(lo·γ^(i−1), lo·γ^i]` and is represented by
//! its harmonic midpoint `lo·γ^i·2/(1+γ)`; for any true value `v` in
//! the bucket, `|rep − v|/v ≤ α` exactly (equality at the bucket
//! edges). [`LogHist::quantile`] returns the representative of the
//! bucket containing the rank-`⌈q·n⌉` sample, so its answer is within
//! `α` of that exact order statistic. Ranks that fall in the underflow
//! (overflow) mass return the exact tracked minimum (maximum) instead —
//! the extremes are exact, but mid-underflow ranks are not bounded, so
//! pick `[lo, hi)` to cover the expected data range and audit
//! [`LogHist::underflow`]/[`LogHist::overflow`] (both are reported, not
//! folded into edge buckets, mirroring [`crate::Histogram`]).
//!
//! Non-finite samples are counted ([`LogHist::nonfinite`]) but never
//! binned and never contribute to quantile ranks — NaN has no order.
//!
//! Everything is deterministic `f64` math: the same sample stream
//! always produces the same sketch and the same quantile answers, so
//! figure output built on sketches stays bit-identical across
//! execution modes.

/// A streaming log-bucket quantile sketch with relative error `α`.
#[derive(Debug, Clone)]
pub struct LogHist {
    alpha: f64,
    gamma: f64,
    inv_ln_gamma: f64,
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    nonfinite: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl LogHist {
    /// An empty sketch over `[lo, hi)` with relative-error bound
    /// `alpha`.
    ///
    /// Bucket count is `⌈ln(hi/lo)/ln γ⌉ + 1` — fixed at construction;
    /// e.g. `α = 1 %` over `[1 ns, 10³ s)` is 1368 buckets (~11 KiB).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1` and `0 < lo < hi` (both finite).
    pub fn new(alpha: f64, lo: f64, hi: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "relative error must be in (0, 1)"
        );
        assert!(
            lo > 0.0 && hi > lo && hi.is_finite(),
            "need 0 < lo < hi, both finite"
        );
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        let ln_gamma = gamma.ln();
        let n = ((hi / lo).ln() / ln_gamma).ceil() as usize + 1;
        Self {
            alpha,
            gamma,
            inv_ln_gamma: 1.0 / ln_gamma,
            lo,
            hi,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
            nonfinite: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The conventional latency sketch: `[1 ns, 10³ s)` at the given
    /// error bound — wide enough for any simulated-latency figure.
    pub fn latency_ns(alpha: f64) -> Self {
        Self::new(alpha, 1.0, 1e12)
    }

    /// Records one sample. O(1), allocation-free.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            self.nonfinite += 1;
            return;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v < self.lo {
            self.underflow += 1;
        } else if v >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((v / self.lo).ln() * self.inv_ln_gamma).ceil() as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// The quantile `q ∈ [0, 1]`: the representative of the bucket
    /// holding the rank-`⌈q·count⌉` sample (see the module-level error
    /// bound). `q = 0` returns the exact minimum, `q = 1` the exact
    /// maximum.
    ///
    /// # Panics
    ///
    /// Panics on an empty sketch or `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        assert!(self.count > 0, "quantile of an empty sketch");
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank <= self.underflow {
            return self.min;
        }
        let mut cum = self.underflow;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if rank <= cum {
                return if i == 0 {
                    self.lo
                } else {
                    // Harmonic midpoint of (lo·γ^(i−1), lo·γ^i].
                    self.lo * self.gamma.powi(i as i32) * 2.0 / (1.0 + self.gamma)
                };
            }
        }
        self.max
    }

    /// Finite samples recorded (quantile ranks run over these).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples below `lo` (counted, reported exactly at the extremes).
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Non-finite samples: counted, never binned, never ranked.
    pub fn nonfinite(&self) -> u64 {
        self.nonfinite
    }

    /// The configured relative-error bound α.
    pub fn relative_error(&self) -> f64 {
        self.alpha
    }

    /// Fixed bucket count (the whole memory footprint is
    /// `bucket_count × 8 B` plus a few scalars).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Exact mean of the recorded finite samples.
    ///
    /// # Panics
    ///
    /// Panics on an empty sketch.
    pub fn mean(&self) -> f64 {
        assert!(self.count > 0, "mean of an empty sketch");
        self.sum / self.count as f64
    }

    /// Exact minimum finite sample.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact maximum finite sample.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Folds `other` into `self` — the per-queue → aggregate path.
    ///
    /// # Panics
    ///
    /// Panics when the two sketches were built with different
    /// `(alpha, lo, hi)` (their buckets would not align).
    pub fn merge(&mut self, other: &LogHist) {
        assert!(
            self.alpha.to_bits() == other.alpha.to_bits()
                && self.lo.to_bits() == other.lo.to_bits()
                && self.hi.to_bits() == other.hi.to_bits(),
            "cannot merge sketches with different (alpha, lo, hi)"
        );
        debug_assert_eq!(self.buckets.len(), other.buckets.len());
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.nonfinite += other.nonfinite;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact order statistic under the sketch's own rank rule:
    /// rank ⌈q·n⌉ (1-indexed) of the sorted samples.
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// A deterministic, wildly multi-scale sample stream (no RNG:
    /// xstats stays dependency-free).
    fn stream(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = i as f64;
                // Mix of scales from ~1e1 to ~1e8 with heavy low mass.
                10.0 + (x * 1.618_033).sin().abs() * 90.0
                    + if i % 7 == 0 { x * 13.0 } else { 0.0 }
                    + if i % 97 == 0 { 1e6 + x * 101.0 } else { 0.0 }
            })
            .collect()
    }

    /// The headline guarantee: p50/p90/p99/p999 within α of the exact
    /// order statistic, for two different α, over 50k samples.
    #[test]
    fn quantiles_within_documented_relative_error() {
        for &alpha in &[0.01, 0.001] {
            let samples = stream(50_000);
            let mut sk = LogHist::new(alpha, 1.0, 1e12);
            for &s in &samples {
                sk.record(s);
            }
            let mut sorted = samples.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for &q in &[0.5, 0.9, 0.99, 0.999] {
                let exact = exact_quantile(&sorted, q);
                let got = sk.quantile(q);
                let rel = (got - exact).abs() / exact;
                assert!(
                    rel <= alpha * 1.000_001,
                    "alpha={alpha} q={q}: sketch {got} vs exact {exact} (rel {rel})"
                );
            }
        }
    }

    #[test]
    fn extremes_are_exact() {
        let mut sk = LogHist::new(0.02, 1.0, 1e9);
        for v in [3.5, 700.25, 0.001, 2e12] {
            sk.record(v);
        }
        assert_eq!(sk.quantile(0.0), 0.001); // underflow rank → exact min
        assert_eq!(sk.quantile(1.0), 2e12); // overflow rank → exact max
        assert_eq!(sk.min(), 0.001);
        assert_eq!(sk.max(), 2e12);
        assert_eq!(sk.underflow(), 1);
        assert_eq!(sk.overflow(), 1);
    }

    #[test]
    fn nonfinite_counted_never_ranked() {
        let mut sk = LogHist::new(0.01, 1.0, 1e6);
        sk.record(f64::NAN);
        sk.record(f64::INFINITY);
        sk.record(f64::NEG_INFINITY);
        sk.record(42.0);
        assert_eq!(sk.nonfinite(), 3);
        assert_eq!(sk.count(), 1);
        let p99 = sk.quantile(0.99);
        assert!((p99 - 42.0).abs() / 42.0 <= 0.01);
    }

    /// Merging per-queue sketches equals one sketch over the
    /// concatenated stream, bit for bit.
    #[test]
    fn merge_equals_single_sketch() {
        let samples = stream(10_000);
        let mut whole = LogHist::latency_ns(0.01);
        let mut parts: Vec<LogHist> = (0..4).map(|_| LogHist::latency_ns(0.01)).collect();
        for (i, &s) in samples.iter().enumerate() {
            whole.record(s);
            parts[i % 4].record(s);
        }
        let mut merged = parts.remove(0);
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged.count(), whole.count());
        for &q in &[0.5, 0.99, 0.999] {
            assert_eq!(merged.quantile(q).to_bits(), whole.quantile(q).to_bits());
        }
        // The mean's running sum is accumulated in a different order,
        // so it is equal to rounding, not to the bit.
        let rel = (merged.mean() - whole.mean()).abs() / whole.mean();
        assert!(rel < 1e-12, "merged mean drifted: {rel}");
    }

    #[test]
    fn memory_is_fixed_and_small() {
        let sk = LogHist::latency_ns(0.01);
        // ln(1e12)/ln(γ) at α = 1 % → ~1382 buckets, well under 2k.
        assert!(sk.bucket_count() < 2_000, "got {}", sk.bucket_count());
        let mut sk = sk;
        for i in 0..100_000 {
            sk.record((i % 977) as f64 + 1.0);
        }
        assert!(sk.bucket_count() < 2_000, "recording must not grow state");
    }

    #[test]
    fn mean_is_exact() {
        let mut sk = LogHist::new(0.05, 1.0, 1e6);
        for v in [1.0, 2.0, 3.0, 4.0] {
            sk.record(v);
        }
        assert_eq!(sk.mean(), 2.5);
    }

    #[test]
    #[should_panic(expected = "different (alpha, lo, hi)")]
    fn merge_rejects_mismatched_config() {
        let mut a = LogHist::new(0.01, 1.0, 1e6);
        let b = LogHist::new(0.02, 1.0, 1e6);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "empty sketch")]
    fn quantile_of_empty_panics() {
        LogHist::new(0.01, 1.0, 1e6).quantile(0.5);
    }
}
