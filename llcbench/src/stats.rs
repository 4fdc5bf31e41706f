//! Order statistics and the simulated-result digest.

/// Median, first and third quartile of `v`, with quartiles computed like
/// Python's `statistics.quantiles(v, n=4)` (the "exclusive" method), so
/// the numbers printed here match any spread computed from them there.
/// A single sample is its own median and quartiles.
///
/// # Panics
///
/// Panics when `v` is empty or holds a NaN.
pub fn median_q1_q3(v: &[f64]) -> (f64, f64, f64) {
    assert!(!v.is_empty(), "no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = s.len();
    let median = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    if n == 1 {
        return (median, median, median);
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (median, quartile(1), quartile(3))
}

/// FNV-1a, 64-bit: the digest over every simulated result a run
/// reports, fed with exact bit patterns (or their round-trip `Debug`
/// text), so two runs agree on the digest only when every simulated
/// field is bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64s(&mut self, v: &[f64]) {
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    /// Feeds a value's `Debug` text. Rust prints every float there in
    /// its shortest round-trip form, so the text pins the exact bits.
    pub fn debug<T: std::fmt::Debug>(&mut self, v: &T) {
        self.bytes(format!("{v:?}").as_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median_q1_q3(&v), (5.5, 2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(median_q1_q3(&[3.0, 1.0, 2.0]), (2.0, 1.0, 3.0));
        assert_eq!(median_q1_q3(&[4.0]), (4.0, 4.0, 4.0));
    }
}
