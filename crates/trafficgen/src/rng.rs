//! In-tree deterministic PRNG (no external dependencies).
//!
//! Every stochastic component in the workspace — workload generation,
//! replacement policies, fault injection, seeded tests — draws from this
//! one module so the whole simulation is reproducible from a single `u64`
//! seed and builds fully offline.
//!
//! The generator is xoshiro256** (Blackman & Vigna), seeded through a
//! SplitMix64 expansion of the user seed, which is the standard pairing:
//! SplitMix64 guarantees a well-mixed non-zero state even for adversarial
//! seeds (e.g. 0), and xoshiro256** passes BigCrush while needing only
//! four words of state and a handful of ALU ops per draw.
//!
//! The API mirrors the subset of `rand` the workspace used: seeding from
//! a `u64`, raw draws, floats in `[0, 1)`, and range sampling over the
//! integer types via [`Rng64::gen_range`] (both `a..b` and `a..=b`).

use std::ops::{Range, RangeInclusive};

/// One step of SplitMix64: the seed-expansion generator.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small, fast, deterministic generator (xoshiro256**).
#[derive(Debug, Clone)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// A generator whose whole stream is a function of `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng64 { s }
    }

    /// The next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// The next raw 32-bit draw (upper half of a 64-bit draw).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform draw in `[0, n)` without modulo bias (Lemire's
    /// multiply-shift with rejection).
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    #[inline]
    pub(crate) fn next_bounded(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty sample range");
        loop {
            let x = self.next_u64();
            let (hi, lo) = mul_wide(x, n);
            if lo >= n || lo >= n.wrapping_neg() % n {
                return hi;
            }
        }
    }

    /// Uniform sampling over an integer range, half-open or inclusive.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    #[inline]
    pub fn gen_range<R: RangeSample>(&mut self, range: R) -> R::Out {
        range.sample(self)
    }
}

#[inline]
fn mul_wide(a: u64, b: u64) -> (u64, u64) {
    let wide = (a as u128) * (b as u128);
    ((wide >> 64) as u64, wide as u64)
}

/// Integer ranges [`Rng64::gen_range`] can sample from.
pub trait RangeSample {
    /// The sampled value's type.
    type Out;
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut Rng64) -> Self::Out;
}

macro_rules! impl_range_sample {
    ($($t:ty),*) => {$(
        impl RangeSample for Range<$t> {
            type Out = $t;
            #[inline]
            fn sample(self, rng: &mut Rng64) -> $t {
                assert!(self.start < self.end, "empty sample range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + rng.next_bounded(span) as $t
            }
        }
        impl RangeSample for RangeInclusive<$t> {
            type Out = $t;
            #[inline]
            fn sample(self, rng: &mut Rng64) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty sample range");
                let span = (hi as u64) - (lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.next_bounded(span + 1) as $t
            }
        }
    )*};
}

impl_range_sample!(u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::seed_from_u64(1);
        let mut b = Rng64::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut r = Rng64::seed_from_u64(0);
        // SplitMix64 expansion means state is not all-zero.
        assert_ne!(r.next_u64(), 0, "first draw from seed 0 is non-trivial");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng64::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn range_half_open_hits_all_and_only_members() {
        let mut r = Rng64::seed_from_u64(9);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            let x = r.gen_range(10usize..15);
            assert!((10..15).contains(&x));
            seen[x - 10] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_inclusive_reaches_endpoints() {
        let mut r = Rng64::seed_from_u64(11);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2_000 {
            let x = r.gen_range(0u32..=7);
            assert!(x <= 7);
            lo_seen |= x == 0;
            hi_seen |= x == 7;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn single_value_ranges() {
        let mut r = Rng64::seed_from_u64(3);
        assert_eq!(r.gen_range(5u64..6), 5);
        assert_eq!(r.gen_range(5u16..=5), 5);
    }

    #[test]
    #[should_panic(expected = "empty sample range")]
    fn empty_range_panics() {
        let mut r = Rng64::seed_from_u64(3);
        let _ = r.gen_range(5usize..5);
    }

    #[test]
    fn bounded_is_unbiased_enough() {
        // Chi-square-ish sanity: 8 buckets over 80k draws stay within 5%.
        let mut r = Rng64::seed_from_u64(13);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.next_bounded(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_500..10_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Rng64::seed_from_u64(21);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2_300..2_700).contains(&hits), "{hits} hits at p=0.25");
    }
}
