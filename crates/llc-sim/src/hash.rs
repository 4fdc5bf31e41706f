//! Intel LLC *Complex Addressing*: the physical-address → slice hash.
//!
//! Intel distributes cache lines over LLC slices with an undocumented hash
//! of the physical address, so that consecutive lines land on different
//! slices and LLC bandwidth scales (paper §2). For CPUs with `2^n` slices
//! the function was reverse-engineered by Maurice et al. (RAID '15) as an
//! XOR of address-bit subsets; the paper verifies the same function on its
//! Xeon E5-2667 v3 (paper Fig. 4) and we reproduce it bit for bit in
//! [`XorSliceHash`].
//!
//! Skylake parts can have a slice count that is not a power of two (the
//! paper's Xeon Gold 6134 has 8 cores but 18 slices). The exact function
//! for those dies is not public; the paper side-steps it by using
//! counter-polling only. We model it with [`FoldedSliceHash`], a
//! deterministic per-line mix reduced modulo the slice count — it preserves
//! the properties the evaluation depends on (mapping changes at cache-line
//! granularity, near-uniform slice distribution) without claiming to be
//! Intel's function. See DESIGN.md §2 for the substitution note.

use crate::addr::PhysAddr;

/// A function mapping physical addresses to LLC slice indices.
pub trait SliceHash: Send + Sync {
    /// The slice holding the line that contains `pa`.
    fn slice_of(&self, pa: PhysAddr) -> usize;

    /// Total number of slices.
    fn slices(&self) -> usize;
}

/// Address bits XOR-ed into output bit `o0` (Maurice et al., Table 3;
/// paper Fig. 4 dark cells, first row).
pub const O0_BITS: &[u32] = &[
    6, 10, 12, 14, 16, 17, 18, 20, 22, 24, 25, 26, 27, 28, 30, 32, 33, 35, 36,
];

/// Address bits XOR-ed into output bit `o1` (second row of Fig. 4).
pub const O1_BITS: &[u32] = &[
    7, 11, 13, 15, 17, 19, 20, 21, 22, 23, 24, 26, 28, 29, 31, 33, 34, 35, 37,
];

/// Address bits XOR-ed into output bit `o2` (third row of Fig. 4).
pub const O2_BITS: &[u32] = &[8, 12, 13, 16, 19, 22, 23, 26, 27, 30, 31, 35, 36, 37, 38];

/// Builds the XOR mask (one bit set per participating address bit).
pub fn mask_of_bits(bits: &[u32]) -> u64 {
    bits.iter().fold(0u64, |m, &b| m | (1u64 << b))
}

/// The reverse-engineered Complex Addressing hash for `2^n`-slice CPUs.
///
/// Output bit `k` is the XOR (parity) of the physical-address bits selected
/// by `masks[k]`. With 8 slices all three published mask rows are used;
/// 4-slice parts use the first two and 2-slice parts the first one, exactly
/// as in Maurice et al. The rows sit in a fixed array; unused rows stay
/// zero, so their parity is always 0 and never changes a slice.
#[derive(Debug, Clone)]
pub struct XorSliceHash {
    masks: [u64; MAX_ROWS],
    rows: usize,
}

/// The most output bits (mask rows) a [`XorSliceHash`] holds: 8 slices.
const MAX_ROWS: usize = 3;

impl XorSliceHash {
    /// The function for a CPU with `2^n` slices, `n` in `1..=3`.
    ///
    /// # Panics
    ///
    /// Panics for `n == 0` or `n > 3` (no published masks beyond 8 slices).
    pub(crate) fn for_slices_pow2(n: u32) -> Self {
        assert!((1..=3).contains(&n), "published masks cover 2..=8 slices");
        let all = [O0_BITS, O1_BITS, O2_BITS];
        Self::from_masks(all[..n as usize].iter().map(|b| mask_of_bits(b)).collect())
    }

    /// The 8-slice function of the paper's Xeon E5-2667 v3.
    pub fn haswell_8slice() -> Self {
        Self::for_slices_pow2(3)
    }

    /// Constructs a hash from explicit per-output-bit XOR masks.
    ///
    /// Used by the reverse-engineering code in the `slice-aware` crate to
    /// compare a reconstructed function against the ground truth.
    ///
    /// # Panics
    ///
    /// Panics when `masks` is empty or has more than 3 rows (more than 8
    /// slices).
    pub fn from_masks(masks: Vec<u64>) -> Self {
        assert!(!masks.is_empty(), "need at least one output bit");
        assert!(
            masks.len() <= MAX_ROWS,
            "at most {MAX_ROWS} output bits (8 slices), got {}",
            masks.len()
        );
        let mut rows = [0; MAX_ROWS];
        rows[..masks.len()].copy_from_slice(&masks);
        Self {
            masks: rows,
            rows: masks.len(),
        }
    }

    /// The per-output-bit XOR masks.
    #[cfg(test)]
    pub(crate) fn masks(&self) -> &[u64] {
        &self.masks[..self.rows]
    }
}

impl SliceHash for XorSliceHash {
    #[inline]
    fn slice_of(&self, pa: PhysAddr) -> usize {
        let a = pa.raw();
        let [m0, m1, m2] = self.masks;
        ((a & m0).count_ones() & 1
            | ((a & m1).count_ones() & 1) << 1
            | ((a & m2).count_ones() & 1) << 2) as usize
    }

    fn slices(&self) -> usize {
        1 << self.rows
    }
}

/// Deterministic per-line hash folded modulo a non-power-of-two slice count
/// (Skylake substitute; see module docs).
///
/// The mix is a fixed-point multiplication ("splitmix"-style finaliser) of
/// the line number, which gives near-uniform slice occupancy while staying
/// a pure function of the physical address.
#[derive(Debug, Clone)]
pub struct FoldedSliceHash {
    slices: usize,
}

impl FoldedSliceHash {
    /// A folded hash over `slices` slices.
    ///
    /// # Panics
    ///
    /// Panics when `slices == 0`.
    pub fn new(slices: usize) -> Self {
        assert!(slices > 0, "need at least one slice");
        Self { slices }
    }

    /// The 18-slice layout of the paper's Xeon Gold 6134.
    pub fn skylake_18slice() -> Self {
        Self::new(18)
    }
}

impl SliceHash for FoldedSliceHash {
    #[inline]
    fn slice_of(&self, pa: PhysAddr) -> usize {
        let mut x = pa.line();
        // SplitMix64 finaliser: full-avalanche mix of the line number.
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        (x % self.slices as u64) as usize
    }

    fn slices(&self) -> usize {
        self.slices
    }
}

/// The hash a [`crate::machine::Machine`] runs: one of the two preset
/// functions, dispatched by a `match` that inlines into every per-line
/// loop instead of a virtual call.
#[derive(Debug, Clone)]
pub(crate) enum MachineHash {
    /// [`XorSliceHash`] (`2^n` slices).
    Xor(XorSliceHash),
    /// [`FoldedSliceHash`] (any slice count).
    Folded(FoldedSliceHash),
}

impl SliceHash for MachineHash {
    #[inline]
    fn slice_of(&self, pa: PhysAddr) -> usize {
        match self {
            MachineHash::Xor(h) => h.slice_of(pa),
            MachineHash::Folded(h) => h.slice_of(pa),
        }
    }

    fn slices(&self) -> usize {
        match self {
            MachineHash::Xor(h) => h.slices(),
            MachineHash::Folded(h) => h.slices(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_match_published_bit_lists() {
        let h = XorSliceHash::haswell_8slice();
        assert_eq!(h.masks().len(), 3);
        assert_eq!(h.masks()[0], mask_of_bits(O0_BITS));
        assert_eq!(h.masks()[2] & (1 << 38), 1 << 38);
        // Bit 6 participates in o0 only.
        assert_eq!(h.masks()[0] & (1 << 6), 1 << 6);
        assert_eq!(h.masks()[1] & (1 << 6), 0);
    }

    #[test]
    fn same_line_same_slice() {
        let h = XorSliceHash::haswell_8slice();
        let base = PhysAddr(0x12345 * 64);
        for off in 0..64 {
            assert_eq!(h.slice_of(base.add(off)), h.slice_of(base));
        }
    }

    #[test]
    fn adjacent_lines_usually_differ() {
        // Bit 6 flips o0 between adjacent lines, so consecutive lines must
        // alternate the low output bit.
        let h = XorSliceHash::haswell_8slice();
        let a = h.slice_of(PhysAddr(0));
        let b = h.slice_of(PhysAddr(64));
        assert_ne!(a & 1, b & 1);
    }

    #[test]
    fn xor_hash_distribution_is_uniform() {
        let h = XorSliceHash::haswell_8slice();
        let mut counts = [0usize; 8];
        // 1 MB of consecutive lines.
        for i in 0..16384u64 {
            counts[h.slice_of(PhysAddr(i * 64))] += 1;
        }
        for &c in &counts {
            assert_eq!(c, 16384 / 8, "XOR hash is exactly balanced over 2^k lines");
        }
    }

    #[test]
    fn slice_count_by_mask_rows() {
        assert_eq!(XorSliceHash::for_slices_pow2(1).slices(), 2);
        assert_eq!(XorSliceHash::for_slices_pow2(2).slices(), 4);
        assert_eq!(XorSliceHash::for_slices_pow2(3).slices(), 8);
    }

    #[test]
    #[should_panic(expected = "published masks")]
    fn rejects_unknown_widths() {
        XorSliceHash::for_slices_pow2(4);
    }

    #[test]
    #[should_panic(expected = "at most 3 output bits")]
    fn from_masks_rejects_more_than_three_rows() {
        XorSliceHash::from_masks(vec![1 << 6, 1 << 7, 1 << 8, 1 << 9]);
    }

    /// The fixed-array hash equals a per-row parity loop over exactly the
    /// used rows, for 1, 2 and 3 rows: zeroed unused rows never change a
    /// slice, and `slices()` follows the row count.
    #[test]
    fn fixed_rows_match_per_row_parity_reference() {
        let reference = |masks: &[u64], pa: u64| {
            masks.iter().enumerate().fold(0usize, |slice, (k, &m)| {
                slice | (((pa & m).count_ones() & 1) as usize) << k
            })
        };
        let mut rng = trafficgen::Rng64::seed_from_u64(0x5a5a);
        for n in 1..=3u32 {
            let published = XorSliceHash::for_slices_pow2(n);
            let rows: Vec<u64> = (0..n).map(|_| rng.next_u64() & !63).collect();
            let explicit = XorSliceHash::from_masks(rows.clone());
            assert_eq!(published.masks().len(), n as usize);
            assert_eq!(explicit.masks(), &rows[..]);
            assert_eq!(published.slices(), 1 << n);
            assert_eq!(explicit.slices(), 1 << n);
            for _ in 0..4096 {
                let pa = rng.next_u64() >> 16;
                let want = reference(published.masks(), pa);
                assert_eq!(published.slice_of(PhysAddr(pa)), want, "n={n} pa={pa:#x}");
                assert!(want < 1 << n);
                let want = reference(&rows, pa);
                assert_eq!(explicit.slice_of(PhysAddr(pa)), want, "n={n} pa={pa:#x}");
            }
        }
    }

    #[test]
    fn hash_depends_only_on_masked_bits() {
        let h = XorSliceHash::haswell_8slice();
        let combined = h.masks().iter().fold(0, |a, &m| a | m);
        let pa = PhysAddr(0x0dea_dbee_f000);
        // Flipping a non-participating bit never changes the slice.
        for bit in 0..40 {
            if combined & (1 << bit) == 0 {
                let flipped = PhysAddr(pa.raw() ^ (1 << bit));
                assert_eq!(h.slice_of(pa), h.slice_of(flipped), "bit {bit}");
            }
        }
    }

    #[test]
    fn flipping_a_participating_bit_changes_the_slice() {
        let h = XorSliceHash::haswell_8slice();
        let pa = PhysAddr(0x4000_0000);
        for &bit in O0_BITS {
            let flipped = PhysAddr(pa.raw() ^ (1 << bit));
            assert_ne!(h.slice_of(pa), h.slice_of(flipped), "bit {bit}");
        }
    }

    #[test]
    fn folded_hash_covers_all_slices_roughly_uniformly() {
        let h = FoldedSliceHash::skylake_18slice();
        let mut counts = [0usize; 18];
        let lines = 18 * 4096;
        for i in 0..lines as u64 {
            counts[h.slice_of(PhysAddr(i * 64))] += 1;
        }
        let expect = lines / 18;
        for (s, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect as f64).abs() / expect as f64;
            assert!(dev < 0.10, "slice {s} occupancy off by {dev:.3}");
        }
    }

    #[test]
    fn folded_hash_stable_within_line() {
        let h = FoldedSliceHash::skylake_18slice();
        let base = PhysAddr(0xabc * 64);
        assert_eq!(h.slice_of(base), h.slice_of(base.add(63)));
    }

    #[test]
    #[should_panic(expected = "at least one slice")]
    fn folded_rejects_zero() {
        FoldedSliceHash::new(0);
    }
}
