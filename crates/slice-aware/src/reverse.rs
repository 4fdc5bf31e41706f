//! Reconstructing the Complex Addressing hash (paper §2.1, Fig. 4).
//!
//! For CPUs with `2^n` slices the hash is linear over GF(2): each output
//! bit is the XOR of a subset of physical-address bits. Linearity means
//! `slice(a ⊕ e_b) = slice(a) ⊕ slice-contribution(e_b)`, so comparing the
//! polled slices of two addresses that differ in exactly one bit reveals
//! which output bits that address bit feeds — "one can compare the slices
//! found, acquired by polling, for different addresses that differ in only
//! one bit and then determine whether that bit is part of the hash
//! function or not".
//!
//! [`reconstruct_hash`] runs that procedure against a machine using only
//! the polling primitive, then [`verify_hash`] checks the reconstruction
//! on a batch of addresses — the validation step the paper describes.

use crate::mapping::poll_slice_of;
use llc_sim::addr::PhysAddr;
use llc_sim::hash::{SliceHash, XorSliceHash};
use llc_sim::machine::Machine;
use llc_sim::mem::Region;
use trafficgen::Rng64;

/// Lowest physical-address bit that can participate (bit 6: below that is
/// the line offset, which never matters).
pub(crate) const FIRST_CANDIDATE_BIT: u32 = 6;

/// Result of a hash reconstruction.
#[derive(Debug, Clone)]
pub struct ReconstructedHash {
    /// Per-output-bit XOR masks over physical-address bits.
    pub masks: Vec<u64>,
    /// The highest address bit that was probed.
    pub max_bit: u32,
}

impl ReconstructedHash {
    /// The reconstructed function as a usable [`XorSliceHash`].
    pub fn as_hash(&self) -> XorSliceHash {
        XorSliceHash::from_masks(self.masks.clone())
    }

    /// Renders the Fig. 4-style table: one row per output bit, one column
    /// per probed address bit (`#` participating, `.` not).
    pub fn render_fig4(&self) -> String {
        let mut out = String::new();
        out.push_str("bit   ");
        for b in (FIRST_CANDIDATE_BIT..=self.max_bit).rev() {
            out.push_str(&format!("{:>3}", b));
        }
        out.push('\n');
        for (k, &mask) in self.masks.iter().enumerate() {
            out.push_str(&format!("o{k}    "));
            for b in (FIRST_CANDIDATE_BIT..=self.max_bit).rev() {
                out.push_str(if mask & (1u64 << b) != 0 {
                    "  #"
                } else {
                    "  ."
                });
            }
            out.push('\n');
        }
        out
    }
}

/// Reconstructs the XOR masks of a `2^n`-slice hash by bit-flip polling.
///
/// `region` must be large enough that `base ⊕ (1 << bit)` stays inside it
/// for every probed bit; a naturally aligned region of `2^(max_bit+1)`
/// bytes with `base` at its start works (the paper uses a 1 GB hugepage,
/// covering bits 6..=29; higher bits need multiple hugepages — we probe
/// whatever fits).
///
/// # Panics
///
/// Panics when the machine's slice count is not a power of two (the
/// technique is defined for linear hashes only) or the region is smaller
/// than two cache lines.
pub fn reconstruct_hash(
    m: &mut Machine,
    core: usize,
    region: Region,
    polls: usize,
) -> ReconstructedHash {
    let slices = m.config().slices;
    assert!(
        slices.is_power_of_two(),
        "bit-flip reconstruction needs a linear (2^n-slice) hash"
    );
    let out_bits = slices.trailing_zeros() as usize;
    assert!(region.len() >= 128, "region too small to flip any bit");
    // Highest bit we can flip while staying inside the region.
    let max_bit = 63 - (region.len() as u64).leading_zeros() - 1;
    let base = region.base();
    let base_slice = poll_slice_of(m, core, base, polls);
    let mut masks = vec![0u64; out_bits];
    for bit in FIRST_CANDIDATE_BIT..=max_bit {
        let flipped = PhysAddr(base.raw() ^ (1u64 << bit));
        if !region.contains(flipped) {
            continue;
        }
        let s = poll_slice_of(m, core, flipped, polls);
        let diff = s ^ base_slice;
        for (k, mask) in masks.iter_mut().enumerate() {
            if diff & (1 << k) != 0 {
                *mask |= 1u64 << bit;
            }
        }
    }
    ReconstructedHash { masks, max_bit }
}

/// Verifies a reconstructed hash against polling on `samples` random
/// addresses within `region`; returns the agreement fraction (the paper
/// "verified by assessing a wide range of addresses").
pub fn verify_hash(
    m: &mut Machine,
    core: usize,
    region: Region,
    rec: &ReconstructedHash,
    samples: usize,
    polls: usize,
    seed: u64,
) -> f64 {
    let hash = rec.as_hash();
    let mut rng = Rng64::seed_from_u64(seed);
    let lines = region.len() / llc_sim::CACHE_LINE;
    let mut agree = 0usize;
    for _ in 0..samples {
        let pa = region.pa(rng.gen_range(0..lines) * llc_sim::CACHE_LINE);
        let predicted = hash.slice_of(pa);
        let polled = poll_slice_of(m, core, pa, polls);
        if predicted == polled {
            agree += 1;
        }
    }
    agree as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::hash::{mask_of_bits, O0_BITS, O1_BITS, O2_BITS};
    use llc_sim::machine::MachineConfig;

    fn machine_with_region(bytes: usize) -> (Machine, Region) {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(bytes * 2));
        let r = m.mem_mut().alloc(bytes, bytes).unwrap();
        (m, r)
    }

    #[test]
    fn reconstructs_published_masks_up_to_region_bits() {
        // A 16 MB naturally aligned region covers bits 6..=23.
        let (mut m, r) = machine_with_region(16 << 20);
        let rec = reconstruct_hash(&mut m, 0, r, 8);
        assert_eq!(rec.max_bit, 23);
        let below = |mask: u64| mask & ((1u64 << 24) - 1);
        assert_eq!(rec.masks[0], below(mask_of_bits(O0_BITS)));
        assert_eq!(rec.masks[1], below(mask_of_bits(O1_BITS)));
        assert_eq!(rec.masks[2], below(mask_of_bits(O2_BITS)));
    }

    #[test]
    fn verification_is_perfect_within_probed_bits() {
        let (mut m, r) = machine_with_region(16 << 20);
        let rec = reconstruct_hash(&mut m, 0, r, 8);
        // All sample addresses vary only in bits the reconstruction probed,
        // so agreement must be exact.
        let agreement = verify_hash(&mut m, 0, r, &rec, 64, 8, 42);
        assert_eq!(agreement, 1.0);
    }

    #[test]
    fn fig4_rendering_marks_participating_bits() {
        let (mut m, r) = machine_with_region(1 << 20);
        let rec = reconstruct_hash(&mut m, 0, r, 8);
        let s = rec.render_fig4();
        assert!(s.contains("o0"));
        assert!(s.contains("o2"));
        assert!(s.contains('#'));
        assert_eq!(s.lines().count(), 4, "header + 3 output bits");
    }

    #[test]
    fn small_region_probes_fewer_bits() {
        let (mut m, r) = machine_with_region(64 * 1024);
        let rec = reconstruct_hash(&mut m, 0, r, 4);
        assert_eq!(rec.max_bit, 15);
        // Bit 16 participates in o0 on real hardware but cannot be probed.
        assert_eq!(rec.masks[0] >> 16, 0);
    }

    #[test]
    #[should_panic(expected = "2^n-slice")]
    fn rejects_non_pow2_slice_counts() {
        let mut m = Machine::new(MachineConfig::skylake_gold_6134().with_dram_capacity(64 << 20));
        let r = m.mem_mut().alloc(1 << 20, 1 << 20).unwrap();
        reconstruct_hash(&mut m, 0, r, 4);
    }
}
