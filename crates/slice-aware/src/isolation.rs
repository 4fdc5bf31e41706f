//! Cache isolation: slices vs. CAT way masks (paper §7, Fig. 17).
//!
//! Intel CAT partitions the LLC by *ways*: a class of service gets a way
//! mask and its fills cannot evict outside it. Slice-aware allocation can
//! partition by *slices* instead: give the protected application memory
//! that maps to one slice and let the noisy neighbour run everywhere
//! else. The paper's Fig. 17 compares three scenarios on Skylake; the
//! scenario setup lives here and the measurement loop reuses
//! [`crate::workload`].

use crate::alloc::{AllocError, SliceAllocator, SliceBuffer};
use llc_sim::addr::PhysAddr;
use llc_sim::machine::Machine;

/// The Fig. 17 scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationScenario {
    /// Both applications allocate normally and share all LLC ways.
    NoCat,
    /// The main application is limited to `ways` LLC ways via CAT; the
    /// noisy neighbour gets the remaining ways.
    WayIsolated {
        /// Ways granted to the main application.
        ways: usize,
    },
    /// The main application's memory maps to `slice` only; the neighbour
    /// allocates over the other slices (no CAT).
    SliceIsolated {
        /// The protected slice.
        slice: usize,
    },
    /// Both techniques combined (§7: "even CAT-enabled systems can
    /// benefit from the slice-aware memory management"): the main
    /// application gets `ways` CAT ways *and* slice-local memory in
    /// `slice`; the neighbour gets the remaining ways over all slices.
    WaysAndSlice {
        /// Ways granted to the main application.
        ways: usize,
        /// The slice its memory maps to.
        slice: usize,
    },
}

/// Buffers and machine state for one isolation run.
#[derive(Debug)]
pub struct IsolationSetup {
    /// The protected application's working set.
    pub main_buf: SliceBuffer,
    /// The noisy neighbour's (much larger) working set.
    pub noise_buf: SliceBuffer,
}

/// Why an isolation scenario could not be set up. Both causes are
/// recoverable — an experiment sweep (or an online controller probing
/// candidate partitions) skips the infeasible point and moves on —
/// matching the PR-1 graceful-degradation convention of typed errors on
/// setup paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationError {
    /// The requested CAT split grants the main application zero ways or
    /// leaves none for the neighbour (`ways` must satisfy
    /// `0 < ways < llc_ways`).
    InvalidWaySplit {
        /// The ways requested for the main application.
        ways: usize,
        /// The LLC's associativity (the exclusive upper bound).
        llc_ways: usize,
    },
    /// Allocating one of the working sets failed.
    Alloc(AllocError),
}

impl core::fmt::Display for IsolationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IsolationError::InvalidWaySplit { ways, llc_ways } => write!(
                f,
                "invalid way split: {ways} ways for the main application \
                 (need 0 < ways < {llc_ways})"
            ),
            IsolationError::Alloc(e) => write!(f, "working-set allocation failed: {e}"),
        }
    }
}

impl std::error::Error for IsolationError {}

impl From<AllocError> for IsolationError {
    fn from(e: AllocError) -> Self {
        IsolationError::Alloc(e)
    }
}

/// Prepares machine CAT masks and allocates both working sets.
///
/// `main_bytes` follows the paper: "2 MB, which corresponds to
/// three-fourths of the size of each slice plus the size of L2" on the
/// Xeon Gold 6134. The neighbour's set is sized to sweep the whole LLC.
///
/// Returns [`IsolationError::InvalidWaySplit`] when a CAT scenario's
/// `ways` is zero or not below the LLC associativity (the machine is
/// left untouched in that case), and [`IsolationError::Alloc`] when a
/// working set does not fit the allocator's region.
pub fn setup_isolation<F: FnMut(PhysAddr) -> usize>(
    m: &mut Machine,
    alloc: &mut SliceAllocator<F>,
    scenario: IsolationScenario,
    main_core: usize,
    noise_core: usize,
    main_bytes: usize,
    noise_bytes: usize,
) -> Result<IsolationSetup, IsolationError> {
    let llc_ways = m.config().llc_slice.ways;
    // Validate before mutating: an infeasible split must not clobber the
    // masks an earlier (successful) setup installed.
    if let IsolationScenario::WayIsolated { ways } | IsolationScenario::WaysAndSlice { ways, .. } =
        scenario
    {
        if ways == 0 || ways >= llc_ways {
            return Err(IsolationError::InvalidWaySplit { ways, llc_ways });
        }
    }
    m.clear_cat_mask(main_core);
    m.clear_cat_mask(noise_core);
    let (main_buf, noise_buf) = match scenario {
        IsolationScenario::NoCat => (
            alloc.alloc_contiguous_bytes(main_bytes)?,
            alloc.alloc_contiguous_bytes(noise_bytes)?,
        ),
        IsolationScenario::WayIsolated { ways } => {
            let main_mask = (1u64 << ways) - 1;
            let noise_mask = ((1u64 << llc_ways) - 1) & !main_mask;
            m.set_cat_mask(main_core, main_mask);
            m.set_cat_mask(noise_core, noise_mask);
            (
                alloc.alloc_contiguous_bytes(main_bytes)?,
                alloc.alloc_contiguous_bytes(noise_bytes)?,
            )
        }
        IsolationScenario::SliceIsolated { slice } => {
            let main = alloc.alloc_bytes(slice, main_bytes)?;
            // The neighbour "pollutes all LLC slices except slice 0": carve
            // its set out of the other slices round-robin.
            let slices = m.config().slices;
            let per = (noise_bytes / llc_sim::CACHE_LINE).div_ceil(slices.saturating_sub(1).max(1));
            let mut lines = Vec::new();
            for s in (0..slices).filter(|&s| s != slice) {
                alloc.alloc_lines_into(s, per, &mut lines)?;
            }
            (main, SliceBuffer::from_lines(lines))
        }
        IsolationScenario::WaysAndSlice { ways, slice } => {
            let main_mask = (1u64 << ways) - 1;
            let noise_mask = ((1u64 << llc_ways) - 1) & !main_mask;
            m.set_cat_mask(main_core, main_mask);
            m.set_cat_mask(noise_core, noise_mask);
            (
                alloc.alloc_bytes(slice, main_bytes)?,
                alloc.alloc_contiguous_bytes(noise_bytes)?,
            )
        }
    };
    Ok(IsolationSetup {
        main_buf,
        noise_buf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{random_access, warm_buffer};
    use llc_sim::machine::MachineConfig;
    use llc_sim::AccessKind;

    // Paper §7 uses 2 MB ("three-fourths of the size of each slice plus
    // the size of L2" on the Gold 6134). Under strict LRU a 2 MB random
    // working set overflows a 1.375 MB slice (see EXPERIMENTS.md), so the
    // tests use a fits-one-slice size where the paper's comparison is
    // well-posed. The noisy neighbour streams through a set larger than
    // the whole LLC (18 × 1.375 MB ≈ 24.75 MB) so it evicts constantly.
    const MAIN_BYTES: usize = 1_310_720;
    const NOISE_BYTES: usize = 40 * 1024 * 1024;

    fn setup() -> (Machine, SliceAllocator<impl FnMut(PhysAddr) -> usize>) {
        let mut m = Machine::new(MachineConfig::skylake_gold_6134().with_dram_capacity(512 << 20));
        let r = m.mem_mut().alloc(256 << 20, 1 << 20).unwrap();
        let alloc = SliceAllocator::new(r, m.slice_oracle());
        (m, alloc)
    }

    /// Runs main + neighbour interleaved and returns the main app's cycles.
    fn contended_run(m: &mut Machine, main: &SliceBuffer, noise: &SliceBuffer, ops: usize) -> u64 {
        warm_buffer(m, 0, main);
        // The neighbour has been running for a while before the
        // measurement starts: its streaming set already fills the LLC.
        warm_buffer(m, 1, noise);
        let mut total = 0;
        // Interleave in small quanta so the neighbour keeps polluting; the
        // neighbour runs hotter than the protected app (4 : 1), like the
        // paper's continuously running noise process.
        let quantum = 50;
        let mut done = 0;
        let mut round = 0;
        while done < ops {
            let n = quantum.min(ops - done);
            total += random_access(m, 0, main, n, AccessKind::Read, 100 + round);
            random_access(m, 1, noise, 4 * quantum, AccessKind::Read, 200 + round);
            done += n;
            round += 1;
        }
        total
    }

    #[test]
    fn way_isolation_beats_no_cat_under_noise() {
        let (mut m, mut a) = setup();
        let ops = 10_000;
        let no_cat = setup_isolation(
            &mut m,
            &mut a,
            IsolationScenario::NoCat,
            0,
            1,
            MAIN_BYTES,
            NOISE_BYTES,
        )
        .unwrap();
        let t_nocat = contended_run(&mut m, &no_cat.main_buf, &no_cat.noise_buf, ops);
        let way = setup_isolation(
            &mut m,
            &mut a,
            IsolationScenario::WayIsolated { ways: 2 },
            0,
            1,
            MAIN_BYTES,
            NOISE_BYTES,
        )
        .unwrap();
        let t_way = contended_run(&mut m, &way.main_buf, &way.noise_buf, ops);
        assert!(
            t_way < t_nocat,
            "CAT must shield the main app: {t_way} vs {t_nocat}"
        );
    }

    #[test]
    fn slice_isolation_is_competitive_with_way_isolation() {
        // Fig. 17's comparison: when the working set fits the protected
        // slice, slice isolation serves it at minimum latency using 1/18
        // of the LLC, competitive with (the paper measured ~11 % better
        // than) a 2-way CAT partition that burns 2/11 of every slice.
        // Our LRU model reproduces the "competitive with far less cache"
        // claim; the exact ordering depends on replacement/bandwidth
        // details discussed in EXPERIMENTS.md.
        let (mut m, mut a) = setup();
        let ops = 10_000;
        let way = setup_isolation(
            &mut m,
            &mut a,
            IsolationScenario::WayIsolated { ways: 2 },
            0,
            1,
            MAIN_BYTES,
            NOISE_BYTES,
        )
        .unwrap();
        let t_way = contended_run(&mut m, &way.main_buf, &way.noise_buf, ops);
        let closest = m.closest_slice(0);
        let slice = setup_isolation(
            &mut m,
            &mut a,
            IsolationScenario::SliceIsolated { slice: closest },
            0,
            1,
            MAIN_BYTES,
            NOISE_BYTES,
        )
        .unwrap();
        let t_slice = contended_run(&mut m, &slice.main_buf, &slice.noise_buf, ops);
        let ratio = t_slice as f64 / t_way as f64;
        assert!(
            ratio < 1.10,
            "slice isolation (1/18 of LLC) must stay within 10% of 2-way CAT              (2/11 of LLC): {t_slice} vs {t_way}"
        );
    }

    #[test]
    fn combined_cat_and_slice_beats_plain_cat_when_capacity_allows() {
        // §7: "even CAT-enabled systems can benefit from the slice-aware
        // memory management". Stacking both restrictions multiplies the
        // capacity constraints (ways x one slice), so the latency benefit
        // appears when the working set fits the compound capacity —
        // which Haswell's geometry (8 of 20 ways x 2048 sets = 1 MB per
        // slice, 256 kB L2) permits for a 512 kB set.
        let mut m = Machine::new(
            llc_sim::machine::MachineConfig::haswell_e5_2667_v3().with_dram_capacity(512 << 20),
        );
        let region = m.mem_mut().alloc(256 << 20, 1 << 20).unwrap();
        let mut a = SliceAllocator::new(region, m.slice_oracle());
        let main_bytes = 512 * 1024;
        let ops = 10_000;
        let way = setup_isolation(
            &mut m,
            &mut a,
            IsolationScenario::WayIsolated { ways: 8 },
            0,
            1,
            main_bytes,
            NOISE_BYTES,
        )
        .unwrap();
        let t_way = contended_run(&mut m, &way.main_buf, &way.noise_buf, ops);
        let closest = m.closest_slice(0);
        let both = setup_isolation(
            &mut m,
            &mut a,
            IsolationScenario::WaysAndSlice {
                ways: 8,
                slice: closest,
            },
            0,
            1,
            main_bytes,
            NOISE_BYTES,
        )
        .unwrap();
        let t_both = contended_run(&mut m, &both.main_buf, &both.noise_buf, ops);
        assert!(
            t_both < t_way,
            "CAT+slice {t_both} must beat CAT alone {t_way}"
        );
    }

    #[test]
    fn slice_isolated_noise_avoids_protected_slice() {
        let (mut m, mut a) = setup();
        let protected = 0;
        let s = setup_isolation(
            &mut m,
            &mut a,
            IsolationScenario::SliceIsolated { slice: protected },
            0,
            1,
            MAIN_BYTES,
            1 << 20,
        )
        .unwrap();
        assert!(s.main_buf.lines().all(|pa| m.slice_of(pa) == protected));
        assert!(s.noise_buf.lines().all(|pa| m.slice_of(pa) != protected));
    }

    #[test]
    fn way_masks_are_disjoint() {
        let (mut m, mut a) = setup();
        let _ = setup_isolation(
            &mut m,
            &mut a,
            IsolationScenario::WayIsolated { ways: 2 },
            0,
            1,
            MAIN_BYTES,
            1 << 20,
        )
        .unwrap();
        // Indirect check: the main core can only keep 2 ways of any set.
        // (Direct mask access is private; behaviour is asserted in the
        // llc-sim CAT test. Here we just ensure setup succeeds.)
    }

    #[test]
    fn rejects_full_way_grant_with_typed_error() {
        let (mut m, mut a) = setup();
        for ways in [0, 11, 12] {
            let err = setup_isolation(
                &mut m,
                &mut a,
                IsolationScenario::WayIsolated { ways },
                0,
                1,
                MAIN_BYTES,
                1 << 20,
            )
            .unwrap_err();
            assert_eq!(err, IsolationError::InvalidWaySplit { ways, llc_ways: 11 });
            assert!(err.to_string().contains("invalid way split"));
        }
        // The combined scenario validates the same bound.
        let err = setup_isolation(
            &mut m,
            &mut a,
            IsolationScenario::WaysAndSlice { ways: 11, slice: 0 },
            0,
            1,
            MAIN_BYTES,
            1 << 20,
        )
        .unwrap_err();
        assert!(matches!(err, IsolationError::InvalidWaySplit { .. }));
    }

    #[test]
    fn infeasible_split_leaves_existing_masks_untouched() {
        let (mut m, mut a) = setup();
        let _ = setup_isolation(
            &mut m,
            &mut a,
            IsolationScenario::WayIsolated { ways: 2 },
            0,
            1,
            MAIN_BYTES,
            1 << 20,
        )
        .unwrap();
        let (main_before, noise_before) = (m.cat_mask(0), m.cat_mask(1));
        let _ = setup_isolation(
            &mut m,
            &mut a,
            IsolationScenario::WayIsolated { ways: 0 },
            0,
            1,
            MAIN_BYTES,
            1 << 20,
        )
        .unwrap_err();
        assert_eq!(
            m.cat_mask(0),
            main_before,
            "rejected split must not clobber"
        );
        assert_eq!(m.cat_mask(1), noise_before);
    }

    #[test]
    fn alloc_failure_maps_to_typed_error() {
        let (mut m, mut a) = setup();
        let err = setup_isolation(
            &mut m,
            &mut a,
            IsolationScenario::NoCat,
            0,
            1,
            usize::MAX / 2, // cannot fit any region
            1 << 20,
        )
        .unwrap_err();
        assert!(matches!(err, IsolationError::Alloc(_)));
    }
}
