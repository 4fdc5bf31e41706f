//! The slice-aware allocator (paper §3).
//!
//! Complex Addressing changes slice every cache line, so memory that maps
//! to a single slice is inherently **non-contiguous**: a "buffer" is a
//! collection of 64 B lines scattered through a hugepage (the paper's §3
//! experiment allocates "1.375 MB non-contiguous memory which maps to a
//! specific slice"). [`SliceAllocator`] carves such buffers out of a
//! [`Region`] with a single lazy scan that files every examined line into
//! a per-slice stash, and also hands out ordinary contiguous buffers for
//! the "normal allocation" baselines.
//!
//! The allocator is deliberately independent of the simulator: it only
//! needs a *slice oracle* — any `FnMut(PhysAddr) -> usize`, which can be
//! the reconstructed hash function (fast path) or a polled
//! [`crate::mapping::SliceMap`] (portable path).

use llc_sim::addr::PhysAddr;
use llc_sim::mem::Region;
use llc_sim::CACHE_LINE;
use std::fmt;

/// Allocation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The region ran out of lines mapping to the requested slice.
    ExhaustedSlice {
        /// The slice that ran dry.
        slice: usize,
        /// Lines that could still be delivered.
        got: usize,
        /// Lines requested.
        want: usize,
    },
    /// The region ran out of contiguous space.
    ExhaustedContiguous,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::ExhaustedSlice { slice, got, want } => {
                write!(f, "slice {slice} exhausted: {got}/{want} lines available")
            }
            AllocError::ExhaustedContiguous => write!(f, "contiguous space exhausted"),
        }
    }
}

impl std::error::Error for AllocError {}

/// A slice-aware buffer: an ordered set of cache-line addresses.
///
/// For slice-local buffers the lines are non-contiguous; the "normal"
/// baseline produces consecutive lines. Elements are addressed by line
/// index, mirroring how the paper's experiments treat the buffer as an
/// array of 64 B slots reached through a pointer table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceBuffer {
    lines: Vec<PhysAddr>,
}

impl SliceBuffer {
    /// Wraps an explicit line list.
    pub fn from_lines(lines: Vec<PhysAddr>) -> Self {
        Self { lines }
    }

    /// The line addresses.
    pub fn lines(&self) -> &[PhysAddr] {
        &self.lines
    }

    /// Number of 64 B lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when the buffer holds no lines.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Address of line `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn line(&self, i: usize) -> PhysAddr {
        self.lines[i]
    }
}

/// Lazily scanning slice-aware allocator over one region.
///
/// A single scan cursor walks the region once, front to back; every
/// examined line is filed into its slice's stash, and allocations pop
/// from the stash. Contiguous allocations are carved from the region's
/// *end*, growing downward, so the two kinds never collide until the
/// region is genuinely full.
pub struct SliceAllocator<F> {
    region: Region,
    oracle: F,
    slices: usize,
    /// Next unexamined line index (global scan cursor).
    scan: usize,
    /// Per-slice FIFO of discovered-but-unallocated line offsets.
    stash: Vec<std::collections::VecDeque<u32>>,
    /// Next line index for contiguous allocation (exclusive, from the top).
    contig_top: usize,
}

impl<F> fmt::Debug for SliceAllocator<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SliceAllocator")
            .field("region_len", &self.region.len())
            .field("slices", &self.slices)
            .finish_non_exhaustive()
    }
}

impl<F: FnMut(PhysAddr) -> usize> SliceAllocator<F> {
    /// An allocator over `region` using `oracle` as the PA→slice map.
    ///
    /// The slice count is discovered lazily; oracles must return stable
    /// values below 256 (matching real slice counts).
    pub fn new(region: Region, oracle: F) -> Self {
        Self {
            region,
            oracle,
            slices: 0,
            scan: 0,
            stash: Vec::new(),
            contig_top: region.len() / CACHE_LINE,
        }
    }

    fn ensure_slice(&mut self, slice: usize) {
        if slice >= self.slices {
            self.slices = slice + 1;
            self.stash.resize_with(self.slices, Default::default);
        }
    }

    /// Allocates `count` cache lines that all map to `slice`.
    ///
    /// Lines come back in ascending address order within one scan epoch;
    /// they are scattered through the region (by construction of Complex
    /// Addressing, roughly one line in `slices` qualifies).
    pub fn alloc_lines(&mut self, slice: usize, count: usize) -> Result<SliceBuffer, AllocError> {
        self.ensure_slice(slice);
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            if let Some(off) = self.stash[slice].pop_front() {
                out.push(self.region.pa(off as usize * CACHE_LINE));
                continue;
            }
            if self.scan >= self.contig_top {
                return Err(AllocError::ExhaustedSlice {
                    slice,
                    got: out.len(),
                    want: count,
                });
            }
            let idx = self.scan;
            self.scan += 1;
            let pa = self.region.pa(idx * CACHE_LINE);
            let s = (self.oracle)(pa);
            self.ensure_slice(s);
            self.stash[s].push_back(idx as u32);
        }
        Ok(SliceBuffer::from_lines(out))
    }

    /// Allocates `bytes` rounded up to whole lines, all in `slice`.
    pub(crate) fn alloc_bytes(
        &mut self,
        slice: usize,
        bytes: usize,
    ) -> Result<SliceBuffer, AllocError> {
        self.alloc_lines(slice, bytes.div_ceil(CACHE_LINE))
    }

    /// Like [`SliceAllocator::alloc_lines`], but *discards* scanned lines
    /// belonging to other slices instead of stashing them.
    ///
    /// For gigabyte-scale single-slice carvings (the slice-aware KVS needs
    /// `2^24` lines of one slice out of an 8× larger region) the stash
    /// would hold hundreds of millions of offsets; a dedicated region does
    /// not need them back. Memory the scan skipped cannot be allocated
    /// later.
    pub fn alloc_lines_exclusive(
        &mut self,
        slice: usize,
        count: usize,
    ) -> Result<SliceBuffer, AllocError> {
        self.ensure_slice(slice);
        let mut out = Vec::with_capacity(count);
        // Drain anything already stashed for this slice first.
        while out.len() < count {
            match self.stash[slice].pop_front() {
                Some(off) => out.push(self.region.pa(off as usize * CACHE_LINE)),
                None => break,
            }
        }
        while out.len() < count {
            if self.scan >= self.contig_top {
                return Err(AllocError::ExhaustedSlice {
                    slice,
                    got: out.len(),
                    want: count,
                });
            }
            let idx = self.scan;
            self.scan += 1;
            let pa = self.region.pa(idx * CACHE_LINE);
            if (self.oracle)(pa) == slice {
                out.push(pa);
            }
        }
        Ok(SliceBuffer::from_lines(out))
    }

    /// Allocates `count` consecutive lines (the "normal memory allocation"
    /// baseline of §3), carved from the top of the region.
    pub fn alloc_contiguous_lines(&mut self, count: usize) -> Result<SliceBuffer, AllocError> {
        if self.contig_top < count || self.contig_top - count < self.scan {
            return Err(AllocError::ExhaustedContiguous);
        }
        self.contig_top -= count;
        let base = self.contig_top;
        let lines = (0..count)
            .map(|i| self.region.pa((base + i) * CACHE_LINE))
            .collect();
        Ok(SliceBuffer::from_lines(lines))
    }

    /// Contiguous variant of [`SliceAllocator::alloc_bytes`].
    pub(crate) fn alloc_contiguous_bytes(
        &mut self,
        bytes: usize,
    ) -> Result<SliceBuffer, AllocError> {
        self.alloc_contiguous_lines(bytes.div_ceil(CACHE_LINE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::hash::{SliceHash, XorSliceHash};
    use llc_sim::mem::PhysMem;

    fn setup(bytes: usize) -> (Region, impl FnMut(PhysAddr) -> usize) {
        let mut mem = PhysMem::new(bytes * 2);
        let region = mem.alloc(bytes, bytes).unwrap();
        let hash = XorSliceHash::haswell_8slice();
        (region, move |pa: PhysAddr| hash.slice_of(pa))
    }

    #[test]
    fn allocated_lines_map_to_requested_slice() {
        let (region, oracle) = setup(1 << 20);
        let hash = XorSliceHash::haswell_8slice();
        let mut a = SliceAllocator::new(region, oracle);
        for slice in 0..8 {
            let buf = a.alloc_lines(slice, 100).unwrap();
            assert_eq!(buf.len(), 100);
            for &pa in buf.lines() {
                assert_eq!(hash.slice_of(pa), slice, "slice {slice}");
            }
        }
    }

    #[test]
    fn no_line_is_handed_out_twice() {
        let (region, oracle) = setup(1 << 20);
        let mut a = SliceAllocator::new(region, oracle);
        let mut seen = std::collections::HashSet::new();
        for slice in 0..8 {
            for _ in 0..3 {
                let buf = a.alloc_lines(slice, 50).unwrap();
                for &pa in buf.lines() {
                    assert!(seen.insert(pa), "double allocation of {pa}");
                }
            }
        }
        let contig = a.alloc_contiguous_lines(256).unwrap();
        for &pa in contig.lines() {
            assert!(seen.insert(pa), "contiguous overlaps slice-local: {pa}");
        }
    }

    #[test]
    fn contiguous_lines_are_consecutive() {
        let (region, oracle) = setup(1 << 20);
        let mut a = SliceAllocator::new(region, oracle);
        let buf = a.alloc_contiguous_lines(64).unwrap();
        for w in buf.lines().windows(2) {
            assert_eq!(w[1].raw(), w[0].raw() + 64);
        }
    }

    #[test]
    fn exhaustion_is_reported() {
        // A 64 KB region has 1024 lines, 128 per slice.
        let (region, oracle) = setup(64 * 1024);
        let mut a = SliceAllocator::new(region, oracle);
        let err = a.alloc_lines(0, 1000).unwrap_err();
        match err {
            AllocError::ExhaustedSlice { slice, got, want } => {
                assert_eq!(slice, 0);
                assert_eq!(want, 1000);
                assert_eq!(got, 128, "exactly the slice's share of the region");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn contiguous_exhaustion() {
        let (region, oracle) = setup(64 * 1024);
        let mut a = SliceAllocator::new(region, oracle);
        assert!(a.alloc_contiguous_lines(1024).is_ok());
        assert_eq!(
            a.alloc_contiguous_lines(1).unwrap_err(),
            AllocError::ExhaustedContiguous
        );
    }

    #[test]
    fn slice_and_contiguous_never_collide() {
        let (region, oracle) = setup(64 * 1024);
        let mut a = SliceAllocator::new(region, oracle);
        let s = a.alloc_lines(0, 64).unwrap();
        let c = a.alloc_contiguous_lines(512).unwrap();
        let sset: std::collections::HashSet<_> = s.lines().iter().collect();
        assert!(c.lines().iter().all(|pa| !sset.contains(pa)));
    }

    #[test]
    fn alloc_bytes_rounds_up() {
        let (region, oracle) = setup(1 << 20);
        let mut a = SliceAllocator::new(region, oracle);
        let buf = a.alloc_bytes(2, 100).unwrap();
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.len() * CACHE_LINE, 128);
    }

    #[test]
    fn paper_buffer_1_375mb_fits_in_1gb_page_share() {
        // §3 allocates 1.375 MB of slice-local memory out of a 1 GB page;
        // a 16 MB region already holds 2 MB per slice.
        let (region, oracle) = setup(16 << 20);
        let mut a = SliceAllocator::new(region, oracle);
        let buf = a.alloc_bytes(5, 1_441_792).unwrap();
        assert_eq!(buf.len() * CACHE_LINE, 1_441_792);
    }

    #[test]
    fn stash_reuses_lines_seen_by_other_scans() {
        let (region, oracle) = setup(1 << 20);
        let mut a = SliceAllocator::new(region, oracle);
        // Scanning for slice 0 stashes lines of slices 1..7; allocating
        // slice 3 afterwards must not rescan from zero (observable via
        // uniqueness, already covered) and must return valid lines.
        let _ = a.alloc_lines(0, 200).unwrap();
        let hash = XorSliceHash::haswell_8slice();
        let buf = a.alloc_lines(3, 200).unwrap();
        assert!(buf.lines().iter().all(|&pa| hash.slice_of(pa) == 3));
    }

    #[test]
    fn buffer_accessors() {
        let buf = SliceBuffer::from_lines(vec![PhysAddr(0), PhysAddr(64)]);
        assert_eq!(buf.len(), 2);
        assert!(!buf.is_empty());
        assert_eq!(buf.line(1), PhysAddr(64));
        assert_eq!(buf.len() * CACHE_LINE, 128);
    }
}

#[cfg(test)]
mod exclusive_tests {
    use super::*;
    use llc_sim::hash::{SliceHash, XorSliceHash};
    use llc_sim::mem::PhysMem;

    #[test]
    fn exclusive_alloc_matches_slice_and_is_unique() {
        let mut mem = PhysMem::new(2 << 20);
        let region = mem.alloc(1 << 20, 1 << 20).unwrap();
        let hash = XorSliceHash::haswell_8slice();
        let h2 = hash.clone();
        let mut a = SliceAllocator::new(region, move |pa| h2.slice_of(pa));
        let buf = a.alloc_lines_exclusive(4, 1500).unwrap();
        assert_eq!(buf.len(), 1500);
        let set: std::collections::HashSet<_> = buf.lines().iter().collect();
        assert_eq!(set.len(), 1500);
        assert!(buf.lines().iter().all(|&pa| hash.slice_of(pa) == 4));
    }

    #[test]
    fn exclusive_alloc_reports_exhaustion() {
        let mut mem = PhysMem::new(1 << 20);
        let region = mem.alloc(64 * 1024, 64 * 1024).unwrap();
        let hash = XorSliceHash::haswell_8slice();
        let mut a = SliceAllocator::new(region, move |pa| hash.slice_of(pa));
        let err = a.alloc_lines_exclusive(0, 10_000).unwrap_err();
        assert!(matches!(err, AllocError::ExhaustedSlice { got: 128, .. }));
    }
}
