//! Slice-aware placement for objects larger than 64 B (paper §8).
//!
//! Complex Addressing remaps every cache line, so an object larger than
//! one line cannot sit in a single slice *contiguously*. §8 sketches the
//! fix: "it would still be possible to map larger data to the
//! appropriate LLC slice(s) by using a linked-list and scattering the
//! data". [`ScatteredBuf`] implements that: a logical byte buffer whose
//! 64 B segments each live on a slice-local line, with timed copy-in /
//! copy-out that walks the hierarchy segment by segment.
//!
//! §8 also suggests spreading across *several* nearby slices to lower
//! eviction pressure ("one can use multiple slices for memory
//! allocation, as §2.2 showed that LLC access times are bimodal");
//! [`SliceAllocator::alloc_lines_multi`] (re-exported here) allocates
//! round-robin over a preferred set for exactly that.

use crate::alloc::{AllocError, SliceAllocator, SliceBuffer};
use llc_sim::addr::PhysAddr;
use llc_sim::hierarchy::Cycles;
use llc_sim::machine::Machine;
use llc_sim::CACHE_LINE;

impl<F: FnMut(PhysAddr) -> usize> SliceAllocator<F> {
    /// Allocates `count` lines spread round-robin over `slices` (e.g. a
    /// core's primary + secondary slices from
    /// [`crate::placement::PlacementPolicy::preferred_set`]).
    ///
    /// # Panics
    ///
    /// Panics when `slices` is empty.
    pub fn alloc_lines_multi(
        &mut self,
        slices: &[usize],
        count: usize,
    ) -> Result<SliceBuffer, AllocError> {
        assert!(!slices.is_empty(), "need at least one target slice");
        let mut lines = Vec::with_capacity(count);
        for i in 0..count {
            let target = slices[i % slices.len()];
            lines.extend_from_slice(self.alloc_lines(target, 1)?.lines());
        }
        Ok(SliceBuffer::from_lines(lines))
    }
}

/// A logical byte buffer scattered over slice-local cache lines.
#[derive(Debug, Clone)]
pub struct ScatteredBuf {
    segments: SliceBuffer,
    len: usize,
}

impl ScatteredBuf {
    /// Wraps an already-allocated segment list as a `len`-byte object.
    ///
    /// # Panics
    ///
    /// Panics when the segments cannot hold `len` bytes.
    pub fn from_segments(segments: SliceBuffer, len: usize) -> Self {
        assert!(
            segments.len() * CACHE_LINE >= len,
            "segments too small for the object"
        );
        Self { segments, len }
    }

    /// The backing lines (inspection).
    pub fn segments(&self) -> &SliceBuffer {
        &self.segments
    }

    /// Physical location of logical offset `off`.
    ///
    /// # Panics
    ///
    /// Panics when `off >= len`.
    pub(crate) fn pa_of(&self, off: usize) -> PhysAddr {
        assert!(off < self.len, "offset outside object");
        self.segments
            .line(off / CACHE_LINE)
            .add((off % CACHE_LINE) as u64)
    }

    /// Timed write of `data` at logical offset `off`.
    ///
    /// # Panics
    ///
    /// Panics when the range exceeds the object.
    pub fn write(&self, m: &mut Machine, core: usize, off: usize, data: &[u8]) -> Cycles {
        assert!(off + data.len() <= self.len, "write outside object");
        let mut cycles = 0;
        let mut cursor = off;
        let mut remaining = data;
        while !remaining.is_empty() {
            let in_line = cursor % CACHE_LINE;
            let take = (CACHE_LINE - in_line).min(remaining.len());
            cycles += m.write_bytes(core, self.pa_of(cursor), &remaining[..take]);
            cursor += take;
            remaining = &remaining[take..];
        }
        cycles
    }

    /// Timed read of `out.len()` bytes at logical offset `off`.
    ///
    /// # Panics
    ///
    /// Panics when the range exceeds the object.
    pub fn read(&self, m: &mut Machine, core: usize, off: usize, out: &mut [u8]) -> Cycles {
        assert!(off + out.len() <= self.len, "read outside object");
        let mut cycles = 0;
        let mut cursor = off;
        let mut written = 0;
        while written < out.len() {
            let in_line = cursor % CACHE_LINE;
            let take = (CACHE_LINE - in_line).min(out.len() - written);
            cycles += m.read_bytes(core, self.pa_of(cursor), &mut out[written..written + take]);
            cursor += take;
            written += take;
        }
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::machine::MachineConfig;

    fn setup() -> (Machine, SliceAllocator<impl FnMut(PhysAddr) -> usize>) {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20));
        let r = m.mem_mut().alloc(16 << 20, 1 << 20).unwrap();
        let alloc = SliceAllocator::new(r, m.slice_oracle());
        (m, alloc)
    }

    #[test]
    fn scattered_object_lives_in_one_slice() {
        let (m, mut a) = setup();
        let obj = ScatteredBuf::from_segments(a.alloc_lines(5, 16).unwrap(), 1000);
        assert_eq!(obj.len, 1000);
        assert_eq!(obj.segments().len(), 16, "1000 B = 16 lines");
        for off in [0usize, 63, 64, 500, 999] {
            assert_eq!(m.slice_of(obj.pa_of(off)), 5, "offset {off}");
        }
    }

    #[test]
    fn roundtrip_across_segment_boundaries() {
        let (mut m, mut a) = setup();
        let obj = ScatteredBuf::from_segments(a.alloc_lines(2, 4).unwrap(), 256);
        let data: Vec<u8> = (0..200u8).collect();
        // Unaligned start, crosses three segment boundaries.
        obj.write(&mut m, 0, 30, &data);
        let mut out = vec![0u8; 200];
        obj.read(&mut m, 0, 30, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn multi_slice_spread_round_robin() {
        let (m, mut a) = setup();
        let obj = ScatteredBuf::from_segments(a.alloc_lines_multi(&[0, 2], 8).unwrap(), 64 * 8);
        let slices: Vec<usize> = (0..8).map(|i| m.slice_of(obj.segments().line(i))).collect();
        assert_eq!(slices, vec![0, 2, 0, 2, 0, 2, 0, 2]);
    }

    #[test]
    fn alloc_lines_multi_balances() {
        let (m, mut a) = setup();
        let buf = a.alloc_lines_multi(&[1, 3, 5], 99).unwrap();
        let mut counts = [0usize; 8];
        for &pa in buf.lines() {
            counts[m.slice_of(pa)] += 1;
        }
        assert_eq!(counts[1], 33);
        assert_eq!(counts[3], 33);
        assert_eq!(counts[5], 33);
    }

    #[test]
    fn scattered_reads_pay_per_segment() {
        let (mut m, mut a) = setup();
        let obj = ScatteredBuf::from_segments(a.alloc_lines(0, 4).unwrap(), 256);
        // Cold read of 256 B = 4 segment lines from DRAM.
        let mut out = vec![0u8; 256];
        let c = obj.read(&mut m, 0, 0, &mut out);
        assert_eq!(c, 4 * 192);
        // Warm read: 4 L1 hits.
        let c = obj.read(&mut m, 0, 0, &mut out);
        assert_eq!(c, 4 * 4);
    }

    #[test]
    #[should_panic(expected = "outside object")]
    fn read_beyond_len_panics() {
        let (mut m, mut a) = setup();
        let obj = ScatteredBuf::from_segments(a.alloc_lines(0, 2).unwrap(), 100);
        let mut out = vec![0u8; 8];
        obj.read(&mut m, 0, 96, &mut out);
    }
}
