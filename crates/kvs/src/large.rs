//! Large-value store: slice-aware values bigger than one cache line.
//!
//! The paper's §8 limitation — "the current implementation of KVS cannot
//! map values greater than 64 B to the appropriate LLC slice" — and its
//! proposed fix: "it would still be possible to map larger data to the
//! appropriate LLC slice(s) by using a linked-list and scattering the
//! data". [`LargeKvStore`] implements that: each value is a
//! [`ScatteredBuf`] whose segments all map to the chosen slice(s), so a
//! multi-line GET pays the near-slice latency on *every* segment.

use llc_sim::hierarchy::Cycles;
use llc_sim::machine::Machine;
use llc_sim::CACHE_LINE;
use slice_aware::alloc::{AllocError, SliceAllocator, SliceBuffer};
use slice_aware::scatter::ScatteredBuf;

/// Value placement for the large store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LargePlacement {
    /// Contiguous values (the baseline).
    Normal,
    /// Every value's segments map to the slices in the set, round-robin
    /// (a single-element set = pure slice-local).
    SliceSet(Vec<usize>),
}

/// A store of `n` fixed-size values, each possibly spanning many lines.
#[derive(Debug)]
pub struct LargeKvStore {
    values: Vec<ScatteredBuf>,
    value_size: usize,
}

/// Per-operation fixed work (dispatch + bookkeeping).
pub(crate) const OP_WORK: Cycles = 20;

impl LargeKvStore {
    /// Builds a store of `n` values of `value_size` bytes each.
    ///
    /// # Panics
    ///
    /// Panics when `value_size == 0` or `n == 0`.
    pub fn build<F: FnMut(llc_sim::PhysAddr) -> usize>(
        alloc: &mut SliceAllocator<F>,
        n: usize,
        value_size: usize,
        placement: &LargePlacement,
    ) -> Result<Self, AllocError> {
        assert!(n > 0 && value_size > 0, "empty store");
        let lines = value_size.div_ceil(CACHE_LINE);
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let segments = match placement {
                LargePlacement::Normal => alloc.alloc_contiguous_lines(lines)?,
                LargePlacement::SliceSet(set) => alloc.alloc_lines_multi(set, lines)?,
            };
            values.push(scattered_from(segments, value_size));
        }
        Ok(Self { values, value_size })
    }

    /// GET: timed read of the whole value.
    ///
    /// # Panics
    ///
    /// Panics when `key` is out of range or `out` is shorter than the
    /// value.
    pub fn get(&self, m: &mut Machine, core: usize, key: usize, out: &mut [u8]) -> Cycles {
        let v = &self.values[key];
        let c = v.read(m, core, 0, &mut out[..self.value_size]);
        m.advance(core, OP_WORK);
        c + OP_WORK
    }

    /// SET: timed write of the whole value.
    ///
    /// # Panics
    ///
    /// Panics when `key` is out of range or `data` is shorter than the
    /// value.
    pub fn set(&mut self, m: &mut Machine, core: usize, key: usize, data: &[u8]) -> Cycles {
        let size = self.value_size;
        let v = &self.values[key];
        let c = v.write(m, core, 0, &data[..size]);
        m.advance(core, OP_WORK);
        c + OP_WORK
    }
}

/// Wraps an already-allocated segment list as a scattered object.
fn scattered_from(segments: SliceBuffer, len: usize) -> ScatteredBuf {
    ScatteredBuf::from_segments(segments, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::machine::{Machine, MachineConfig};

    fn setup() -> (
        Machine,
        SliceAllocator<impl FnMut(llc_sim::PhysAddr) -> usize>,
    ) {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(256 << 20));
        let r = m.mem_mut().alloc(128 << 20, 1 << 20).unwrap();
        let alloc = SliceAllocator::new(r, m.slice_oracle());
        (m, alloc)
    }

    #[test]
    fn large_values_roundtrip() {
        let (mut m, mut a) = setup();
        let mut kv =
            LargeKvStore::build(&mut a, 64, 1024, &LargePlacement::SliceSet(vec![0])).unwrap();
        let data: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();
        kv.set(&mut m, 0, 17, &data);
        let mut out = vec![0u8; 1024];
        kv.get(&mut m, 0, 17, &mut out);
        assert_eq!(out, data);
        assert_eq!(kv.value_size, 1024);
        assert_eq!(kv.values.len(), 64);
    }

    #[test]
    fn every_segment_of_every_value_in_the_slice() {
        let (m, mut a) = setup();
        let kv = LargeKvStore::build(&mut a, 32, 512, &LargePlacement::SliceSet(vec![3])).unwrap();
        for key in 0..32 {
            for seg in 0..8 {
                let pa = kv.values[key].segments().line(seg);
                assert_eq!(m.slice_of(pa), 3, "key {key} segment {seg}");
            }
        }
    }

    #[test]
    fn near_slice_large_gets_beat_far_slice() {
        let (mut m, mut a) = setup();
        // 1 KB values, 256 per store: each store is 256 kB, so the pair
        // cannot co-reside in the 256 kB L2 and the measured loops hit
        // the LLC, where slice distance matters on every segment.
        let n = 256;
        let near =
            LargeKvStore::build(&mut a, n, 1024, &LargePlacement::SliceSet(vec![0])).unwrap();
        let far_slice = *m.slices_by_distance(0).last().unwrap();
        let far = LargeKvStore::build(&mut a, n, 1024, &LargePlacement::SliceSet(vec![far_slice]))
            .unwrap();
        let mut out = vec![0u8; 1024];
        // Warm both into the LLC; reading one store pushes the other out
        // of the private caches.
        for k in 0..n {
            near.get(&mut m, 0, k, &mut out);
        }
        for k in 0..n {
            far.get(&mut m, 0, k, &mut out);
        }
        let mut c_near = 0;
        for k in 0..n {
            c_near += near.get(&mut m, 0, k, &mut out);
        }
        let mut c_far = 0;
        for k in 0..n {
            c_far += far.get(&mut m, 0, k, &mut out);
        }
        assert!(
            c_near < c_far,
            "near {c_near} must beat far {c_far} for LLC-resident large values"
        );
        // The saving is roughly per-segment: ~20 cycles x 16 segments on
        // the LLC-resident fraction.
        let per_get = (c_far - c_near) as f64 / n as f64;
        assert!(per_get > 50.0, "per-GET saving {per_get} too small");
    }

    #[test]
    fn multi_slice_set_spreads_segments() {
        let (m, mut a) = setup();
        let kv =
            LargeKvStore::build(&mut a, 4, 4 * 64, &LargePlacement::SliceSet(vec![0, 2])).unwrap();
        let slices: Vec<usize> = (0..4)
            .map(|seg| m.slice_of(kv.values[0].segments().line(seg)))
            .collect();
        assert_eq!(slices, vec![0, 2, 0, 2]);
    }

    #[test]
    fn normal_placement_is_contiguous() {
        let (_m, mut a) = setup();
        let kv = LargeKvStore::build(&mut a, 2, 256, &LargePlacement::Normal).unwrap();
        let segs = kv.values[0].segments();
        for w in segs.lines().windows(2) {
            assert_eq!(w[1].raw(), w[0].raw() + 64);
        }
    }
}
