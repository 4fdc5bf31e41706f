//! Polling-based slice-mapping discovery (paper §2.1, "Polling").
//!
//! The technique needs no knowledge of the hash function: program every
//! CBo counter to count LLC lookups, access one physical address many
//! times in a way that defeats the private caches (flush + reload), and
//! the slice whose counter moved is the one the address maps to. It works
//! "on any processor with any number of cores, which \[is\] equipped with
//! \[an\] uncore performance monitoring unit" — including the Skylake part
//! whose hash is unknown (§6).

use llc_sim::addr::PhysAddr;
use llc_sim::machine::Machine;
use llc_sim::mem::Region;
use llc_sim::uncore::UncoreEvent;

/// Determines the slice `pa` maps to by polling the uncore counters.
///
/// Runs `polls` flush+reload rounds on `core` and returns the slice whose
/// lookup counter grew the most. Leaves the uncore programmed to
/// [`UncoreEvent::LlcLookupAny`].
pub fn poll_slice_of(m: &mut Machine, core: usize, pa: PhysAddr, polls: usize) -> usize {
    m.uncore_mut().select(UncoreEvent::LlcLookupAny);
    for _ in 0..polls {
        // The flush guarantees the next load misses L1/L2 and therefore
        // performs an LLC lookup in the owning slice.
        m.clflush(core, pa);
        m.touch_read(core, pa);
    }
    m.uncore().busiest_slice()
}

/// A discovered line → slice mapping for one region.
///
/// Stores one byte per cache line; a 1 GB hugepage costs 16 MiB, which is
/// why the paper calls pure polling "expensive in terms of time" and
/// constructs the hash function instead when possible.
#[derive(Debug, Clone)]
pub struct SliceMap {
    base_line: u64,
    slices: Vec<u8>,
}

impl SliceMap {
    /// Discovers the mapping of every `stride`-th line of `region` by
    /// polling (lines in between get the mapping of the nearest probed
    /// line below — exact when `stride == 1`).
    ///
    /// # Panics
    ///
    /// Panics when `stride == 0` or the machine has more than 255 slices.
    pub fn discover(
        m: &mut Machine,
        core: usize,
        region: Region,
        stride: usize,
        polls: usize,
    ) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(m.config().slices <= u8::MAX as usize, "slice id overflow");
        let lines = region.len() / llc_sim::CACHE_LINE;
        let mut slices = vec![0u8; lines];
        let mut i = 0;
        while i < lines {
            let pa = region.pa(i * llc_sim::CACHE_LINE);
            let s = poll_slice_of(m, core, pa, polls) as u8;
            let end = (i + stride).min(lines);
            for e in &mut slices[i..end] {
                *e = s;
            }
            i += stride;
        }
        Self {
            base_line: region.base().line(),
            slices,
        }
    }

    /// Builds a map from ground truth (the machine's hash function) —
    /// used when the hash is known, and by tests as the reference.
    pub fn from_hash(m: &Machine, region: Region) -> Self {
        let lines = region.len() / llc_sim::CACHE_LINE;
        let slices = (0..lines)
            .map(|i| m.slice_of(region.pa(i * llc_sim::CACHE_LINE)) as u8)
            .collect();
        Self {
            base_line: region.base().line(),
            slices,
        }
    }

    /// The slice for `pa`; `None` outside the mapped region.
    pub fn slice_of(&self, pa: PhysAddr) -> Option<usize> {
        let line = pa.line();
        line.checked_sub(self.base_line)
            .and_then(|off| self.slices.get(off as usize))
            .map(|&s| s as usize)
    }

    /// Per-slice line counts (distribution check).
    pub fn histogram(&self, slices: usize) -> Vec<usize> {
        let mut h = vec![0usize; slices];
        for &s in &self.slices {
            h[s as usize] += 1;
        }
        h
    }

    /// Fraction of lines whose mapping agrees with `other` (e.g. polled vs
    /// ground truth).
    #[cfg(test)]
    pub(crate) fn agreement(&self, other: &SliceMap) -> f64 {
        assert_eq!(self.base_line, other.base_line, "different regions");
        assert_eq!(self.slices.len(), other.slices.len(), "different sizes");
        let same = self
            .slices
            .iter()
            .zip(&other.slices)
            .filter(|(a, b)| a == b)
            .count();
        same as f64 / self.slices.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::machine::MachineConfig;

    /// Flush+reload probes per address: enough for the target slice's
    /// counter to dominate incidental lookups (fills, prefetches).
    const DEFAULT_POLLS: usize = 32;

    fn machine() -> Machine {
        Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20))
    }

    #[test]
    fn polling_matches_ground_truth() {
        let mut m = machine();
        let r = m.mem_mut().alloc(1 << 20, 1 << 20).unwrap();
        for i in [0usize, 1, 7, 100, 1000] {
            let pa = r.pa(i * 64);
            let polled = poll_slice_of(&mut m, 0, pa, DEFAULT_POLLS);
            assert_eq!(polled, m.slice_of(pa), "line {i}");
        }
    }

    #[test]
    fn polling_works_from_any_core() {
        let mut m = machine();
        let r = m.mem_mut().alloc(1 << 20, 1 << 20).unwrap();
        let pa = r.pa(12345 * 64);
        let want = m.slice_of(pa);
        for core in 0..8 {
            assert_eq!(poll_slice_of(&mut m, core, pa, 16), want);
        }
    }

    #[test]
    fn polling_works_on_skylake_without_hash_knowledge() {
        // §6: the Skylake mapping was measured "through polling without
        // knowing the hash function".
        let mut m = Machine::new(MachineConfig::skylake_gold_6134().with_dram_capacity(64 << 20));
        let r = m.mem_mut().alloc(1 << 20, 1 << 20).unwrap();
        for i in [3usize, 17, 900] {
            let pa = r.pa(i * 64);
            assert_eq!(poll_slice_of(&mut m, 0, pa, DEFAULT_POLLS), m.slice_of(pa));
        }
    }

    #[test]
    fn slice_map_discover_stride1_is_exact() {
        let mut m = machine();
        let r = m.mem_mut().alloc(64 * 1024, 64 * 1024).unwrap();
        let polled = SliceMap::discover(&mut m, 0, r, 1, 8);
        let truth = SliceMap::from_hash(&m, r);
        assert_eq!(polled.agreement(&truth), 1.0);
    }

    #[test]
    fn slice_map_lookup_and_bounds() {
        let mut m = machine();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        let map = SliceMap::from_hash(&m, r);
        assert_eq!(map.slices.len(), 64);
        let pa = r.pa(0);
        assert_eq!(map.slice_of(pa), Some(m.slice_of(pa)));
        assert_eq!(map.slice_of(PhysAddr(r.base().raw() + 4096)), None);
    }

    #[test]
    fn histogram_is_balanced_for_xor_hash() {
        let mut m = machine();
        let r = m.mem_mut().alloc(1 << 20, 1 << 20).unwrap();
        let map = SliceMap::from_hash(&m, r);
        let h = map.histogram(8);
        // 2^14 lines over 8 slices: the XOR hash balances exactly.
        assert!(h.iter().all(|&c| c == map.slices.len() / 8), "{h:?}");
    }

    #[test]
    fn coarse_stride_approximates() {
        let mut m = machine();
        let r = m.mem_mut().alloc(64 * 1024, 64 * 1024).unwrap();
        let coarse = SliceMap::discover(&mut m, 0, r, 8, 4);
        let truth = SliceMap::from_hash(&m, r);
        // Every 8th line is exact; in-between lines are best-effort.
        let exact: Vec<usize> = (0..truth.slices.len()).step_by(8).collect();
        for i in exact {
            let pa = r.pa(i * 64);
            assert_eq!(coarse.slice_of(pa), truth.slice_of(pa));
        }
    }
}
