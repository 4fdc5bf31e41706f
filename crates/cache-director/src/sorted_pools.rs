//! The §4.2 alternative to dynamic headroom: per-core sorted mempools.
//!
//! "An application can allocate one large mempool containing mbufs.
//! Then, it can sort mbufs across multiple mempools, each of which is
//! dedicated to one CPU core, based on their LLC slice mappings." With
//! sorting, every buffer in core *c*'s pool already has its (fixed-
//! headroom) data start in a preferred slice of *c*, so the run-time
//! headroom adjustment — and the 832 B headroom reserve — disappear
//! ("it is worth noting that this step is eliminated when mbufs are
//! sorted at the application level"). The trade-offs the paper notes:
//! it is application-level (not transparent like CacheDirector), and
//! buffers whose natural placement fits no core are left over.

use llc_sim::machine::Machine;
use rte::mempool::MbufPool;
use slice_aware::placement::PlacementPolicy;

/// The result of sorting one pool across cores.
#[derive(Debug)]
pub struct SortedPools {
    /// `per_core[c]` holds the mbuf indices whose fixed-headroom data
    /// start maps to a preferred slice of core `c`.
    per_core: Vec<Vec<u32>>,
    /// Buffers that matched no core's preferred set.
    unplaced: Vec<u32>,
}

impl SortedPools {
    /// Sorts every mbuf of `pool` into per-core free lists by the slice
    /// of its data start at fixed headroom `data_off`.
    ///
    /// `preferred_slices` works like CacheDirector's: 1 targets each
    /// core's primary slice only; more admits the secondaries.
    ///
    /// # Panics
    ///
    /// Panics when `preferred_slices == 0` or `data_off` exceeds the
    /// pool's headroom capacity.
    pub fn sort(m: &mut Machine, pool: &MbufPool, data_off: u16, preferred_slices: usize) -> Self {
        assert!(preferred_slices > 0, "need at least one target slice");
        assert!(data_off <= pool.headroom_cap(), "headroom beyond capacity");
        let policy = PlacementPolicy::from_topology(m);
        let cores = m.config().cores;
        let preferred: Vec<Vec<usize>> = (0..cores)
            .map(|c| policy.preferred_set(c, preferred_slices).to_vec())
            .collect();
        let mut per_core: Vec<Vec<u32>> = vec![Vec::new(); cores];
        let mut unplaced = Vec::new();
        // Round-robin the claim order so no single core hoards buffers
        // that several cores could use.
        'outer: for mbuf in 0..pool.capacity() {
            let s = m.slice_of(pool.meta(mbuf).data_pa_for(data_off));
            // Primary owners first, then secondary claims.
            for rank in 0..preferred_slices {
                for (c, pref) in preferred.iter().enumerate() {
                    if pref.get(rank) == Some(&s) {
                        per_core[c].push(mbuf);
                        continue 'outer;
                    }
                }
            }
            unplaced.push(mbuf);
        }
        Self { per_core, unplaced }
    }

    /// Takes a buffer from `core`'s pool.
    pub fn get(&mut self, core: usize) -> Option<u32> {
        self.per_core[core].pop()
    }

    /// Fraction of the original pool that found a home.
    pub fn placement_rate(&self, pool: &MbufPool) -> f64 {
        1.0 - self.unplaced.len() as f64 / pool.capacity() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::machine::MachineConfig;

    fn haswell() -> Machine {
        Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(128 << 20))
    }

    #[test]
    fn every_sorted_buffer_matches_its_core() {
        let mut m = haswell();
        let pool = MbufPool::create(&mut m, 512, 128, 2048).unwrap();
        let sorted = SortedPools::sort(&mut m, &pool, 128, 1);
        for c in 0..8 {
            let target = m.closest_slice(c);
            for &mbuf in &sorted.per_core[c] {
                let pa = pool.meta(mbuf).data_pa_for(128);
                assert_eq!(m.slice_of(pa), target, "core {c} mbuf {mbuf}");
            }
        }
    }

    #[test]
    fn haswell_places_every_buffer() {
        // 8 cores covering all 8 slices: nothing is left over.
        let mut m = haswell();
        let pool = MbufPool::create(&mut m, 1024, 128, 2048).unwrap();
        let sorted = SortedPools::sort(&mut m, &pool, 128, 1);
        assert!(sorted.unplaced.is_empty());
        assert_eq!(sorted.placement_rate(&pool), 1.0);
        let total: usize = (0..8).map(|c| sorted.per_core[c].len()).sum();
        assert_eq!(total, 1024);
    }

    #[test]
    fn skylake_leaves_unclaimed_slices_over() {
        // 8 cores, 18 slices: buffers in slices outside every preferred
        // set are unplaced (the memory-waste trade-off the paper notes).
        let mut m = Machine::new(MachineConfig::skylake_gold_6134().with_dram_capacity(128 << 20));
        let pool = MbufPool::create(&mut m, 1024, 128, 2048).unwrap();
        let sorted = SortedPools::sort(&mut m, &pool, 128, 1);
        assert!(!sorted.unplaced.is_empty());
        // With the secondary slices admitted, coverage improves.
        let sorted3 = SortedPools::sort(&mut m, &pool, 128, 3);
        assert!(sorted3.unplaced.len() < sorted.unplaced.len());
    }

    #[test]
    fn get_takes_from_its_core_pool() {
        let mut m = haswell();
        let pool = MbufPool::create(&mut m, 256, 128, 2048).unwrap();
        let mut sorted = SortedPools::sort(&mut m, &pool, 128, 1);
        let before = sorted.per_core[3].len();
        sorted.get(3).expect("core 3 has buffers");
        assert_eq!(sorted.per_core[3].len(), before - 1);
    }

    #[test]
    fn no_buffer_is_assigned_twice() {
        let mut m = haswell();
        let pool = MbufPool::create(&mut m, 512, 128, 2048).unwrap();
        let sorted = SortedPools::sort(&mut m, &pool, 128, 2);
        let mut seen = std::collections::HashSet::new();
        for c in 0..sorted.per_core.len() {
            for &mb in &sorted.per_core[c] {
                assert!(seen.insert(mb), "mbuf {mb} assigned twice");
            }
        }
        for &mb in &sorted.unplaced {
            assert!(seen.insert(mb), "mbuf {mb} both placed and unplaced");
        }
        assert_eq!(seen.len(), 512);
    }

    #[test]
    fn sorted_equals_cachedirector_placement_quality() {
        // The two designs place the same window; sorting just moves the
        // decision from run time to pool-partitioning time.
        let mut m = haswell();
        let pool = MbufPool::create(&mut m, 256, crate::CACHEDIRECTOR_HEADROOM, 2048).unwrap();
        let mut cd = crate::CacheDirector::install(&mut m, &pool, 1, 0);
        let sorted = SortedPools::sort(&mut m, &pool, 128, 1);
        // A buffer from core 2's sorted pool is as well-placed as any
        // buffer CacheDirector would adjust for core 2.
        let target = m.closest_slice(2);
        if let Some(&mb) = sorted.per_core[2].first() {
            assert_eq!(m.slice_of(pool.meta(mb).data_pa_for(128)), target);
        }
        use rte::nic::HeadroomPolicy;
        let off = cd.data_off(&mut m, &pool, 7, 2);
        assert_eq!(m.slice_of(pool.meta(7).data_pa_for(off)), target);
    }
}
