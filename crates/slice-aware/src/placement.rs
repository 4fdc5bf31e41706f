//! Preferred-slice placement policy (paper Table 4, §6, §8).
//!
//! On Haswell every core has exactly one nearest slice (its own). On
//! Skylake there are more slices than cores and the mesh distances group
//! them: each core has a *primary* slice and one or two *secondary*
//! slices at the next latency step (Table 4). [`PlacementPolicy`] captures
//! that ordering — built either from interconnect ground truth or from a
//! measured [`crate::latency::SliceLatencyProfile`] — and answers the two
//! questions the rest of the stack asks:
//!
//! * "which slice should core *c*'s hot data live in?" (primary), and
//! * "which slices may I spill to before it stops being worth it?"
//!   (preferred set; §8 notes multiple slices lower eviction pressure).

use crate::latency::SliceLatencyProfile;
use llc_sim::machine::Machine;

/// Per-core slice preference tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementPolicy {
    /// `order[c]` lists all slices by increasing latency from core `c`.
    order: Vec<Vec<usize>>,
    /// `primary[c]` is the closest slice.
    primary: Vec<usize>,
    /// `secondary[c]` are the slices at the second-lowest latency.
    secondary: Vec<Vec<usize>>,
}

impl PlacementPolicy {
    /// Builds the policy from the machine's interconnect (ground truth).
    pub fn from_topology(m: &Machine) -> Self {
        let cores = m.config().cores;
        let mut order = Vec::with_capacity(cores);
        let mut primary = Vec::with_capacity(cores);
        let mut secondary = Vec::with_capacity(cores);
        for c in 0..cores {
            let by_dist = m.slices_by_distance(c);
            let p = by_dist[0];
            let second_lat = m.llc_latency(c, by_dist[1]);
            let secs: Vec<usize> = by_dist
                .iter()
                .copied()
                .filter(|&s| s != p && m.llc_latency(c, s) == second_lat)
                .collect();
            primary.push(p);
            secondary.push(secs);
            order.push(by_dist);
        }
        Self {
            order,
            primary,
            secondary,
        }
    }

    /// Builds the policy from measured latency profiles, one per core —
    /// the portable path when the interconnect is unknown (paper §6
    /// measures Skylake this way).
    ///
    /// Latencies within `tolerance` cycles of each other count as one
    /// group when extracting the secondary set.
    ///
    /// # Panics
    ///
    /// Panics when `profiles` is empty or cores are missing/duplicated.
    pub fn from_profiles(profiles: &[SliceLatencyProfile], tolerance: f64) -> Self {
        assert!(!profiles.is_empty(), "need at least one profile");
        let cores = profiles.len();
        let mut by_core: Vec<Option<&SliceLatencyProfile>> = vec![None; cores];
        for p in profiles {
            assert!(p.core < cores, "core id out of range");
            assert!(by_core[p.core].is_none(), "duplicate profile for core");
            by_core[p.core] = Some(p);
        }
        let mut order = Vec::with_capacity(cores);
        let mut primary = Vec::with_capacity(cores);
        let mut secondary = Vec::with_capacity(cores);
        for slot in &by_core {
            let prof = slot.expect("profile for every core");
            let ord = prof.by_read_latency();
            let p = ord[0];
            let second_lat = prof.entries[ord[1]].read_cycles;
            let secs: Vec<usize> = ord
                .iter()
                .copied()
                .filter(|&s| {
                    s != p && (prof.entries[s].read_cycles - second_lat).abs() <= tolerance
                })
                .collect();
            primary.push(p);
            secondary.push(secs);
            order.push(ord);
        }
        Self {
            order,
            primary,
            secondary,
        }
    }

    /// The closest slice for `core`.
    pub fn primary(&self, core: usize) -> usize {
        self.primary[core]
    }

    /// The slices at the second latency step for `core`.
    pub fn secondary(&self, core: usize) -> &[usize] {
        &self.secondary[core]
    }

    /// The `n` most preferred slices for `core` (primary first). Spreading
    /// hot data over a couple of nearby slices lowers the eviction
    /// probability (§8 "in practice, one can use multiple slices").
    pub fn preferred_set(&self, core: usize, n: usize) -> &[usize] {
        &self.order[core][..n.min(self.order[core].len())]
    }

    /// A compromise slice for data shared by several cores: the slice with
    /// the smallest worst-case latency over `cores` (§8 "multi-threaded
    /// applications ... should find a compromise placement").
    pub fn compromise_slice(&self, m: &Machine, cores: &[usize]) -> usize {
        assert!(!cores.is_empty(), "need at least one core");
        (0..m.config().slices)
            .min_by_key(|&s| {
                cores
                    .iter()
                    .map(|&c| m.llc_latency(c, s))
                    .max()
                    .expect("non-empty cores")
            })
            .expect("at least one slice")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::profile_access_times;
    use llc_sim::machine::MachineConfig;

    fn haswell() -> Machine {
        Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20))
    }

    fn skylake() -> Machine {
        Machine::new(MachineConfig::skylake_gold_6134().with_dram_capacity(64 << 20))
    }

    #[test]
    fn haswell_primary_is_own_slice() {
        let m = haswell();
        let p = PlacementPolicy::from_topology(&m);
        for c in 0..8 {
            assert_eq!(p.primary(c), c);
        }
    }

    #[test]
    fn skylake_matches_paper_table4() {
        let m = skylake();
        let p = PlacementPolicy::from_topology(&m);
        let primaries = [0, 4, 8, 12, 10, 14, 3, 15];
        let secondaries: [&[usize]; 8] = [&[2, 6], &[1], &[11], &[13], &[7, 9], &[16], &[5], &[17]];
        for c in 0..8 {
            assert_eq!(p.primary(c), primaries[c], "core {c} primary");
            assert_eq!(p.secondary(c), secondaries[c], "core {c} secondary");
        }
    }

    #[test]
    fn preferred_set_starts_with_primary() {
        let m = skylake();
        let p = PlacementPolicy::from_topology(&m);
        for c in 0..8 {
            let set = p.preferred_set(c, 3);
            assert_eq!(set[0], p.primary(c));
            assert_eq!(set.len(), 3);
        }
        assert_eq!(p.preferred_set(0, 100).len(), 18, "clamped to slice count");
    }

    #[test]
    fn measured_policy_agrees_with_topology() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(32 << 20, 1 << 20).unwrap();
        let profiles: Vec<_> = (0..2)
            .map(|c| profile_access_times(&mut m, c, r, 2))
            .collect();
        let measured = PlacementPolicy::from_profiles(&profiles, 0.5);
        let truth = PlacementPolicy::from_topology(&m);
        for c in 0..2 {
            assert_eq!(measured.primary(c), truth.primary(c));
            assert_eq!(measured.secondary(c), truth.secondary(c));
        }
    }

    #[test]
    fn compromise_slice_minimises_worst_case() {
        let m = haswell();
        let p = PlacementPolicy::from_topology(&m);
        // For a single core the compromise is the primary.
        assert_eq!(p.compromise_slice(&m, &[3]), p.primary(3));
        // For cores 0 and 2 the compromise must not be worse for either
        // than the worst choice.
        let s = p.compromise_slice(&m, &[0, 2]);
        let worst = m.llc_latency(0, s).max(m.llc_latency(2, s));
        for cand in 0..8 {
            let w = m.llc_latency(0, cand).max(m.llc_latency(2, cand));
            assert!(worst <= w, "slice {cand} would be a better compromise");
        }
    }

    #[test]
    #[should_panic(expected = "need at least one profile")]
    fn from_profiles_rejects_empty() {
        PlacementPolicy::from_profiles(&[], 0.5);
    }
}
