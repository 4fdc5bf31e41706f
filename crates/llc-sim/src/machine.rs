//! Machine configuration and the two CPU presets the paper evaluates.

use crate::hash::{FoldedSliceHash, MachineHash, XorSliceHash};
use crate::prefetch::PrefetchConfig;
use crate::replacement::ReplacementKind;

pub use crate::hierarchy::Machine;

/// Geometry of one cache level (per core for L1/L2, per slice for the LLC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Hit latency in core cycles (ignored for the LLC, whose latency comes
    /// from the interconnect).
    pub(crate) latency: u32,
}

impl CacheGeometry {
    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * crate::addr::CACHE_LINE
    }
}

/// How the LLC relates to the private caches (paper §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlcMode {
    /// LLC is a superset of L1/L2; LLC evictions back-invalidate the
    /// private caches (Haswell and earlier).
    Inclusive,
    /// LLC is a victim cache for L2: lines enter the LLC when evicted from
    /// L2 and may stay resident after being re-read (Skylake-SP).
    Victim,
}

/// Which Complex Addressing function to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HashConfig {
    /// The reverse-engineered XOR function for `2^n` slices (paper Fig. 4).
    XorPow2 {
        /// Number of output bits, 1..=3.
        bits: u32,
    },
    /// Deterministic folded hash for non-power-of-two slice counts
    /// (Skylake substitute; DESIGN.md §2).
    Folded {
        /// Slice count.
        slices: usize,
    },
}

impl HashConfig {
    /// The slice hash this configuration names.
    pub(crate) fn build(self) -> MachineHash {
        match self {
            HashConfig::XorPow2 { bits } => MachineHash::Xor(XorSliceHash::for_slices_pow2(bits)),
            HashConfig::Folded { slices } => MachineHash::Folded(FoldedSliceHash::new(slices)),
        }
    }
}

/// Which interconnect floorplan to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InterconnectConfig {
    /// Dual bi-directional ring with co-located core/slice pairs.
    Ring {
        /// Latency to the co-located slice.
        base: u32,
        /// Extra cycles per same-ring hop.
        hop: u32,
        /// Ring-crossing penalty.
        cross: u32,
    },
    /// The calibrated Xeon Gold 6134 mesh (8 cores, 18 slices).
    MeshSkylake6134,
}

/// Full description of a simulated socket.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Human-readable model name.
    pub name: &'static str,
    /// Number of cores (one L1+L2 pair each).
    pub cores: usize,
    /// Number of LLC slices.
    pub slices: usize,
    /// Core frequency in GHz (converts cycles to wall time).
    pub freq_ghz: f64,
    /// L1 data cache geometry.
    pub l1: CacheGeometry,
    /// L2 cache geometry.
    pub l2: CacheGeometry,
    /// Geometry of **one** LLC slice.
    pub llc_slice: CacheGeometry,
    /// Inclusive (Haswell) or victim (Skylake) LLC.
    pub llc_mode: LlcMode,
    /// DRAM access latency in cycles (~60 ns in the paper).
    pub dram_latency: u32,
    /// Number of LLC ways DDIO may allocate into (2 by default => 10 % of
    /// a 20-way Haswell LLC, the limit the paper discusses in §8).
    pub ddio_ways: usize,
    /// Replacement policy used at every level.
    pub(crate) replacement: ReplacementKind,
    /// L2 hardware prefetcher setup.
    pub(crate) prefetch: PrefetchConfig,
    /// Complex Addressing function.
    pub(crate) hash: HashConfig,
    /// Interconnect floorplan.
    pub(crate) interconnect: InterconnectConfig,
    /// Simulated DRAM capacity in bytes.
    pub(crate) dram_capacity: usize,
    /// Visible cost of a store that hits L1.
    pub(crate) store_hit_cost: u32,
    /// Visible cost of a store that misses L1 (the fill happens in the
    /// background via the write/fill buffers; see `hierarchy`).
    pub store_miss_cost: u32,
    /// Cycles of pending background write-back the per-core buffers can
    /// absorb before stores start stalling the core.
    pub(crate) wb_buffer_cap: u64,
    /// Core cycles consumed by a `clflush`.
    pub(crate) clflush_cost: u32,
    /// RNG seed for replacement randomness (deterministic runs).
    pub(crate) seed: u64,
}

impl MachineConfig {
    /// The paper's primary testbed: Intel Xeon E5-2667 v3 (Haswell),
    /// 8 cores @ 3.2 GHz, 8 × 2.5 MB inclusive LLC slices on a ring
    /// (paper Table 1 and §2.2).
    pub fn haswell_e5_2667_v3() -> Self {
        Self {
            name: "Intel Xeon E5-2667 v3 (Haswell)",
            cores: 8,
            slices: 8,
            freq_ghz: 3.2,
            l1: CacheGeometry {
                sets: 64,
                ways: 8,
                latency: 4,
            },
            l2: CacheGeometry {
                sets: 512,
                ways: 8,
                latency: 11,
            },
            llc_slice: CacheGeometry {
                sets: 2048,
                ways: 20,
                latency: 0,
            },
            llc_mode: LlcMode::Inclusive,
            // ~60 ns at 3.2 GHz (paper §1).
            dram_latency: 192,
            ddio_ways: 2,
            replacement: ReplacementKind::Lru,
            prefetch: PrefetchConfig::disabled(),
            hash: HashConfig::XorPow2 { bits: 3 },
            interconnect: InterconnectConfig::Ring {
                base: 34,
                hop: 2,
                cross: 14,
            },
            dram_capacity: 4 * 1024 * 1024 * 1024,
            store_hit_cost: 4,
            store_miss_cost: 8,
            wb_buffer_cap: 1200,
            clflush_cost: 40,
            seed: 0x5eed_cafe,
        }
    }

    /// The paper's second testbed: Intel Xeon Gold 6134 (Skylake-SP),
    /// 8 cores, 18 × 1.375 MB non-inclusive LLC slices on a mesh, 1 MB L2
    /// (paper §6).
    pub fn skylake_gold_6134() -> Self {
        Self {
            name: "Intel Xeon Gold 6134 (Skylake-SP)",
            cores: 8,
            slices: 18,
            freq_ghz: 3.2,
            l1: CacheGeometry {
                sets: 64,
                ways: 8,
                latency: 4,
            },
            l2: CacheGeometry {
                sets: 1024,
                ways: 16,
                latency: 14,
            },
            llc_slice: CacheGeometry {
                sets: 2048,
                ways: 11,
                latency: 0,
            },
            llc_mode: LlcMode::Victim,
            dram_latency: 192,
            ddio_ways: 2,
            replacement: ReplacementKind::Lru,
            prefetch: PrefetchConfig::disabled(),
            hash: HashConfig::Folded { slices: 18 },
            interconnect: InterconnectConfig::MeshSkylake6134,
            dram_capacity: 4 * 1024 * 1024 * 1024,
            store_hit_cost: 4,
            store_miss_cost: 8,
            wb_buffer_cap: 1200,
            clflush_cost: 40,
            seed: 0x5eed_cafe,
        }
    }

    /// Convenience: same config with a different DRAM capacity (large
    /// experiments such as the KVS reserve gigabytes).
    pub fn with_dram_capacity(mut self, bytes: usize) -> Self {
        self.dram_capacity = bytes;
        self
    }

    /// Convenience: same config with a different prefetcher setup.
    pub fn with_prefetch(mut self, p: PrefetchConfig) -> Self {
        self.prefetch = p;
        self
    }

    /// Convenience: same config with a different replacement policy.
    pub fn with_replacement(mut self, r: ReplacementKind) -> Self {
        self.replacement = r;
        self
    }

    /// Convenience: same config with a different DDIO way budget.
    pub fn with_ddio_ways(mut self, ways: usize) -> Self {
        self.ddio_ways = ways;
        self
    }

    /// Convenience: same config with a different RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total LLC capacity across slices, in bytes.
    pub fn llc_capacity_bytes(&self) -> usize {
        self.llc_slice.capacity_bytes() * self.slices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haswell_matches_paper_table1() {
        let c = MachineConfig::haswell_e5_2667_v3();
        // Table 1: LLC slice 2.5 MB, 20 ways, 2048 sets.
        assert_eq!(c.llc_slice.capacity_bytes(), 2_621_440);
        assert_eq!(c.llc_slice.ways, 20);
        assert_eq!(c.llc_slice.sets, 2048);
        // Table 1: L2 256 kB, 8 ways, 512 sets.
        assert_eq!(c.l2.capacity_bytes(), 256 * 1024);
        // Table 1: L1 32 kB, 8 ways, 64 sets.
        assert_eq!(c.l1.capacity_bytes(), 32 * 1024);
        assert_eq!(c.llc_mode, LlcMode::Inclusive);
        assert_eq!(c.cores, 8);
        assert_eq!(c.slices, 8);
    }

    #[test]
    fn skylake_matches_paper_section6() {
        let c = MachineConfig::skylake_gold_6134();
        // §6: L2 grown to 1 MB, slices shrunk to 1.375 MB, 18 slices.
        assert_eq!(c.l2.capacity_bytes(), 1024 * 1024);
        assert_eq!(c.llc_slice.capacity_bytes(), 1_441_792);
        assert_eq!(c.slices, 18);
        assert_eq!(c.cores, 8);
        assert_eq!(c.llc_mode, LlcMode::Victim);
    }

    #[test]
    fn ddio_budget_is_ten_percent_of_haswell_llc() {
        // Paper §5.1.2 footnote: 2 of 20 ways = 10 %.
        let c = MachineConfig::haswell_e5_2667_v3();
        assert_eq!(c.ddio_ways * 10, c.llc_slice.ways);
    }

    #[test]
    fn dram_latency_is_60ns() {
        let c = MachineConfig::haswell_e5_2667_v3();
        let ns = c.dram_latency as f64 / c.freq_ghz;
        assert!((ns - 60.0).abs() < 1.0);
    }

    #[test]
    fn builders_apply() {
        let c = MachineConfig::haswell_e5_2667_v3()
            .with_dram_capacity(1 << 20)
            .with_ddio_ways(4)
            .with_seed(9);
        assert_eq!(c.dram_capacity, 1 << 20);
        assert_eq!(c.ddio_ways, 4);
        assert_eq!(c.seed, 9);
    }
}
