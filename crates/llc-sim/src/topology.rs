//! NUCA interconnect floorplans: core → slice access latency.
//!
//! LLC slices sit on an on-die interconnect — a bi-directional ring bus up
//! to Broadwell, a mesh from Skylake-SP — so the cycles needed to reach a
//! slice depend on where the requesting core sits (paper §2, §6). The paper
//! measures this as:
//!
//! * **Haswell (Fig. 5a)**: bimodal; from core 0, slices 0/2/4/6 are cheap
//!   (~34–40 cycles) and 1/3/5/7 expensive (~50–58), the two groups each
//!   growing slowly with distance. Every core sees the same pattern shifted
//!   onto itself, with slice *i* closest to core *i*.
//! * **Skylake (Fig. 16, Table 4)**: 18 slices for 8 cores; each core has
//!   one primary and one or two secondary slices.
//!
//! [`RingBus`] reproduces the Haswell shape from a dual-ring distance
//! formula; [`Mesh`] uses an explicit hop table calibrated to the paper's
//! Skylake measurements (see DESIGN.md §2 — the real floorplan of the
//! Xeon Gold 6134 is not public, so the hop table is fitted to Fig. 16 and
//! Table 4 rather than derived from die photos).

/// Maps `(core, slice)` to an LLC access latency in core cycles.
pub trait Interconnect: Send + Sync {
    /// Total load-to-use latency of an LLC hit from `core` to `slice`.
    fn llc_latency(&self, core: usize, slice: usize) -> u32;

    /// Number of cores attached.
    fn cores(&self) -> usize;

    /// Number of LLC slices attached.
    fn slices(&self) -> usize;

    /// The cheapest slice for `core` (ties broken toward lower indices).
    fn closest_slice(&self, core: usize) -> usize {
        (0..self.slices())
            .min_by_key(|&s| self.llc_latency(core, s))
            .expect("at least one slice")
    }

    /// All slices ordered by increasing latency from `core`.
    fn slices_by_distance(&self, core: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..self.slices()).collect();
        v.sort_by_key(|&s| (self.llc_latency(core, s), s));
        v
    }
}

/// The Haswell bi-directional ring bus.
///
/// Cores and slices are co-located in pairs on two physical rings (even
/// pairs on the requesting core's ring, odd pairs on the other), which is
/// what produces the paper's bimodal Fig. 5a: reaching a same-ring slice
/// costs a couple of cycles per hop; crossing to the other ring costs a
/// fixed penalty on top.
#[derive(Debug, Clone)]
pub struct RingBus {
    nodes: usize,
    /// `nodes × nodes` latencies, row-major by core: the distance
    /// formula of [`RingBus::new`], evaluated once.
    latency: Vec<u32>,
}

impl RingBus {
    /// A ring with `nodes` co-located core/slice pairs.
    ///
    /// `base` is the latency to the co-located slice, `hop` the extra per
    /// same-ring step and `cross` the ring-crossing penalty.
    ///
    /// # Panics
    ///
    /// Panics when `nodes == 0` or `nodes` is odd (pairs sit on two rings).
    pub(crate) fn new(nodes: usize, base: u32, hop: u32, cross: u32) -> Self {
        assert!(
            nodes > 0 && nodes.is_multiple_of(2),
            "need an even node count"
        );
        let latency = (0..nodes)
            .flat_map(|core| {
                (0..nodes).map(move |slice| {
                    // Position of the slice relative to the requesting
                    // core. Same-ring slices are the even deltas; each
                    // pair of deltas is one physical hop further along
                    // the ring.
                    let delta = (slice + nodes - core) % nodes;
                    let hops = (delta / 2) as u32;
                    let crossing = (delta % 2) as u32;
                    base + hop * hops + cross * crossing
                })
            })
            .collect();
        Self { nodes, latency }
    }

    /// The 8-node ring of the Xeon E5-2667 v3, calibrated to Fig. 5a:
    /// closest slice ≈ 34 cycles, farthest ≈ 56, save up to ~20 cycles.
    pub fn haswell_8() -> Self {
        Self::new(8, 34, 2, 14)
    }
}

impl Interconnect for RingBus {
    fn llc_latency(&self, core: usize, slice: usize) -> u32 {
        assert!(core < self.nodes && slice < self.nodes, "node out of range");
        self.latency[core * self.nodes + slice]
    }

    fn cores(&self) -> usize {
        self.nodes
    }

    fn slices(&self) -> usize {
        self.nodes
    }
}

/// A mesh interconnect described by an explicit per-`(core, slice)` hop
/// table (Skylake-SP and newer).
#[derive(Debug, Clone)]
pub struct Mesh {
    hops: Vec<Vec<u8>>,
    base: u32,
    hop: u32,
    slices: usize,
}

impl Mesh {
    /// A mesh with the given hop table; latency is `base + hop × hops`.
    ///
    /// # Panics
    ///
    /// Panics on an empty or ragged table.
    pub(crate) fn new(hops: Vec<Vec<u8>>, base: u32, hop: u32) -> Self {
        assert!(!hops.is_empty(), "need at least one core row");
        let slices = hops[0].len();
        assert!(slices > 0, "need at least one slice column");
        assert!(
            hops.iter().all(|r| r.len() == slices),
            "hop table must be rectangular"
        );
        Self {
            hops,
            base,
            hop,
            slices,
        }
    }

    /// The Xeon Gold 6134 (8 cores, 18 slices), calibrated so that each
    /// core's primary and secondary slices match the paper's Table 4 and
    /// the latency spread matches Fig. 16 (~45 to ~75 cycles).
    ///
    /// Primary slices per core: S0 S4 S8 S12 S10 S14 S3 S15; secondary:
    /// {S2,S6} {S1} {S11} {S13} {S7,S9} {S16} {S5} {S17}.
    pub fn skylake_6134() -> Self {
        const PRIMARY: [usize; 8] = [0, 4, 8, 12, 10, 14, 3, 15];
        const SECONDARY: [&[usize]; 8] = [&[2, 6], &[1], &[11], &[13], &[7, 9], &[16], &[5], &[17]];
        let slices = 18;
        let mut hops = vec![vec![0u8; slices]; 8];
        for core in 0..8 {
            // Remaining slices get deterministic, increasing hop counts in
            // a rotation that keeps the overall latency distribution similar
            // from every core (Fig. 16 is shown for core 0 only; the paper
            // reports the same behaviour from all cores on Haswell).
            let mut next_hop = 3u8;
            for k in 0..slices {
                let s = (PRIMARY[core] + k) % slices;
                if s == PRIMARY[core] {
                    hops[core][s] = 0;
                } else if SECONDARY[core].contains(&s) {
                    hops[core][s] = 1;
                } else {
                    hops[core][s] = next_hop;
                    // Spread the rest over hops 3..=15.
                    next_hop = if next_hop >= 15 { 3 } else { next_hop + 1 };
                }
            }
        }
        Self::new(hops, 44, 2)
    }
}

impl Interconnect for Mesh {
    fn llc_latency(&self, core: usize, slice: usize) -> u32 {
        self.base + self.hop * u32::from(self.hops[core][slice])
    }

    fn cores(&self) -> usize {
        self.hops.len()
    }

    fn slices(&self) -> usize {
        self.slices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bimodal_from_core0() {
        let r = RingBus::haswell_8();
        let lat: Vec<u32> = (0..8).map(|s| r.llc_latency(0, s)).collect();
        // Even slices cheap and increasing; odd slices expensive.
        assert_eq!(lat[0], 34);
        assert!(lat[2] > lat[0] && lat[4] > lat[2] && lat[6] > lat[4]);
        for s in [1, 3, 5, 7] {
            assert!(lat[s] >= 48, "odd slice {s} must be on the far ring");
        }
        let spread = lat.iter().max().unwrap() - lat.iter().min().unwrap();
        assert!(
            (18..=24).contains(&spread),
            "paper: save up to ~20 cycles, got {spread}"
        );
    }

    #[test]
    fn ring_pattern_is_core_relative() {
        let r = RingBus::haswell_8();
        for c in 0..8 {
            for s in 0..8 {
                assert_eq!(
                    r.llc_latency(c, s),
                    r.llc_latency(0, (s + 8 - c) % 8),
                    "every core sees the same shifted pattern"
                );
            }
        }
    }

    #[test]
    fn ring_closest_slice_is_own() {
        let r = RingBus::haswell_8();
        for c in 0..8 {
            assert_eq!(r.closest_slice(c), c);
        }
    }

    #[test]
    fn ring_distance_order_from_core0() {
        let r = RingBus::haswell_8();
        let order = r.slices_by_distance(0);
        assert_eq!(order[..4], [0, 2, 4, 6], "same-ring slices come first");
    }

    #[test]
    fn ring_table_matches_the_closed_form() {
        // Haswell: base 34, 2 per same-ring hop, 14 to cross. An even
        // delta d costs 34 + d, an odd one 34 + (d - 1) + 14.
        let r = RingBus::haswell_8();
        for c in 0..8 {
            for s in 0..8 {
                let d = ((s + 8 - c) % 8) as u32;
                let want = if d.is_multiple_of(2) { 34 + d } else { 47 + d };
                assert_eq!(r.llc_latency(c, s), want, "core {c}, slice {s}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn ring_rejects_an_off_ring_slice() {
        RingBus::haswell_8().llc_latency(0, 8);
    }

    #[test]
    #[should_panic(expected = "even node count")]
    fn ring_rejects_odd() {
        RingBus::new(7, 30, 2, 10);
    }

    #[test]
    fn mesh_matches_table4_primaries() {
        let m = Mesh::skylake_6134();
        let primaries = [0, 4, 8, 12, 10, 14, 3, 15];
        for (core, &p) in primaries.iter().enumerate() {
            assert_eq!(m.closest_slice(core), p, "core {core}");
        }
    }

    #[test]
    fn mesh_matches_table4_secondaries() {
        let m = Mesh::skylake_6134();
        let secondaries: [&[usize]; 8] = [&[2, 6], &[1], &[11], &[13], &[7, 9], &[16], &[5], &[17]];
        for (core, &secs) in secondaries.iter().enumerate() {
            let order = m.slices_by_distance(core);
            let second_lat = m.llc_latency(core, order[1]);
            let at_second: Vec<usize> = (0..18)
                .filter(|&s| m.llc_latency(core, s) == second_lat)
                .collect();
            assert_eq!(at_second, secs, "core {core} secondary set");
        }
    }

    #[test]
    fn mesh_latency_spread_matches_fig16() {
        let m = Mesh::skylake_6134();
        let lats: Vec<u32> = (0..18).map(|s| m.llc_latency(0, s)).collect();
        let lo = *lats.iter().min().unwrap();
        let hi = *lats.iter().max().unwrap();
        assert_eq!(lo, 44);
        assert!(
            (70..=80).contains(&hi),
            "Fig. 16 tops out near ~75, got {hi}"
        );
    }

    #[test]
    fn mesh_dimensions() {
        let m = Mesh::skylake_6134();
        assert_eq!(m.cores(), 8);
        assert_eq!(m.slices(), 18);
    }

    #[test]
    #[should_panic(expected = "rectangular")]
    fn mesh_rejects_ragged_table() {
        Mesh::new(vec![vec![0, 1], vec![0]], 40, 2);
    }
}
