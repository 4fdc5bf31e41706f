//! CacheDirector: slice-aware packet placement for DPDK-style buffers
//! (paper §4).
//!
//! DDIO already puts arriving packets in the LLC, but into *whichever*
//! slice Complex Addressing assigns to the buffer address. CacheDirector
//! closes the loop: it sizes each mbuf's headroom dynamically so that the
//! first 64 B of the frame — the packet header, the part every network
//! function touches — lands in the slice closest to the core that will
//! process the packet.
//!
//! Implementation, following §4.2:
//!
//! * **Init phase** ([`CacheDirector::install`]): for every mbuf in the
//!   pool and every core, find the smallest headroom (in cache lines)
//!   that places the header window in one of the core's preferred
//!   slices, and pack the answers into the mbuf's `udata64` — 4 bits per
//!   core, "scalable for up to 16 cores".
//! * **Run time** ([`HeadroomPolicy`] impl): when the driver re-posts a
//!   buffer to a queue served by core *c*, read `udata64`, take nibble
//!   *c*, multiply by 64 — one cached load instead of a search.
//! * **Configurable window**: applications that hit a different part of
//!   the packet (VXLAN, DPI) can place any other 64 B window instead
//!   (`window_offset`).
//!
//! The headroom budget follows the paper's measured maximum of 832 B
//! (13 lines); [`headroom_distribution`] regenerates that §4.2
//! distribution for any trace.

pub(crate) mod sorted_pools;

use llc_sim::machine::Machine;
use llc_sim::CACHE_LINE;
use rte::mbuf::{pack_headroom_table, unpack_headroom_lines};
use rte::mempool::MbufPool;
use rte::nic::HeadroomPolicy;
use slice_aware::placement::PlacementPolicy;

pub use sorted_pools::SortedPools;

/// The enlarged headroom capacity CacheDirector pools use: the maximum
/// the paper observed across ~12.3 M trace packets (§4.2).
pub const CACHEDIRECTOR_HEADROOM: u16 = 832;

/// Placement statistics from the init phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstallStats {
    /// (mbuf, core) pairs whose window fits a preferred slice.
    pub(crate) placed: u64,
    /// Pairs where no headroom position reached a preferred slice and the
    /// first position was kept as a fallback.
    pub fallback: u64,
}

/// The CacheDirector headroom policy.
#[derive(Debug)]
pub struct CacheDirector {
    /// Per-core acceptable slice sets (primary first).
    preferred: Vec<Vec<usize>>,
    /// Byte offset of the 64 B window to place (0 = the packet header).
    window_offset: u16,
    stats: InstallStats,
}

impl CacheDirector {
    /// Precomputes and writes every mbuf's `udata64` headroom table,
    /// targeting each core's `preferred_slices` closest slices.
    ///
    /// `preferred_slices = 1` places headers in the primary slice only
    /// (the Haswell configuration, where core *i* owns slice *i*);
    /// Skylake benefits from 2-3 (primary + secondaries, Table 4).
    ///
    /// # Panics
    ///
    /// Panics when the pool's headroom capacity exceeds 15 lines (a
    /// nibble), when `window_offset` is not 64 B-aligned or beyond the
    /// data room, or when `preferred_slices == 0`.
    pub fn install(
        m: &mut Machine,
        pool: &MbufPool,
        preferred_slices: usize,
        window_offset: u16,
    ) -> Self {
        assert!(preferred_slices > 0, "need at least one target slice");
        assert_eq!(
            window_offset as usize % CACHE_LINE,
            0,
            "window must be cache-line aligned"
        );
        assert!(
            window_offset < pool.dataroom(),
            "window beyond the data room"
        );
        let max_lines = pool.headroom_cap() as usize / CACHE_LINE;
        assert!(max_lines <= 15, "headroom table nibble overflow");
        let policy = PlacementPolicy::from_topology(m);
        let cores = m.config().cores.min(16);
        let preferred: Vec<Vec<usize>> = (0..cores)
            .map(|c| policy.preferred_set(c, preferred_slices).to_vec())
            .collect();
        Self::install_with_targets(m, pool, preferred, window_offset)
    }

    /// Like [`CacheDirector::install`] but with explicit per-core target
    /// slice sets — e.g. a *compromise* slice shared by the cores of a
    /// pipelined chain (§8: "multi-threaded applications that have shared
    /// data among multiple cores should find a compromise placement").
    ///
    /// # Panics
    ///
    /// Same conditions as [`CacheDirector::install`], plus an empty
    /// target list.
    pub fn install_with_targets(
        m: &mut Machine,
        pool: &MbufPool,
        preferred: Vec<Vec<usize>>,
        window_offset: u16,
    ) -> Self {
        assert!(!preferred.is_empty(), "need at least one core's targets");
        assert!(preferred.len() <= 16, "udata64 holds 16 nibbles");
        assert!(
            preferred.iter().all(|p| !p.is_empty()),
            "every core needs at least one target slice"
        );
        assert_eq!(
            window_offset as usize % CACHE_LINE,
            0,
            "window must be cache-line aligned"
        );
        assert!(
            window_offset < pool.dataroom(),
            "window beyond the data room"
        );
        let max_lines = pool.headroom_cap() as usize / CACHE_LINE;
        assert!(max_lines <= 15, "headroom table nibble overflow");
        let cores = preferred.len();
        let mut cd = Self {
            preferred,
            window_offset,
            stats: InstallStats::default(),
        };
        for mbuf in 0..pool.capacity() {
            let mut nibbles = vec![0u8; cores];
            for (core, nib) in nibbles.iter_mut().enumerate() {
                match cd.search(m, pool, mbuf, core, max_lines) {
                    Some(lines) => {
                        *nib = lines;
                        cd.stats.placed += 1;
                    }
                    None => {
                        *nib = 0;
                        cd.stats.fallback += 1;
                    }
                }
            }
            let packed = pack_headroom_table(&nibbles);
            // Init phase: written directly, not on any core's clock.
            let meta = pool.meta(mbuf);
            m.mem_mut().write_u64(meta.base().add(8), packed);
        }
        cd
    }

    /// Smallest headroom (in lines) placing the window in a preferred
    /// slice of `core`.
    fn search(
        &self,
        m: &Machine,
        pool: &MbufPool,
        mbuf: u32,
        core: usize,
        max_lines: usize,
    ) -> Option<u8> {
        let meta = pool.meta(mbuf);
        for lines in 0..=max_lines {
            let data_off = (lines * CACHE_LINE) as u16;
            let window_pa = meta
                .data_pa_for(data_off)
                .add(u64::from(self.window_offset));
            if self.preferred[core].contains(&m.slice_of(window_pa)) {
                return Some(lines as u8);
            }
        }
        None
    }

    /// Init-phase placement statistics.
    pub fn stats(&self) -> InstallStats {
        self.stats
    }
}

impl HeadroomPolicy for CacheDirector {
    fn data_off(&mut self, m: &mut Machine, pool: &MbufPool, mbuf: u32, core: usize) -> u16 {
        // One (usually cached) metadata load: the precomputed nibble.
        let (udata, _cycles) = pool.meta(mbuf).udata64(m, core);
        let core_idx = core.min(15);
        u16::from(unpack_headroom_lines(udata, core_idx)) * CACHE_LINE as u16
    }
}

/// Regenerates the §4.2 headroom-size distribution: the headroom each of
/// the pool's mbufs needs per core, in bytes.
///
/// The paper ran ~12.3 M trace packets through this and found a median of
/// 256 B, 95 % below 512 B, and a maximum of 832 B.
pub fn headroom_distribution(m: &Machine, pool: &MbufPool, cd: &CacheDirector) -> Vec<u16> {
    let max_lines = pool.headroom_cap() as usize / CACHE_LINE;
    let mut out = Vec::with_capacity(pool.capacity() as usize * cd.preferred.len());
    for mbuf in 0..pool.capacity() {
        for core in 0..cd.preferred.len() {
            if let Some(lines) = cd.search(m, pool, mbuf, core, max_lines) {
                out.push(u16::from(lines) * CACHE_LINE as u16);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::machine::MachineConfig;
    use rte::nic::{FixedHeadroom, Port};
    use rte::steering::{Rss, Steering};
    use trafficgen::FlowTuple;

    fn haswell() -> Machine {
        Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(128 << 20))
    }

    #[test]
    fn install_places_every_haswell_pair() {
        // Over 8 consecutive headroom lines the XOR hash cycles through
        // all 8 slices, so placement never falls back on Haswell.
        let mut m = haswell();
        let pool = MbufPool::create(&mut m, 128, CACHEDIRECTOR_HEADROOM, 2048).unwrap();
        let cd = CacheDirector::install(&mut m, &pool, 1, 0);
        assert_eq!(cd.stats().fallback, 0);
        assert_eq!(cd.stats().placed, 128 * 8);
    }

    #[test]
    fn data_off_lands_header_in_cores_slice() {
        let mut m = haswell();
        let pool = MbufPool::create(&mut m, 64, CACHEDIRECTOR_HEADROOM, 2048).unwrap();
        let mut cd = CacheDirector::install(&mut m, &pool, 1, 0);
        for core in 0..8 {
            let target = m.closest_slice(core);
            for mbuf in 0..64 {
                let off = cd.data_off(&mut m, &pool, mbuf, core);
                let pa = pool.meta(mbuf).data_pa_for(off);
                assert_eq!(m.slice_of(pa), target, "mbuf {mbuf} core {core}");
                assert!(off <= CACHEDIRECTOR_HEADROOM);
            }
        }
    }

    #[test]
    fn haswell_headroom_distribution_matches_paper_shape() {
        // §4.2: median 256 B, 95 % < 512 B, max 832 B. Consecutive lines
        // *mostly* cycle through all 8 slices (bits 6-8 drive the hash),
        // but windows crossing a 1 KB boundary flip bit 10 mid-run, which
        // is what pushes the tail of the distribution out.
        let mut m = haswell();
        let pool = MbufPool::create(&mut m, 256, CACHEDIRECTOR_HEADROOM, 2048).unwrap();
        let cd = CacheDirector::install(&mut m, &pool, 1, 0);
        let mut dist = headroom_distribution(&m, &pool, &cd);
        dist.sort_unstable();
        let max = *dist.last().unwrap();
        let median = dist[dist.len() / 2];
        let p95 = dist[dist.len() * 95 / 100];
        assert!(max <= 832, "max {max}");
        assert!(median <= 256, "median {median}");
        assert!(p95 <= 512, "p95 {p95}");
    }

    #[test]
    fn window_offset_places_that_window() {
        let mut m = haswell();
        let pool = MbufPool::create(&mut m, 32, CACHEDIRECTOR_HEADROOM, 2048).unwrap();
        // Place the second cache line of the packet (e.g. inner VXLAN hdr).
        let mut cd = CacheDirector::install(&mut m, &pool, 1, 64);
        for mbuf in 0..32 {
            let off = cd.data_off(&mut m, &pool, mbuf, 2);
            let pa = pool.meta(mbuf).data_pa_for(off).add(64);
            assert_eq!(m.slice_of(pa), m.closest_slice(2));
        }
    }

    #[test]
    fn skylake_uses_preferred_sets() {
        let mut m = Machine::new(MachineConfig::skylake_gold_6134().with_dram_capacity(128 << 20));
        let pool = MbufPool::create(&mut m, 64, CACHEDIRECTOR_HEADROOM, 2048).unwrap();
        let mut cd = CacheDirector::install(&mut m, &pool, 3, 0);
        let mut hits = 0;
        let mut total = 0;
        for core in 0..8 {
            let pref = cd.preferred[core].clone();
            for mbuf in 0..64 {
                let off = cd.data_off(&mut m, &pool, mbuf, core);
                let pa = pool.meta(mbuf).data_pa_for(off);
                total += 1;
                if pref.contains(&m.slice_of(pa)) {
                    hits += 1;
                }
            }
        }
        // 14 candidate positions vs an 18-slice pseudo-random hash: most
        // pairs place, a few fall back.
        assert!(
            hits as f64 / total as f64 > 0.85,
            "placement rate {hits}/{total}"
        );
    }

    #[test]
    fn runtime_lookup_is_one_cached_load() {
        let mut m = haswell();
        let pool = MbufPool::create(&mut m, 16, CACHEDIRECTOR_HEADROOM, 2048).unwrap();
        let mut cd = CacheDirector::install(&mut m, &pool, 1, 0);
        // Warm the metadata line.
        let _ = cd.data_off(&mut m, &pool, 3, 0);
        let t0 = m.now(0);
        let _ = cd.data_off(&mut m, &pool, 3, 0);
        let cost = m.now(0) - t0;
        assert!(
            cost <= 4,
            "runtime overhead must be a single L1 load: {cost}"
        );
    }

    #[test]
    fn end_to_end_frame_lands_in_processing_cores_slice() {
        // The full §4 pipeline: refill with CacheDirector, deliver a frame
        // via DDIO, check the header's slice for the consuming core.
        let mut m = haswell();
        let mut pool = MbufPool::create(&mut m, 128, CACHEDIRECTOR_HEADROOM, 2048).unwrap();
        let mut cd = CacheDirector::install(&mut m, &pool, 1, 0);
        let mut port = Port::new(0, Steering::Rss(Rss::new(8)), 64);
        // Queue q is served by core q.
        for q in 0..8 {
            port.refill(&mut m, &mut pool, q, q, &mut cd, 16);
        }
        let mut checked = 0;
        for i in 0..64u32 {
            let flow = FlowTuple::tcp(0x0a000000 + i * 7, 1000 + i as u16, 0xc0a80001, 80);
            let frame = vec![0u8; 128];
            let q = port.deliver(&mut m, &frame, &flow, 0.0).unwrap();
            let mut batch = Vec::new();
            port.rx_view(q).rx_burst(&mut m, &pool, q, 4, &mut batch);
            for c in batch {
                let slice = m.slice_of(c.data_pa);
                assert_eq!(slice, m.closest_slice(q), "queue {q}");
                assert!(m.llc_probe(slice, c.data_pa), "header in LLC via DDIO");
                checked += 1;
            }
        }
        assert!(checked >= 60);
    }

    #[test]
    fn stock_dpdk_headers_scatter_across_slices() {
        // Baseline sanity: with FixedHeadroom the header slice is
        // uniform-ish over all 8 slices, which is what CacheDirector fixes.
        let mut m = haswell();
        let mut pool = MbufPool::create(&mut m, 256, 128, 2048).unwrap();
        let mut fixed = FixedHeadroom(128);
        let mut port = Port::new(0, Steering::Rss(Rss::new(1)), 256);
        port.refill(&mut m, &mut pool, 0, 0, &mut fixed, 256);
        let mut slices_seen = std::collections::HashSet::new();
        for i in 0..256u32 {
            let flow = FlowTuple::tcp(i, 1, 2, 3);
            if port.deliver(&mut m, &[0u8; 64], &flow, 0.0).is_ok() {
                let mut batch = Vec::new();
                port.rx_view(0).rx_burst(&mut m, &pool, 0, 1, &mut batch);
                for c in batch {
                    slices_seen.insert(m.slice_of(c.data_pa));
                }
            }
        }
        assert!(slices_seen.len() >= 6, "only saw {slices_seen:?}");
    }

    #[test]
    #[should_panic(expected = "cache-line aligned")]
    fn rejects_misaligned_window() {
        let mut m = haswell();
        let pool = MbufPool::create(&mut m, 4, CACHEDIRECTOR_HEADROOM, 2048).unwrap();
        CacheDirector::install(&mut m, &pool, 1, 100);
    }

    #[test]
    #[should_panic(expected = "nibble overflow")]
    fn rejects_oversized_headroom_pool() {
        let mut m = haswell();
        let pool = MbufPool::create(&mut m, 4, 1024, 2048).unwrap();
        CacheDirector::install(&mut m, &pool, 1, 0);
    }
}
