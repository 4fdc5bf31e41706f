//! The simulated machine: cores, private caches, sliced LLC, DDIO and the
//! cycle-cost engine.
//!
//! [`Machine`] wires the pieces of this crate together and exposes *timed*
//! memory operations: every load/store returns the core cycles it cost,
//! advancing that core's clock. The cost rules are calibrated to the
//! paper's measurements:
//!
//! * L1 hit 4 cycles, L2 hit 11 (Haswell §2.2, Fig. 2).
//! * LLC hit: interconnect latency — this is where NUCA appears; the same
//!   line costs more from a distant core (Figs. 5a, 16).
//! * Miss: DRAM latency (~60 ns).
//! * Stores retire through the store buffer: a visible cost of a few
//!   cycles regardless of where the line lives (Fig. 5b shows writes are
//!   flat across slices), while the fill and any dirty write-backs are
//!   charged to a bounded per-core **write-back budget**. Once the budget
//!   saturates, further stores stall for the backlog — which is exactly
//!   how the paper explains Fig. 6b: "the difference in access times
//!   becomes visible with an increasing number of write operations ...
//!   modified cache lines accumulate in L1 and need to be written to
//!   higher level caches".
//!
//! DMA (`dma_write`/`dma_read`) models DDIO: device writes allocate
//! directly into the target LLC slice but only into a restricted set of
//! ways (2 of 20 by default, the 10 % limit of §8).
//!
//! The per-core walk that applies these rules is written once (`Walk`)
//! and serves both execution modes: a direct `Machine` access and an
//! [`EpochShard`] of the epoch engine. They differ only in when the
//! walk's LLC effects apply — at once, or logged as [`LlcOp`]s and
//! applied at the epoch merge by [`Machine::replay_llc`], which calls the
//! same machine methods a direct access does.

use crate::addr::{split_lines, PhysAddr};
use crate::cache::{Evicted, Fill, SetAssocCache};
use crate::epoch::{EpochShard, LlcOp, SharedMem};
use crate::hash::{MachineHash, SliceHash};
use crate::machine::{InterconnectConfig, LlcMode, MachineConfig};
use crate::mem::PhysMem;
use crate::prefetch::StreamerState;
use crate::topology::{Interconnect, Mesh, RingBus};
use crate::uncore::Uncore;

/// A duration in core cycles.
pub type Cycles = u64;

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// The simulated socket. See the module docs for the cost model.
pub struct Machine {
    cfg: MachineConfig,
    cores: Vec<CoreState>,
    llc: Vec<SetAssocCache>,
    hash: MachineHash,
    topo: Box<dyn Interconnect>,
    uncore: Uncore,
    mem: PhysMem,
    cat_mask: Vec<u64>,
    ddio_mask: u64,
}

/// One core's private state. An [`EpochShard`] borrows it whole.
///
/// L1 and L2 residency changes only through the methods below, which
/// keep the core's snoop filter: `held[b]` counts the core's L1 lines
/// plus L2 lines whose line number is `b` modulo `held.len()`. The
/// length is 64 × the larger set count, a power of two and a multiple
/// of both set counts, so a bucket holds lines of one L1 set and one L2
/// set only and never counts more than `l1.ways + l2.ways`. A line
/// whose bucket is 0 is in neither cache.
pub(crate) struct CoreState {
    pub(crate) l1: SetAssocCache,
    pub(crate) l2: SetAssocCache,
    held: Vec<u8>,
    /// The core's cycle clock.
    pub(crate) clock: u64,
    /// Write-back backlog (see the module docs).
    pub(crate) wb_debt: u64,
    pub(crate) streamer: StreamerState,
}

impl CoreState {
    fn new(l1: SetAssocCache, l2: SetAssocCache) -> Self {
        let buckets = 64 * l1.set_count().max(l2.set_count());
        Self {
            l1,
            l2,
            held: vec![0; buckets],
            clock: 0,
            wb_debt: 0,
            streamer: StreamerState::default(),
        }
    }

    /// The snoop-filter bucket of `line`.
    #[inline]
    fn bucket(&self, line: u64) -> usize {
        line as usize & (self.held.len() - 1)
    }

    /// Counts a fill's new line in and its victim out.
    #[inline]
    fn count(&mut self, line: u64, fill: Fill) -> Option<Evicted> {
        match fill {
            Fill::Hit => None,
            Fill::Free => {
                let b = self.bucket(line);
                self.held[b] += 1;
                None
            }
            Fill::Evicted(ev) => {
                let b = self.bucket(line);
                self.held[b] += 1;
                let b = self.bucket(ev.line);
                self.held[b] -= 1;
                Some(ev)
            }
        }
    }

    /// Inserts `line` into L1, returning the victim.
    #[inline]
    fn fill_l1(&mut self, line: u64, dirty: bool) -> Option<Evicted> {
        let fill = self.l1.fill_masked(line, dirty, u64::MAX);
        self.count(line, fill)
    }

    /// Inserts `line` into L2, returning the victim.
    #[inline]
    fn fill_l2(&mut self, line: u64, dirty: bool) -> Option<Evicted> {
        let fill = self.l2.fill_masked(line, dirty, u64::MAX);
        self.count(line, fill)
    }

    /// Drops `line` from L1 and L2. A cache that does not hold the line
    /// changes nothing on an invalidation (no stats, no recency, no
    /// random draw), so skipping both when the bucket is empty is exact.
    #[inline]
    fn invalidate(&mut self, line: u64) {
        let b = self.bucket(line);
        if self.held[b] == 0 {
            return;
        }
        let hits = u8::from(self.l1.invalidate(line).is_some())
            + u8::from(self.l2.invalidate(line).is_some());
        self.held[b] -= hits;
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("name", &self.cfg.name)
            .field("cores", &self.cfg.cores)
            .field("slices", &self.cfg.slices)
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds a machine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics when the hash slice count disagrees with `cfg.slices`, the
    /// interconnect dimensions disagree with the core/slice counts, or
    /// L1 and L2 together have more than 255 ways (a snoop-filter bucket
    /// counts them in a `u8`).
    pub fn new(cfg: MachineConfig) -> Self {
        let hash = cfg.hash.build();
        assert_eq!(hash.slices(), cfg.slices, "hash/slice count mismatch");
        let topo: Box<dyn Interconnect> = match cfg.interconnect {
            InterconnectConfig::Ring { base, hop, cross } => {
                Box::new(RingBus::new(cfg.cores.max(cfg.slices), base, hop, cross))
            }
            InterconnectConfig::MeshSkylake6134 => Box::new(Mesh::skylake_6134()),
        };
        assert!(topo.cores() >= cfg.cores, "interconnect too small (cores)");
        assert_eq!(topo.slices(), cfg.slices, "interconnect/slice mismatch");
        assert!(
            cfg.l1.ways + cfg.l2.ways <= usize::from(u8::MAX),
            "L1 + L2 ways must fit a u8 snoop-filter count"
        );
        let mk = |g: crate::machine::CacheGeometry, seed: u64| {
            SetAssocCache::new(g.sets, g.ways, cfg.replacement, seed)
        };
        let cores = (0..cfg.cores as u64)
            .map(|i| {
                CoreState::new(
                    mk(cfg.l1, cfg.seed ^ (0x1000 + i)),
                    mk(cfg.l2, cfg.seed ^ (0x2000 + i)),
                )
            })
            .collect();
        let llc = (0..cfg.slices)
            .map(|i| mk(cfg.llc_slice, cfg.seed ^ (0x3000 + i as u64)))
            .collect();
        // DDIO allocates into the top `ddio_ways` ways of each slice.
        let w = cfg.llc_slice.ways;
        let dd = cfg.ddio_ways.min(w);
        let ddio_mask = (((1u64 << dd) - 1) << (w - dd)).max(1);
        Self {
            uncore: Uncore::new(cfg.slices),
            mem: PhysMem::new(cfg.dram_capacity),
            cat_mask: vec![u64::MAX; cfg.cores],
            cores,
            llc,
            hash,
            topo,
            ddio_mask,
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Shared physical memory.
    pub fn mem(&self) -> &PhysMem {
        &self.mem
    }

    /// Mutable physical memory (reservations, untimed data setup).
    pub fn mem_mut(&mut self) -> &mut PhysMem {
        &mut self.mem
    }

    /// The uncore monitoring unit.
    pub fn uncore(&self) -> &Uncore {
        &self.uncore
    }

    /// Mutable uncore (event select / reset).
    pub fn uncore_mut(&mut self) -> &mut Uncore {
        &mut self.uncore
    }

    /// The slice Complex Addressing maps `pa` to.
    pub fn slice_of(&self, pa: PhysAddr) -> usize {
        self.hash.slice_of(pa)
    }

    /// This machine's Complex Addressing function as an owned PA → slice
    /// oracle (e.g. for a `SliceAllocator`), so it can be used while the
    /// machine is borrowed mutably.
    pub fn slice_oracle(&self) -> impl Fn(PhysAddr) -> usize + Send + Sync + 'static {
        let hash = self.cfg.hash.build();
        move |pa| hash.slice_of(pa)
    }

    /// LLC hit latency from `core` to `slice`.
    pub fn llc_latency(&self, core: usize, slice: usize) -> u32 {
        self.topo.llc_latency(core, slice)
    }

    /// The cheapest slice for `core`.
    pub fn closest_slice(&self, core: usize) -> usize {
        self.topo.closest_slice(core)
    }

    /// All slices ordered by increasing latency from `core`.
    pub fn slices_by_distance(&self, core: usize) -> Vec<usize> {
        self.topo.slices_by_distance(core)
    }

    /// Current cycle clock of `core`.
    pub fn now(&self, core: usize) -> u64 {
        self.cores[core].clock
    }

    /// Advances `core`'s clock by `cycles` of non-memory work.
    pub fn advance(&mut self, core: usize, cycles: Cycles) {
        self.work(core, cycles);
    }

    /// Zeroes all core clocks and write-back backlogs.
    pub fn reset_clocks(&mut self) {
        for c in &mut self.cores {
            c.clock = 0;
            c.wb_debt = 0;
        }
    }

    /// Waits for `core`'s pending write-backs to finish (measurement-phase
    /// separator; the paper's experiments do the equivalent with fences).
    pub fn drain_write_backs(&mut self, core: usize) {
        let debt = self.cores[core].wb_debt;
        self.cores[core].clock += debt;
        self.cores[core].wb_debt = 0;
    }

    /// Restricts LLC allocations by `core` to the ways in `mask` — Intel
    /// CAT with one class of service per core (paper §7).
    ///
    /// # Panics
    ///
    /// Panics when the mask selects no way of the LLC.
    pub fn set_cat_mask(&mut self, core: usize, mask: u64) {
        let valid = (1u64 << self.cfg.llc_slice.ways) - 1;
        assert!(mask & valid != 0, "CAT mask selects no LLC way");
        self.cat_mask[core] = mask;
    }

    /// Removes `core`'s CAT restriction.
    pub fn clear_cat_mask(&mut self, core: usize) {
        self.cat_mask[core] = u64::MAX;
    }

    /// The CAT way mask currently applied to `core` (`u64::MAX` when
    /// unrestricted).
    pub fn cat_mask(&self, core: usize) -> u64 {
        self.cat_mask[core]
    }

    /// Reprograms the number of ways DDIO allocates into at runtime —
    /// the `IIO_LLC_WAYS` register an isolation controller rewrites to
    /// shrink or widen the I/O ways online (paper §6; IOCA). The same
    /// construction rule as [`Machine::new`] applies: the top `ways`
    /// ways of every slice, clamped to the slice associativity, and the
    /// mask never goes empty (0 keeps way 0 usable, matching the
    /// config-time clamp). Only *future* DMA placements are affected;
    /// lines already resident stay wherever they are until evicted.
    pub fn set_ddio_ways(&mut self, ways: usize) {
        let w = self.cfg.llc_slice.ways;
        let dd = ways.min(w);
        self.ddio_mask = (((1u64 << dd) - 1) << (w - dd)).max(1);
    }

    /// The number of ways DDIO currently allocates into (the popcount
    /// of the active DDIO way mask).
    #[cfg(test)]
    pub(crate) fn ddio_ways(&self) -> usize {
        self.ddio_mask.count_ones() as usize
    }

    /// Per-slice LLC statistics.
    pub fn llc_stats(&self, slice: usize) -> crate::cache::CacheStats {
        self.llc[slice].stats()
    }

    /// Whether the line containing `pa` is resident in slice `slice`
    /// (inspection only; no counters move).
    pub fn llc_probe(&self, slice: usize, pa: PhysAddr) -> bool {
        self.llc[slice].probe(pa.line())
    }

    /// Number of valid lines currently in slice `slice`.
    #[cfg(test)]
    pub(crate) fn llc_occupancy(&self, slice: usize) -> usize {
        self.llc[slice].occupancy()
    }

    /// Checks the inclusion property: in [`LlcMode::Inclusive`] every line
    /// resident in any private cache should also be resident in the LLC.
    /// Returns the first violating `(core, line)`, or `None` when every
    /// private line is in the LLC (always `None` in victim mode).
    ///
    /// Core accesses keep the property: an LLC victim of a core fill is
    /// back-invalidated from every private cache. DDIO does not: a line
    /// that [`Machine::dma_place`] evicts from the DDIO ways keeps its
    /// private copies, so after DMA traffic this can return `Some` even on
    /// an inclusive machine. Inspection only (no counters move); intended
    /// for tests and debugging.
    pub fn check_inclusion(&self) -> Option<(usize, u64)> {
        if self.cfg.llc_mode != LlcMode::Inclusive {
            return None;
        }
        for (c, st) in self.cores.iter().enumerate() {
            for (line, _) in st.l1.resident_lines().chain(st.l2.resident_lines()) {
                let s = self.hash.slice_of(PhysAddr(line << 6));
                if !self.llc[s].probe(line) {
                    return Some((c, line));
                }
            }
        }
        None
    }

    /// Resets hit/miss statistics at every level.
    pub fn reset_stats(&mut self) {
        for c in &mut self.cores {
            c.l1.reset_stats();
            c.l2.reset_stats();
        }
        for c in &mut self.llc {
            c.reset_stats();
        }
    }

    // ------------------------------------------------------------------
    // Timed operations.
    // ------------------------------------------------------------------

    /// Timed load of the line containing `pa` (no data movement).
    pub fn touch_read(&mut self, core: usize, pa: PhysAddr) -> Cycles {
        self.access(core, pa.line(), AccessKind::Read)
    }

    /// Timed store to the line containing `pa` (no data movement).
    pub fn touch_write(&mut self, core: usize, pa: PhysAddr) -> Cycles {
        self.access(core, pa.line(), AccessKind::Write)
    }

    /// Timed load of `buf.len()` bytes at `pa` into `buf`.
    pub fn read_bytes(&mut self, core: usize, pa: PhysAddr, buf: &mut [u8]) -> Cycles {
        self.load(core, pa, buf)
    }

    /// Timed store of `data` at `pa`.
    pub fn write_bytes(&mut self, core: usize, pa: PhysAddr, data: &[u8]) -> Cycles {
        self.store(core, pa, data)
    }

    /// Timed load of a little-endian `u64`.
    pub fn read_u64(&mut self, core: usize, pa: PhysAddr) -> (u64, Cycles) {
        let mut b = [0u8; 8];
        let c = self.read_bytes(core, pa, &mut b);
        (u64::from_le_bytes(b), c)
    }

    /// Timed store of a little-endian `u64`.
    pub fn write_u64(&mut self, core: usize, pa: PhysAddr, v: u64) -> Cycles {
        self.write_bytes(core, pa, &v.to_le_bytes())
    }

    /// `clflush`: writes back and invalidates the line containing `pa`
    /// from every cache in the hierarchy (paper §2.2 methodology).
    pub fn clflush(&mut self, core: usize, pa: PhysAddr) -> Cycles {
        let line = pa.line();
        for c in &mut self.cores {
            c.invalidate(line);
        }
        let s = self.hash.slice_of(pa);
        self.llc[s].invalidate(line);
        // Dirty data is already coherent in PhysMem (data writes go straight
        // through), so the flush is a pure state change plus its cost.
        let cost = u64::from(self.cfg.clflush_cost);
        self.charge(core, cost)
    }

    // ------------------------------------------------------------------
    // DMA / DDIO.
    // ------------------------------------------------------------------

    /// Device DMA write (DDIO): stores `data` at `pa` and allocates the
    /// touched lines into their LLC slices, restricted to the DDIO ways.
    ///
    /// Costs no core cycles; any stale copies in private caches are
    /// invalidated, as hardware coherency would.
    pub fn dma_write(&mut self, pa: PhysAddr, data: &[u8]) {
        self.mem.write(pa, data);
        self.dma_place(pa, data.len());
    }

    /// The allocation half of [`Machine::dma_write`] without data movement
    /// (for workloads that only need placement effects).
    pub fn dma_place(&mut self, pa: PhysAddr, len: usize) {
        for (base, _, _) in split_lines(pa, len) {
            let line = base.line();
            for c in &mut self.cores {
                c.invalidate(line);
            }
            let s = self.hash.slice_of(base);
            self.uncore.on_lookup(s);
            // A victim's dirty data is already coherent in PhysMem. Its
            // private copies are not back-invalidated, unlike an
            // `llc_insert` victim (see `check_inclusion`).
            match self.llc[s].fill_masked(line, true, self.ddio_mask) {
                Fill::Hit => {}
                fill => {
                    self.uncore.on_miss(s);
                    self.uncore.on_fill(s);
                    if matches!(fill, Fill::Evicted(_)) {
                        self.uncore.on_victim(s);
                    }
                }
            }
        }
    }

    /// Device DMA read (NIC TX) of `len` bytes at `pa`: one uncore
    /// lookup per line touched.
    ///
    /// Reads served from the LLC when resident (DDIO), otherwise from
    /// DRAM; either way no cache state changes and no core cycles. No
    /// bytes move: the model's device never looks at them.
    pub(crate) fn dma_read(&mut self, pa: PhysAddr, len: usize) {
        for (base, _, _) in split_lines(pa, len) {
            self.llc_dma_probe(base.line());
        }
    }

    // ------------------------------------------------------------------
    // LLC side shared by direct accesses and `replay_llc`; the rest of it
    // is the machine's `Walk` implementation below.
    // ------------------------------------------------------------------

    /// A device DMA read of `line`: an uncore lookup, no state change.
    fn llc_dma_probe(&mut self, line: u64) {
        let s = self.slice(line);
        self.uncore.on_lookup(s);
    }

    /// Inserts into slice `s` of the LLC under the core's CAT mask,
    /// handling victims (and inclusive back-invalidation).
    fn llc_insert(&mut self, core: usize, s: usize, line: u64, dirty: bool) {
        self.uncore.on_fill(s);
        let mask = self.cat_mask[core];
        if let Some(ev) = self.llc[s].insert_masked(line, dirty, mask) {
            self.uncore.on_victim(s);
            if self.cfg.llc_mode == LlcMode::Inclusive {
                // Inclusive LLC: a victim must leave the private caches too.
                for c in &mut self.cores {
                    c.invalidate(ev.line);
                }
            }
            // Dirty victims drain to DRAM through deep buffers; no core
            // cost is modelled for them.
        }
    }

    // ------------------------------------------------------------------
    // Epoch-parallel execution (see [`crate::epoch`]).
    // ------------------------------------------------------------------

    /// Splits the machine into disjoint per-core [`EpochShard`]s for one
    /// epoch of (possibly threaded) execution.
    ///
    /// While the returned shards are alive the machine is fully borrowed;
    /// each shard owns its core's private caches, clock, write-back debt
    /// and streamer, shares the LLC read-only and physical memory through
    /// a raw view. After running the shards, feed each shard's
    /// [`EpochShard::into_log`] to [`Machine::replay_llc`] in canonical
    /// worker order to merge the deferred LLC effects; hand the log back
    /// to the next epoch's shard with [`EpochShard::reuse_log`].
    ///
    /// Callers must keep concurrent shards' memory *writes* disjoint (see
    /// the safety contract in [`crate::epoch`]).
    ///
    /// # Panics
    ///
    /// Panics when a core index is out of range or listed twice.
    pub fn epoch_shards(&mut self, cores: &[usize]) -> Vec<EpochShard<'_>> {
        for (i, &c) in cores.iter().enumerate() {
            assert!(c < self.cfg.cores, "core {c} out of range");
            assert!(
                !cores[..i].contains(&c),
                "core {c} requested twice in one epoch"
            );
        }
        let mem = SharedMem::new(&mut self.mem);
        let cfg = &self.cfg;
        let hash = &self.hash;
        let topo: &dyn Interconnect = &*self.topo;
        let llc: &[SetAssocCache] = &self.llc;
        // Borrow the requested cores in index order, then restore the
        // caller's order (`sort_unstable` does not allocate).
        let mut shards: Vec<EpochShard<'_>> = self
            .cores
            .iter_mut()
            .enumerate()
            .filter(|(c, _)| cores.contains(c))
            .map(|(c, state)| EpochShard::new(c, cfg, hash, topo, llc, mem, state))
            .collect();
        shards.sort_unstable_by_key(|s| cores.iter().position(|&c| c == s.core()));
        shards
    }

    /// One core's [`EpochShard`]: what [`Machine::epoch_shards`] returns
    /// for `&[core]`, without the `Vec`. The shard borrows the whole
    /// machine, so a caller that runs shards one at a time (the engine's
    /// inline epochs) takes each from here and drops it before the next.
    ///
    /// # Panics
    ///
    /// Panics when `core` is out of range.
    pub fn epoch_shard(&mut self, core: usize) -> EpochShard<'_> {
        assert!(core < self.cfg.cores, "core {core} out of range");
        let mem = SharedMem::new(&mut self.mem);
        EpochShard::new(
            core,
            &self.cfg,
            &self.hash,
            &*self.topo,
            &self.llc,
            mem,
            &mut self.cores[core],
        )
    }

    /// Replays one shard's deferred-LLC event log against the live LLC,
    /// attributing allocations (CAT mask, back-invalidation) to `core`.
    ///
    /// Decisions are made from replay-time state, so replaying all
    /// shards' logs in canonical worker order reconstructs exactly the
    /// state a serial execution of the same epoch would produce. No core
    /// cycles move here — the shards already charged them.
    pub fn replay_llc(&mut self, core: usize, ops: &[LlcOp]) {
        for op in ops {
            match *op {
                LlcOp::Fetch { line } => {
                    self.llc_fetch(core, line);
                }
                LlcOp::L2Evict { line, dirty } => {
                    let s = self.slice(line);
                    self.llc_l2_victim(core, s, line, dirty);
                }
                LlcOp::Prefetch { line } => self.llc_prefetch(core, line),
                LlcOp::DmaProbe { line } => self.llc_dma_probe(line),
            }
        }
    }
}

/// The per-core cache walk — the cost model of the module docs, written
/// once for both execution modes.
///
/// The provided methods are the walk: write-back charge, read and write
/// walks, L1/L2 fills with the L2-victim rule, the prefetch loop and the
/// per-line byte loops. An implementor says where the core's LLC
/// interactions go: [`Machine`] applies them to the live LLC at once; an
/// [`EpochShard`] times them against the frozen LLC and logs them as
/// [`LlcOp`]s, which [`Machine::replay_llc`] applies at the epoch merge
/// through the machine's own `llc_*` methods. Either way a demand
/// fetch's LLC side runs before the L2/L1 fills: applied at once, an
/// inclusive fetch may back-invalidate a line of the walking core's L2
/// set and so change the L2 victim of the fill that follows.
pub(crate) trait Walk {
    /// The machine's configuration.
    fn cfg(&self) -> &MachineConfig;
    /// `core`'s L1, L2, clock, write-back debt and streamer.
    fn state(&mut self, core: usize) -> &mut CoreState;
    /// The slice Complex Addressing maps `line` to.
    fn slice(&self, line: u64) -> usize;
    /// LLC hit latency from `core` to `slice`.
    fn hop(&self, core: usize, slice: usize) -> Cycles;
    /// LLC side of an L2-missed demand fetch (read or RFO) of `line` by
    /// `core`: the slice that serves it, `None` when DRAM does.
    fn llc_fetch(&mut self, core: usize, line: u64) -> Option<usize>;
    /// LLC side of an L2 victim of `core` headed for `slice` (see
    /// [`Walk::spill_l2`] for which victims get there).
    fn llc_l2_victim(&mut self, core: usize, slice: usize, line: u64, dirty: bool);
    /// LLC side of a hardware-prefetch candidate of `core`.
    fn llc_prefetch(&mut self, core: usize, line: u64);
    /// Untimed copy out of physical memory.
    fn mem_read(&self, pa: PhysAddr, buf: &mut [u8]);
    /// Untimed copy into physical memory.
    fn mem_write(&mut self, pa: PhysAddr, data: &[u8]);

    /// Non-memory work: advances the clock and drains the write-back
    /// backlog.
    fn work(&mut self, core: usize, cycles: Cycles) {
        let st = self.state(core);
        st.wb_debt = st.wb_debt.saturating_sub(cycles);
        st.clock += cycles;
    }

    /// Applies the write-back-budget mechanics to a base cost and advances
    /// the core clock. See the module docs.
    fn charge(&mut self, core: usize, base: Cycles) -> Cycles {
        let cap = self.cfg().wb_buffer_cap;
        let st = self.state(core);
        // Background write-backs retire while the core is busy.
        st.wb_debt = st.wb_debt.saturating_sub(base);
        let mut cost = base;
        if st.wb_debt > cap {
            cost += st.wb_debt - cap;
            st.wb_debt = cap;
        }
        st.clock += cost;
        cost
    }

    /// A timed access to `line`: the walk and its charge. Inlined, so
    /// that each caller's constant `kind` selects one walk.
    #[inline]
    fn access(&mut self, core: usize, line: u64, kind: AccessKind) -> Cycles {
        let base = match kind {
            AccessKind::Read => self.walk_read(core, line),
            AccessKind::Write => self.walk_write(core, line),
        };
        self.charge(core, base)
    }

    /// Timed load of `buf.len()` bytes at `pa` into `buf`.
    fn load(&mut self, core: usize, pa: PhysAddr, buf: &mut [u8]) -> Cycles {
        let mut total = 0;
        let mut off = 0;
        for (base, in_line, len) in split_lines(pa, buf.len()) {
            total += self.access(core, base.line(), AccessKind::Read);
            self.mem_read(base.add(in_line as u64), &mut buf[off..off + len]);
            off += len;
        }
        total
    }

    /// Timed store of `data` at `pa`.
    fn store(&mut self, core: usize, pa: PhysAddr, data: &[u8]) -> Cycles {
        let mut total = 0;
        let mut off = 0;
        for (base, in_line, len) in split_lines(pa, data.len()) {
            total += self.access(core, base.line(), AccessKind::Write);
            self.mem_write(base.add(in_line as u64), &data[off..off + len]);
            off += len;
        }
        total
    }

    /// Read walk: returns the load-to-use latency and applies all state
    /// transitions (fills, evictions, prefetches).
    fn walk_read(&mut self, core: usize, line: u64) -> Cycles {
        if self.state(core).l1.lookup(line).is_some() {
            return u64::from(self.cfg().l1.latency);
        }
        if self.state(core).l2.lookup(line).is_some() {
            self.fill_l1(core, line, false);
            return u64::from(self.cfg().l2.latency);
        }
        let lat = self.fetch(core, line);
        self.fill_l2(core, line, false);
        self.fill_l1(core, line, false);
        self.prefetch(core, line);
        lat
    }

    /// Write: L1 hit is cheap; a miss triggers a background
    /// read-for-ownership charged to the write-back budget.
    fn walk_write(&mut self, core: usize, line: u64) -> Cycles {
        if self.state(core).l1.lookup(line).is_some() {
            self.state(core).l1.mark_dirty(line);
            return u64::from(self.cfg().store_hit_cost);
        }
        let fetch = if self.state(core).l2.lookup(line).is_some() {
            u64::from(self.cfg().l2.latency)
        } else {
            let lat = self.fetch(core, line);
            self.fill_l2(core, line, false);
            self.prefetch(core, line);
            lat
        };
        self.fill_l1(core, line, true);
        // The RFO fill occupies the memory pipeline but the store buffer
        // hides it from the core until the budget saturates (Fig. 5b vs
        // Fig. 6b).
        self.state(core).wb_debt += fetch;
        u64::from(self.cfg().store_miss_cost)
    }

    /// L2-missed fetch: LLC hit latency or DRAM.
    fn fetch(&mut self, core: usize, line: u64) -> Cycles {
        match self.llc_fetch(core, line) {
            Some(s) => self.hop(core, s),
            None => u64::from(self.cfg().dram_latency),
        }
    }

    /// Fills a line into `core`'s L1, spilling the victim to L2. Inlined
    /// into both walks: the L2-hit path runs it on every L1 miss.
    #[inline]
    fn fill_l1(&mut self, core: usize, line: u64, dirty: bool) {
        if let Some(ev) = self.state(core).fill_l1(line, dirty) {
            if ev.dirty && !self.state(core).l2.mark_dirty(ev.line) {
                // Not in L2 (victim-mode L2 may have dropped it):
                // re-insert dirty.
                self.fill_l2(core, ev.line, true);
            }
        }
    }

    /// Fills a line into `core`'s L2, spilling the victim toward the LLC.
    fn fill_l2(&mut self, core: usize, line: u64, dirty: bool) {
        if let Some(ev) = self.state(core).fill_l2(line, dirty) {
            self.spill_l2(core, ev);
        }
    }

    /// Handles an L2 victim per the LLC mode: an inclusive LLC already
    /// holds the line, so only a dirty one reaches it; a victim LLC takes
    /// every L2 victim.
    fn spill_l2(&mut self, core: usize, ev: Evicted) {
        if !ev.dirty && self.cfg().llc_mode == LlcMode::Inclusive {
            return;
        }
        let s = self.slice(ev.line);
        self.llc_l2_victim(core, s, ev.line, ev.dirty);
        if ev.dirty {
            // The dirty write-back occupies the path to the slice.
            let hop = self.hop(core, s);
            self.state(core).wb_debt += hop;
        }
    }

    /// Feeds the streamer with an L2 demand miss and fills candidates.
    fn prefetch(&mut self, core: usize, line: u64) {
        let cfg = self.cfg().prefetch;
        if !cfg.adjacent_line && !cfg.streamer {
            return;
        }
        let cands = self.state(core).streamer.observe(line, &cfg);
        for cand in cands {
            if self.state(core).l2.probe(cand) {
                continue;
            }
            // Prefetch fetches through the LLC like a demand miss, without
            // charging the core.
            self.llc_prefetch(core, cand);
            self.fill_l2(core, cand, false);
        }
    }
}

/// Direct accesses: LLC effects apply to the live LLC at once. The
/// `llc_*` methods are also what [`Machine::replay_llc`] applies a
/// shard's log with.
impl Walk for Machine {
    fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }

    fn state(&mut self, core: usize) -> &mut CoreState {
        &mut self.cores[core]
    }

    fn slice(&self, line: u64) -> usize {
        self.hash.slice_of(PhysAddr(line << 6))
    }

    fn hop(&self, core: usize, slice: usize) -> Cycles {
        u64::from(self.topo.llc_latency(core, slice))
    }

    /// On an LLC miss an inclusive LLC allocates the line.
    fn llc_fetch(&mut self, core: usize, line: u64) -> Option<usize> {
        let s = self.slice(line);
        self.uncore.on_lookup(s);
        if self.llc[s].lookup(line).is_some() {
            return Some(s);
        }
        self.uncore.on_miss(s);
        if self.cfg.llc_mode == LlcMode::Inclusive {
            self.llc_insert(core, s, line, false);
        }
        None
    }

    fn llc_l2_victim(&mut self, core: usize, s: usize, line: u64, dirty: bool) {
        match self.cfg.llc_mode {
            LlcMode::Inclusive => {
                if !self.llc[s].mark_dirty(line) {
                    // Transiently absent (e.g. CAT shuffles): restore.
                    self.llc_insert(core, s, line, true);
                }
            }
            // Skylake: L2 victims (clean or dirty) move into the LLC.
            LlcMode::Victim => self.llc_insert(core, s, line, dirty),
        }
    }

    fn llc_prefetch(&mut self, core: usize, line: u64) {
        let s = self.slice(line);
        self.uncore.on_lookup(s);
        if !self.llc[s].probe(line) {
            self.uncore.on_miss(s);
            if self.cfg.llc_mode == LlcMode::Inclusive {
                self.llc_insert(core, s, line, false);
            }
        } else {
            // Refresh recency in the slice.
            self.llc[s].lookup(line);
        }
    }

    fn mem_read(&self, pa: PhysAddr, buf: &mut [u8]) {
        self.mem.read(pa, buf);
    }

    fn mem_write(&mut self, pa: PhysAddr, data: &[u8]) {
        self.mem.write(pa, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::prefetch::PrefetchConfig;

    fn haswell() -> Machine {
        Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 * 1024 * 1024))
    }

    fn skylake() -> Machine {
        Machine::new(MachineConfig::skylake_gold_6134().with_dram_capacity(64 * 1024 * 1024))
    }

    /// The oracle a machine hands out is its own hash, and for each preset
    /// that hash is the one the preset's CPU has.
    #[test]
    fn slice_oracle_is_the_presets_hash() {
        use crate::hash::{FoldedSliceHash, XorSliceHash};
        let presets: [(Machine, Box<dyn SliceHash>); 2] = [
            (haswell(), Box::new(XorSliceHash::haswell_8slice())),
            (skylake(), Box::new(FoldedSliceHash::skylake_18slice())),
        ];
        for (m, hash) in presets {
            let oracle = m.slice_oracle();
            for line in (0..1u64 << 38).step_by((1 << 20) + 64 * 7) {
                let pa = PhysAddr(line);
                assert_eq!(oracle(pa), m.slice_of(pa));
                assert_eq!(oracle(pa), hash.slice_of(pa));
            }
        }
    }

    /// Fails unless every core's snoop filter equals a recount of what
    /// its L1 and L2 hold.
    fn assert_filters_exact(m: &Machine, step: usize) {
        for (c, st) in m.cores.iter().enumerate() {
            let mut held = vec![0u8; st.held.len()];
            for (line, _) in st.l1.resident_lines().chain(st.l2.resident_lines()) {
                held[st.bucket(line)] += 1;
            }
            assert!(
                held == st.held,
                "core {c}: filter != residency at step {step}"
            );
        }
    }

    /// The snoop filter is exact. Random traces mix core reads and
    /// writes, DMA writes and reads, `clflush` and CAT masks over lines
    /// crowded into four sets of every private cache, so L1, L2 and LLC
    /// victims all occur; each core's counts must match a recount of
    /// its L1 and L2 throughout — on the inclusive Haswell LLC (its
    /// victims back-invalidated) and Skylake's victim LLC, with and
    /// without prefetch, through direct accesses and through epoch
    /// shards whose logs are replayed.
    #[test]
    fn snoop_filter_counts_match_residency() {
        for preset in [
            MachineConfig::haswell_e5_2667_v3,
            MachineConfig::skylake_gold_6134,
        ] {
            for prefetch in [false, true] {
                for sharded in [false, true] {
                    let mut cfg = preset().with_dram_capacity(32 << 20);
                    if prefetch {
                        cfg = cfg.with_prefetch(PrefetchConfig::bios_default());
                    }
                    snoop_filter_trace(Machine::new(cfg), sharded);
                }
            }
        }
    }

    fn snoop_filter_trace(mut m: Machine, sharded: bool) {
        use crate::epoch::CoreMem;
        let r = m.mem_mut().alloc(8 << 20, 1 << 20).unwrap();
        let ways = m.config().llc_slice.ways;
        let mut rng = trafficgen::Rng64::seed_from_u64(0x5900_f117 ^ u64::from(sharded));
        // Bits 8..16 of most offsets cleared: 512 lines in four sets of
        // each private cache and eight sets of each slice.
        let pick = |rng: &mut trafficgen::Rng64| {
            let off = rng.gen_range(0..8usize << 20);
            let crowded = rng.gen_range(0..4u32) != 0;
            r.pa(if crowded { off & !(0xff << 8) } else { off })
        };
        for step in 0..3000 {
            let core = rng.gen_range(0..4usize);
            let pa = pick(&mut rng);
            let len = rng.gen_range(1..=256usize);
            match rng.gen_range(0..16u32) {
                0..=8 if sharded => {
                    // One epoch of two cores, replayed in order.
                    let cores = [core, (core + 1) % 4];
                    let mut shards = m.epoch_shards(&cores);
                    for i in 0..8 {
                        let (c, shard) = (cores[i % 2], &mut shards[i % 2]);
                        let pa = pick(&mut rng);
                        match rng.gen_range(0..3u32) {
                            0 => {
                                shard.touch_read(c, pa);
                            }
                            1 => {
                                shard.touch_write(c, pa);
                            }
                            _ => shard.dma_read(pa, 64),
                        }
                    }
                    let logs: Vec<Vec<LlcOp>> = shards.into_iter().map(|s| s.into_log()).collect();
                    for (&c, log) in cores.iter().zip(&logs) {
                        m.replay_llc(c, log);
                    }
                }
                0..=4 => {
                    m.touch_read(core, pa);
                }
                5..=8 => {
                    m.touch_write(core, pa);
                }
                9..=11 => m.dma_place(pa, len),
                12 => m.dma_read(pa, len),
                13 => {
                    m.clflush(core, pa);
                }
                14 => m.set_cat_mask(core, 1 << rng.gen_range(0..ways)),
                _ => m.clear_cat_mask(core),
            }
            if step % 50 == 0 {
                assert_filters_exact(&m, step);
            }
        }
        assert_filters_exact(&m, 3000);
        let evicted = |c: &SetAssocCache| c.stats().evictions > 0;
        let traced = &m.cores[..4];
        assert!(traced.iter().all(|c| evicted(&c.l1) && evicted(&c.l2)));
        assert!(m.llc.iter().any(evicted), "the trace must evict LLC lines");
    }

    #[test]
    fn read_latencies_follow_the_hierarchy() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        let pa = r.pa(0);
        let dram = m.touch_read(0, pa);
        assert_eq!(dram, 192, "cold read pays DRAM latency");
        let l1 = m.touch_read(0, pa);
        assert_eq!(l1, 4, "hot read hits L1");
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = haswell();
        // 9 lines in the same L1 set (stride = 64 sets * 64 B = 4 KB) so one
        // gets evicted from the 8-way L1 but stays in the 512-set L2.
        let r = m.mem_mut().alloc(1 << 20, 1 << 20).unwrap();
        let lines: Vec<PhysAddr> = (0..9).map(|i| r.pa(i * 4096)).collect();
        for &pa in &lines {
            m.touch_read(0, pa);
        }
        // The first line left L1 (LRU) but is in L2.
        let c = m.touch_read(0, lines[0]);
        assert_eq!(c, 11, "L2 hit");
    }

    #[test]
    fn llc_hit_latency_depends_on_slice_distance() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(32 << 20, 1 << 20).unwrap();
        // Find one line in the closest slice and one in the farthest.
        let near_slice = m.closest_slice(0);
        let far_slice = *m.slices_by_distance(0).last().unwrap();
        let mut near = None;
        let mut far = None;
        for i in 0..100_000 {
            let pa = r.pa(i * 64);
            let s = m.slice_of(pa);
            if s == near_slice && near.is_none() {
                near = Some(pa);
            }
            if s == far_slice && far.is_none() {
                far = Some(pa);
            }
            if near.is_some() && far.is_some() {
                break;
            }
        }
        let (near, far) = (near.unwrap(), far.unwrap());
        // Bring both into LLC only: read once (fills L1/L2/LLC), then evict
        // from the private caches by flushing... simpler: read once, then
        // flush L1/L2 via conflict is fiddly — instead use dma_place which
        // fills the LLC without touching the private caches.
        m.dma_place(near, 64);
        m.dma_place(far, 64);
        let c_near = m.touch_read(0, near);
        let c_far = m.touch_read(0, far);
        assert_eq!(c_near, 34);
        assert_eq!(c_far, 54);
    }

    #[test]
    fn clflush_pushes_line_out_everywhere() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        let pa = r.pa(0);
        m.touch_read(0, pa);
        assert_eq!(m.touch_read(0, pa), 4);
        m.clflush(0, pa);
        assert_eq!(m.touch_read(0, pa), 192, "flushed line misses everywhere");
    }

    #[test]
    fn stores_are_flat_in_small_bursts() {
        // Fig. 5b: per-store visible cost does not depend on the slice.
        let mut m = haswell();
        let r = m.mem_mut().alloc(32 << 20, 1 << 20).unwrap();
        let mut costs = Vec::new();
        for s in 0..8 {
            // A line in slice s.
            let pa = (0..100_000)
                .map(|i| r.pa(i * 64))
                .find(|&pa| m.slice_of(pa) == s)
                .unwrap();
            m.clflush(0, pa);
            m.drain_write_backs(0);
            costs.push(m.touch_write(0, pa));
        }
        assert!(
            costs.iter().all(|&c| c == costs[0]),
            "store cost must be slice-independent in short bursts: {costs:?}"
        );
    }

    #[test]
    fn sustained_stores_saturate_the_write_back_budget() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(32 << 20, 1 << 20).unwrap();
        // Hammer store misses (distinct lines) until the budget saturates.
        let mut last = 0;
        for i in 0..10_000 {
            last = m.touch_write(0, r.pa((i * 64) % (16 << 20)));
        }
        assert!(
            last > u64::from(m.config().store_miss_cost),
            "steady-state store cost must include the backlog stall"
        );
    }

    #[test]
    fn inclusive_llc_eviction_back_invalidates() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(48 << 20, 1 << 20).unwrap();
        // Fill one LLC set (2048-set stride = 128 KB) past 20 ways from
        // core 0; all lines also map to the same L1/L2 sets.
        let target = r.pa(0);
        let target_slice = m.slice_of(target);
        // Collect 21 lines in the same LLC set AND same slice.
        let mut same_set = Vec::new();
        let mut i = 0;
        while same_set.len() < 21 && i < 400 {
            let pa = r.pa(i * 128 * 1024);
            if m.slice_of(pa) == target_slice {
                same_set.push(pa);
            }
            i += 1;
        }
        assert!(same_set.len() >= 21, "need enough conflicting lines");
        for &pa in &same_set[..21] {
            m.touch_read(0, pa);
        }
        // The LRU line of that LLC set was evicted and must have left the
        // private caches as well (inclusivity): re-reading costs DRAM.
        let victim = same_set[0];
        let c = m.touch_read(0, victim);
        assert_eq!(c, 192, "back-invalidated line must miss everywhere");
    }

    #[test]
    fn victim_mode_fills_llc_on_l2_eviction_only() {
        let mut m = skylake();
        let r = m.mem_mut().alloc(16 << 20, 1 << 20).unwrap();
        let pa = r.pa(0);
        let s = m.slice_of(pa);
        m.touch_read(0, pa);
        assert!(
            !m.llc_probe(s, pa),
            "Skylake: a DRAM fill bypasses the LLC (non-inclusive)"
        );
        // Evict it from L2 by filling the same L2 set (1024-set stride =
        // 64 KB) past 16 ways.
        for i in 1..=17 {
            m.touch_read(0, r.pa(i * 64 * 1024));
        }
        assert!(m.llc_probe(s, pa), "L2 victim must have moved into the LLC");
        // And it is still absent from L1/L2, so the next read is an LLC hit
        // at mesh latency.
        let c = m.touch_read(0, pa);
        assert_eq!(c, u64::from(m.llc_latency(0, s)));
    }

    #[test]
    fn ddio_writes_land_in_llc() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(1 << 20, 1 << 20).unwrap();
        let pa = r.pa(0);
        let s = m.slice_of(pa);
        m.dma_write(pa, &[0xab; 64]);
        assert!(m.llc_probe(s, pa));
        // The first core read is an LLC hit, not DRAM (the point of DDIO).
        let c = m.touch_read(0, pa);
        assert_eq!(c, u64::from(m.llc_latency(0, s)));
        let mut b = [0u8; 4];
        m.mem().read(pa, &mut b);
        assert_eq!(b, [0xab; 4]);
    }

    #[test]
    fn ddio_is_limited_to_its_ways() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(64 << 20, 1 << 20).unwrap();
        // DMA many lines of one LLC set of one slice: occupancy of that set
        // must never exceed ddio_ways.
        let target = r.pa(0);
        let slice = m.slice_of(target);
        let set = target.line() & 2047;
        let mut placed = 0;
        for i in 0..400 {
            let pa = r.pa(i * 128 * 1024);
            if m.slice_of(pa) == slice && (pa.line() & 2047) == set {
                m.dma_write(pa, &[1; 64]);
                placed += 1;
            }
        }
        assert!(placed > 2, "need more DMA lines than DDIO ways");
        let resident = (0..400)
            .map(|i| r.pa(i * 128 * 1024))
            .filter(|&pa| {
                m.slice_of(pa) == slice && (pa.line() & 2047) == set && m.llc_probe(slice, pa)
            })
            .count();
        assert_eq!(resident, 2, "DDIO allocates into exactly 2 ways");
    }

    #[test]
    #[ignore = "DDIO victims are not back-invalidated from private caches yet"]
    fn ddio_eviction_keeps_inclusion() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(64 << 20, 1 << 20).unwrap();
        let slice = m.slice_of(r.pa(0));
        // Lines 128 KiB apart share an LLC set; keep those of one slice.
        let same_set: Vec<PhysAddr> = (0..400)
            .map(|i| r.pa(i * 128 * 1024))
            .filter(|&pa| m.slice_of(pa) == slice)
            .take(21)
            .collect();
        assert_eq!(same_set.len(), 21);
        // Core 0 fills the 18 non-DDIO ways; the 19th line lands in DDIO
        // way 18 and stays in core 0's L1 and L2.
        for &pa in &same_set[..19] {
            m.touch_read(0, pa);
        }
        let held = same_set[18];
        // The first DMA line takes the free DDIO way, the second evicts
        // `held`, the older of the two.
        for &pa in &same_set[19..] {
            m.dma_write(pa, &[0; 64]);
        }
        assert!(!m.llc_probe(slice, held), "DDIO evicted the held line");
        assert_eq!(m.check_inclusion(), None);
    }

    #[test]
    fn set_ddio_ways_reprograms_future_placements() {
        let mut m = haswell();
        assert_eq!(m.ddio_ways(), 2, "Haswell config default");
        m.set_ddio_ways(1);
        assert_eq!(m.ddio_ways(), 1);
        let r = m.mem_mut().alloc(64 << 20, 1 << 20).unwrap();
        let target = r.pa(0);
        let slice = m.slice_of(target);
        let set = target.line() & 2047;
        let mut placed = 0;
        for i in 0..400 {
            let pa = r.pa(i * 128 * 1024);
            if m.slice_of(pa) == slice && (pa.line() & 2047) == set {
                m.dma_write(pa, &[1; 64]);
                placed += 1;
            }
        }
        assert!(placed > 1, "need more DMA lines than DDIO ways");
        let resident = (0..400)
            .map(|i| r.pa(i * 128 * 1024))
            .filter(|&pa| {
                m.slice_of(pa) == slice && (pa.line() & 2047) == set && m.llc_probe(slice, pa)
            })
            .count();
        assert_eq!(resident, 1, "shrunk DDIO allocates into exactly 1 way");
        // Clamped to the associativity; 0 never empties the mask.
        m.set_ddio_ways(999);
        assert_eq!(m.ddio_ways(), m.config().llc_slice.ways);
        m.set_ddio_ways(0);
        assert_eq!(m.ddio_ways(), 1);
    }

    #[test]
    fn cat_mask_restricts_core_allocations() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(64 << 20, 1 << 20).unwrap();
        m.set_cat_mask(0, 0b11); // Core 0 may only use ways 0-1.
        let target = r.pa(0);
        let slice = m.slice_of(target);
        let set = target.line() & 2047;
        let mut placed = Vec::new();
        for i in 0..400 {
            let pa = r.pa(i * 128 * 1024);
            if m.slice_of(pa) == slice && (pa.line() & 2047) == set {
                m.touch_read(0, pa);
                placed.push(pa);
            }
        }
        assert!(placed.len() > 4);
        let resident = placed.iter().filter(|&&pa| m.llc_probe(slice, pa)).count();
        assert_eq!(resident, 2, "CAT limits core 0 to 2 ways in that set");
    }

    #[test]
    fn uncore_counts_lookups_per_slice() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(1 << 20, 1 << 20).unwrap();
        let pa = r.pa(0);
        let s = m.slice_of(pa);
        m.uncore_mut().reset();
        // Polling loop: flush + read => every read is an LLC lookup.
        for _ in 0..100 {
            m.clflush(0, pa);
            m.touch_read(0, pa);
        }
        assert_eq!(m.uncore().busiest_slice(), s);
        assert!(m.uncore().read(s) >= 100);
    }

    #[test]
    fn prefetcher_pulls_adjacent_line() {
        let cfg = MachineConfig::haswell_e5_2667_v3()
            .with_dram_capacity(1 << 20)
            .with_prefetch(PrefetchConfig {
                adjacent_line: true,
                streamer: false,
                stream_depth: 0,
            });
        let mut m = Machine::new(cfg);
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        m.touch_read(0, r.pa(0));
        // The buddy line was prefetched into L2: reading it now is an L2
        // hit, not a DRAM access.
        let c = m.touch_read(0, r.pa(64));
        assert_eq!(c, 11);
    }

    #[test]
    fn clock_advances_with_work() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        assert_eq!(m.now(0), 0);
        let c = m.touch_read(0, r.pa(0));
        assert_eq!(m.now(0), c);
        m.advance(0, 100);
        assert_eq!(m.now(0), c + 100);
        m.reset_clocks();
        assert_eq!(m.now(0), 0);
    }

    #[test]
    fn data_roundtrip_is_timed() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        let w = m.write_bytes(0, r.pa(10), &[9, 8, 7]);
        assert!(w > 0);
        let mut buf = [0u8; 3];
        let c = m.read_bytes(0, r.pa(10), &mut buf);
        assert_eq!(buf, [9, 8, 7]);
        assert!(c > 0);
        let (v, _) = m.read_u64(0, r.pa(64));
        assert_eq!(v, 0);
        m.write_u64(0, r.pa(64), 0x1234);
        assert_eq!(m.read_u64(0, r.pa(64)).0, 0x1234);
    }

    #[test]
    fn cross_line_read_touches_both_lines() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        let mut buf = [0u8; 16];
        // Spans the line boundary at offset 64.
        let c = m.read_bytes(0, r.pa(56), &mut buf);
        assert_eq!(c, 192 * 2, "two cold lines, two DRAM accesses");
    }

    #[test]
    #[should_panic(expected = "CAT mask selects no LLC way")]
    fn cat_mask_must_overlap_ways() {
        let mut m = haswell();
        m.set_cat_mask(0, 1 << 63);
    }

    #[test]
    fn drain_write_backs_charges_the_backlog() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(16 << 20, 1 << 20).unwrap();
        // Build a backlog below the stall threshold.
        for i in 0..4 {
            m.touch_write(0, r.pa(i * 64));
        }
        let before = m.now(0);
        m.drain_write_backs(0);
        let drained = m.now(0) - before;
        assert!(drained > 0, "pending RFO fills must be waited out");
        // Draining twice is idempotent.
        let before = m.now(0);
        m.drain_write_backs(0);
        assert_eq!(m.now(0), before);
    }

    #[test]
    fn non_memory_work_drains_the_backlog() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(16 << 20, 1 << 20).unwrap();
        m.touch_write(0, r.pa(0)); // Backlog: one DRAM RFO (192 cycles).
                                   // Enough ALU work for the fill to retire in the background.
        m.advance(0, 500);
        let before = m.now(0);
        m.drain_write_backs(0);
        assert_eq!(m.now(0), before, "backlog already drained by advance");
    }

    #[test]
    fn clear_cat_mask_restores_full_associativity() {
        let mut m = haswell();
        let r = m.mem_mut().alloc(64 << 20, 1 << 20).unwrap();
        m.set_cat_mask(0, 0b1);
        m.clear_cat_mask(0);
        // With the mask cleared, a set accepts the full 20 ways again.
        let target = r.pa(0);
        let slice = m.slice_of(target);
        let set = target.line() & 2047;
        let mut placed = 0;
        for i in 0..400 {
            let pa = r.pa(i * 128 * 1024);
            if m.slice_of(pa) == slice && (pa.line() & 2047) == set {
                m.touch_read(0, pa);
                placed += 1;
                if placed == 20 {
                    break;
                }
            }
        }
        let resident = (0..400)
            .map(|i| r.pa(i * 128 * 1024))
            .filter(|&pa| {
                m.slice_of(pa) == slice && (pa.line() & 2047) == set && m.llc_probe(slice, pa)
            })
            .count();
        assert_eq!(resident, placed.min(20));
    }

    #[test]
    fn victim_mode_dirty_llc_eviction_is_safe() {
        // Fill a Skylake LLC set past its 11 ways with dirty lines and
        // verify state stays consistent (dirty victims drain to DRAM).
        let mut m = skylake();
        let r = m.mem_mut().alloc(64 << 20, 1 << 20).unwrap();
        for i in 0..60 {
            let pa = r.pa(i * 64 * 1024);
            m.touch_write(0, pa);
        }
        // Force everything through L2 into the LLC.
        for i in 60..120 {
            m.touch_read(0, r.pa(i * 64 * 1024));
        }
        assert_eq!(
            m.check_inclusion(),
            None,
            "victim mode has no invariant to break"
        );
        // All data still readable.
        let (v, _) = m.read_u64(0, r.pa(0));
        assert_eq!(v, 0);
    }
}
