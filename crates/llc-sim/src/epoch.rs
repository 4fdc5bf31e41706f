//! Epoch-parallel execution support: per-core machine shards that can run
//! on OS threads and merge back deterministically.
//!
//! The event engine (crates/engine) steps per-core run-to-completion
//! workers under one simulated clock. To execute those workers on real
//! threads *without* changing any simulated result, this module splits a
//! [`Machine`] into disjoint per-core [`EpochShard`]s for the duration of
//! one **epoch**:
//!
//! * Private state (L1, L2, core clock, write-back debt, streamer) is
//!   `&mut`-borrowed per core — fully owned by the shard.
//! * The shared LLC is **frozen**: shards only [`SetAssocCache::probe`] it
//!   (non-mutating) to decide hit/miss *latencies*, and append every
//!   would-be LLC interaction to a per-shard [`LlcOp`] event log.
//! * Physical memory is shared through [`SharedMem`], a raw-pointer view;
//!   soundness rests on the engine's partitioning (per-queue mbufs,
//!   per-shard application data, read-only shared tables), which keeps
//!   concurrent *writes* disjoint.
//!
//! A shard walks its core's caches with the same code as a direct
//! [`Machine`] access (the crate-internal `Walk` of [`crate::hierarchy`]).
//! The one difference between the two is when LLC effects apply: a direct
//! access applies them at once, a shard logs them for the merge.
//!
//! After the epoch, the coordinator replays every shard's log through
//! [`Machine::replay_llc`] in a canonical worker order. Replay decisions
//! (insert vs. refresh, victim choice, uncore counters) are made against
//! the *live* LLC at replay time, so the merged machine state is exactly
//! what a serial execution of the same per-core traces — with LLC effects
//! applied at epoch granularity — would produce. Both the serial and the
//! parallel engine run this same shard+replay algorithm, which is what
//! makes their results bit-identical by construction.
//!
//! Fidelity note: within one epoch a core does not observe other cores'
//! LLC fills (and re-misses lines its own L2 evicted mid-epoch). This is
//! a deterministic, bounded coarsening of LLC timing — identical in both
//! execution modes — and collapses to the exact original model when each
//! epoch contains a single access (verified by tests below).

use crate::addr::{split_lines, PhysAddr};
use crate::cache::SetAssocCache;
use crate::hash::{MachineHash, SliceHash};
use crate::hierarchy::{AccessKind, CoreState, Cycles, Machine, Walk};
use crate::machine::MachineConfig;
use crate::mem::PhysMem;
use crate::topology::Interconnect;

/// Timed per-core memory operations — the worker-side subset of
/// [`Machine`]'s interface, implemented both by `Machine` itself (serial
/// direct execution, e.g. in unit tests and coordinator-side code) and by
/// [`EpochShard`] (epoch execution). Application and driver code that
/// runs inside an engine worker is written against `&mut dyn CoreMem`.
pub trait CoreMem {
    /// The machine's configuration.
    fn config(&self) -> &MachineConfig;
    /// Current cycle clock of `core`.
    fn now(&self, core: usize) -> u64;
    /// Advances `core`'s clock by `cycles` of non-memory work.
    fn advance(&mut self, core: usize, cycles: Cycles);
    /// Timed load of the line containing `pa` (no data movement).
    fn touch_read(&mut self, core: usize, pa: PhysAddr) -> Cycles;
    /// Timed store to the line containing `pa` (no data movement).
    fn touch_write(&mut self, core: usize, pa: PhysAddr) -> Cycles;
    /// Timed load of `buf.len()` bytes at `pa` into `buf`.
    fn read_bytes(&mut self, core: usize, pa: PhysAddr, buf: &mut [u8]) -> Cycles;
    /// Timed store of `data` at `pa`.
    fn write_bytes(&mut self, core: usize, pa: PhysAddr, data: &[u8]) -> Cycles;
    /// Device DMA read (NIC TX) of `len` bytes at `pa`: the LLC side
    /// only, no data moves.
    fn dma_read(&mut self, pa: PhysAddr, len: usize);
    /// The slice Complex Addressing maps `pa` to.
    fn slice_of(&self, pa: PhysAddr) -> usize;
    /// The cheapest slice for `core`.
    fn closest_slice(&self, core: usize) -> usize;
    /// LLC hit latency from `core` to `slice`.
    fn llc_latency(&self, core: usize, slice: usize) -> u32;

    /// Timed load of a little-endian `u64`.
    fn read_u64(&mut self, core: usize, pa: PhysAddr) -> (u64, Cycles) {
        let mut b = [0u8; 8];
        let c = self.read_bytes(core, pa, &mut b);
        (u64::from_le_bytes(b), c)
    }

    /// Timed store of a little-endian `u64`.
    fn write_u64(&mut self, core: usize, pa: PhysAddr, v: u64) -> Cycles {
        self.write_bytes(core, pa, &v.to_le_bytes())
    }
}

impl CoreMem for Machine {
    fn config(&self) -> &MachineConfig {
        Machine::config(self)
    }
    fn now(&self, core: usize) -> u64 {
        Machine::now(self, core)
    }
    fn advance(&mut self, core: usize, cycles: Cycles) {
        Machine::advance(self, core, cycles);
    }
    fn touch_read(&mut self, core: usize, pa: PhysAddr) -> Cycles {
        Machine::touch_read(self, core, pa)
    }
    fn touch_write(&mut self, core: usize, pa: PhysAddr) -> Cycles {
        Machine::touch_write(self, core, pa)
    }
    fn read_bytes(&mut self, core: usize, pa: PhysAddr, buf: &mut [u8]) -> Cycles {
        Machine::read_bytes(self, core, pa, buf)
    }
    fn write_bytes(&mut self, core: usize, pa: PhysAddr, data: &[u8]) -> Cycles {
        Machine::write_bytes(self, core, pa, data)
    }
    fn dma_read(&mut self, pa: PhysAddr, len: usize) {
        Machine::dma_read(self, pa, len);
    }
    fn slice_of(&self, pa: PhysAddr) -> usize {
        Machine::slice_of(self, pa)
    }
    fn closest_slice(&self, core: usize) -> usize {
        Machine::closest_slice(self, core)
    }
    fn llc_latency(&self, core: usize, slice: usize) -> u32 {
        Machine::llc_latency(self, core, slice)
    }
}

/// One deferred LLC interaction recorded by a shard, replayed at merge.
///
/// The log records *what the core did*, not what the frozen LLC answered:
/// replay re-decides hit/miss/insert against the live LLC, so state and
/// uncore counters always reflect replay-time truth in canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlcOp {
    /// An L2-missed demand fetch (read or RFO) of `line`.
    Fetch {
        /// The fetched line number.
        line: u64,
    },
    /// An L2 victim headed toward the LLC.
    L2Evict {
        /// The evicted line number.
        line: u64,
        /// Whether it held modified data.
        dirty: bool,
    },
    /// A hardware-prefetch candidate fetched through the LLC.
    Prefetch {
        /// The prefetched line number.
        line: u64,
    },
    /// A device DMA read touching `line` (uncore lookup only).
    DmaProbe {
        /// The probed line number.
        line: u64,
    },
}

/// A raw-pointer view of [`PhysMem`]'s byte store, shareable across the
/// shards of one epoch.
///
/// # Safety contract
///
/// Shards of the same epoch may run concurrently. The caller of
/// [`Machine::epoch_shards`] must guarantee that concurrently running
/// shards never write a byte range another shard accesses in the same
/// epoch (reads may overlap freely). The event engine enforces this by
/// construction: each worker owns its queue's mbufs and its application
/// shard, and cross-worker data (lookup tables, indexes) is read-only
/// during an epoch.
#[derive(Clone, Copy)]
pub(crate) struct SharedMem {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: see the struct-level contract — disjoint-write access is
// guaranteed by the epoch partitioning of the caller.
unsafe impl Send for SharedMem {}

impl SharedMem {
    pub(crate) fn new(mem: &mut PhysMem) -> Self {
        let bytes = mem.raw_bytes_mut();
        Self {
            ptr: bytes.as_mut_ptr(),
            len: bytes.len(),
        }
    }

    fn read(&self, pa: PhysAddr, buf: &mut [u8]) {
        let s = pa.raw() as usize;
        assert!(
            s.checked_add(buf.len()).is_some_and(|e| e <= self.len),
            "read outside the physical space"
        );
        // SAFETY: bounds checked above; liveness is guaranteed because the
        // shard's lifetime keeps the whole Machine mutably borrowed.
        unsafe { std::ptr::copy_nonoverlapping(self.ptr.add(s), buf.as_mut_ptr(), buf.len()) }
    }

    fn write(&self, pa: PhysAddr, data: &[u8]) {
        let s = pa.raw() as usize;
        assert!(
            s.checked_add(data.len()).is_some_and(|e| e <= self.len),
            "write outside the physical space"
        );
        // SAFETY: bounds checked above; disjointness of concurrent writes
        // is the caller's contract (see struct docs).
        unsafe { std::ptr::copy_nonoverlapping(data.as_ptr(), self.ptr.add(s), data.len()) }
    }
}

/// A per-core slice of the machine, live for one epoch.
///
/// Implements [`CoreMem`] with the walk of a direct [`Machine`] access,
/// except that LLC *state* transitions are deferred to the epoch merge
/// (see the module docs). Obtained from [`Machine::epoch_shards`] or,
/// one at a time, from [`Machine::epoch_shard`];
/// dissolves into its event log via [`EpochShard::into_log`].
pub struct EpochShard<'a> {
    core: usize,
    cfg: &'a MachineConfig,
    hash: &'a MachineHash,
    topo: &'a dyn Interconnect,
    /// Frozen LLC slices: probe-only.
    llc: &'a [SetAssocCache],
    mem: SharedMem,
    /// The core's L1, L2, clock, write-back debt and streamer.
    st: &'a mut CoreState,
    log: Vec<LlcOp>,
}

// Compile-time guarantee that shards may cross thread boundaries.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<EpochShard<'_>>();
    assert_send::<LlcOp>();
    assert_send::<SharedMem>();
};

impl<'a> EpochShard<'a> {
    pub(crate) fn new(
        core: usize,
        cfg: &'a MachineConfig,
        hash: &'a MachineHash,
        topo: &'a dyn Interconnect,
        llc: &'a [SetAssocCache],
        mem: SharedMem,
        st: &'a mut CoreState,
    ) -> Self {
        Self {
            core,
            cfg,
            hash,
            topo,
            llc,
            mem,
            st,
            log: Vec::new(),
        }
    }

    /// The core this shard owns.
    pub(crate) fn core(&self) -> usize {
        self.core
    }

    /// Gives the shard `log`, emptied, to record its deferred-LLC events
    /// in: a caller that runs epoch after epoch hands each shard the
    /// buffer [`EpochShard::into_log`] returned the last time, so logs
    /// stop growing from empty every epoch.
    ///
    /// # Panics
    ///
    /// Panics when the shard has logged an event already.
    pub fn reuse_log(&mut self, mut log: Vec<LlcOp>) {
        assert!(self.log.is_empty(), "the shard has logged already");
        log.clear();
        self.log = log;
    }

    /// Dissolves the shard into its deferred-LLC event log, to be fed to
    /// [`Machine::replay_llc`] for this shard's core.
    pub fn into_log(self) -> Vec<LlcOp> {
        self.log
    }
}

/// The shard's side of the shared walk: LLC interactions are timed
/// against the frozen LLC and logged for [`Machine::replay_llc`]. A shard
/// owns one core, so the `core` arguments are always its own.
impl Walk for EpochShard<'_> {
    fn cfg(&self) -> &MachineConfig {
        self.cfg
    }
    fn state(&mut self, _core: usize) -> &mut CoreState {
        self.st
    }
    fn slice(&self, line: u64) -> usize {
        self.hash.slice_of(PhysAddr(line << 6))
    }
    fn hop(&self, core: usize, slice: usize) -> Cycles {
        u64::from(self.topo.llc_latency(core, slice))
    }
    fn llc_fetch(&mut self, _core: usize, line: u64) -> Option<usize> {
        self.log.push(LlcOp::Fetch { line });
        let s = self.slice(line);
        self.llc[s].probe(line).then_some(s)
    }
    fn llc_l2_victim(&mut self, _core: usize, _slice: usize, line: u64, dirty: bool) {
        self.log.push(LlcOp::L2Evict { line, dirty });
    }
    fn llc_prefetch(&mut self, _core: usize, line: u64) {
        self.log.push(LlcOp::Prefetch { line });
    }
    fn mem_read(&self, pa: PhysAddr, buf: &mut [u8]) {
        self.mem.read(pa, buf);
    }
    fn mem_write(&mut self, pa: PhysAddr, data: &[u8]) {
        self.mem.write(pa, data);
    }
}

impl CoreMem for EpochShard<'_> {
    fn config(&self) -> &MachineConfig {
        self.cfg
    }

    fn now(&self, core: usize) -> u64 {
        debug_assert_eq!(core, self.core, "shard asked about a foreign core");
        self.st.clock
    }

    fn advance(&mut self, core: usize, cycles: Cycles) {
        debug_assert_eq!(core, self.core, "shard asked about a foreign core");
        self.work(core, cycles);
    }

    fn touch_read(&mut self, core: usize, pa: PhysAddr) -> Cycles {
        debug_assert_eq!(core, self.core, "shard asked about a foreign core");
        self.access(core, pa.line(), AccessKind::Read)
    }

    fn touch_write(&mut self, core: usize, pa: PhysAddr) -> Cycles {
        debug_assert_eq!(core, self.core, "shard asked about a foreign core");
        self.access(core, pa.line(), AccessKind::Write)
    }

    fn read_bytes(&mut self, core: usize, pa: PhysAddr, buf: &mut [u8]) -> Cycles {
        debug_assert_eq!(core, self.core, "shard asked about a foreign core");
        self.load(core, pa, buf)
    }

    fn write_bytes(&mut self, core: usize, pa: PhysAddr, data: &[u8]) -> Cycles {
        debug_assert_eq!(core, self.core, "shard asked about a foreign core");
        self.store(core, pa, data)
    }

    fn dma_read(&mut self, pa: PhysAddr, len: usize) {
        for (base, _, _) in split_lines(pa, len) {
            self.log.push(LlcOp::DmaProbe { line: base.line() });
        }
    }

    fn slice_of(&self, pa: PhysAddr) -> usize {
        self.hash.slice_of(pa)
    }

    fn closest_slice(&self, core: usize) -> usize {
        self.topo.closest_slice(core)
    }

    fn llc_latency(&self, core: usize, slice: usize) -> u32 {
        self.topo.llc_latency(core, slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::prefetch::PrefetchConfig;

    /// Tiny deterministic generator for access traces.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    fn fresh(cfg: MachineConfig, prefetch: bool) -> Machine {
        let mut cfg = cfg.with_dram_capacity(32 << 20);
        if prefetch {
            cfg = cfg.with_prefetch(PrefetchConfig::bios_default());
        }
        Machine::new(cfg)
    }

    #[derive(Clone, Copy)]
    enum Op {
        Read(u64, usize),
        Write(u64, usize),
        Advance(u64),
        DmaRead(u64, usize),
    }

    /// Offset mask of a crowded trace: bits 8..18 cleared, so its lines
    /// fall into four sets of every private cache and L1 and L2 victims,
    /// clean and dirty, occur within a short trace.
    const CROWDED: u64 = !(0x3ff << 8);

    /// `n` random ops over `span` bytes; `mask` selects offset bits.
    fn trace(seed: u64, n: usize, span: u64, cores: usize, mask: u64) -> Vec<(usize, Op)> {
        let mut rng = Lcg(seed);
        (0..n)
            .map(|_| {
                let core = (rng.next() as usize) % cores;
                let off = (rng.next() % span) & mask & !7;
                let len = 1 + (rng.next() as usize % 64);
                let op = match rng.next() % 10 {
                    0..=3 => Op::Read(off, len),
                    4..=7 => Op::Write(off, len),
                    8 => Op::Advance(rng.next() % 300),
                    _ => Op::DmaRead(off, len),
                };
                (core, op)
            })
            .collect()
    }

    /// Applies `op` through the worker-side interface, to a machine
    /// directly or to a shard.
    fn apply(m: &mut dyn CoreMem, base: PhysAddr, core: usize, op: Op) -> u64 {
        match op {
            Op::Read(off, len) => {
                let mut buf = vec![0u8; len];
                m.read_bytes(core, base.add(off), &mut buf)
            }
            Op::Write(off, len) => {
                let data = vec![core as u8 + 1; len];
                m.write_bytes(core, base.add(off), &data)
            }
            Op::Advance(c) => {
                m.advance(core, c);
                0
            }
            Op::DmaRead(off, len) => {
                m.dma_read(base.add(off), len);
                0
            }
        }
    }

    fn snapshot(
        m: &Machine,
    ) -> (
        Vec<u64>,
        Vec<crate::cache::CacheStats>,
        Vec<usize>,
        Vec<u64>,
    ) {
        let cores = m.config().cores;
        let slices = m.config().slices;
        (
            (0..cores).map(|c| m.now(c)).collect(),
            (0..slices).map(|s| m.llc_stats(s)).collect(),
            (0..slices).map(|s| m.llc_occupancy(s)).collect(),
            m.uncore().read_all(),
        )
    }

    /// With one access per epoch, shard + replay is *exactly* the serial
    /// machine: same per-op cycles, same clocks, same LLC state and
    /// counters. This pins the replay semantics to the reference model,
    /// on the inclusive Haswell LLC and on Skylake's victim-mode LLC.
    #[test]
    fn single_access_epochs_match_direct_execution_exactly() {
        let presets = [
            MachineConfig::haswell_e5_2667_v3,
            MachineConfig::skylake_gold_6134,
        ];
        for preset in presets {
            for prefetch in [false, true] {
                for mask in [u64::MAX, CROWDED] {
                    single_access_epochs_match_direct_execution(preset(), prefetch, mask);
                }
            }
        }
    }

    fn single_access_epochs_match_direct_execution(cfg: MachineConfig, prefetch: bool, mask: u64) {
        let mut a = fresh(cfg.clone(), prefetch);
        let mut b = fresh(cfg, prefetch);
        let ra = a.mem_mut().alloc(8 << 20, 1 << 20).unwrap();
        let rb = b.mem_mut().alloc(8 << 20, 1 << 20).unwrap();
        assert_eq!(ra.base(), rb.base(), "identical layouts expected");
        let mut l2_victims = 0;
        for (core, op) in trace(0xfeed, 1500, (8 << 20) - 64, 2, mask) {
            let ca = apply(&mut a, ra.base(), core, op);
            let cb = {
                let mut shards = b.epoch_shards(&[core]);
                let c = apply(&mut shards[0], rb.base(), core, op);
                let log = shards.pop().unwrap().into_log();
                drop(shards);
                l2_victims += log
                    .iter()
                    .filter(|op| matches!(op, LlcOp::L2Evict { .. }))
                    .count();
                b.replay_llc(core, &log);
                c
            };
            assert_eq!(ca, cb, "per-op cycle cost must match the reference");
        }
        assert!(
            mask != CROWDED || l2_victims > 0,
            "a crowded trace must send L2 victims to the LLC"
        );
        assert_eq!(snapshot(&a), snapshot(&b));
        assert_eq!(a.check_inclusion(), None);
        assert_eq!(b.check_inclusion(), None);
        // Data is coherent: both machines hold the same bytes.
        assert_eq!(
            a.mem().slice(ra.base(), 1 << 20),
            b.mem().slice(rb.base(), 1 << 20)
        );
    }

    /// Multi-access epochs over two cores: running the two shards inline
    /// vs. on real threads yields byte-identical machines, and repeats are
    /// self-deterministic.
    #[test]
    fn threaded_epochs_match_inline_epochs() {
        let build = |threaded: bool| {
            let mut m = fresh(MachineConfig::haswell_e5_2667_v3(), true);
            let r = m.mem_mut().alloc(8 << 20, 1 << 20).unwrap();
            // Disjoint per-core working sets (the engine's contract).
            let spans = [(0u64, 4 << 20), (4 << 20, 4 << 20)];
            for epoch in 0..40u64 {
                let mut shards = m.epoch_shards(&[0, 1]);
                let (s0, rest) = shards.split_at_mut(1);
                let (s1, _) = rest.split_at_mut(1);
                let run = |s: &mut EpochShard<'_>, core: usize| {
                    let (lo, span) = spans[core];
                    for (c, op) in trace(epoch * 7 + core as u64, 40, span - 64, 1, u64::MAX) {
                        debug_assert_eq!(c, 0);
                        apply(s, r.base().add(lo), core, op);
                    }
                };
                if threaded {
                    std::thread::scope(|scope| {
                        scope.spawn(|| run(&mut s0[0], 0));
                        scope.spawn(|| run(&mut s1[0], 1));
                    });
                } else {
                    run(&mut s0[0], 0);
                    run(&mut s1[0], 1);
                }
                let logs: Vec<_> = shards.drain(..).map(|s| s.into_log()).collect();
                drop(shards);
                for (core, log) in logs.iter().enumerate() {
                    m.replay_llc(core, log);
                }
            }
            assert_eq!(m.check_inclusion(), None);
            let snap = snapshot(&m);
            let bytes = m.mem().slice(r.base(), 8 << 20).to_vec();
            (snap, bytes)
        };
        let inline_1 = build(false);
        let inline_2 = build(false);
        let threaded_1 = build(true);
        let threaded_2 = build(true);
        assert_eq!(inline_1, inline_2, "inline epochs must be deterministic");
        assert_eq!(
            threaded_1, threaded_2,
            "threaded epochs must be deterministic"
        );
        assert_eq!(inline_1, threaded_1, "threads must not change any result");
    }

    #[test]
    #[should_panic(expected = "requested twice")]
    fn duplicate_cores_are_rejected() {
        let mut m = fresh(MachineConfig::haswell_e5_2667_v3(), false);
        let _ = m.epoch_shards(&[1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_core_is_rejected() {
        let mut m = fresh(MachineConfig::haswell_e5_2667_v3(), false);
        let _ = m.epoch_shards(&[99]);
    }
}
