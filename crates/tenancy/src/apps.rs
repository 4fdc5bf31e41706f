//! The per-worker tenant applications and the phased noisy-neighbour
//! arrival process.
//!
//! Three tenant kinds share the engine:
//!
//! * [`TenantKind::Kvs`] — a memcached-style instance: each request is
//!   parsed and served through [`kvs::server::serve_packet`] against
//!   the tenant's own store, preceded by an index hash-chain walk over
//!   the tenant's *pressure set* (below).
//! * [`TenantKind::Nfv`] — a forwarding chain:
//!   [`nfv::packet::parse_header`], a flow-state walk over its pressure
//!   set, then TTL decrement and MAC swap.
//! * [`TenantKind::Antagonist`] — the noisy neighbour: minimal
//!   per-packet work plus a streaming read over a large private buffer
//!   (every read a fresh line → a DRAM fetch and an LLC fill). Its
//!   *damage* does not come from these reads — CAT confines them — but
//!   from its arrival rate: every accepted frame is DMA-placed through
//!   DDIO into the shared I/O ways, washing whatever victim lines live
//!   there. The storm windows come from [`PhasedGaps`].
//!
//! # Pressure sets
//!
//! A tenant's cache hunger is modelled the way the paper builds its
//! eviction sets (§3): a fixed population of lines that all map to
//! *one LLC set index* (one set per slice, `depth` lines deep in each
//! of the 8 slices), accessed in uniform-random order. Random order —
//! not a cyclic sweep — matters: LRU plus a cyclic sweep is a cliff
//! (one foreign insertion makes every later access miss forever),
//! while random access degrades smoothly with the ways actually
//! available, which is the signal a latency controller can steer on.
//! Because all lines share a set index, "fits" is decided by the
//! tenant's CAT way count alone, so a one-way grant moves the needle
//! within a couple of control epochs instead of after megabytes of
//! refills.

use engine::{Ctx, QueueApp, Verdict};
use kvs::server::serve_packet;
use kvs::store::KvStore;
use llc_sim::{PhysAddr, CACHE_LINE};
use rte::nic::{RxCompletion, TxDesc};
use trafficgen::PhaseSchedule;

/// Which service a worker runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TenantKind {
    /// KVS instance (uses the shared per-tenant store).
    Kvs,
    /// NFV forwarding chain.
    Nfv,
    /// Cache-thrashing noisy neighbour.
    Antagonist,
}

/// One worker's application state. Workers of the same tenant share
/// the tenant's pressure-set *addresses* (cloned, read-only) but own
/// their RNG, so the combined reference stream is deterministic.
pub(crate) struct TenantApp<'s> {
    /// Owning tenant id.
    pub(crate) tenant: usize,
    /// Service kind.
    pub(crate) kind: TenantKind,
    /// The tenant's store (KVS workers only).
    pub(crate) store: Option<&'s KvStore>,
    /// The tenant's pressure-set lines (empty for the antagonist).
    pub(crate) pressure: Vec<PhysAddr>,
    /// Pressure reads per packet.
    pub(crate) reads_per_packet: usize,
    /// Streaming-thrash region `(base, lines, cursor)` (antagonist).
    pub(crate) thrash: Option<(PhysAddr, u64, u64)>,
    /// Thrash reads per packet.
    pub(crate) thrash_per_packet: usize,
    /// xorshift64 state for the random pressure walk.
    pub(crate) rng: u64,
    /// Sojourn latency (serve completion − offer time, ns) of every
    /// served frame, in processing order — drained by the control step.
    pub(crate) latencies: Vec<f64>,
    /// Frames that produced a response.
    pub(crate) served_ok: u64,
}

impl TenantApp<'_> {
    fn next_rand(&mut self) -> u64 {
        // xorshift64: cheap, full-period, deterministic.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// The random pressure-set walk (the tenant's index/flow-state
    /// lookups): `reads_per_packet` dependent loads over the set.
    fn pressure_walk(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.reads_per_packet {
            let i = (self.next_rand() % self.pressure.len() as u64) as usize;
            let pa = self.pressure[i];
            ctx.m.touch_read(ctx.core, pa);
        }
    }
}

impl QueueApp for TenantApp<'_> {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, comp: &RxCompletion) -> Verdict {
        let (hdr, _) = nfv::packet::parse_header(ctx.m, ctx.core, comp.data_pa, comp.len.into());
        if hdr.is_none() {
            return Verdict::Drop;
        }
        if !self.pressure.is_empty() {
            self.pressure_walk(ctx);
        }
        let verdict = match self.kind {
            TenantKind::Kvs => {
                let store = self.store.expect("a KVS tenant carries its store");
                serve_packet(store, None, ctx, comp).0.verdict(comp)
            }
            TenantKind::Nfv => {
                nfv::packet::decrement_ttl(ctx.m, ctx.core, comp.data_pa);
                nfv::packet::mac_swap(ctx.m, ctx.core, comp.data_pa);
                Verdict::Tx(TxDesc::echo(comp))
            }
            TenantKind::Antagonist => {
                if let Some((base, lines, cursor)) = self.thrash.as_mut() {
                    // Streaming reads: every line fresh, every one a
                    // fill — confined to the antagonist's CAT ways.
                    for _ in 0..self.thrash_per_packet {
                        let pa = base.add(*cursor * CACHE_LINE as u64);
                        ctx.m.touch_read(ctx.core, pa);
                        *cursor = (*cursor + 1) % *lines;
                    }
                }
                nfv::packet::mac_swap(ctx.m, ctx.core, comp.data_pa);
                Verdict::Tx(TxDesc::echo(comp))
            }
        };
        if matches!(verdict, Verdict::Tx(_)) {
            self.served_ok += 1;
            self.latencies.push(ctx.wall_ns() - comp.arrival_ns);
        }
        verdict
    }
}

/// The noisy neighbour's arrival process: a constant-gap stream whose
/// gap switches with the phase of a [`trafficgen::PhaseSchedule`]
/// (indexed by arrival count, so the storm windows are a deterministic
/// function of the schedule alone). Quiet phases trickle; storm phases
/// arrive at near line rate, and every *accepted* storm frame is a
/// DDIO fill — that is the chaos injection.
#[derive(Debug, Clone)]
pub(crate) struct PhasedGaps {
    sched: PhaseSchedule,
    /// Inter-arrival gap (ns) per schedule phase index.
    gaps: Vec<f64>,
    idx: u64,
    t_ns: f64,
}

impl PhasedGaps {
    /// Gaps `gaps_ns[p]` for arrivals falling in schedule phase `p`.
    ///
    /// # Panics
    ///
    /// Panics when the gap list does not match the schedule's phase
    /// count or a gap is not positive.
    pub(crate) fn new(sched: PhaseSchedule, gaps_ns: Vec<f64>) -> Self {
        assert_eq!(sched.phases().len(), gaps_ns.len(), "one gap per phase");
        assert!(gaps_ns.iter().all(|&g| g > 0.0 && g.is_finite()));
        Self {
            sched,
            gaps: gaps_ns,
            idx: 0,
            t_ns: 0.0,
        }
    }

    /// The time of the next arrival without consuming it.
    pub(crate) fn peek_next_ns(&self) -> f64 {
        self.t_ns + self.gaps[self.sched.phase_at(self.idx)]
    }

    /// Consumes and returns the next arrival time.
    pub(crate) fn next_arrival_ns(&mut self) -> f64 {
        self.t_ns = self.peek_next_ns();
        self.idx += 1;
        self.t_ns
    }
}
