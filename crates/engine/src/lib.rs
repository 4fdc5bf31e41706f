//! The unified multi-core event engine: one polling loop for every
//! queue application in the workspace.
//!
//! The paper's evaluation (§4–§5) runs every workload — stateless
//! forwarding, stateful service chains, and the KVS — on the same
//! substrate: per-core run-to-completion PMD loops over DDIO-fed RX
//! queues. This crate is that substrate. An application implements
//! [`QueueApp`] (what to do with one received packet, plus an optional
//! `pump` hook for work that does not come from an RX queue, like a
//! pipeline's handoff ring) and the engine supplies everything else:
//!
//! * **Simulated clock.** Each [`WorkerSpec`] (a core, optionally bound
//!   to one RX queue) has a *free-at* timestamp. Workers never run ahead
//!   of the load generator's clock, so queueing emerges naturally: a
//!   busy worker leaves arrivals in the descriptor ring, and when the
//!   ring's posted descriptors run out the NIC drops (`rx_nodesc`) — the
//!   throughput ceiling of Table 3.
//! * **The polling loop.** `rx_burst → on_packet → tx → refill`, with
//!   the idle re-arm that keeps RX rings stocked across transient pool
//!   outages. This is the only PMD loop in the workspace; the NFV
//!   testbed, the pipelined chain, and the multi-queue KVS are all thin
//!   [`QueueApp`]s over it.
//! * **Virtual-time scheduling.** [`Engine::run_until`] does not tick
//!   once per offered frame: it dispatches an epoch only when some
//!   worker with work waiting is free strictly before the horizon, the
//!   epoch partition's own test, answered by a scan of the workers.
//!   Otherwise it only forwards the idle clocks (re-arming under-posted
//!   rings) instead of dispatching an empty epoch (the "empty-epoch
//!   tax" — see `EngineReport::sched`). The tick-stepper this replaced
//!   is retained as [`Scheduler::ReferenceTick`] and the differential
//!   suites assert both produce bit-identical reports.
//! * **Epoch execution, serial or parallel.** Workers advance in
//!   *epochs*: each active worker runs its polling loop against a
//!   disjoint machine shard ([`llc_sim::epoch`]) and its own RX-queue
//!   view, then the coordinator merges cross-worker effects (LLC event
//!   logs, TX completions, buffer recycling, refills) in canonical
//!   worker order. [`Execution::Serial`] runs the workers inline, one
//!   task built, run and dropped at a time, which allocates nothing
//!   once the engine's buffers have grown; [`Execution::Parallel`] runs
//!   the *same* epoch algorithm on a
//!   persistent pool of OS threads (spawned once, dispatched per
//!   epoch — see `pool.rs`) — results are bit-identical by
//!   construction because every cross-worker decision is made at the
//!   worker-ordered merge, never at a thread-scheduling-dependent
//!   moment. The differential test suite (`tests/differential.rs`)
//!   keeps that claim honest.
//! * **Drop accounting.** One live [`QueueLedger`] per RX queue: its
//!   [`NicDrops`], [`AdmitDrops`] and application drops beside the
//!   offered, carried and delivered counts. The engine owns the
//!   conservation invariant [`QueueLedger::balances`] and asserts it
//!   (per queue and overall) in [`Engine::finish`], cross-checking its
//!   classification against the port's own counters.
//! * **Admission control & backpressure.** A pluggable
//!   [`AdmissionPolicy`] sheds frames at the driver's ingress — before
//!   they consume a descriptor — by queue-depth threshold or deadline
//!   infeasibility ([`Engine::offer_with_deadline`]), and
//!   [`Engine::backpressured`] exposes the explicit per-queue
//!   backpressure signal clients use to stretch retry backoff.
//! * **Fault injection.** [`rte::fault::FaultPlan`] windows — including
//!   the TX-side kinds (`tx_stall`, `ready_overrun`) and per-queue RX
//!   stalls — are drawn per offered frame with the target queue known,
//!   so queue-scoped faults degrade only their queue.
//!
//! Hardware (machine, port, mempool, headroom policy) is *not* owned by
//! the engine; callers pass a [`Hw`] view per call. That keeps warm
//! state (e.g. a KVS store and its LLC contents) reusable across runs,
//! which Fig. 8's warm-then-measure methodology depends on.

pub(crate) mod drops;
mod pool;

pub use drops::{AdmitDrops, NicDrops};

use llc_sim::epoch::{CoreMem, EpochShard, LlcOp};
use llc_sim::machine::Machine;
use rte::fault::{FaultPlan, FaultState};
use rte::mempool::MbufPool;
use rte::nic::{DropReason, HeadroomPolicy, Port, RxCompletion, RxView, TxDesc};
use trafficgen::FlowTuple;

/// A borrowed view of the hardware the engine drives. The engine owns
/// clocks and ledgers only; machine, port, pool, and headroom policy
/// stay with the caller so they can outlive a run (warm stores, reused
/// ports).
pub struct Hw<'a> {
    /// The simulated machine.
    pub m: &'a mut Machine,
    /// The NIC port whose queues the workers poll.
    pub port: &'a mut Port,
    /// The mbuf pool backing the port's descriptors.
    pub pool: &'a mut MbufPool,
    /// The headroom policy applied on refill (stock or CacheDirector).
    pub policy: &'a mut dyn HeadroomPolicy,
}

/// One worker: a core running the polling loop, optionally bound to one
/// RX queue. Queue-less workers only run their app's [`QueueApp::pump`]
/// hook (e.g. the second stage of a pipelined chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSpec {
    /// The core this worker's cycles are charged to.
    pub core: usize,
    /// The RX queue it polls, if any.
    pub queue: Option<usize>,
}

impl WorkerSpec {
    /// The usual run-to-completion shape: core `c` polls queue `c`.
    pub fn run_to_completion(cores: usize) -> Vec<WorkerSpec> {
        (0..cores)
            .map(|c| WorkerSpec {
                core: c,
                queue: Some(c),
            })
            .collect()
    }
}

/// How worker epochs execute: inline on the calling thread, or fanned
/// out over OS threads. Both modes run the *same* shard/merge algorithm
/// and produce bit-identical results (see the module docs); `Serial` is
/// the reference implementation and the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Execution {
    /// Workers run inline, in worker order, on the calling thread.
    #[default]
    Serial,
    /// Workers are distributed round-robin over a persistent pool of
    /// `threads` OS threads (`threads` is clamped to at least 1; the
    /// pool is spawned lazily at the first multi-worker epoch). The
    /// merge is still performed by the calling thread in worker order.
    Parallel {
        /// Number of pool worker threads.
        threads: usize,
    },
}

/// Which scheduler drives [`Engine::run_until`].
///
/// Both schedulers run the *same* epoch algorithm (partition → shard
/// polling → worker-ordered merge → epoch hook) whenever an epoch is
/// dispatched; they differ only in *when* epochs are dispatched. The
/// differential and property suites (`tests/differential.rs`,
/// `tests/prop.rs`) assert their reports are bit-identical, field for
/// field, modulo the [`SchedStats`] counters. Every front-end builds
/// its engine with the default; [`Scheduler::ReferenceTick`] is the
/// oracle of this crate's tests, selected through
/// [`EngineConfig::scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// The virtual-time event scheduler (default): `run_until`
    /// dispatches an epoch only when some busy worker (a ready
    /// completion on its queue, or app backlog) is free strictly
    /// before the horizon. Otherwise it runs only the tick-stepper's
    /// idle branch — each worker behind the horizon re-arms an
    /// under-posted RX ring and forwards its clock — and counts no
    /// epoch and calls no epoch hook.
    #[default]
    EventDriven,
    /// The tick-stepper this engine shipped with: every `run_until`
    /// call dispatches a full epoch — partition, merge walk, epoch
    /// hook — even when no worker is behind the horizon or has work.
    /// Retained as the oracle of the engine's differential, property
    /// and unit tests; `epochs_dispatched` under this scheduler
    /// measures the empty-epoch tax the event scheduler removes.
    ReferenceTick,
}

/// Scheduler observability counters, carried in [`EngineReport`] and
/// accumulated process-wide (see [`sched_totals`]). Identical across
/// [`Execution`] modes — dispatch decisions depend only on simulated
/// state — but *not* across [`Scheduler`] modes, which is their point:
/// the reference tick-stepper dispatches strictly more epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Epochs actually dispatched (partition + merge walk + hook).
    pub epochs_dispatched: u64,
    /// Dispatched epochs in which at least one worker polled (had a
    /// ready completion or backlog behind the horizon). The gap to
    /// `epochs_dispatched` is the empty-epoch tax.
    pub epochs_with_work: u64,
    /// Virtual-time events the engine processed: one per offered frame
    /// (the arrival, delivered synchronously by `offer`) plus one per
    /// worker that a dispatched epoch ran (a `run_until` or `step`
    /// epoch's active workers).
    pub events_processed: u64,
}

impl SchedStats {
    fn add_to_totals(self) {
        use std::sync::atomic::Ordering::Relaxed;
        TOTAL_EPOCHS_DISPATCHED.fetch_add(self.epochs_dispatched, Relaxed);
        TOTAL_EPOCHS_WITH_WORK.fetch_add(self.epochs_with_work, Relaxed);
        TOTAL_EVENTS_PROCESSED.fetch_add(self.events_processed, Relaxed);
    }
}

static TOTAL_EPOCHS_DISPATCHED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static TOTAL_EPOCHS_WITH_WORK: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static TOTAL_EVENTS_PROCESSED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Process-wide [`SchedStats`] totals, summed over every finished
/// engine in this process. The figure binaries print these to *stderr*
/// at exit so the empty-epoch tax is visible in every run without
/// touching the golden stdout snapshots. Purely observational: totals
/// are atomic sums, so concurrent engines fold in commutatively and
/// per-engine reports stay exact.
pub fn sched_totals() -> SchedStats {
    use std::sync::atomic::Ordering::Relaxed;
    SchedStats {
        epochs_dispatched: TOTAL_EPOCHS_DISPATCHED.load(Relaxed),
        epochs_with_work: TOTAL_EPOCHS_WITH_WORK.load(Relaxed),
        events_processed: TOTAL_EVENTS_PROCESSED.load(Relaxed),
    }
}

/// Why the ingress admission filter shed a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// The target queue's ready backlog was at or above the policy
    /// threshold.
    QueueDepth,
    /// The frame's deadline could not be met even if it were accepted
    /// (arrival time plus the backlog's estimated service time already
    /// exceeds the deadline).
    Deadline,
}

/// Why [`Engine::offer`] rejected a frame: the NIC/driver dropped it
/// ([`DropReason`]) or the admission filter shed it ([`ShedCause`]).
/// Both land in per-queue ledgers, so either way the conservation
/// invariant keeps balancing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// Dropped inside the NIC/driver model (ring, MAC, link, stalls).
    Nic(DropReason),
    /// Shed by the [`AdmissionPolicy`] before consuming a descriptor.
    Shed(ShedCause),
}

/// The pluggable ingress admission filter: evaluated per offered frame,
/// after wire/MAC-level faults (a frame the link never carried cannot
/// be shed) but *before* descriptor allocation, like a hardware flow
/// rule or an XDP early drop. Rejections land in the per-queue
/// [`AdmitDrops`] ledger.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AdmissionPolicy {
    /// No shedding; every frame proceeds to the ring (the default, and
    /// exactly the pre-admission engine behaviour).
    #[default]
    AcceptAll,
    /// Shed when the target queue's ready backlog has reached
    /// `max_backlog` completions — bounds queue delay at roughly
    /// `max_backlog × service time` under overload.
    QueueDepth {
        /// Backlog threshold (completions waiting in the ready ring).
        max_backlog: usize,
    },
    /// Shed frames whose deadline is already infeasible: the arrival
    /// time plus `(backlog + 1) × est_service_ns` exceeds the frame's
    /// deadline. Frames offered without a deadline are never shed.
    DeadlineInfeasible {
        /// Estimated per-request service time used for the feasibility
        /// projection.
        est_service_ns: f64,
    },
}

impl AdmissionPolicy {
    /// Policy decision for one frame: `Some(cause)` to shed, given the
    /// target queue's ready backlog, the arrival time, and the frame's
    /// absolute deadline (`f64::INFINITY` when it has none).
    fn reject(&self, backlog: usize, t_ns: f64, deadline_ns: f64) -> Option<ShedCause> {
        match *self {
            AdmissionPolicy::AcceptAll => None,
            AdmissionPolicy::QueueDepth { max_backlog } => {
                (backlog >= max_backlog).then_some(ShedCause::QueueDepth)
            }
            AdmissionPolicy::DeadlineInfeasible { est_service_ns } => {
                let projected = t_ns + (backlog + 1) as f64 * est_service_ns;
                (projected > deadline_ns).then_some(ShedCause::Deadline)
            }
        }
    }

    /// The backlog level at which this policy starts shedding (used by
    /// the backpressure signal); `None` when the policy never sheds on
    /// depth alone.
    fn depth_threshold(&self) -> Option<usize> {
        match *self {
            AdmissionPolicy::QueueDepth { max_backlog } => Some(max_backlog),
            _ => None,
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The workers (cores × queues).
    pub workers: Vec<WorkerSpec>,
    /// RX descriptors per queue; also the refill target.
    pub queue_depth: usize,
    /// PMD burst size.
    pub burst: usize,
    /// Injected faults.
    pub faults: FaultPlan,
    /// Serial (reference) or parallel epoch execution.
    pub execution: Execution,
    /// Ingress admission filter (default: accept all).
    pub admission: AdmissionPolicy,
    /// Event-driven virtual-time scheduling (default) or the reference
    /// tick-stepper the engine's tests compare it against (see
    /// [`Scheduler`]).
    pub scheduler: Scheduler,
}

/// What an application decides about one received packet.
#[derive(Debug, Clone, Copy)]
pub enum Verdict {
    /// Transmit this descriptor (the engine counts it as delivered and
    /// recycles the buffer at the epoch merge).
    Tx(TxDesc),
    /// Drop: the engine recycles the buffer and counts one application
    /// drop on the worker's queue. Cause-level accounting is the app's
    /// job (it has richer vocabulary than the engine needs).
    Drop,
    /// The app took ownership of the buffer (e.g. queued it on a
    /// handoff ring). It must eventually resurface as a [`Verdict::Tx`]
    /// from `pump`, a [`Ctx::drop_packet`], or stay counted in flight.
    Consumed,
}

/// Per-poll context handed to the application: the worker's machine
/// shard, its core and the wall-clock anchor of the current poll
/// iteration.
pub struct Ctx<'a> {
    /// The worker's timed-memory view (a per-core machine shard during
    /// engine epochs; a whole [`Machine`] in direct/unit-test use).
    pub m: &'a mut (dyn CoreMem + 'a),
    /// The worker's core.
    pub core: usize,
    start_cycles: u64,
    start_ns: f64,
    ns_per_cycle: f64,
    dropped: u64,
    freed: &'a mut Vec<u32>,
}

impl Ctx<'_> {
    /// The current simulated wall clock on this worker's core: the poll
    /// iteration's start plus the cycles burned so far.
    pub fn wall_ns(&self) -> f64 {
        self.start_ns + (self.m.now(self.core) - self.start_cycles) as f64 * self.ns_per_cycle
    }

    /// Recycles `mbuf` (at the epoch merge, in canonical order) and
    /// counts one application drop on this worker's queue — the
    /// explicit form of [`Verdict::Drop`] for packets the app
    /// previously [`Verdict::Consumed`] (e.g. a full handoff ring).
    pub fn drop_packet(&mut self, mbuf: u32) {
        self.freed.push(mbuf);
        self.dropped += 1;
    }
}

/// A queue application: the per-packet half of the polling loop.
///
/// One instance exists *per worker* (the engine takes a `Vec<A>`), so
/// instances own their worker's state outright and can run on worker
/// threads — hence the `Send` bound. Cross-worker state (a shared KVS
/// index, routing tables) must be `Sync`-shared and read-only during
/// epochs; cross-worker *transfers* (pipeline handoff) go through the
/// epoch hook ([`Engine::set_epoch_hook`]).
pub trait QueueApp: Send {
    /// Processes one received packet on `ctx.worker` and decides its
    /// fate. Runs timed work against `ctx.m` on `ctx.core`.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, comp: &RxCompletion) -> Verdict;

    /// Non-RX work for this worker (e.g. draining a handoff ring).
    /// Push transmissions onto `tx` (it may already hold this epoch's
    /// earlier transmissions: append only); recycle drops with
    /// [`Ctx::drop_packet`]. Returns how many packets moved — it MUST
    /// make progress whenever [`QueueApp::has_backlog`] is true, or the
    /// engine's drain loop cannot terminate.
    fn pump(&mut self, _ctx: &mut Ctx<'_>, _tx: &mut Vec<TxDesc>) -> usize {
        0
    }

    /// Whether this worker has non-RX work pending (see
    /// [`QueueApp::pump`]).
    fn has_backlog(&self) -> bool {
        false
    }
}

/// Coordinator-side context handed to the epoch hook (between epochs,
/// with the machine merged and the pool live).
pub struct MergeCtx<'a> {
    /// The mbuf pool (for recycling buffers the hook drops).
    pub(crate) pool: &'a mut MbufPool,
    /// The fully merged machine. Hooks may run *timed* work against it
    /// (e.g. the KVS's §8 hot-set migration swaps): cycles land on the
    /// core they are charged to, exactly as worker-epoch work does, and
    /// because the hook runs on the coordinator in both execution modes
    /// the result stays bit-identical serial vs. parallel.
    pub m: &'a mut Machine,
    ledger: &'a mut [QueueLedger],
}

impl MergeCtx<'_> {
    /// Recycles `mbuf` and counts one application drop on `queue`.
    pub fn drop_packet(&mut self, queue: usize, mbuf: u32) {
        self.pool.put(mbuf);
        self.ledger[queue].app_drops += 1;
    }
}

/// The cross-worker transfer hook, run by the coordinator after every
/// epoch merge: move items between the per-worker apps (e.g. a pipeline
/// stage-1 outbox into stage-2's inbox). Returns how many items moved,
/// which keeps [`Engine::drain`] honest.
pub(crate) type EpochHook<A> = Box<dyn FnMut(&mut [A], &mut MergeCtx<'_>) -> usize>;

/// One RX queue's ledger, kept live by the engine and reported per
/// queue in [`EngineReport::per_queue`]. A caller that groups queues
/// (e.g. one group per tenant) sums their ledgers with
/// [`QueueLedger::sum`]; the sum satisfies the same identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueLedger {
    /// Frames the load generator offered that steered to this queue.
    pub offered: u64,
    /// Completions a previous run left in this queue's ready ring.
    pub carried: u64,
    /// Frames transmitted by this queue's worker.
    pub delivered: u64,
    /// NIC/driver drops.
    pub nic: NicDrops,
    /// Admission-control sheds.
    pub admit: AdmitDrops,
    /// Application drops.
    pub app_drops: u64,
    /// Completions still in the ready ring at finish.
    pub in_flight: u64,
}

impl QueueLedger {
    /// The element-wise sum of `ledgers`.
    pub fn sum<'a>(ledgers: impl IntoIterator<Item = &'a QueueLedger>) -> QueueLedger {
        let mut s = QueueLedger::default();
        for l in ledgers {
            s.offered += l.offered;
            s.carried += l.carried;
            s.delivered += l.delivered;
            s.nic.merge(&l.nic);
            s.admit.merge(&l.admit);
            s.app_drops += l.app_drops;
            s.in_flight += l.in_flight;
        }
        s
    }

    /// The conservation identity: every frame offered or carried in was
    /// delivered, dropped (by the NIC, the admission filter or the app)
    /// or is still in flight — `offered + carried == delivered +
    /// nic.total() + admit.total() + app_drops + in_flight`.
    pub fn balances(&self) -> bool {
        self.offered + self.carried
            == self.delivered
                + self.nic.total()
                + self.admit.total()
                + self.app_drops
                + self.in_flight
    }
}

/// What a finished engine run reports. The aggregate fields are the
/// [`QueueLedger::sum`] of `per_queue`, and each ledger, like the sum,
/// [balances](QueueLedger::balances) (asserted in [`Engine::finish`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Frames offered.
    pub offered: u64,
    /// Completions carried in from a previous run.
    pub carried: u64,
    /// Frames transmitted.
    pub delivered: u64,
    /// Aggregate NIC/driver drops.
    pub nic: NicDrops,
    /// Aggregate admission-control sheds.
    pub admit: AdmitDrops,
    /// Aggregate application drops.
    pub app_drops: u64,
    /// Completions left in ready rings (closed-loop runs end with some).
    pub in_flight: u64,
    /// The per-queue breakdown; sums to the aggregate fields above.
    pub per_queue: Vec<QueueLedger>,
    /// Simulated run duration: the latest worker free-at time, ≥ 1 ns.
    pub duration_ns: f64,
    /// The last offered frame's arrival time.
    pub last_arrival_ns: f64,
    /// Wire bits offered (for Gbps math).
    pub offered_wire_bits: u64,
    /// Wire bits transmitted.
    pub tx_wire_bits: u64,
    /// Scheduler counters for this run. Bit-identical across execution
    /// modes; the only report field that legitimately differs between
    /// [`Scheduler::EventDriven`] and [`Scheduler::ReferenceTick`].
    pub sched: SchedStats,
}

// ---------------------------------------------------------------------
// Epoch worker tasks.
// ---------------------------------------------------------------------

/// Everything one worker needs for one epoch. Crosses the thread
/// boundary in parallel mode, hence the `Send` assertion below.
struct WorkerTask<'a, A: QueueApp> {
    worker: usize,
    spec: WorkerSpec,
    free_ns: f64,
    shard: EpochShard<'a>,
    view: Option<RxView<'a>>,
    app: &'a mut A,
    bufs: &'a mut PollBufs,
    epoch: &'a EpochParams<'a>,
}

/// What every task of one epoch shares, read-only.
struct EpochParams<'a> {
    faults: &'a FaultState,
    pool: &'a MbufPool,
    burst: usize,
    ns_per_cycle: f64,
    /// Poll horizon; `f64::INFINITY` in single-poll (`step`) mode.
    horizon: f64,
    single_poll: bool,
}

/// One worker's buffers, owned by the engine and lent to the worker's
/// task each epoch, so polls reuse their allocations. After a task ran
/// they hold its epoch's deferred cross-worker effects for the merge.
#[derive(Default)]
struct PollBufs {
    /// The current poll's RX batch.
    batch: Vec<RxCompletion>,
    /// Every poll's TX descriptors, poll after poll.
    tx: Vec<TxDesc>,
    /// Every poll's recycled mbufs, poll after poll.
    freed: Vec<u32>,
    /// One entry per poll, in order.
    polls: Vec<PollEnd>,
    /// The shard's deferred-LLC log.
    log: Vec<LlcOp>,
}

/// Where one poll's effects end in [`PollBufs`].
struct PollEnd {
    /// End of the poll's frames in `tx`.
    tx: usize,
    /// End of the poll's mbufs in `freed`.
    freed: usize,
    /// The TX path was stalled at transmit time: frames are shed
    /// (recycled + counted) instead of committed.
    tx_stalled: bool,
    dropped: u64,
}

/// What a worker task hands back to the coordinator.
struct TaskOutcome {
    worker: usize,
    free_ns: f64,
    ended_idle: bool,
    moved: usize,
}

// Compile-time guarantees that everything crossing the thread boundary
// is `Send` (the parallel dispatcher relies on it; keep these in sync
// with the differential suite's assertions).
const _: fn() = || {
    fn assert_send<T: Send>() {}
    struct ProbeApp;
    impl QueueApp for ProbeApp {
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: &RxCompletion) -> Verdict {
            Verdict::Drop
        }
    }
    assert_send::<WorkerTask<'_, ProbeApp>>();
    assert_send::<TaskOutcome>();
    assert_send::<EpochShard<'_>>();
    assert_send::<RxView<'_>>();
};

/// Runs one worker's polling loop for one epoch, entirely against its
/// shard. Identical code in serial and parallel mode — the *only*
/// difference between the modes is which thread this runs on.
fn run_task<A: QueueApp>(mut t: WorkerTask<'_, A>) -> TaskOutcome {
    let PollBufs {
        batch,
        tx,
        freed,
        polls,
        log,
    } = &mut *t.bufs;
    let ep = t.epoch;
    let core = t.spec.core;
    tx.clear();
    freed.clear();
    polls.clear();
    t.shard.reuse_log(std::mem::take(log));
    let mut moved_total = 0usize;
    let mut free = t.free_ns;
    let mut ended_idle = false;
    loop {
        if !ep.single_poll && free >= ep.horizon {
            break;
        }
        let has_rx = t.view.as_ref().is_some_and(|v| v.ready_len() > 0);
        if !has_rx && !t.app.has_backlog() {
            ended_idle = true;
            if !ep.single_poll {
                // Idle-poll forward to the horizon; the idle re-arm
                // refill happens at the merge.
                free = ep.horizon;
            }
            break;
        }
        let start_cycles = t.shard.now(core);
        let start_ns = free;
        match t.view.as_mut() {
            Some(v) => {
                v.rx_burst(&mut t.shard, ep.pool, core, ep.burst, batch);
            }
            None => batch.clear(),
        }
        let mut moved = batch.len();
        let tx_start = tx.len();
        let dropped;
        {
            let mut ctx = Ctx {
                m: &mut t.shard,
                core,
                start_cycles,
                start_ns,
                ns_per_cycle: ep.ns_per_cycle,
                dropped: 0,
                freed,
            };
            for comp in batch.iter() {
                match t.app.on_packet(&mut ctx, comp) {
                    Verdict::Tx(desc) => tx.push(desc),
                    Verdict::Drop => ctx.drop_packet(comp.mbuf),
                    Verdict::Consumed => {}
                }
            }
            moved += t.app.pump(&mut ctx, tx);
            dropped = ctx.dropped;
        }
        let mut tx_stalled = false;
        if tx.len() > tx_start {
            let t_tx = start_ns + (t.shard.now(core) - start_cycles) as f64 * ep.ns_per_cycle;
            if ep.faults.tx_stalled(t_tx) {
                // The TX descriptor path is wedged: fully processed
                // frames cannot leave the box; the merge recycles them.
                tx_stalled = true;
            } else {
                rte::nic::tx_wire(&mut t.shard, core, &tx[tx_start..]);
            }
        }
        let busy = (t.shard.now(core) - start_cycles) as f64 * ep.ns_per_cycle;
        free = start_ns + busy;
        moved_total += moved;
        polls.push(PollEnd {
            tx: tx.len(),
            freed: freed.len(),
            tx_stalled,
            dropped,
        });
        if ep.single_poll {
            break;
        }
    }
    *log = t.shard.into_log();
    TaskOutcome {
        worker: t.worker,
        free_ns: free,
        ended_idle,
        moved: moved_total,
    }
}

/// The engine: clocks, fault state, and drop ledgers around one
/// [`QueueApp`] instance per worker.
pub struct Engine<A: QueueApp> {
    apps: Vec<A>,
    epoch_hook: Option<EpochHook<A>>,
    cfg: EngineConfig,
    /// Persistent threads for [`Execution::Parallel`], spawned lazily
    /// at the first multi-worker epoch (never in serial mode).
    thread_pool: Option<pool::WorkerPool>,
    /// Per-worker poll buffers, lent to each epoch's tasks.
    bufs: Vec<PollBufs>,
    /// The current epoch's active workers, ascending, and their task
    /// outcomes in the same order; cleared and refilled every epoch.
    active: Vec<usize>,
    outcomes: Vec<TaskOutcome>,
    /// Each worker's core clock before the epoch hook ran.
    hook_clocks: Vec<u64>,
    sched: SchedStats,
    free_ns: Vec<f64>,
    ns_per_cycle: f64,
    faults: FaultState,
    /// One ledger per port queue; `in_flight` is filled at finish.
    ledger: Vec<QueueLedger>,
    offered_wire_bits: u64,
    tx_wire_bits: u64,
    last_arrival_ns: f64,
    base_stats: rte::nic::PortStats,
}

impl<A: QueueApp> Engine<A> {
    /// Assembles the engine around one app instance per worker
    /// (`apps[w]` belongs to `cfg.workers[w]`) and performs the initial
    /// descriptor posting (each queue topped up to `queue_depth` minus
    /// any completions carried over from a previous run — the ring's
    /// slots are shared by posted descriptors and unharvested
    /// completions).
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry: no workers, an app count that
    /// differs from the worker count, zero burst/depth, a worker queue
    /// outside the port, a queue polled by two workers, two workers on
    /// one core (they could not run as disjoint shards), or a port
    /// queue no worker polls.
    pub fn new(apps: Vec<A>, cfg: EngineConfig, hw: &mut Hw<'_>) -> Self {
        assert!(!cfg.workers.is_empty(), "no workers");
        assert_eq!(
            apps.len(),
            cfg.workers.len(),
            "one QueueApp instance per worker"
        );
        assert!(cfg.burst > 0 && cfg.queue_depth > 0, "bad queue geometry");
        let queues = hw.port.num_queues();
        let mut polled = vec![false; queues];
        for (i, w) in cfg.workers.iter().enumerate() {
            assert!(w.core < hw.m.config().cores, "worker core off-machine");
            assert!(
                !cfg.workers[..i].iter().any(|o| o.core == w.core),
                "core {} driven by two workers",
                w.core
            );
            if let Some(q) = w.queue {
                assert!(q < queues, "worker polls a queue the port lacks");
                assert!(!polled[q], "queue {q} polled by two workers");
                polled[q] = true;
            }
        }
        assert!(
            polled.iter().all(|&p| p),
            "every port queue needs a polling worker"
        );
        let ledger = (0..queues)
            .map(|q| QueueLedger {
                carried: hw.port.ready_count(q) as u64,
                ..QueueLedger::default()
            })
            .collect();
        let ns_per_cycle = 1.0 / hw.m.config().freq_ghz;
        let base_stats = hw.port.stats();
        let workers = cfg.workers.len();
        let eng = Self {
            sched: SchedStats::default(),
            free_ns: vec![0.0; cfg.workers.len()],
            ns_per_cycle,
            faults: FaultState::new(cfg.faults.clone()),
            ledger,
            offered_wire_bits: 0,
            tx_wire_bits: 0,
            last_arrival_ns: 0.0,
            base_stats,
            apps,
            epoch_hook: None,
            cfg,
            thread_pool: None,
            bufs: (0..workers).map(|_| PollBufs::default()).collect(),
            active: Vec::with_capacity(workers),
            outcomes: Vec::with_capacity(workers),
            hook_clocks: Vec::with_capacity(workers),
        };
        for w in 0..eng.cfg.workers.len() {
            if let Some(q) = eng.cfg.workers[w].queue {
                let core = eng.cfg.workers[w].core;
                let target = eng.cfg.queue_depth - hw.port.ready_count(q);
                hw.port.refill(hw.m, hw.pool, q, core, hw.policy, target);
            }
        }
        eng
    }

    /// Installs the cross-worker transfer hook, run after every epoch
    /// merge (see [`EpochHook`]).
    pub fn set_epoch_hook(&mut self, hook: EpochHook<A>) {
        self.epoch_hook = Some(hook);
    }

    /// Worker `w`'s application (mutation between polls).
    pub fn app_mut(&mut self, w: usize) -> &mut A {
        &mut self.apps[w]
    }

    /// The global simulated clock: the latest worker free-at time.
    pub fn now_ns(&self) -> f64 {
        self.free_ns.iter().copied().fold(0.0, f64::max)
    }

    /// Whether worker `w` has pending work: a completion waiting in its
    /// RX queue, or application backlog. The same predicate
    /// `run_epoch`'s partition uses.
    fn worker_busy(&self, hw: &Hw<'_>, w: usize) -> bool {
        self.cfg.workers[w]
            .queue
            .is_some_and(|q| hw.port.ready_count(q) > 0)
            || self.apps[w].has_backlog()
    }

    /// The idle branch for worker `w`, behind horizon `h` with nothing
    /// to do: an idle PMD still re-arms its RX ring, then its clock
    /// moves to `h`. Without the re-arm, a transient pool outage that
    /// drains the posted ring would leave the queue dry forever once
    /// the pool recovers; during the outage the refill is a no-op
    /// (`MbufPool::get` fails and changes nothing).
    fn idle_to(&mut self, hw: &mut Hw<'_>, w: usize, h: f64) {
        let spec = self.cfg.workers[w];
        if let Some(q) = spec.queue {
            if hw.port.posted_count(q) < self.cfg.queue_depth {
                hw.port
                    .refill(hw.m, hw.pool, q, spec.core, hw.policy, self.cfg.queue_depth);
            }
        }
        self.free_ns[w] = h;
    }

    /// Frames offered so far.
    pub fn offered(&self) -> u64 {
        self.ledger.iter().map(|l| l.offered).sum()
    }

    /// Frames transmitted so far.
    pub fn delivered(&self) -> u64 {
        self.ledger.iter().map(|l| l.delivered).sum()
    }

    /// Offers one frame at `t_ns`: routes it, draws its faults (with
    /// the target queue known, so queue-scoped windows apply), lets the
    /// workers catch up to the present, then delivers through the NIC.
    /// Every failure is classified into the per-queue ledgers; the
    /// `Err` is returned so closed-loop callers can back off. Frames
    /// offered this way carry no deadline — see
    /// [`Engine::offer_with_deadline`].
    pub fn offer(
        &mut self,
        hw: &mut Hw<'_>,
        flow: &FlowTuple,
        frame: &[u8],
        t_ns: f64,
    ) -> Result<usize, Rejection> {
        self.offer_with_deadline(hw, flow, frame, t_ns, f64::INFINITY)
    }

    /// [`Engine::offer`] for a frame that must complete by the absolute
    /// simulated time `deadline_ns`. The deadline feeds the
    /// [`AdmissionPolicy::DeadlineInfeasible`] filter; it is *not*
    /// carried into the frame (applications encode deadlines in their
    /// own wire formats, e.g. `kvs::proto`).
    pub fn offer_with_deadline(
        &mut self,
        hw: &mut Hw<'_>,
        flow: &FlowTuple,
        frame: &[u8],
        t_ns: f64,
        deadline_ns: f64,
    ) -> Result<usize, Rejection> {
        let (q, mark) = hw.port.route(flow);
        // Draw this frame's faults before the catch-up: a pool-exhaustion
        // window must already be in force while the workers run to the
        // arrival (their refills are what the outage starves). Shed
        // frames draw too, so the admission policy never shifts the
        // fault sequence of later frames.
        let fault = self.faults.draw(t_ns, q);
        hw.pool.set_outage(fault.pool_blocked);
        self.run_until(hw, t_ns);
        // An arrival is processed synchronously at its own virtual time
        // and counts as one event.
        self.sched.events_processed += 1;
        self.ledger[q].offered += 1;
        self.offered_wire_bits += trafficgen::arrival::wire_bits(frame.len() as u16);
        self.last_arrival_ns = self.last_arrival_ns.max(t_ns);
        // The admission filter sits in the driver's ingress path: after
        // the wire and MAC stages (a frame the link dropped, the RX
        // engine stalled on, or that failed CRC never reaches it) but
        // before descriptor allocation, so sheds are cheap — no mbuf,
        // no ring slot.
        let wire_lost = fault.link_down || fault.stall || fault.corrupt;
        if !wire_lost {
            let backlog = hw.port.ready_count(q);
            if let Some(cause) = self.cfg.admission.reject(backlog, t_ns, deadline_ns) {
                let a = &mut self.ledger[q].admit;
                match cause {
                    ShedCause::QueueDepth => a.depth_shed += 1,
                    ShedCause::Deadline => a.deadline_shed += 1,
                }
                return Err(Rejection::Shed(cause));
            }
        }
        match hw.port.deliver_routed(hw.m, frame, q, mark, t_ns, fault) {
            Ok(()) => Ok(q),
            Err(reason) => {
                let n = &mut self.ledger[q].nic;
                match reason {
                    DropReason::NoDescriptor => {
                        // The NIC only sees the ring; the engine knows
                        // whether descriptors were missing because the
                        // *pool* was dry.
                        if hw.pool.in_outage() || hw.pool.available() == 0 {
                            n.pool_starved += 1;
                        } else {
                            n.nodesc += 1;
                        }
                    }
                    DropReason::Overrun => n.overrun += 1,
                    DropReason::CrcError => n.crc += 1,
                    DropReason::LinkDown => n.link_down += 1,
                    DropReason::RxStall => n.rx_stall += 1,
                    DropReason::ReadyOverrun => n.ready_overrun += 1,
                }
                Err(Rejection::Nic(reason))
            }
        }
    }

    /// The explicit backpressure signal for queue `q`: true when the
    /// next no-deadline offer would be shed by the admission policy, or
    /// when the ready ring is full (so the NIC would drop it anyway).
    /// Clients use this to stretch their retry backoff instead of
    /// hammering a saturated queue.
    pub fn backpressured(&self, hw: &Hw<'_>, q: usize) -> bool {
        let backlog = hw.port.ready_count(q);
        let threshold = self
            .cfg
            .admission
            .depth_threshold()
            .unwrap_or(self.cfg.queue_depth)
            .min(self.cfg.queue_depth);
        backlog >= threshold
    }

    /// Runs every worker's polling loop until simulated time `until_ns`
    /// — one epoch: workers run on disjoint shards to the horizon, then
    /// the coordinator merges in worker order. Cross-worker handoff
    /// (the epoch hook) is applied once, after the merge, so pipeline
    /// stages see each other's output with epoch granularity.
    ///
    /// Under [`Scheduler::EventDriven`] (the default) the epoch is
    /// dispatched only when some worker with work waiting is free
    /// strictly before `until_ns`, the epoch partition's own test;
    /// otherwise each worker behind `until_ns` only re-arms an
    /// under-posted RX ring and moves its clock there. The resulting
    /// [`EngineReport`] is bit-identical either way (only
    /// [`EngineReport::sched`] differs) —
    /// `crates/engine/tests/differential.rs` and `prop.rs` pin this.
    /// A control plane that must observe the machine at exact virtual
    /// times calls `run_until` up to each of its boundaries and acts
    /// between the calls (through [`Engine::app_mut`] and `Hw::m`).
    pub fn run_until(&mut self, hw: &mut Hw<'_>, until_ns: f64) {
        if self.epoch_due(hw, until_ns) {
            self.run_epoch(hw, until_ns, false);
        } else {
            for w in 0..self.cfg.workers.len() {
                if self.free_ns[w] < until_ns {
                    self.idle_to(hw, w, until_ns);
                }
            }
        }
    }

    /// The dispatch rule: whether an epoch is due before horizon `h`.
    /// The tick-stepper dispatches one every time; the event-driven
    /// scheduler only for a busy worker free strictly before `h`.
    /// Without one, the tick-stepper's epoch is its idle branch plus an
    /// epoch count and an epoch-hook call, and the hook contract
    /// (DESIGN.md §3f) makes a hook at a workless epoch a no-op.
    fn epoch_due(&self, hw: &Hw<'_>, h: f64) -> bool {
        self.cfg.scheduler == Scheduler::ReferenceTick
            || (0..self.cfg.workers.len()).any(|w| self.free_ns[w] < h && self.worker_busy(hw, w))
    }

    /// One poll round over every worker with pending work, then a clock
    /// sync: all workers advance to the latest free-at time. Closed-loop
    /// callers alternate `offer(.., now_ns())` top-ups with `step`, and
    /// the sync guarantees those offers never trigger catch-up
    /// processing mid-top-up. The round is an epoch only when one is
    /// due at an infinite horizon (`Engine::epoch_due`): with no busy
    /// worker the event-driven scheduler only syncs the clocks. Returns
    /// how many packets moved; zero means the engine is drained (or
    /// wedged by faults) and the caller should stop.
    pub fn step(&mut self, hw: &mut Hw<'_>) -> usize {
        let moved = if self.epoch_due(hw, f64::INFINITY) {
            self.run_epoch(hw, f64::INFINITY, true)
        } else {
            0
        };
        let now = self.now_ns();
        for f in &mut self.free_ns {
            *f = now;
        }
        moved
    }

    /// Polls until no worker moves a packet (open-loop tail drain).
    pub fn drain(&mut self, hw: &mut Hw<'_>) {
        while self.step(hw) > 0 {}
    }

    /// One epoch: partition, run (inline or on threads), merge.
    ///
    /// In horizon mode (`single_poll == false`) every worker behind
    /// `horizon_ns` participates and polls until it runs dry or reaches
    /// the horizon. In single-poll mode (`step`) every worker with
    /// pending work polls exactly once. Returns packets moved.
    ///
    /// An inline epoch ([`Execution::Serial`], one active worker, or a
    /// one-thread pool) builds one worker's task — its shard from
    /// [`Machine::epoch_shard`], its RX view from [`Port::rx_view`], its
    /// app and poll buffers — runs it and drops it before building the
    /// next, in worker order. With the active list and the outcomes in
    /// engine-owned buffers, it allocates nothing once they have grown.
    /// A task touches only its own core state, ready ring, app and
    /// buffers and reads the frozen LLC, which changes only at the
    /// merge, so building it just before it runs changes nothing a
    /// later task sees. A pooled epoch builds every task up front and
    /// hands them to the pool at once.
    fn run_epoch(&mut self, hw: &mut Hw<'_>, horizon_ns: f64, single_poll: bool) -> usize {
        self.sched.epochs_dispatched += 1;
        // Partition the workers: `active` get a task and run the loop;
        // the others behind the horizon (nothing to do) only get the
        // idle re-arm refill at the merge.
        self.active.clear();
        for w in 0..self.cfg.workers.len() {
            if self.worker_busy(hw, w) && (single_poll || self.free_ns[w] < horizon_ns) {
                self.active.push(w);
            }
        }
        if !self.active.is_empty() {
            self.sched.epochs_with_work += 1;
        }
        self.sched.events_processed += self.active.len() as u64;
        self.outcomes.clear();
        let ep = EpochParams {
            faults: &self.faults,
            pool: hw.pool,
            burst: self.cfg.burst,
            ns_per_cycle: self.ns_per_cycle,
            horizon: horizon_ns,
            single_poll,
        };
        let threads = match self.cfg.execution {
            Execution::Serial => 1,
            Execution::Parallel { threads } => threads.max(1),
        };
        let n = threads.min(self.active.len());
        if n <= 1 {
            // Where a task runs never changes its outcome, so running a
            // lone worker (or a one-thread request) inline is invisible
            // in the results.
            for &w in &self.active {
                let spec = self.cfg.workers[w];
                let task = WorkerTask {
                    worker: w,
                    spec,
                    free_ns: self.free_ns[w],
                    shard: hw.m.epoch_shard(spec.core),
                    view: spec.queue.map(|q| hw.port.rx_view(q)),
                    app: &mut self.apps[w],
                    bufs: &mut self.bufs[w],
                    epoch: &ep,
                };
                self.outcomes.push(run_task(task));
            }
        } else {
            let cores: Vec<usize> = self
                .active
                .iter()
                .map(|&w| self.cfg.workers[w].core)
                .collect();
            let shards = hw.m.epoch_shards(&cores);
            let mut views: Vec<Option<RxView<'_>>> =
                hw.port.rx_views().into_iter().map(Some).collect();
            let mut apps: Vec<Option<&mut A>> = self.apps.iter_mut().map(Some).collect();
            let mut bufs: Vec<Option<&mut PollBufs>> = self.bufs.iter_mut().map(Some).collect();
            // Round-robin by *position in the active list* — a pure
            // function of worker indices, never of thread scheduling —
            // and sort the outcomes back into worker order, so any
            // thread count yields the same merge order.
            let mut buckets: Vec<Vec<WorkerTask<'_, A>>> = (0..n).map(|_| Vec::new()).collect();
            for (i, (&w, shard)) in self.active.iter().zip(shards).enumerate() {
                let spec = self.cfg.workers[w];
                buckets[i % n].push(WorkerTask {
                    worker: w,
                    spec,
                    free_ns: self.free_ns[w],
                    shard,
                    view: spec.queue.and_then(|q| views[q].take()),
                    app: apps[w].take().expect("worker split"),
                    bufs: bufs[w].take().expect("worker split"),
                    epoch: &ep,
                });
            }
            let pool = self
                .thread_pool
                .get_or_insert_with(|| pool::WorkerPool::new(threads));
            let (res_tx, res_rx) = std::sync::mpsc::channel();
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = buckets
                .into_iter()
                .map(|bucket| {
                    let res_tx = res_tx.clone();
                    Box::new(move || {
                        for t in bucket {
                            let _ = res_tx.send(run_task(t));
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run(jobs);
            drop(res_tx);
            self.outcomes.extend(res_rx);
            assert_eq!(
                self.outcomes.len(),
                self.active.len(),
                "every task produces an outcome"
            );
            self.outcomes.sort_unstable_by_key(|o| o.worker);
        }
        // Merge, in canonical worker order (ascending worker index;
        // `outcomes` follows `active`, which is ascending). A worker
        // without a task is idle when it is behind the horizon: its
        // clock has not moved since the partition.
        let mut moved = 0usize;
        let mut oi = 0usize;
        for w in 0..self.cfg.workers.len() {
            if oi < self.outcomes.len() && self.outcomes[oi].worker == w {
                let o = &self.outcomes[oi];
                oi += 1;
                let spec = self.cfg.workers[w];
                let aq = spec.queue.unwrap_or(0);
                let b = &self.bufs[w];
                // 1. The worker's deferred LLC effects.
                hw.m.replay_llc(spec.core, &b.log);
                // 2. Per poll, in order: app drops, then the TX fate.
                let (mut tx_at, mut freed_at) = (0, 0);
                for p in &b.polls {
                    for &mb in &b.freed[freed_at..p.freed] {
                        hw.pool.put(mb);
                    }
                    freed_at = p.freed;
                    let l = &mut self.ledger[aq];
                    l.app_drops += p.dropped;
                    let tx = &b.tx[tx_at..p.tx];
                    tx_at = p.tx;
                    if p.tx_stalled {
                        for d in tx {
                            hw.pool.put(d.mbuf);
                        }
                        l.nic.tx_stall += tx.len() as u64;
                    } else if !tx.is_empty() {
                        hw.port.tx_commit(hw.pool, tx);
                        l.delivered += tx.len() as u64;
                        for d in tx {
                            self.tx_wire_bits += trafficgen::arrival::wire_bits(d.len);
                        }
                    }
                }
                moved += o.moved;
                self.free_ns[w] = o.free_ns;
                // 3. Refill the worker's queue. A real RX ring has
                // `depth` slots shared by posted descriptors and
                // not-yet-harvested completions; top up only the slots
                // this epoch freed.
                if let Some(q) = spec.queue {
                    let target = self.cfg.queue_depth.saturating_sub(hw.port.ready_count(q));
                    let (_, cycles) = hw
                        .port
                        .refill(hw.m, hw.pool, q, spec.core, hw.policy, target);
                    if !o.ended_idle {
                        // Busy workers pay the refill on their schedule
                        // clock; idle workers already idled to the
                        // horizon (the refill hides in the idle time).
                        self.free_ns[w] += cycles as f64 * self.ns_per_cycle;
                    }
                }
            } else if !single_poll && self.free_ns[w] < horizon_ns {
                self.idle_to(hw, w, horizon_ns);
            }
        }
        // 4. Cross-worker handoff, with the machine fully merged. Timed
        // work the hook performs on a worker's core (e.g. a batched
        // migration) occupies that core: the hook's clock delta on each
        // core lands on the owning worker's free-at time, so its next
        // poll starts after the batch. Hooks at workless epochs are
        // no-ops (DESIGN §3f), so the fold never moves a clock when
        // nothing happened — the schedulers' epochs-with-work coincide
        // and stay bit-identical.
        if let Some(hook) = self.epoch_hook.as_mut() {
            self.hook_clocks.clear();
            self.hook_clocks
                .extend(self.cfg.workers.iter().map(|s| hw.m.now(s.core)));
            let mut mc = MergeCtx {
                pool: hw.pool,
                m: hw.m,
                ledger: &mut self.ledger,
            };
            moved += hook(&mut self.apps, &mut mc);
            for (w, &start) in self.hook_clocks.iter().enumerate() {
                let delta = hw.m.now(self.cfg.workers[w].core) - start;
                if delta > 0 {
                    self.free_ns[w] += delta as f64 * self.ns_per_cycle;
                }
            }
        }
        moved
    }

    /// Ends the run: clears any pool outage, asserts conservation
    /// (globally, per queue, and against the port's own counters), and
    /// returns the report plus the per-worker applications. Does *not*
    /// drain — open-loop callers should [`Engine::drain`] first;
    /// closed-loop callers end with requests legitimately in flight.
    pub fn finish(mut self, hw: &mut Hw<'_>) -> (EngineReport, Vec<A>) {
        hw.pool.set_outage(false);
        for (q, l) in self.ledger.iter_mut().enumerate() {
            l.in_flight = hw.port.ready_count(q) as u64;
            assert!(l.balances(), "queue {q} conservation violated: {l:?}");
        }
        let total = QueueLedger::sum(&self.ledger);
        assert!(total.balances(), "conservation violated: {total:?}");
        // Cross-check the engine's classification against the NIC's own
        // counters (deltas over this run).
        let nic = total.nic;
        let s = hw.port.stats();
        let b = self.base_stats;
        assert_eq!(total.delivered, s.tx_pkts - b.tx_pkts, "tx accounting");
        assert_eq!(
            nic.nodesc + nic.pool_starved,
            s.rx_nodesc - b.rx_nodesc,
            "descriptor-drop classification must partition rx_nodesc"
        );
        assert_eq!(nic.crc, s.rx_crc - b.rx_crc, "crc accounting");
        assert_eq!(nic.overrun, s.rx_overrun - b.rx_overrun, "overrun");
        assert_eq!(nic.link_down, s.rx_linkdown - b.rx_linkdown, "link");
        assert_eq!(nic.rx_stall, s.rx_stall - b.rx_stall, "stall");
        assert_eq!(
            nic.ready_overrun,
            s.rx_ready_overrun - b.rx_ready_overrun,
            "ready-overrun accounting"
        );
        let report = EngineReport {
            offered: total.offered,
            carried: total.carried,
            delivered: total.delivered,
            nic,
            admit: total.admit,
            app_drops: total.app_drops,
            in_flight: total.in_flight,
            duration_ns: self.now_ns().max(1.0),
            last_arrival_ns: self.last_arrival_ns,
            offered_wire_bits: self.offered_wire_bits,
            tx_wire_bits: self.tx_wire_bits,
            sched: self.sched,
            per_queue: self.ledger,
        };
        self.sched.add_to_totals();
        (report, self.apps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::machine::MachineConfig;
    use rte::steering::{Rss, Steering};

    /// Echo every packet back (a MacSwap-free forwarder).
    #[derive(Clone)]
    struct Echo {
        work: u64,
    }

    impl QueueApp for Echo {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, comp: &RxCompletion) -> Verdict {
            ctx.m.advance(ctx.core, self.work);
            Verdict::Tx(TxDesc::echo(comp))
        }
    }

    fn setup(queues: usize, depth: usize) -> (Machine, MbufPool, Port) {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20));
        let pool = MbufPool::create(&mut m, (4 * queues * depth) as u32, 128, 2048).unwrap();
        let port = Port::new(0, Steering::Rss(Rss::new(queues)), depth);
        (m, pool, port)
    }

    fn flow(i: u32) -> FlowTuple {
        FlowTuple::tcp(0x0a00_0000 + i, 1000 + (i as u16), 0xc0a8_0001, 80)
    }

    fn echo_apps(work: u64, workers: usize) -> Vec<Echo> {
        vec![Echo { work }; workers]
    }

    fn run_echo(execution: Execution) -> EngineReport {
        let (mut m, mut pool, mut port) = setup(2, 64);
        let mut policy = rte::nic::FixedHeadroom(128);
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: &mut policy,
        };
        let mut eng = Engine::new(
            echo_apps(300, 2),
            EngineConfig {
                workers: WorkerSpec::run_to_completion(2),
                queue_depth: 64,
                burst: 16,
                faults: FaultPlan::none(),
                execution,
                admission: AdmissionPolicy::AcceptAll,
                scheduler: Scheduler::default(),
            },
            &mut hw,
        );
        for i in 0..500u32 {
            let t = i as f64 * 10_000.0; // 100 kpps: everyone keeps up.
            eng.offer(&mut hw, &flow(i % 32), &[0u8; 64], t).unwrap();
        }
        eng.drain(&mut hw);
        eng.finish(&mut hw).0
    }

    #[test]
    fn echo_delivers_everything_at_low_rate() {
        let rep = run_echo(Execution::Serial);
        assert_eq!(rep.offered, 500);
        assert_eq!(rep.delivered, 500);
        assert_eq!(rep.nic.total() + rep.app_drops, 0);
        assert_eq!(rep.in_flight, 0);
        assert!(rep.duration_ns >= 500.0 * 10_000.0 * 0.9);
        // Per-queue ledgers partition the aggregate.
        let sum: u64 = rep.per_queue.iter().map(|l| l.delivered).sum();
        assert_eq!(sum, rep.delivered);
        assert!(rep.per_queue.iter().all(|l| l.delivered > 0));
    }

    #[test]
    fn parallel_echo_matches_serial_exactly() {
        let serial = run_echo(Execution::Serial);
        for threads in [1, 2, 3] {
            let par = run_echo(Execution::Parallel { threads });
            assert_eq!(serial, par, "threads={threads} must match serial");
        }
    }

    #[test]
    fn overload_drops_but_conserves() {
        let (mut m, mut pool, mut port) = setup(1, 32);
        let mut policy = rte::nic::FixedHeadroom(128);
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: &mut policy,
        };
        let mut eng = Engine::new(
            echo_apps(10_000, 1), // ~3 µs/pkt service.
            EngineConfig {
                workers: WorkerSpec::run_to_completion(1),
                queue_depth: 32,
                burst: 8,
                faults: FaultPlan::none(),
                execution: Execution::Serial,
                admission: AdmissionPolicy::AcceptAll,
                scheduler: Scheduler::default(),
            },
            &mut hw,
        );
        for i in 0..2_000u32 {
            let t = i as f64 * 50.0; // 20 Mpps: hopeless.
            let _ = eng.offer(&mut hw, &flow(i % 8), &[0u8; 64], t);
        }
        eng.drain(&mut hw);
        let (rep, _) = eng.finish(&mut hw);
        assert!(rep.nic.nodesc > 0, "overload must exhaust descriptors");
        assert!(rep.delivered > 0, "the loop still makes progress");
        assert_eq!(rep.offered, rep.delivered + rep.nic.total() + rep.app_drops);
    }

    /// The event-driven dispatch rule: `run_until` runs an epoch only
    /// when a busy worker is free *strictly* before the horizon.
    /// Otherwise it runs the idle branch alone — no epoch, no hook
    /// call — and that branch still re-arms a ring an outage left
    /// under-posted.
    #[test]
    fn run_until_dispatches_only_for_a_busy_worker_strictly_behind_the_horizon() {
        use std::cell::Cell;
        use std::rc::Rc;
        let (mut m, mut pool, mut port) = setup(1, 64);
        let mut policy = rte::nic::FixedHeadroom(128);
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: &mut policy,
        };
        let mut eng = Engine::new(
            echo_apps(300, 1),
            EngineConfig {
                workers: WorkerSpec::run_to_completion(1),
                queue_depth: 64,
                burst: 8,
                faults: FaultPlan::none(),
                execution: Execution::Serial,
                admission: AdmissionPolicy::AcceptAll,
                scheduler: Scheduler::default(),
            },
            &mut hw,
        );
        let calls = Rc::new(Cell::new(0u64));
        let count = Rc::clone(&calls);
        eng.set_epoch_hook(Box::new(move |_apps, _mc| {
            count.set(count.get() + 1);
            0
        }));
        for i in 0..20u32 {
            eng.offer(&mut hw, &flow(i), &[0u8; 64], 0.0).unwrap();
        }
        eng.step(&mut hw);
        assert_eq!(hw.port.ready_count(0), 12, "one burst of 8 served");
        let h = eng.now_ns();
        let dispatched = |eng: &Engine<Echo>| (eng.sched.epochs_dispatched, calls.get());
        let before = dispatched(&eng);
        // Busy, but free exactly at the horizon: not behind it.
        eng.run_until(&mut hw, h);
        assert_eq!(
            dispatched(&eng),
            before,
            "free == horizon dispatches nothing"
        );
        eng.run_until(&mut hw, h + 1.0);
        assert_eq!(
            dispatched(&eng),
            (before.0 + 1, before.1 + 1),
            "1 ns behind: one epoch, one hook call"
        );
        // Serve the rest while the pool is out: the refills fail.
        hw.pool.set_outage(true);
        eng.run_until(&mut hw, 1e6);
        assert_eq!(hw.port.ready_count(0), 0);
        assert!(hw.port.posted_count(0) < 64, "the outage starves the ring");
        hw.pool.set_outage(false);
        let before = dispatched(&eng);
        eng.run_until(&mut hw, 2e6);
        assert_eq!(hw.port.posted_count(0), 64, "the idle branch re-arms");
        assert_eq!(
            dispatched(&eng),
            before,
            "idle run_until dispatches nothing"
        );
        assert_eq!(eng.now_ns(), 2e6);
        // `step` follows the same rule: nothing is due, so it moves
        // nothing, and it and `drain` dispatch no epoch and call no hook.
        assert_eq!(eng.step(&mut hw), 0);
        eng.drain(&mut hw);
        assert_eq!(dispatched(&eng), before, "idle step dispatches nothing");
        assert_eq!(eng.now_ns(), 2e6);
    }

    /// Drives the same hopeless 20 Mpps overload as
    /// `overload_drops_but_conserves`, under the given admission policy
    /// and with every offer carrying `deadline_ns` past its arrival.
    fn run_overload(admission: AdmissionPolicy, deadline_ns: f64) -> EngineReport {
        let (mut m, mut pool, mut port) = setup(1, 32);
        let mut policy = rte::nic::FixedHeadroom(128);
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: &mut policy,
        };
        let mut eng = Engine::new(
            echo_apps(10_000, 1),
            EngineConfig {
                workers: WorkerSpec::run_to_completion(1),
                queue_depth: 32,
                burst: 8,
                faults: FaultPlan::none(),
                execution: Execution::Serial,
                admission,
                scheduler: Scheduler::default(),
            },
            &mut hw,
        );
        for i in 0..2_000u32 {
            let t = i as f64 * 50.0;
            let _ = eng.offer_with_deadline(&mut hw, &flow(i % 8), &[0u8; 64], t, t + deadline_ns);
        }
        eng.drain(&mut hw);
        eng.finish(&mut hw).0
    }

    #[test]
    fn queue_depth_policy_sheds_before_descriptor_exhaustion() {
        let rep = run_overload(
            AdmissionPolicy::QueueDepth { max_backlog: 8 },
            f64::INFINITY,
        );
        assert!(rep.admit.depth_shed > 0, "overload must shed on depth");
        assert_eq!(rep.admit.deadline_shed, 0);
        // The filter caps the backlog below the ring size, so the ring
        // itself never runs out of descriptors.
        assert_eq!(rep.nic.nodesc, 0, "shedding must pre-empt nodesc");
        assert!(rep.delivered > 0);
        assert_eq!(
            rep.offered,
            rep.delivered + rep.nic.total() + rep.admit.total() + rep.app_drops
        );
    }

    #[test]
    fn deadline_policy_sheds_infeasible_frames_only() {
        // Service is ~3.3 µs/pkt; a 10 µs deadline admits a backlog of
        // at most ~3, so most of the 20 Mpps storm is shed as
        // infeasible. Without deadlines the same policy never sheds.
        let est = 10_000.0 * 0.476; // cycles → ns at 2.1 GHz.
        let policy = AdmissionPolicy::DeadlineInfeasible {
            est_service_ns: est,
        };
        let with_deadline = run_overload(policy, 10_000.0);
        assert!(with_deadline.admit.deadline_shed > 0, "must shed");
        assert_eq!(with_deadline.admit.depth_shed, 0);
        assert_eq!(
            with_deadline.offered,
            with_deadline.delivered
                + with_deadline.nic.total()
                + with_deadline.admit.total()
                + with_deadline.app_drops
        );
        let without = run_overload(policy, f64::INFINITY);
        assert_eq!(
            without.admit.total(),
            0,
            "frames without a deadline are never shed as infeasible"
        );
    }

    #[test]
    fn backpressure_signal_tracks_the_admission_threshold() {
        let (mut m, mut pool, mut port) = setup(1, 32);
        let mut policy = rte::nic::FixedHeadroom(128);
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: &mut policy,
        };
        let mut eng = Engine::new(
            echo_apps(1_000_000, 1), // So slow nothing is served below.
            EngineConfig {
                workers: WorkerSpec::run_to_completion(1),
                queue_depth: 32,
                burst: 1,
                faults: FaultPlan::none(),
                execution: Execution::Serial,
                admission: AdmissionPolicy::QueueDepth { max_backlog: 4 },
                scheduler: Scheduler::default(),
            },
            &mut hw,
        );
        assert!(!eng.backpressured(&hw, 0), "empty queue: no pressure");
        // Five offers a few ns apart: the worker pulls exactly one into
        // service (~476 µs of work) during the catch-up after the first
        // offer, so four completions pile up in the ready ring.
        for i in 0..4u32 {
            eng.offer(&mut hw, &flow(0), &[0u8; 64], i as f64).unwrap();
        }
        assert!(
            !eng.backpressured(&hw, 0),
            "backlog below the shed threshold: no pressure yet"
        );
        // The fifth offer fills the backlog to the threshold: the
        // signal flips, and the very next offer is shed exactly as the
        // signal promised.
        eng.offer(&mut hw, &flow(0), &[0u8; 64], 4.0).unwrap();
        assert!(
            eng.backpressured(&hw, 0),
            "backlog at the shed threshold must signal backpressure"
        );
        let err = eng.offer(&mut hw, &flow(0), &[0u8; 64], 5.0).unwrap_err();
        assert_eq!(err, Rejection::Shed(ShedCause::QueueDepth));
        eng.drain(&mut hw);
        let (rep, _) = eng.finish(&mut hw);
        assert_eq!(rep.admit.depth_shed, 1);
        assert_eq!(rep.delivered, 5);
    }

    #[test]
    fn tx_stall_window_sheds_processed_frames() {
        let (mut m, mut pool, mut port) = setup(1, 64);
        let mut policy = rte::nic::FixedHeadroom(128);
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: &mut policy,
        };
        let mut eng = Engine::new(
            echo_apps(100, 1),
            EngineConfig {
                workers: WorkerSpec::run_to_completion(1),
                queue_depth: 64,
                burst: 8,
                faults: FaultPlan::none().with_tx_stall(rte::fault::Window::new(100_000, 300_000)),
                execution: Execution::Serial,
                admission: AdmissionPolicy::AcceptAll,
                scheduler: Scheduler::default(),
            },
            &mut hw,
        );
        let before = hw.pool.available();
        for i in 0..100u32 {
            let t = i as f64 * 5_000.0; // 0..500 µs, spanning the window.
            eng.offer(&mut hw, &flow(3), &[0u8; 64], t).unwrap();
        }
        eng.drain(&mut hw);
        let (rep, _) = eng.finish(&mut hw);
        assert!(rep.nic.tx_stall > 0, "the stall window must bite");
        assert_eq!(rep.delivered + rep.nic.tx_stall, 100);
        assert_eq!(
            hw.pool.available(),
            before,
            "stalled frames' buffers are recycled, not leaked"
        );
    }

    #[test]
    fn per_queue_stall_degrades_only_its_queue() {
        let (mut m, mut pool, mut port) = setup(4, 64);
        let mut policy = rte::nic::FixedHeadroom(128);
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: &mut policy,
        };
        let mut eng = Engine::new(
            echo_apps(200, 4),
            EngineConfig {
                workers: WorkerSpec::run_to_completion(4),
                queue_depth: 64,
                burst: 16,
                faults: FaultPlan::none()
                    .with_queue_rx_stall(1, rte::fault::Window::new(0, u64::MAX)),
                execution: Execution::Serial,
                admission: AdmissionPolicy::AcceptAll,
                scheduler: Scheduler::default(),
            },
            &mut hw,
        );
        for i in 0..800u32 {
            let t = i as f64 * 2_000.0;
            let _ = eng.offer(&mut hw, &flow(i), &[0u8; 64], t);
        }
        eng.drain(&mut hw);
        let (rep, _) = eng.finish(&mut hw);
        assert!(rep.per_queue[1].offered > 0, "RSS spreads to queue 1");
        assert_eq!(
            rep.per_queue[1].nic.rx_stall, rep.per_queue[1].offered,
            "queue 1 loses everything"
        );
        assert_eq!(rep.per_queue[1].delivered, 0);
        for q in [0, 2, 3] {
            assert_eq!(
                rep.per_queue[q].delivered, rep.per_queue[q].offered,
                "queue {q} must be untouched"
            );
        }
    }

    #[test]
    fn clock_is_monotone_across_offers() {
        let (mut m, mut pool, mut port) = setup(1, 32);
        let mut policy = rte::nic::FixedHeadroom(128);
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: &mut policy,
        };
        let mut eng = Engine::new(
            echo_apps(500, 1),
            EngineConfig {
                workers: WorkerSpec::run_to_completion(1),
                queue_depth: 32,
                burst: 8,
                faults: FaultPlan::none(),
                execution: Execution::Serial,
                admission: AdmissionPolicy::AcceptAll,
                scheduler: Scheduler::default(),
            },
            &mut hw,
        );
        let mut prev = 0.0;
        for i in 0..300u32 {
            let t = i as f64 * 700.0;
            let _ = eng.offer(&mut hw, &flow(1), &[0u8; 64], t);
            let now = eng.now_ns();
            assert!(now >= prev, "clock went backwards: {now} < {prev}");
            prev = now;
        }
    }

    #[test]
    #[should_panic(expected = "polled by two workers")]
    fn double_polling_a_queue_is_rejected() {
        let (mut m, mut pool, mut port) = setup(1, 32);
        let mut policy = rte::nic::FixedHeadroom(128);
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: &mut policy,
        };
        let _ = Engine::new(
            echo_apps(1, 2),
            EngineConfig {
                workers: vec![
                    WorkerSpec {
                        core: 0,
                        queue: Some(0),
                    },
                    WorkerSpec {
                        core: 1,
                        queue: Some(0),
                    },
                ],
                queue_depth: 32,
                burst: 8,
                faults: FaultPlan::none(),
                execution: Execution::Serial,
                admission: AdmissionPolicy::AcceptAll,
                scheduler: Scheduler::default(),
            },
            &mut hw,
        );
    }

    #[test]
    #[should_panic(expected = "driven by two workers")]
    fn sharing_a_core_is_rejected() {
        let (mut m, mut pool, mut port) = setup(2, 32);
        let mut policy = rte::nic::FixedHeadroom(128);
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: &mut policy,
        };
        let _ = Engine::new(
            echo_apps(1, 2),
            EngineConfig {
                workers: vec![
                    WorkerSpec {
                        core: 0,
                        queue: Some(0),
                    },
                    WorkerSpec {
                        core: 0,
                        queue: Some(1),
                    },
                ],
                queue_depth: 32,
                burst: 8,
                faults: FaultPlan::none(),
                execution: Execution::Serial,
                admission: AdmissionPolicy::AcceptAll,
                scheduler: Scheduler::default(),
            },
            &mut hw,
        );
    }
}
