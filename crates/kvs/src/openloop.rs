//! Open-loop KVS serving with deadlines, admission control, and
//! deadline-aware client retries.
//!
//! The closed loop in [`crate::server`] measures server capacity: the
//! clients refill every queue as fast as the server drains it, so
//! offered load always equals service rate. This module runs the
//! *open-loop* experiment instead — arrivals come from an external
//! schedule ([`trafficgen::Arrivals`]: Poisson, burst trains, flash
//! crowds) that does not care what the server absorbs, which is what
//! creates genuine overload and the fig15-style goodput knee.
//!
//! On top of the engine's admission layer this adds the client half of
//! an overload-resilient serving stack:
//!
//! - every logical operation carries an absolute wire deadline
//!   ([`crate::proto::write_deadline`]); the server drops
//!   expired-on-arrival requests before the store access, and the
//!   engine's `DeadlineInfeasible` policy can shed them at ingress;
//! - the client runs a timeout → exponential-backoff → bounded-retry
//!   loop. A timed-out attempt is retried with the *same* absolute
//!   deadline; the backoff doubles per attempt and doubles again when
//!   the engine reports backpressure on the target queue; the client
//!   gives up once the deadline itself has passed or the attempt budget
//!   is spent (retrying a request that can no longer meet its deadline
//!   only deepens the overload);
//! - one logical operation is *N* physical packets. The report keeps
//!   both ledgers and [`OpenLoopReport::assert_conservation`] ties them
//!   together: `completed + gave_up == logical_ops` on the logical
//!   side, and the engine's packet conservation identity on the
//!   physical side, with every retransmission, shed, NIC drop, server
//!   drop and duplicate (late) response accounted.
//!
//! # Completion matching
//!
//! The wire format carries no request ID, so the client matches
//! responses to attempts by FIFO order: the engine delivers each
//! queue's accepted frames to its worker in ring order, and the worker
//! logs one outcome per delivered frame in processing order. Matching
//! the per-queue outcome log against the per-queue FIFO of accepted
//! attempts is therefore exact — *provided every accepted frame
//! produces exactly one outcome*. All NIC losses in this model are
//! synchronous at offer time except the TX-stall fault, which loses a
//! frame *after* it was served; [`run_openloop_streaming`] rejects fault
//! plans with TX-stall windows for this reason (asserted up front).

use crate::proto::{RequestGen, REQUEST_SIZE};
use crate::server::{flow_for_queue, serve_packet, Served, ServedCounts, ServerDrops};
use crate::store::KvStore;
use engine::{
    time_key, time_of_key, AdmissionPolicy, AdmitDrops, Ctx, DelayedQueue, Engine, EngineConfig,
    Execution, Hw, QueueApp, Scheduler, Verdict, WorkerSpec,
};
use llc_sim::machine::Machine;
use rte::fault::FaultPlan;
use rte::mempool::MbufPool;
use rte::nic::{HeadroomPolicy, Port, RxCompletion};
use std::collections::VecDeque;
use trafficgen::{Arrivals, FlowTuple, ZipfConstants, ZipfGen};

/// Where completed-op latency records go, one call per completion.
///
/// A `Vec<(f64, f64)>` keeps every record — exact, but O(completions)
/// memory. Million-request figure runs pass a bounded sink instead
/// (e.g. one `xstats::LogHist` per queue), so the report path holds no
/// per-request `Vec` at any scale.
///
/// Calls arrive in the engine's deterministic processing order —
/// identical in serial and parallel execution — so any deterministic
/// sink yields bit-identical figures across execution modes.
pub trait CompletionSink {
    /// One completed logical op: the RX queue that served it, the
    /// completion timestamp (when the server transmitted the response;
    /// delivery in this NIC model is immediate), and the latency from
    /// the op's *first* attempt — a retried op pays its timeouts.
    fn record(&mut self, queue: usize, completion_ns: f64, latency_ns: f64);
}

/// Keeps every record as `(completion time ns, latency ns)`, in the
/// order the sink sees them.
impl CompletionSink for Vec<(f64, f64)> {
    fn record(&mut self, _queue: usize, completion_ns: f64, latency_ns: f64) {
        self.push((completion_ns, latency_ns));
    }
}

/// Zipf skew of the clients' key popularity.
const ZIPF_THETA: f64 = 0.99;

/// Open-loop run configuration. Arrival *timing* comes from the
/// [`Arrivals`] implementation passed to [`run_openloop_streaming`];
/// this struct holds everything else.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Serving cores: core *i* polls RX queue *i*.
    pub cores: usize,
    /// PMD burst size.
    pub burst: usize,
    /// RX descriptor ring depth (per queue).
    pub queue_depth: usize,
    /// Logical operations the client issues (each may take several
    /// physical attempts).
    pub(crate) logical_ops: usize,
    /// GET ratio in permille (1000 = 100 % GET).
    pub get_permille: u32,
    /// RNG seed (request streams; arrival seeds live in the generator).
    pub seed: u64,
    /// Relative deadline per logical op in ns ([`f64::INFINITY`] = no
    /// deadline). The absolute wire deadline is the op's first arrival
    /// time plus this; retries carry the *same* absolute deadline.
    pub(crate) deadline_ns: f64,
    /// Base client timeout before the first retry; attempt *k* waits
    /// `timeout_ns × 2^(k-1)`, doubled again under backpressure.
    pub(crate) timeout_ns: f64,
    /// Physical attempts per logical op (1 = never retry). Must be ≥ 1.
    pub(crate) max_attempts: u32,
    /// Ingress admission policy (the server side of overload control).
    pub(crate) admission: AdmissionPolicy,
    /// Fault plan. Must not contain TX-stall windows (see module docs).
    pub(crate) faults: FaultPlan,
    /// Serial (reference) or parallel worker execution; reports are
    /// bit-identical either way.
    pub execution: Execution,
}

impl OpenLoopConfig {
    /// Baseline: one core, no deadline, no retries, accept-all
    /// admission, no faults.
    pub fn new(logical_ops: usize, seed: u64) -> Self {
        Self {
            cores: 1,
            burst: 32,
            queue_depth: 256,
            logical_ops,
            get_permille: 900,
            seed,
            deadline_ns: f64::INFINITY,
            timeout_ns: 50_000.0,
            max_attempts: 1,
            admission: AdmissionPolicy::AcceptAll,
            faults: FaultPlan::none(),
            execution: Execution::Serial,
        }
    }

    /// The same configuration on `cores` serving cores.
    #[must_use]
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// The same configuration with a per-op relative deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline_ns: f64) -> Self {
        self.deadline_ns = deadline_ns;
        self
    }

    /// The same configuration with a retry budget: base timeout and
    /// total attempts per op.
    ///
    /// # Panics
    ///
    /// Panics when `max_attempts` is 0 or the timeout is not positive.
    #[must_use]
    pub fn with_retries(mut self, timeout_ns: f64, max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "an op always gets its first attempt");
        assert!(
            timeout_ns > 0.0 && timeout_ns.is_finite(),
            "client timeout must be positive and finite"
        );
        self.timeout_ns = timeout_ns;
        self.max_attempts = max_attempts;
        self
    }

    /// The same configuration with an ingress admission policy.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// The same configuration with a fault plan applied.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The same configuration with the given execution mode.
    #[must_use]
    pub fn with_execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }
}

/// What an open-loop run reports: the logical-op ledger and the physical
/// packet ledger. The completion records went to the run's
/// [`CompletionSink`].
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopReport {
    /// Logical operations issued (`== cfg.logical_ops`).
    pub logical_ops: u64,
    /// Logical ops that received a response in time to count (first
    /// response for an op that had not given up).
    pub completed: u64,
    /// Logical ops the client abandoned: attempt budget spent or the
    /// deadline passed with no response.
    pub gave_up: u64,
    /// Responses that arrived for an op that had already completed (a
    /// duplicate from a retransmitted attempt) or already given up.
    pub(crate) late: u64,
    /// Physical attempts offered to the NIC (`logical_ops + retries`).
    pub offered: u64,
    /// Attempts the NIC accepted into a descriptor (each produced
    /// exactly one server-side outcome).
    pub(crate) accepted: u64,
    /// Attempts rejected synchronously at offer: NIC drops plus
    /// admission sheds.
    pub(crate) rejected: u64,
    /// Physical retransmissions (attempts beyond each op's first).
    pub retries: u64,
    /// Responses the server transmitted (`completed + late`).
    pub delivered: u64,
    /// GETs among the served requests.
    pub gets: u64,
    /// Server-side drop ledger: NIC causes plus parse failures plus
    /// expired-on-arrival.
    pub drops: ServerDrops,
    /// Ingress admission sheds, by cause.
    pub admit: AdmitDrops,
    /// Simulated run duration (from the engine report).
    pub(crate) duration_ns: f64,
}

impl OpenLoopReport {
    /// Goodput: completed logical ops per second of simulated time.
    pub fn goodput_ops_per_s(&self) -> f64 {
        if self.duration_ns <= 0.0 {
            0.0
        } else {
            self.completed as f64 / (self.duration_ns / 1e9)
        }
    }

    /// Asserts the extended conservation identities that tie the
    /// logical ledger to the physical one. [`run_openloop_streaming`]
    /// calls this before returning; tests re-call it on stored reports.
    ///
    /// # Panics
    ///
    /// Panics when any identity fails.
    pub fn assert_conservation(&self) {
        assert_eq!(
            self.completed + self.gave_up,
            self.logical_ops,
            "every logical op must complete or give up"
        );
        assert_eq!(
            self.offered,
            self.logical_ops + self.retries,
            "physical attempts are first tries plus retries"
        );
        assert_eq!(
            self.offered,
            self.accepted + self.rejected,
            "every attempt is accepted or rejected synchronously"
        );
        assert_eq!(
            self.rejected,
            self.drops.nic.total() + self.admit.total(),
            "rejections are exactly the NIC drops plus admission sheds"
        );
        assert_eq!(
            self.accepted,
            self.delivered + self.drops.malformed + self.drops.truncated + self.drops.expired,
            "every accepted attempt was served or dropped server-side"
        );
        assert_eq!(
            self.delivered,
            self.completed + self.late,
            "every transmitted response completed an op or arrived late"
        );
    }
}

/// What the server tells the client about one delivered frame, in
/// processing (FIFO) order. `Served::Ok` means a response went out;
/// everything else is a silent server-side drop the client can only
/// discover by timeout.
struct OpenLoopApp<'s> {
    store: &'s KvStore,
    counts: ServedCounts,
    /// One entry per delivered frame, in processing order:
    /// `(serve-time ns, outcome)`. Drained by the client between engine
    /// steps and matched against its per-queue attempt FIFO.
    outcomes: Vec<(f64, Served)>,
}

impl QueueApp for OpenLoopApp<'_> {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, comp: &RxCompletion) -> Verdict {
        let (outcome, _) = serve_packet(self.store, None, ctx, comp);
        self.outcomes.push((ctx.wall_ns(), outcome));
        self.counts.tally(outcome, comp)
    }
}

/// A client-side virtual-time event: the next schedule arrival, or one
/// op's retry/deadline timer firing. Both ride the engine's
/// [`DelayedQueue`]; same-time ties resolve by sub-priority — arrivals
/// (sub 0) before timers (sub `1 + op`), timers in op order — exactly
/// the order the former two-queue merge produced.
enum ClientEvent {
    /// The arrival the generator's [`Arrivals::peek_next_ns`] promised.
    /// Consuming it draws the arrival and schedules the next peek.
    Arrival,
    /// Op `id`'s retry timer (or its give-up check once the deadline or
    /// attempt budget is spent). Stale once the op resolved.
    Retry(usize),
}

/// One logical operation's client-side state.
struct OpState {
    queue: usize,
    req: crate::proto::KvRequest,
    /// First attempt's arrival time (latency is measured from here).
    first_ns: f64,
    /// Absolute deadline (`f64::INFINITY` when the run has none).
    deadline_ns: f64,
    attempts: u32,
    done: bool,
    gave_up: bool,
}

/// Client bookkeeping shared by the arrival and timeout paths.
struct Client {
    /// Per queue: the client flow RSS steers to that queue.
    flows: Vec<FlowTuple>,
    /// The request frame being encoded.
    frame: Vec<u8>,
    /// Sequence number of the next frame.
    seq: u64,
    ops: Vec<OpState>,
    /// Per queue: op indices of accepted attempts, in offer order —
    /// the FIFO the outcome log is matched against.
    pending: Vec<VecDeque<usize>>,
    /// The client's virtual-time event queue: the promised next arrival
    /// plus every armed retry timer, keyed on integer time
    /// ([`time_key`]). Stale timers (op already done/given up) are
    /// dropped lazily at pop.
    events: DelayedQueue<ClientEvent>,
    offered: u64,
    accepted: u64,
    rejected: u64,
    completed: u64,
    gave_up: u64,
    late: u64,
}

impl Client {
    /// Offers one physical attempt for op `id` at time `t` and arms its
    /// retry timer. The timer always fires — even for a rejected
    /// attempt the client waits out the backoff (that is the point of
    /// backpressure) instead of hammering the ingress filter.
    fn issue<A: QueueApp>(
        &mut self,
        eng: &mut Engine<A>,
        hw: &mut Hw<'_>,
        cfg: &OpenLoopConfig,
        id: usize,
        t: f64,
    ) {
        let op = &mut self.ops[id];
        op.attempts += 1;
        let attempt = op.attempts;
        let q = op.queue;
        let frame = &mut self.frame;
        nfv::packet::encode_frame(frame, &self.flows[q], REQUEST_SIZE, t, self.seq);
        self.seq += 1;
        crate::proto::write_request(frame, &op.req);
        if op.deadline_ns.is_finite() {
            crate::proto::write_deadline(frame, op.deadline_ns);
        }
        let deadline = op.deadline_ns;
        self.offered += 1;
        match eng.offer_with_deadline(hw, &self.flows[q], frame, t, deadline) {
            Ok(_) => {
                self.accepted += 1;
                self.pending[q].push_back(id);
            }
            Err(_) => self.rejected += 1,
        }
        // Exponential backoff, doubled again while the engine signals
        // backpressure on this op's queue. The exponent is clamped: at
        // 2^30 × timeout the timer is already astronomically past any
        // deadline, and further doubling would only risk overflow.
        let mut backoff = cfg.timeout_ns * f64::powi(2.0, attempt.min(30) as i32 - 1);
        if eng.backpressured(hw, q) {
            backoff *= 2.0;
        }
        self.events
            .push_sub(time_key(t + backoff), 1 + id as u64, ClientEvent::Retry(id));
    }

    /// Matches drained server outcomes against the per-queue attempt
    /// FIFOs, streaming each completion to the sink.
    fn absorb(
        &mut self,
        q: usize,
        log: impl Iterator<Item = (f64, Served)>,
        sink: &mut dyn CompletionSink,
    ) {
        for (t, outcome) in log {
            let id = self.pending[q]
                .pop_front()
                .expect("an outcome implies an accepted attempt at this queue's FIFO head");
            if let Served::Ok { .. } = outcome {
                let op = &mut self.ops[id];
                if op.done || op.gave_up {
                    self.late += 1;
                } else {
                    op.done = true;
                    self.completed += 1;
                    sink.record(q, t, t - op.first_ns);
                }
            }
            // Server-side drops produce no response; the client only
            // learns of them through its timeout.
        }
    }
}

/// Drains every worker's outcome log into the client. Worker order is
/// fixed, outcome order within a worker is the engine's deterministic
/// processing order, and matching is per-queue — so the client's state
/// evolution is bit-identical in serial and parallel execution.
fn drain_outcomes(
    eng: &mut Engine<OpenLoopApp<'_>>,
    client: &mut Client,
    cores: usize,
    sink: &mut dyn CompletionSink,
) {
    for w in 0..cores {
        // Drained in place, so the log keeps its buffer for the next
        // epochs.
        client.absorb(w, eng.app_mut(w).outcomes.drain(..), sink);
    }
}

/// Runs the open-loop benchmark: `cfg.logical_ops` operations arriving
/// on `arrivals`' schedule, spread round-robin over the queues, each
/// carrying a deadline and retried by the client per `cfg`. Every
/// completed op's record goes to `sink` (a `Vec<(f64, f64)>` keeps them
/// all; one streaming quantile sketch per queue keeps the report path
/// O(sketch) at any scale).
///
/// # Panics
///
/// Panics when the port's queue count does not match `cfg.cores`, a
/// ready ring is not empty (open-loop matching needs a fresh port), the
/// fault plan contains TX-stall windows, or a conservation identity
/// fails at the end.
#[allow(clippy::too_many_arguments)]
pub fn run_openloop_streaming(
    m: &mut Machine,
    store: &KvStore,
    pool: &mut MbufPool,
    port: &mut Port,
    policy: &mut dyn HeadroomPolicy,
    arrivals: &mut dyn Arrivals,
    cfg: &OpenLoopConfig,
    sink: &mut dyn CompletionSink,
) -> OpenLoopReport {
    let cores = cfg.cores;
    assert!(cores > 0, "no serving cores");
    assert!(cfg.max_attempts >= 1, "an op always gets its first attempt");
    assert_eq!(port.num_queues(), cores, "one RX queue per serving core");
    assert!(
        cfg.faults.tx_stall.is_empty(),
        "open-loop completion matching requires a plan without TX-stall \
         windows (a TX-stalled frame is served but produces no response, \
         which would desynchronize the FIFO match; see module docs)"
    );
    for q in 0..cores {
        assert_eq!(
            port.ready_count(q),
            0,
            "queue {q}: open-loop matching needs a fresh port (carried \
             completions would sit at the FIFO head with no known attempt)"
        );
    }

    let base = FlowTuple::tcp(0x0a00_0001, 40_000, 0xc0a8_0001, 11211);
    let flows: Vec<FlowTuple> = (0..cores).map(|q| flow_for_queue(port, base, q)).collect();
    let n_keys = store.len() as u64;
    // One set of Zipf constants for all queues: the O(n) zeta setup
    // runs once, each per-queue generator reuses it (bit-identical to
    // recomputing — pinned in trafficgen::zipf).
    let zc = ZipfConstants::shared((n_keys / cores as u64).max(1), ZIPF_THETA);
    let mut gens: Vec<RequestGen> = (0..cores)
        .map(|q| {
            let keygen = ZipfGen::from_constants(&zc, cfg.seed ^ (0x5eed + q as u64));
            RequestGen::new(keygen, cfg.get_permille, cfg.seed ^ (0xc11e + q as u64))
                .with_flow(flows[q])
                .with_key_partition(cores as u32, q as u32)
        })
        .collect();

    let apps: Vec<OpenLoopApp<'_>> = (0..cores)
        .map(|_| OpenLoopApp {
            store,
            counts: ServedCounts::default(),
            outcomes: Vec::new(),
        })
        .collect();
    let ecfg = EngineConfig {
        workers: WorkerSpec::run_to_completion(cores),
        queue_depth: cfg.queue_depth,
        burst: cfg.burst,
        faults: cfg.faults.clone(),
        execution: cfg.execution,
        admission: cfg.admission,
        scheduler: Scheduler::default(),
    };
    let mut hw = Hw {
        m,
        port,
        pool,
        policy,
    };
    let mut eng = Engine::new(apps, ecfg, &mut hw);

    let mut client = Client {
        flows,
        frame: vec![0u8; REQUEST_SIZE],
        seq: 0,
        ops: Vec::with_capacity(cfg.logical_ops),
        pending: vec![VecDeque::new(); cores],
        events: DelayedQueue::new(),
        offered: 0,
        accepted: 0,
        rejected: 0,
        completed: 0,
        gave_up: 0,
        late: 0,
    };
    let mut issued = 0usize;
    if cfg.logical_ops > 0 {
        // The generator always knows its next timestamp without
        // consuming it; promise that arrival as an event. Each consumed
        // arrival re-promises the next, so exactly one Arrival event is
        // ever pending.
        client
            .events
            .push(time_key(arrivals.peek_next_ns()), ClientEvent::Arrival);
    }

    // Event loop: one shared virtual-time queue interleaves the arrival
    // schedule with the retry timers in global time order (arrivals win
    // ties by sub-priority, deterministically).
    while let Some((key, ev)) = client.events.pop() {
        match ev {
            ClientEvent::Arrival => {
                // New logical op.
                let ta = arrivals.next_arrival_ns();
                debug_assert_eq!(time_key(ta), key, "peek promised a different time");
                let q = issued % cores;
                let req = gens[q].next_request();
                let deadline = if cfg.deadline_ns.is_finite() {
                    ta + cfg.deadline_ns
                } else {
                    f64::INFINITY
                };
                client.ops.push(OpState {
                    queue: q,
                    req,
                    first_ns: ta,
                    deadline_ns: deadline,
                    attempts: 0,
                    done: false,
                    gave_up: false,
                });
                let id = client.ops.len() - 1;
                client.issue(&mut eng, &mut hw, cfg, id, ta);
                issued += 1;
                if issued < cfg.logical_ops {
                    client
                        .events
                        .push(time_key(arrivals.peek_next_ns()), ClientEvent::Arrival);
                }
            }
            ClientEvent::Retry(id) => {
                // Retry timer. An op already resolved needs no engine
                // catch-up (running to a stale timer's horizon would
                // charge idle time to the run); otherwise catch the
                // engine up to the timer, so a response already served
                // by now marks the op done before the client
                // retransmits or gives up.
                let te = time_of_key(key);
                if client.ops[id].done || client.ops[id].gave_up {
                    continue; // Stale timer.
                }
                eng.run_until(&mut hw, te);
                drain_outcomes(&mut eng, &mut client, cores, sink);
                let op = &client.ops[id];
                if op.done || op.gave_up {
                    continue; // Resolved by the catch-up.
                }
                if op.attempts >= cfg.max_attempts || te >= op.deadline_ns {
                    // Budget spent, or even an instant retry could no
                    // longer beat the deadline: stop amplifying
                    // overload.
                    let op = &mut client.ops[id];
                    op.gave_up = true;
                    client.gave_up += 1;
                } else {
                    client.issue(&mut eng, &mut hw, cfg, id, te);
                }
            }
        }
        drain_outcomes(&mut eng, &mut client, cores, sink);
    }
    eng.drain(&mut hw);
    drain_outcomes(&mut eng, &mut client, cores, sink);
    for (q, fifo) in client.pending.iter().enumerate() {
        assert!(
            fifo.is_empty(),
            "queue {q}: {} accepted attempts never produced an outcome",
            fifo.len()
        );
    }

    let (rep, apps) = eng.finish(&mut hw);
    assert_eq!(rep.in_flight, 0, "drained run leaves nothing in flight");
    assert_eq!(rep.carried, 0, "fresh port carries nothing in");
    let counts: ServedCounts = apps.iter().map(|a| a.counts).sum();
    debug_assert_eq!(
        rep.app_drops,
        counts.malformed + counts.truncated + counts.expired
    );
    let report = OpenLoopReport {
        logical_ops: issued as u64,
        completed: client.completed,
        gave_up: client.gave_up,
        late: client.late,
        offered: rep.offered,
        accepted: client.accepted,
        rejected: client.rejected,
        retries: client.offered - issued as u64,
        delivered: rep.delivered,
        gets: counts.gets,
        drops: counts.drops(rep.nic),
        admit: rep.admit,
        duration_ns: rep.duration_ns,
    };
    assert_eq!(
        report.offered, client.offered,
        "client and engine count the same physical attempts"
    );
    report.assert_conservation();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Placement;
    use llc_sim::machine::MachineConfig;
    use rte::fault::Window;
    use rte::nic::FixedHeadroom;
    use rte::steering::{Rss, Steering};
    use slice_aware::alloc::SliceAllocator;
    use trafficgen::OpenLoopGen;

    /// One run on a fresh machine, store and port; returns the report
    /// and every completion record.
    fn run(cfg: &OpenLoopConfig, arrivals: &mut dyn Arrivals) -> (OpenLoopReport, Vec<(f64, f64)>) {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(256 << 20));
        let region = m.mem_mut().alloc(16 << 20, 1 << 20).unwrap();
        let mut alloc = SliceAllocator::new(region, m.slice_oracle());
        let store = KvStore::build(&mut m, &mut alloc, 4096, Placement::Normal).unwrap();
        let mut pool = MbufPool::create(&mut m, 4096, 128, 2048).unwrap();
        let mut port = Port::new(0, Steering::Rss(Rss::new(cfg.cores)), cfg.queue_depth);
        let mut policy = FixedHeadroom(128);
        let mut records = Vec::new();
        let rep = run_openloop_streaming(
            &mut m,
            &store,
            &mut pool,
            &mut port,
            &mut policy,
            arrivals,
            cfg,
            &mut records,
        );
        (rep, records)
    }

    #[test]
    fn unloaded_run_completes_every_op_without_retries() {
        let cfg = OpenLoopConfig::new(500, 7).with_retries(1e6, 4);
        let mut arr = OpenLoopGen::constant(1e5); // 10 µs gaps: idle server.
        let (rep, records) = run(&cfg, &mut arr);
        assert_eq!(rep.completed, 500);
        assert_eq!(rep.gave_up, 0);
        assert_eq!(rep.retries, 0);
        assert_eq!(rep.late, 0);
        assert!(rep.goodput_ops_per_s() > 0.0);
        assert_eq!(records.len(), 500);
        rep.assert_conservation();
    }

    #[test]
    fn overload_with_shedding_and_retries_conserves_and_matches_parallel() {
        // 1 ns gaps on one core: hopeless overload. Depth shedding keeps
        // the queue bounded; the client retries into the storm and must
        // still reconcile exactly — in both execution modes,
        // bit-identically.
        let cfg = OpenLoopConfig::new(3000, 11)
            .with_admission(AdmissionPolicy::QueueDepth { max_backlog: 32 })
            .with_retries(500.0, 3);
        let mut a1 = OpenLoopGen::constant(1e9);
        let (serial, serial_records) = run(&cfg, &mut a1);
        let mut a2 = OpenLoopGen::constant(1e9);
        let (parallel, parallel_records) = run(
            &cfg.clone()
                .with_execution(Execution::Parallel { threads: 2 }),
            &mut a2,
        );
        assert!(serial.admit.depth_shed > 0, "overload must shed");
        assert!(serial.retries > 0, "rejected attempts must be retried");
        assert!(serial.gave_up > 0, "a bounded budget must give up");
        serial.assert_conservation();
        assert_eq!(serial_records.len() as u64, serial.completed);
        assert_eq!(serial, parallel, "execution modes diverged");
        assert_eq!(
            serial_records, parallel_records,
            "completion records diverged"
        );
    }

    #[test]
    fn tight_deadlines_expire_or_shed_and_gave_up_counts() {
        // Deadlines shorter than the backlog drain time: the deadline
        // policy sheds at ingress and the server expires what slips
        // through; the client gives up rather than retry past the
        // deadline.
        let cfg = OpenLoopConfig::new(2000, 13)
            .with_deadline(2_000.0)
            .with_admission(AdmissionPolicy::DeadlineInfeasible {
                est_service_ns: 120.0,
            })
            .with_retries(300.0, 4);
        let mut arr = OpenLoopGen::constant(5e8); // 2 ns gaps.
        let (rep, _) = run(&cfg, &mut arr);
        assert!(
            rep.admit.deadline_shed > 0 || rep.drops.expired > 0,
            "tight deadlines must surface as sheds or expiries: {rep:?}"
        );
        assert!(rep.gave_up > 0);
        rep.assert_conservation();
    }

    #[test]
    fn hair_trigger_timeouts_produce_late_duplicate_responses() {
        // Mild overload with no shedding: the backlog grows, queueing
        // delay blows past the client timeout, and retransmitted ops'
        // original attempts still complete — the duplicate responses
        // are counted late, never double-completed.
        let cfg = OpenLoopConfig::new(800, 17).with_retries(500.0, 3);
        let mut arr = OpenLoopGen::constant(2e7); // 50 ns gaps.
        let (rep, _) = run(&cfg, &mut arr);
        assert!(rep.retries > 0, "hair-trigger timeouts must retransmit");
        assert!(rep.late > 0, "duplicates must surface as late responses");
        assert_eq!(rep.delivered, rep.completed + rep.late);
        rep.assert_conservation();
    }

    #[test]
    fn multi_core_open_loop_conserves_under_faults() {
        let cfg = OpenLoopConfig::new(2000, 19)
            .with_cores(4)
            .with_admission(AdmissionPolicy::QueueDepth { max_backlog: 64 })
            .with_retries(2_000.0, 3)
            .with_faults(
                FaultPlan::none()
                    .with_seed(5)
                    .with_corrupt_prob(0.02)
                    .with_link_flap(Window::new(10_000, 20_000)),
            );
        let mut arr = OpenLoopGen::poisson(2e7, 23);
        let (rep, _) = run(&cfg, &mut arr);
        assert!(rep.drops.nic.crc > 0, "corruption must surface");
        assert!(rep.drops.nic.link_down > 0, "flap must surface");
        assert!(rep.completed > 0);
        rep.assert_conservation();
    }

    #[test]
    #[should_panic(expected = "TX-stall")]
    fn tx_stall_plans_are_rejected() {
        let cfg = OpenLoopConfig::new(10, 1)
            .with_faults(FaultPlan::none().with_tx_stall(Window::new(0, 100)));
        let mut arr = OpenLoopGen::constant(1e6);
        run(&cfg, &mut arr);
    }
}
