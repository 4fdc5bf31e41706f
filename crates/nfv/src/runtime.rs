//! The testbed runtime: LoadGen → DuT → LoadGen (paper §5, Fig. 11).
//!
//! An event-driven simulation of the paper's measurement setup. The
//! LoadGen emits frames on a constant-rate schedule (Table 2); the DuT
//! runs one run-to-completion polling loop per core over its NIC queue;
//! end-to-end latency is `completion − arrival` per packet, with the
//! constant loopback component kept separate exactly like the paper
//! ("we removed the minimum value of the loopback latency from the
//! end-to-end latency").
//!
//! Time model: each DuT core has a *free-at* timestamp. Cores never run
//! ahead of the LoadGen clock, so queueing emerges naturally — a core
//! that is busy when frames arrive leaves them in the descriptor ring,
//! and once the ring's posted descriptors are exhausted the NIC drops
//! (`rx_nodesc`), which is the throughput ceiling of Table 3. All
//! per-packet work (driver metadata writes, header parses, table
//! lookups, TX doorbells) executes against the simulated machine, so
//! cycles — and therefore latency — respond to where packet headers sit
//! in the LLC, which is the effect CacheDirector exists to exploit.

use crate::element::{Action, DropCause, Pkt, ServiceChain};
use crate::elements::{LoadBalancer, MacSwap, Napt, Router};
use crate::lpm::{synth_routes, Lpm};
use crate::packet::encode_frame;
use cache_director::{CacheDirector, CACHEDIRECTOR_HEADROOM};
use engine::{
    AdmissionPolicy, Engine, EngineConfig, Execution, Hw, NicDrops, QueueApp, Scheduler, Verdict,
    WorkerSpec,
};
use llc_sim::machine::{Machine, MachineConfig};
use llc_sim::mem::MemError;
use rte::fault::FaultPlan;
use rte::mempool::MbufPool;
use rte::nic::{FixedHeadroom, HeadroomPolicy, Port, RxCompletion, TxDesc};
use rte::steering::{FdirAction, FlowDirector, Rss, Steering};
use std::sync::Arc;
use trafficgen::{ArrivalSchedule, CampusTrace, FlowTuple};

/// Why a testbed could not be assembled: some required structure did
/// not fit the simulated DRAM. Construction reports this instead of
/// panicking so experiment binaries can fail with a clear message.
#[derive(Debug)]
pub enum SetupError {
    /// `what` could not be allocated from simulated memory.
    Mem {
        /// The structure being allocated.
        what: &'static str,
        /// The underlying allocation failure.
        source: MemError,
    },
}

impl std::fmt::Display for SetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Mem { what, source } => {
                write!(f, "cannot allocate {what}: {source}")
            }
        }
    }
}

impl std::error::Error for SetupError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Mem { source, .. } => Some(source),
        }
    }
}

pub(crate) fn mem_err(what: &'static str) -> impl FnOnce(MemError) -> SetupError {
    move |source| SetupError::Mem { what, source }
}

/// Per-cause drop accounting for a run. The conservation invariant
/// `offered == delivered + total()` holds for every finished run; the
/// engine asserts it (per queue and globally) when [`Testbed::finish`]
/// closes the run.
///
/// The NIC/driver causes are the shared [`engine::NicDrops`] core; the
/// chain-level causes are the NFV-specific software vocabulary stacked
/// on top.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropStats {
    /// NIC/driver drops (descriptor exhaustion, pool starvation, CRC,
    /// link, stalls, TX-path faults), as accounted by the engine.
    pub nic: NicDrops,
    /// Chain: header parse failure (truncated/malformed frame).
    pub parse: u64,
    /// Chain: no route for the destination.
    pub(crate) no_route: u64,
    /// Chain: a flow table was full.
    pub(crate) table_exhausted: u64,
    /// Chain: deliberate policy drop.
    pub(crate) policy: u64,
}

impl DropStats {
    /// Sum over every cause.
    pub fn total(&self) -> u64 {
        self.nic.total() + self.chain_total()
    }

    /// Sum over the chain-level (software) causes only.
    pub(crate) fn chain_total(&self) -> u64 {
        self.parse + self.no_route + self.table_exhausted + self.policy
    }
}

impl std::fmt::Display for DropStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} parse={} no_route={} table_exhausted={} policy={}",
            self.nic, self.parse, self.no_route, self.table_exhausted, self.policy
        )
    }
}

/// Which headroom policy the DuT's driver uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadroomMode {
    /// Stock DPDK: fixed 128 B headroom.
    Stock,
    /// DPDK + CacheDirector.
    CacheDirector {
        /// How many closest slices count as acceptable per core (1 on
        /// Haswell; 2-3 pays off on Skylake, Table 4).
        preferred_slices: usize,
    },
}

/// Which application the DuT runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainSpec {
    /// §5.1 simple forwarding (MacSwap).
    MacSwap,
    /// §5.2 stateful chain: Router → NAPT → LB.
    RouterNaptLb {
        /// Routing-table size (the paper uses 3120).
        routes: usize,
        /// Offload routing to the NIC via FlowDirector marks (Metron).
        offload: bool,
    },
}

/// RX steering mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteeringKind {
    /// Receive Side Scaling (Fig. 13).
    Rss,
    /// FlowDirector with round-robin flow placement (Fig. 14).
    FlowDirector,
}

/// Full experiment configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// DuT cores (and RX queues), 1..=8.
    pub cores: usize,
    /// RX steering.
    pub steering: SteeringKind,
    /// Application chain.
    pub chain: ChainSpec,
    /// Headroom policy.
    pub headroom: HeadroomMode,
    /// RX descriptors per queue.
    pub queue_depth: usize,
    /// PMD burst size.
    pub burst: usize,
    /// Mbuf pool size (0 = auto: `2 × cores × queue_depth`).
    pub mbufs: u32,
    /// Fixed per-packet framework cycles (FastClick/Metron bookkeeping;
    /// calibrated so the 8-core DuT saturates near the paper's ~76 Gbps,
    /// see EXPERIMENTS.md).
    pub framework_cycles: u64,
    /// Minimum loopback latency of the testbed in ns (the paper measures
    /// 9 µs at low rate and 495 µs at 100 Gbps; reported separately).
    pub loopback_ns: f64,
    /// NIC RX packet-rate ceiling in Mpps (None = unlimited). The paper's
    /// testbed tops out near 76 Gbps of campus mix ≈ 13.9 Mpps due to
    /// NIC/PCIe/DDIO limits (§5.1.2, Table 3).
    pub nic_rate_mpps: Option<f64>,
    /// RNG seed.
    pub seed: u64,
    /// Injected faults (default: none).
    pub faults: FaultPlan,
    /// Serial (reference) or parallel worker execution; results are
    /// bit-identical either way.
    pub execution: Execution,
}

impl RunConfig {
    /// The §5 defaults: 8 cores, 1024-descriptor queues, 32-burst.
    pub fn paper_defaults(
        chain: ChainSpec,
        steering: SteeringKind,
        headroom: HeadroomMode,
    ) -> Self {
        Self {
            cores: 8,
            steering,
            chain,
            headroom,
            queue_depth: 1024,
            burst: 32,
            mbufs: 0,
            framework_cycles: 1210,
            loopback_ns: 0.0,
            nic_rate_mpps: Some(14.2),
            seed: 0x0dfe_11ce,
            faults: FaultPlan::none(),
            execution: Execution::Serial,
        }
    }
}

/// Everything a finished run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-delivered-packet DuT latency in ns (completion − arrival),
    /// without the loopback component.
    pub latencies_ns: Vec<f64>,
    /// Frames the LoadGen offered.
    pub offered: u64,
    /// Frames the DuT transmitted back.
    pub delivered: u64,
    /// Frames dropped (NIC descriptor exhaustion + chain drops).
    pub dropped: u64,
    /// Per-cause drop accounting; `drops.total() == dropped` and
    /// `offered == delivered + dropped` always hold.
    pub drops: DropStats,
    /// Offered wire rate in Gbps.
    pub offered_gbps: f64,
    /// Achieved (TX) wire rate in Gbps.
    pub achieved_gbps: f64,
    /// Simulated duration in ns.
    pub duration_ns: f64,
    /// Loopback component to add for end-to-end numbers.
    pub(crate) loopback_ns: f64,
}

impl RunResult {
    /// Latency summary (percentiles + mean) without loopback.
    pub fn summary(&self) -> Option<xstats::Summary> {
        xstats::Summary::from_samples(self.latencies_ns.iter().copied())
    }

    /// Latency summary including the loopback component (Fig. 15 plots
    /// tail latency *with* loopback).
    pub fn summary_with_loopback(&self) -> Option<xstats::Summary> {
        xstats::Summary::from_samples(self.latencies_ns.iter().map(|l| l + self.loopback_ns))
    }
}

/// The per-packet half of the testbed: one [`ServiceChain`] per worker
/// instance, run under the engine's polling loop. Latency and
/// chain-cause drop accounting live here; the NIC-side ledger lives in
/// the engine. One `ChainApp` exists per worker so instances own their
/// state outright and can run on worker threads during parallel epochs.
struct ChainApp {
    chain: ServiceChain,
    framework_cycles: u64,
    latencies: Vec<f64>,
    parse: u64,
    no_route: u64,
    table_exhausted: u64,
    policy: u64,
}

impl ChainApp {
    fn count_chain(&mut self, cause: DropCause) {
        match cause {
            DropCause::Parse => self.parse += 1,
            DropCause::NoRoute => self.no_route += 1,
            DropCause::TableExhausted => self.table_exhausted += 1,
            DropCause::Policy => self.policy += 1,
        }
    }
}

impl QueueApp for ChainApp {
    fn on_packet(&mut self, ctx: &mut engine::Ctx<'_>, comp: &RxCompletion) -> Verdict {
        let mut pkt = Pkt::from_completion(comp);
        let action = {
            let mut ec = crate::element::Ctx {
                m: &mut *ctx.m,
                core: ctx.core,
            };
            let (action, _c) = self.chain.process(&mut ec, &mut pkt);
            action
        };
        ctx.m.advance(ctx.core, self.framework_cycles);
        match action {
            Action::Forward => {
                // Per-packet completion time, attributed as processing
                // ends.
                self.latencies.push(ctx.wall_ns() - comp.arrival_ns);
                Verdict::Tx(TxDesc::echo(comp))
            }
            Action::Drop(cause) => {
                self.count_chain(cause);
                Verdict::Drop
            }
        }
    }
}

/// The assembled DuT + LoadGen: hardware state plus an
/// [`engine::Engine`] running one [`ChainApp`] worker per core.
pub struct Testbed {
    cfg: RunConfig,
    m: Machine,
    pool: MbufPool,
    port: Port,
    policy: Box<dyn HeadroomPolicy>,
    engine: Engine<ChainApp>,
    lpm: Option<Arc<Lpm>>,
    seq: u64,
    scratch: Vec<u8>,
}

impl Testbed {
    /// Builds the DuT on a fresh Haswell machine.
    ///
    /// Returns [`SetupError`] when the configuration does not fit the
    /// simulated DRAM (pool, tables).
    ///
    /// # Panics
    ///
    /// Panics when `cores` is 0 or exceeds the machine, or the queue
    /// geometry is degenerate (constructor invariants).
    pub fn new(cfg: RunConfig) -> Result<Self, SetupError> {
        let mcfg = MachineConfig::haswell_e5_2667_v3().with_seed(cfg.seed);
        Self::on_machine(cfg, Machine::new(mcfg))
    }

    /// Builds the DuT on a provided machine (e.g. Skylake).
    pub fn on_machine(cfg: RunConfig, mut m: Machine) -> Result<Self, SetupError> {
        assert!(
            cfg.cores > 0 && cfg.cores <= m.config().cores,
            "bad core count"
        );
        assert!(cfg.burst > 0 && cfg.queue_depth > 0, "bad queue geometry");
        let mbufs = if cfg.mbufs == 0 {
            (2 * cfg.cores * cfg.queue_depth) as u32
        } else {
            cfg.mbufs
        };
        let headroom_cap = match cfg.headroom {
            HeadroomMode::Stock => rte::mbuf::DEFAULT_HEADROOM,
            HeadroomMode::CacheDirector { .. } => CACHEDIRECTOR_HEADROOM,
        };
        let mut pool = MbufPool::create(&mut m, mbufs, headroom_cap, rte::mbuf::DEFAULT_DATAROOM)
            .map_err(mem_err("mbuf pool"))?;
        let mut policy: Box<dyn HeadroomPolicy> = match cfg.headroom {
            HeadroomMode::Stock => Box::new(FixedHeadroom(rte::mbuf::DEFAULT_HEADROOM)),
            HeadroomMode::CacheDirector { preferred_slices } => {
                Box::new(CacheDirector::install(&mut m, &pool, preferred_slices, 0))
            }
        };
        let steering = match cfg.steering {
            SteeringKind::Rss => Steering::Rss(Rss::new(cfg.cores)),
            SteeringKind::FlowDirector => Steering::FlowDirector(FlowDirector::new(cfg.cores)),
        };
        let mut port = Port::new(0, steering, cfg.queue_depth);
        port.set_rx_rate_limit(cfg.nic_rate_mpps);
        // Build the chains.
        let (chains, lpm) = match cfg.chain {
            ChainSpec::MacSwap => {
                let chains = (0..cfg.cores)
                    .map(|_| ServiceChain::new().push(Box::new(MacSwap::new())))
                    .collect();
                (chains, None)
            }
            ChainSpec::RouterNaptLb { routes, .. } => {
                let lpm = Arc::new(
                    Lpm::build(&mut m, &synth_routes(routes, cfg.seed ^ 0x1007))
                        .map_err(mem_err("LPM table"))?,
                );
                let mut chains = Vec::with_capacity(cfg.cores);
                for _ in 0..cfg.cores {
                    // Per-core tables sized for the flow population; 8 K
                    // one-line buckets (512 KB) keep the hot buckets
                    // LLC-resident like a tuned NF would.
                    let napt = Napt::new(&mut m, 1 << 13).map_err(mem_err("NAPT table"))?;
                    let lb = LoadBalancer::new(
                        &mut m,
                        1 << 13,
                        vec![0x0a64_0001, 0x0a64_0002, 0x0a64_0003, 0x0a64_0004],
                    )
                    .map_err(mem_err("LB table"))?;
                    chains.push(
                        ServiceChain::new()
                            .push(Box::new(Router::new(Arc::clone(&lpm))))
                            .push(Box::new(napt))
                            .push(Box::new(lb)),
                    );
                }
                (chains, Some(lpm))
            }
        };
        let apps: Vec<ChainApp> = chains
            .into_iter()
            .map(|chain| ChainApp {
                chain,
                framework_cycles: cfg.framework_cycles,
                latencies: Vec::new(),
                parse: 0,
                no_route: 0,
                table_exhausted: 0,
                policy: 0,
            })
            .collect();
        let ecfg = EngineConfig {
            workers: WorkerSpec::run_to_completion(cfg.cores),
            queue_depth: cfg.queue_depth,
            burst: cfg.burst,
            faults: cfg.faults.clone(),
            execution: cfg.execution,
            admission: AdmissionPolicy::AcceptAll,
            scheduler: Scheduler::default(),
        };
        // The engine performs the initial descriptor posting.
        let engine = {
            let mut hw = Hw {
                m: &mut m,
                port: &mut port,
                pool: &mut pool,
                policy: policy.as_mut(),
            };
            Engine::new(apps, ecfg, &mut hw)
        };
        Ok(Self {
            seq: 0,
            scratch: vec![0u8; 2048],
            cfg,
            pool,
            policy,
            engine,
            lpm,
            m,
            port,
        })
    }

    /// The simulated machine (inspection).
    pub fn machine(&self) -> &Machine {
        &self.m
    }

    /// Offers one frame at `t_ns`; drops count toward the result.
    pub fn offer(&mut self, flow: &FlowTuple, size: u16, t_ns: f64) {
        // Metron's controller: give a new flow its round-robin queue and
        // re-install the rule with the routing decision as mark (control
        // plane, untimed). This runs before the engine routes the frame,
        // so the rule applies to it and a flow without a rule has never
        // been routed.
        if let ChainSpec::RouterNaptLb { offload: true, .. } = self.cfg.chain {
            if let Steering::FlowDirector(fd) = self.port.steering_mut() {
                if !fd.has_rule(flow) {
                    let queue = fd.action_for(flow).queue;
                    let mark = self
                        .lpm
                        .as_ref()
                        .and_then(|l| l.lookup_untimed(&self.m, flow.dst_ip))
                        .map(u32::from);
                    fd.set_rule(*flow, FdirAction { queue, mark });
                }
            }
        }
        let len = encode_frame(&mut self.scratch, flow, size as usize, t_ns, self.seq);
        self.seq += 1;
        // The engine draws the frame's faults, runs the workers to the
        // present, delivers through the NIC, and classifies any failure
        // into its per-queue ledger.
        let mut hw = Hw {
            m: &mut self.m,
            port: &mut self.port,
            pool: &mut self.pool,
            policy: self.policy.as_mut(),
        };
        let _ = self.engine.offer(&mut hw, flow, &self.scratch[..len], t_ns);
    }

    /// Drains all queues to completion and produces the result.
    pub fn finish(self) -> RunResult {
        let Testbed {
            cfg,
            mut m,
            mut pool,
            mut port,
            mut policy,
            mut engine,
            ..
        } = self;
        let mut hw = Hw {
            m: &mut m,
            port: &mut port,
            pool: &mut pool,
            policy: policy.as_mut(),
        };
        // Process everything still queued, then close the ledgers (the
        // engine asserts conservation per queue, globally, and against
        // the NIC's own counters).
        engine.drain(&mut hw);
        let (rep, apps) = engine.finish(&mut hw);
        assert_eq!(rep.in_flight, 0, "drain left packets in flight");
        let mut drops = DropStats {
            nic: rep.nic,
            ..DropStats::default()
        };
        let mut latencies = Vec::new();
        for a in apps {
            drops.parse += a.parse;
            drops.no_route += a.no_route;
            drops.table_exhausted += a.table_exhausted;
            drops.policy += a.policy;
            latencies.extend(a.latencies);
        }
        debug_assert_eq!(rep.app_drops, drops.chain_total());
        // Offered rate is measured over the LoadGen's sending window;
        // achieved over the full run (including the drain tail).
        RunResult {
            offered: rep.offered,
            delivered: rep.delivered,
            dropped: drops.total(),
            drops,
            offered_gbps: rep.offered_wire_bits as f64 / rep.last_arrival_ns.max(1.0),
            achieved_gbps: rep.tx_wire_bits as f64 / rep.duration_ns,
            duration_ns: rep.duration_ns,
            loopback_ns: cfg.loopback_ns,
            latencies_ns: latencies,
        }
    }
}

/// Runs a full experiment: `n` packets from `trace` paced by `schedule`.
pub fn run_experiment(
    cfg: RunConfig,
    trace: &mut CampusTrace,
    schedule: &mut ArrivalSchedule,
    n: usize,
) -> Result<RunResult, SetupError> {
    let mut tb = Testbed::new(cfg)?;
    for _ in 0..n {
        let t = schedule.next_arrival_ns();
        let spec = trace.next_packet();
        tb.offer(&spec.flow, spec.size, t);
    }
    Ok(tb.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(chain: ChainSpec, headroom: HeadroomMode, steering: SteeringKind) -> RunConfig {
        RunConfig {
            cores: 2,
            steering,
            chain,
            headroom,
            queue_depth: 128,
            burst: 32,
            mbufs: 1024,
            framework_cycles: 500,
            loopback_ns: 9_000.0,
            nic_rate_mpps: None,
            seed: 7,
            faults: FaultPlan::none(),
            execution: Execution::Serial,
        }
    }

    #[test]
    fn macswap_low_rate_delivers_everything() {
        let cfg = small_cfg(ChainSpec::MacSwap, HeadroomMode::Stock, SteeringKind::Rss);
        let mut trace = CampusTrace::fixed_size(64, 64, 1);
        let mut sched = ArrivalSchedule::constant_pps(1000.0);
        let res = run_experiment(cfg, &mut trace, &mut sched, 500).expect("config fits");
        assert_eq!(res.offered, 500);
        assert_eq!(res.delivered, 500);
        assert_eq!(res.dropped, 0);
        assert_eq!(res.latencies_ns.len(), 500);
        // At 1000 pps each packet is processed alone: latency is pure
        // service time, well under a microsecond.
        let s = res.summary().unwrap();
        assert!(s.max() < 2_000.0, "low-rate latency {} ns", s.max());
    }

    #[test]
    fn overload_drops_and_queues() {
        let cfg = small_cfg(ChainSpec::MacSwap, HeadroomMode::Stock, SteeringKind::Rss);
        let mut trace = CampusTrace::fixed_size(64, 64, 1);
        // 2 cores at ~300 ns/packet service sustain ~6.6 Mpps; offer 40.
        let mut sched = ArrivalSchedule::constant_pps(40_000_000.0);
        let res = run_experiment(cfg, &mut trace, &mut sched, 4_000).expect("config fits");
        assert!(res.dropped > 0, "overload must drop");
        assert_eq!(res.drops.total(), res.dropped);
        assert_eq!(res.offered, res.delivered + res.dropped);
        let s = res.summary().unwrap();
        assert!(
            s.percentile(99.0) > s.percentile(50.0),
            "queueing must stretch the tail"
        );
        assert!(res.achieved_gbps < res.offered_gbps);
    }

    #[test]
    fn stateful_chain_processes_and_rewrites() {
        let cfg = small_cfg(
            ChainSpec::RouterNaptLb {
                routes: 64,
                offload: false,
            },
            HeadroomMode::Stock,
            SteeringKind::Rss,
        );
        let mut trace = CampusTrace::new(trafficgen::SizeMix::campus(), 128, 3);
        let mut sched = ArrivalSchedule::constant_pps(10_000.0);
        let res = run_experiment(cfg, &mut trace, &mut sched, 300).expect("config fits");
        // Synthetic routes cover only part of the space: some packets
        // forward, some drop on no-route; the run must complete and
        // account for every frame.
        assert_eq!(res.offered, 300);
        assert_eq!(res.delivered + res.dropped, 300);
        assert_eq!(res.drops.no_route, res.dropped, "all drops are no-route");
    }

    #[test]
    fn offloaded_chain_forwards_more_cheaply() {
        let mk = |offload| {
            small_cfg(
                ChainSpec::RouterNaptLb {
                    routes: 64,
                    offload,
                },
                HeadroomMode::Stock,
                SteeringKind::FlowDirector,
            )
        };
        let run = |cfg| {
            let mut trace = CampusTrace::fixed_size(128, 32, 5);
            let mut sched = ArrivalSchedule::constant_pps(10_000.0);
            run_experiment(cfg, &mut trace, &mut sched, 400).expect("config fits")
        };
        let soft = run(mk(false));
        let hard = run(mk(true));
        // Offload must not reduce functionality...
        assert_eq!(soft.offered, hard.offered);
        // ...and makes the mean latency cheaper (skips parse + LPM).
        let (ls, lh) = (soft.summary().unwrap(), hard.summary().unwrap());
        assert!(
            lh.mean() < ls.mean(),
            "offload {} vs software {}",
            lh.mean(),
            ls.mean()
        );
    }

    #[test]
    fn cachedirector_beats_stock_under_load() {
        // The headline effect (Figs. 13/14): with queues deep and the DuT
        // loaded, placing headers in the right slice cuts tail latency.
        let run = |headroom| {
            let mut cfg = small_cfg(ChainSpec::MacSwap, headroom, SteeringKind::Rss);
            cfg.cores = 2;
            let mut trace = CampusTrace::fixed_size(64, 256, 9);
            let mut sched = ArrivalSchedule::constant_pps(9_000_000.0);
            run_experiment(cfg, &mut trace, &mut sched, 6_000).expect("config fits")
        };
        let stock = run(HeadroomMode::Stock);
        let cd = run(HeadroomMode::CacheDirector {
            preferred_slices: 1,
        });
        let (s, c) = (stock.summary().unwrap(), cd.summary().unwrap());
        assert!(
            c.percentile(99.0) <= s.percentile(99.0),
            "CacheDirector p99 {} must not exceed stock {}",
            c.percentile(99.0),
            s.percentile(99.0)
        );
    }

    #[test]
    fn results_are_deterministic() {
        let mk = || {
            let cfg = small_cfg(ChainSpec::MacSwap, HeadroomMode::Stock, SteeringKind::Rss);
            let mut trace = CampusTrace::fixed_size(64, 16, 2);
            let mut sched = ArrivalSchedule::constant_pps(100_000.0);
            run_experiment(cfg, &mut trace, &mut sched, 200).expect("config fits")
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.latencies_ns, b.latencies_ns);
        assert_eq!(a.delivered, b.delivered);
    }

    #[test]
    fn oversized_config_reports_setup_error() {
        let mut cfg = small_cfg(ChainSpec::MacSwap, HeadroomMode::Stock, SteeringKind::Rss);
        cfg.mbufs = u32::MAX / 4; // Far beyond the simulated DRAM.
        let err = match Testbed::new(cfg) {
            Err(e) => e,
            Ok(_) => panic!("cannot possibly fit"),
        };
        let msg = err.to_string();
        assert!(msg.contains("mbuf pool"), "{msg}");
    }

    #[test]
    fn faulty_runs_are_deterministic_and_conserve() {
        let mk = || {
            let mut cfg = small_cfg(ChainSpec::MacSwap, HeadroomMode::Stock, SteeringKind::Rss);
            // Arrivals every 10 µs (100 kpps) from t = 0: the flap
            // spans frames 50..80.
            cfg.faults = FaultPlan::none()
                .with_seed(11)
                .with_corrupt_prob(0.1)
                .with_truncate_prob(0.1)
                .with_link_flap(rte::fault::Window::new(500_000, 800_000));
            let mut trace = CampusTrace::fixed_size(64, 16, 2);
            let mut sched = ArrivalSchedule::constant_pps(100_000.0);
            run_experiment(cfg, &mut trace, &mut sched, 400).expect("config fits")
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.drops, b.drops, "fault injection is seeded");
        assert!(a.drops.nic.crc > 0, "corruption fired");
        assert_eq!(a.drops.nic.link_down, 30, "flap window is exact");
        assert_eq!(a.offered, a.delivered + a.drops.total());
    }
}
