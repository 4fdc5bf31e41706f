//! A two-stage *pipelined* chain: packets cross cores, so their headers
//! are shared data (paper §8).
//!
//! Metron-style run-to-completion keeps each packet on one core; the
//! alternative pipelining model splits the chain across cores with a
//! handoff ring in between. Then the packet header is touched by **two**
//! cores, and §8's advice applies: "multi-threaded applications that
//! have shared data among multiple cores should find a compromise
//! placement and then use the LLC slice(s) which are beneficial for all
//! cores." [`PipelineHeadroom::Compromise`] wires
//! [`PlacementPolicy::compromise_slice`] into CacheDirector for exactly
//! that, and [`run_pipeline`] measures it against placing for stage 1
//! only and against stock DPDK.

use crate::element::{Action, Ctx, Pkt, ServiceChain};
use crate::elements::{LoadBalancer, MacSwap, Napt};
use crate::runtime::{mem_err, SetupError};
use cache_director::{CacheDirector, CACHEDIRECTOR_HEADROOM};
use engine::{
    AdmissionPolicy, Ctx as PollCtx, Engine, EngineConfig, Execution, Hw, QueueApp, Scheduler,
    Verdict, WorkerSpec,
};
use llc_sim::machine::{Machine, MachineConfig};
use rte::fault::FaultPlan;
use rte::mempool::MbufPool;
use rte::nic::{FixedHeadroom, HeadroomPolicy, Port, RxCompletion, TxDesc};
use rte::ring::Ring;
use rte::steering::{Rss, Steering};
use slice_aware::placement::PlacementPolicy;
use trafficgen::{ArrivalSchedule, CampusTrace};

/// Header placement for the pipelined chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineHeadroom {
    /// Stock DPDK fixed headroom.
    Stock,
    /// CacheDirector targeting stage 1's closest slice only (the naive
    /// choice, which leaves stage 2 with far-slice reads).
    Stage1Slice,
    /// CacheDirector targeting the compromise slice of both stage cores.
    Compromise,
}

/// Core running RX + parse + first element.
const STAGE1_CORE: usize = 0;

/// Core running the stateful elements + TX.
const STAGE2_CORE: usize = 2;

/// Poll burst size.
const BURST: usize = 32;

/// Per-stage fixed framework cycles.
const STAGE_CYCLES: u64 = 300;

/// Seed of the machine and of the campus trace.
const SEED: u64 = 0x99;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Header placement.
    pub(crate) headroom: PipelineHeadroom,
    /// RX descriptor and handoff ring depth.
    pub(crate) queue_depth: usize,
    /// Serial or parallel worker execution (bit-identical either way).
    pub(crate) execution: Execution,
}

impl PipelineConfig {
    /// Defaults: moderate queues, serial execution.
    pub fn new(headroom: PipelineHeadroom) -> Self {
        Self {
            headroom,
            queue_depth: 256,
            execution: Execution::Serial,
        }
    }

    /// Sets the execution mode.
    #[must_use]
    pub fn with_execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }
}

/// What a pipeline run reports.
#[derive(Debug, Clone, Copy)]
pub struct PipelineResult {
    /// Packets fully processed.
    pub delivered: u64,
    /// Packets dropped (NIC or full handoff ring).
    pub dropped: u64,
    /// Busy cycles on stage 1's core.
    pub stage1_cycles: u64,
    /// Busy cycles on stage 2's core.
    pub stage2_cycles: u64,
    /// The slice the compromise policy chose (for reporting).
    pub compromise_slice: usize,
}

/// A packet in flight between the stages.
#[derive(Debug, Clone, Copy)]
struct Handoff {
    comp: RxCompletion,
}

/// One stage of the two-stage pipeline as a per-worker [`QueueApp`].
///
/// The queue-polling worker runs [`StageApp::Stage1`]: it touches the
/// header, runs the stage-1 element and parks the packet in a private
/// outbox. The queue-less worker runs [`StageApp::Stage2`]: it drains
/// its inbox ring in the [`QueueApp::pump`] hook, runs the stateful
/// elements, and transmits. The cross-core handoff — outbox to inbox —
/// happens in the engine's epoch hook, at the serialization point after
/// the merge, so both workers can safely run on concurrent shards
/// during the epoch itself.
enum StageApp {
    /// RX + parse + first element; hands off via `outbox`.
    Stage1 {
        chain: ServiceChain,
        outbox: Vec<Handoff>,
    },
    /// Stateful elements + TX; fed through `inbox` by the epoch hook.
    Stage2 {
        chain: ServiceChain,
        inbox: Ring<Handoff>,
        /// The current pump's burst, reused across pumps.
        batch: Vec<Handoff>,
    },
}

impl QueueApp for StageApp {
    fn on_packet(&mut self, ctx: &mut PollCtx<'_>, comp: &RxCompletion) -> Verdict {
        let Self::Stage1 { chain, outbox } = self else {
            // Stage 2 is queue-less and never receives RX completions.
            return Verdict::Drop;
        };
        let mut pkt = Pkt::from_completion(comp);
        {
            let mut ec = Ctx {
                m: &mut *ctx.m,
                core: ctx.core,
            };
            // The stage-1 header touch + element.
            let _ = pkt.flow(&mut ec);
            let _ = chain.process(&mut ec, &mut pkt);
        }
        ctx.m.advance(ctx.core, STAGE_CYCLES);
        // Unconditionally park in the outbox; the epoch hook applies the
        // ring-capacity backpressure when it moves packets across cores.
        outbox.push(Handoff { comp: *comp });
        Verdict::Consumed
    }

    fn pump(&mut self, ctx: &mut PollCtx<'_>, tx: &mut Vec<TxDesc>) -> usize {
        let Self::Stage2 {
            chain,
            inbox,
            batch,
        } = self
        else {
            // The stage-1 worker has nothing to pump.
            return 0;
        };
        batch.clear();
        inbox.dequeue_burst_into(BURST, batch);
        for h in batch.iter() {
            let mut pkt = Pkt::from_completion(&h.comp);
            let action = {
                let mut ec = Ctx {
                    m: &mut *ctx.m,
                    core: ctx.core,
                };
                // Stage 2 re-touches the shared header line.
                let _ = pkt.flow(&mut ec);
                chain.process(&mut ec, &mut pkt).0
            };
            ctx.m.advance(ctx.core, STAGE_CYCLES);
            match action {
                Action::Forward => tx.push(TxDesc::echo(&h.comp)),
                Action::Drop(_) => ctx.drop_packet(h.comp.mbuf),
            }
        }
        batch.len()
    }

    fn has_backlog(&self) -> bool {
        match self {
            Self::Stage1 { .. } => false,
            Self::Stage2 { inbox, .. } => !inbox.is_empty(),
        }
    }
}

/// Runs `n` packets through the two-stage pipeline at `pps`.
///
/// # Errors
///
/// Returns [`SetupError`] when the mempool or a flow table does not fit
/// the simulated DRAM.
pub fn run_pipeline(
    cfg: &PipelineConfig,
    flows: usize,
    pps: f64,
    n: usize,
) -> Result<PipelineResult, SetupError> {
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_seed(SEED));
    let (c1, c2) = (STAGE1_CORE, STAGE2_CORE);
    let policy = PlacementPolicy::from_topology(&m);
    let compromise = policy.compromise_slice(&m, &[c1, c2]);
    let headroom_cap = match cfg.headroom {
        PipelineHeadroom::Stock => rte::mbuf::DEFAULT_HEADROOM,
        _ => CACHEDIRECTOR_HEADROOM,
    };
    let mut pool = MbufPool::create(
        &mut m,
        (4 * cfg.queue_depth) as u32,
        headroom_cap,
        rte::mbuf::DEFAULT_DATAROOM,
    )
    .map_err(mem_err("pipeline mempool"))?;
    let cores = m.config().cores;
    let mut policy: Box<dyn HeadroomPolicy> = match cfg.headroom {
        PipelineHeadroom::Stock => Box::new(FixedHeadroom(rte::mbuf::DEFAULT_HEADROOM)),
        PipelineHeadroom::Stage1Slice => {
            let targets = vec![vec![m.closest_slice(c1)]; cores];
            Box::new(CacheDirector::install_with_targets(
                &mut m, &pool, targets, 0,
            ))
        }
        PipelineHeadroom::Compromise => {
            let targets = vec![vec![compromise]; cores];
            Box::new(CacheDirector::install_with_targets(
                &mut m, &pool, targets, 0,
            ))
        }
    };
    let mut port = Port::new(0, Steering::Rss(Rss::new(1)), cfg.queue_depth);
    // Stage 1: header-touching element; stage 2: the stateful pair.
    let stage1 = ServiceChain::new().push(Box::new(MacSwap::new()));
    let napt = Napt::new(&mut m, 1 << 13).map_err(mem_err("NAPT table"))?;
    let lb = LoadBalancer::new(&mut m, 1 << 13, vec![0x0a64_0001, 0x0a64_0002])
        .map_err(mem_err("LB table"))?;
    let stage2 = ServiceChain::new().push(Box::new(napt)).push(Box::new(lb));

    let apps = vec![
        StageApp::Stage1 {
            chain: stage1,
            outbox: Vec::new(),
        },
        StageApp::Stage2 {
            chain: stage2,
            inbox: Ring::new(cfg.queue_depth),
            batch: Vec::with_capacity(BURST),
        },
    ];
    let ecfg = EngineConfig {
        // Worker 0 polls the single RX queue on stage 1's core; worker 1
        // is queue-less and pumps the handoff ring on stage 2's core.
        workers: vec![
            WorkerSpec {
                core: c1,
                queue: Some(0),
            },
            WorkerSpec {
                core: c2,
                queue: None,
            },
        ],
        queue_depth: cfg.queue_depth,
        burst: BURST,
        faults: FaultPlan::none(),
        execution: cfg.execution,
        admission: AdmissionPolicy::AcceptAll,
        scheduler: Scheduler::default(),
    };
    let mut hw = Hw {
        m: &mut m,
        port: &mut port,
        pool: &mut pool,
        policy: policy.as_mut(),
    };
    let mut eng = Engine::new(apps, ecfg, &mut hw);
    // The cross-core handoff runs at the epoch boundary: drain stage 1's
    // outbox into stage 2's inbox in arrival order, applying the ring's
    // tail-drop backpressure. Every drained packet counts as progress so
    // `drain` keeps stepping while handoffs are still in flight.
    eng.set_epoch_hook(Box::new(|apps, mc| {
        let (head, tail) = apps.split_at_mut(1);
        let (StageApp::Stage1 { outbox, .. }, StageApp::Stage2 { inbox, .. }) =
            (&mut head[0], &mut tail[0])
        else {
            unreachable!("pipeline workers are stage 1 then stage 2");
        };
        let mut moved = 0;
        for h in outbox.drain(..) {
            moved += 1;
            if let Err(h) = inbox.enqueue(h) {
                // Ring full: backpressure. The engine counts the drop
                // as an application drop on queue 0 and recycles the
                // mbuf.
                mc.drop_packet(0, h.comp.mbuf);
            }
        }
        moved
    }));
    let (s1_start, s2_start) = (hw.m.now(c1), hw.m.now(c2));

    let mut trace = CampusTrace::fixed_size(128, flows, SEED);
    let mut sched = ArrivalSchedule::constant_pps(pps);
    let mut frame = vec![0u8; 2048];
    for _ in 0..n {
        let t = sched.next_arrival_ns();
        let spec = trace.next_packet();
        let len =
            crate::packet::encode_frame(&mut frame, &spec.flow, spec.size as usize, t, spec.seq);
        let _ = eng.offer(&mut hw, &spec.flow, &frame[..len], t);
    }
    eng.drain(&mut hw);
    let (rep, _app) = eng.finish(&mut hw);
    Ok(PipelineResult {
        delivered: rep.delivered,
        dropped: rep.nic.total() + rep.app_drops,
        stage1_cycles: hw.m.now(c1) - s1_start,
        stage2_cycles: hw.m.now(c2) - s2_start,
        compromise_slice: compromise,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(headroom: PipelineHeadroom) -> PipelineResult {
        run_pipeline(&PipelineConfig::new(headroom), 64, 500_000.0, 6_000)
            .expect("test config fits")
    }

    #[test]
    fn pipeline_conserves_packets() {
        let r = run(PipelineHeadroom::Stock);
        assert_eq!(r.delivered + r.dropped, 6_000);
        assert!(r.delivered > 5_900, "low rate: nearly everything forwards");
        assert!(r.stage1_cycles > 0 && r.stage2_cycles > 0);
    }

    #[test]
    fn compromise_slice_is_good_for_both_cores() {
        let m = Machine::new(MachineConfig::haswell_e5_2667_v3());
        let p = PlacementPolicy::from_topology(&m);
        let s = p.compromise_slice(&m, &[0, 2]);
        // For cores 0 and 2 (same physical ring) slice 2 minimises the
        // worst-case latency: 36/34 vs slice 0's 34/40.
        assert_eq!(s, 2);
    }

    #[test]
    fn compromise_placement_beats_stage1_only_and_stock() {
        // §8's multi-threaded guidance, measured: total busy cycles
        // across both stages for the same packet stream.
        let stock = run(PipelineHeadroom::Stock);
        let stage1 = run(PipelineHeadroom::Stage1Slice);
        let comp = run(PipelineHeadroom::Compromise);
        let total = |r: &PipelineResult| r.stage1_cycles + r.stage2_cycles;
        assert!(
            total(&comp) < total(&stock),
            "compromise {} must beat stock {}",
            total(&comp),
            total(&stock)
        );
        assert!(
            total(&comp) <= total(&stage1),
            "compromise {} must not lose to stage1-only {}",
            total(&comp),
            total(&stage1)
        );
    }

    #[test]
    fn tiny_handoff_ring_backpressures() {
        let mut cfg = PipelineConfig::new(PipelineHeadroom::Stock);
        cfg.queue_depth = 8;
        // Offered far above what two stages at ~300 cycles each sustain.
        let r = run_pipeline(&cfg, 32, 50_000_000.0, 5_000).expect("test config fits");
        assert!(r.dropped > 0, "overload must shed load somewhere");
        assert_eq!(r.delivered + r.dropped, 5_000);
    }
}
