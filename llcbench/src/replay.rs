//! Layer replays: each times one layer's public functions, called N
//! times on the workload's own generated inputs, outside the entry
//! point. They give the per-layer host costs the entry point hides, and
//! the estimates the attribution table subtracts from its self time.

use crate::workloads::{Ctx, Metric};
use cache_director::{CacheDirector, CACHEDIRECTOR_HEADROOM};
use engine::{
    AdmissionPolicy, Engine, EngineConfig, Execution, Hw, QueueApp, Scheduler, Verdict, WorkerSpec,
};
use kvs::{KvOp, KvRequest, KvStore};
use llc_sim::{Machine, MachineConfig, PhysAddr};
use rte::fault::FaultPlan;
use rte::mbuf::DEFAULT_DATAROOM;
use rte::nic::{HeadroomPolicy, RxCompletion, TxDesc};
use rte::steering::FdirAction;
use rte::{FixedHeadroom, FlowDirector, MbufPool, Port, Rss, Steering};
use std::hint::black_box;
use std::time::Instant;
use trafficgen::{FlowTuple, Rng64};
use xstats::LogHist;

use crate::trace::Timed;

/// The workload's RX headroom policy.
#[derive(Debug, Clone, Copy)]
pub enum PolicyKind {
    Fixed,
    CacheDirector,
}

/// The workload's RX steering.
#[derive(Debug, Clone, Copy)]
pub enum SteerKind {
    Rss,
    /// FlowDirector with one rule per flow, queues round-robin (the
    /// NFV testbed's Metron controller).
    FlowDirector,
}

/// Everything a replay pass needs from its workload.
pub struct Inputs<'a> {
    /// A warm machine holding `store`.
    pub m: &'a mut Machine,
    pub store: &'a KvStore,
    /// A pool on `m`: DMA targets and refill subjects.
    pub pool: &'a MbufPool,
    pub policy: PolicyKind,
    pub steer: SteerKind,
    pub cores: usize,
    pub depth: usize,
    pub burst: usize,
    /// KVS requests drawn from the workload's generators.
    pub requests: Vec<KvRequest>,
    /// Frames (flow, wire size) in the workload's order. For a closed
    /// loop, `flows[q]` steers to queue `q`.
    pub frames: Vec<(FlowTuple, u16)>,
    /// Arrival times; empty for the closed loop.
    pub arrivals: Vec<f64>,
    /// Host costs the workload timed itself (its generators and its
    /// set-up calls), carried through to the metrics.
    pub request_ns: f64,
    pub arrival_ns: f64,
    pub zipf_setup_s: f64,
    pub store_build_s: f64,
}

/// Replay results: every per-layer metric the replays define, plus the
/// per-call costs the attribution table multiplies out.
pub struct Replays {
    pub metrics: Vec<Metric>,
    pub request_ns: f64,
    pub arrival_ns: f64,
    pub read_ns: f64,
    pub get_ns: f64,
    pub set_ns: f64,
    pub dispatch_ns: f64,
}

/// Calls `f` `n` times, returning the mean host ns per call and the
/// results (kept so the compiler cannot drop the work).
pub fn time_each<T>(n: usize, mut f: impl FnMut() -> T) -> (f64, Vec<T>) {
    let mut out = Vec::with_capacity(n);
    let t0 = Instant::now();
    for _ in 0..n {
        out.push(f());
    }
    (per_call(t0, n), out)
}

fn per_call(t0: Instant, n: usize) -> f64 {
    t0.elapsed().as_nanos() as f64 / n.max(1) as f64
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn policy(kind: PolicyKind, m: &mut Machine, pool: &MbufPool) -> Box<dyn HeadroomPolicy> {
    match kind {
        PolicyKind::Fixed => Box::new(FixedHeadroom(rte::mbuf::DEFAULT_HEADROOM)),
        PolicyKind::CacheDirector => Box::new(CacheDirector::install(m, pool, 1, 0)),
    }
}

fn port(steer: SteerKind, cores: usize, depth: usize, frames: &[(FlowTuple, u16)]) -> Port {
    let steering = match steer {
        SteerKind::Rss => Steering::Rss(Rss::new(cores)),
        SteerKind::FlowDirector => {
            let mut fd = FlowDirector::new(cores);
            let mut seen = std::collections::HashSet::new();
            for (flow, _) in frames {
                if seen.insert(*flow) {
                    let queue = (seen.len() - 1) % cores;
                    fd.set_rule(*flow, FdirAction { queue, mark: None });
                }
            }
            Steering::FlowDirector(fd)
        }
    };
    Port::new(0, steering, depth)
}

/// Runs every replay, each in its own span.
pub fn run(ctx: &mut Ctx, inp: Inputs<'_>) -> Replays {
    let Inputs {
        m,
        store,
        pool,
        requests,
        frames,
        ..
    } = inp;
    let cores = inp.cores;
    let replays = ctx.spans.open("replays");
    let mut buf = [0u8; 64];
    let addrs: Vec<PhysAddr> = requests.iter().map(|r| store.value_pa(m, r.key)).collect();
    let n = addrs.len();

    let (read_ns, read_cycles) = ctx.span("replay.llc_read", |_| {
        let mut cycles = 0u64;
        let t0 = Instant::now();
        for (i, &pa) in addrs.iter().enumerate() {
            cycles += m.read_bytes(i % cores, pa, &mut buf);
        }
        (per_call(t0, n), cycles as f64 / n as f64)
    });
    let (write_ns, write_cycles) = ctx.span("replay.llc_write", |_| {
        let mut cycles = 0u64;
        let t0 = Instant::now();
        for (i, &pa) in addrs.iter().enumerate() {
            cycles += m.write_bytes(i % cores, pa, &buf);
        }
        (per_call(t0, n), cycles as f64 / n as f64)
    });
    let slice_of_ns = ctx.span("replay.slice_of", |_| {
        let t0 = Instant::now();
        let mut acc = 0usize;
        for &pa in &addrs {
            acc ^= m.slice_of(black_box(pa));
        }
        black_box(acc);
        per_call(t0, n)
    });

    // DMA: the workload's frames into the pool's data rooms; one warm
    // pass so the timed pass evicts like a running NIC does.
    let dma_ns_per_line = ctx.span("replay.dma", |_| {
        let frame = vec![0u8; 2048];
        let cap = pool.capacity();
        let target = |i: usize| {
            pool.meta(i as u32 % cap)
                .data_pa_for(rte::mbuf::DEFAULT_HEADROOM)
        };
        for (i, (_, size)) in frames.iter().enumerate() {
            m.dma_write(target(i), &frame[..usize::from(*size)]);
        }
        let lines: usize = frames
            .iter()
            .map(|(_, s)| usize::from(*s).div_ceil(64))
            .sum();
        let t0 = Instant::now();
        for (i, (_, size)) in frames.iter().enumerate() {
            m.dma_write(target(i), &frame[..usize::from(*size)]);
        }
        per_call(t0, lines)
    });

    let (get_ns, set_ns) = ctx.span("replay.kvs", |_| {
        let (gets, sets): (Vec<&KvRequest>, Vec<&KvRequest>) =
            requests.iter().partition(|r| r.op == KvOp::Get);
        let t0 = Instant::now();
        for (i, r) in gets.iter().enumerate() {
            store.get(m, i % cores, r.key, &mut buf);
        }
        let get_ns = per_call(t0, gets.len());
        let t0 = Instant::now();
        for (i, r) in sets.iter().enumerate() {
            store.set(m, i % cores, r.key, &buf);
        }
        (get_ns, per_call(t0, sets.len()))
    });

    let route_ns = ctx.span("replay.route", |_| {
        let mut p = port(inp.steer, cores, inp.depth, &frames);
        let t0 = Instant::now();
        let mut acc = 0usize;
        for (flow, _) in &frames {
            acc ^= p.route(black_box(flow)).0;
        }
        black_box(acc);
        per_call(t0, frames.len())
    });

    let refill_ns = ctx.span("replay.refill", |_| {
        let mut pol = policy(inp.policy, m, pool);
        time_data_off(m, pool, pol.as_mut(), cores, n)
    });

    let data_off_ns = ctx.span("replay.cache_director", |_| {
        // An NFV-shaped pool (8 cores x 1024 descriptors, twice over)
        // on a fresh machine, whatever the workload.
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(256 << 20));
        let pool = MbufPool::create(
            &mut m,
            2 * 8 * 1024,
            CACHEDIRECTOR_HEADROOM,
            DEFAULT_DATAROOM,
        )
        .expect("an NFV pool fits 256 MB of DRAM");
        let mut cd = CacheDirector::install(&mut m, &pool, 1, 0);
        time_data_off(&mut m, &pool, &mut cd, 8, n)
    });

    let geometry = (inp.policy, inp.steer, cores, inp.depth, inp.burst);
    let dispatch_ns = ctx.span("replay.engine", |_| {
        dispatch_ns_per_offer(geometry, &frames, &inp.arrivals, n)
    });

    let sink_ns = ctx.span("replay.sink", |c| {
        // Log-uniform latencies over 50 ns .. 1 ms, the range the
        // workloads' sojourn times span.
        let mut rng = Rng64::seed_from_u64(c.seed);
        let values: Vec<f64> = (0..n).map(|_| 50.0 * 2e4f64.powf(rng.gen_f64())).collect();
        let mut h = LogHist::latency_ns(0.01);
        let t0 = Instant::now();
        for &v in &values {
            h.record(v);
        }
        black_box(h.count());
        per_call(t0, n)
    });

    ctx.spans.close(replays);
    let metrics = vec![
        metric("trafficgen.arrival_ns", inp.arrival_ns, "ns"),
        metric("trafficgen.request_ns", inp.request_ns, "ns"),
        metric("trafficgen.zipf_setup_s", inp.zipf_setup_s, "s"),
        metric("slice_aware.store_build_s", inp.store_build_s, "s"),
        metric("llc_sim.read_ns", read_ns, "ns"),
        metric("llc_sim.read_cycles", read_cycles, "cycles"),
        metric("llc_sim.write_ns", write_ns, "ns"),
        metric("llc_sim.write_cycles", write_cycles, "cycles"),
        metric("llc_sim.dma_ns_per_line", dma_ns_per_line, "ns"),
        metric("llc_sim.slice_of_ns", slice_of_ns, "ns"),
        metric("rte.route_ns", route_ns, "ns"),
        metric("rte.refill_ns", refill_ns, "ns"),
        metric("cache_director.data_off_ns", data_off_ns, "ns"),
        metric("engine.dispatch_ns_per_op", dispatch_ns, "ns"),
        metric("kvs.get_ns", get_ns, "ns"),
        metric("kvs.set_ns", set_ns, "ns"),
        metric("xstats.sink_record_ns", sink_ns, "ns"),
    ];
    Replays {
        metrics,
        request_ns: inp.request_ns,
        arrival_ns: inp.arrival_ns,
        read_ns,
        get_ns,
        set_ns,
        dispatch_ns,
    }
}

fn time_data_off(
    m: &mut Machine,
    pool: &MbufPool,
    policy: &mut dyn HeadroomPolicy,
    cores: usize,
    n: usize,
) -> f64 {
    let cap = pool.capacity();
    let t0 = Instant::now();
    let mut acc = 0u16;
    for i in 0..n {
        acc ^= policy.data_off(m, pool, i as u32 % cap, i % cores);
    }
    black_box(acc);
    per_call(t0, n)
}

/// Zero-work echo: every host ns it costs is engine, NIC and pool work.
struct Echo;

impl QueueApp for Echo {
    fn on_packet(&mut self, _ctx: &mut engine::Ctx<'_>, comp: &RxCompletion) -> Verdict {
        Verdict::Tx(TxDesc {
            mbuf: comp.mbuf,
            data_pa: comp.data_pa,
            len: comp.len,
        })
    }
}

/// Host ns per offer through an [`Engine`] of zero-work echo apps at the
/// workload's geometry, fed its frames: at its arrival times for an open
/// loop, or in `run_server`'s top-up-then-step rounds for a closed loop
/// (where `frames[q]` is queue `q`'s flow). The headroom policy is timed
/// as a seam and its time taken out: it has a row of its own.
fn dispatch_ns_per_offer(
    (kind, steer, cores, depth, burst): (PolicyKind, SteerKind, usize, usize, usize),
    frames: &[(FlowTuple, u16)],
    arrivals: &[f64],
    n: usize,
) -> f64 {
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(256 << 20));
    let headroom = match kind {
        PolicyKind::Fixed => rte::mbuf::DEFAULT_HEADROOM,
        PolicyKind::CacheDirector => CACHEDIRECTOR_HEADROOM,
    };
    let mut pool = MbufPool::create(
        &mut m,
        (2 * cores * depth) as u32,
        headroom,
        DEFAULT_DATAROOM,
    )
    .expect("two rings of mbufs fit 256 MB of DRAM");
    let mut inner = policy(kind, &mut m, &pool);
    let mut timed = Timed::new(inner.as_mut());
    let mut port = port(steer, cores, depth, frames);
    let mut hw = Hw {
        m: &mut m,
        port: &mut port,
        pool: &mut pool,
        policy: &mut timed,
    };
    let cfg = EngineConfig {
        workers: WorkerSpec::run_to_completion(cores),
        queue_depth: depth,
        burst,
        faults: FaultPlan::none(),
        execution: Execution::Serial,
        admission: AdmissionPolicy::AcceptAll,
        scheduler: Scheduler::default(),
    };
    let mut eng = Engine::new((0..cores).map(|_| Echo).collect(), cfg, &mut hw);
    let zero = [0u8; 2048];
    let t0 = Instant::now();
    let offers = if arrivals.is_empty() {
        n
    } else {
        n.min(arrivals.len())
    };
    if arrivals.is_empty() {
        let mut offered = 0;
        while offered < n {
            let t = eng.now_ns();
            for (q, (flow, size)) in frames.iter().enumerate().take(cores) {
                while hw.port.posted_count(q) > 0 && offered < n {
                    offered += 1;
                    let _ = eng.offer(&mut hw, flow, &zero[..usize::from(*size)], t);
                }
            }
            eng.step(&mut hw);
        }
    } else {
        for (i, &t) in arrivals.iter().take(n).enumerate() {
            let (flow, size) = &frames[i % frames.len()];
            let _ = eng.offer(&mut hw, flow, &zero[..usize::from(*size)], t);
        }
    }
    eng.drain(&mut hw);
    let wall_ns = t0.elapsed().as_nanos() as f64;
    eng.finish(&mut hw);
    (wall_ns - timed.seam.total_ns() as f64) / offers as f64
}
