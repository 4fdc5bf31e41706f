//! The four workloads. Each makes its inputs from the run seed, sets up,
//! makes one timed call into its entry point, and reports its simulated
//! results; a traced run also installs the seam timers, reads the layer
//! counters around the call, and runs the layer replays.
//!
//! Every workload runs `Execution::Serial` on one host thread.

use crate::host;
use crate::replay::{self, time_each, Inputs, PolicyKind, Replays, SteerKind};
use crate::stats::Fnv;
use crate::trace::{Seam, Spans, Timed};
use cache_director::CACHEDIRECTOR_HEADROOM;
use engine::SchedStats;
use kvs::proto::{RequestGen, REQUEST_SIZE};
use kvs::server::flow_for_queue;
use kvs::{
    run_openloop_streaming, run_server, CompletionSink, KvRequest, KvStore, OpenLoopConfig,
    Placement, ServerConfig, ServerReport,
};
use llc_sim::cache::CacheStats;
use llc_sim::hash::{SliceHash, XorSliceHash};
use llc_sim::{Machine, MachineConfig};
use nfv::runtime::{ChainSpec, HeadroomMode, RunConfig, SteeringKind, Testbed};
use rte::mbuf::{DEFAULT_DATAROOM, DEFAULT_HEADROOM};
use rte::nic::HeadroomPolicy;
use rte::{FixedHeadroom, MbufPool, Port, Rss, Steering};
use slice_aware::SliceAllocator;
use std::time::Instant;
use tenancy::{run_tenancy, Regime, TenancyConfig, TenancyReport};
use trafficgen::rng::splitmix64;
use trafficgen::trace::DEFAULT_FLOW_SKEW;
use trafficgen::{
    ArrivalSchedule, Arrivals, CampusTrace, FlowTuple, OpenLoopGen, SizeMix, ZipfConstants, ZipfGen,
};
use xstats::LogHist;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "kvs_closed_get",
    "kvs_open_set",
    "nfv_chain",
    "tenants_storm",
];

/// Serving cores of both KVS workloads.
const KVS_CORES: usize = 4;
const ZIPF_THETA: f64 = 0.99;
/// Open-loop Poisson rate: about 2/3 of the closed loop's ~59 Mop/s
/// capacity, so the queueing tail is live but nothing is dropped.
const OPEN_RATE: f64 = 40e6;
/// Sketch error bound for the open loop's latency quantiles.
const ALPHA: f64 = 0.01;
/// The NFV chain's offered rate, below the 14.2 Mpps NIC cap and the
/// ~76 Gbps the 8-core chain sustains. At 70 Gbps some seeds' flow
/// placement overloads one core until its ring drops; at 55 Gbps none
/// of seeds 1..=40 drops a packet.
const NFV_GBPS: f64 = 55.0;
/// Campus-mix mean frame size (the paper's figure binaries use it to
/// turn Gbps into packets per second).
const NFV_MEAN_SIZE: f64 = 670.0;
const NFV_FLOWS: usize = 10_000;
/// Testbed::offer calls per coarse span.
const NFV_BATCH: usize = 50_000;
/// The tenancy scenario's victims offer 2 Mpps each (tenancy::run).
const VICTIM_PPS: f64 = 4e6;
/// Keys in the tenancy scenario's store (tenancy::run).
const TENANT_KEYS: usize = 4096;
const TENANT_QUEUES: usize = 5;
/// The client flow `kvs::openloop` and `tenancy::run` derive their
/// per-queue flows from (`flow_for_queue`); the replays rebuild them.
const BASE_FLOW: FlowTuple = FlowTuple {
    src_ip: 0x0a00_0001,
    src_port: 40_000,
    dst_ip: 0xc0a8_0001,
    dst_port: 11211,
    proto: 6,
};

/// Run sizes. `--smoke` shrinks every one of them.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub log2_keys: u32,
    pub closed_warmup: usize,
    pub closed_requests: usize,
    pub migration_epoch: usize,
    pub open_warmup: usize,
    pub open_ops: usize,
    pub nfv_warmup: usize,
    pub nfv_packets: usize,
    pub tenant_warmup: usize,
    pub tenant_packets: usize,
    pub replay_calls: usize,
}

impl Sizes {
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                log2_keys: 14,
                closed_warmup: 5_000,
                closed_requests: 20_000,
                migration_epoch: 512,
                open_warmup: 5_000,
                open_ops: 20_000,
                nfv_warmup: 5_000,
                nfv_packets: 20_000,
                tenant_warmup: 1_000,
                tenant_packets: 6_000,
                replay_calls: 20_000,
            }
        } else {
            Self {
                log2_keys: 21,
                closed_warmup: 125_000,
                closed_requests: 250_000,
                migration_epoch: 4_096,
                open_warmup: 60_000,
                open_ops: 250_000,
                nfv_warmup: 25_000,
                nfv_packets: 150_000,
                tenant_warmup: 20_000,
                tenant_packets: 100_000,
                replay_calls: 200_000,
            }
        }
    }
}

/// A named number with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Host time of the timed region.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Wall time from the child's start to the timed region.
    pub setup_s: f64,
    /// Process CPU time (user + sys) of the timed region.
    pub cpu_ns: u64,
    /// Mean CPU time of the reference loop, run just before and just
    /// after the timed region.
    pub reference_ns: f64,
}

/// One child run's context: its span recorder, mode, seed and sizes.
pub struct Ctx {
    pub spans: Spans,
    pub traced: bool,
    pub seed: u64,
    pub sizes: Sizes,
    timing: Option<Timing>,
}

impl Ctx {
    pub fn new(origin: Instant, traced: bool, seed: u64, sizes: Sizes) -> Self {
        Self {
            spans: Spans::new(origin),
            traced,
            seed,
            sizes,
            timing: None,
        }
    }

    /// Runs `f` inside a coarse span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.open(name);
        let out = f(self);
        self.spans.close(id);
        out
    }

    /// Runs the timed region (the entry-point call) in the `entry` span,
    /// recording set-up wall time and the region's CPU time.
    pub fn timed<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        assert!(self.timing.is_none(), "one timed region per run");
        let setup_s = self.spans.now() as f64 / 1e9;
        let reference_before = host::reference_loop_ns();
        let cpu0 = host::cpu_time_ns();
        let out = self.span("entry", f);
        let cpu_ns = host::cpu_time_ns() - cpu0;
        let reference_after = host::reference_loop_ns();
        self.timing = Some(Timing {
            setup_s,
            cpu_ns,
            reference_ns: (reference_before + reference_after) as f64 / 2.0,
        });
        out
    }

    pub fn timing(&self) -> Timing {
        self.timing.expect("every workload runs its timed region")
    }

    /// The seed of one input stream, derived from the run seed: the
    /// only way the seed reaches the library.
    pub fn seed_for(&self, stream: u64) -> u64 {
        let mut s = self.seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        splitmix64(&mut s)
    }
}

/// What one run reports.
pub struct Outcome {
    /// Simulated operations the timed region offered: the denominator
    /// of `host_ns_per_op`.
    pub ops: u64,
    /// Simulated operations the run attempted, and those that failed
    /// (dropped, shed, rejected or given up).
    pub attempted: u64,
    pub failed: u64,
    /// Simulated results: deterministic for a seed.
    pub sim: Vec<Metric>,
    /// FNV-1a over every simulated result field.
    pub digest: u64,
    /// Output checks beyond the entry points' own conservation asserts.
    pub check: Result<(), String>,
    /// Traced runs only.
    pub layers: Option<Layers>,
}

/// A traced run's per-layer material.
pub struct Layers {
    /// Counters read around the entry point.
    pub insitu: Vec<Metric>,
    /// Seam timers that were installed on the entry point's trait
    /// objects (or around the benchmark's own calls), by layer.
    pub seams: Vec<(&'static str, Seam)>,
    pub replays: Replays,
    /// Operation counts the attribution multiplies replay costs by.
    pub counts: Counts,
}

/// Per-run operation counts (timed region).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub offered: u64,
    pub served: u64,
    pub gets: u64,
    pub sets: u64,
    /// Generator draws made inside the entry point, unseen by any seam.
    pub requests: u64,
    pub arrivals: u64,
}

pub fn run(name: &str, ctx: &mut Ctx) -> Outcome {
    match name {
        "kvs_closed_get" => kvs_closed_get(ctx),
        "kvs_open_set" => kvs_open_set(ctx),
        "nfv_chain" => nfv_chain(ctx),
        "tenants_storm" => tenants_storm(ctx),
        _ => unreachable!("workload names are checked at the command line"),
    }
}

// ---------------------------------------------------------------------
// Counters read around the entry point.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Probe {
    sched: SchedStats,
    llc: Option<CacheStats>,
}

impl Probe {
    fn take(m: Option<&Machine>) -> Self {
        let llc = m.map(|m| {
            (0..m.config().slices).fold(CacheStats::default(), |a, s| {
                let x = m.llc_stats(s);
                CacheStats {
                    hits: a.hits + x.hits,
                    misses: a.misses + x.misses,
                    fills: a.fills + x.fills,
                    evictions: a.evictions + x.evictions,
                }
            })
        });
        Self {
            sched: engine::sched_totals(),
            llc,
        }
    }
}

/// Every in-situ per-layer metric, for every workload: layers a workload
/// does not reach read 0.
fn insitu(
    ops: u64,
    before: Probe,
    after: Probe,
    refills: u64,
    kvs: Option<&ServerReport>,
    tenancy: Option<&TenancyReport>,
) -> Vec<Metric> {
    let per_op = |x: u64| x as f64 / ops.max(1) as f64;
    let pct = |a: f64, b: f64| if b > 0.0 { 100.0 * a / b } else { 0.0 };
    let dispatched = after.sched.epochs_dispatched - before.sched.epochs_dispatched;
    let with_work = after.sched.epochs_with_work - before.sched.epochs_with_work;
    let events = after.sched.events_processed - before.sched.events_processed;
    let llc = match (before.llc, after.llc) {
        (Some(b), Some(a)) => CacheStats {
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
            fills: a.fills - b.fills,
            evictions: a.evictions - b.evictions,
        },
        _ => CacheStats::default(),
    };
    let lookups = llc.hits + llc.misses;
    let mut v = vec![
        metric("engine.events_per_op", per_op(events), "count"),
        metric("engine.epochs_per_op", per_op(dispatched), "count"),
        metric(
            "engine.epoch_efficiency_pct",
            pct(with_work as f64, dispatched as f64),
            "%",
        ),
        metric(
            "llc_sim.llc_hit_pct",
            pct(llc.hits as f64, lookups as f64),
            "%",
        ),
        metric("llc_sim.llc_lookups_per_op", per_op(lookups), "count"),
        metric(
            "llc_sim.llc_evictions_per_op",
            per_op(llc.evictions),
            "count",
        ),
        metric("rte.refills_per_op", per_op(refills), "count"),
    ];
    let (cycles, hot, migrated, vetoed, mig_pct) = kvs.map_or((0.0, 0.0, 0, 0, 0.0), |r| {
        let busy: u64 = r.per_queue.iter().map(|q| q.busy_cycles).sum();
        (
            r.cycles_per_request,
            100.0 * r.hot_hit_rate(),
            r.migrated,
            r.swaps_vetoed,
            pct(r.migration_cycles as f64, busy as f64),
        )
    });
    v.extend([
        metric("kvs.cycles_per_op", cycles, "cycles"),
        metric("kvs.hot_hit_pct", hot, "%"),
        metric("kvs.migrated", migrated as f64, "count"),
        metric("kvs.swaps_vetoed", vetoed as f64, "count"),
        metric("kvs.migration_cycles_pct", mig_pct, "%"),
    ]);
    let (epochs, moves, ddio, min_ways, violation) = tenancy.map_or((0, 0, 0, 0, 0.0), |r| {
        let victims = &r.tenants[..2];
        (
            r.epochs,
            r.moves,
            r.ddio_shrinks + r.ddio_restores,
            victims.iter().map(|t| t.min_ways).min().unwrap_or(0),
            pct(
                victims.iter().map(|t| t.violation_ns).sum(),
                victims.len() as f64 * r.duration_ns,
            ),
        )
    });
    v.extend([
        metric("tenancy.control_epochs", epochs as f64, "count"),
        metric("tenancy.way_moves", moves as f64, "count"),
        metric("tenancy.ddio_actions", ddio as f64, "count"),
        metric("tenancy.min_victim_ways", min_ways as f64, "count"),
        metric("tenancy.slo_violation_pct", violation, "%"),
    ]);
    v
}

// ---------------------------------------------------------------------
// Shared KVS set-up.
// ---------------------------------------------------------------------

/// The §3 hot-pool sizing rule (fig08/fig_scale_kvs): half a slice over
/// the cores, capped at an eighth of each core's key class.
fn hot_per_core(n: usize) -> usize {
    (20_000 / KVS_CORES).min(n / KVS_CORES / 8).max(1)
}

/// The 2^21 x 64 B store, `StripedHot` over each core's closest slice,
/// on a machine with DRAM for the slice-aware carving (~9x the store).
/// Returns the store build and Zipf set-up times with it.
fn kvs_store(ctx: &mut Ctx) -> (Machine, KvStore, f64, f64) {
    let n = 1usize << ctx.sizes.log2_keys;
    let region_bytes = (n * 64 * 9).max(64 << 20);
    let mut m = ctx.span("setup.machine", |_| {
        Machine::new(
            MachineConfig::haswell_e5_2667_v3()
                .with_dram_capacity(region_bytes + n * 64 + (256 << 20)),
        )
    });
    let (store, build_s) = ctx.span("setup.store_build", |_| {
        let t0 = Instant::now();
        let placement = Placement::StripedHot {
            slices: (0..KVS_CORES).map(|c| m.closest_slice(c)).collect(),
            hot_per_core: hot_per_core(n),
        };
        let region = m
            .mem_mut()
            .alloc(region_bytes, 1 << 20)
            .expect("DRAM is sized for the region");
        let hash = XorSliceHash::haswell_8slice();
        let mut alloc = SliceAllocator::new(region, move |pa| hash.slice_of(pa));
        let store = KvStore::build(&mut m, &mut alloc, n, placement)
            .expect("the region is sized for the carving");
        (store, t0.elapsed().as_secs_f64())
    });
    let zipf_s = zipf_setup(ctx, (n / KVS_CORES) as u64, ZIPF_THETA);
    (m, store, zipf_s, build_s)
}

/// Times the run's first `ZipfConstants::shared` call for `(n, theta)`:
/// the O(n) zeta sum. Every later generator over that key space reuses it.
fn zipf_setup(ctx: &mut Ctx, n: u64, theta: f64) -> f64 {
    ctx.span("setup.zipf", |_| {
        let t0 = Instant::now();
        ZipfConstants::shared(n, theta);
        t0.elapsed().as_secs_f64()
    })
}

fn rss_port(queues: usize, depth: usize) -> Port {
    Port::new(0, Steering::Rss(Rss::new(queues)), depth)
}

/// Draws `n` requests round-robin over `gens`, timing the draws.
fn draw(gens: &mut [RequestGen], n: usize) -> (f64, Vec<KvRequest>) {
    let mut i = 0;
    time_each(n, || {
        let q = i % gens.len();
        i += 1;
        gens[q].next_request()
    })
}

/// Times `n` arrival draws (a `peek` and a consuming call, as the
/// open-loop event loop makes them).
fn arrivals(a: &mut dyn Arrivals, n: usize) -> (f64, Vec<f64>) {
    time_each(n, || {
        std::hint::black_box(a.peek_next_ns());
        a.next_arrival_ns()
    })
}

/// One request frame per request, on its queue's flow.
fn request_frames(flows: &[FlowTuple], n: usize) -> Vec<(FlowTuple, u16)> {
    (0..n)
        .map(|i| (flows[i % flows.len()], REQUEST_SIZE as u16))
        .collect()
}

// ---------------------------------------------------------------------
// kvs_closed_get
// ---------------------------------------------------------------------

/// Closed-loop clients, one per queue: scrambled Zipf over the queue's
/// key class, 95 % GET.
fn closed_gens(ctx: &Ctx, port: &mut Port) -> Vec<RequestGen> {
    let n = 1usize << ctx.sizes.log2_keys;
    let zc = ZipfConstants::shared((n / KVS_CORES) as u64, ZIPF_THETA);
    (0..KVS_CORES)
        .map(|q| {
            let q64 = q as u64;
            RequestGen::new(
                ZipfGen::from_constants(&zc, ctx.seed_for(0x10 + q64)),
                950,
                ctx.seed_for(0x20 + q64),
            )
            .with_flow(flow_for_queue(port, BASE_FLOW, q))
            .with_key_partition(KVS_CORES as u32, q as u32)
            .with_key_scramble(ctx.seed_for(0x30 + q64))
        })
        .collect()
}

fn kvs_closed_get(ctx: &mut Ctx) -> Outcome {
    let s = ctx.sizes;
    let (mut m, store, zipf_s, build_s) = kvs_store(ctx);
    let (mut pool, mut port) = ctx.span("setup.pool_port", |_| {
        let pool = MbufPool::create(
            &mut m,
            (1024 * KVS_CORES) as u32,
            DEFAULT_HEADROOM,
            DEFAULT_DATAROOM,
        )
        .expect("DRAM has pool headroom");
        (pool, rss_port(KVS_CORES, 256))
    });
    let mut gens = ctx.span("setup.gens", |c| closed_gens(c, &mut port));
    let cfg = ServerConfig::fig8(s.closed_requests, 950, ctx.seed_for(0x40))
        .with_cores(KVS_CORES)
        .with_cost_aware_migration(s.migration_epoch);
    let mut fixed = FixedHeadroom(DEFAULT_HEADROOM);
    ctx.span("setup.warmup", |_| {
        let warm = ServerConfig {
            requests: s.closed_warmup,
            ..cfg.clone()
        };
        run_server(
            &mut m, &store, &mut pool, &mut port, &mut fixed, &mut gens, &warm,
        )
    });

    let before = Probe::take(Some(&m));
    let mut refill = Timed::new(&mut fixed as &mut dyn HeadroomPolicy);
    let traced = ctx.traced;
    let rep = ctx.timed(|_| {
        let policy: &mut dyn HeadroomPolicy = if traced {
            &mut refill
        } else {
            &mut *refill.inner
        };
        run_server(
            &mut m, &store, &mut pool, &mut port, policy, &mut gens, &cfg,
        )
    });
    let after = Probe::take(Some(&m));

    let mut digest = Fnv::default();
    digest.debug(&rep);
    let failed = rep.drops.total();
    let sim = vec![
        metric("sim_mops", rep.tps / 1e6, "Mop/s"),
        metric("sim_cycles_per_op", rep.cycles_per_request, "cycles"),
        metric("sim_hot_hit_pct", 100.0 * rep.hot_hit_rate(), "%"),
        metric("sim_migrated", rep.migrated as f64, "count"),
        metric("sim_fail_frac", failed as f64 / rep.offered as f64, "ratio"),
    ];
    let layers = traced.then(|| {
        let counts = Counts {
            offered: rep.offered,
            served: rep.served,
            gets: rep.gets,
            sets: rep.served - rep.gets,
            requests: rep.offered,
            arrivals: 0,
        };
        let n = s.replay_calls;
        let mut port = rss_port(KVS_CORES, 256);
        let mut gens = closed_gens(ctx, &mut port);
        let flows: Vec<FlowTuple> = gens.iter().map(RequestGen::flow).collect();
        let (request_ns, requests) = draw(&mut gens, n);
        // A closed loop has no arrival process; this times the open
        // loop's Poisson source so the metric exists on every workload.
        let (arrival_ns, _) = arrivals(&mut OpenLoopGen::poisson(OPEN_RATE, ctx.seed_for(0x50)), n);
        let replays = replay::run(
            ctx,
            Inputs {
                m: &mut m,
                store: &store,
                pool: &pool,
                policy: PolicyKind::Fixed,
                steer: SteerKind::Rss,
                cores: KVS_CORES,
                depth: 256,
                burst: 32,
                requests,
                frames: request_frames(&flows, n),
                arrivals: Vec::new(),
                request_ns,
                arrival_ns,
                zipf_setup_s: zipf_s,
                store_build_s: build_s,
            },
        );
        Layers {
            insitu: insitu(
                rep.offered,
                before,
                after,
                refill.seam.calls(),
                Some(&rep),
                None,
            ),
            seams: vec![("rte", refill.seam)],
            replays,
            counts,
        }
    });
    Outcome {
        ops: rep.offered,
        attempted: rep.offered,
        failed,
        sim,
        digest: digest.finish(),
        check: Ok(()),
        layers,
    }
}

// ---------------------------------------------------------------------
// kvs_open_set
// ---------------------------------------------------------------------

/// Completion latencies streamed into one sketch per queue.
struct QueueSketches(Vec<LogHist>);

impl QueueSketches {
    fn new() -> Self {
        Self((0..KVS_CORES).map(|_| LogHist::latency_ns(ALPHA)).collect())
    }

    fn merged(&self) -> LogHist {
        let mut all = self.0[0].clone();
        for q in &self.0[1..] {
            all.merge(q);
        }
        all
    }
}

impl CompletionSink for QueueSketches {
    fn record(&mut self, queue: usize, _completion_ns: f64, latency_ns: f64) {
        self.0[queue].record(latency_ns);
    }
}

fn open_cfg(ops: usize, seed: u64) -> OpenLoopConfig {
    let mut cfg = OpenLoopConfig::new(ops, seed).with_cores(KVS_CORES);
    cfg.get_permille = 500;
    cfg
}

fn open_pool_port(m: &mut Machine, depth: usize) -> (MbufPool, Port) {
    let pool = MbufPool::create(
        m,
        (8 * KVS_CORES * depth) as u32,
        DEFAULT_HEADROOM,
        DEFAULT_DATAROOM,
    )
    .expect("DRAM has pool headroom");
    (pool, rss_port(KVS_CORES, depth))
}

fn kvs_open_set(ctx: &mut Ctx) -> Outcome {
    let s = ctx.sizes;
    let (mut m, store, zipf_s, build_s) = kvs_store(ctx);
    let mut fixed = FixedHeadroom(DEFAULT_HEADROOM);
    ctx.span("setup.warmup", |c| {
        // Open-loop matching needs a fresh port per run.
        let cfg = open_cfg(s.open_warmup, c.seed_for(0x60));
        let (mut pool, mut port) = open_pool_port(&mut m, cfg.queue_depth);
        let mut poisson = OpenLoopGen::poisson(OPEN_RATE, c.seed_for(0x61));
        run_openloop_streaming(
            &mut m,
            &store,
            &mut pool,
            &mut port,
            &mut fixed,
            &mut poisson,
            &cfg,
            &mut QueueSketches::new(),
        )
    });
    let cfg = open_cfg(s.open_ops, ctx.seed_for(0x62));
    let (mut pool, mut port) = ctx.span("setup.pool_port", |_| {
        open_pool_port(&mut m, cfg.queue_depth)
    });
    let mut poisson = OpenLoopGen::poisson(OPEN_RATE, ctx.seed_for(0x63));
    let mut sketches = QueueSketches::new();

    let before = Probe::take(Some(&m));
    let mut arr = Timed::new(&mut poisson as &mut dyn Arrivals);
    let mut refill = Timed::new(&mut fixed as &mut dyn HeadroomPolicy);
    let mut sink = Timed::new(&mut sketches as &mut dyn CompletionSink);
    let traced = ctx.traced;
    let rep = ctx.timed(|_| {
        let (a, p, k): (
            &mut dyn Arrivals,
            &mut dyn HeadroomPolicy,
            &mut dyn CompletionSink,
        ) = if traced {
            (&mut arr, &mut refill, &mut sink)
        } else {
            (&mut *arr.inner, &mut *refill.inner, &mut *sink.inner)
        };
        run_openloop_streaming(&mut m, &store, &mut pool, &mut port, p, a, &cfg, k)
    });
    let after = Probe::take(Some(&m));
    let (arr, refill, sink) = (arr.seam, refill.seam, sink.seam);

    let all = sketches.merged();
    let mut digest = Fnv::default();
    digest.debug(&rep);
    digest.f64s(&[
        all.quantile(0.5),
        all.quantile(0.99),
        all.quantile(0.999),
        all.max(),
    ]);
    let check = if all.count() + all.nonfinite() == rep.completed {
        Ok(())
    } else {
        Err(format!(
            "the sketches hold {} completions, the report {}",
            all.count() + all.nonfinite(),
            rep.completed
        ))
    };
    let sim = vec![
        metric("sim_mops", rep.goodput_ops_per_s() / 1e6, "Mop/s"),
        metric("sim_p50_us", all.quantile(0.50) / 1e3, "us"),
        metric("sim_p99_us", all.quantile(0.99) / 1e3, "us"),
        metric("sim_p999_us", all.quantile(0.999) / 1e3, "us"),
        metric(
            "sim_fail_frac",
            rep.gave_up as f64 / rep.logical_ops as f64,
            "ratio",
        ),
    ];
    let layers = traced.then(|| {
        let counts = Counts {
            offered: rep.offered,
            served: rep.delivered,
            gets: rep.gets,
            sets: rep.delivered - rep.gets,
            requests: rep.logical_ops,
            arrivals: 0,
        };
        let n = s.replay_calls;
        // The generators run_openloop_streaming builds from cfg.seed.
        let mut port = rss_port(KVS_CORES, cfg.queue_depth);
        let zc = ZipfConstants::shared(
            ((1u64 << s.log2_keys) / KVS_CORES as u64).max(1),
            ZIPF_THETA,
        );
        let flows: Vec<FlowTuple> = (0..KVS_CORES)
            .map(|q| flow_for_queue(&mut port, BASE_FLOW, q))
            .collect();
        let mut gens: Vec<RequestGen> = (0..KVS_CORES)
            .map(|q| {
                RequestGen::new(
                    ZipfGen::from_constants(&zc, cfg.seed ^ (0x5eed + q as u64)),
                    cfg.get_permille,
                    cfg.seed ^ (0xc11e + q as u64),
                )
                .with_flow(flows[q])
                .with_key_partition(KVS_CORES as u32, q as u32)
            })
            .collect();
        let (request_ns, requests) = draw(&mut gens, n);
        let (arrival_ns, times) =
            arrivals(&mut OpenLoopGen::poisson(OPEN_RATE, ctx.seed_for(0x63)), n);
        let replays = replay::run(
            ctx,
            Inputs {
                m: &mut m,
                store: &store,
                pool: &pool,
                policy: PolicyKind::Fixed,
                steer: SteerKind::Rss,
                cores: KVS_CORES,
                depth: cfg.queue_depth,
                burst: cfg.burst,
                requests,
                frames: request_frames(&flows, n),
                arrivals: times,
                request_ns,
                arrival_ns,
                zipf_setup_s: zipf_s,
                store_build_s: build_s,
            },
        );
        Layers {
            insitu: insitu(rep.offered, before, after, refill.calls(), None, None),
            seams: vec![("trafficgen", arr), ("rte", refill), ("xstats", sink)],
            replays,
            counts,
        }
    });
    Outcome {
        ops: rep.offered,
        attempted: rep.logical_ops,
        failed: rep.gave_up,
        sim,
        digest: digest.finish(),
        check,
        layers,
    }
}

// ---------------------------------------------------------------------
// Fixture for replays of layers a workload does not reach.
// ---------------------------------------------------------------------

/// The tenancy scenario's store (4096 keys, `Normal` placement, warmed
/// with one GET per key) on a fresh machine, plus a pool. The replays
/// of `nfv_chain` and `tenants_storm` run on it: their entry points
/// build their machines internally.
struct Fixture {
    m: Machine,
    store: KvStore,
    pool: MbufPool,
    build_s: f64,
}

fn fixture(mbufs: u32, headroom: u16) -> Fixture {
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(256 << 20));
    let region = m.mem_mut().alloc(8 << 20, 1 << 20).expect("256 MB of DRAM");
    let hash = XorSliceHash::haswell_8slice();
    let mut alloc = SliceAllocator::new(region, move |pa| hash.slice_of(pa));
    let t0 = Instant::now();
    let store = KvStore::build(&mut m, &mut alloc, TENANT_KEYS, Placement::Normal)
        .expect("8 MB holds the store");
    let build_s = t0.elapsed().as_secs_f64();
    let pool = MbufPool::create(&mut m, mbufs, headroom, DEFAULT_DATAROOM).expect("256 MB of DRAM");
    let mut scratch = [0u8; 64];
    for key in 0..TENANT_KEYS as u32 {
        store.get(&mut m, 0, key, &mut scratch);
    }
    Fixture {
        m,
        store,
        pool,
        build_s,
    }
}

/// The tenancy scenario's KVS clients (tenancy::run): uniform keys over
/// two key classes, 90 % GET.
fn tenant_gens(seed: u64, flows: &[FlowTuple]) -> Vec<RequestGen> {
    (0..2u64)
        .map(|q| {
            RequestGen::new(
                ZipfGen::new((TENANT_KEYS / 2) as u64, 0.0, seed ^ (0x5eed + q)),
                900,
                seed ^ (0xc11e + q),
            )
            .with_flow(flows[q as usize])
            .with_key_partition(2, q as u32)
        })
        .collect()
}

// ---------------------------------------------------------------------
// nfv_chain
// ---------------------------------------------------------------------

fn nfv_config(seed: u64) -> RunConfig {
    let mut cfg = RunConfig::paper_defaults(
        ChainSpec::RouterNaptLb {
            routes: 3120,
            offload: true,
        },
        SteeringKind::FlowDirector,
        HeadroomMode::CacheDirector {
            preferred_slices: 1,
        },
    );
    cfg.seed = seed;
    cfg
}

fn nfv_chain(ctx: &mut Ctx) -> Outcome {
    let s = ctx.sizes;
    let cfg = nfv_config(ctx.seed_for(0x70));
    let zipf_setup_s = zipf_setup(ctx, NFV_FLOWS as u64, DEFAULT_FLOW_SKEW);
    let mut tb = ctx.span("setup.testbed", |_| {
        Testbed::new(cfg.clone()).expect("the paper's testbed fits its machine")
    });
    let (mut trace, mut sched) = ctx.span("setup.trace", |c| {
        (
            CampusTrace::new(SizeMix::campus(), NFV_FLOWS, c.seed_for(0x71)),
            ArrivalSchedule::constant_gbps(NFV_GBPS, NFV_MEAN_SIZE),
        )
    });
    ctx.span("setup.warmup", |_| {
        for _ in 0..s.nfv_warmup {
            let t = sched.next_arrival_ns();
            let p = trace.next_packet();
            tb.offer(&p.flow, p.size, t);
        }
    });

    let before = Probe::take(Some(tb.machine()));
    let gen = Seam::default();
    let offer = Seam::default();
    let traced = ctx.traced;
    let (res, after) = ctx.timed(|c| {
        let mut left = s.nfv_packets;
        while left > 0 {
            let batch = left.min(NFV_BATCH);
            c.span("offer_batch", |_| {
                for _ in 0..batch {
                    if traced {
                        let (t, p) = gen.time(|| (sched.next_arrival_ns(), trace.next_packet()));
                        offer.time(|| tb.offer(&p.flow, p.size, t));
                    } else {
                        let t = sched.next_arrival_ns();
                        let p = trace.next_packet();
                        tb.offer(&p.flow, p.size, t);
                    }
                }
            });
            left -= batch;
        }
        // Testbed::finish consumes the machine: read its counters first.
        let after = Probe::take(Some(tb.machine()));
        (c.span("finish", |_| tb.finish()), after)
    });
    // The engine adds its scheduler counters to the totals at finish.
    let after = Probe {
        sched: engine::sched_totals(),
        ..after
    };

    let mut digest = Fnv::default();
    digest.debug(&(
        res.offered,
        res.delivered,
        res.dropped,
        res.drops,
        res.offered_gbps,
        res.achieved_gbps,
        res.duration_ns,
    ));
    digest.f64s(&res.latencies_ns);
    let expected = (s.nfv_warmup + s.nfv_packets) as u64;
    let check = if res.offered == expected && res.delivered + res.dropped == res.offered {
        Ok(())
    } else {
        Err(format!(
            "offered {} (expected {expected}), delivered {} + dropped {}",
            res.offered, res.delivered, res.dropped
        ))
    };
    let lat = res.summary().expect("a delivering run records latencies");
    let sim = vec![
        metric(
            "sim_mops",
            res.delivered as f64 / res.duration_ns * 1e3,
            "Mop/s",
        ),
        metric("sim_p50_us", lat.percentile(50.0) / 1e3, "us"),
        metric("sim_p99_us", lat.percentile(99.0) / 1e3, "us"),
        metric("sim_p999_us", lat.percentile(99.9) / 1e3, "us"),
        metric(
            "sim_fail_frac",
            res.dropped as f64 / res.offered as f64,
            "ratio",
        ),
        metric("sim_gbps", res.achieved_gbps, "Gbps"),
    ];
    let timed_share = s.nfv_packets as f64 / res.offered as f64;
    let layers = traced.then(|| {
        let counts = Counts {
            offered: s.nfv_packets as u64,
            served: (res.delivered as f64 * timed_share) as u64,
            ..Counts::default()
        };
        let n = s.replay_calls;
        let mut fx = fixture(
            (2 * cfg.cores * cfg.queue_depth) as u32,
            CACHEDIRECTOR_HEADROOM,
        );
        let mut trace = CampusTrace::new(SizeMix::campus(), NFV_FLOWS, ctx.seed_for(0x71));
        let (request_ns, packets) = time_each(n, || trace.next_packet());
        let (arrival_ns, times) = arrivals(
            &mut ArrivalSchedule::constant_gbps(NFV_GBPS, NFV_MEAN_SIZE),
            n,
        );
        let mut port = rss_port(2, 256);
        let flows: Vec<FlowTuple> = (0..2)
            .map(|q| flow_for_queue(&mut port, BASE_FLOW, q))
            .collect();
        let (_, requests) = draw(&mut tenant_gens(ctx.seed_for(0x72), &flows), n);
        let replays = replay::run(
            ctx,
            Inputs {
                m: &mut fx.m,
                store: &fx.store,
                pool: &fx.pool,
                policy: PolicyKind::CacheDirector,
                steer: SteerKind::FlowDirector,
                cores: cfg.cores,
                depth: cfg.queue_depth,
                burst: cfg.burst,
                requests,
                frames: packets.iter().map(|p| (p.flow, p.size)).collect(),
                arrivals: times,
                request_ns,
                arrival_ns,
                zipf_setup_s,
                store_build_s: fx.build_s,
            },
        );
        Layers {
            insitu: insitu(s.nfv_packets as u64, before, after, 0, None, None),
            seams: vec![("trafficgen", gen), ("nfv.offer", offer)],
            replays,
            counts,
        }
    });
    Outcome {
        ops: s.nfv_packets as u64,
        attempted: res.offered,
        failed: res.dropped,
        sim,
        digest: digest.finish(),
        check,
        layers,
    }
}

// ---------------------------------------------------------------------
// tenants_storm
// ---------------------------------------------------------------------

fn tenants_storm(ctx: &mut Ctx) -> Outcome {
    let s = ctx.sizes;
    let cfg = TenancyConfig {
        seed: ctx.seed_for(0x80),
        ..TenancyConfig::new(Regime::Online, s.tenant_packets)
    };
    let zipf_setup_s = zipf_setup(ctx, (TENANT_KEYS / 2) as u64, 0.0);
    // run_tenancy builds its machine inside, so a set-up pass can warm
    // only the process (allocator, page tables), not the simulated
    // caches; it is a short run of the same scenario.
    ctx.span("setup.warmup", |_| {
        run_tenancy(&TenancyConfig {
            packets: s.tenant_warmup,
            ..cfg.clone()
        })
    });
    let before = Probe::take(None);
    let rep = ctx.timed(|_| run_tenancy(&cfg));
    let after = Probe::take(None);

    let victims = &rep.tenants[..2];
    let offered: u64 = rep.tenants.iter().map(|t| t.offered).sum();
    let attempted: u64 = victims.iter().map(|t| t.offered).sum();
    let failed: u64 = victims.iter().map(|t| t.offered - t.served).sum();
    let mut digest = Fnv::default();
    digest.debug(&rep);
    let sim = vec![
        metric(
            "sim_mops",
            victims.iter().map(|t| t.goodput_mpps).sum(),
            "Mop/s",
        ),
        metric(
            "sim_p99_us",
            victims.iter().map(|t| t.p99_ns).fold(0.0, f64::max) / 1e3,
            "us",
        ),
        metric(
            "sim_slo_violation_ms",
            victims.iter().map(|t| t.violation_ns).sum::<f64>() / 1e6,
            "ms",
        ),
        metric("sim_fail_frac", failed as f64 / attempted as f64, "ratio"),
    ];
    let layers = ctx.traced.then(|| {
        let kvs = &rep.tenants[0];
        let counts = Counts {
            offered,
            served: rep.tenants.iter().map(|t| t.served).sum(),
            gets: kvs.served * 9 / 10,
            sets: kvs.served - kvs.served * 9 / 10,
            requests: kvs.offered,
            arrivals: offered,
        };
        let n = s.replay_calls;
        let mut fx = fixture(2048, DEFAULT_HEADROOM);
        let mut port = rss_port(TENANT_QUEUES, 64);
        let flows: Vec<FlowTuple> = (0..TENANT_QUEUES)
            .map(|q| flow_for_queue(&mut port, BASE_FLOW, q))
            .collect();
        let (request_ns, requests) = draw(&mut tenant_gens(cfg.seed, &flows), n);
        let (arrival_ns, times) = arrivals(&mut ArrivalSchedule::constant_pps(VICTIM_PPS), n);
        let replays = replay::run(
            ctx,
            Inputs {
                m: &mut fx.m,
                store: &fx.store,
                pool: &fx.pool,
                policy: PolicyKind::Fixed,
                steer: SteerKind::Rss,
                cores: TENANT_QUEUES,
                depth: 64,
                burst: 32,
                requests,
                frames: request_frames(&flows, n),
                arrivals: times,
                request_ns,
                arrival_ns,
                zipf_setup_s,
                store_build_s: fx.build_s,
            },
        );
        Layers {
            insitu: insitu(offered, before, after, 0, None, Some(&rep)),
            seams: Vec::new(),
            replays,
            counts,
        }
    });
    Outcome {
        ops: offered,
        attempted,
        failed,
        sim,
        digest: digest.finish(),
        check: Ok(()),
        layers,
    }
}
