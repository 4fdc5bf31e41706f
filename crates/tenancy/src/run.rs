//! The multi-tenant chaos harness: three tenants on one socket, a
//! noisy-neighbour storm schedule, and the isolation controller in the
//! engine's control loop.
//!
//! # Scenario
//!
//! One simulated Haswell socket serves three tenants:
//!
//! | tenant | service | cores/queues | cache hunger |
//! |---|---|---|---|
//! | 0 `kvs` | KVS instance | 0,1 | pressure set 8 lines/slice-set |
//! | 1 `nfv` | NFV chain | 2,3 | pressure set 7 lines/slice-set |
//! | 2 `antagonist` | noisy neighbour | 4 | streaming thrash + DMA storms |
//!
//! CAT segments stack bottom-to-top as `[antagonist, kvs, nfv]`, so the
//! **nfv** tenant owns the top ways — including the DDIO window. That is
//! deliberate: DDIO ignores CAT ([`Machine::dma_place`] allocates into
//! the top ways regardless of who they were granted to), so the tenant
//! holding the top of the mask is the one a DMA flood robs. The
//! antagonist's storm phases ([`crate::apps::PhasedGaps`]) multiply the
//! accepted-frame rate by ~40×, and every accepted frame is two DDIO
//! fills.
//!
//! The two victims are sized to hurt in distinct ways under the static
//! even split (7/7/6):
//!
//! * `kvs` wants 8 ways (its pressure set is 8 deep) but even gives 7 —
//!   a *capacity* victim, pressured around the clock.
//! * `nfv` fits its 7 ways exactly — until a storm parks DMA lines in
//!   its top two ways, shrinking it to ~5 effective ways. A *DDIO*
//!   victim, pressured only inside storm windows.
//!
//! The mbuf pool geometry is chosen so DMA frame starts recur on one
//! LLC set index class (object size = exactly 2 KB = 32 lines, so frame
//! lines land on sets `≡ r, r+1 (mod 32)`). The nfv pressure set is
//! placed *on* that class — it shares sets with the DMA traffic, which
//! is what makes the leak bite — while the kvs pressure set is placed
//! 16 classes away, DMA-free, so its story stays a pure capacity one.
//!
//! # Regimes
//!
//! [`Regime::StaticEven`] and [`Regime::StaticOracle`] run the
//! controller in monitor-only mode (identical sampling grid, no
//! actions); [`Regime::Online`] lets it act. The oracle is the
//! hand-tuned end state (2/9/9 ways, DDIO 1) an operator with perfect
//! knowledge would install up front.
//!
//! # Determinism
//!
//! Control epochs fire at fixed virtual times whatever epochs the
//! engine dispatches in between; observations are derived from merged
//! machine state and canonical-order latency logs; the controller is a
//! pure function of its observations. Reports are therefore
//! bit-identical serial vs parallel — asserted by the repo's
//! determinism battery and the `fig_tenants` golden.

use crate::apps::{PhasedGaps, TenantApp, TenantKind};
use crate::controller::{ControllerConfig, IsolationController};
use engine::{
    AdmissionPolicy, Engine, EngineConfig, Execution, Hw, MergeCtx, Scheduler, WorkerSpec,
};
use kvs::proto::{RequestGen, REQUEST_SIZE};
use kvs::server::flow_for_queue;
use kvs::store::{KvStore, Placement};
use llc_sim::machine::{Machine, MachineConfig};
use llc_sim::uncore::{UncoreEvent, UncoreSnapshot};
use llc_sim::PhysAddr;
use rte::fault::FaultPlan;
use rte::mbuf::MBUF_META_SIZE;
use rte::mempool::MbufPool;
use rte::nic::{FixedHeadroom, Port};
use rte::steering::{Rss, Steering};
use slice_aware::alloc::SliceAllocator;
use std::cell::RefCell;
use std::rc::Rc;
use trafficgen::{FlowTuple, Phase, PhaseSchedule, ZipfGen};
use xstats::percentile::percentile_in_place;
use xstats::{slo_violation_ns, Summary};

/// Tenant count (kvs, nfv, antagonist).
pub(crate) const TENANTS: usize = 3;
/// Tenant display names, tenant order.
pub(crate) const NAMES: [&str; TENANTS] = ["kvs", "nfv", "antagonist"];
/// Serving cores (== RX queues) per tenant.
const TENANT_QUEUES: [&[usize]; TENANTS] = [&[0, 1], &[2, 3], &[4]];
/// Queue → owning tenant (also the engine's ledger groups).
const QUEUE_TENANT: [usize; 5] = [0, 0, 1, 1, 2];
/// CAT segment stacking, bottom way up: antagonist, kvs, nfv — the nfv
/// segment always contains the DDIO (top) ways.
const SEGMENT_ORDER: [usize; TENANTS] = [2, 0, 1];

/// The static even split (tenant order).
pub(crate) const EVEN_WAYS: [usize; TENANTS] = [7, 7, 6];
/// The hand-tuned oracle split (tenant order); the oracle also pins
/// DDIO to [`DDIO_MIN`].
pub(crate) const ORACLE_WAYS: [usize; TENANTS] = [8, 10, 2];

/// Pressure-set depth per slice set: kvs wants one way more than even
/// gives it; nfv wants two more — and because DMA churn steals its top
/// (DDIO) ways during storms, even a grant that fits the depth exactly
/// leaves it storm-pressured until the controller also shrinks DDIO.
const KVS_DEPTH: usize = 8;
const NFV_DEPTH: usize = 9;
/// Pressure reads per victim packet.
const PRESSURE_READS: usize = 8;
/// Streaming thrash reads per antagonist packet.
const THRASH_READS: usize = 2;
/// Antagonist streaming buffer (4 MB: every read a fresh line).
const THRASH_BYTES: usize = 4 << 20;
/// Keys in the kvs tenant's store.
const STORE_KEYS: usize = 4096;

/// Victim inter-arrival gap (2 Mpps per victim tenant).
const VICTIM_GAP_NS: f64 = 500.0;
/// Antagonist gaps: quiet trickle vs. near-line-rate storm.
const ANT_QUIET_GAP_NS: f64 = 5_000.0;
const ANT_STORM_GAP_NS: f64 = 125.0;
/// Storm schedule in antagonist arrivals: 200 quiet (1 ms), then 4000
/// storm (0.5 ms), cycling.
const QUIET_ARRIVALS: u64 = 200;
const STORM_ARRIVALS: u64 = 4_000;

/// Control epoch.
pub const CONTROL_PERIOD_NS: f64 = 20_000.0;
/// Per-tenant p99 SLOs (antagonist is best-effort). Placed between the
/// healthy-path p99 and the pressured-path p99 measured at this
/// scenario's scales; see EXPERIMENTS.md for the calibration numbers.
pub(crate) const KVS_SLO_NS: f64 = 230.0;
pub(crate) const NFV_SLO_NS: f64 = 220.0;
/// Allocation floor: no tenant ever drops below 2 ways.
pub const FLOOR_WAYS: usize = 2;
const HYSTERESIS: u32 = 2;
const COOLDOWN: u32 = 3;
/// LlcFill events per epoch flagging a DMA storm. Measured at this
/// scenario's rates: storm epochs carry ~260–320 fills (DMA plus the
/// antagonist's streaming misses), quiet epochs ~10–70.
const DDIO_SPIKE_FILLS: u64 = 150;
const DDIO_CALM_EPOCHS: u32 = 25;
const DDIO_FULL: usize = 2;
const DDIO_MIN: usize = 1;

/// Which partitioning policy governs the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Fixed even split, controller monitor-only.
    StaticEven,
    /// Fixed hand-tuned split + DDIO 1, controller monitor-only.
    StaticOracle,
    /// The controller acts.
    Online,
}

impl Regime {
    /// Display name (stable across reports and goldens).
    pub fn name(self) -> &'static str {
        match self {
            Regime::StaticEven => "static-even",
            Regime::StaticOracle => "static-oracle",
            Regime::Online => "online",
        }
    }

    fn initial_ways(self) -> [usize; TENANTS] {
        match self {
            Regime::StaticOracle => ORACLE_WAYS,
            _ => EVEN_WAYS,
        }
    }

    fn initial_ddio(self) -> usize {
        match self {
            Regime::StaticOracle => DDIO_MIN,
            _ => DDIO_FULL,
        }
    }
}

/// Run configuration. The scenario (tenants, rates, storm schedule) is
/// fixed; this selects the regime, the scale and the engine modes.
#[derive(Debug, Clone)]
pub struct TenancyConfig {
    /// Partitioning regime.
    pub regime: Regime,
    /// Arrivals per *victim* tenant (the antagonist derives its own
    /// count from the shared horizon).
    pub packets: usize,
    /// Serial or parallel worker execution (bit-identical reports).
    pub execution: Execution,
    /// Fault plan (composes with the storm chaos). Must not contain
    /// TX-stall windows: a TX-stalled frame is served and timed by its
    /// app but never delivered, which the app-vs-engine served
    /// cross-check would reject.
    pub faults: FaultPlan,
    /// RNG seed (request streams and pressure walks).
    pub seed: u64,
}

impl TenancyConfig {
    /// Baseline config for `packets` arrivals per victim under
    /// `regime`.
    pub fn new(regime: Regime, packets: usize) -> Self {
        Self {
            regime,
            packets,
            execution: Execution::Serial,
            faults: FaultPlan::none(),
            seed: 0x007e_4a47,
        }
    }
}

/// One tenant's slice of the run report.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant display name.
    pub name: &'static str,
    /// Frames the harness offered for this tenant.
    pub offered: u64,
    /// Frames the NIC accepted.
    pub(crate) accepted: u64,
    /// Frames rejected at offer (NIC drops + faults).
    pub rejected: u64,
    /// Frames served with a response (== the engine group's delivered).
    pub served: u64,
    /// Served frames per second of simulated time, in Mpps.
    pub goodput_mpps: f64,
    /// p99 of the per-request sojourn latency over the whole run, ns.
    pub p99_ns: f64,
    /// The tenant's SLO (∞ for best-effort).
    pub slo_ns: f64,
    /// Simulated time the tenant's windowed p99 spent above SLO, ns
    /// (first-order hold over the control-epoch series).
    pub violation_ns: f64,
    /// CAT ways held at the end of the run.
    pub final_ways: usize,
    /// Smallest way count the tenant ever held (floor check).
    pub min_ways: usize,
}

/// The full run report.
#[derive(Debug, Clone, PartialEq)]
pub struct TenancyReport {
    /// Per-tenant results, tenant order.
    pub tenants: Vec<TenantReport>,
    /// Simulated run duration.
    pub duration_ns: f64,
    /// Control epochs observed.
    pub epochs: u64,
    /// Way moves the controller applied.
    pub moves: u64,
    /// DDIO shrink / restore actions.
    pub ddio_shrinks: u64,
    /// DDIO restores after calm.
    pub ddio_restores: u64,
    /// Epochs that recorded a typed `NoFeasiblePartition`.
    pub infeasible: u64,
    /// DDIO width at the end of the run.
    pub final_ddio: usize,
    /// Per tenant: the `(epoch ns, held window-p99 ns)` series the
    /// violation accounting ran over (input for
    /// [`xstats::violation_minutes`]).
    pub series: Vec<Vec<(f64, f64)>>,
    /// `(epoch ns, LlcFill delta)` per epoch — the storm-detection
    /// input.
    pub(crate) fills: Vec<(f64, u64)>,
    /// The engine's per-tenant ledgers (queue groups == tenants); each
    /// satisfies the conservation identity, and they sum to the
    /// aggregate (both asserted in [`engine::Engine::finish`]).
    pub per_group: Vec<engine::QueueLedger>,
}

/// Everything the control hook and the harness share: the latency
/// windows and the controller itself.
struct RunShared {
    windows: Vec<Vec<f64>>,
    all_latencies: Vec<Vec<f64>>,
    ctrl: IsolationController,
    fill_base: UncoreSnapshot,
    act: bool,
}

/// Moves the apps' served latencies into the tenants' windows, in
/// canonical worker order.
fn drain_apps(apps: &mut [TenantApp<'_>], sh: &mut RunShared) {
    for app in apps {
        let t = app.tenant;
        for lat in app.latencies.drain(..) {
            sh.windows[t].push(lat);
            sh.all_latencies[t].push(lat);
        }
    }
}

/// Tenant-order CAT masks for a width vector, stacked in
/// [`SEGMENT_ORDER`].
fn masks_from_ways(ways: &[usize], llc_ways: usize) -> [u64; TENANTS] {
    let mut masks = [0u64; TENANTS];
    let mut base = 0usize;
    for &t in &SEGMENT_ORDER {
        masks[t] = ((1u64 << ways[t]) - 1) << base;
        base += ways[t];
    }
    assert!(base <= llc_ways, "partition exceeds the LLC");
    masks
}

/// Installs a width vector + DDIO width on the machine.
fn apply_partition(m: &mut Machine, ways: &[usize], ddio: usize) {
    let masks = masks_from_ways(ways, m.config().llc_slice.ways);
    for (t, queues) in TENANT_QUEUES.iter().enumerate() {
        for &core in queues.iter() {
            m.set_cat_mask(core, masks[t]);
        }
    }
    m.set_ddio_ways(ddio);
}

/// Collects `depth` lines per slice, all mapping to LLC set index
/// `set`, from `region` (candidates recur every 2048 lines).
fn build_pressure_set(
    m: &Machine,
    region: &llc_sim::mem::Region,
    set: u64,
    depth: usize,
) -> Vec<PhysAddr> {
    let slices = m.config().slices;
    let sets = m.config().llc_slice.sets as u64;
    let mut per_slice: Vec<Vec<PhysAddr>> = vec![Vec::new(); slices];
    let base_line = region.base().line();
    let end_line = base_line + (region.len() as u64 >> 6);
    // First line in the region with the target set index.
    let mut line = base_line + ((set + sets - base_line % sets) % sets);
    while line < end_line {
        let pa = PhysAddr(line << 6);
        let s = m.slice_of(pa);
        if per_slice[s].len() < depth {
            per_slice[s].push(pa);
        }
        line += sets;
    }
    for (s, v) in per_slice.iter().enumerate() {
        assert_eq!(
            v.len(),
            depth,
            "slice {s}: region too small for a {depth}-deep pressure set"
        );
    }
    per_slice.into_iter().flatten().collect()
}

/// Runs the three-tenant chaos scenario under `cfg` and reports
/// per-tenant goodput, p99, SLO-violation time and the controller's
/// action ledger.
///
/// # Panics
///
/// Panics when the fault plan contains TX-stall windows, when a
/// conservation identity fails, or when the controller violates the
/// allocation floor.
pub fn run_tenancy(cfg: &TenancyConfig) -> TenancyReport {
    assert!(cfg.packets > 0, "empty run");
    assert!(
        cfg.faults.tx_stall.is_empty(),
        "tenancy requires a plan without TX-stall windows (a TX-stalled \
         frame is served and timed by its app but never delivered, so \
         the app-vs-engine served cross-check would fail)"
    );

    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(256 << 20));
    let sets = m.config().llc_slice.sets as u64;

    // Pool first: its geometry decides which set classes DMA recurs on.
    // Object size must be exactly 2 KB (32 lines) so frame starts land
    // on one set class per 32 — see the module docs.
    let mut pool = MbufPool::create(&mut m, 2048, 128, 1792).unwrap();
    assert_eq!(pool.obj_size(), 2048, "DMA set-class math needs 2 KB mbufs");
    let dma_line0 = pool.obj_base(0).add((MBUF_META_SIZE + 128) as u64).line();
    let dma_class = dma_line0 % 32;

    // Pressure sets: nfv *on* the DMA class (the leak victim), kvs 16
    // classes away (DMA-free capacity victim). Both clear of the first
    // 64 sets to stay away from other allocations' hot lines.
    let nfv_set = 64 + dma_class;
    let kvs_set = 64 + (dma_class + 16) % 32;
    let pressure_region = m.mem_mut().alloc(32 << 20, 1 << 20).unwrap();
    let kvs_pressure = build_pressure_set(&m, &pressure_region, kvs_set % sets, KVS_DEPTH);
    let nfv_pressure = build_pressure_set(&m, &pressure_region, nfv_set % sets, NFV_DEPTH);

    let store_region = m.mem_mut().alloc(8 << 20, 1 << 20).unwrap();
    let mut alloc = SliceAllocator::new(store_region, m.slice_oracle());
    let store = KvStore::build(&mut m, &mut alloc, STORE_KEYS, Placement::Normal).unwrap();

    let thrash_region = m.mem_mut().alloc(THRASH_BYTES, 1 << 20).unwrap();
    let thrash_lines = (THRASH_BYTES >> 6) as u64;

    // Install the regime's starting partition, then warm each victim's
    // pressure set and the store under those masks so the run starts
    // from steady-state residency rather than cold misses.
    let initial_ways = cfg.regime.initial_ways();
    apply_partition(&mut m, &initial_ways, cfg.regime.initial_ddio());
    for &pa in &kvs_pressure {
        m.touch_read(0, pa);
    }
    for &pa in &nfv_pressure {
        m.touch_read(2, pa);
    }
    let mut scratch = [0u8; 64];
    for key in 0..STORE_KEYS as u32 {
        store.get(&mut m, 0, key, &mut scratch);
    }
    m.reset_clocks();
    m.reset_stats();
    m.uncore_mut().select(UncoreEvent::LlcFill);

    let queues = QUEUE_TENANT.len();
    let mut port = Port::new(0, Steering::Rss(Rss::new(queues)), 64);
    let mut policy = FixedHeadroom(128);
    let base_flow = FlowTuple::tcp(0x0a00_0001, 40_000, 0xc0a8_0001, 11211);
    let flows: Vec<FlowTuple> = (0..queues)
        .map(|q| flow_for_queue(&mut port, base_flow, q))
        .collect();

    // KVS request streams: one per kvs queue, uniform keys, disjoint
    // key classes.
    let mut reqgens: Vec<RequestGen> = (0..2)
        .map(|qi| {
            let keygen = ZipfGen::new(
                (STORE_KEYS / 2) as u64,
                0.0,
                cfg.seed ^ (0x5eed + qi as u64),
            );
            RequestGen::new(keygen, 900, cfg.seed ^ (0xc11e + qi as u64))
                .with_flow(flows[qi])
                .with_key_partition(2, qi as u32)
        })
        .collect();

    let apps: Vec<TenantApp<'_>> = (0..queues)
        .map(|w| {
            let tenant = QUEUE_TENANT[w];
            let kind = match tenant {
                0 => TenantKind::Kvs,
                1 => TenantKind::Nfv,
                _ => TenantKind::Antagonist,
            };
            TenantApp {
                tenant,
                kind,
                store: (kind == TenantKind::Kvs).then_some(&store),
                pressure: match kind {
                    TenantKind::Kvs => kvs_pressure.clone(),
                    TenantKind::Nfv => nfv_pressure.clone(),
                    TenantKind::Antagonist => Vec::new(),
                },
                reads_per_packet: PRESSURE_READS,
                thrash: (kind == TenantKind::Antagonist).then_some((
                    thrash_region.base(),
                    thrash_lines,
                    0,
                )),
                thrash_per_packet: THRASH_READS,
                rng: (cfg.seed ^ (w as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1,
                latencies: Vec::new(),
                served_ok: 0,
            }
        })
        .collect();

    let ecfg = EngineConfig {
        workers: WorkerSpec::run_to_completion(queues),
        queue_depth: 64,
        burst: 32,
        faults: cfg.faults.clone(),
        execution: cfg.execution,
        admission: AdmissionPolicy::AcceptAll,
        scheduler: Scheduler::default(),
    };
    let mut hw = Hw {
        m: &mut m,
        port: &mut port,
        pool: &mut pool,
        policy: &mut policy,
    };
    let mut eng = Engine::new(apps, ecfg, &mut hw);
    eng.set_queue_groups(QUEUE_TENANT.to_vec());

    let ctrl = IsolationController::new(
        ControllerConfig {
            slo_p99_ns: vec![KVS_SLO_NS, NFV_SLO_NS, f64::INFINITY],
            floor_ways: FLOOR_WAYS,
            hysteresis: HYSTERESIS,
            cooldown: COOLDOWN,
            ddio_spike_fills: DDIO_SPIKE_FILLS,
            ddio_calm_epochs: DDIO_CALM_EPOCHS,
            ddio_full: DDIO_FULL,
            ddio_min: DDIO_MIN,
        },
        initial_ways.to_vec(),
    );
    let shared = Rc::new(RefCell::new(RunShared {
        windows: vec![Vec::new(); TENANTS],
        all_latencies: vec![Vec::new(); TENANTS],
        fill_base: hw.m.uncore().snapshot(),
        act: matches!(cfg.regime, Regime::Online),
        ctrl,
    }));

    // The control loop: drain the latency windows, poll the CBo fill
    // window, let the controller decide, apply. Runs at every control
    // boundary, at exact virtual times, and allocates nothing: each
    // window's p99 is computed in the window's own buffer, which is then
    // emptied for the next period.
    let hook_shared = Rc::clone(&shared);
    eng.set_control_hook(
        CONTROL_PERIOD_NS,
        Box::new(
            move |apps: &mut [TenantApp<'_>], mc: &mut MergeCtx<'_>, t: f64| {
                let sh = &mut *hook_shared.borrow_mut();
                drain_apps(apps, sh);
                let mut p99 = [None; TENANTS];
                for (p, window) in p99.iter_mut().zip(&mut sh.windows) {
                    *p = percentile_in_place(window, 99.0);
                    window.clear();
                }
                let fill_delta = mc.m.uncore().advance_window(&mut sh.fill_base);
                let actions = sh.ctrl.observe(t, &p99, fill_delta, sh.act);
                if !actions.is_empty() {
                    apply_partition(mc.m, sh.ctrl.ways(), sh.ctrl.ddio());
                }
            },
        ),
    );

    // Arrival loop: each tenant has one pending arrival time; the least
    // `(t, tenant)` goes next, so same-time arrivals go in tenant order.
    let horizon_ns = cfg.packets as f64 * VICTIM_GAP_NS;
    let mut ant_gaps = PhasedGaps::new(
        PhaseSchedule::cycling(vec![
            Phase::new(QUIET_ARRIVALS, 0),
            Phase::new(STORM_ARRIVALS, 0),
        ]),
        vec![ANT_QUIET_GAP_NS, ANT_STORM_GAP_NS],
    );
    let ant_first = ant_gaps.next_arrival_ns();
    let mut next: [Option<f64>; TENANTS] = [
        Some(VICTIM_GAP_NS),
        Some(VICTIM_GAP_NS),
        (ant_first <= horizon_ns).then_some(ant_first),
    ];

    let mut offered = [0u64; TENANTS];
    let mut accepted = [0u64; TENANTS];
    let mut rejected = [0u64; TENANTS];
    let mut issued = [0u64; TENANTS];
    let mut frame = vec![0u8; REQUEST_SIZE];
    let mut seq = 0u64;
    while let Some((t, tenant)) = (0..TENANTS)
        .filter_map(|i| Some((next[i]?, i)))
        .min_by(|a, b| a.partial_cmp(b).expect("arrival times are not NaN"))
    {
        next[tenant] = None;
        let lanes = TENANT_QUEUES[tenant];
        let q = lanes[(issued[tenant] as usize) % lanes.len()];
        nfv::packet::encode_frame(&mut frame, &flows[q], REQUEST_SIZE, t, seq);
        seq += 1;
        if tenant == 0 {
            let req = reqgens[q].next_request();
            kvs::proto::write_request(&mut frame, &req);
        }
        offered[tenant] += 1;
        issued[tenant] += 1;
        let res = eng.offer(&mut hw, &flows[q], &frame, t);
        match res {
            Ok(_) => accepted[tenant] += 1,
            Err(_) => rejected[tenant] += 1,
        }
        // Schedule this tenant's next arrival.
        if tenant < 2 {
            if issued[tenant] < cfg.packets as u64 {
                let tn = (issued[tenant] + 1) as f64 * VICTIM_GAP_NS;
                next[tenant] = Some(tn);
            }
        } else {
            let tn = ant_gaps.next_arrival_ns();
            if tn <= horizon_ns {
                next[tenant] = Some(tn);
            }
        }
    }

    // Fire the remaining control boundaries (so the last windows reach
    // the series), then drain in-flight work.
    let t_final = (horizon_ns / CONTROL_PERIOD_NS).ceil() * CONTROL_PERIOD_NS + CONTROL_PERIOD_NS;
    eng.run_until(&mut hw, t_final);
    eng.drain(&mut hw);

    let (rep, mut apps) = eng.finish(&mut hw);
    assert_eq!(rep.in_flight, 0, "drained run leaves nothing in flight");
    assert_eq!(rep.carried, 0, "fresh port carries nothing in");
    {
        let sh = &mut *shared.borrow_mut();
        drain_apps(&mut apps, sh);
        sh.ctrl.finalize(rep.duration_ns.max(t_final));
    }

    // Cross-check the harness's per-tenant ledger against the engine's
    // per-group one (the groups are the tenants).
    assert_eq!(rep.per_group.len(), TENANTS, "one ledger group per tenant");
    let mut served = [0u64; TENANTS];
    for a in &apps {
        served[a.tenant] += a.served_ok;
    }
    for t in 0..TENANTS {
        assert_eq!(
            rep.per_group[t].offered, offered[t],
            "tenant {t}: engine group ledger disagrees with the harness"
        );
        assert_eq!(rep.per_group[t].delivered, served[t]);
    }

    let shared = Rc::try_unwrap(shared)
        .unwrap_or_else(|_| panic!("the hook's shared handle is gone after finish"))
        .into_inner();
    let final_ways = shared.ctrl.ways().to_vec();
    let final_ddio = shared.ctrl.ddio();
    let all_latencies = shared.all_latencies;
    let log = shared.ctrl.log;
    let slos = [KVS_SLO_NS, NFV_SLO_NS, f64::INFINITY];
    let tenants: Vec<TenantReport> = (0..TENANTS)
        .map(|t| {
            let p99 = Summary::from_samples(all_latencies[t].iter().copied())
                .map_or(0.0, |s| s.percentile(99.0));
            TenantReport {
                name: NAMES[t],
                offered: offered[t],
                accepted: accepted[t],
                rejected: rejected[t],
                served: served[t],
                goodput_mpps: if rep.duration_ns > 0.0 {
                    served[t] as f64 / (rep.duration_ns / 1e9) / 1e6
                } else {
                    0.0
                },
                p99_ns: p99,
                slo_ns: slos[t],
                violation_ns: slo_violation_ns(&log.series[t], slos[t]),
                final_ways: final_ways[t],
                min_ways: log.min_ways_seen[t],
            }
        })
        .collect();

    TenancyReport {
        tenants,
        duration_ns: rep.duration_ns,
        epochs: log.epochs,
        moves: log.moves,
        ddio_shrinks: log.ddio_shrinks,
        ddio_restores: log.ddio_restores,
        infeasible: log.infeasible,
        final_ddio,
        series: log.series,
        fills: log.fills,
        per_group: rep.per_group,
    }
}
