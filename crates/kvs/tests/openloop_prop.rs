//! Property test: the open-loop serving stack conserves every logical
//! operation and every physical packet — and is bit-identical between
//! serial and parallel execution — across a randomized grid of
//! scenarios: core counts, arrival processes (constant, Poisson, burst
//! trains, flash crowds, ramps), deadlines, retry budgets, admission
//! policies, and fault plans (everything but TX-stall, which the
//! open-loop matcher rejects by contract).
//!
//! [`kvs::run_openloop_streaming`] already asserts the extended
//! conservation identities internally on every run (logical:
//! `completed + gave_up == logical_ops`, `offered == logical_ops +
//! retries`; physical: `offered == accepted + rejected`, `accepted ==
//! delivered + server drops`, `delivered == completed + late`). This
//! test's job is to drive those asserts through a configuration space
//! wide enough that nothing survives by coincidence, and to pin
//! serial/parallel equivalence of the *entire report and every
//! completion record* per seed. A failure prints its iteration seed and
//! replays exactly.

use engine::{AdmissionPolicy, Execution};
use kvs::store::{KvStore, Placement};
use kvs::{run_openloop_streaming, CompletionSink, OpenLoopConfig, OpenLoopReport};
use llc_sim::machine::{Machine, MachineConfig};
use rte::fault::{FaultPlan, Window};
use rte::mempool::MbufPool;
use rte::nic::{FixedHeadroom, Port};
use rte::steering::{Rss, Steering};
use slice_aware::alloc::SliceAllocator;
use trafficgen::{Arrivals, OpenLoopGen, RateProfile, Rng64};

const KEYS: usize = 2048;
const OPS: usize = 500;

/// Draws one random scenario. Everything is a pure function of the
/// iteration seed so a failing case replays from its printed seed.
struct Scenario {
    cfg: OpenLoopConfig,
    arrival_seed: u64,
    rate_pps: f64,
    kind: u32,
}

fn draw(rng: &mut Rng64, seed: u64) -> Scenario {
    let cores = [1usize, 2, 4][rng.gen_range(0u32..3) as usize];
    // 2.5–80 Mops/s total: from comfortable underload to ~3× past the
    // 2-core knee, so the grid crosses the saturation boundary.
    let rate_pps = 2.5e6 * f64::powi(2.0, rng.gen_range(0u32..6) as i32);
    let deadline_ns = match rng.gen_range(0u32..3) {
        0 => f64::INFINITY,
        1 => 20_000.0,
        _ => 4_000.0 + rng.gen_range(0u32..8_000) as f64,
    };
    let timeout_ns = 1_000.0 + rng.gen_range(0u32..6_000) as f64;
    let max_attempts = 1 + rng.gen_range(0u32..4);
    let admission = match rng.gen_range(0u32..3) {
        0 => AdmissionPolicy::AcceptAll,
        1 => AdmissionPolicy::QueueDepth {
            max_backlog: 16 + rng.gen_range(0u32..48) as usize,
        },
        _ => AdmissionPolicy::DeadlineInfeasible {
            est_service_ns: 60.0 + rng.gen_range(0u32..200) as f64,
        },
    };
    // Fault windows sit inside the first ~half of the nominal arrival
    // span so they actually see traffic. TX-stall is excluded by the
    // open-loop contract (run_openloop_streaming rejects it).
    let horizon = OPS as f64 / rate_pps * 1e9;
    let faults = match rng.gen_range(0u32..4) {
        0 => FaultPlan::none(),
        1 => FaultPlan::none()
            .with_seed(seed)
            .with_corrupt_prob(0.01 * rng.gen_range(1u32..4) as f64),
        2 => FaultPlan::none()
            .with_seed(seed)
            .with_link_flap(Window::new((0.2 * horizon) as u64, (0.3 * horizon) as u64)),
        _ => FaultPlan::none()
            .with_seed(seed)
            .with_rx_stall(Window::new((0.1 * horizon) as u64, (0.2 * horizon) as u64))
            .with_truncate_prob(0.01),
    };
    let cfg = OpenLoopConfig::new(OPS, seed ^ 0xfeed)
        .with_cores(cores)
        .with_deadline(deadline_ns)
        .with_retries(timeout_ns, max_attempts)
        .with_admission(admission)
        .with_faults(faults);
    Scenario {
        cfg,
        arrival_seed: seed ^ 0xa221,
        rate_pps,
        kind: rng.gen_range(0u32..5),
    }
}

/// Builds the scenario's arrival generator. Called once per execution
/// mode: generators are stateful, so each run needs a fresh, identical
/// instance.
fn arrivals(s: &Scenario) -> OpenLoopGen {
    let horizon = OPS as f64 / s.rate_pps * 1e9;
    match s.kind {
        0 => OpenLoopGen::constant(s.rate_pps),
        1 => OpenLoopGen::poisson(s.rate_pps, s.arrival_seed),
        2 => OpenLoopGen::bursts(s.rate_pps, 16, 20.0),
        3 => OpenLoopGen::poisson(s.rate_pps, s.arrival_seed)
            .with_profile(RateProfile::flat().with_flash(0.3 * horizon, 0.5 * horizon, 4.0)),
        _ => OpenLoopGen::constant(s.rate_pps)
            .with_profile(RateProfile::flat().with_ramp(0.0, horizon, 0.5, 2.0)),
    }
}

/// Every completion record with the queue that served it:
/// `(queue, completion ns, latency ns)`.
#[derive(Default)]
struct Records(Vec<(usize, f64, f64)>);

impl CompletionSink for Records {
    fn record(&mut self, queue: usize, completion_ns: f64, latency_ns: f64) {
        self.0.push((queue, completion_ns, latency_ns));
    }
}

/// One full run: fresh machine, store, pool, and port (the open-loop
/// completion matcher requires pristine rings).
fn run(cfg: &OpenLoopConfig, arr: &mut dyn Arrivals) -> (OpenLoopReport, Records) {
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(256 << 20));
    let region = m.mem_mut().alloc(8 << 20, 1 << 20).unwrap();
    let mut alloc = SliceAllocator::new(region, m.slice_oracle());
    let store = KvStore::build(&mut m, &mut alloc, KEYS, Placement::Normal).unwrap();
    let mut pool = MbufPool::create(&mut m, (8 * cfg.cores * cfg.queue_depth) as u32, 128, 2048)
        .expect("pool sized to the rings");
    let mut port = Port::new(0, Steering::Rss(Rss::new(cfg.cores)), cfg.queue_depth);
    let mut policy = FixedHeadroom(128);
    let mut records = Records::default();
    let rep = run_openloop_streaming(
        &mut m,
        &store,
        &mut pool,
        &mut port,
        &mut policy,
        arr,
        cfg,
        &mut records,
    );
    (rep, records)
}

#[test]
fn random_scenarios_conserve_and_match_across_execution_modes() {
    let mut seeds = Rng64::seed_from_u64(0x0b5e_55ed);
    for iter in 0..16 {
        let seed = seeds.gen_range(0u32..u32::MAX) as u64;
        let mut rng = Rng64::seed_from_u64(seed);
        let s = draw(&mut rng, seed);
        let threads = s.cfg.cores;

        let (serial, serial_records) = run(
            &s.cfg.clone().with_execution(Execution::Serial),
            &mut arrivals(&s),
        );
        let (parallel, parallel_records) = run(
            &s.cfg
                .clone()
                .with_execution(Execution::Parallel { threads }),
            &mut arrivals(&s),
        );

        // run_openloop_streaming asserted conservation internally;
        // re-assert on the returned reports so a future refactor can't
        // silently drop the internal check.
        serial.assert_conservation();
        parallel.assert_conservation();
        assert_eq!(
            serial, parallel,
            "iteration {iter} (seed {seed:#x}): serial and parallel reports diverged"
        );
        assert_eq!(
            serial_records.0.len() as u64,
            serial.completed,
            "iteration {iter} (seed {seed:#x}): one record per completed op"
        );
        assert!(
            serial_records.0.iter().all(|&(q, _, _)| q < s.cfg.cores),
            "iteration {iter} (seed {seed:#x}): a record names a queue off the port"
        );
        assert!(
            serial_records.0 == parallel_records.0,
            "iteration {iter} (seed {seed:#x}): serial and parallel records diverged"
        );
        // Liveness: the retry loop must terminate with every logical op
        // resolved one way or the other, never wedged in flight.
        assert_eq!(
            serial.completed + serial.gave_up,
            OPS as u64,
            "iteration {iter} (seed {seed:#x}): unresolved logical ops"
        );
    }
}
