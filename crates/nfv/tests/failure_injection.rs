//! Integration tests for the fault-injection subsystem: each fault kind
//! is driven end to end through the testbed (LoadGen → NIC → chain →
//! LoadGen) and must (a) never panic, (b) surface in the right per-cause
//! counter, and (c) keep the conservation invariant
//! `offered == delivered + Σ dropped[cause]` (asserted inside
//! `Testbed::finish`, restated here from the report).

use nfv::runtime::{run_experiment, ChainSpec, HeadroomMode, RunConfig, RunResult, SteeringKind};
use rte::fault::{FaultPlan, Window};
use trafficgen::{ArrivalSchedule, CampusTrace};

const PACKETS: usize = 3000;
/// Nanoseconds between arrivals at the 2 Mpps every test offers. The
/// first frame arrives at t = 0, so frame `i` arrives at `i * PERIOD_NS`
/// and a window `[a * PERIOD_NS, b * PERIOD_NS)` spans frames `a..b`.
const PERIOD_NS: u64 = 500;

fn frames(a: u64, b: u64) -> Window {
    Window::new(a * PERIOD_NS, b * PERIOD_NS)
}

fn cfg(chain: ChainSpec, faults: FaultPlan) -> RunConfig {
    let mut cfg = RunConfig::paper_defaults(
        chain,
        SteeringKind::Rss,
        HeadroomMode::CacheDirector {
            preferred_slices: 1,
        },
    );
    cfg.cores = 2;
    cfg.queue_depth = 128;
    cfg.mbufs = 512;
    cfg.faults = faults;
    cfg
}

fn run(chain: ChainSpec, faults: FaultPlan) -> RunResult {
    let mut trace = CampusTrace::fixed_size(128, 256, 11);
    let mut sched = ArrivalSchedule::constant_pps(2_000_000.0);
    run_experiment(cfg(chain, faults), &mut trace, &mut sched, PACKETS)
        .expect("test config fits simulated DRAM")
}

fn conserve(res: &RunResult) {
    assert_eq!(
        res.offered,
        res.delivered + res.dropped,
        "conservation (drops: {})",
        res.drops
    );
    assert_eq!(
        res.drops.total(),
        res.dropped,
        "per-cause totals partition drops"
    );
}

#[test]
fn clean_plan_is_lossless_at_low_rate() {
    let res = run(ChainSpec::MacSwap, FaultPlan::none());
    conserve(&res);
    assert_eq!(res.offered, PACKETS as u64);
    assert_eq!(res.dropped, 0, "no faults, no overload: {}", res.drops);
}

#[test]
fn frame_corruption_dies_at_the_nic() {
    let plan = FaultPlan::none().with_seed(5).with_corrupt_prob(0.2);
    let res = run(ChainSpec::MacSwap, plan);
    conserve(&res);
    let expected = PACKETS as f64 * 0.2;
    assert!(
        (res.drops.nic.crc as f64) > expected * 0.7 && (res.drops.nic.crc as f64) < expected * 1.3,
        "crc drops {} should track the 20% corruption rate",
        res.drops.nic.crc
    );
    assert!(res.delivered > 0, "most frames still flow");
}

#[test]
fn truncation_splits_between_nic_and_parser() {
    // Truncation lengths are uniform over 0..=60 B: cuts below 14 B are
    // runts the MAC rejects (CRC counter); longer cuts reach the stateful
    // chain, whose router fails to parse the mutilated header.
    let plan = FaultPlan::none().with_seed(6).with_truncate_prob(0.3);
    let res = run(
        ChainSpec::RouterNaptLb {
            routes: 64,
            offload: false,
        },
        plan,
    );
    conserve(&res);
    assert!(
        res.drops.nic.crc > 0,
        "runt cuts must hit the MAC: {}",
        res.drops
    );
    assert!(
        res.drops.parse > 0,
        "mid-length cuts must reach and fail the parser: {}",
        res.drops
    );
    assert!(res.delivered > 0);
}

#[test]
fn macswap_forwards_parseable_truncations() {
    // MacSwap never parses past the first 12 B, so every truncation the
    // MAC accepts (≥ 14 B on the wire) flows straight through — the
    // parse counter stays at zero and only runts are lost.
    let plan = FaultPlan::none().with_seed(9).with_truncate_prob(0.25);
    let res = run(ChainSpec::MacSwap, plan);
    conserve(&res);
    assert!(res.drops.nic.crc > 0, "{}", res.drops);
    assert_eq!(res.drops.parse, 0, "{}", res.drops);
    assert_eq!(res.delivered, res.offered - res.drops.nic.crc);
}

#[test]
fn pool_exhaustion_window_starves_descriptors() {
    // A long outage: refills fail, the posted ring drains, and arrivals
    // inside the window die as pool-starved descriptor misses.
    let plan = FaultPlan::none().with_pool_exhaustion(frames(500, 1500));
    let res = run(ChainSpec::MacSwap, plan);
    conserve(&res);
    assert!(
        res.drops.nic.pool_starved > 0,
        "outage must surface as pool_starved: {}",
        res.drops
    );
    assert_eq!(
        res.drops.nic.crc + res.drops.nic.link_down + res.drops.nic.rx_stall,
        0
    );
    assert!(
        res.delivered > res.offered / 2,
        "service recovers after the outage ({} of {})",
        res.delivered,
        res.offered
    );
}

#[test]
fn rx_stall_window_loses_exactly_its_span() {
    let plan = FaultPlan::none().with_rx_stall(frames(1000, 1200));
    let res = run(ChainSpec::MacSwap, plan);
    conserve(&res);
    assert_eq!(
        res.drops.nic.rx_stall, 200,
        "every frame inside the stall window is lost: {}",
        res.drops
    );
    assert_eq!(res.delivered, res.offered - 200);
}

#[test]
fn link_flap_window_loses_exactly_its_span() {
    let plan = FaultPlan::none().with_link_flap(frames(100, 350));
    let res = run(ChainSpec::MacSwap, plan);
    conserve(&res);
    assert_eq!(res.drops.nic.link_down, 250, "{}", res.drops);
    assert_eq!(res.delivered, res.offered - 250);
}

#[test]
fn combined_faults_conserve_and_are_deterministic() {
    let plan = || {
        FaultPlan::none()
            .with_seed(42)
            .with_corrupt_prob(0.05)
            .with_truncate_prob(0.05)
            .with_pool_exhaustion(frames(400, 700))
            .with_rx_stall(frames(900, 1000))
            .with_link_flap(frames(1500, 1600))
    };
    let a = run(
        ChainSpec::RouterNaptLb {
            routes: 64,
            offload: false,
        },
        plan(),
    );
    let b = run(
        ChainSpec::RouterNaptLb {
            routes: 64,
            offload: false,
        },
        plan(),
    );
    conserve(&a);
    assert_eq!(a.drops, b.drops, "same plan, same seed, same drops");
    assert_eq!(a.delivered, b.delivered);
    assert!(a.drops.nic.crc > 0);
    assert!(a.drops.nic.rx_stall > 0);
    assert!(a.drops.nic.link_down > 0);
}
