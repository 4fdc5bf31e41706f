//! Failure-injection integration tests: resource exhaustion and
//! degenerate configurations must degrade gracefully, never corrupt
//! accounting.

use engine::Execution;
use nfv::runtime::{run_experiment, ChainSpec, HeadroomMode, RunConfig, SteeringKind};
use rte::fault::FaultPlan;
use trafficgen::{ArrivalSchedule, CampusTrace, FlowTuple};

#[test]
fn starved_mbuf_pool_drops_but_conserves() {
    // Fewer mbufs than one queue's depth: the driver can never fully
    // stock the ring; excess traffic drops at the NIC.
    let cfg = RunConfig {
        cores: 2,
        steering: SteeringKind::Rss,
        chain: ChainSpec::MacSwap,
        headroom: HeadroomMode::Stock,
        queue_depth: 256,
        burst: 32,
        mbufs: 64,
        framework_cycles: 500,
        loopback_ns: 0.0,
        nic_rate_mpps: None,
        seed: 1,
        faults: FaultPlan::none(),
        execution: Execution::Serial,
    };
    let mut trace = CampusTrace::fixed_size(64, 64, 1);
    let mut sched = ArrivalSchedule::constant_pps(20_000_000.0);
    let res = run_experiment(cfg, &mut trace, &mut sched, 10_000).expect("config fits");
    assert!(res.dropped > 0, "starvation must drop");
    assert_eq!(res.delivered + res.dropped, res.offered);
    assert!(res.delivered > 0, "the pipeline must still make progress");
}

#[test]
fn single_core_single_descriptor() {
    // The most degenerate queue geometry that is still legal.
    let cfg = RunConfig {
        cores: 1,
        steering: SteeringKind::Rss,
        chain: ChainSpec::MacSwap,
        headroom: HeadroomMode::Stock,
        queue_depth: 1,
        burst: 1,
        mbufs: 4,
        framework_cycles: 100,
        loopback_ns: 0.0,
        nic_rate_mpps: None,
        seed: 2,
        faults: FaultPlan::none(),
        execution: Execution::Serial,
    };
    let mut trace = CampusTrace::fixed_size(64, 4, 2);
    let mut sched = ArrivalSchedule::constant_pps(1000.0);
    let res = run_experiment(cfg, &mut trace, &mut sched, 100).expect("config fits");
    // At 1 kpps a single descriptor is re-posted long before the next
    // arrival: everything goes through.
    assert_eq!(res.delivered, 100);
}

#[test]
fn napt_table_exhaustion_drops_cleanly() {
    use llc_sim::machine::{Machine, MachineConfig};
    use nfv::element::{Action, Ctx, Element, Pkt};
    use nfv::elements::Napt;
    use nfv::packet::encode_frame;

    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20));
    // A 64-bucket table with more flows than it can hold.
    let mut napt = Napt::new(&mut m, 64).unwrap();
    let region = m.mem_mut().alloc(4096, 4096).unwrap();
    let mut forwarded = 0;
    let mut dropped = 0;
    for i in 0..200u32 {
        let flow = FlowTuple::tcp(i, 1000, 0xc0a80001, 80);
        let mut buf = vec![0u8; 64];
        encode_frame(&mut buf, &flow, 64, 0.0, 0);
        m.mem_mut().write(region.pa(0), &buf);
        let mut pkt = Pkt {
            mbuf: 0,
            data_pa: region.pa(0),
            len: 64,
            mark: None,
            flow: None,
        };
        let mut ctx = Ctx { m: &mut m, core: 0 };
        match napt.process(&mut ctx, &mut pkt).0 {
            Action::Forward => forwarded += 1,
            Action::Drop(_) => dropped += 1,
        }
    }
    assert!(dropped > 0, "an overfull table must shed flows");
    assert!(forwarded >= 40, "existing translations keep working");
    assert_eq!(napt.stats().exhausted, dropped);
    assert_eq!(forwarded + dropped, 200);
}

#[test]
fn zero_route_table_drops_everything() {
    let cfg = RunConfig {
        cores: 1,
        steering: SteeringKind::Rss,
        chain: ChainSpec::RouterNaptLb {
            routes: 1, // One /1 route: half the space resolves.
            offload: false,
        },
        headroom: HeadroomMode::Stock,
        queue_depth: 64,
        burst: 16,
        mbufs: 256,
        framework_cycles: 100,
        loopback_ns: 0.0,
        nic_rate_mpps: None,
        seed: 3,
        faults: FaultPlan::none(),
        execution: Execution::Serial,
    };
    let mut trace = CampusTrace::fixed_size(64, 32, 3);
    let mut sched = ArrivalSchedule::constant_pps(10_000.0);
    let res = run_experiment(cfg, &mut trace, &mut sched, 500).expect("config fits");
    // The synthetic trace's servers sit in 192.168/16 (high half):
    // a single low-half /1 cannot route them, so the router drops all —
    // and every buffer is recycled (no leak: delivered+dropped=offered).
    assert_eq!(res.delivered, 0);
    assert_eq!(res.dropped, 500);
}

#[test]
fn window_offset_places_the_frames_second_line() {
    // End-to-end §4.2 configurable-window check across crates: a
    // CacheDirector installed with window_offset = 64 places the frame's
    // second cache line (where an encapsulated inner header would sit)
    // in core 0's closest slice, through refill, DMA and rx_burst.
    use cache_director::{CacheDirector, CACHEDIRECTOR_HEADROOM};
    use llc_sim::machine::{Machine, MachineConfig};
    use rte::mempool::MbufPool;
    use rte::nic::Port;
    use rte::steering::{Rss, Steering};

    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(128 << 20));
    let mut pool = MbufPool::create(&mut m, 128, CACHEDIRECTOR_HEADROOM, 2048).unwrap();
    let mut cd = CacheDirector::install(&mut m, &pool, 1, 64);
    let mut port = Port::new(0, Steering::Rss(Rss::new(1)), 64);
    port.refill(&mut m, &mut pool, 0, 0, &mut cd, 32);
    let flow = FlowTuple::tcp(0xc0a80001, 80, 0xc0a80002, 443);
    let mut frame = vec![0u8; 192];
    nfv::packet::encode_frame(&mut frame, &flow, 192, 0.0, 0);
    port.deliver(&mut m, &frame, &flow, 0.0).unwrap();
    let mut batch = Vec::new();
    port.rx_view(0).rx_burst(&mut m, &pool, 0, 4, &mut batch);
    let comp = batch[0];
    assert_eq!(m.slice_of(comp.data_pa.add(64)), m.closest_slice(0));
}

#[test]
fn every_injected_fault_kind_degrades_gracefully() {
    // One plan arming all five fault kinds at once, driven through the
    // full cross-crate testbed. Each kind must surface in its own
    // counter, and the per-cause counters must partition the loss:
    // offered == delivered + sum(dropped[cause]). The per-kind detail
    // tests live in crates/nfv/tests/failure_injection.rs.
    use rte::fault::Window;
    let mut cfg = RunConfig::paper_defaults(
        ChainSpec::RouterNaptLb {
            routes: 64,
            offload: false,
        },
        SteeringKind::Rss,
        HeadroomMode::CacheDirector {
            preferred_slices: 1,
        },
    );
    cfg.cores = 2;
    cfg.queue_depth = 128;
    cfg.mbufs = 512;
    // Arrivals every 500 ns (2 Mpps) from t = 0: the stall spans 100
    // frames and the flap 150.
    let period = 500;
    cfg.faults = FaultPlan::none()
        .with_seed(7)
        .with_corrupt_prob(0.05)
        .with_truncate_prob(0.10)
        .with_pool_exhaustion(Window::new(500 * period, 800 * period))
        .with_rx_stall(Window::new(1200 * period, 1300 * period))
        .with_link_flap(Window::new(1700 * period, 1850 * period));
    let mut trace = CampusTrace::fixed_size(128, 256, 13);
    let mut sched = ArrivalSchedule::constant_pps(2_000_000.0);
    let res = run_experiment(cfg, &mut trace, &mut sched, 4000).expect("config fits");
    assert_eq!(res.offered, res.delivered + res.dropped, "conservation");
    assert_eq!(res.drops.total(), res.dropped, "causes partition the loss");
    assert!(res.drops.nic.crc > 0, "corruption: {}", res.drops);
    assert!(
        res.drops.parse > 0,
        "truncation reaches the parser: {}",
        res.drops
    );
    assert!(res.drops.nic.pool_starved > 0, "pool outage: {}", res.drops);
    assert_eq!(
        res.drops.nic.rx_stall, 100,
        "stall loses its span: {}",
        res.drops
    );
    assert_eq!(
        res.drops.nic.link_down, 150,
        "flap loses its span: {}",
        res.drops
    );
    assert!(
        res.delivered > res.offered / 2,
        "the testbed keeps making progress ({} of {})",
        res.delivered,
        res.offered
    );
}
