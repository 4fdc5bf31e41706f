//! Ablation benches for the design choices DESIGN.md §6 calls out:
//! replacement policy, DDIO way budget, hardware prefetchers, steering
//! mode and headroom strategy.
//!
//! Each ablation prints the *simulated* quantity of interest once per
//! configuration (so the effect direction is visible in the log) and
//! then times host-side execution of the same fixed workload with the
//! in-tree harness. Run with
//! `cargo bench -p bench --features bench-harness`.

use std::time::Duration;

use bench::harness::{black_box, Group};
use llc_sim::machine::{Machine, MachineConfig};
use llc_sim::prefetch::PrefetchConfig;
use llc_sim::replacement::ReplacementKind;
use llc_sim::AccessKind;
use nfv::runtime::{run_experiment, ChainSpec, HeadroomMode, RunConfig, SteeringKind};
use slice_aware::alloc::SliceAllocator;
use slice_aware::workload::{random_access, warm_buffer};
use trafficgen::{ArrivalSchedule, CampusTrace, SizeMix};

/// Simulated cycles for the §3 read loop under a replacement policy.
fn slice_loop_cycles(repl: ReplacementKind) -> u64 {
    let mut m = Machine::new(
        MachineConfig::haswell_e5_2667_v3()
            .with_replacement(repl)
            .with_dram_capacity(256 << 20),
    );
    let region = m.mem_mut().alloc(128 << 20, 1 << 20).expect("bench region");
    let mut alloc = SliceAllocator::new(region, m.slice_oracle());
    let buf = alloc.alloc_lines(0, 1_441_792 / 64).expect("buffer fits");
    warm_buffer(&mut m, 0, &buf);
    random_access(&mut m, 0, &buf, 5_000, AccessKind::Read, 1)
}

fn ablate_replacement() {
    let g = Group::new("ablation_replacement").measurement_time(Duration::from_secs(4));
    for (name, repl) in [
        ("lru", ReplacementKind::Lru),
        ("random", ReplacementKind::Random),
    ] {
        let cycles = slice_loop_cycles(repl);
        println!("[ablation] replacement={name}: {cycles} simulated cycles for the §3 loop");
        g.bench(name, || {
            black_box(slice_loop_cycles(repl));
        });
    }
}

/// Simulated p99 of the stateful chain at the paper's loaded operating
/// point (100 Gbps offered, 8 cores) for a DDIO way budget — deep queues
/// are what makes the 10 % I/O-way limit (§8) bite.
fn forwarding_p99(ddio_ways: usize, prefetch: PrefetchConfig) -> f64 {
    let cfg = RunConfig::paper_defaults(
        ChainSpec::RouterNaptLb {
            routes: 512,
            offload: true,
        },
        SteeringKind::FlowDirector,
        HeadroomMode::CacheDirector {
            preferred_slices: 1,
        },
    );
    let m = Machine::new(
        MachineConfig::haswell_e5_2667_v3()
            .with_ddio_ways(ddio_ways)
            .with_prefetch(prefetch),
    );
    let mut tb = nfv::runtime::Testbed::on_machine(cfg, m).expect("bench testbed fits");
    let mut trace = CampusTrace::new(SizeMix::campus(), 4096, 3);
    let mut sched = ArrivalSchedule::constant_gbps(100.0, 670.0);
    for _ in 0..40_000 {
        let t = sched.next_arrival_ns();
        let s = trace.next_packet();
        tb.offer(&s.flow, s.size, t);
    }
    tb.finish()
        .summary()
        .expect("delivered packets")
        .percentile(99.0)
}

fn ablate_ddio() {
    let g = Group::new("ablation_ddio_ways").measurement_time(Duration::from_secs(4));
    for ways in [2usize, 4, 8] {
        let p99 = forwarding_p99(ways, PrefetchConfig::disabled());
        println!("[ablation] ddio_ways={ways}: simulated p99 = {p99:.0} ns");
        g.bench(&format!("ways_{ways}"), || {
            black_box(forwarding_p99(ways, PrefetchConfig::disabled()));
        });
    }
}

fn ablate_prefetch() {
    let g = Group::new("ablation_prefetch").measurement_time(Duration::from_secs(4));
    for (name, p) in [
        ("off", PrefetchConfig::disabled()),
        ("bios_default", PrefetchConfig::bios_default()),
    ] {
        let p99 = forwarding_p99(2, p);
        println!("[ablation] prefetch={name}: simulated p99 = {p99:.0} ns");
        g.bench(name, || {
            black_box(forwarding_p99(2, p));
        });
    }
}

/// Queue imbalance (max/mean packets per queue) for a steering mode.
fn steering_imbalance(steering: SteeringKind) -> f64 {
    let mut cfg = RunConfig::paper_defaults(ChainSpec::MacSwap, steering, HeadroomMode::Stock);
    cfg.cores = 8;
    cfg.queue_depth = 256;
    cfg.mbufs = 8192;
    let mut trace = CampusTrace::new(SizeMix::campus(), 4096, 5);
    let mut sched = ArrivalSchedule::constant_pps(1_000_000.0);
    let res = run_experiment(cfg, &mut trace, &mut sched, 30_000).expect("bench config fits");
    // Imbalance proxy: achieved p99 relative to mean (hot queues stretch
    // the tail).
    let s = res.summary().expect("delivered packets");
    s.percentile(99.0) / s.mean()
}

fn ablate_steering() {
    let g = Group::new("ablation_steering").measurement_time(Duration::from_secs(4));
    for (name, s) in [
        ("rss", SteeringKind::Rss),
        ("flow_director", SteeringKind::FlowDirector),
    ] {
        let ratio = steering_imbalance(s);
        println!("[ablation] steering={name}: p99/mean = {ratio:.2}");
        g.bench(name, || {
            black_box(steering_imbalance(s));
        });
    }
}

mod headroom_ablation {
    use super::*;
    use cache_director::{CacheDirector, SortedPools, CACHEDIRECTOR_HEADROOM};
    use rte::mempool::MbufPool;
    use rte::nic::{FixedHeadroom, HeadroomPolicy, Port};
    use rte::steering::{Rss, Steering};

    /// Simulated cycles for a 256-descriptor refill under a headroom
    /// strategy, plus how many posted buffers end up slice-placed.
    pub fn refill_cost(strategy: &str) -> (u64, usize) {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(128 << 20));
        let mut pool =
            MbufPool::create(&mut m, 512, CACHEDIRECTOR_HEADROOM, 2048).expect("pool fits");
        let mut port = Port::new(0, Steering::Rss(Rss::new(1)), 256);
        let core = 0;
        let t0 = m.now(core);
        let placed = match strategy {
            "fixed" => {
                let mut p = FixedHeadroom(128);
                port.refill(&mut m, &mut pool, 0, core, &mut p, 256);
                0
            }
            "cachedirector" => {
                let mut p = CacheDirector::install(&mut m, &pool, 1, 0);
                port.refill(&mut m, &mut pool, 0, core, &mut p, 256);
                // All placements succeed on Haswell.
                256
            }
            "sorted" => {
                // App-level sorting: only core 0's buffers are posted,
                // with plain fixed headroom.
                let mut sorted = SortedPools::sort(&mut m, &pool, 128, 1);
                let mut p = FixedHeadroom(128);
                let mut n = 0;
                while let Some(mb) = sorted.get(core) {
                    let off = p.data_off(&mut m, &pool, mb, core);
                    if port.post(&mut m, &pool, 0, core, mb, off).is_err() {
                        break;
                    }
                    n += 1;
                    if n == 256 {
                        break;
                    }
                }
                n
            }
            _ => unreachable!(),
        };
        (m.now(core) - t0, placed)
    }
}

fn ablate_headroom_strategy() {
    let g = Group::new("ablation_headroom_strategy").measurement_time(Duration::from_secs(4));
    for name in ["fixed", "cachedirector", "sorted"] {
        let (cycles, placed) = headroom_ablation::refill_cost(name);
        println!(
            "[ablation] headroom={name}: refill of 256 descriptors = {cycles} simulated \
             cycles, {placed} slice-placed"
        );
        g.bench(name, || {
            black_box(headroom_ablation::refill_cost(name));
        });
    }
}

fn main() {
    ablate_replacement();
    ablate_ddio();
    ablate_prefetch();
    ablate_steering();
    ablate_headroom_strategy();
}
