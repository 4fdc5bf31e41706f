//! DESIGN.md §6 ablations: the simulated effect of each design choice
//! the reproduction makes — replacement policy, DDIO way budget,
//! hardware prefetchers, steering mode and headroom strategy — one line
//! per configuration, so the direction of each effect is visible.
//!
//! `[packets]` sizes the forwarding runs behind the DDIO and prefetch
//! lines (the steering runs take three quarters of it; `--smoke` sets
//! 8,000); the §3 loop and the refills have fixed sizes.

use bench::Scale;
use cache_director::{CacheDirector, SortedPools, CACHEDIRECTOR_HEADROOM};
use llc_sim::machine::{Machine, MachineConfig};
use llc_sim::prefetch::PrefetchConfig;
use llc_sim::replacement::ReplacementKind;
use llc_sim::AccessKind;
use nfv::runtime::{run_experiment, ChainSpec, HeadroomMode, RunConfig, SteeringKind, Testbed};
use rte::mempool::MbufPool;
use rte::nic::{FixedHeadroom, HeadroomPolicy, Port};
use rte::steering::{Rss, Steering};
use slice_aware::alloc::SliceAllocator;
use slice_aware::workload::{random_access, warm_buffer};
use trafficgen::{ArrivalSchedule, CampusTrace, SizeMix};

type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Simulated cycles for the §3 read loop under a replacement policy.
fn slice_loop_cycles(repl: ReplacementKind) -> Res<u64> {
    let mut m = Machine::new(
        MachineConfig::haswell_e5_2667_v3()
            .with_replacement(repl)
            .with_dram_capacity(256 << 20),
    );
    let region = m.mem_mut().alloc(128 << 20, 1 << 20)?;
    let mut alloc = SliceAllocator::new(region, m.slice_oracle());
    let buf = alloc.alloc_lines(0, 1_441_792 / 64)?;
    warm_buffer(&mut m, 0, &buf);
    Ok(random_access(&mut m, 0, &buf, 5_000, AccessKind::Read, 1))
}

/// Simulated p99 of the stateful chain at the paper's loaded operating
/// point (100 Gbps offered, 8 cores) for a DDIO way budget — deep queues
/// are what makes the 10 % I/O-way limit (§8) bite.
fn forwarding_p99(ddio_ways: usize, prefetch: PrefetchConfig, scale: &Scale) -> Res<f64> {
    let mut cfg = RunConfig::paper_defaults(
        ChainSpec::RouterNaptLb {
            routes: 512,
            offload: true,
        },
        SteeringKind::FlowDirector,
        HeadroomMode::CacheDirector {
            preferred_slices: 1,
        },
    );
    cfg.execution = scale.execution(cfg.cores);
    let m = Machine::new(
        MachineConfig::haswell_e5_2667_v3()
            .with_ddio_ways(ddio_ways)
            .with_prefetch(prefetch),
    );
    let mut tb = Testbed::on_machine(cfg, m)?;
    let mut trace = CampusTrace::new(SizeMix::campus(), 4096, 3);
    let mut sched = ArrivalSchedule::constant_gbps(100.0, 670.0);
    for _ in 0..scale.packets {
        let t = sched.next_arrival_ns();
        let s = trace.next_packet();
        tb.offer(&s.flow, s.size, t);
    }
    let summary = tb.finish().summary().ok_or("no packet delivered")?;
    Ok(summary.percentile(99.0))
}

/// Queue imbalance proxy for a steering mode: achieved p99 relative to
/// the mean (hot queues stretch the tail).
fn steering_imbalance(steering: SteeringKind, scale: &Scale) -> Res<f64> {
    let mut cfg = RunConfig::paper_defaults(ChainSpec::MacSwap, steering, HeadroomMode::Stock);
    cfg.queue_depth = 256;
    cfg.mbufs = 8192;
    cfg.execution = scale.execution(cfg.cores);
    let mut trace = CampusTrace::new(SizeMix::campus(), 4096, 5);
    let mut sched = ArrivalSchedule::constant_pps(1_000_000.0);
    let res = run_experiment(cfg, &mut trace, &mut sched, scale.packets * 3 / 4)?;
    let s = res.summary().ok_or("no packet delivered")?;
    Ok(s.percentile(99.0) / s.mean())
}

/// Simulated cycles for a 256-descriptor refill under a headroom
/// strategy, plus how many posted buffers are slice-placed.
fn refill_cost(strategy: &str) -> Res<(u64, usize)> {
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(128 << 20));
    let mut pool = MbufPool::create(&mut m, 512, CACHEDIRECTOR_HEADROOM, 2048)?;
    let mut port = Port::new(0, Steering::Rss(Rss::new(1)), 256);
    let core = 0;
    let t0 = m.now(core);
    let placed = match strategy {
        "fixed" => {
            port.refill(&mut m, &mut pool, 0, core, &mut FixedHeadroom(128), 256);
            0
        }
        "cachedirector" => {
            let mut p = CacheDirector::install(&mut m, &pool, 1, 0);
            assert_eq!(p.stats().fallback, 0, "every Haswell placement succeeds");
            port.refill(&mut m, &mut pool, 0, core, &mut p, 256);
            256
        }
        "sorted" => {
            // App-level sorting: only core 0's buffers are posted, with
            // plain fixed headroom.
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
        _ => unreachable!("unknown headroom strategy {strategy}"),
    };
    Ok((m.now(core) - t0, placed))
}

fn main() -> Res<()> {
    let mut scale = Scale::from_args(1, 40_000);
    if scale.smoke {
        // At the usual smoke size every DDIO and prefetch setting reads
        // the same p99; from 8,000 packets on, both settings move it.
        scale.packets = 8_000;
    }
    println!(
        "Ablations (DESIGN.md §6): {} packets per forwarding run\n",
        scale.packets
    );
    for (name, repl) in [
        ("lru", ReplacementKind::Lru),
        ("random", ReplacementKind::Random),
    ] {
        let cycles = slice_loop_cycles(repl)?;
        println!("[ablation] replacement={name}: {cycles} simulated cycles for the §3 loop");
    }
    let off = PrefetchConfig::disabled();
    for ways in [2usize, 4, 8] {
        let p99 = forwarding_p99(ways, off, &scale)?;
        println!("[ablation] ddio_ways={ways}: simulated p99 = {p99:.0} ns");
    }
    for (name, p) in [
        ("off", off),
        ("bios_default", PrefetchConfig::bios_default()),
    ] {
        let p99 = forwarding_p99(2, p, &scale)?;
        println!("[ablation] prefetch={name}: simulated p99 = {p99:.0} ns");
    }
    for (name, s) in [
        ("rss", SteeringKind::Rss),
        ("flow_director", SteeringKind::FlowDirector),
    ] {
        let ratio = steering_imbalance(s, &scale)?;
        println!("[ablation] steering={name}: p99/mean = {ratio:.2}");
    }
    for name in ["fixed", "cachedirector", "sorted"] {
        let (cycles, placed) = refill_cost(name)?;
        println!(
            "[ablation] headroom={name}: refill of 256 descriptors = {cycles} simulated \
             cycles, {placed} slice-placed"
        );
    }
    bench::eprint_sched_totals("ablations");
    Ok(())
}
