//! Pipeline benchmarks: full per-packet cost of the paper's two
//! applications (stock vs CacheDirector) and per-request KVS cost.
//!
//! These time *host* execution of the simulator's packet path; the
//! simulated-cycle comparisons live in the `fig*` binaries. Useful for
//! keeping the simulator itself fast enough to run the big sweeps.
//!
//! Uses the in-tree harness; run with
//! `cargo bench -p bench --features bench-harness`.

use std::time::Duration;

use bench::harness::{black_box, Group};
use nfv::runtime::{ChainSpec, HeadroomMode, RunConfig, SteeringKind, Testbed};
use trafficgen::{ArrivalSchedule, CampusTrace, SizeMix};

fn run_packets(chain: ChainSpec, steering: SteeringKind, headroom: HeadroomMode, n: usize) {
    let mut cfg = RunConfig::paper_defaults(chain, steering, headroom);
    cfg.cores = 4;
    cfg.queue_depth = 256;
    cfg.mbufs = 2048;
    let mut tb = Testbed::new(cfg).expect("bench testbed fits simulated DRAM");
    let mut trace = CampusTrace::new(SizeMix::campus(), 1024, 7);
    let mut sched = ArrivalSchedule::constant_pps(2_000_000.0);
    for _ in 0..n {
        let t = sched.next_arrival_ns();
        let spec = trace.next_packet();
        tb.offer(&spec.flow, spec.size, t);
    }
    black_box(tb.finish());
}

fn bench_pipeline() {
    let g = Group::new("pipeline_1k_packets").measurement_time(Duration::from_secs(4));
    for (name, chain, steering) in [
        ("forwarding_rss", ChainSpec::MacSwap, SteeringKind::Rss),
        (
            "chain_fdir",
            ChainSpec::RouterNaptLb {
                routes: 512,
                offload: true,
            },
            SteeringKind::FlowDirector,
        ),
    ] {
        g.bench(&format!("{name}/stock"), || {
            run_packets(chain, steering, HeadroomMode::Stock, 1000)
        });
        g.bench(&format!("{name}/cachedirector"), || {
            run_packets(
                chain,
                steering,
                HeadroomMode::CacheDirector {
                    preferred_slices: 1,
                },
                1000,
            )
        });
    }
}

fn bench_kvs() {
    use kvs::store::{KvStore, Placement};
    use llc_sim::machine::{Machine, MachineConfig};
    use slice_aware::alloc::SliceAllocator;
    let g = Group::new("kvs");
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(256 << 20));
    let region = m.mem_mut().alloc(64 << 20, 1 << 20).expect("bench region");
    let mut alloc = SliceAllocator::new(region, m.slice_oracle());
    let store = KvStore::build(&mut m, &mut alloc, 1 << 14, Placement::Normal).expect("store fits");
    let mut out = [0u8; 64];
    let mut key = 0u32;
    g.bench("get_warm", || {
        key = (key + 1) % (1 << 14);
        black_box(store.get(&mut m, 0, key, &mut out));
    });
}

fn bench_cachedirector_install() {
    use cache_director::{CacheDirector, CACHEDIRECTOR_HEADROOM};
    use llc_sim::machine::{Machine, MachineConfig};
    use rte::mempool::MbufPool;
    let g = Group::new("cachedirector").measurement_time(Duration::from_secs(4));
    g.bench_with_setup(
        "install_1024_mbufs",
        || {
            let mut m =
                Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20));
            let pool =
                MbufPool::create(&mut m, 1024, CACHEDIRECTOR_HEADROOM, 2048).expect("pool fits");
            (m, pool)
        },
        |(mut m, pool)| {
            black_box(CacheDirector::install(&mut m, &pool, 1, 0));
        },
    );
}

fn main() {
    bench_pipeline();
    bench_kvs();
    bench_cachedirector_install();
}
