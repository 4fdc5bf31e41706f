//! A slice-aware key-value store server (the paper's §3.1 study).
//!
//! Builds an emulated KVS over the simulated machine, serves Zipf(0.99)
//! GET/SET traffic arriving as 128 B TCP packets through the NIC, and
//! compares value placements: normal, everything-in-one-slice, and
//! hot-set-in-one-slice.
//!
//! Run with: `cargo run --release --example kvs_server [requests]`

use kvs::proto::RequestGen;
use kvs::server::{run_server, ServerConfig};
use kvs::store::{KvStore, Placement};
use llc_sim::machine::{Machine, MachineConfig};
use rte::mempool::MbufPool;
use rte::nic::{FixedHeadroom, Port};
use rte::steering::{Rss, Steering};
use slice_aware::alloc::SliceAllocator;
use trafficgen::ZipfGen;

const N_VALUES: usize = 1 << 20; // 64 MB of 64 B values.

fn serve(placement: Placement, requests: usize) -> Result<(f64, f64), Box<dyn std::error::Error>> {
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(2 << 30));
    let region = m.mem_mut().alloc(N_VALUES * 64 * 9, 1 << 20)?;
    let mut alloc = SliceAllocator::new(region, m.slice_oracle());
    let store = KvStore::build(&mut m, &mut alloc, N_VALUES, placement)?;
    let mut pool = MbufPool::create(&mut m, 1024, 128, 2048)?;
    let mut port = Port::new(0, Steering::Rss(Rss::new(1)), 256);
    let mut gens = [RequestGen::new(
        ZipfGen::new(N_VALUES as u64, 0.99, 1),
        950,
        2,
    )];
    let mut policy = FixedHeadroom(128);
    // Warm, then measure.
    let warm = ServerConfig::fig8(requests / 4, 950, 0);
    run_server(
        &mut m,
        &store,
        &mut pool,
        &mut port,
        &mut policy,
        &mut gens,
        &warm,
    );
    let cfg = ServerConfig::fig8(requests, 950, 0);
    let rep = run_server(
        &mut m,
        &store,
        &mut pool,
        &mut port,
        &mut policy,
        &mut gens,
        &cfg,
    );
    Ok((rep.tps / 1e6, rep.cycles_per_request))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Bad input is never replaced by the default: an unparseable value
    // or an extra argument prints the usage line and exits with code 2.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let requests: usize = match args.as_slice() {
        [] => Some(60_000),
        [n] => n.parse().ok(),
        _ => None,
    }
    .unwrap_or_else(|| {
        eprintln!("error: bad arguments {args:?}\nusage: kvs_server [requests]");
        std::process::exit(2)
    });
    println!(
        "emulated KVS: {} x 64 B values, 95% GET, Zipf(0.99) keys, {requests} requests\n",
        N_VALUES
    );
    for (name, placement) in [
        ("normal (contiguous)", Placement::Normal),
        ("all values in slice 0", Placement::SliceAware { slice: 0 }),
        (
            "hot set in slice 0",
            Placement::StripedHot {
                slices: vec![0],
                hot_per_core: 20_000,
            },
        ),
    ] {
        let (tps, cpr) = serve(placement, requests)?;
        println!("{name:<24} {tps:6.3} MTPS  ({cpr:5.1} cycles/request)");
    }
    println!(
        "\nThe hot-set placement keeps popular values in the serving core's closest \
         slice without giving up the rest of the LLC for the long tail (paper §3.1, §8)."
    );
    Ok(())
}
