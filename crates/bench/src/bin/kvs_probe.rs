//! Diagnostic: bare GET cost (no NIC path) for slice-aware vs normal
//! value placement under Zipf keys. Used to attribute where Fig. 8's
//! improvement comes from; not one of the paper's figures.
//!
//! Usage: `kvs_probe [runs] [packets] [log2_keys] [--smoke] [--parallel]`,
//! where `packets` is the timed GETs per placement.

use kvs::store::{KvStore, Placement};
use llc_sim::machine::{Machine, MachineConfig};
use slice_aware::alloc::SliceAllocator;
use trafficgen::ZipfGen;

fn run(
    n: usize,
    placement: Placement,
    theta: f64,
    gets: usize,
) -> Result<f64, Box<dyn std::error::Error>> {
    let store_bytes = n * 64;
    let mut m = Machine::new(
        MachineConfig::haswell_e5_2667_v3().with_dram_capacity(store_bytes * 9 + (256 << 20)),
    );
    let region = m.mem_mut().alloc(store_bytes * 9, 1 << 20)?;
    let mut alloc = SliceAllocator::new(region, m.slice_oracle());
    let store = KvStore::build(&mut m, &mut alloc, n, placement)?;
    let mut keygen = ZipfGen::new(n as u64, theta, 4242);
    let mut out = [0u8; 64];
    // Warm-up.
    for _ in 0..gets / 2 {
        store.get(&mut m, 0, keygen.next_rank() as u32, &mut out);
    }
    let mut total = 0u64;
    for _ in 0..gets {
        total += store.get(&mut m, 0, keygen.next_rank() as u32, &mut out);
    }
    Ok(total as f64 / gets as f64)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cli = bench::Cli::from_env(&["runs", "packets", "log2_keys"], &[]);
    let scale = cli.scale(1, 100_000);
    let log2_n = cli.log2_keys();
    let n = 1usize << log2_n;
    println!("store: 2^{log2_n} values = {} MB", (n * 64) >> 20);
    for theta in [0.99, 0.0] {
        let aware = run(n, Placement::SliceAware { slice: 0 }, theta, scale.packets)?;
        let hot = run(
            n,
            Placement::StripedHot {
                slices: vec![0],
                hot_per_core: 20_000,
            },
            theta,
            scale.packets,
        )?;
        let normal = run(n, Placement::Normal, theta, scale.packets)?;
        println!(
            "theta={theta}: all-slice {aware:.1}, hot-slice {hot:.1}, normal {normal:.1} \
             cyc/GET; hot delta {:.1} ({:.1}%)",
            normal - hot,
            (normal - hot) / normal * 100.0
        );
    }
    bench::eprint_sched_totals("kvs_probe");
    Ok(())
}
