//! §4.2: the dynamic-headroom-size distribution.
//!
//! The paper replayed ~12.3 M campus-trace packets and measured how much
//! headroom each mbuf needed to place its packet's header: median 256 B,
//! 95 % below 512 B, maximum 832 B (=> 13 cache lines => 4-bit nibbles in
//! udata64). This regenerates the distribution from the CacheDirector
//! placement search over a large pool.

use cache_director::{headroom_distribution, CacheDirector, CACHEDIRECTOR_HEADROOM};
use llc_sim::machine::{Machine, MachineConfig};
use rte::mempool::MbufPool;
use xstats::{Histogram, Summary};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = bench::Scale::from_args(&["packets"], 1, 16_384);
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(1 << 30));
    let pool = MbufPool::create(&mut m, scale.packets as u32, CACHEDIRECTOR_HEADROOM, 2048)?;
    let cd = CacheDirector::install(&mut m, &pool, 1, 0);
    let dist = headroom_distribution(&m, &pool, &cd);
    let summary = Summary::from_samples(dist.iter().map(|&h| f64::from(h)))
        .ok_or("empty headroom distribution")?;
    let mut hist = Histogram::new(0.0, 896.0, 14);
    for &h in &dist {
        hist.record(f64::from(h));
    }
    println!(
        "Headroom needed over {} (mbuf, core) pairs [{} mbufs x 8 cores]:\n",
        dist.len(),
        pool.capacity()
    );
    for (edge, count) in hist.edges() {
        let frac = count as f64 / dist.len() as f64;
        println!(
            "{:>4} B: {:>7} ({:>5.1}%) {}",
            edge as u64,
            count,
            frac * 100.0,
            "#".repeat((frac * 120.0) as usize)
        );
    }
    println!(
        "\nmedian={} B  p95={} B  max={} B  fallbacks={}",
        summary.median(),
        summary.percentile(95.0),
        summary.max(),
        cd.stats().fallback
    );
    println!("\nPaper §4.2: median 256 B, 95% of values < 512 B, max 832 B (13 lines).");
    bench::eprint_sched_totals("headroom_dist");
    Ok(())
}
