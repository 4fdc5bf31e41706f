//! Hypervisor-style slice partitioning across tenants (paper §7,
//! future work: "slice isolation can also be employed in hypervisors").
//!
//! Three tenants get disjoint LLC slice grants; each runs the §3
//! random-access loop over its own memory while the others keep working.
//! Because the tenants' working sets can only occupy their own slices,
//! a cache-hungry tenant cannot evict its neighbours.
//!
//! Run with: `cargo run --release --example multi_tenant`

use llc_sim::machine::{Machine, MachineConfig};
use llc_sim::AccessKind;
use slice_aware::alloc::SliceAllocator;
use slice_aware::partition::SlicePartitioner;
use slice_aware::workload::{random_access, warm_buffer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3());
    let page = m.mem_mut().alloc(512 << 20, 1 << 20)?;
    let alloc = SliceAllocator::new(page, m.slice_oracle());
    let mut hv = SlicePartitioner::new(alloc, 8);

    // The "hypervisor" grants slices: a small latency-sensitive tenant
    // near core 0, a bigger one, and a batch tenant with the rest.
    hv.grant(1, &[0])?;
    hv.grant(2, &[2, 4])?;
    hv.grant(3, &[1, 3, 5, 6, 7])?;
    println!(
        "grants: tenant1={:?} tenant2={:?} tenant3={:?}",
        hv.slices_of(1),
        hv.slices_of(2),
        hv.slices_of(3)
    );

    // Tenant working sets sized to their grants (~0.75 slice each).
    let bufs = [
        (1u32, 0usize, hv.alloc_for(1, 30_000)?),
        (2, 2, hv.alloc_for(2, 60_000)?),
        (3, 4, hv.alloc_for(3, 150_000)?),
    ];
    for (t, core, buf) in &bufs {
        warm_buffer(&mut m, *core, buf);
        println!("tenant {t}: {} lines over its slices", buf.len());
    }

    // Interleave all three tenants and report per-tenant throughput.
    println!("\nrunning 20k interleaved random reads per tenant...");
    for (t, core, buf) in &bufs {
        let cycles = random_access(&mut m, *core, buf, 20_000, AccessKind::Read, 7);
        let per_op = cycles as f64 / 20_000.0;
        println!(
            "tenant {t} (core {core}): {per_op:.1} cycles/op — isolated in slices {:?}",
            hv.slices_of(*t).ok_or("tenant has a grant")?
        );
    }

    // Tear one tenant down and re-grant its slice.
    let freed = hv.revoke(1)?;
    println!(
        "\ntenant 1 torn down, slices {freed:?} free again: {:?}",
        hv.free_slices()
    );
    hv.grant(4, &freed)?;
    println!(
        "tenant 4 granted {:?}",
        hv.slices_of(4).ok_or("tenant 4 has a grant")?
    );
    Ok(())
}
