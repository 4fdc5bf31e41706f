//! Fig. 4: reverse-engineering the Complex Addressing hash function.
//!
//! Runs the §2.1 procedure against the simulated Haswell machine using
//! only the uncore-counter polling primitive: polls a base address,
//! flips each physical-address bit, re-polls, and derives which hash
//! output bits each address bit feeds. Renders the Fig. 4 matrix and
//! verifies the reconstruction against polling on random addresses.

use llc_sim::hash::{mask_of_bits, O0_BITS, O1_BITS, O2_BITS};
use llc_sim::machine::{Machine, MachineConfig};
use slice_aware::reverse::{reconstruct_hash, verify_hash};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = bench::Scale::from_args(&["packets"], 1, 512);
    // A naturally aligned 256 MB region covers physical bits 6..=27.
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(1 << 30));
    let region = m.mem_mut().alloc(256 << 20, 256 << 20)?;
    let rec = reconstruct_hash(&mut m, 0, region, 16);
    println!(
        "Reconstructed Complex Addressing (bits 6..={}):\n",
        rec.max_bit
    );
    println!("{}", rec.render_fig4());
    // Compare against the published masks bit by bit.
    let published = [
        ("o0", mask_of_bits(O0_BITS)),
        ("o1", mask_of_bits(O1_BITS)),
        ("o2", mask_of_bits(O2_BITS)),
    ];
    let window = (1u64 << (rec.max_bit + 1)) - 1;
    let mut all_match = true;
    for (k, (name, mask)) in published.iter().enumerate() {
        let matches = rec.masks[k] == mask & window;
        all_match &= matches;
        println!(
            "{name}: {} (reconstructed {:#012x}, published-within-window {:#012x})",
            if matches { "MATCH" } else { "MISMATCH" },
            rec.masks[k],
            mask & window
        );
    }
    let agreement = verify_hash(&mut m, 0, region, &rec, scale.packets, 8, 42);
    println!(
        "\nVerification on {} random addresses: {:.2}% agreement with polling",
        scale.packets,
        agreement * 100.0
    );
    println!(
        "\nPaper: hash of the Xeon E5-2667 v3 equals the function of Maurice et al. \
         for 2^n-core CPUs; reconstruction here {}.",
        if all_match && agreement == 1.0 {
            "reproduces it exactly"
        } else {
            "DIVERGES (investigate!)"
        }
    );
    bench::eprint_sched_totals("fig04_hash");
    Ok(())
}
