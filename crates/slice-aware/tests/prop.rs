//! Property-style tests for the slice-aware allocator and mapping.
//! Seeded loops over [`trafficgen::Rng64`] (fully offline).

use llc_sim::addr::PhysAddr;
use llc_sim::hash::{FoldedSliceHash, SliceHash, XorSliceHash};
use llc_sim::mem::PhysMem;
use slice_aware::alloc::SliceAllocator;
use trafficgen::Rng64;

/// Random interleavings of slice-local and contiguous requests never
/// hand out the same line twice, always honour the slice constraint, and
/// contiguous buffers are truly contiguous.
fn check_alloc_sequence(requests: Vec<(u8, u16)>, slices: usize) {
    let mut mem = PhysMem::new(4 << 20);
    let region = mem.alloc(2 << 20, 1 << 20).unwrap();
    let mk = |slices: usize| -> Box<dyn FnMut(PhysAddr) -> usize> {
        if slices == 8 {
            let h = XorSliceHash::haswell_8slice();
            Box::new(move |pa| h.slice_of(pa))
        } else {
            let h = FoldedSliceHash::new(slices);
            Box::new(move |pa| h.slice_of(pa))
        }
    };
    let mut check = mk(slices);
    let mut alloc = SliceAllocator::new(region, mk(slices));
    let mut seen = std::collections::HashSet::new();
    for (kind, count) in requests {
        let count = count as usize + 1;
        if kind as usize % (slices + 1) == slices {
            if let Ok(buf) = alloc.alloc_contiguous_lines(count) {
                let lines: Vec<PhysAddr> = buf.lines().collect();
                for w in lines.windows(2) {
                    assert_eq!(w[1].raw(), w[0].raw() + 64, "contiguity");
                }
                for pa in buf.lines() {
                    assert!(seen.insert(pa), "double allocation {pa}");
                }
            }
        } else {
            let target = kind as usize % (slices + 1);
            if let Ok(buf) = alloc.alloc_lines(target, count) {
                assert_eq!(buf.len(), count);
                for pa in buf.lines() {
                    assert_eq!(check(pa), target, "slice constraint");
                    assert!(seen.insert(pa), "double allocation {pa}");
                }
            }
        }
    }
}

#[test]
fn allocator_invariants_haswell() {
    let mut rng = Rng64::seed_from_u64(0xa101);
    for _ in 0..24 {
        let n = rng.gen_range(1usize..40);
        let requests: Vec<(u8, u16)> = (0..n)
            .map(|_| (rng.gen_range(0u32..9) as u8, rng.gen_range(0u16..400)))
            .collect();
        check_alloc_sequence(requests, 8);
    }
}

#[test]
fn allocator_invariants_skylake() {
    let mut rng = Rng64::seed_from_u64(0xa102);
    for _ in 0..16 {
        let n = rng.gen_range(1usize..30);
        let requests: Vec<(u8, u16)> = (0..n)
            .map(|_| (rng.gen_range(0u32..19) as u8, rng.gen_range(0u16..200)))
            .collect();
        check_alloc_sequence(requests, 18);
    }
}

/// Exclusive allocation never overlaps earlier stash-based buffers.
#[test]
fn exclusive_never_overlaps() {
    let mut rng = Rng64::seed_from_u64(0xa103);
    for _ in 0..32 {
        let first = rng.gen_range(1usize..500);
        let second = rng.gen_range(1usize..500);
        let s1 = rng.gen_range(0usize..8);
        let s2 = rng.gen_range(0usize..8);
        let mut mem = PhysMem::new(4 << 20);
        let region = mem.alloc(2 << 20, 1 << 20).unwrap();
        let h = XorSliceHash::haswell_8slice();
        let mut alloc = SliceAllocator::new(region, move |pa| h.slice_of(pa));
        let a = alloc.alloc_lines(s1, first).unwrap();
        let b = alloc.alloc_lines_exclusive(s2, second).unwrap();
        let set: std::collections::HashSet<_> = a.lines().collect();
        for pa in b.lines() {
            assert!(!set.contains(&pa), "overlap at {pa}");
        }
    }
}

/// Polled slice maps agree with ground truth for arbitrary offsets.
#[test]
fn polling_agrees_with_hash() {
    use llc_sim::machine::{Machine, MachineConfig};
    use slice_aware::mapping::poll_slice_of;
    let mut rng = Rng64::seed_from_u64(0xa104);
    for _ in 0..16 {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(16 << 20));
        let r = m.mem_mut().alloc(1 << 20, 1 << 20).unwrap();
        let n = rng.gen_range(1usize..8);
        for _ in 0..n {
            let off = rng.gen_range(0usize..16_384);
            let pa = r.pa(off * 64);
            assert_eq!(poll_slice_of(&mut m, 0, pa, 8), m.slice_of(pa));
        }
    }
}
