//! Seeded fuzz-style robustness test: thousands of random, truncated,
//! and bit-flipped buffers pushed through every parsing element. The
//! contract under test is the hardening guarantee of this repo: **no
//! byte sequence, of any length, may panic a parser or an element** —
//! garbage is dropped with a cause, and every packet is accounted for.

use std::sync::Arc;

use llc_sim::machine::{Machine, MachineConfig};
use nfv::element::{Action, Ctx, DropCause, Element, Pkt};
use nfv::elements::{Napt, Router};
use nfv::lpm::{Lpm, RouteEntry};
use nfv::packet::{encode_frame, parse_header, HDR_LEN};
use trafficgen::{FlowTuple, Rng64};

const ITERS: usize = 10_000;
const BUF: usize = 512;

fn setup() -> (Machine, llc_sim::mem::Region) {
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(256 << 20));
    let r = m.mem_mut().alloc(4096, 4096).expect("test region fits");
    (m, r)
}

/// Draws the next adversarial buffer: pure noise, a valid frame cut
/// short, or a valid frame with random bytes flipped.
fn next_buffer(rng: &mut Rng64, buf: &mut [u8; BUF]) -> usize {
    let kind = rng.gen_range(0u32..3);
    match kind {
        0 => {
            // Pure random bytes, random length (including 0).
            let len = rng.gen_range(0usize..BUF + 1);
            for b in buf.iter_mut().take(len) {
                *b = rng.next_u64() as u8;
            }
            len
        }
        1 => {
            // A well-formed frame truncated at a random point.
            let flow = random_flow(rng);
            let size = rng.gen_range(64usize..257);
            encode_frame(&mut buf[..size], &flow, size, 0.0, 1);
            rng.gen_range(0usize..size + 1)
        }
        _ => {
            // A well-formed frame with 1..=8 corrupted bytes.
            let flow = random_flow(rng);
            let size = rng.gen_range(64usize..257);
            encode_frame(&mut buf[..size], &flow, size, 0.0, 1);
            for _ in 0..rng.gen_range(1usize..9) {
                let at = rng.gen_range(0usize..size);
                buf[at] = rng.next_u64() as u8;
            }
            size
        }
    }
}

fn random_flow(rng: &mut Rng64) -> FlowTuple {
    FlowTuple::tcp(
        rng.next_u64() as u32,
        rng.next_u64() as u16,
        rng.next_u64() as u32,
        rng.next_u64() as u16,
    )
}

#[test]
fn no_input_panics_the_parsers_and_all_packets_are_accounted() {
    let (mut m, r) = setup();
    let lpm = Arc::new(
        Lpm::build(
            &mut m,
            &[RouteEntry {
                prefix: 0x0a00_0000,
                len: 8,
                next_hop: 1,
            }],
        )
        .expect("LPM fits"),
    );
    let mut router = Router::new(Arc::clone(&lpm));
    let mut napt = Napt::new(&mut m, 256).expect("NAPT table fits");
    let mut rng = Rng64::seed_from_u64(0xfa22_0001);
    let mut buf = [0u8; BUF];
    let mut processed = 0u64;
    let mut forwarded = 0u64;
    let mut dropped = 0u64;
    for i in 0..ITERS {
        let len = next_buffer(&mut rng, &mut buf);
        m.mem_mut().write(r.pa(0), &buf[..BUF.max(1)]);
        // The decoder itself: must return None (never panic) on garbage.
        let (hdr, _) = parse_header(&mut m, 0, r.pa(0), len);
        if let Some(h) = hdr {
            // When it does parse, the reported flow must round-trip.
            assert!(len >= HDR_LEN, "parse implies enough bytes at iter {i}");
            let _ = h.flow;
        }
        // Each element sees its own fresh view of the same bytes.
        let elements: [&mut dyn Element; 2] = [&mut router, &mut napt];
        for e in elements {
            let mut pkt = Pkt {
                mbuf: 0,
                data_pa: r.pa(0),
                len: len as u16,
                mark: None,
                flow: None,
            };
            let mut ctx = Ctx { m: &mut m, core: 0 };
            let (action, cycles) = e.process(&mut ctx, &mut pkt);
            processed += 1;
            match action {
                Action::Forward => forwarded += 1,
                Action::Drop(
                    DropCause::Parse
                    | DropCause::NoRoute
                    | DropCause::TableExhausted
                    | DropCause::Policy,
                ) => dropped += 1,
            }
            assert!(cycles > 0, "every element charges for its work");
        }
    }
    // Conservation: every processed packet either forwarded or dropped.
    assert_eq!(processed, forwarded + dropped);
    assert_eq!(processed, (ITERS * 2) as u64);
    // Sanity: the corpus exercised both outcomes on the stateful path.
    assert!(forwarded > 0, "some valid frames must survive");
    assert!(dropped > 0, "some garbage must be dropped");
    // Element-level stats partition their own processed counts.
    let rs = router.stats();
    // `no_route` is a sub-count of `software` (the lookup happened, the
    // table missed) — the partition is offloaded/software/malformed.
    assert_eq!(
        rs.offloaded + rs.software + rs.malformed,
        ITERS as u64,
        "router stats partition its packets"
    );
    assert!(rs.no_route <= rs.software, "misses are software lookups");
    let ns = napt.stats();
    assert_eq!(
        ns.new_flows + ns.hits + ns.exhausted + ns.malformed,
        ITERS as u64,
        "NAPT stats partition its packets"
    );
}

#[test]
fn fuzz_corpus_is_deterministic() {
    // The corpus is a pure function of the seed: two generators agree.
    let mut a = Rng64::seed_from_u64(77);
    let mut b = Rng64::seed_from_u64(77);
    let mut ba = [0u8; BUF];
    let mut bb = [0u8; BUF];
    for _ in 0..1000 {
        let la = next_buffer(&mut a, &mut ba);
        let lb = next_buffer(&mut b, &mut bb);
        assert_eq!(la, lb);
        assert_eq!(ba[..la], bb[..lb]);
    }
}
