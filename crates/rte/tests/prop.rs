//! Property-style tests for the DPDK-work-alike substrate.
//! Seeded loops over [`trafficgen::Rng64`] (fully offline).

use llc_sim::machine::{Machine, MachineConfig};
use rte::mempool::MbufPool;
use rte::ring::Ring;
use rte::steering::{toeplitz_hash, FlowDirector, Rss, TOEPLITZ_KEY};
use trafficgen::{FlowTuple, Rng64};

/// The ring behaves exactly like a bounded FIFO model: an enqueue
/// fails, handing the element back, exactly when the model is full.
#[test]
fn ring_matches_deque_model() {
    let mut rng = Rng64::seed_from_u64(0x5701);
    for _ in 0..64 {
        let cap = rng.gen_range(1usize..64);
        let n_ops = rng.gen_range(1usize..300);
        let mut ring = Ring::new(cap);
        let mut model = std::collections::VecDeque::new();
        for _ in 0..n_ops {
            if rng.gen_bool(0.6) {
                let v = rng.gen_range(0u32..1000);
                let res = ring.enqueue(v);
                if model.len() < cap {
                    assert_eq!(res, Ok(()));
                    model.push_back(v);
                } else {
                    assert_eq!(res, Err(v));
                }
            } else {
                assert_eq!(ring.dequeue(), model.pop_front());
            }
            assert_eq!(ring.len(), model.len());
        }
    }
}

/// Burst dequeue preserves FIFO order and never over-returns; the
/// enqueues a full ring refuses are the tail of the input.
#[test]
fn ring_burst_order() {
    let mut rng = Rng64::seed_from_u64(0x5702);
    for _ in 0..64 {
        let n = rng.gen_range(0usize..100);
        let burst = rng.gen_range(1usize..20);
        let values: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..1000)).collect();
        let mut ring = Ring::new(64);
        let drops = values.iter().filter(|&&v| ring.enqueue(v).is_err()).count();
        let accepted = n - drops;
        assert_eq!(accepted, n.min(64));
        let mut got = Vec::new();
        ring.dequeue_burst_into(burst, &mut got);
        assert!(got.len() <= burst);
        assert_eq!(&got[..], &values[..got.len().min(accepted)]);
    }
}

/// RSS is deterministic, in range, and insensitive to non-tuple bits.
#[test]
fn rss_queue_in_range() {
    let mut rng = Rng64::seed_from_u64(0x5703);
    for _ in 0..256 {
        let queues = rng.gen_range(1usize..64);
        let rss = Rss::new(queues);
        let f = FlowTuple::tcp(
            rng.next_u32(),
            rng.gen_range(0u16..=u16::MAX),
            rng.next_u32(),
            rng.gen_range(0u16..=u16::MAX),
        );
        let q = rss.queue_for(&f);
        assert!(q < queues);
        assert_eq!(rss.queue_for(&f), q);
    }
}

/// Toeplitz over a 12-byte input is XOR-linear in the input (a known
/// algebraic property of the hash).
#[test]
fn toeplitz_is_linear() {
    let mut rng = Rng64::seed_from_u64(0x5704);
    for _ in 0..256 {
        let mut a = [0u8; 12];
        let mut b = [0u8; 12];
        for i in 0..12 {
            a[i] = rng.gen_range(0u32..=255) as u8;
            b[i] = rng.gen_range(0u32..=255) as u8;
        }
        let mut x = [0u8; 12];
        for i in 0..12 {
            x[i] = a[i] ^ b[i];
        }
        let ha = toeplitz_hash(&TOEPLITZ_KEY, &a);
        let hb = toeplitz_hash(&TOEPLITZ_KEY, &b);
        let hx = toeplitz_hash(&TOEPLITZ_KEY, &x);
        let h0 = toeplitz_hash(&TOEPLITZ_KEY, &[0u8; 12]);
        assert_eq!(hx ^ h0, ha ^ hb);
    }
}

/// FlowDirector stays sticky and balanced under arbitrary flow
/// arrival orders.
#[test]
fn fdir_sticky_and_balanced() {
    let mut rng = Rng64::seed_from_u64(0x5705);
    for _ in 0..32 {
        let queues = rng.gen_range(1usize..16);
        let n_flows = rng.gen_range(1usize..200);
        let mut fd = FlowDirector::new(queues);
        let mut assigned = std::collections::HashMap::new();
        for _ in 0..n_flows {
            let ip = rng.next_u32();
            let port = rng.gen_range(0u16..=u16::MAX);
            let f = FlowTuple::tcp(ip, port, 1, 80);
            let q = fd.action_for(&f).queue;
            assert!(q < queues);
            let prev = assigned.entry(f).or_insert(q);
            assert_eq!(*prev, q, "flow moved queues");
        }
        // Round-robin balance: queue loads differ by at most 1.
        let mut counts = vec![0usize; queues];
        for &q in assigned.values() {
            counts[q] += 1;
        }
        let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(hi - lo <= 1, "imbalance {counts:?}");
    }
}

/// Mempool get/put sequences conserve objects and never alias.
#[test]
fn mempool_conservation() {
    let mut rng = Rng64::seed_from_u64(0x5706);
    for _ in 0..16 {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(16 << 20));
        let mut pool = MbufPool::create(&mut m, 32, 128, 512).unwrap();
        let mut held = Vec::new();
        let n_ops = rng.gen_range(1usize..200);
        for _ in 0..n_ops {
            if rng.gen_bool(0.5) {
                if let Some(idx) = pool.get() {
                    assert!(!held.contains(&idx), "aliased mbuf {idx}");
                    held.push(idx);
                }
            } else if let Some(idx) = held.pop() {
                pool.put(idx);
            }
            assert_eq!(pool.available() + held.len(), 32);
        }
    }
}
