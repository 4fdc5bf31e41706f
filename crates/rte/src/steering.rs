//! NIC RX steering: RSS (Toeplitz) and FlowDirector.
//!
//! The paper's simple-forwarding runs use Receive Side Scaling to spread
//! packets over 8 cores (Fig. 13), while the Metron service chain uses
//! Intel-style FlowDirector rules with hardware offloading (Fig. 14) —
//! and §5.2.1 observes that "FlowDirector reduces contention in each
//! slice by performing better load balancing compared to RSS for the
//! campus trace". Both are modelled:
//!
//! * [`Rss`]: the standard Toeplitz hash over the IPv4 5-tuple with the
//!   Microsoft verification key, low bits indexing the queue — real RSS,
//!   including its skew on non-uniform flow populations. The hash is
//!   computed from per-byte lookup tables built with [`toeplitz_hash`],
//!   which stays the bit-serial reference.
//! * [`FlowDirector`]: an exact-match flow table whose miss path assigns
//!   new flows round-robin (the balanced dispatching Metron programs),
//!   plus a 32-bit `mark` action used for hardware classification
//!   offload (the router's table lookup in §5.2).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use trafficgen::FlowTuple;

/// The Microsoft-standard 40-byte Toeplitz key used by most NICs/drivers.
pub const TOEPLITZ_KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// Computes the Toeplitz hash of `data` under `key`.
pub fn toeplitz_hash(key: &[u8; 40], data: &[u8]) -> u32 {
    let mut result = 0u32;
    // The sliding 32-bit window over the key, advanced bit by bit.
    let mut window = u32::from_be_bytes([key[0], key[1], key[2], key[3]]);
    let mut next_key_bit = 32; // Absolute bit index into the key.
    for &byte in data {
        for bit in (0..8).rev() {
            if byte & (1 << bit) != 0 {
                result ^= window;
            }
            // Slide the window one bit left, pulling in the next key bit.
            let fresh = if next_key_bit < 320 {
                (key[next_key_bit / 8] >> (7 - next_key_bit % 8)) & 1
            } else {
                0
            };
            window = (window << 1) | u32::from(fresh);
            next_key_bit += 1;
        }
    }
    result
}

/// Serialises the RSS input for an IPv4 TCP/UDP flow: src ip, dst ip,
/// src port, dst port, big-endian (the `IPV4_TCP` RSS type).
pub(crate) fn rss_input(flow: &FlowTuple) -> [u8; 12] {
    let mut d = [0u8; 12];
    d[0..4].copy_from_slice(&flow.src_ip.to_be_bytes());
    d[4..8].copy_from_slice(&flow.dst_ip.to_be_bytes());
    d[8..10].copy_from_slice(&flow.src_port.to_be_bytes());
    d[10..12].copy_from_slice(&flow.dst_port.to_be_bytes());
    d
}

/// Receive Side Scaling over `queues` queues.
#[derive(Debug, Clone)]
pub struct Rss {
    queues: usize,
    /// `table[i][b]` is the Toeplitz hash of the input whose byte `i` is
    /// `b` and whose other bytes are 0. The hash is linear in the input
    /// bits (XOR), so an input hashes to the XOR of its bytes' entries.
    table: Box<[[u32; 256]; 12]>,
}

impl Rss {
    /// RSS with the standard key.
    ///
    /// # Panics
    ///
    /// Panics when `queues == 0`.
    pub fn new(queues: usize) -> Self {
        assert!(queues > 0, "need at least one queue");
        let mut table = Box::new([[0u32; 256]; 12]);
        for (i, row) in table.iter_mut().enumerate() {
            for bit in 0..8 {
                let mut unit = [0u8; 12];
                unit[i] = 1 << bit;
                let h = toeplitz_hash(&TOEPLITZ_KEY, &unit);
                // Bytes whose top set bit is `bit` extend a smaller one.
                for b in 1 << bit..2 << bit {
                    row[b] = row[b - (1 << bit)] ^ h;
                }
            }
        }
        Self { queues, table }
    }

    /// Number of queues.
    pub(crate) fn queues(&self) -> usize {
        self.queues
    }

    /// The Toeplitz hash of an RSS input, from the tables.
    fn hash(&self, input: &[u8; 12]) -> u32 {
        input
            .iter()
            .zip(self.table.iter())
            .fold(0, |h, (&b, row)| h ^ row[usize::from(b)])
    }

    /// The queue for `flow` (hash low bits modulo the queue count, like a
    /// fully populated RETA).
    pub fn queue_for(&self, flow: &FlowTuple) -> usize {
        (self.hash(&rss_input(flow)) as usize) % self.queues
    }
}

/// A FlowDirector action: target queue plus an optional 32-bit mark the
/// NIC attaches to matching packets (hardware classification offload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdirAction {
    /// RX queue for matching packets.
    pub queue: usize,
    /// Mark delivered in the RX descriptor (Metron stores the routing
    /// decision here, §5.2).
    pub mark: Option<u32>,
}

/// A fixed multiply-rotate hasher for hot tables with small keys: one
/// mix per written integer (per field of a [`FlowTuple`], once for a
/// `u32`), deterministic and a few instructions long, where std's
/// default is a randomly keyed SipHash. Use it as
/// `BuildHasherDefault<FixedHasher>`. A table's iteration order is then
/// fixed but arbitrary, so no result may depend on it: the FlowDirector
/// rule table is only looked up, and the KVS migrator's tables are
/// looked up or iterated only into a sort under a total order. Being
/// unkeyed, it does not resist keys crafted to collide: use it for keys
/// the simulated workload generates, not for adversarial input.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedHasher(u64);

impl FixedHasher {
    #[inline]
    fn mix(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FixedHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The multiply mixes upward; bring the well-mixed high bits down
        // to where the table takes its bucket index.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.mix(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.mix(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.mix(u64::from(x));
    }
}

/// Exact-match flow steering with round-robin placement of new flows.
#[derive(Debug, Clone)]
pub struct FlowDirector {
    queues: usize,
    table: HashMap<FlowTuple, FdirAction, BuildHasherDefault<FixedHasher>>,
    next_rr: usize,
    auto_insert: bool,
}

impl FlowDirector {
    /// A FlowDirector with `queues` queues that auto-assigns unknown flows
    /// round-robin (the controller-programmed balanced dispatch).
    ///
    /// # Panics
    ///
    /// Panics when `queues == 0`.
    pub fn new(queues: usize) -> Self {
        assert!(queues > 0, "need at least one queue");
        Self {
            queues,
            table: HashMap::default(),
            next_rr: 0,
            auto_insert: true,
        }
    }

    /// Number of queues.
    pub(crate) fn queues(&self) -> usize {
        self.queues
    }

    /// Installs or replaces a rule.
    pub fn set_rule(&mut self, flow: FlowTuple, action: FdirAction) {
        assert!(action.queue < self.queues, "queue out of range");
        self.table.insert(flow, action);
    }

    /// Whether a rule for `flow` is installed, by [`FlowDirector::set_rule`]
    /// or by auto-insertion.
    pub fn has_rule(&self, flow: &FlowTuple) -> bool {
        self.table.contains_key(flow)
    }

    /// The action for `flow`; auto-inserting mode assigns new flows to
    /// queues round-robin (perfectly balanced across the flow population).
    pub fn action_for(&mut self, flow: &FlowTuple) -> FdirAction {
        if let Some(a) = self.table.get(flow) {
            return *a;
        }
        if self.auto_insert {
            let a = FdirAction {
                queue: self.next_rr,
                mark: None,
            };
            self.next_rr = (self.next_rr + 1) % self.queues;
            self.table.insert(*flow, a);
            a
        } else {
            FdirAction {
                queue: 0,
                mark: None,
            }
        }
    }
}

/// Either steering mode, as configured on a port.
#[derive(Debug, Clone)]
pub enum Steering {
    /// Receive Side Scaling.
    Rss(Rss),
    /// FlowDirector exact-match steering.
    FlowDirector(FlowDirector),
}

impl Steering {
    /// Queue + optional mark for `flow`.
    pub(crate) fn steer(&mut self, flow: &FlowTuple) -> (usize, Option<u32>) {
        match self {
            Steering::Rss(r) => (r.queue_for(flow), None),
            Steering::FlowDirector(fd) => {
                let a = fd.action_for(flow);
                (a.queue, a.mark)
            }
        }
    }

    /// Number of queues.
    pub(crate) fn queues(&self) -> usize {
        match self {
            Steering::Rss(r) => r.queues(),
            Steering::FlowDirector(fd) => fd.queues(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer test vector from the Microsoft RSS specification.
    #[test]
    fn toeplitz_known_answer() {
        // 66.9.149.187:2794 -> 161.142.100.80:1766 => 0x51ccc178.
        let flow = FlowTuple::tcp(0x420995bb, 2794, 0xa18e6450, 1766);
        let h = toeplitz_hash(&TOEPLITZ_KEY, &rss_input(&flow));
        assert_eq!(h, 0x51cc_c178);
    }

    #[test]
    fn toeplitz_second_known_answer() {
        // 199.92.111.2:14230 -> 65.69.140.83:4739 => 0xc626b0ea.
        let flow = FlowTuple::tcp(0xc75c6f02, 14230, 0x41458c53, 4739);
        let h = toeplitz_hash(&TOEPLITZ_KEY, &rss_input(&flow));
        assert_eq!(h, 0xc626_b0ea);
    }

    /// Property: the table hash equals the bit-serial Toeplitz hash on
    /// random inputs, and `queue_for` equals the reference's low bits
    /// modulo the queue count.
    #[test]
    fn rss_tables_match_toeplitz_on_random_inputs() {
        let mut rng = trafficgen::Rng64::seed_from_u64(0x7e0b_11f2);
        let rss: Vec<Rss> = [1, 2, 3, 5, 8].into_iter().map(Rss::new).collect();
        for _ in 0..4096 {
            let mut input = [0u8; 12];
            for b in &mut input {
                *b = rng.next_u64() as u8;
            }
            let want = toeplitz_hash(&TOEPLITZ_KEY, &input);
            assert_eq!(rss[0].hash(&input), want, "input {input:02x?}");
            let flow = FlowTuple::tcp(
                rng.next_u64() as u32,
                rng.next_u64() as u16,
                rng.next_u64() as u32,
                rng.next_u64() as u16,
            );
            let want = toeplitz_hash(&TOEPLITZ_KEY, &rss_input(&flow)) as usize;
            for r in &rss {
                assert_eq!(r.queue_for(&flow), want % r.queues(), "{flow:?}");
            }
        }
    }

    #[test]
    fn rss_is_deterministic_and_in_range() {
        let rss = Rss::new(8);
        let f = FlowTuple::tcp(1, 2, 3, 4);
        let q = rss.queue_for(&f);
        assert!(q < 8);
        assert_eq!(rss.queue_for(&f), q);
    }

    #[test]
    fn rss_spreads_flows() {
        let rss = Rss::new(8);
        let mut counts = [0usize; 8];
        for i in 0..1000u32 {
            let f = FlowTuple::tcp(0x0a000000 + i, 1024 + (i as u16 % 100), 0xc0a80001, 80);
            counts[rss.queue_for(&f)] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 60),
            "queues too skewed: {counts:?}"
        );
    }

    #[test]
    fn fdir_round_robin_is_perfectly_balanced() {
        let mut fd = FlowDirector::new(8);
        let mut counts = [0usize; 8];
        for i in 0..800u32 {
            let f = FlowTuple::tcp(i, 1, 2, 3);
            counts[fd.action_for(&f).queue] += 1;
        }
        assert!(counts.iter().all(|&c| c == 100), "{counts:?}");
        assert_eq!(fd.table.len(), 800);
    }

    #[test]
    fn fdir_is_sticky_per_flow() {
        let mut fd = FlowDirector::new(4);
        let f = FlowTuple::udp(9, 9, 9, 9);
        let q = fd.action_for(&f).queue;
        for _ in 0..10 {
            assert_eq!(fd.action_for(&f).queue, q);
        }
    }

    #[test]
    fn fdir_explicit_rules_and_marks() {
        let mut fd = FlowDirector::new(4);
        let f = FlowTuple::tcp(1, 1, 1, 1);
        fd.set_rule(
            f,
            FdirAction {
                queue: 3,
                mark: Some(0x42),
            },
        );
        let a = fd.action_for(&f);
        assert_eq!(a.queue, 3);
        assert_eq!(a.mark, Some(0x42));
    }

    #[test]
    fn fdir_has_rule_sees_set_and_auto_inserted_rules() {
        let mut fd = FlowDirector::new(4);
        let (f, g) = (FlowTuple::tcp(1, 1, 1, 1), FlowTuple::tcp(2, 2, 2, 2));
        fd.set_rule(
            f,
            FdirAction {
                queue: 3,
                mark: None,
            },
        );
        assert!(fd.has_rule(&f));
        assert!(!fd.has_rule(&g));
        fd.action_for(&g);
        assert!(fd.has_rule(&g), "auto-insertion installs a rule");
    }

    #[test]
    fn fdir_static_mode_defaults_to_queue0() {
        let mut fd = FlowDirector::new(4);
        fd.auto_insert = false;
        let a = fd.action_for(&FlowTuple::tcp(7, 7, 7, 7));
        assert_eq!(a.queue, 0);
        assert!(fd.table.is_empty());
    }

    #[test]
    fn steering_enum_dispatch() {
        let mut s = Steering::Rss(Rss::new(2));
        assert_eq!(s.queues(), 2);
        let (q, mark) = s.steer(&FlowTuple::tcp(1, 2, 3, 4));
        assert!(q < 2);
        assert_eq!(mark, None);
        let mut s = Steering::FlowDirector(FlowDirector::new(3));
        assert_eq!(s.queues(), 3);
        let (q, _) = s.steer(&FlowTuple::tcp(1, 2, 3, 4));
        assert!(q < 3);
    }
}
