//! The KVS wire protocol: GET/SET requests in 128 B TCP packets (§3.1).
//!
//! Layout after the 54 B L2-L4 header: `op (1 B)`, `pad (1 B)`,
//! `key (4 B)`, `deadline (4 B)`, then for SET the 64 B value (which
//! still fits exactly: 54 + 10 + 64 = 128).
//!
//! The deadline is the *absolute* simulated completion deadline, in
//! 16 ns ticks ([`DEADLINE_TICK_NS`]) as an LE `u32`; 0 means "no
//! deadline". 16 ns granularity spans ~68 s of simulated time in 4 B —
//! three orders of magnitude above any SLO in the studies — and the
//! server drops expired-on-arrival requests without touching the store.

use trafficgen::{FlowTuple, PhaseGen, ZipfGen};

/// Request opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Read the value of a key.
    Get,
    /// Write the value of a key.
    Set,
}

/// One request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvRequest {
    /// Opcode.
    pub op: KvOp,
    /// Key in `[0, n)`.
    pub key: u32,
}

/// Request size on the wire (paper: "encapsulated in 128 B TCP packets").
pub const REQUEST_SIZE: usize = 128;
/// Offset of the opcode byte within the frame.
pub(crate) const OP_OFF: usize = crate::server::PAYLOAD_OFF;
/// Offset of the key.
pub(crate) const KEY_OFF: usize = OP_OFF + 2;
/// Offset of the absolute deadline (LE `u32`, [`DEADLINE_TICK_NS`]
/// ticks; 0 = no deadline).
pub(crate) const DEADLINE_OFF: usize = KEY_OFF + 4;
/// Offset of the (SET) value.
pub(crate) const VALUE_OFF: usize = DEADLINE_OFF + 4;
/// Granularity of the on-wire deadline field, in nanoseconds.
pub(crate) const DEADLINE_TICK_NS: f64 = 16.0;

/// Serialises a request into an already-encoded frame payload. Clears
/// the deadline field (frames are reused buffers); set one afterwards
/// with [`write_deadline`].
pub fn write_request(frame: &mut [u8], req: &KvRequest) {
    frame[OP_OFF] = match req.op {
        KvOp::Get => 0,
        KvOp::Set => 1,
    };
    frame[KEY_OFF..KEY_OFF + 4].copy_from_slice(&req.key.to_le_bytes());
    frame[DEADLINE_OFF..DEADLINE_OFF + 4].copy_from_slice(&0u32.to_le_bytes());
}

/// Stamps an absolute completion deadline (simulated ns) into the
/// frame. Rounds *up* to the next tick so the wire value is never
/// earlier than the client asked for; saturates at the 4 B ceiling
/// (~68 s).
///
/// # Panics
///
/// Panics on a non-positive or non-finite deadline (0 is the "no
/// deadline" wire encoding; use plain [`write_request`] for that).
pub(crate) fn write_deadline(frame: &mut [u8], deadline_ns: f64) {
    assert!(
        deadline_ns.is_finite() && deadline_ns > 0.0,
        "deadline must be positive and finite"
    );
    let ticks = (deadline_ns / DEADLINE_TICK_NS).ceil().min(u32::MAX as f64) as u32;
    let ticks = ticks.max(1);
    frame[DEADLINE_OFF..DEADLINE_OFF + 4].copy_from_slice(&ticks.to_le_bytes());
}

/// Reads the absolute deadline from a frame: `None` when the frame is
/// too short to carry one (a legal short request) or the field is 0.
pub(crate) fn read_deadline(frame: &[u8]) -> Option<f64> {
    if frame.len() < DEADLINE_OFF + 4 {
        return None;
    }
    let ticks = u32::from_le_bytes(frame[DEADLINE_OFF..DEADLINE_OFF + 4].try_into().ok()?);
    (ticks > 0).then_some(ticks as f64 * DEADLINE_TICK_NS)
}

/// Parses a request from raw frame bytes.
///
/// Returns `None` for an unknown opcode or a frame too short to carry
/// the opcode + key (e.g. a truncated request): no byte sequence of any
/// length panics this parser.
pub(crate) fn read_request(frame: &[u8]) -> Option<KvRequest> {
    if frame.len() < KEY_OFF + 4 {
        return None;
    }
    let op = match frame[OP_OFF] {
        0 => KvOp::Get,
        1 => KvOp::Set,
        _ => return None,
    };
    let key = u32::from_le_bytes(frame[KEY_OFF..KEY_OFF + 4].try_into().ok()?);
    Some(KvRequest { op, key })
}

/// Where a [`RequestGen`] draws its key ranks from: a stationary Zipf
/// stream or a phase-shifting [`PhaseGen`] (hot-set churn, diurnal
/// rotation, flash crowds — the §8 non-stationary workloads).
#[derive(Debug)]
enum KeySource {
    Zipf(ZipfGen),
    Phased(PhaseGen),
}

impl KeySource {
    fn n(&self) -> u64 {
        match self {
            KeySource::Zipf(g) => g.n(),
            KeySource::Phased(g) => g.n(),
        }
    }

    fn next_rank(&mut self) -> u64 {
        match self {
            KeySource::Zipf(g) => g.next_rank(),
            KeySource::Phased(g) => g.next_rank(),
        }
    }
}

/// A GET/SET workload generator over `n` keys.
///
/// `get_permille` of requests are GETs (Fig. 8 uses 100 %, 95 % and
/// 50 %). Keys are drawn from a key source — stationary Zipf(0.99) or
/// uniform ([`RequestGen::new`]), or a phase-shifting churn stream
/// ([`RequestGen::phased`]).
#[derive(Debug)]
pub struct RequestGen {
    keygen: KeySource,
    get_permille: u32,
    mix: trafficgen::Rng64,
    client_flow: FlowTuple,
    key_stride: u32,
    key_offset: u32,
    /// Optional rank-scrambling bijection `(mult, add, mask)`.
    scramble: Option<(u64, u64, u64)>,
}

impl RequestGen {
    /// A generator issuing `get_permille`/1000 GETs over `keygen`'s keys.
    ///
    /// # Panics
    ///
    /// Panics when `get_permille > 1000`.
    pub fn new(keygen: ZipfGen, get_permille: u32, seed: u64) -> Self {
        Self::from_source(KeySource::Zipf(keygen), get_permille, seed)
    }

    /// A generator drawing ranks from a phase-shifting [`PhaseGen`]:
    /// the non-stationary workload for the migration churn studies.
    /// Composes with every decorator — partitioning, scrambling (the
    /// scramble is applied to the *post-phase* rank, so rotating the
    /// rank space still moves the scrambled hot set), flows.
    ///
    /// # Panics
    ///
    /// Panics when `get_permille > 1000`.
    pub fn phased(keygen: PhaseGen, get_permille: u32, seed: u64) -> Self {
        Self::from_source(KeySource::Phased(keygen), get_permille, seed)
    }

    fn from_source(keygen: KeySource, get_permille: u32, seed: u64) -> Self {
        assert!(get_permille <= 1000, "ratio out of range");
        Self {
            keygen,
            get_permille,
            mix: trafficgen::Rng64::seed_from_u64(seed),
            client_flow: FlowTuple::tcp(0x0a00_0001, 40_000, 0xc0a8_0001, 11211),
            key_stride: 1,
            key_offset: 0,
            scramble: None,
        }
    }

    /// The same generator emitting from a different client 5-tuple. The
    /// multi-queue server uses one flow per RX queue (see
    /// [`crate::server::flow_for_queue`]) so each generator feeds
    /// exactly one serving core.
    #[must_use]
    pub fn with_flow(mut self, flow: FlowTuple) -> Self {
        self.client_flow = flow;
        self
    }

    /// Restricts keys to the arithmetic class `rank × stride + offset`:
    /// the per-core key partition of the multi-queue server, where core
    /// *i* of *N* uses stride *N*, offset *i* — matching
    /// [`crate::store::Placement::Striped`], which homes key class *i*
    /// in core *i*'s closest slice.
    ///
    /// # Panics
    ///
    /// Panics when `stride` is 0 or `offset ≥ stride`.
    #[must_use]
    pub fn with_key_partition(mut self, stride: u32, offset: u32) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(offset < stride, "offset must be below the stride");
        self.key_stride = stride;
        self.key_offset = offset;
        self
    }

    /// Decorrelates Zipf popularity from key *identity* by passing each
    /// rank through a seeded bijection of the key space (`rank × odd +
    /// add mod 2^k`). Without this, rank 0 — the hottest key — is always
    /// key `offset`, so a freshly built store whose index is the
    /// identity already holds the Zipf head in its lowest slots and a
    /// hot-set migration study measures nothing. Real key spaces are
    /// hashed, so scrambling is the faithful default for skewed runs.
    ///
    /// # Panics
    ///
    /// Panics when the generator's key-space size is not a power of two
    /// (the multiply-add permutation is only bijective mod `2^k`).
    #[must_use]
    pub fn with_key_scramble(mut self, seed: u64) -> Self {
        let n = self.keygen.n();
        assert!(
            n.is_power_of_two(),
            "key scrambling needs a power-of-two key space, got {n}"
        );
        let mut r = trafficgen::Rng64::seed_from_u64(seed);
        // Any odd multiplier is invertible mod 2^k, so (mult, add) is a
        // permutation of the ranks.
        let mult = r.next_u64() | 1;
        let add = r.next_u64();
        self.scramble = Some((mult, add, n - 1));
        self
    }

    /// The client's 5-tuple.
    pub fn flow(&self) -> FlowTuple {
        self.client_flow
    }

    /// Draws the next request.
    pub fn next_request(&mut self) -> KvRequest {
        let op = if self.mix.gen_range(0u32..1000) < self.get_permille {
            KvOp::Get
        } else {
            KvOp::Set
        };
        let mut rank = self.keygen.next_rank();
        if let Some((mult, add, mask)) = self.scramble {
            rank = rank.wrapping_mul(mult).wrapping_add(add) & mask;
        }
        KvRequest {
            op,
            key: rank as u32 * self.key_stride + self.key_offset,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let mut frame = vec![0u8; REQUEST_SIZE];
        write_request(
            &mut frame,
            &KvRequest {
                op: KvOp::Set,
                key: 0xdead,
            },
        );
        let r = read_request(&frame).unwrap();
        assert_eq!(r.op, KvOp::Set);
        assert_eq!(r.key, 0xdead);
    }

    #[test]
    fn truncated_request_is_none_not_panic() {
        let mut frame = vec![0u8; REQUEST_SIZE];
        write_request(
            &mut frame,
            &KvRequest {
                op: KvOp::Get,
                key: 7,
            },
        );
        for cut in 0..KEY_OFF + 4 {
            assert!(read_request(&frame[..cut]).is_none(), "cut at {cut}");
        }
        assert!(read_request(&frame[..KEY_OFF + 4]).is_some());
    }

    #[test]
    fn deadline_roundtrip_rounds_up_to_tick() {
        let mut frame = vec![0u8; REQUEST_SIZE];
        write_request(
            &mut frame,
            &KvRequest {
                op: KvOp::Get,
                key: 1,
            },
        );
        assert_eq!(read_deadline(&frame), None, "fresh request: no deadline");
        write_deadline(&mut frame, 1000.0);
        let d = read_deadline(&frame).unwrap();
        assert!((1000.0..1000.0 + DEADLINE_TICK_NS).contains(&d), "got {d}");
        // Sub-tick deadlines round up to one tick, never to zero.
        write_deadline(&mut frame, 0.5);
        assert_eq!(read_deadline(&frame), Some(DEADLINE_TICK_NS));
        // A truncated frame cannot carry a deadline.
        assert_eq!(read_deadline(&frame[..DEADLINE_OFF + 3]), None);
    }

    #[test]
    fn write_request_clears_stale_deadline() {
        let mut frame = vec![0u8; REQUEST_SIZE];
        write_deadline(&mut frame, 5000.0);
        write_request(
            &mut frame,
            &KvRequest {
                op: KvOp::Set,
                key: 2,
            },
        );
        assert_eq!(read_deadline(&frame), None);
    }

    #[test]
    fn unknown_opcode_is_none() {
        let mut frame = vec![0u8; REQUEST_SIZE];
        frame[OP_OFF] = 9;
        assert!(read_request(&frame).is_none());
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // A protocol invariant, kept visible.
    fn set_value_fits_128b_frame() {
        assert!(VALUE_OFF + 64 <= REQUEST_SIZE);
    }

    #[test]
    fn get_ratio_is_respected() {
        let mut g = RequestGen::new(ZipfGen::new(1 << 16, 0.99, 1), 950, 2);
        let n = 20_000;
        let gets = (0..n).filter(|_| g.next_request().op == KvOp::Get).count();
        let frac = gets as f64 / n as f64;
        assert!((frac - 0.95).abs() < 0.01, "GET fraction {frac}");
    }

    #[test]
    fn scramble_is_a_bijection_of_the_key_class() {
        // Uniform draw over a small power-of-two space: every scrambled
        // key must still land in the generator's key class, and over
        // enough draws all n keys must appear (bijection, not a fold).
        let n = 64u32;
        let mut g = RequestGen::new(ZipfGen::new(n as u64, 0.0, 5), 1000, 6)
            .with_key_partition(4, 1)
            .with_key_scramble(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20_000 {
            let key = g.next_request().key;
            assert_eq!(key % 4, 1, "key {key} left its class");
            assert!(key < n * 4);
            seen.insert(key);
        }
        assert_eq!(seen.len(), n as usize, "scramble folded the key space");
    }

    #[test]
    fn scramble_moves_the_zipf_head() {
        // With heavy skew the unscrambled head is rank 0 = key 0; the
        // scrambled head must be some other (deterministic) key.
        let head = |scramble: bool| {
            let mut g = RequestGen::new(ZipfGen::new(1 << 10, 0.99, 9), 1000, 10);
            if scramble {
                g = g.with_key_scramble(11);
            }
            let mut counts = std::collections::HashMap::new();
            for _ in 0..5000 {
                *counts.entry(g.next_request().key).or_insert(0u32) += 1;
            }
            counts.into_iter().max_by_key(|&(k, c)| (c, k)).unwrap().0
        };
        assert_eq!(head(false), 0);
        assert_ne!(head(true), 0);
    }

    #[test]
    fn keys_in_range() {
        let mut g = RequestGen::new(ZipfGen::new(1000, 0.0, 3), 500, 4);
        for _ in 0..5000 {
            assert!(g.next_request().key < 1000);
        }
    }

    #[test]
    fn phased_generator_moves_the_hot_key_across_phases() {
        use trafficgen::{PhaseGen, PhaseSchedule};
        let n = 1u64 << 10;
        let schedule = PhaseSchedule::hot_set_churn(2, 4000, 100);
        let mut g = RequestGen::phased(
            PhaseGen::new(ZipfGen::new(n, 0.99, 15), schedule, 16),
            1000,
            17,
        );
        let head = |g: &mut RequestGen, draws: usize| {
            let mut counts = std::collections::HashMap::new();
            for _ in 0..draws {
                *counts.entry(g.next_request().key).or_insert(0u32) += 1;
            }
            counts.into_iter().max_by_key(|&(k, c)| (c, k)).unwrap().0
        };
        assert_eq!(head(&mut g, 4000), 0, "phase 0: unrotated Zipf head");
        assert_eq!(head(&mut g, 4000), 100, "phase 1: head rotated by 100");
    }

    #[test]
    fn phased_generator_composes_with_partition_and_scramble() {
        use trafficgen::{PhaseGen, PhaseSchedule};
        let n = 1u64 << 8;
        let schedule = PhaseSchedule::hot_set_churn(3, 500, 37);
        // Uniform base so every key appears within the draw budget; the
        // bijection and class membership are what is under test here.
        let mk = || {
            RequestGen::phased(
                PhaseGen::new(ZipfGen::new(n, 0.0, 18), schedule.clone(), 19),
                1000,
                20,
            )
            .with_key_partition(4, 2)
            .with_key_scramble(21)
        };
        let (mut a, mut b) = (mk(), mk());
        let mut seen = std::collections::HashSet::new();
        for i in 0..3000 {
            let (ra, rb) = (a.next_request(), b.next_request());
            assert_eq!(ra, rb, "draw {i}: phased streams replay identically");
            assert_eq!(ra.key % 4, 2, "key {} left its class", ra.key);
            assert!(ra.key < (n as u32) * 4);
            seen.insert(ra.key);
        }
        assert_eq!(seen.len(), n as usize, "scramble stayed a bijection");
    }
}
