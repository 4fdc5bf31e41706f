//! Ethernet/IPv4/TCP frame encoding and (timed) header access.
//!
//! Frames carry the LoadGen timestamp and sequence number in the payload
//! ("the LoadGen writes a timestamp in each packet's payload", §5). The
//! whole 54 B header prefix sits in the first cache line of the frame,
//! which is precisely the 64 B window CacheDirector places.

use llc_sim::addr::PhysAddr;
use llc_sim::epoch::CoreMem;
use llc_sim::hierarchy::Cycles;
use llc_sim::machine::Machine;
use trafficgen::FlowTuple;

/// Ethernet header length.
pub(crate) const ETH_LEN: usize = 14;
/// IPv4 header length (no options).
pub(crate) const IPV4_LEN: usize = 20;
/// TCP header length (no options).
pub(crate) const TCP_LEN: usize = 20;
/// Total L2-L4 header prefix.
pub const HDR_LEN: usize = ETH_LEN + IPV4_LEN + TCP_LEN;
/// Payload offset of the timestamp (whole nanoseconds, u32 — enough for
/// runs of up to ~4.3 simulated seconds, and small enough that the tag
/// fits the paper's 64 B minimum frames).
pub(crate) const TS_OFF: usize = HDR_LEN;
/// Payload offset of the (u32) sequence number.
pub(crate) const SEQ_OFF: usize = HDR_LEN + 4;
/// Smallest frame that still carries timestamp + sequence.
pub(crate) const MIN_FRAME: usize = SEQ_OFF + 4;

/// Fixed MACs: LoadGen and DuT ends of the wire.
pub(crate) const LOADGEN_MAC: [u8; 6] = [0x02, 0x00, 0x00, 0x00, 0x00, 0x01];
/// DuT port MAC.
pub(crate) const DUT_MAC: [u8; 6] = [0x02, 0x00, 0x00, 0x00, 0x00, 0x02];

/// Encodes a frame into `buf` (host-side, untimed — this is LoadGen
/// work, not DuT work). Returns the frame length actually written.
///
/// # Panics
///
/// Panics when `size` is below [`MIN_FRAME`] or exceeds `buf`.
pub fn encode_frame(buf: &mut [u8], flow: &FlowTuple, size: usize, ts_ns: f64, seq: u64) -> usize {
    assert!(size >= MIN_FRAME, "frame too small for the test payload");
    assert!(size <= buf.len(), "buffer too small");
    buf[..size].fill(0);
    buf[0..6].copy_from_slice(&DUT_MAC);
    buf[6..12].copy_from_slice(&LOADGEN_MAC);
    buf[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
    // IPv4.
    buf[14] = 0x45;
    let tot_len = (size - ETH_LEN) as u16;
    buf[16..18].copy_from_slice(&tot_len.to_be_bytes());
    buf[22] = 64; // TTL.
    buf[23] = flow.proto;
    buf[26..30].copy_from_slice(&flow.src_ip.to_be_bytes());
    buf[30..34].copy_from_slice(&flow.dst_ip.to_be_bytes());
    // TCP/UDP ports (same offsets for both).
    buf[34..36].copy_from_slice(&flow.src_port.to_be_bytes());
    buf[36..38].copy_from_slice(&flow.dst_port.to_be_bytes());
    // Payload: timestamp + sequence.
    buf[TS_OFF..TS_OFF + 4].copy_from_slice(&(ts_ns as u32).to_le_bytes());
    buf[SEQ_OFF..SEQ_OFF + 4].copy_from_slice(&(seq as u32).to_le_bytes());
    size
}

/// A parsed header, as the elements see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedHeader {
    /// Transport 5-tuple.
    pub flow: FlowTuple,
    /// IPv4 TTL.
    pub(crate) ttl: u8,
}

/// Reads and parses the 54 B header prefix at `data_pa` (timed on
/// `core`) — the access CacheDirector accelerates.
///
/// Fully bounds-checked: `frame_len` is the bytes actually on the wire,
/// and no frame — truncated, malformed, or hostile — can make this
/// panic. Returns `None` (still charging the cycles spent looking) when
/// the frame is too short for an Ethernet+IPv4+TCP prefix, is not IPv4,
/// has IP options (unsupported here), or claims an IP total length that
/// does not fit in the frame (a mid-packet truncation).
pub fn parse_header<M: CoreMem + ?Sized>(
    m: &mut M,
    core: usize,
    data_pa: PhysAddr,
    frame_len: usize,
) -> (Option<ParsedHeader>, Cycles) {
    let mut hdr = [0u8; HDR_LEN];
    let readable = frame_len.min(HDR_LEN);
    let mut cycles = m.read_bytes(core, data_pa, &mut hdr[..readable]);
    // Field extraction work.
    m.advance(core, PARSE_WORK);
    cycles += PARSE_WORK;
    if frame_len < HDR_LEN {
        return (None, cycles);
    }
    let ethertype = u16::from_be_bytes([hdr[12], hdr[13]]);
    if ethertype != 0x0800 {
        return (None, cycles);
    }
    // Version 4, IHL 5 (options unsupported).
    if hdr[14] != 0x45 {
        return (None, cycles);
    }
    let tot_len = usize::from(u16::from_be_bytes([hdr[16], hdr[17]]));
    if tot_len < IPV4_LEN + TCP_LEN || tot_len > frame_len - ETH_LEN {
        // Claims more (or fewer) bytes than the wire carried.
        return (None, cycles);
    }
    let flow = FlowTuple {
        src_ip: u32::from_be_bytes([hdr[26], hdr[27], hdr[28], hdr[29]]),
        dst_ip: u32::from_be_bytes([hdr[30], hdr[31], hdr[32], hdr[33]]),
        src_port: u16::from_be_bytes([hdr[34], hdr[35]]),
        dst_port: u16::from_be_bytes([hdr[36], hdr[37]]),
        proto: hdr[23],
    };
    (Some(ParsedHeader { flow, ttl: hdr[22] }), cycles)
}

/// Cycles of pure-ALU work charged for header field extraction.
pub(crate) const PARSE_WORK: Cycles = 30;

/// Swaps source and destination MAC addresses in place (timed) — the
/// §5.1 simple-forwarding application.
pub fn mac_swap<M: CoreMem + ?Sized>(m: &mut M, core: usize, data_pa: PhysAddr) -> Cycles {
    let mut macs = [0u8; 12];
    let mut cycles = m.read_bytes(core, data_pa, &mut macs);
    let (dst, src) = macs.split_at_mut(6);
    dst.swap_with_slice(src);
    cycles += m.write_bytes(core, data_pa, &macs);
    cycles
}

/// Rewrites the IPv4 destination address (timed) — the load balancer's
/// action.
pub(crate) fn rewrite_dst_ip<M: CoreMem + ?Sized>(
    m: &mut M,
    core: usize,
    data_pa: PhysAddr,
    new_ip: u32,
) -> Cycles {
    let mut c = m.write_bytes(core, data_pa.add(30), &new_ip.to_be_bytes());
    // Incremental checksum update.
    m.advance(core, CSUM_WORK);
    c += CSUM_WORK;
    c
}

/// Rewrites the transport source port (timed) — NAPT's action.
pub(crate) fn rewrite_src_port<M: CoreMem + ?Sized>(
    m: &mut M,
    core: usize,
    data_pa: PhysAddr,
    new_port: u16,
) -> Cycles {
    let mut c = m.write_bytes(core, data_pa.add(34), &new_port.to_be_bytes());
    m.advance(core, CSUM_WORK);
    c += CSUM_WORK;
    c
}

/// Decrements TTL in place (timed) — the router's action.
pub fn decrement_ttl<M: CoreMem + ?Sized>(m: &mut M, core: usize, data_pa: PhysAddr) -> Cycles {
    let mut ttl = [0u8; 1];
    let mut c = m.read_bytes(core, data_pa.add(22), &mut ttl);
    ttl[0] = ttl[0].saturating_sub(1);
    c += m.write_bytes(core, data_pa.add(22), &ttl);
    m.advance(core, CSUM_WORK);
    c + CSUM_WORK
}

/// Incremental-checksum work per header rewrite.
pub(crate) const CSUM_WORK: Cycles = 15;

/// Reads the payload timestamp and sequence back out (host-side,
/// untimed — this happens at the LoadGen on the packet's return).
pub fn read_payload_tag(m: &Machine, data_pa: PhysAddr) -> (f64, u64) {
    let mut b = [0u8; 8];
    m.mem().read(data_pa.add(TS_OFF as u64), &mut b);
    let ts = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let seq = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
    (f64::from(ts), u64::from(seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::machine::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(16 << 20))
    }

    fn flow() -> FlowTuple {
        FlowTuple::tcp(0x0a010203, 4444, 0xc0a80105, 443)
    }

    #[test]
    fn encode_parse_roundtrip() {
        let mut m = machine();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        let mut buf = vec![0u8; 1500];
        let n = encode_frame(&mut buf, &flow(), 128, 123.0, 77);
        assert_eq!(n, 128);
        m.mem_mut().write(r.pa(0), &buf[..n]);
        let (hdr, cycles) = parse_header(&mut m, 0, r.pa(0), n);
        let hdr = hdr.expect("well-formed frame parses");
        assert_eq!(hdr.flow, flow());
        assert_eq!(hdr.ttl, 64);
        assert!(cycles > PARSE_WORK);
        let (ts, seq) = read_payload_tag(&m, r.pa(0));
        assert_eq!(ts, 123.0);
        assert_eq!(seq, 77);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // A paper invariant, kept visible.
    fn header_fits_one_cache_line() {
        assert!(HDR_LEN <= 64, "CacheDirector places exactly this window");
    }

    #[test]
    fn mac_swap_swaps() {
        let mut m = machine();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        let mut buf = vec![0u8; 128];
        encode_frame(&mut buf, &flow(), 128, 0.0, 0);
        m.mem_mut().write(r.pa(0), &buf);
        mac_swap(&mut m, 0, r.pa(0));
        let out = m.mem().slice(r.pa(0), 12);
        assert_eq!(&out[0..6], &LOADGEN_MAC);
        assert_eq!(&out[6..12], &DUT_MAC);
    }

    #[test]
    fn rewrites_affect_reparse() {
        let mut m = machine();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        let mut buf = vec![0u8; 128];
        encode_frame(&mut buf, &flow(), 128, 0.0, 0);
        m.mem_mut().write(r.pa(0), &buf);
        rewrite_dst_ip(&mut m, 0, r.pa(0), 0x01020304);
        rewrite_src_port(&mut m, 0, r.pa(0), 9999);
        decrement_ttl(&mut m, 0, r.pa(0));
        let (hdr, _) = parse_header(&mut m, 0, r.pa(0), 128);
        let hdr = hdr.expect("well-formed frame parses");
        assert_eq!(hdr.flow.dst_ip, 0x01020304);
        assert_eq!(hdr.flow.src_port, 9999);
        assert_eq!(hdr.ttl, 63);
    }

    #[test]
    fn truncated_frames_parse_to_none() {
        let mut m = machine();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        let mut buf = vec![0u8; 128];
        let n = encode_frame(&mut buf, &flow(), 128, 0.0, 0);
        m.mem_mut().write(r.pa(0), &buf[..n]);
        // Every truncation point must be rejected, never panic: shorter
        // than the L2-L4 prefix, or long enough for the prefix but
        // shorter than the IP total length claims.
        for cut in 0..HDR_LEN + 8 {
            let (hdr, cycles) = parse_header(&mut m, 0, r.pa(0), cut);
            assert!(hdr.is_none(), "cut at {cut} must not parse");
            assert!(cycles >= PARSE_WORK, "rejection still costs cycles");
        }
        let (hdr, _) = parse_header(&mut m, 0, r.pa(0), 128);
        assert!(hdr.is_some());
    }

    #[test]
    fn malformed_headers_parse_to_none() {
        let mut m = machine();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        let mut buf = vec![0u8; 128];
        encode_frame(&mut buf, &flow(), 128, 0.0, 0);
        // Not IPv4 ethertype.
        let mut bad = buf.clone();
        bad[12] = 0x86;
        bad[13] = 0xdd;
        m.mem_mut().write(r.pa(0), &bad);
        assert!(parse_header(&mut m, 0, r.pa(0), 128).0.is_none());
        // IP options (IHL > 5).
        let mut bad = buf.clone();
        bad[14] = 0x46;
        m.mem_mut().write(r.pa(0), &bad);
        assert!(parse_header(&mut m, 0, r.pa(0), 128).0.is_none());
        // IP total length larger than the wire frame.
        let mut bad = buf.clone();
        bad[16..18].copy_from_slice(&1400u16.to_be_bytes());
        m.mem_mut().write(r.pa(0), &bad);
        assert!(parse_header(&mut m, 0, r.pa(0), 128).0.is_none());
        // IP total length too small for IPv4+TCP.
        let mut bad = buf.clone();
        bad[16..18].copy_from_slice(&20u16.to_be_bytes());
        m.mem_mut().write(r.pa(0), &bad);
        assert!(parse_header(&mut m, 0, r.pa(0), 128).0.is_none());
    }

    #[test]
    fn parse_cost_reflects_header_location() {
        let mut m = machine();
        let r = m.mem_mut().alloc(1 << 20, 1 << 20).unwrap();
        let pa = r.pa(0);
        let mut buf = vec![0u8; 64];
        encode_frame(&mut buf, &flow(), 64, 0.0, 0);
        // DDIO-delivered header: LLC hit at slice distance.
        m.dma_write(pa, &buf);
        let (_, cold) = parse_header(&mut m, 0, pa, 64);
        let slice = m.slice_of(pa);
        assert_eq!(cold, u64::from(m.llc_latency(0, slice)) + PARSE_WORK);
        // Re-parse: L1 hit.
        let (_, hot) = parse_header(&mut m, 0, pa, 64);
        assert_eq!(hot, 4 + PARSE_WORK);
    }

    #[test]
    #[should_panic(expected = "frame too small")]
    fn rejects_undersized_frames() {
        let mut buf = vec![0u8; 64];
        encode_frame(&mut buf, &flow(), 32, 0.0, 0);
    }
}
