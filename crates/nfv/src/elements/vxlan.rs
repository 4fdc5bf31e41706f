//! VXLAN decapsulation (§4.2's example of an NF that hits a *different*
//! 64 B window of the packet).
//!
//! A VXLAN frame nests a full inner Ethernet frame behind outer
//! Ethernet/IPv4/UDP/VXLAN headers, so the *inner* header — the part a
//! decapsulating NF actually parses — starts 50 B into the packet and
//! straddles the second cache line. "CacheDirector can be configured to
//! map any other 64 B portion of the packet to the appropriate LLC
//! slice": pairing this element with `CacheDirector::install(..,
//! window_offset = 64)` places that second line.

use crate::element::{Action, Ctx, DropCause, Element, Pkt};
use llc_sim::hierarchy::Cycles;
use trafficgen::FlowTuple;

/// Outer Ethernet(14) + IPv4(20) + UDP(8) + VXLAN(8).
pub const VXLAN_OVERHEAD: usize = 50;
/// The standard VXLAN UDP port.
pub(crate) const VXLAN_PORT: u16 = 4789;
/// Work to validate the VXLAN header and shift the packet view.
pub(crate) const DECAP_WORK: Cycles = 25;

/// Wraps a frame in a VXLAN envelope (LoadGen-side helper, untimed).
///
/// Returns the encapsulated frame: outer headers + `inner` verbatim.
pub fn encapsulate(outer_flow: &FlowTuple, vni: u32, inner: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; VXLAN_OVERHEAD + inner.len()];
    // Outer Ethernet.
    out[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
    // Outer IPv4.
    out[14] = 0x45;
    out[22] = 64;
    out[23] = 17; // UDP.
    out[26..30].copy_from_slice(&outer_flow.src_ip.to_be_bytes());
    out[30..34].copy_from_slice(&outer_flow.dst_ip.to_be_bytes());
    // Outer UDP.
    out[34..36].copy_from_slice(&outer_flow.src_port.to_be_bytes());
    out[36..38].copy_from_slice(&VXLAN_PORT.to_be_bytes());
    // VXLAN: flags (I bit) + reserved + VNI + reserved.
    out[42] = 0x08;
    out[46..49].copy_from_slice(&vni.to_be_bytes()[1..4]);
    out[VXLAN_OVERHEAD..].copy_from_slice(inner);
    out
}

/// Per-element counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct VxlanStats {
    /// Valid VXLAN frames decapsulated.
    pub decapped: u64,
    /// Frames that were not VXLAN (dropped by this element).
    pub not_vxlan: u64,
    /// VXLAN frames too short to carry an inner frame (dropped).
    pub truncated: u64,
}

/// The decapsulation element: validates the envelope and advances the
/// packet view to the inner frame.
#[derive(Debug, Default)]
pub struct VxlanDecap {
    stats: VxlanStats,
}

impl VxlanDecap {
    /// A fresh element.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters.
    pub fn stats(&self) -> VxlanStats {
        self.stats
    }
}

impl Element for VxlanDecap {
    fn process(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Pkt) -> (Action, Cycles) {
        // Read the outer UDP destination port + the VXLAN header: bytes
        // 36..50, all within the first cache line. Never read past the
        // frame: a truncated envelope yields zeroed (non-matching) bytes.
        let mut head = [0u8; VXLAN_OVERHEAD];
        let readable = usize::from(pkt.len).min(VXLAN_OVERHEAD);
        let mut cycles = ctx
            .m
            .read_bytes(ctx.core, pkt.data_pa, &mut head[..readable]);
        ctx.m.advance(ctx.core, DECAP_WORK);
        cycles += DECAP_WORK;
        if usize::from(pkt.len) < VXLAN_OVERHEAD {
            self.stats.truncated += 1;
            return (Action::Drop(DropCause::Parse), cycles);
        }
        let dst_port = u16::from_be_bytes([head[36], head[37]]);
        let is_vxlan = head[23] == 17 && dst_port == VXLAN_PORT && head[42] & 0x08 != 0;
        if !is_vxlan {
            self.stats.not_vxlan += 1;
            return (Action::Drop(DropCause::Policy), cycles);
        }
        if usize::from(pkt.len) < VXLAN_OVERHEAD + crate::packet::HDR_LEN {
            // The envelope is valid but the inner frame is cut short.
            self.stats.truncated += 1;
            return (Action::Drop(DropCause::Parse), cycles);
        }
        // Decap: shift the packet view to the inner frame. The inner
        // header read (by whatever follows) now lands in the second
        // physical line — the window CacheDirector can be told to place.
        pkt.data_pa = pkt.data_pa.add(VXLAN_OVERHEAD as u64);
        pkt.len -= VXLAN_OVERHEAD as u16;
        pkt.flow = None; // The cached (outer) flow no longer applies.
        self.stats.decapped += 1;
        (Action::Forward, cycles)
    }

    fn name(&self) -> &'static str {
        "VxlanDecap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::encode_frame;
    use llc_sim::machine::{Machine, MachineConfig};

    fn setup() -> (Machine, llc_sim::mem::Region) {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(16 << 20));
        let r = m.mem_mut().alloc(8192, 4096).unwrap();
        (m, r)
    }

    fn inner_frame(flow: &FlowTuple) -> Vec<u8> {
        let mut buf = vec![0u8; 128];
        encode_frame(&mut buf, flow, 128, 0.0, 1);
        buf
    }

    #[test]
    fn decap_reveals_inner_flow() {
        let (mut m, r) = setup();
        let outer = FlowTuple::udp(0x0a000001, 11111, 0x0a000002, VXLAN_PORT);
        let inner_flow = FlowTuple::tcp(0xc0a80001, 80, 0xc0a80002, 443);
        let frame = encapsulate(&outer, 42, &inner_frame(&inner_flow));
        m.mem_mut().write(r.pa(0), &frame);
        let mut e = VxlanDecap::new();
        let mut pkt = Pkt {
            mbuf: 0,
            data_pa: r.pa(0),
            len: frame.len() as u16,
            mark: None,
            flow: None,
        };
        let mut ctx = Ctx { m: &mut m, core: 0 };
        let (a, _) = e.process(&mut ctx, &mut pkt);
        assert_eq!(a, Action::Forward);
        assert_eq!(e.stats().decapped, 1);
        // The packet view now parses as the inner frame.
        let (flow, _) = pkt.flow(&mut Ctx { m: &mut m, core: 0 });
        assert_eq!(flow, Some(inner_flow));
        assert_eq!(pkt.len as usize, 128);
    }

    #[test]
    fn non_vxlan_is_dropped() {
        let (mut m, r) = setup();
        let flow = FlowTuple::tcp(1, 2, 3, 4);
        let mut buf = vec![0u8; 128];
        encode_frame(&mut buf, &flow, 128, 0.0, 0);
        m.mem_mut().write(r.pa(0), &buf);
        let mut e = VxlanDecap::new();
        let mut pkt = Pkt {
            mbuf: 0,
            data_pa: r.pa(0),
            len: 128,
            mark: None,
            flow: None,
        };
        let mut ctx = Ctx { m: &mut m, core: 0 };
        let (a, _) = e.process(&mut ctx, &mut pkt);
        assert_eq!(a, Action::Drop(DropCause::Policy));
        assert_eq!(e.stats().not_vxlan, 1);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // A layout invariant, kept visible.
    fn inner_header_sits_in_second_line() {
        // The point of the configurable window: after a 50 B envelope,
        // the inner header (bytes 50..104) straddles into the second
        // cache line of the buffer.
        assert!(VXLAN_OVERHEAD + crate::packet::HDR_LEN > 64);
    }

    #[test]
    fn truncated_vxlan_dropped() {
        let (mut m, r) = setup();
        let outer = FlowTuple::udp(1, 1, 2, VXLAN_PORT);
        let frame = encapsulate(&outer, 7, &[0u8; 8]); // Inner too short.
        m.mem_mut().write(r.pa(0), &frame);
        let mut e = VxlanDecap::new();
        let mut pkt = Pkt {
            mbuf: 0,
            data_pa: r.pa(0),
            len: frame.len() as u16,
            mark: None,
            flow: None,
        };
        let mut ctx = Ctx { m: &mut m, core: 0 };
        let (a, _) = e.process(&mut ctx, &mut pkt);
        assert_eq!(a, Action::Drop(DropCause::Parse));
        assert_eq!(e.stats().truncated, 1);
    }

    #[test]
    fn envelope_shorter_than_vxlan_header_never_reads_past_frame() {
        // A frame cut inside the outer headers: the element must reject
        // it without touching bytes beyond `len`.
        let (mut m, r) = setup();
        let outer = FlowTuple::udp(1, 1, 2, VXLAN_PORT);
        let frame = encapsulate(&outer, 7, &[0u8; 128]);
        m.mem_mut().write(r.pa(0), &frame);
        for cut in [0usize, 10, 36, 42, 49] {
            let mut e = VxlanDecap::new();
            let mut pkt = Pkt {
                mbuf: 0,
                data_pa: r.pa(0),
                len: cut as u16,
                mark: None,
                flow: None,
            };
            let mut ctx = Ctx { m: &mut m, core: 0 };
            let (a, _) = e.process(&mut ctx, &mut pkt);
            assert_eq!(a, Action::Drop(DropCause::Parse), "cut at {cut}");
            assert_eq!(e.stats().truncated, 1);
        }
    }
}
