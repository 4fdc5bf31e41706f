//! IPv4 router with optional NIC classification offload (§5.2).
//!
//! Metron offloads the routing-table lookup to the NIC: FlowDirector
//! rules attach the routing decision as a 32-bit *mark* to each packet,
//! and the software path only decrements TTL and records the next hop.
//! Without a mark (pure-software mode, or the first packet of a flow
//! before the rule is installed) the element does the DIR-24-8 lookup in
//! memory.

use crate::element::{Action, Ctx, DropCause, Element, Pkt};
use crate::lpm::Lpm;
use crate::packet::decrement_ttl;
use llc_sim::hierarchy::Cycles;
use std::sync::Arc;

/// Per-element counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouterStats {
    /// Packets routed via the NIC-provided mark.
    pub offloaded: u64,
    /// Packets that needed the software LPM lookup.
    pub software: u64,
    /// Packets with no route (dropped).
    pub no_route: u64,
    /// Packets whose headers failed to parse (dropped).
    pub malformed: u64,
}

/// The routing element.
pub struct Router {
    lpm: Arc<Lpm>,
    stats: RouterStats,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("routes", &self.lpm.routes())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Router {
    /// A router over a (shared, read-only) prebuilt LPM table.
    pub fn new(lpm: Arc<Lpm>) -> Self {
        Self {
            lpm,
            stats: RouterStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }
}

impl Element for Router {
    fn process(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Pkt) -> (Action, Cycles) {
        let mut cycles = 0;
        let next_hop = if let Some(mark) = pkt.mark {
            // HW offload: the NIC already classified this packet.
            self.stats.offloaded += 1;
            ctx.m.advance(ctx.core, MARK_CHECK_WORK);
            cycles += MARK_CHECK_WORK;
            Some(mark as u16)
        } else {
            let (flow, c) = pkt.flow(ctx);
            cycles += c;
            let Some(flow) = flow else {
                self.stats.malformed += 1;
                return (Action::Drop(DropCause::Parse), cycles);
            };
            let (hop, c) = self.lpm.lookup(ctx.m, ctx.core, flow.dst_ip);
            cycles += c;
            self.stats.software += 1;
            hop
        };
        match next_hop {
            None => {
                self.stats.no_route += 1;
                (Action::Drop(DropCause::NoRoute), cycles)
            }
            Some(_) => {
                cycles += decrement_ttl(ctx.m, ctx.core, pkt.data_pa);
                (Action::Forward, cycles)
            }
        }
    }

    fn name(&self) -> &'static str {
        "Router"
    }
}

/// Cycles to read and validate the descriptor mark.
pub(crate) const MARK_CHECK_WORK: Cycles = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpm::RouteEntry;
    use crate::packet::encode_frame;
    use llc_sim::machine::{Machine, MachineConfig};
    use trafficgen::FlowTuple;

    fn setup() -> (Machine, Router, llc_sim::mem::Region) {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(256 << 20));
        let lpm = Lpm::build(
            &mut m,
            &[RouteEntry {
                prefix: 0xc0a80000,
                len: 16,
                next_hop: 3,
            }],
        )
        .unwrap();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        (m, Router::new(Arc::new(lpm)), r)
    }

    fn write_frame(m: &mut Machine, r: llc_sim::mem::Region, dst_ip: u32) -> Pkt {
        let mut buf = vec![0u8; 64];
        encode_frame(&mut buf, &FlowTuple::tcp(1, 2, dst_ip, 80), 64, 0.0, 0);
        m.mem_mut().write(r.pa(0), &buf);
        Pkt {
            mbuf: 0,
            data_pa: r.pa(0),
            len: 64,
            mark: None,
            flow: None,
        }
    }

    #[test]
    fn software_path_routes_and_decrements_ttl() {
        let (mut m, mut router, r) = setup();
        let mut pkt = write_frame(&mut m, r, 0xc0a80505);
        let mut ctx = Ctx { m: &mut m, core: 0 };
        let (a, _) = router.process(&mut ctx, &mut pkt);
        assert_eq!(a, Action::Forward);
        assert_eq!(router.stats().software, 1);
        let (hdr, _) = crate::packet::parse_header(&mut m, 0, r.pa(0), 64);
        assert_eq!(hdr.expect("well-formed frame parses").ttl, 63);
    }

    #[test]
    fn marked_packet_skips_lookup() {
        let (mut m, mut router, r) = setup();
        let mut pkt = write_frame(&mut m, r, 0xc0a80505);
        pkt.mark = Some(9);
        let mut ctx = Ctx { m: &mut m, core: 0 };
        let (a, _) = router.process(&mut ctx, &mut pkt);
        assert_eq!(a, Action::Forward);
        assert_eq!(router.stats().offloaded, 1);
        assert_eq!(router.stats().software, 0);
    }

    #[test]
    fn no_route_drops() {
        let (mut m, mut router, r) = setup();
        let mut pkt = write_frame(&mut m, r, 0x08080808);
        let mut ctx = Ctx { m: &mut m, core: 0 };
        let (a, _) = router.process(&mut ctx, &mut pkt);
        assert_eq!(a, Action::Drop(DropCause::NoRoute));
        assert_eq!(router.stats().no_route, 1);
    }

    #[test]
    fn truncated_packet_drops_as_parse_failure() {
        let (mut m, mut router, r) = setup();
        let mut pkt = write_frame(&mut m, r, 0xc0a80505);
        pkt.len = 30; // Shorter than the L2-L4 prefix.
        let mut ctx = Ctx { m: &mut m, core: 0 };
        let (a, _) = router.process(&mut ctx, &mut pkt);
        assert_eq!(a, Action::Drop(DropCause::Parse));
        assert_eq!(router.stats().malformed, 1);
        assert_eq!(router.stats().no_route, 0);
    }

    #[test]
    fn offloaded_path_is_cheaper() {
        let (mut m, mut router, r) = setup();
        let mut soft = write_frame(&mut m, r, 0xc0a80101);
        let c_soft = {
            let mut ctx = Ctx { m: &mut m, core: 0 };
            router.process(&mut ctx, &mut soft).1
        };
        // Fresh machine state for a fair cold comparison is overkill here;
        // even warm, the marked path must be far cheaper than parse + LPM.
        let mut hard = write_frame(&mut m, r, 0xc0a80101);
        hard.mark = Some(3);
        let c_mark = {
            let mut ctx = Ctx { m: &mut m, core: 0 };
            router.process(&mut ctx, &mut hard).1
        };
        assert!(c_mark < c_soft, "offload {c_mark} vs software {c_soft}");
    }
}
