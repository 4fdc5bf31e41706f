//! Deep packet inspection (§4.2's other different-window application).
//!
//! A signature scanner that walks the payload line by line. Unlike the
//! header-only NFs, its cost grows with packet size and it touches every
//! line once — the workload where DDIO's whole-packet placement matters
//! and a single placed window matters least, which is why the paper
//! calls DPI out as wanting a *configurable* window rather than the
//! header default.

use crate::element::{Action, Ctx, DropCause, Element, Pkt};
use llc_sim::hierarchy::Cycles;
use llc_sim::CACHE_LINE;

/// Per-byte scan work (a DFA step).
pub(crate) const SCAN_WORK_PER_LINE: Cycles = 18;

/// What to do with packets whose payload matches a signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchAction {
    /// Drop matching packets (IPS mode).
    Drop,
    /// Count and forward (IDS mode).
    Alert,
}

/// Per-element counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpiStats {
    /// Packets scanned.
    pub scanned: u64,
    /// Signature hits.
    pub matches: u64,
}

/// A byte-signature scanner.
#[derive(Debug)]
pub struct Dpi {
    signature: Vec<u8>,
    action: MatchAction,
    stats: DpiStats,
}

impl Dpi {
    /// A scanner for `signature` applying `action` on match.
    ///
    /// # Panics
    ///
    /// Panics on an empty signature.
    pub fn new(signature: Vec<u8>, action: MatchAction) -> Self {
        assert!(!signature.is_empty(), "empty signature");
        Self {
            signature,
            action,
            stats: DpiStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> DpiStats {
        self.stats
    }
}

impl Element for Dpi {
    fn process(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Pkt) -> (Action, Cycles) {
        self.stats.scanned += 1;
        // Read the whole packet line by line (the payload scan), paying
        // per-line memory latency plus DFA work.
        let mut cycles = 0;
        let mut payload = vec![0u8; pkt.len as usize];
        let mut off = 0;
        while off < pkt.len as usize {
            let take = CACHE_LINE.min(pkt.len as usize - off);
            cycles += ctx.m.read_bytes(
                ctx.core,
                pkt.data_pa.add(off as u64),
                &mut payload[off..off + take],
            );
            ctx.m.advance(ctx.core, SCAN_WORK_PER_LINE);
            cycles += SCAN_WORK_PER_LINE;
            off += take;
        }
        let hit = payload
            .windows(self.signature.len())
            .any(|w| w == self.signature);
        if hit {
            self.stats.matches += 1;
            if self.action == MatchAction::Drop {
                return (Action::Drop(DropCause::Policy), cycles);
            }
        }
        (Action::Forward, cycles)
    }

    fn name(&self) -> &'static str {
        "DPI"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::encode_frame;
    use llc_sim::machine::{Machine, MachineConfig};
    use trafficgen::FlowTuple;

    fn setup() -> (Machine, llc_sim::mem::Region) {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(16 << 20));
        let r = m.mem_mut().alloc(8192, 4096).unwrap();
        (m, r)
    }

    fn pkt_with_payload(m: &mut Machine, r: llc_sim::mem::Region, payload: &[u8]) -> Pkt {
        let size = 64 + payload.len();
        let mut buf = vec![0u8; size];
        encode_frame(&mut buf, &FlowTuple::tcp(1, 2, 3, 4), size, 0.0, 0);
        buf[64..].copy_from_slice(payload);
        m.mem_mut().write(r.pa(0), &buf);
        Pkt {
            mbuf: 0,
            data_pa: r.pa(0),
            len: size as u16,
            mark: None,
            flow: None,
        }
    }

    #[test]
    fn ips_drops_matching_packets() {
        let (mut m, r) = setup();
        let mut dpi = Dpi::new(b"EVIL".to_vec(), MatchAction::Drop);
        let mut payload = vec![0u8; 300];
        payload[200..204].copy_from_slice(b"EVIL");
        let mut pkt = pkt_with_payload(&mut m, r, &payload);
        let mut ctx = Ctx { m: &mut m, core: 0 };
        let (a, _) = dpi.process(&mut ctx, &mut pkt);
        assert_eq!(a, Action::Drop(DropCause::Policy));
        assert_eq!(dpi.stats().matches, 1);
    }

    #[test]
    fn ids_alerts_but_forwards() {
        let (mut m, r) = setup();
        let mut dpi = Dpi::new(b"EVIL".to_vec(), MatchAction::Alert);
        let mut payload = vec![0u8; 100];
        payload[10..14].copy_from_slice(b"EVIL");
        let mut pkt = pkt_with_payload(&mut m, r, &payload);
        let mut ctx = Ctx { m: &mut m, core: 0 };
        let (a, _) = dpi.process(&mut ctx, &mut pkt);
        assert_eq!(a, Action::Forward);
        assert_eq!(dpi.stats().matches, 1);
    }

    #[test]
    fn clean_packets_forward() {
        let (mut m, r) = setup();
        let mut dpi = Dpi::new(b"EVIL".to_vec(), MatchAction::Drop);
        let mut pkt = pkt_with_payload(&mut m, r, &[0x55; 256]);
        let mut ctx = Ctx { m: &mut m, core: 0 };
        let (a, _) = dpi.process(&mut ctx, &mut pkt);
        assert_eq!(a, Action::Forward);
        assert_eq!(dpi.stats().matches, 0);
        assert_eq!(dpi.stats().scanned, 1);
    }

    #[test]
    fn signature_straddling_lines_is_found() {
        let (mut m, r) = setup();
        let mut dpi = Dpi::new(b"SPLIT".to_vec(), MatchAction::Alert);
        let mut payload = vec![0u8; 200];
        // Place the signature across the 64 B boundary at payload[62].
        payload[60..65].copy_from_slice(b"SPLIT");
        let mut pkt = pkt_with_payload(&mut m, r, &payload);
        let mut ctx = Ctx { m: &mut m, core: 0 };
        dpi.process(&mut ctx, &mut pkt);
        assert_eq!(dpi.stats().matches, 1);
    }

    #[test]
    fn scan_cost_grows_with_packet_size() {
        let (mut m, r) = setup();
        let mut dpi = Dpi::new(b"X".to_vec(), MatchAction::Alert);
        let mut small = pkt_with_payload(&mut m, r, &[0; 64]);
        let c_small = {
            let mut ctx = Ctx { m: &mut m, core: 0 };
            dpi.process(&mut ctx, &mut small).1
        };
        let mut large = pkt_with_payload(&mut m, r, &[0; 1024]);
        let c_large = {
            let mut ctx = Ctx { m: &mut m, core: 0 };
            dpi.process(&mut ctx, &mut large).1
        };
        assert!(c_large > c_small * 3, "{c_large} vs {c_small}");
    }
}
