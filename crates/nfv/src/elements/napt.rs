//! Network Address Port Translation (§5.2).
//!
//! Classic source NAPT: each new flow gets a translated source port from
//! a pool; packets of known flows are rewritten from the flow table. The
//! per-flow state lives in a [`FlowTable`] in simulated memory, which is
//! what makes the stateful chain "more memory-intensive compared to the
//! simple forwarding application" (§5.2.1).

use crate::element::{Action, Ctx, DropCause, Element, Pkt};
use crate::packet::rewrite_src_port;
use crate::table::{FlowTable, TableError};
use llc_sim::hierarchy::Cycles;
use llc_sim::machine::Machine;

/// NAPT counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaptStats {
    /// Flows translated for the first time.
    pub new_flows: u64,
    /// Packets rewritten from existing state.
    pub hits: u64,
    /// Packets dropped because the table or port pool was exhausted.
    pub exhausted: u64,
    /// Packets whose headers failed to parse (dropped).
    pub malformed: u64,
}

/// The NAPT element.
#[derive(Debug)]
pub struct Napt {
    table: FlowTable,
    next_port: u16,
    stats: NaptStats,
}

impl Napt {
    /// A NAPT with a `buckets`-bucket translation table.
    pub fn new(m: &mut Machine, buckets: usize) -> Result<Self, llc_sim::mem::MemError> {
        Ok(Self {
            table: FlowTable::create(m, buckets)?,
            next_port: 10_000,
            stats: NaptStats::default(),
        })
    }

    /// Counters.
    pub fn stats(&self) -> NaptStats {
        self.stats
    }
}

impl Element for Napt {
    fn process(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Pkt) -> (Action, Cycles) {
        let (flow, mut cycles) = pkt.flow(ctx);
        let Some(flow) = flow else {
            self.stats.malformed += 1;
            return (Action::Drop(DropCause::Parse), cycles);
        };
        let next_port = &mut self.next_port;
        let mut fresh_port = || {
            let p = *next_port;
            *next_port = next_port.wrapping_add(1).max(10_000);
            u64::from(p)
        };
        match self
            .table
            .lookup_or_insert_with(ctx.m, ctx.core, &flow, &mut fresh_port)
        {
            Ok((port, fresh, c)) => {
                cycles += c;
                if fresh {
                    self.stats.new_flows += 1;
                } else {
                    self.stats.hits += 1;
                }
                cycles += rewrite_src_port(ctx.m, ctx.core, pkt.data_pa, port as u16);
                // Keep the cached flow consistent with the rewrite.
                if let Some(f) = pkt.flow.as_mut() {
                    f.src_port = port as u16;
                }
                (Action::Forward, cycles)
            }
            Err(TableError::Full) => {
                self.stats.exhausted += 1;
                (Action::Drop(DropCause::TableExhausted), cycles)
            }
        }
    }

    fn name(&self) -> &'static str {
        "NAPT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::encode_frame;
    use llc_sim::machine::MachineConfig;
    use trafficgen::FlowTuple;

    fn setup() -> (Machine, Napt, llc_sim::mem::Region) {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20));
        let napt = Napt::new(&mut m, 1024).unwrap();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        (m, napt, r)
    }

    fn pkt_for(m: &mut Machine, r: llc_sim::mem::Region, flow: &FlowTuple) -> Pkt {
        let mut buf = vec![0u8; 64];
        encode_frame(&mut buf, flow, 64, 0.0, 0);
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
    fn same_flow_keeps_translation() {
        let (mut m, mut napt, r) = setup();
        let flow = FlowTuple::tcp(0x0a000001, 5555, 0xc0a80001, 80);
        let mut first = pkt_for(&mut m, r, &flow);
        let port1 = {
            let mut ctx = Ctx { m: &mut m, core: 0 };
            napt.process(&mut ctx, &mut first);
            first.flow.unwrap().src_port
        };
        let mut second = pkt_for(&mut m, r, &flow);
        let port2 = {
            let mut ctx = Ctx { m: &mut m, core: 0 };
            napt.process(&mut ctx, &mut second);
            second.flow.unwrap().src_port
        };
        assert_eq!(port1, port2, "one flow, one translation");
        assert_eq!(napt.stats().new_flows, 1);
        assert_eq!(napt.stats().hits, 1);
    }

    #[test]
    fn different_flows_get_different_ports() {
        let (mut m, mut napt, r) = setup();
        let mut ports = std::collections::HashSet::new();
        for i in 0..50u32 {
            let flow = FlowTuple::tcp(0x0a000000 + i, 1000, 0xc0a80001, 80);
            let mut p = pkt_for(&mut m, r, &flow);
            let mut ctx = Ctx { m: &mut m, core: 0 };
            napt.process(&mut ctx, &mut p);
            ports.insert(p.flow.unwrap().src_port);
        }
        assert_eq!(ports.len(), 50);
        assert_eq!(napt.table.len(), 50);
    }

    #[test]
    fn rewrite_lands_in_packet_bytes() {
        let (mut m, mut napt, r) = setup();
        let flow = FlowTuple::tcp(0x0a000001, 7777, 0xc0a80001, 80);
        let mut p = pkt_for(&mut m, r, &flow);
        {
            let mut ctx = Ctx { m: &mut m, core: 0 };
            napt.process(&mut ctx, &mut p);
        }
        let (hdr, _) = crate::packet::parse_header(&mut m, 0, r.pa(0), 64);
        let hdr = hdr.expect("well-formed frame parses");
        assert_eq!(hdr.flow.src_port, 10_000, "first pooled port");
        assert_ne!(hdr.flow.src_port, 7777);
    }

    #[test]
    fn malformed_packet_drops_without_state() {
        let (mut m, mut napt, r) = setup();
        m.mem_mut().write(r.pa(0), &[0x5au8; 64]);
        let mut p = Pkt {
            mbuf: 0,
            data_pa: r.pa(0),
            len: 20,
            mark: None,
            flow: None,
        };
        let mut ctx = Ctx { m: &mut m, core: 0 };
        let (a, _) = napt.process(&mut ctx, &mut p);
        assert_eq!(a, Action::Drop(DropCause::Parse));
        assert_eq!(napt.stats().malformed, 1);
        assert_eq!(napt.table.len(), 0, "no translation state for garbage");
    }
}
