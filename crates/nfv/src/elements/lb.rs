//! Flow-based round-robin load balancer (§5.2).
//!
//! "Load Balancer (LB) using a flow-based Round-Robin policy": the first
//! packet of a flow picks the next backend in rotation; subsequent
//! packets stick to it (per-flow state in simulated memory), and the
//! destination IP is rewritten to the chosen backend.

use crate::element::{Action, Ctx, DropCause, Element, Pkt};
use crate::packet::rewrite_dst_ip;
use crate::table::{FlowTable, TableError};
use llc_sim::hierarchy::Cycles;
use llc_sim::machine::Machine;

/// The load-balancer element.
#[derive(Debug)]
pub(crate) struct LoadBalancer {
    table: FlowTable,
    backends: Vec<u32>,
    next_rr: usize,
}

impl LoadBalancer {
    /// An LB over `backends` (IPv4 addresses) with a `buckets`-bucket
    /// state table.
    ///
    /// # Panics
    ///
    /// Panics when `backends` is empty.
    pub(crate) fn new(
        m: &mut Machine,
        buckets: usize,
        backends: Vec<u32>,
    ) -> Result<Self, llc_sim::mem::MemError> {
        assert!(!backends.is_empty(), "need at least one backend");
        Ok(Self {
            table: FlowTable::create(m, buckets)?,
            backends,
            next_rr: 0,
        })
    }
}

impl Element for LoadBalancer {
    fn process(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Pkt) -> (Action, Cycles) {
        let (flow, mut cycles) = pkt.flow(ctx);
        let Some(flow) = flow else {
            return (Action::Drop(DropCause::Parse), cycles);
        };
        let backends = &self.backends;
        let next_rr = &mut self.next_rr;
        let mut pick = || {
            let b = backends[*next_rr];
            *next_rr = (*next_rr + 1) % backends.len();
            u64::from(b)
        };
        match self
            .table
            .lookup_or_insert_with(ctx.m, ctx.core, &flow, &mut pick)
        {
            Ok((backend, _, c)) => {
                cycles += c;
                cycles += rewrite_dst_ip(ctx.m, ctx.core, pkt.data_pa, backend as u32);
                if let Some(f) = pkt.flow.as_mut() {
                    f.dst_ip = backend as u32;
                }
                (Action::Forward, cycles)
            }
            Err(TableError::Full) => (Action::Drop(DropCause::TableExhausted), cycles),
        }
    }

    fn name(&self) -> &'static str {
        "LoadBalancer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::encode_frame;
    use llc_sim::machine::MachineConfig;
    use trafficgen::FlowTuple;

    fn setup() -> (Machine, LoadBalancer, llc_sim::mem::Region) {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20));
        let lb = LoadBalancer::new(&mut m, 1024, vec![0x0a640001, 0x0a640002, 0x0a640003]).unwrap();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        (m, lb, r)
    }

    fn run_pkt(
        m: &mut Machine,
        lb: &mut LoadBalancer,
        r: llc_sim::mem::Region,
        f: &FlowTuple,
    ) -> u32 {
        let mut buf = vec![0u8; 64];
        encode_frame(&mut buf, f, 64, 0.0, 0);
        m.mem_mut().write(r.pa(0), &buf);
        let mut pkt = Pkt {
            mbuf: 0,
            data_pa: r.pa(0),
            len: 64,
            mark: None,
            flow: None,
        };
        let mut ctx = Ctx { m, core: 0 };
        let (a, _) = lb.process(&mut ctx, &mut pkt);
        assert_eq!(a, Action::Forward);
        pkt.flow.unwrap().dst_ip
    }

    #[test]
    fn round_robin_over_new_flows() {
        let (mut m, mut lb, r) = setup();
        let b1 = run_pkt(&mut m, &mut lb, r, &FlowTuple::tcp(1, 1, 99, 80));
        let b2 = run_pkt(&mut m, &mut lb, r, &FlowTuple::tcp(2, 2, 99, 80));
        let b3 = run_pkt(&mut m, &mut lb, r, &FlowTuple::tcp(3, 3, 99, 80));
        let b4 = run_pkt(&mut m, &mut lb, r, &FlowTuple::tcp(4, 4, 99, 80));
        assert_eq!(b1, 0x0a640001);
        assert_eq!(b2, 0x0a640002);
        assert_eq!(b3, 0x0a640003);
        assert_eq!(b4, 0x0a640001, "rotation wraps");
    }

    #[test]
    fn flows_stick_to_their_backend() {
        let (mut m, mut lb, r) = setup();
        let f = FlowTuple::tcp(7, 7, 99, 80);
        let b1 = run_pkt(&mut m, &mut lb, r, &f);
        let _ = run_pkt(&mut m, &mut lb, r, &FlowTuple::tcp(8, 8, 99, 80));
        let b2 = run_pkt(&mut m, &mut lb, r, &f);
        assert_eq!(b1, b2, "flow affinity");
        assert_eq!(lb.table.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn rejects_empty_backends() {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(16 << 20));
        let _ = LoadBalancer::new(&mut m, 64, vec![]);
    }
}
