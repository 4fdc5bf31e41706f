//! Simple forwarding: swap source/destination MACs and send back (§5.1).

use crate::element::{Action, Ctx, Element, Pkt};
use crate::packet::mac_swap;
use llc_sim::hierarchy::Cycles;

/// "The simple forwarding application swaps the sending and receiving
/// MAC addresses of the incoming packets and sends them back" — the
/// stateless, minimal-processing baseline of Figs. 12 and 13.
#[derive(Debug, Default)]
pub(crate) struct MacSwap;

impl MacSwap {
    /// A fresh element.
    pub(crate) fn new() -> Self {
        Self
    }
}

impl Element for MacSwap {
    fn process(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Pkt) -> (Action, Cycles) {
        let c = mac_swap(ctx.m, ctx.core, pkt.data_pa);
        (Action::Forward, c)
    }

    fn name(&self) -> &'static str {
        "MacSwap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{encode_frame, DUT_MAC, LOADGEN_MAC};
    use llc_sim::machine::{Machine, MachineConfig};
    use trafficgen::FlowTuple;

    #[test]
    fn swaps_and_counts() {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(16 << 20));
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        let mut buf = vec![0u8; 64];
        encode_frame(&mut buf, &FlowTuple::tcp(1, 2, 3, 4), 64, 0.0, 0);
        m.mem_mut().write(r.pa(0), &buf);
        let mut e = MacSwap::new();
        let mut ctx = Ctx { m: &mut m, core: 0 };
        let mut pkt = Pkt {
            mbuf: 0,
            data_pa: r.pa(0),
            len: 64,
            mark: None,
            flow: None,
        };
        let (a, c) = e.process(&mut ctx, &mut pkt);
        assert_eq!(a, Action::Forward);
        assert!(c > 0);
        let out = m.mem().slice(r.pa(0), 12);
        assert_eq!(&out[0..6], &LOADGEN_MAC);
        assert_eq!(&out[6..12], &DUT_MAC);
    }
}
