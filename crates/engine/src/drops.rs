//! Shared NIC-side drop accounting.
//!
//! Every application on the engine used to grow its own copy of these
//! counters (`nfv::runtime::DropStats`, `kvs::server::ServerDrops`);
//! this is the common core they now embed. The engine fills one
//! [`NicDrops`] and one [`AdmitDrops`] per RX queue, inside the queue's
//! [`crate::QueueLedger`], which owns the conservation identity;
//! applications only add their software-level causes on top.

/// Per-cause NIC/driver drop counters for one queue (or the aggregate
/// over all queues).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicDrops {
    /// No posted descriptor (queue backlogged).
    pub(crate) nodesc: u64,
    /// No posted descriptor *because the mbuf pool was starved*
    /// (refills were failing when the frame arrived).
    pub pool_starved: u64,
    /// Packet-rate ceiling exceeded.
    pub(crate) overrun: u64,
    /// Hardware CRC failure (corrupt frame or runt).
    pub crc: u64,
    /// Link down at arrival.
    pub link_down: u64,
    /// RX engine stalled.
    pub rx_stall: u64,
    /// Completion ring backed up while descriptors were still posted
    /// (ready-ring overrun under backpressure).
    pub ready_overrun: u64,
    /// Fully processed frames lost because the TX descriptor path was
    /// wedged when the PMD tried to transmit them.
    pub tx_stall: u64,
}

impl NicDrops {
    /// Sum over every cause.
    pub fn total(&self) -> u64 {
        self.nodesc
            + self.pool_starved
            + self.overrun
            + self.crc
            + self.link_down
            + self.rx_stall
            + self.ready_overrun
            + self.tx_stall
    }

    /// Adds `other` into `self`, counter by counter.
    pub(crate) fn merge(&mut self, other: &NicDrops) {
        self.nodesc += other.nodesc;
        self.pool_starved += other.pool_starved;
        self.overrun += other.overrun;
        self.crc += other.crc;
        self.link_down += other.link_down;
        self.rx_stall += other.rx_stall;
        self.ready_overrun += other.ready_overrun;
        self.tx_stall += other.tx_stall;
    }
}

/// Per-cause admission-control rejections for one queue (or the
/// aggregate): frames the ingress filter shed *before* they consumed a
/// descriptor, split by the [`crate::AdmissionPolicy`] rule that fired.
/// Sits beside [`NicDrops`] in the conservation invariant:
/// `offered + carried == delivered + nic.total() + admit.total() +
/// app_drops + in_flight`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmitDrops {
    /// Shed because the queue's ready backlog was at or above the
    /// policy's threshold.
    pub depth_shed: u64,
    /// Shed because the frame's deadline was already infeasible given
    /// the backlog ahead of it.
    pub deadline_shed: u64,
}

impl AdmitDrops {
    /// Sum over every cause.
    pub fn total(&self) -> u64 {
        self.depth_shed + self.deadline_shed
    }

    /// Adds `other` into `self`, counter by counter.
    pub(crate) fn merge(&mut self, other: &AdmitDrops) {
        self.depth_shed += other.depth_shed;
        self.deadline_shed += other.deadline_shed;
    }
}

impl std::fmt::Display for AdmitDrops {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "depth_shed={} deadline_shed={}",
            self.depth_shed, self.deadline_shed
        )
    }
}

impl std::fmt::Display for NicDrops {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nodesc={} pool_starved={} overrun={} crc={} link_down={} rx_stall={} \
             ready_overrun={} tx_stall={}",
            self.nodesc,
            self.pool_starved,
            self.overrun,
            self.crc,
            self.link_down,
            self.rx_stall,
            self.ready_overrun,
            self.tx_stall
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_every_field() {
        let d = NicDrops {
            nodesc: 1,
            pool_starved: 2,
            overrun: 3,
            crc: 4,
            link_down: 5,
            rx_stall: 6,
            ready_overrun: 7,
            tx_stall: 8,
        };
        assert_eq!(d.total(), 36);
    }

    #[test]
    fn sum_is_elementwise() {
        let a = NicDrops {
            crc: 2,
            tx_stall: 1,
            ..NicDrops::default()
        };
        let b = NicDrops {
            crc: 3,
            nodesc: 4,
            ..NicDrops::default()
        };
        let mut s = a;
        s.merge(&b);
        assert_eq!(s.crc, 5);
        assert_eq!(s.nodesc, 4);
        assert_eq!(s.tx_stall, 1);
        assert_eq!(s.total(), a.total() + b.total());
    }

    #[test]
    fn admit_total_and_sum() {
        let a = AdmitDrops {
            depth_shed: 3,
            deadline_shed: 2,
        };
        let b = AdmitDrops {
            depth_shed: 1,
            deadline_shed: 0,
        };
        assert_eq!(a.total(), 5);
        let mut s = a;
        s.merge(&b);
        assert_eq!(s.depth_shed, 4);
        assert_eq!(s.deadline_shed, 2);
        let disp = s.to_string();
        assert!(disp.contains("depth_shed") && disp.contains("deadline_shed"));
    }

    #[test]
    fn display_names_every_cause() {
        let s = NicDrops::default().to_string();
        for name in [
            "nodesc",
            "pool_starved",
            "overrun",
            "crc",
            "link_down",
            "rx_stall",
            "ready_overrun",
            "tx_stall",
        ] {
            assert!(s.contains(name), "{name} missing from {s}");
        }
    }
}
