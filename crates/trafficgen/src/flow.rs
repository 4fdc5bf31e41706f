//! Flow identity: the classic 5-tuple.

/// An IPv4 5-tuple identifying one transport flow.
///
/// Both steering functions in the `rte` crate (RSS and FlowDirector) and
/// the stateful network functions (NAPT, load balancer) key their state on
/// this type (paper §4, §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowTuple {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// IP protocol number (6 = TCP, 17 = UDP).
    pub proto: u8,
}

impl FlowTuple {
    /// TCP flow tuple.
    pub fn tcp(src_ip: u32, src_port: u16, dst_ip: u32, dst_port: u16) -> Self {
        Self {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto: 6,
        }
    }

    /// UDP flow tuple.
    pub fn udp(src_ip: u32, src_port: u16, dst_ip: u32, dst_port: u16) -> Self {
        Self {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto: 17,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_proto() {
        assert_eq!(FlowTuple::tcp(1, 2, 3, 4).proto, 6);
        assert_eq!(FlowTuple::udp(1, 2, 3, 4).proto, 17);
    }
}
