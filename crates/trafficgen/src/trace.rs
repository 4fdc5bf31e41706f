//! A synthetic campus trace with the paper's published size mix.
//!
//! §5 describes the real trace used by the evaluation only through its
//! frame-size distribution: *"26.9 % of frames are smaller than 100 B;
//! 11.8 % are between 100 & 500 B; and the remaining frames are more than
//! 500 B"*. [`CampusTrace`] synthesises a deterministic packet stream with
//! exactly that mix, over a Zipf-popular flow population (campus traffic
//! is heavy-hitter dominated), so the RSS/FlowDirector balance and DDIO
//! footprint behave like the original.

use crate::flow::FlowTuple;
use crate::rng::Rng64;
use crate::zipf::ZipfGen;

/// Default Zipf skew of the flow-popularity distribution (calibrated so
/// the NFV experiments sit at the paper's operating point; see
/// EXPERIMENTS.md).
pub const DEFAULT_FLOW_SKEW: f64 = 0.8;

/// One generated packet: its flow, wire size, and payload tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketSpec {
    /// Transport 5-tuple.
    pub flow: FlowTuple,
    /// Ethernet frame size in bytes (without FCS), 64..=1500.
    pub size: u16,
    /// Sequence number, also used as a payload tag.
    pub seq: u64,
}

/// Frame-size mix in three classes matching the paper's description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeMix {
    /// Fraction of frames in `[64, 100)` B.
    pub(crate) small: f64,
    /// Fraction in `[100, 500)` B.
    pub(crate) medium: f64,
    // Remainder is `[500, 1500]` B.
}

impl SizeMix {
    /// The paper's campus trace: 26.9 % small, 11.8 % medium.
    pub fn campus() -> Self {
        Self {
            small: 0.269,
            medium: 0.118,
        }
    }

    /// All frames of one fixed size (Table 2's 64/512/1024/1500 B runs are
    /// generated with [`CampusTrace::fixed_size`] instead, but a degenerate
    /// mix is handy in tests).
    pub(crate) fn validate(&self) {
        assert!(
            self.small >= 0.0 && self.medium >= 0.0 && self.small + self.medium <= 1.0,
            "size fractions must form a sub-distribution"
        );
    }
}

/// Deterministic synthetic campus trace generator.
#[derive(Debug)]
pub struct CampusTrace {
    mix: Option<SizeMix>,
    fixed: u16,
    flows: Vec<FlowTuple>,
    flow_pop: ZipfGen,
    rng: Rng64,
    seq: u64,
}

impl CampusTrace {
    /// A mixed-size trace over `flow_count` flows (paper §5 uses the
    /// campus mix at 100 Gbps; the NAPT/LB state tables are exercised by
    /// the flow population).
    ///
    /// # Panics
    ///
    /// Panics when `flow_count == 0` or the mix is not a sub-distribution.
    pub fn new(mix: SizeMix, flow_count: usize, seed: u64) -> Self {
        mix.validate();
        assert!(flow_count > 0, "need at least one flow");
        Self {
            mix: Some(mix),
            fixed: 0,
            flows: build_flows(flow_count, seed),
            // Flow popularity is skewed: a few heavy hitters dominate.
            flow_pop: ZipfGen::new(flow_count as u64, DEFAULT_FLOW_SKEW, seed ^ 0x1111),
            rng: Rng64::seed_from_u64(seed ^ 0x2222),
            seq: 0,
        }
    }

    /// Adjusts the flow-popularity skew (`theta` of the Zipf over flows;
    /// 0 = all flows equally likely). Preserves determinism.
    pub fn with_flow_skew(mut self, theta: f64, seed: u64) -> Self {
        self.flow_pop = ZipfGen::new(self.flows.len() as u64, theta, seed ^ 0x1111);
        self
    }

    /// A fixed-size trace (Table 2's 64/512/1024/1500 B runs).
    ///
    /// # Panics
    ///
    /// Panics when `size` is outside `[64, 1500]` or `flow_count == 0`.
    pub fn fixed_size(size: u16, flow_count: usize, seed: u64) -> Self {
        assert!((64..=1500).contains(&size), "frame size out of range");
        assert!(flow_count > 0, "need at least one flow");
        Self {
            mix: None,
            fixed: size,
            flows: build_flows(flow_count, seed),
            flow_pop: ZipfGen::new(flow_count as u64, DEFAULT_FLOW_SKEW, seed ^ 0x1111),
            rng: Rng64::seed_from_u64(seed ^ 0x2222),
            seq: 0,
        }
    }

    /// Generates the next packet.
    pub fn next_packet(&mut self) -> PacketSpec {
        let flow = self.flows[self.flow_pop.next_rank() as usize];
        let size = match self.mix {
            None => self.fixed,
            Some(mix) => {
                let u: f64 = self.rng.gen_f64();
                if u < mix.small {
                    self.rng.gen_range(64u16..100)
                } else if u < mix.small + mix.medium {
                    self.rng.gen_range(100u16..500)
                } else {
                    self.rng.gen_range(500u16..=1500)
                }
            }
        };
        let seq = self.seq;
        self.seq += 1;
        PacketSpec { flow, size, seq }
    }

    /// Generates `n` packets.
    pub fn take(&mut self, n: usize) -> Vec<PacketSpec> {
        (0..n).map(|_| self.next_packet()).collect()
    }
}

/// Builds a deterministic flow population: clients in 10.0.0.0/8 talking
/// to servers in 192.168.0.0/16 on common ports.
fn build_flows(count: usize, seed: u64) -> Vec<FlowTuple> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    let mut seen = std::collections::HashSet::with_capacity(count);
    while out.len() < count {
        let f = FlowTuple::tcp(
            0x0a00_0000 | rng.gen_range(1u32..=0x00ff_fffe),
            rng.gen_range(1024u16..=65535),
            0xc0a8_0000 | rng.gen_range(1u32..=0xfffe),
            *[80u16, 443, 8080, 53, 5060]
                .get(rng.gen_range(0usize..5))
                .expect("index in range"),
        );
        if seen.insert(f) {
            out.push(f);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_mix_matches_paper_fractions() {
        let mut t = CampusTrace::new(SizeMix::campus(), 1000, 1);
        let n = 100_000;
        let pkts = t.take(n);
        let small = pkts.iter().filter(|p| p.size < 100).count() as f64 / n as f64;
        let medium = pkts.iter().filter(|p| (100..500).contains(&p.size)).count() as f64 / n as f64;
        let large = pkts.iter().filter(|p| p.size >= 500).count() as f64 / n as f64;
        assert!((small - 0.269).abs() < 0.01, "small fraction {small}");
        assert!((medium - 0.118).abs() < 0.01, "medium fraction {medium}");
        assert!((large - 0.613).abs() < 0.01, "large fraction {large}");
    }

    #[test]
    fn sizes_in_valid_ethernet_range() {
        let mut t = CampusTrace::new(SizeMix::campus(), 10, 2);
        for p in t.take(10_000) {
            assert!((64..=1500).contains(&p.size));
        }
    }

    #[test]
    fn fixed_size_trace() {
        let mut t = CampusTrace::fixed_size(64, 16, 3);
        assert!(t.take(1000).iter().all(|p| p.size == 64));
    }

    #[test]
    fn sequence_numbers_are_consecutive() {
        let mut t = CampusTrace::fixed_size(128, 4, 4);
        let pkts = t.take(100);
        for (i, p) in pkts.iter().enumerate() {
            assert_eq!(p.seq, i as u64);
        }
    }

    #[test]
    fn flows_are_heavy_hitter_dominated() {
        let mut t = CampusTrace::new(SizeMix::campus(), 10_000, 5);
        let pkts = t.take(50_000);
        let mut counts = std::collections::HashMap::new();
        for p in &pkts {
            *counts.entry(p.flow).or_insert(0usize) += 1;
        }
        let mut by_count: Vec<usize> = counts.values().copied().collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = by_count.iter().take(10).sum();
        assert!(
            top10 as f64 / pkts.len() as f64 > 0.10,
            "top-10 flows should dominate a campus-like trace"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = CampusTrace::new(SizeMix::campus(), 100, 9).take(50);
        let b = CampusTrace::new(SizeMix::campus(), 100, 9).take(50);
        assert_eq!(a, b);
    }

    #[test]
    fn flow_population_is_unique() {
        let flows = build_flows(5000, 1);
        let set: std::collections::HashSet<_> = flows.iter().collect();
        assert_eq!(set.len(), flows.len());
    }

    #[test]
    #[should_panic(expected = "frame size out of range")]
    fn rejects_tiny_frames() {
        CampusTrace::fixed_size(32, 1, 0);
    }
}
