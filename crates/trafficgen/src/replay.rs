//! Replaying recorded arrival structure as an open-loop source.
//!
//! A v2 tracefile carries per-record `arrival_ns` (see
//! [`crate::tracefile`]); [`TraceReplay`] turns that timestamp column
//! into an [`Arrivals`] implementation, so the same open-loop run loops
//! that take an [`crate::OpenLoopGen`] can be driven by a recorded or
//! synthesized trace instead — reproducing the trace's inter-arrival
//! structure exactly (to the 1 ns quantization of the file format).
//!
//! Like every in-tree generator, the adapter holds its next timestamp
//! as plain state: [`Arrivals::peek_next_ns`] is free, exact (bit-equal
//! to the consuming call) and burns no RNG state — there is no RNG.

use crate::arrival::Arrivals;
use crate::tracefile::TimedPacket;

/// Replays a non-decreasing arrival-timestamp sequence, looping with a
/// fixed period when the trace is shorter than the run.
///
/// # Looping rule
///
/// Runs often consume more arrivals than one trace pass holds. On
/// wrap-around the whole trace shifts forward by a fixed
/// `period_ns = last_arrival + mean_gap`, where `mean_gap` is the
/// trace's own mean inter-arrival spacing (rounded to ≥ 1 ns) — so the
/// replayed stream stays non-decreasing and keeps the trace's average
/// rate across passes. The period is computed once, in integer
/// nanoseconds; replay is exact and deterministic.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    arrivals_ns: Vec<u64>,
    period_ns: u64,
    idx: usize,
    base_ns: u64,
}

impl TraceReplay {
    /// An adapter over the arrival column of a timed trace.
    ///
    /// # Panics
    ///
    /// Panics on an empty trace or a decreasing timestamp (a v2 file
    /// records arrivals in stream order, so a well-formed trace is
    /// non-decreasing).
    pub fn new(trace: &[TimedPacket]) -> Self {
        Self::from_arrivals(trace.iter().map(|t| t.arrival_ns).collect())
    }

    /// An adapter over a raw arrival-timestamp sequence in ns.
    ///
    /// # Panics
    ///
    /// Panics on an empty or decreasing sequence.
    pub(crate) fn from_arrivals(arrivals_ns: Vec<u64>) -> Self {
        assert!(!arrivals_ns.is_empty(), "cannot replay an empty trace");
        assert!(
            arrivals_ns.windows(2).all(|w| w[0] <= w[1]),
            "trace arrivals must be non-decreasing"
        );
        let first = arrivals_ns[0];
        let last = *arrivals_ns.last().expect("non-empty");
        let n = arrivals_ns.len() as u64;
        let mean_gap = if n > 1 { (last - first) / (n - 1) } else { 0 };
        let period_ns = last + mean_gap.max(1);
        Self {
            arrivals_ns,
            period_ns,
            idx: 0,
            base_ns: 0,
        }
    }
}

impl Arrivals for TraceReplay {
    fn next_arrival_ns(&mut self) -> f64 {
        let t = self.peek_next_ns();
        self.idx += 1;
        if self.idx == self.arrivals_ns.len() {
            self.idx = 0;
            self.base_ns += self.period_ns;
        }
        t
    }

    fn peek_next_ns(&self) -> f64 {
        (self.base_ns + self.arrivals_ns[self.idx]) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::openloop::OpenLoopGen;
    use crate::trace::{CampusTrace, SizeMix};
    use crate::tracefile::{read_trace_timed_bytes, write_trace_v2};

    #[test]
    fn replays_exact_timestamps_in_order() {
        let mut r = TraceReplay::from_arrivals(vec![5, 10, 10, 42]);
        assert_eq!(r.next_arrival_ns(), 5.0);
        assert_eq!(r.next_arrival_ns(), 10.0);
        assert_eq!(r.next_arrival_ns(), 10.0);
        assert_eq!(r.next_arrival_ns(), 42.0);
    }

    #[test]
    fn wraps_with_mean_gap_period() {
        // arrivals 0, 30, 60: mean gap 30, period 60 + 30 = 90.
        let mut r = TraceReplay::from_arrivals(vec![0, 30, 60]);
        assert_eq!(r.period_ns, 90);
        let first_pass: Vec<f64> = (0..3).map(|_| r.next_arrival_ns()).collect();
        let second_pass: Vec<f64> = (0..3).map(|_| r.next_arrival_ns()).collect();
        assert_eq!(first_pass, vec![0.0, 30.0, 60.0]);
        assert_eq!(second_pass, vec![90.0, 120.0, 150.0]);
    }

    #[test]
    fn stream_is_non_decreasing_across_many_wraps() {
        let mut r = TraceReplay::from_arrivals(vec![7, 7, 9]);
        let mut last = f64::MIN;
        for _ in 0..1000 {
            let t = r.next_arrival_ns();
            assert!(t >= last);
            last = t;
        }
    }

    /// The [`Arrivals`] peek contract: exact and non-consuming.
    #[test]
    fn peek_is_exact_and_non_consuming() {
        let mut r = TraceReplay::from_arrivals(vec![3, 11, 12, 100]);
        for _ in 0..50 {
            let p = r.peek_next_ns();
            assert_eq!(p, r.peek_next_ns());
            assert_eq!(p, r.next_arrival_ns());
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_decreasing_arrivals() {
        TraceReplay::from_arrivals(vec![10, 5]);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn rejects_empty_trace() {
        TraceReplay::from_arrivals(vec![]);
    }

    #[test]
    fn single_arrival_trace_advances_by_at_least_one_ns() {
        let mut r = TraceReplay::from_arrivals(vec![1000]);
        assert_eq!(r.period_ns, 1001);
        assert_eq!(r.next_arrival_ns(), 1000.0);
        assert_eq!(r.next_arrival_ns(), 2001.0);
    }

    /// Record a Poisson arrival process into a v2 tracefile, replay it,
    /// and check the replayed stream equals the recorded one to the
    /// format's 1 ns quantization.
    #[test]
    fn roundtrip_through_v2_file_reproduces_interarrivals() {
        let mut gen = OpenLoopGen::poisson(2_000_000.0, 9);
        let mut campus = CampusTrace::new(SizeMix::campus(), 32, 9);
        let timed: Vec<TimedPacket> = campus
            .take(500)
            .into_iter()
            .map(|spec| TimedPacket {
                spec,
                arrival_ns: gen.next_arrival_ns() as u64,
            })
            .collect();
        let mut buf = Vec::new();
        write_trace_v2(&mut buf, &timed).unwrap();
        let mut replay = TraceReplay::new(&read_trace_timed_bytes(&buf).unwrap());
        for t in &timed {
            assert_eq!(replay.next_arrival_ns(), t.arrival_ns as f64);
        }
    }
}
