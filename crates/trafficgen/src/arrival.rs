//! Packet arrival schedules for the load generator.
//!
//! The paper's LoadGen sends either at a fixed packet rate (Table 2:
//! 1000 pps "L", ~4 Mpps "H") or at a target wire rate in Gbps (the
//! 5–100 Gbps sweep of Fig. 15). Wire occupancy of an Ethernet frame is
//! the frame (FCS included) plus 20 B of preamble + inter-frame gap,
//! which is what makes "100 Gbps of 64 B packets" come out at 148.8 Mpps.
//!
//! Open-loop generators (Poisson, burst trains, phase-shifting rate
//! profiles) live in [`crate::openloop`]; everything that emits arrival
//! timestamps implements the [`Arrivals`] trait so run loops can take
//! either family.

/// Preamble + start-of-frame delimiter + inter-frame gap on the wire.
/// Frame sizes are quoted FCS-inclusive (the usual convention behind the
/// "148.8 Mpps of 64 B frames at 100 Gbps" figure).
pub(crate) const WIRE_OVERHEAD_BYTES: u32 = 20;

/// Bits one frame of `size` bytes occupies on the wire.
pub fn wire_bits(size: u16) -> u64 {
    u64::from(u32::from(size) + WIRE_OVERHEAD_BYTES) * 8
}

/// Packets per second needed to fill `gbps` with frames of `mean_size` B.
pub fn gbps_to_pps(gbps: f64, mean_size: f64) -> f64 {
    assert!(gbps >= 0.0 && mean_size >= 64.0, "invalid rate/size");
    gbps * 1e9 / ((mean_size + f64::from(WIRE_OVERHEAD_BYTES)) * 8.0)
}

/// Anything that produces a monotone stream of arrival timestamps.
///
/// Implemented by the constant-rate [`ArrivalSchedule`] and by the
/// open-loop [`crate::openloop::OpenLoopGen`] family, so run loops can
/// be written once against `&mut dyn Arrivals`.
pub trait Arrivals {
    /// Next arrival timestamp in simulated nanoseconds. Successive calls
    /// are non-decreasing.
    fn next_arrival_ns(&mut self) -> f64;

    /// The timestamp the next [`Arrivals::next_arrival_ns`] call will
    /// return, without consuming it. Event-driven run loops use this to
    /// schedule the next-arrival event instead of polling per tick; both
    /// in-tree generators already hold the value as state, so peeking is
    /// free and exact (bit-equal to the consuming call).
    fn peek_next_ns(&self) -> f64;
}

/// A constant-rate arrival schedule in simulated nanoseconds.
///
/// # Rounding rule
///
/// The inter-arrival period is rounded **once**, to the nearest integer
/// picosecond (`period_ps = round(1e12 / pps)`); arrival times then
/// accumulate exactly in integer picoseconds. Total drift after `n`
/// arrivals is therefore exactly `n × |period_ps − 1e12/pps|`, bounded
/// by `0.5 ps` per arrival — ≤ 5 µs after 10⁷ arrivals, and exactly
/// zero for any rate whose period is an integer number of picoseconds
/// (e.g. 1000 pps). The previous `f64 +=` accumulation compounded
/// rounding error with the magnitude of the running sum instead.
#[derive(Debug, Clone)]
pub struct ArrivalSchedule {
    period_ps: u64,
    next_ps: u64,
}

impl ArrivalSchedule {
    /// Arrivals at `pps` packets per second, first packet at t = 0.
    ///
    /// # Panics
    ///
    /// Panics for a non-positive rate.
    pub fn constant_pps(pps: f64) -> Self {
        assert!(pps > 0.0, "rate must be positive");
        let period_ps = (1e12 / pps).round() as u64;
        assert!(period_ps > 0, "rate too high: period rounds to 0 ps");
        Self {
            period_ps,
            next_ps: 0,
        }
    }

    /// Arrivals filling `gbps` of wire with `mean_size`-byte frames.
    pub fn constant_gbps(gbps: f64, mean_size: f64) -> Self {
        Self::constant_pps(gbps_to_pps(gbps, mean_size))
    }

    /// Inter-arrival period in nanoseconds (the rounded-to-ps value that
    /// actually accumulates).
    pub fn period_ns(&self) -> f64 {
        self.period_ps as f64 / 1e3
    }

    /// Next arrival timestamp in nanoseconds.
    pub fn next_arrival_ns(&mut self) -> f64 {
        let t = self.peek_next_ns();
        self.next_ps += self.period_ps;
        t
    }

    /// The next arrival timestamp without consuming it (exactly the
    /// value the next [`ArrivalSchedule::next_arrival_ns`] returns).
    pub(crate) fn peek_next_ns(&self) -> f64 {
        self.next_ps as f64 / 1e3
    }
}

impl Arrivals for ArrivalSchedule {
    fn next_arrival_ns(&mut self) -> f64 {
        ArrivalSchedule::next_arrival_ns(self)
    }

    fn peek_next_ns(&self) -> f64 {
        ArrivalSchedule::peek_next_ns(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bits_of_min_frame() {
        // 64 + 20 = 84 B = 672 bits.
        assert_eq!(wire_bits(64), 672);
    }

    #[test]
    fn hundred_gig_of_64b_is_148_8_mpps() {
        let pps = gbps_to_pps(100.0, 64.0);
        assert!((pps / 1e6 - 148.8).abs() < 0.1, "got {} Mpps", pps / 1e6);
    }

    #[test]
    fn paper_budget_5_12ns_per_64b_at_100g() {
        // §1: "a server receiving 64 B packets at a link rate of 100 Gbps
        // has only 5.12 ns to process the packet". The paper quotes the
        // frame-only serialisation time (64 B × 8 / 100 Gbps).
        let ns: f64 = 64.0 * 8.0 / 100.0;
        assert!((ns - 5.12).abs() < 1e-9);
    }

    #[test]
    fn schedule_spacing() {
        let mut s = ArrivalSchedule::constant_pps(1000.0);
        assert_eq!(s.next_arrival_ns(), 0.0);
        assert!((s.next_arrival_ns() - 1e6).abs() < 1e-6, "1000 pps = 1 ms");
    }

    #[test]
    fn gbps_schedule_matches_pps() {
        let mut a = ArrivalSchedule::constant_gbps(10.0, 64.0);
        let period = a.period_ns();
        a.next_arrival_ns();
        assert!((a.next_arrival_ns() - period).abs() < 1e-9);
        // 10 Gbps of 64 B frames = 14.88 Mpps => ~67.2 ns period.
        assert!((period - 67.2).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn rejects_zero_rate() {
        ArrivalSchedule::constant_pps(0.0);
    }

    /// Peeking returns exactly what the next consuming call yields and
    /// never advances the schedule.
    #[test]
    fn peek_is_exact_and_non_consuming() {
        let mut s = ArrivalSchedule::constant_gbps(7.0, 123.0);
        for _ in 0..100 {
            let p = s.peek_next_ns();
            assert_eq!(p, s.peek_next_ns());
            assert_eq!(p, s.next_arrival_ns());
        }
    }

    /// Pins the rounding rule: integer-ps accumulation keeps total drift
    /// at 10⁷ arrivals to exactly `n × (rounding error of one period)`.
    #[test]
    fn drift_at_ten_million_arrivals_is_bounded_by_rounding_rule() {
        const N: u64 = 10_000_000;

        // Integer-ps period (1000 pps => 1e9 ps): drift must be *zero*.
        let mut exact = ArrivalSchedule::constant_pps(1000.0);
        for _ in 0..N {
            exact.next_arrival_ns();
        }
        let t = exact.next_arrival_ns();
        assert_eq!(t, N as f64 * 1e6, "integer-ps period must not drift");

        // Fractional period: 3 Gbps of 671 B frames has a period of
        // 691 × 8000/3 ps, not an integer. The exact period is 1e12/pps
        // ps; the schedule rounds it once to the nearest ps, so drift
        // after N arrivals is exactly N × |rounded − exact|, which the
        // rule bounds by 0.5 ps/arrival = 5 µs at 10⁷.
        let pps = gbps_to_pps(3.0, 671.0);
        let exact_period_ps = 1e12 / pps;
        let rounded_ps = exact_period_ps.round();
        let mut s = ArrivalSchedule::constant_pps(pps);
        for _ in 0..N {
            s.next_arrival_ns();
        }
        let got_ns = s.next_arrival_ns();
        let ideal_ns = N as f64 * exact_period_ps / 1e3;
        let predicted_drift_ns = N as f64 * (rounded_ps - exact_period_ps).abs() / 1e3;
        let drift_ns = (got_ns - ideal_ns).abs();
        assert!(
            (drift_ns - predicted_drift_ns).abs() < 1e-3,
            "drift {drift_ns} ns != predicted {predicted_drift_ns} ns"
        );
        assert!(
            drift_ns <= N as f64 * 0.5e-3,
            "drift {drift_ns} ns exceeds the 0.5 ps/arrival bound"
        );
    }
}
