//! Integer keys for virtual time, for the loops that drive the engine:
//! `kvs::openloop`'s client (arrivals, retry timers, deadlines) and
//! `tenancy::run`'s harness (per-tenant arrivals) order their events on
//! them.
//!
//! Simulated time in this workspace flows through `f64` nanoseconds
//! (`Ctx::wall_ns`, `Engine::now_ns`), but ordering events by comparing
//! floats invites precision questions the determinism suites cannot
//! afford. Those loops therefore key every event on an *integer*: the
//! IEEE-754 bit pattern of the (non-negative, finite) time. For
//! non-negative floats the bit order equals the numeric order, so
//! [`time_key`] is an order-preserving, lossless bijection — two times
//! compare under integer `<` exactly as the original `f64`s would, with
//! no rounding anywhere. The unit tests below pin this.

/// 2^53: the largest f64 exponent range in which every integer
/// nanosecond is exactly representable. Above it, `u64 as f64`
/// conversions (and back) start losing individual nanoseconds.
pub(crate) const MAX_EXACT_NS: f64 = 9_007_199_254_740_992.0;

/// Order-preserving integer key for a non-negative finite `f64` time in
/// ns. Lossless: [`time_of_key`] inverts it exactly.
///
/// Debug builds assert the time is non-negative, finite, and below
/// 2^53 ns (~104 days of simulated time) — the range in which f64↔
/// integer-ns conversions elsewhere in the workspace stay exact.
#[inline]
pub fn time_key(t_ns: f64) -> u64 {
    debug_assert!(
        t_ns >= 0.0 && t_ns.is_finite(),
        "virtual time must be non-negative and finite, got {t_ns}"
    );
    debug_assert!(
        t_ns < MAX_EXACT_NS,
        "virtual time {t_ns} ns exceeds 2^53; f64 conversions would lose ns precision"
    );
    // Normalize -0.0 (which passes the >= 0.0 assert) to +0.0 so the
    // key of "time zero" is unique.
    if t_ns == 0.0 {
        0
    } else {
        t_ns.to_bits()
    }
}

/// Inverse of [`time_key`].
#[inline]
pub fn time_of_key(key: u64) -> f64 {
    f64::from_bits(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The integer key preserves f64 order exactly, including
    /// fractional-ns times that differ by one ULP, and zero is unique.
    #[test]
    fn time_key_is_order_preserving_and_lossless() {
        let times = [
            0.0,
            0.25,
            1.0,
            1.0000000000000002, // 1.0's upward neighbour
            333.3333333333333,
            1e9,
            MAX_EXACT_NS - 1.0,
        ];
        for w in times.windows(2) {
            assert!(
                time_key(w[0]) < time_key(w[1]),
                "{} vs {} keys must preserve order",
                w[0],
                w[1]
            );
        }
        for &t in &times {
            assert_eq!(time_of_key(time_key(t)), t, "lossless round-trip");
        }
        assert_eq!(time_key(-0.0), time_key(0.0), "zero key is unique");
    }

    #[test]
    #[should_panic(expected = "2^53")]
    #[cfg(debug_assertions)]
    fn keys_past_exact_range_are_rejected_in_debug() {
        let _ = time_key(MAX_EXACT_NS * 2.0);
    }
}
