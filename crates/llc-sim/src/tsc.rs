//! Timestamp-counter modelling and measurement helpers.
//!
//! The paper times cache accesses with `rdtsc`/`rdtscp` following Intel's
//! measurement guidelines, and notes that the serialising instruction pair
//! adds ~32 cycles which they subtract from every reported number (§2.2
//! footnote). The simulated per-core cycle clocks live in the machine;
//! this module provides the same "measure a closure, subtract the
//! measurement overhead" discipline so experiment code reads like the
//! paper's methodology.

/// Cycles added by a serialised `rdtsc`/`rdtscp` measurement pair, the
/// figure the paper reports for its testbed and subtracts from results.
pub(crate) const RDTSC_OVERHEAD: u64 = 32;

/// A measured duration in core cycles, with the measurement overhead
/// already removed (saturating at zero, as an empty measured region cannot
/// be negative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Measured(pub u64);

impl Measured {
    /// Raw cycle count.
    pub fn cycles(self) -> u64 {
        self.0
    }
}

/// Wraps a raw measured interval the way the paper does: the `rdtsc` pair
/// cost is added by the act of measuring and subtracted from the report.
pub fn measure_interval(start: u64, end: u64) -> Measured {
    debug_assert!(end >= start, "time went backwards");
    let raw = end - start + RDTSC_OVERHEAD; // The pair itself executes...
    Measured(raw.saturating_sub(RDTSC_OVERHEAD)) // ...and is subtracted.
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_cancels() {
        let m = measure_interval(100, 150);
        assert_eq!(m.cycles(), 50);
    }

    #[test]
    fn zero_interval() {
        assert_eq!(measure_interval(7, 7).cycles(), 0);
    }

    #[test]
    fn ordering() {
        assert!(Measured(10) < Measured(20));
    }
}
