//! SLO accounting over time series: how long a measured signal spent
//! above a threshold.
//!
//! The overload study (fig_knee_kvs) reports not just percentiles but
//! *SLO-violation time*: of the run's duration, how many nanoseconds
//! was the observed latency (or any other per-sample signal) above the
//! service-level objective? The input is a time series of `(t_ns,
//! value)` samples; each sample's value is held until the next sample
//! (a step function, first-order hold), so sample *i* covers
//! `[t_i, t_{i+1})` and the last sample covers zero width — a series
//! needs at least two samples to accumulate any violation time.
//!
//! The functions follow the crate's total/`try_` convention (see
//! [`crate::percentile::Summary::percentile`]): the total variants
//! absorb dirty input — non-finite samples are skipped, non-monotone
//! timestamps contribute zero width — while the `try_` variants,
//! compiled for the tests only, return `None` on the first irregularity
//! so the tests can detect it.

/// Total time, in the series' time unit, that the signal sat strictly
/// above `threshold`.
///
/// Total over all inputs: samples with a non-finite time or value are
/// skipped entirely (the previous sample's hold extends over them), a
/// non-monotone successor contributes zero width (never negative), and
/// a non-finite `threshold` yields 0.0. Use `try_time_above_threshold`
/// to detect dirty input instead of absorbing it.
pub(crate) fn time_above_threshold(series: &[(f64, f64)], threshold: f64) -> f64 {
    if !threshold.is_finite() {
        return 0.0;
    }
    let mut total = 0.0;
    let mut prev: Option<(f64, f64)> = None;
    for &(t, v) in series {
        if !(t.is_finite() && v.is_finite()) {
            continue;
        }
        if let Some((pt, pv)) = prev {
            if pv > threshold {
                total += (t - pt).max(0.0);
            }
        }
        prev = Some((t, v));
    }
    total
}

/// Strict variant of [`time_above_threshold`]: `None` when the
/// threshold or any sample is non-finite, or when timestamps are not
/// non-decreasing.
#[cfg(test)]
fn try_time_above_threshold(series: &[(f64, f64)], threshold: f64) -> Option<f64> {
    if !threshold.is_finite() {
        return None;
    }
    let mut total = 0.0;
    let mut prev: Option<(f64, f64)> = None;
    for &(t, v) in series {
        if !(t.is_finite() && v.is_finite()) {
            return None;
        }
        if let Some((pt, pv)) = prev {
            if t < pt {
                return None;
            }
            if pv > threshold {
                total += t - pt;
            }
        }
        prev = Some((t, v));
    }
    Some(total)
}

/// SLO-violation time for a latency series: the time the observed
/// latency spent strictly above the objective `slo`. This is
/// [`time_above_threshold`] under the name the overload reports use —
/// total over all inputs, with `try_slo_violation_ns` as the strict
/// variant.
pub fn slo_violation_ns(series: &[(f64, f64)], slo: f64) -> f64 {
    time_above_threshold(series, slo)
}

/// Strict variant of [`slo_violation_ns`] (see
/// `try_time_above_threshold`).
#[cfg(test)]
fn try_slo_violation_ns(series: &[(f64, f64)], slo: f64) -> Option<f64> {
    try_time_above_threshold(series, slo)
}

/// Nanoseconds per minute: the unit conversion of
/// [`violation_minutes`].
const NS_PER_MINUTE: f64 = 60.0e9;

/// Aggregate SLO-violation time over several runs' series, in minutes.
///
/// Each run contributes its own `(t_ns, value)` latency series; the
/// per-run violation times ([`slo_violation_ns`], first-order hold,
/// strictly above `slo`) are summed and converted from nanoseconds to
/// minutes — the unit multi-run robustness studies report ("how long,
/// across the whole campaign, was the tenant out of SLO?").
///
/// Total over all inputs, inheriting [`time_above_threshold`]'s
/// absorption rules per run: non-finite samples are skipped (the
/// previous hold extends over them), backwards timestamps clamp to
/// zero width (never negative), and a non-finite `slo` yields 0.0. An
/// empty run list is 0.0. Use `try_violation_minutes` to detect dirty
/// input instead of absorbing it.
pub fn violation_minutes(runs: &[&[(f64, f64)]], slo: f64) -> f64 {
    runs.iter()
        .map(|series| slo_violation_ns(series, slo))
        .sum::<f64>()
        / NS_PER_MINUTE
}

/// Strict variant of [`violation_minutes`]: `None` when the SLO or any
/// run's sample is non-finite, or any run's timestamps are not
/// non-decreasing (per-run rules of `try_time_above_threshold`).
#[cfg(test)]
fn try_violation_minutes(runs: &[&[(f64, f64)]], slo: f64) -> Option<f64> {
    let mut total = 0.0;
    for series in runs {
        total += try_slo_violation_ns(series, slo)?;
    }
    Some(total / NS_PER_MINUTE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single_sample_series_accumulate_nothing() {
        assert_eq!(time_above_threshold(&[], 1.0), 0.0);
        assert_eq!(try_time_above_threshold(&[], 1.0), Some(0.0));
        // One sample holds over zero width.
        assert_eq!(time_above_threshold(&[(5.0, 99.0)], 1.0), 0.0);
        assert_eq!(try_time_above_threshold(&[(5.0, 99.0)], 1.0), Some(0.0));
    }

    #[test]
    fn step_function_hold_counts_each_violating_interval() {
        // Above in [0,10) and [20,25); below elsewhere; last sample's
        // hold has zero width.
        let series = [
            (0.0, 8.0),
            (10.0, 2.0),
            (20.0, 9.0),
            (25.0, 1.0),
            (30.0, 99.0),
        ];
        assert_eq!(time_above_threshold(&series, 5.0), 15.0);
        assert_eq!(try_time_above_threshold(&series, 5.0), Some(15.0));
        // The threshold is strict: a value exactly at the SLO does not
        // violate it.
        assert_eq!(time_above_threshold(&[(0.0, 5.0), (10.0, 0.0)], 5.0), 0.0);
    }

    #[test]
    fn total_variants_absorb_dirty_input() {
        // A NaN sample is skipped: the 8.0 hold extends over it.
        let with_nan = [(0.0, 8.0), (5.0, f64::NAN), (10.0, 2.0)];
        assert_eq!(time_above_threshold(&with_nan, 5.0), 10.0);
        assert_eq!(try_time_above_threshold(&with_nan, 5.0), None);
        // A backwards timestamp clamps to zero width, never negative.
        let backwards = [(10.0, 8.0), (0.0, 2.0), (20.0, 2.0)];
        assert_eq!(time_above_threshold(&backwards, 5.0), 0.0);
        assert_eq!(try_time_above_threshold(&backwards, 5.0), None);
        // A non-finite threshold cannot be violated.
        assert_eq!(
            time_above_threshold(&[(0.0, 1.0), (1.0, 1.0)], f64::NAN),
            0.0
        );
        assert_eq!(
            try_time_above_threshold(&[(0.0, 1.0), (1.0, 1.0)], f64::INFINITY),
            None
        );
    }

    #[test]
    fn violation_minutes_sums_runs_and_converts_units() {
        // Run A violates for 15 ns, run B for 45e9 ns (0.75 min).
        let a = [(0.0, 8.0), (10.0, 2.0), (20.0, 9.0), (25.0, 1.0)];
        let b = [(0.0, 9.0), (45.0e9, 1.0), (50.0e9, 1.0)];
        let runs: [&[(f64, f64)]; 2] = [&a, &b];
        let mins = violation_minutes(&runs, 5.0);
        assert!((mins - (15.0 + 45.0e9) / 60.0e9).abs() < 1e-12);
        assert_eq!(try_violation_minutes(&runs, 5.0), Some(mins));
        // No runs, no violation.
        assert_eq!(violation_minutes(&[], 5.0), 0.0);
        assert_eq!(try_violation_minutes(&[], 5.0), Some(0.0));
    }

    #[test]
    fn violation_minutes_absorbs_dirty_runs_and_try_detects_them() {
        let clean = [(0.0, 9.0), (60.0e9, 1.0)];
        let dirty = [(0.0, f64::NAN), (10.0, 2.0)];
        let runs: [&[(f64, f64)]; 2] = [&clean, &dirty];
        // Total: the NaN sample is skipped, the clean run still counts.
        assert!((violation_minutes(&runs, 5.0) - 1.0).abs() < 1e-12);
        assert_eq!(try_violation_minutes(&runs, 5.0), None);
        // Non-finite SLO cannot be violated (total) / is an error (try).
        assert_eq!(violation_minutes(&runs[..1], f64::NAN), 0.0);
        assert_eq!(try_violation_minutes(&runs[..1], f64::INFINITY), None);
    }

    #[test]
    fn slo_violation_is_time_above_threshold_by_another_name() {
        let series = [(0.0, 300.0), (100.0, 80.0), (150.0, 400.0), (175.0, 10.0)];
        assert_eq!(
            slo_violation_ns(&series, 200.0),
            time_above_threshold(&series, 200.0)
        );
        assert_eq!(slo_violation_ns(&series, 200.0), 125.0);
        assert_eq!(try_slo_violation_ns(&series, 200.0), Some(125.0));
        assert_eq!(try_slo_violation_ns(&[(0.0, f64::NAN)], 200.0), None);
    }
}
