//! A tiny in-tree timing harness for the `benches/` targets.
//!
//! The workspace builds fully offline, so the benches use this ~100-line
//! harness instead of an external framework: adaptive iteration counts,
//! median-of-samples reporting, and a `black_box` that defeats
//! const-folding. Run with
//! `cargo bench -p bench --features bench-harness`.

use std::hint;
use std::time::{Duration, Instant};

/// Opaque identity function: keeps the optimiser from deleting the
/// benchmarked computation.
#[inline]
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// One benchmark group; prints a header and times closures under it.
pub struct Group {
    name: String,
    warmup: Duration,
    measure: Duration,
}

impl Group {
    /// A group with default times (0.3 s warm-up, 1 s measurement).
    pub fn new(name: &str) -> Self {
        println!("\n== {name} ==");
        Self {
            name: name.to_string(),
            warmup: Duration::from_millis(300),
            measure: Duration::from_secs(1),
        }
    }

    /// Overrides the measurement time.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measure = d;
        self
    }

    /// Times `f`, printing median/mean ns per iteration.
    pub fn bench<F: FnMut()>(&self, name: &str, mut f: F) {
        // Warm-up and calibration: find an iteration count that takes
        // roughly 1/20 of the measurement window per sample.
        let cal_start = Instant::now();
        let mut iters_done = 0u64;
        while cal_start.elapsed() < self.warmup {
            f();
            iters_done += 1;
        }
        let per_iter = self.warmup.as_nanos() as f64 / iters_done.max(1) as f64;
        let target_sample_ns = (self.measure.as_nanos() as f64 / 20.0).max(1.0);
        let iters_per_sample = ((target_sample_ns / per_iter).ceil() as u64).clamp(1, 1 << 24);

        let mut samples: Vec<f64> = Vec::new();
        let run_start = Instant::now();
        while run_start.elapsed() < self.measure || samples.len() < 5 {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                f();
            }
            samples.push(t.elapsed().as_nanos() as f64 / iters_per_sample as f64);
            if samples.len() >= 1000 {
                break;
            }
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[samples.len() / 2];
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        println!(
            "{:<40} {:>12.1} ns/iter (median)  {:>12.1} ns/iter (mean)  [{} samples x {} iters]",
            format!("{}/{name}", self.name),
            median,
            mean,
            samples.len(),
            iters_per_sample
        );
    }

    /// Times `f` with a fresh `setup()` product per sample (for
    /// consuming benchmarks).
    pub fn bench_with_setup<S, T, F: FnMut(T)>(&self, name: &str, mut setup: S, mut f: F)
    where
        S: FnMut() -> T,
    {
        let mut samples: Vec<f64> = Vec::new();
        let run_start = Instant::now();
        while run_start.elapsed() < self.measure || samples.len() < 5 {
            let input = setup();
            let t = Instant::now();
            f(input);
            samples.push(t.elapsed().as_nanos() as f64);
            if samples.len() >= 1000 {
                break;
            }
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[samples.len() / 2];
        println!(
            "{:<40} {:>12.1} ns/iter (median)  [{} samples, setup excluded]",
            format!("{}/{name}", self.name),
            median,
            samples.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let g = Group::new("selftest").measurement_time(Duration::from_millis(30));
        let mut acc = 0u64;
        g.bench("noop_add", || {
            acc = black_box(acc.wrapping_add(1));
        });
        assert!(acc > 0);
    }

    #[test]
    fn bench_with_setup_runs() {
        let g = Group::new("selftest2").measurement_time(Duration::from_millis(20));
        g.bench_with_setup(
            "consume_vec",
            || vec![1u8; 64],
            |v| {
                black_box(v.len());
            },
        );
    }
}
