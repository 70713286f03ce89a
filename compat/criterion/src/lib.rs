//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no crates-io registry, so this workspace
//! vendors the API subset its benches use: [`Criterion`],
//! [`Criterion::benchmark_group`], `bench_function`, [`Bencher::iter`],
//! [`black_box`], and the [`criterion_group!`]/[`criterion_main!`] macros.
//!
//! Measurement is a plain wall-clock loop: warm up, then time batches
//! until the target measurement window is filled, and report the best
//! (least-noisy) per-iteration time. Set `NGA_BENCH_MS` to change the
//! per-bench measurement window (milliseconds; default 300, `quick`
//! flavours use less).

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "a benchmark harness times its cases and reads NGA_BENCH_MS"
)]

use std::time::{Duration, Instant};

/// Prevents the optimizer from deleting a value or the work producing it.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// The benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl AsRef<str>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.as_ref().to_string(),
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl AsRef<str>,
        mut f: F,
    ) -> &mut Self {
        run_one(id.as_ref(), &mut f);
        self
    }
}

/// A named group of benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark inside the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl AsRef<str>,
        mut f: F,
    ) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id.as_ref()), &mut f);
        self
    }

    /// Ends the group (kept for API compatibility; a no-op here).
    pub fn finish(self) {}
}

/// Passed to each benchmark closure; [`Bencher::iter`] does the timing.
#[derive(Debug)]
pub struct Bencher {
    /// Best observed nanoseconds per iteration.
    pub(crate) ns_per_iter: f64,
}

impl Bencher {
    /// Measures `routine` and records its per-iteration time.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up and calibration: find an iteration count that runs for
        // at least ~1/10 of the measurement window per batch.
        let window = measurement_window();
        let mut n: u64 = 1;
        let batch_target = window / 10;
        loop {
            let t = Instant::now();
            for _ in 0..n {
                black_box(routine());
            }
            let el = t.elapsed();
            if el >= batch_target || n >= 1 << 30 {
                break;
            }
            // Aim directly for the batch target based on what we saw.
            let scale = (batch_target.as_nanos() as f64 / el.as_nanos().max(1) as f64).ceil();
            n = (n as f64 * scale.clamp(2.0, 128.0)) as u64;
        }
        // Measurement: repeat batches until the window is spent, keep the
        // fastest batch (least scheduler noise).
        let mut best = f64::INFINITY;
        let start = Instant::now();
        let mut batches = 0u32;
        while start.elapsed() < window || batches < 3 {
            let t = Instant::now();
            for _ in 0..n {
                black_box(routine());
            }
            let per = t.elapsed().as_nanos() as f64 / n as f64;
            if per < best {
                best = per;
            }
            batches += 1;
            if batches >= 1000 {
                break;
            }
        }
        self.ns_per_iter = best;
    }
}

fn measurement_window() -> Duration {
    let ms = std::env::var("NGA_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(300);
    Duration::from_millis(ms.max(10))
}

fn run_one<F: FnMut(&mut Bencher)>(id: &str, f: &mut F) {
    let mut b = Bencher {
        ns_per_iter: f64::NAN,
    };
    f(&mut b);
    let ns = b.ns_per_iter;
    let (scaled, unit) = if ns < 1_000.0 {
        (ns, "ns")
    } else if ns < 1_000_000.0 {
        (ns / 1_000.0, "µs")
    } else {
        (ns / 1_000_000.0, "ms")
    };
    println!("{id:<48} time: {scaled:>10.2} {unit}/iter");
}

/// Declares a group function running the listed benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // Cargo passes harness flags like `--bench`; ignore them.
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_loop_reports_finite_time() {
        std::env::set_var("NGA_BENCH_MS", "10");
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("smoke");
        let mut captured = 0.0;
        g.bench_function("noop_sum", |b| {
            b.iter(|| (0..100u64).sum::<u64>());
            captured = b.ns_per_iter;
        });
        g.finish();
        assert!(captured.is_finite() && captured > 0.0);
    }
}
