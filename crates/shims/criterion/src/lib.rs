//! Offline drop-in replacement for the subset of the `criterion` crate API
//! this workspace's benches use.
//!
//! The build environment has no crates.io access, so benches link against
//! this minimal harness instead: it warms up, times `sample_size` samples
//! per benchmark, prints a human-readable table, and — when the
//! `BENCH_JSON` environment variable names a file — appends one JSON
//! record per benchmark. The engines' benchmark of record is `perfbench/`
//! (see `BENCHMARK.json`); these benches time the paper-level workloads,
//! and `BENCH_protocol.json` keeps the records of earlier engine groups
//! as history.
//!
//! Statistical machinery (outlier analysis, regressions, plots) is out of
//! scope; mean/median/min over wall-clock samples is enough to track the
//! ≥2× deltas this repo's perf work targets.

#![warn(missing_docs)]

use std::fmt::Display;
use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifier of one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter, rendered `name/param`.
    pub fn new<P: Display>(name: &str, parameter: P) -> Self {
        Self { id: format!("{name}/{parameter}") }
    }

    /// An id that is just the parameter value.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        Self { id: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self { id: s }
    }
}

/// One timed result record.
#[derive(Clone, Debug)]
struct Record {
    group: String,
    id: String,
    mean_ns: f64,
    median_ns: f64,
    min_ns: f64,
    samples: usize,
    iters_per_sample: u64,
}

/// Passed to the closure given to [`BenchmarkGroup::bench_function`];
/// call [`Bencher::iter`] with the code under test.
pub struct Bencher<'a> {
    samples: usize,
    result: &'a mut Option<(Vec<Duration>, u64)>,
}

impl Bencher<'_> {
    /// Times `f`, auto-calibrating iterations per sample so each sample
    /// lasts at least ~5 ms (or one iteration, whichever is longer).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up and calibration: run until 5 ms or 3 iterations.
        let calib_start = Instant::now();
        let mut calib_iters: u64 = 0;
        while calib_start.elapsed() < Duration::from_millis(5) && calib_iters < 1_000_000 {
            black_box(f());
            calib_iters += 1;
            if calib_iters >= 3 && calib_start.elapsed() >= Duration::from_millis(1) {
                break;
            }
        }
        let per_iter = calib_start.elapsed() / calib_iters.max(1) as u32;
        let iters: u64 = if per_iter >= Duration::from_millis(5) {
            1
        } else {
            (Duration::from_millis(5).as_nanos() / per_iter.as_nanos().max(1)).max(1) as u64
        };

        let mut durations = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            durations.push(start.elapsed() / iters as u32);
        }
        *self.result = Some((durations, iters));
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Benchmarks `f` under `id`.
    pub fn bench_function<I: Into<BenchmarkId>, F>(&mut self, id: I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        let id = id.into();
        let mut result = None;
        let mut bencher = Bencher { samples: self.sample_size, result: &mut result };
        f(&mut bencher);
        self.record(&id, result);
        self
    }

    /// Benchmarks `f` under `id`, passing `input` through.
    pub fn bench_with_input<I: Into<BenchmarkId>, T: ?Sized, F>(
        &mut self,
        id: I,
        input: &T,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>, &T),
    {
        let id = id.into();
        let mut result = None;
        let mut bencher = Bencher { samples: self.sample_size, result: &mut result };
        f(&mut bencher, input);
        self.record(&id, result);
        self
    }

    /// Finishes the group (printing happens per-record as it runs).
    pub fn finish(&mut self) {}

    fn record(&mut self, id: &BenchmarkId, result: Option<(Vec<Duration>, u64)>) {
        let Some((mut durations, iters)) = result else {
            return;
        };
        durations.sort_unstable();
        let min_ns = durations.first().map_or(0.0, |d| d.as_nanos() as f64);
        let median_ns = durations[durations.len() / 2].as_nanos() as f64;
        let mean_ns =
            durations.iter().map(|d| d.as_nanos() as f64).sum::<f64>() / durations.len() as f64;
        let rec = Record {
            group: self.name.clone(),
            id: id.id.clone(),
            mean_ns,
            median_ns,
            min_ns,
            samples: durations.len(),
            iters_per_sample: iters,
        };
        println!(
            "{:<40} mean {:>12}  median {:>12}  min {:>12}  ({} samples × {} iters)",
            format!("{}/{}", rec.group, rec.id),
            fmt_ns(rec.mean_ns),
            fmt_ns(rec.median_ns),
            fmt_ns(rec.min_ns),
            rec.samples,
            rec.iters_per_sample,
        );
        self.criterion.records.push(rec);
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {
    records: Vec<Record>,
}

impl Criterion {
    /// Mirrors the real crate's builder entry point; no CLI args are
    /// interpreted by the shim (benchmark filters are ignored).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Opens a benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("# group {name}");
        BenchmarkGroup { criterion: self, name: name.to_string(), sample_size: 10 }
    }

    /// Writes accumulated records as JSON lines to the file named by the
    /// `BENCH_JSON` environment variable (appending), if set.
    pub fn final_summary(&mut self) {
        let Ok(path) = std::env::var("BENCH_JSON") else {
            return;
        };
        if path.is_empty() {
            return;
        }
        let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(&path) else {
            eprintln!("BENCH_JSON: cannot open {path}");
            return;
        };
        for r in &self.records {
            let _ = writeln!(
                f,
                "{{\"group\":\"{}\",\"id\":\"{}\",\"mean_ns\":{:.1},\"median_ns\":{:.1},\"min_ns\":{:.1},\"samples\":{},\"iters_per_sample\":{}}}",
                json_escape(&r.group),
                json_escape(&r.id),
                r.mean_ns,
                r.median_ns,
                r.min_ns,
                r.samples,
                r.iters_per_sample,
            );
        }
        eprintln!("wrote {} bench records to {path}", self.records.len());
    }
}

/// Declares a benchmark group function, mirroring `criterion`'s macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares the bench `main`, mirroring `criterion`'s macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $($group(&mut c);)+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_formats() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("unit");
            g.sample_size(3);
            g.bench_function("noop", |b| b.iter(|| 1 + 1));
            g.bench_with_input(BenchmarkId::from_parameter(42), &42, |b, &x| b.iter(|| x * 2));
            g.finish();
        }
        assert_eq!(c.records.len(), 2);
        assert_eq!(c.records[1].id, "42");
        assert!(c.records[0].mean_ns >= 0.0);
    }

    #[test]
    fn id_rendering() {
        assert_eq!(BenchmarkId::new("f", 7).id, "f/7");
        assert_eq!(BenchmarkId::from_parameter("x").id, "x");
    }
}
