//! The in-repo micro-benchmark harness (replaces `criterion`).
//!
//! Each `[[bench]]` target is a plain `harness = false` binary that builds
//! a [`Suite`], registers closures, and calls [`Suite::finish`], which
//! prints an aligned table and writes machine-readable results to
//! `BENCH_<suite>.json` in the working directory.
//!
//! Methodology: every benchmark is auto-calibrated so one sample runs the
//! closure often enough to cover [`Suite::min_sample_ms`] of wall clock,
//! then `warmup` samples are discarded and `samples` timed samples are
//! kept. The headline number is the **median** ns/iteration — robust to
//! scheduler noise in a way a mean is not; min/max are reported as the
//! spread. Environment knobs, so CI can dial cost without recompiling:
//!
//! | variable            | meaning                         | default |
//! |---------------------|---------------------------------|---------|
//! | `TP_BENCH_SAMPLES`  | timed samples per benchmark     | `11`    |
//! | `TP_BENCH_MIN_MS`   | min wall-clock per sample, ms   | `20`    |
//! | `TP_BENCH_FAST`     | set to shrink to 3 × 2 ms       | unset   |
//! | `TP_BENCH_OUT`      | directory for `BENCH_*.json`    | `.`     |

use std::io::Write as _;
use std::time::Instant;

pub use std::hint::black_box;

/// Timing statistics of one registered benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name (unique within the suite).
    pub name: String,
    /// Median nanoseconds per iteration — the headline number.
    pub median_ns: f64,
    /// Mean nanoseconds per iteration over timed samples.
    pub mean_ns: f64,
    /// Fastest sample, ns/iteration.
    pub min_ns: f64,
    /// Slowest sample, ns/iteration.
    pub max_ns: f64,
    /// Closure invocations per timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
}

/// A named collection of micro-benchmarks producing one `BENCH_*.json`.
#[derive(Debug)]
pub struct Suite {
    name: String,
    warmup: usize,
    samples: usize,
    min_sample_ms: f64,
    results: Vec<BenchResult>,
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl Suite {
    /// Creates a suite; `name` becomes the `BENCH_<name>.json` stem.
    ///
    /// Also installs the `par.*` metrics bridge so parallel regions inside
    /// benchmarked code are observable (first install wins; harmless if an
    /// observer is already in place).
    pub fn new(name: &str) -> Suite {
        let _ = tp_gnn::install_par_metrics();
        let fast = std::env::var("TP_BENCH_FAST").is_ok();
        let (samples, min_ms) = if fast { (3, 2) } else { (11, 20) };
        Suite {
            name: name.to_string(),
            warmup: 2,
            samples: env_u64("TP_BENCH_SAMPLES", samples).max(1) as usize,
            min_sample_ms: env_u64("TP_BENCH_MIN_MS", min_ms).max(1) as f64,
            results: Vec::new(),
        }
    }

    /// Minimum wall-clock one sample must cover, in milliseconds.
    pub fn min_sample_ms(&self) -> f64 {
        self.min_sample_ms
    }

    /// Times `f`, keeping the median of the configured samples.
    ///
    /// The closure's return value is passed through [`black_box`] so the
    /// optimizer cannot elide the benchmarked work.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) {
        // Calibrate: how many iterations cover min_sample_ms?
        let t0 = Instant::now();
        black_box(f());
        let once_ns = t0.elapsed().as_nanos().max(1) as f64;
        let iters = ((self.min_sample_ms * 1e6 / once_ns).ceil() as u64).clamp(1, 1_000_000_000);

        let mut sample = |iters: u64| -> f64 {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        };
        for _ in 0..self.warmup {
            sample(iters);
        }
        let mut timings: Vec<f64> = (0..self.samples).map(|_| sample(iters)).collect();
        timings.sort_by(|a, b| a.total_cmp(b));
        let median = if timings.len() % 2 == 1 {
            timings[timings.len() / 2]
        } else {
            0.5 * (timings[timings.len() / 2 - 1] + timings[timings.len() / 2])
        };
        let result = BenchResult {
            name: name.to_string(),
            median_ns: median,
            mean_ns: timings.iter().sum::<f64>() / timings.len() as f64,
            min_ns: timings[0],
            max_ns: timings[timings.len() - 1],
            iters_per_sample: iters,
            samples: timings.len(),
        };
        eprintln!(
            "[{}] {name}: median {} (min {}, max {}, {}x{} iters)",
            self.name,
            fmt_ns(result.median_ns),
            fmt_ns(result.min_ns),
            fmt_ns(result.max_ns),
            result.samples,
            result.iters_per_sample,
        );
        self.results.push(result);
    }

    /// Registers an externally-measured result — e.g. percentiles pulled
    /// from a `tp-obs` histogram over a run the suite did not time
    /// iteration by iteration — so it lands in the same table and
    /// `BENCH_*.json` as the timed benchmarks.
    pub fn record(&mut self, result: BenchResult) {
        eprintln!(
            "[{}] {}: median {} (min {}, max {}, {}x{} iters)",
            self.name,
            result.name,
            fmt_ns(result.median_ns),
            fmt_ns(result.min_ns),
            fmt_ns(result.max_ns),
            result.samples,
            result.iters_per_sample,
        );
        self.results.push(result);
    }

    /// Timed results registered so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Serializes the results as a JSON object (no external dependencies:
    /// names are escaped, numbers written with full precision).
    ///
    /// Delegates to [`tp_obs::export::bench_json`], the single source of
    /// truth for the `BENCH_*.json` schema. The config echo records what
    /// every number depends on: `TP_SCALE`, `TP_PARTITION_NODES`
    /// (effective value, env or override) and the gemm kernel this CPU
    /// runs ([`tp_tensor::ops::gemm_kernel`]), so rows from hosts that
    /// dispatch differently never pass as one config.
    pub fn to_json(&self) -> String {
        let config = vec![
            (
                "tp_scale".to_string(),
                std::env::var("TP_SCALE").unwrap_or_else(|_| "default".to_string()),
            ),
            (
                "tp_partition_nodes".to_string(),
                tp_partition::partition_nodes().to_string(),
            ),
            (
                "gemm_kernel".to_string(),
                tp_tensor::ops::gemm_kernel().to_string(),
            ),
        ];
        let entries: Vec<tp_obs::export::BenchEntry> = self
            .results
            .iter()
            .map(|r| tp_obs::export::BenchEntry {
                name: r.name.clone(),
                median_ns: r.median_ns,
                mean_ns: r.mean_ns,
                min_ns: r.min_ns,
                max_ns: r.max_ns,
                iters_per_sample: r.iters_per_sample,
                samples: r.samples,
            })
            .collect();
        tp_obs::export::bench_json(&self.name, tp_par::threads(), &config, &entries)
    }

    /// Prints the summary table and writes `BENCH_<suite>.json` into
    /// `TP_BENCH_OUT` (default: the working directory — note cargo runs
    /// bench binaries from the package root, not the shell's cwd).
    ///
    /// Returns the path written. I/O failures are reported to stderr, not
    /// fatal: a bench run on a read-only filesystem still prints results.
    pub fn finish(self) -> std::path::PathBuf {
        let rows: Vec<Vec<String>> = self
            .results
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    fmt_ns(r.median_ns),
                    fmt_ns(r.min_ns),
                    fmt_ns(r.max_ns),
                ]
            })
            .collect();
        crate::print_table(
            &format!("bench: {} ({} threads)", self.name, tp_par::threads()),
            &["benchmark", "median", "min", "max"],
            &rows,
        );
        let dir = std::env::var("TP_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
        let path = std::path::PathBuf::from(dir).join(format!("BENCH_{}.json", self.name));
        let json = self.to_json();
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
            Ok(()) => eprintln!("[{}] wrote {}", self.name, path.display()),
            Err(e) => eprintln!("[{}] could not write {}: {e}", self.name, path.display()),
        }
        path
    }
}

/// Human-readable nanoseconds (`ns`, `µs`, `ms`, `s`).
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_sane_statistics() {
        std::env::set_var("TP_BENCH_FAST", "1");
        let mut suite = Suite::new("selftest");
        suite.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        let r = &suite.results()[0];
        assert!(r.median_ns > 0.0);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.iters_per_sample >= 1);
    }

    #[test]
    fn json_escapes_and_shape() {
        let mut suite = Suite::new("json\"test");
        suite.results.push(BenchResult {
            name: "a\\b".into(),
            median_ns: 1.5,
            mean_ns: 1.5,
            min_ns: 1.0,
            max_ns: 2.0,
            iters_per_sample: 10,
            samples: 3,
        });
        let j = suite.to_json();
        assert!(j.contains("\"suite\": \"json\\\"test\""));
        assert!(j.contains("\"tp_partition_nodes\":"));
        let kernel = format!("\"gemm_kernel\": \"{}\"", tp_tensor::ops::gemm_kernel());
        assert!(j.contains(&kernel), "{j}");
        assert!(j.contains("\"name\": \"a\\\\b\""));
        assert!(j.contains("\"median_ns\": 1.5"));
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(1500.0), "1.50 µs");
        assert_eq!(fmt_ns(2.5e6), "2.50 ms");
        assert_eq!(fmt_ns(3.2e9), "3.200 s");
    }
}
