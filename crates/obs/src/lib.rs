//! Zero-dependency observability for the timing-predict workspace.
//!
//! Three layers, all hermetic (no external crates, no RNG, no clock other
//! than the monotonic [`std::time::Instant`]):
//!
//! 1. **Tracing spans** ([`span!`], [`SpanGuard`]) — hierarchical RAII
//!    spans with monotonic timings and thread-safe collection. Nesting is
//!    tracked per thread and recorded as a `depth` on every event, so the
//!    span tree can be reconstructed (and is what Perfetto renders from
//!    the chrome-trace export).
//! 2. **Metrics** ([`metrics`]) — a registry of named counters (sharded
//!    atomics), gauges and log2-bucketed histograms with p50/p95/p99
//!    summaries.
//! 3. **Exporters + manifests** ([`export`], [`manifest`]) — chrome-trace
//!    JSON (loadable in `about:tracing`/Perfetto), a flat JSONL event log,
//!    a `BENCH_*.json` writer sharing its schema with `tp_bench::micro`,
//!    and the [`RunReport`](manifest::RunReport) run manifest.
//!
//! # Cost model
//!
//! Recording is **off by default**. Every instrumentation point first
//! checks [`is_enabled`] — a single relaxed atomic load — and does nothing
//! else when recording is off: no clock reads, no allocation, no lock.
//! Nothing is ever written to disk unless an exporter is explicitly
//! invoked, so an uninstrumented ("no sink") run produces zero artifacts.
//!
//! Because the crate never touches an RNG and never feeds timings back
//! into computation, enabling it cannot perturb the workspace's
//! bit-identical determinism guarantee (`tests/determinism.rs` regresses
//! this).
//!
//! # Poisoned locks
//!
//! All internal mutexes recover from poisoning (`PoisonError::into_inner`)
//! instead of unwrapping: a panic on one instrumented thread must not
//! cascade into every later span on healthy threads.
//!
//! # Example
//!
//! ```
//! tp_obs::enable();
//! {
//!     let _epoch = tp_obs::span!("epoch", epoch = 0usize);
//!     let _level = tp_obs::span!("levelized_prop", level = 3usize);
//!     tp_obs::metrics::count("demo.pins", 128);
//! }
//! let data = tp_obs::drain();
//! assert_eq!(data.events.len(), 2);
//! let trace = tp_obs::export::chrome_trace(&data.events);
//! tp_obs::json::validate(&trace).unwrap();
//! tp_obs::disable();
//! ```

pub mod export;
pub mod json;
pub mod manifest;
pub mod metrics;
mod span;

pub use metrics::{HistSummary, MetricSnapshot};
pub use span::{ArgValue, EventKind, SpanGuard, TraceEvent};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static ENABLED: AtomicBool = AtomicBool::new(false);
static QUIET: AtomicBool = AtomicBool::new(false);
static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

/// Locks a mutex, recovering the guard if a previous holder panicked.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Turns recording on. Spans, events and metric updates after this call
/// are collected until [`disable`] or [`drain`].
pub fn enable() {
    ENABLED.store(true, Ordering::Release);
}

/// Turns recording off. Already-collected data stays until drained.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether recording is on — the single check every instrumentation point
/// performs before doing any work.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Suppresses the human-readable stderr sink ([`stderr_line`]).
pub fn set_quiet(quiet: bool) {
    QUIET.store(quiet, Ordering::Release);
}

/// The default human-readable sink: one line to stderr, unless quieted.
///
/// Instrumented code emits structured events *and* routes its progress
/// lines here, so CLI output is unchanged while machine-readable data
/// flows to the collector.
pub fn stderr_line(line: &str) {
    if !QUIET.load(Ordering::Relaxed) {
        eprintln!("{line}");
    }
}

pub(crate) fn record(event: TraceEvent) {
    lock_recover(&EVENTS).push(event);
}

/// Peak resident set size of this process in bytes, or 0 where the
/// platform does not expose it.
///
/// On Linux this reads `VmHWM` from `/proc/self/status` — the
/// high-water mark of physical memory the kernel has charged to the
/// process, which is exactly the number a memory budget (e.g. the
/// full-scale forward of `scripts/scale1.sh` at `TP_SCALE=1.0`) should be
/// judged against. Elsewhere it returns 0 so manifests stay
/// schema-stable without a platform guess.
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Everything collected since the last drain: trace events in end-time
/// order plus a snapshot of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct ObsData {
    /// Completed spans and instant events.
    pub events: Vec<TraceEvent>,
    /// Counter/gauge/histogram snapshots, deterministically ordered.
    pub metrics: Vec<MetricSnapshot>,
}

impl ObsData {
    /// The value of counter `name`, or 0 if it was never registered.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .find_map(|m| match m {
                MetricSnapshot::Counter { name: n, value } if n == name => Some(*value),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// The summary of histogram `name`, if it was registered.
    pub fn histogram(&self, name: &str) -> Option<&HistSummary> {
        self.metrics.iter().find_map(|m| match m {
            MetricSnapshot::Histogram { name: n, summary } if n == name => Some(summary),
            _ => None,
        })
    }
}

/// Takes all collected events and snapshots the metrics registry.
///
/// Metrics are cumulative across drains; call [`reset`] to zero them.
pub fn drain() -> ObsData {
    let events = std::mem::take(&mut *lock_recover(&EVENTS));
    ObsData {
        events,
        metrics: metrics::snapshot(),
    }
}

/// Drains and discards all collected data and clears the metrics registry.
pub fn reset() {
    drop(std::mem::take(&mut *lock_recover(&EVENTS)));
    metrics::reset();
}

/// Records an instant event (a point-in-time marker, `ph:"i"` in the
/// chrome trace). No-op when recording is off.
pub fn event(name: &'static str, args: Vec<(&'static str, ArgValue)>) {
    if !is_enabled() {
        return;
    }
    span::record_instant(name, args);
}

/// Records an instant event: `event!("train.divergence", step = 7u64)`.
///
/// Argument expressions are not evaluated when recording is off.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::event($name, ::std::vec::Vec::new())
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        if $crate::is_enabled() {
            $crate::event(
                $name,
                ::std::vec![$((stringify!($key), $crate::ArgValue::from($val))),+],
            );
        }
    };
}

/// Opens a span closed when the returned guard drops:
/// `let _s = span!("epoch", epoch = i);` or positionally
/// `let _s = span!("levelized_prop", level);` (the expression text becomes
/// the argument key). Argument expressions are not evaluated when
/// recording is off.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name, ::std::vec::Vec::new())
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        $crate::SpanGuard::enter(
            $name,
            if $crate::is_enabled() {
                ::std::vec![$((stringify!($key), $crate::ArgValue::from($val))),+]
            } else {
                ::std::vec::Vec::new()
            },
        )
    };
    ($name:expr, $val:expr) => {
        $crate::SpanGuard::enter(
            $name,
            if $crate::is_enabled() {
                ::std::vec![(stringify!($val), $crate::ArgValue::from($val))]
            } else {
                ::std::vec::Vec::new()
            },
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector and the registry are global; tests that enable
    // recording serialize on this lock so they don't see each other's
    // events (unit tests within one binary run on multiple threads).
    pub(crate) static TEST_GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_records_nothing() {
        let _g = lock_recover(&TEST_GUARD);
        disable();
        reset();
        {
            let _s = span!("epoch", epoch = 1usize);
            event!("marker", step = 2u64);
            metrics::count("off.counter", 5);
        }
        let data = drain();
        assert!(data.events.is_empty());
        assert!(data.metrics.is_empty());
    }

    #[test]
    fn obs_data_lookup_helpers_find_metrics_by_name() {
        let _g = lock_recover(&TEST_GUARD);
        reset();
        enable();
        metrics::count("helper.counter", 3);
        metrics::count("helper.counter", 4);
        metrics::observe("helper.hist", 10);
        metrics::observe("helper.hist", 20);
        disable();
        let data = drain();
        assert_eq!(data.counter_value("helper.counter"), 7);
        assert_eq!(data.counter_value("helper.absent"), 0);
        let hist = data.histogram("helper.hist").expect("registered");
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 30);
        assert!(data.histogram("helper.absent").is_none());
        reset();
    }

    #[test]
    fn span_nesting_and_monotonic_timing() {
        let _g = lock_recover(&TEST_GUARD);
        reset();
        enable();
        {
            let _outer = span!("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span!("inner", step = 3usize);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        disable();
        let data = drain();
        assert_eq!(data.events.len(), 2);
        // Inner drops first, so it is recorded first.
        let inner = &data.events[0];
        let outer = &data.events[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.tid, outer.tid);
        // Timing monotonicity: the child starts after the parent and ends
        // no later than the parent.
        assert!(inner.ts_ns >= outer.ts_ns);
        assert!(inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns);
        assert!(outer.dur_ns >= inner.dur_ns);
        assert!(inner.dur_ns > 0);
        assert_eq!(inner.args, vec![("step", ArgValue::UInt(3))]);
    }

    #[test]
    fn positional_span_arg_uses_expression_text() {
        let _g = lock_recover(&TEST_GUARD);
        reset();
        enable();
        let level = 7usize;
        {
            let _s = span!("levelized_prop", level);
        }
        disable();
        let data = drain();
        assert_eq!(data.events[0].args, vec![("level", ArgValue::UInt(7))]);
    }

    #[test]
    fn concurrency_smoke_many_threads_one_collector() {
        let _g = lock_recover(&TEST_GUARD);
        reset();
        enable();
        const THREADS: usize = 8;
        const PER_THREAD: usize = 50;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let _s = span!("worker", thread = t, i = i);
                        metrics::count("smoke.iterations", 1);
                        metrics::observe("smoke.value_ns", (i as u64 + 1) * 100);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker thread must not panic");
        }
        disable();
        let data = drain();
        assert_eq!(data.events.len(), THREADS * PER_THREAD);
        let total = data
            .metrics
            .iter()
            .find_map(|m| match m {
                MetricSnapshot::Counter { name, value } if name == "smoke.iterations" => {
                    Some(*value)
                }
                _ => None,
            })
            .expect("counter snapshot present");
        assert_eq!(total as usize, THREADS * PER_THREAD);
        let hist = data
            .metrics
            .iter()
            .find_map(|m| match m {
                MetricSnapshot::Histogram { name, summary } if name == "smoke.value_ns" => {
                    Some(*summary)
                }
                _ => None,
            })
            .expect("histogram snapshot present");
        assert_eq!(hist.count as usize, THREADS * PER_THREAD);
        assert_eq!(hist.min, 100);
        assert_eq!(hist.max, PER_THREAD as u64 * 100);
        metrics::reset();
    }
}
