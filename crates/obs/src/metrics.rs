//! The metrics registry: named counters, gauges and log2-bucketed
//! histograms behind sharded atomics.
//!
//! Naming convention (DESIGN.md §7): `subsystem.noun[_unit]`, e.g.
//! `train.rollbacks`, `sta.pins_propagated`, `route.net_sinks`,
//! `train.epoch_ns`. Units ride in the suffix (`_ns`, `_bytes`) so
//! exported summaries are self-describing.
//!
//! Hot paths either go through the enabled-gated helpers ([`count`],
//! [`gauge_set`], [`observe`]) or fetch a handle once ([`counter`],
//! [`histogram`]) and record through it inside a `tp_obs::is_enabled()`
//! check, keeping the disabled cost to one relaxed load.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::lock_recover;

const SHARDS: usize = 8;

/// One cache line per shard so concurrent increments do not false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Shard(AtomicU64);

/// A monotonically increasing counter, sharded over cache-line-padded atomics.
#[derive(Debug)]
pub struct Counter {
    shards: [Shard; SHARDS],
}

impl Counter {
    fn new() -> Counter {
        Counter {
            shards: Default::default(),
        }
    }

    /// Adds `n`, picking a shard by the calling thread's id.
    pub fn add(&self, n: u64) {
        let shard = crate::span::tid() as usize % SHARDS;
        self.shards[shard].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sum over all shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A last-value-wins gauge storing an `f64` in atomic bits.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Overwrites the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`.
pub const HIST_BUCKETS: usize = 65;

/// A lock-free histogram over `u64` values (typically nanoseconds) with
/// log2 buckets and min/max/sum tracking.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// The bucket index a value lands in.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive `(low, high)` value range of bucket `i`.
///
/// # Panics
///
/// Panics if `i >= HIST_BUCKETS`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < HIST_BUCKETS, "bucket {i} out of range");
    if i == 0 {
        (0, 0)
    } else if i == 64 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << (i - 1), (1u64 << i) - 1)
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistSummary {
    /// Recorded samples.
    pub count: u64,
    /// Sum of all samples (wrapping beyond `u64::MAX`).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Estimated 50th percentile (bucket midpoint, clamped to min/max).
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Summarizes the current contents.
    pub fn summary(&self) -> HistSummary {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        if count == 0 {
            return HistSummary::default();
        }
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            let target = ((q * count as f64).ceil() as u64).max(1);
            let mut cum = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                cum += c;
                if cum >= target {
                    let (lo, hi) = bucket_bounds(i);
                    let mid = lo / 2 + hi / 2 + (lo & hi & 1);
                    return mid.clamp(min, max);
                }
            }
            max
        };
        HistSummary {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min,
            max,
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }
}

/// Snapshot of one registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSnapshot {
    /// Counter total.
    Counter {
        /// Registered name.
        name: String,
        /// Summed value across shards.
        value: u64,
    },
    /// Gauge value.
    Gauge {
        /// Registered name.
        name: String,
        /// Last value written.
        value: f64,
    },
    /// Histogram summary.
    Histogram {
        /// Registered name.
        name: String,
        /// Count/sum/min/max and estimated quantiles.
        summary: HistSummary,
    },
}

impl MetricSnapshot {
    /// The metric's registered name.
    pub fn name(&self) -> &str {
        match self {
            MetricSnapshot::Counter { name, .. }
            | MetricSnapshot::Gauge { name, .. }
            | MetricSnapshot::Histogram { name, .. } => name,
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// The counter registered as `name`, created on first use.
pub fn counter(name: &str) -> Arc<Counter> {
    let mut map = lock_recover(&registry().counters);
    map.entry(name.to_string())
        .or_insert_with(|| Arc::new(Counter::new()))
        .clone()
}

/// The gauge registered as `name`, created on first use.
pub fn gauge(name: &str) -> Arc<Gauge> {
    let mut map = lock_recover(&registry().gauges);
    map.entry(name.to_string())
        .or_insert_with(|| Arc::new(Gauge::new()))
        .clone()
}

/// The histogram registered as `name`, created on first use.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut map = lock_recover(&registry().histograms);
    map.entry(name.to_string())
        .or_insert_with(|| Arc::new(Histogram::new()))
        .clone()
}

/// Adds `n` to counter `name` if recording is enabled.
pub fn count(name: &str, n: u64) {
    if crate::is_enabled() {
        counter(name).add(n);
    }
}

/// Sets gauge `name` if recording is enabled.
pub fn gauge_set(name: &str, v: f64) {
    if crate::is_enabled() {
        gauge(name).set(v);
    }
}

/// Records `v` into histogram `name` if recording is enabled.
pub fn observe(name: &str, v: u64) {
    if crate::is_enabled() {
        histogram(name).record(v);
    }
}

/// Snapshots every registered metric: counters, then gauges, then
/// histograms, each alphabetically — a deterministic order for manifests
/// and golden files.
pub fn snapshot() -> Vec<MetricSnapshot> {
    let mut out = Vec::new();
    for (name, c) in lock_recover(&registry().counters).iter() {
        out.push(MetricSnapshot::Counter {
            name: name.clone(),
            value: c.value(),
        });
    }
    for (name, g) in lock_recover(&registry().gauges).iter() {
        out.push(MetricSnapshot::Gauge {
            name: name.clone(),
            value: g.value(),
        });
    }
    for (name, h) in lock_recover(&registry().histograms).iter() {
        out.push(MetricSnapshot::Histogram {
            name: name.clone(),
            summary: h.summary(),
        });
    }
    out
}

/// Unregisters every metric. Handles fetched earlier keep working but no
/// longer appear in snapshots.
pub fn reset() {
    lock_recover(&registry().counters).clear();
    lock_recover(&registry().gauges).clear();
    lock_recover(&registry().histograms).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "low bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "high bound of bucket {i}");
            if i + 1 < HIST_BUCKETS {
                assert_eq!(bucket_bounds(i + 1).0, hi.wrapping_add(1));
            }
        }
    }

    #[test]
    fn histogram_summary_quantiles_ordered_and_clamped() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 500_500);
        assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        // p50 of 1..=1000 must land in the bucket containing 500 ([256,511]
        // or [512,1023] depending on rounding) — order of magnitude right.
        assert!((128..=1000).contains(&s.p50), "p50 = {}", s.p50);
    }

    #[test]
    fn empty_histogram_summary_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.summary(), HistSummary::default());
    }

    #[test]
    fn counter_shards_sum() {
        let c = Counter::new();
        c.add(3);
        c.add(4);
        assert_eq!(c.value(), 7);
    }

    #[test]
    fn gauge_last_write_wins() {
        let g = Gauge::new();
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(g.value(), -2.25);
    }
}
