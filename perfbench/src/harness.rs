//! Measurement plumbing shared by every workload: the metric catalogue,
//! the timed op loop, per-layer stopwatches, digests and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics: every untraced run prints all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("pins_per_s", "pins/s"),
    ("ops_per_s", "1/s"),
    ("op_ms", "ms"),
];

/// Per-layer metrics: every traced run prints all of them; a layer the
/// workload does not drive reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // label_flow
    ("gen.generate_s", "s"),
    ("place.place_circuit_s", "s"),
    ("route.route_circuit_s", "s"),
    ("sta.run_with_routing_s", "s"),
    ("data.from_flow_s", "s"),
    ("route.nets_routed", "count"),
    ("sta.pins_propagated", "count"),
    // train_epoch
    ("data.build_suite_s", "s"),
    ("gnn.train_step_s", "s"),
    ("gnn.step_rest_s", "s"),
    ("train.committed_step_ratio", "ratio"),
    // train_epoch and infer_full
    ("gnn.net_embed_s", "s"),
    ("gnn.propagation_s", "s"),
    // infer_full
    ("gnn.plan_build_s", "s"),
    ("gnn.forward_s", "s"),
    ("gnn.forward_self_s", "s"),
    ("tensor.pool.hit_ratio", "ratio"),
    ("tensor.pool.high_water_mib", "MiB"),
    ("tensor.pool.held_mib", "MiB"),
    ("partition.chunks", "count"),
    ("infer.monolithic_peak_rss_mib", "MiB"),
    // serve_eco
    ("serve.register_s", "s"),
    ("serve.move_pins_p50_ms", "ms"),
    ("serve.slack_p50_ms", "ms"),
    ("serve.predict_p50_ms", "ms"),
    ("serve.request_tail_ms", "ms"),
    ("serve.handler_p50_ms", "ms"),
    ("serve.wire_mean_ms", "ms"),
    ("serve.recomputed_rows_per_move", "rows"),
    ("serve.prediction_hash_ms", "ms"),
    ("serve.session_prediction_ms", "ms"),
    ("serve.overloaded", "count"),
    ("serve.timeouts", "count"),
    // every workload
    ("warmup_s", "s"),
    ("obs.overhead_pct", "%"),
    ("wall.unaccounted_pct", "%"),
    ("error_rate", "fraction"),
];

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile of `v` (0 for an empty slice).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The tail percentile `n` samples support: the highest percentile, up to
/// 99, with at least ten samples beyond it; the median when there are too
/// few samples for any tail.
pub fn tail_percentile(n: usize) -> f64 {
    (100.0 * (1.0 - 10.0 / n.max(1) as f64)).clamp(50.0, 99.0)
}

/// Seconds `f` took, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// Accumulated wall seconds per layer call, timed around the public
/// function the benchmark calls.
#[derive(Debug, Default)]
pub struct Layers {
    totals: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Runs `f`, charging its wall time to `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let (s, r) = timed(f);
        self.add(layer, s);
        r
    }

    /// Charges `seconds` to `layer`.
    pub fn add(&mut self, layer: &'static str, seconds: f64) {
        *self.totals.entry(layer).or_default() += seconds;
    }

    /// Total seconds charged to `layer`.
    pub fn total(&self, layer: &str) -> f64 {
        self.totals.get(layer).copied().unwrap_or(0.0)
    }

    /// Forgets every total.
    pub fn clear(&mut self) {
        self.totals.clear();
    }
}

/// One measured phase: per-op program time and the pins those ops covered.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Seconds of program time each op took (benchmark-side checks excluded).
    pub op_s: Vec<f64>,
    /// Wall seconds the phase spanned, checks included.
    pub wall_s: f64,
    /// Seconds the ops were busy: the sum of `op_s` for serial workloads,
    /// the span `op_s` was drawn from for concurrent ones.
    pub busy_s: f64,
    /// Ops overlapped (concurrent clients): throughput is ops over
    /// `busy_s` and `op_ms` the median. Serial ops run back to back, so
    /// every timing metric derives from the fastest op (see
    /// [`Outcome::metrics`]).
    pub concurrent: bool,
    /// Pins the ops processed.
    pub pins: u64,
}

impl Phase {
    /// Median op seconds.
    pub fn p50_s(&self) -> f64 {
        median(&self.op_s)
    }

    /// The op seconds the timing metrics rest on: the median of
    /// concurrent ops, the fastest of serial ones.
    pub fn typical_s(&self) -> f64 {
        if self.concurrent {
            self.p50_s()
        } else {
            percentile(&self.op_s, 0.0)
        }
    }
}

/// Runs `op` until `seconds` of wall have passed (and at least `min_ops`
/// times). `op` returns the seconds of program time it spent and the pins
/// it processed, so benchmark-side checks stay out of the op time.
pub fn measure(seconds: f64, min_ops: usize, mut op: impl FnMut() -> (f64, u64)) -> Phase {
    let start = Instant::now();
    let mut phase = Phase::default();
    while phase.op_s.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        let (s, pins) = op();
        phase.op_s.push(s);
        phase.pins += pins;
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.busy_s = phase.op_s.iter().sum();
    phase
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds of warm-up before the first measured op.
    pub warmup_s: f64,
    /// The untraced phase (end-to-end metrics come from here).
    pub untraced: Phase,
    /// The traced phase (trace runs only).
    pub traced: Option<Phase>,
    /// Ops and checks attempted.
    pub attempted: u64,
    /// Ops and checks that failed.
    pub failed: u64,
    /// Per-layer metrics the workload computed.
    pub layer: BTreeMap<&'static str, f64>,
    /// Inputs and knobs echoed with the result.
    pub config: Vec<(String, String)>,
    /// Output digests, printed so two runs can be compared.
    pub digests: Vec<(String, String)>,
}

impl Outcome {
    /// Records one check: counts it attempted, and failed unless `ok`.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what.into());
        }
    }

    /// Echoes one config key.
    pub fn echo(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_string(), value.to_string()));
    }

    /// Sets one per-layer metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layer.insert(name, value);
    }

    /// Failed over attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The traced phase's wall share that no timed layer covers, given the
    /// per-op layer seconds that partition an op.
    pub fn set_unaccounted(&mut self, top_level_per_op: f64) {
        if let Some(t) = &self.traced {
            let per_op = t.busy_s / t.op_s.len().max(1) as f64;
            self.set(
                "wall.unaccounted_pct",
                100.0 * (1.0 - top_level_per_op / per_op),
            );
        }
    }

    /// The metrics printed for this run: end-to-end untraced, per-layer
    /// traced.
    ///
    /// Serial workloads report the fastest op. On a shared two-core host,
    /// other tenants slow whole stretches of seconds by up to 1.5×, so the
    /// median op of a run moves with how much of the run such a stretch
    /// covered; the fastest op measures the program's own cost.
    pub fn metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        if trace {
            let mut layer = self.layer.clone();
            layer.insert("warmup_s", self.warmup_s);
            layer.insert("error_rate", self.error_rate());
            if let Some(t) = &self.traced {
                let base = self.untraced.typical_s();
                if base > 0.0 {
                    layer.insert("obs.overhead_pct", 100.0 * (t.typical_s() / base - 1.0));
                }
            }
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, layer.get(n).copied().unwrap_or(0.0), u))
                .collect()
        } else {
            let p = &self.untraced;
            let ops = p.op_s.len().max(1) as f64;
            let typical = p.typical_s().max(f64::MIN_POSITIVE);
            let per_s = if p.concurrent {
                ops / p.busy_s.max(f64::MIN_POSITIVE)
            } else {
                1.0 / typical
            };
            let values = [
                median(&self.setup_s),
                tp_obs::peak_rss_bytes() as f64 / MIB,
                per_s * p.pins as f64 / ops,
                per_s,
                1e3 * typical,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(n, u), v)| (n, v, u))
                .collect()
        }
    }
}

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = outcome
        .metrics(trace)
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// FNV-1a over a stream of `f32` bit patterns.
pub fn digest_f32(values: impl IntoIterator<Item = f32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// SplitMix64: the benchmark's own input stream, independent of the
/// program's RNG so inputs cannot drift with it.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded from `seed` and a per-purpose `stream` id.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Sums the durations of completed tp-obs spans named `name`, in seconds.
pub fn span_seconds(data: &tp_obs::ObsData, name: &str) -> f64 {
    data.events
        .iter()
        .filter(|e| e.name == name && matches!(e.kind, tp_obs::EventKind::Span))
        .map(|e| e.dur_ns as f64 / 1e9)
        .sum()
}
