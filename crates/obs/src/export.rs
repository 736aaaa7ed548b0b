//! Exporters: chrome-trace JSON, flat JSONL, metric summaries and the
//! `BENCH_*.json` schema shared with `tp_bench::micro`.

use std::io::Write as _;
use std::path::Path;

use crate::json::{escape, fmt_f64};
use crate::metrics::MetricSnapshot;
use crate::span::{ArgValue, EventKind, TraceEvent};

fn arg_json(v: &ArgValue) -> String {
    match v {
        ArgValue::Int(i) => format!("{i}"),
        ArgValue::UInt(u) => format!("{u}"),
        ArgValue::Float(f) => fmt_f64(*f),
        ArgValue::Str(s) => escape(s),
        ArgValue::Bool(b) => format!("{b}"),
    }
}

fn args_json(args: &[(&'static str, ArgValue)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{}: {}", escape(k), arg_json(v)));
    }
    out.push('}');
    out
}

/// Serializes events in the chrome trace event format, loadable in
/// `about:tracing` and Perfetto.
///
/// Spans become complete events (`ph:"X"`) and instants become `ph:"i"`
/// markers; timestamps and durations are microseconds (the format's unit),
/// carried as fractional numbers so nanosecond resolution survives. The
/// span nesting `depth` rides along in `args` — the viewers reconstruct
/// nesting from `ts`/`dur` overlap per `tid`, but the explicit depth keeps
/// the flat JSON self-describing.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        let ph = match e.kind {
            EventKind::Span => "X",
            EventKind::Instant => "i",
        };
        let ts_us = e.ts_ns as f64 / 1e3;
        out.push_str(&format!(
            "  {{\"name\": {}, \"ph\": \"{ph}\", \"ts\": {}, ",
            escape(e.name),
            fmt_f64(ts_us),
        ));
        if e.kind == EventKind::Span {
            out.push_str(&format!("\"dur\": {}, ", fmt_f64(e.dur_ns as f64 / 1e3)));
        } else {
            out.push_str("\"s\": \"t\", ");
        }
        let mut args = vec![("depth", ArgValue::UInt(e.depth as u64))];
        args.extend(e.args.iter().cloned());
        out.push_str(&format!(
            "\"pid\": 1, \"tid\": {}, \"args\": {}}}{}\n",
            e.tid,
            args_json(&args),
            if i + 1 < events.len() { "," } else { "" },
        ));
    }
    out.push_str("]}\n");
    out
}

/// Serializes events as JSONL: one self-contained JSON object per line,
/// nanosecond timestamps, grep/jq-friendly.
pub fn jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let kind = match e.kind {
            EventKind::Span => "span",
            EventKind::Instant => "instant",
        };
        out.push_str(&format!(
            "{{\"name\": {}, \"kind\": \"{kind}\", \"ts_ns\": {}, \"dur_ns\": {}, \
             \"tid\": {}, \"depth\": {}, \"args\": {}}}\n",
            escape(e.name),
            e.ts_ns,
            e.dur_ns,
            e.tid,
            e.depth,
            args_json(&e.args),
        ));
    }
    out
}

/// Serializes metric snapshots as a JSON array (deterministic order —
/// counters, gauges, histograms, each alphabetical, as produced by
/// [`crate::metrics::snapshot`]).
pub fn metrics_json(metrics: &[MetricSnapshot]) -> String {
    let mut out = String::from("[\n");
    for (i, m) in metrics.iter().enumerate() {
        let row = match m {
            MetricSnapshot::Counter { name, value } => format!(
                "    {{\"metric\": {}, \"type\": \"counter\", \"value\": {value}}}",
                escape(name),
            ),
            MetricSnapshot::Gauge { name, value } => format!(
                "    {{\"metric\": {}, \"type\": \"gauge\", \"value\": {}}}",
                escape(name),
                fmt_f64(*value),
            ),
            MetricSnapshot::Histogram { name, summary: s } => format!(
                "    {{\"metric\": {}, \"type\": \"histogram\", \"count\": {}, \
                 \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \
                 \"p99\": {}}}",
                escape(name),
                s.count,
                s.sum,
                s.min,
                s.max,
                s.p50,
                s.p95,
                s.p99,
            ),
        };
        out.push_str(&row);
        out.push_str(if i + 1 < metrics.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
    out
}

/// One benchmark row in a `BENCH_*.json` file — the schema `tp_bench`'s
/// micro harness emits and `scripts/bench.sh` collects.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
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

/// Serializes a bench suite in the `BENCH_*.json` schema.
///
/// This is the single source of truth for that layout —
/// `tp_bench::micro::Suite::to_json` delegates here, so trace-derived
/// timings and micro-bench timings stay byte-compatible for downstream
/// tooling. `threads` records the `tp-par` worker count the suite ran
/// under, so single- and multi-thread artifacts are distinguishable, and
/// `config` echoes the knobs the numbers depend on (`TP_SCALE`,
/// `TP_PARTITION_NODES`, ...) as ordered key/value pairs.
pub fn bench_json(
    suite: &str,
    threads: usize,
    config: &[(String, String)],
    entries: &[BenchEntry],
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"suite\": {},\n", escape(suite)));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str("  \"config\": {");
    for (i, (k, v)) in config.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{}: {}", escape(k), escape(v)));
    }
    out.push_str("},\n");
    out.push_str("  \"results\": [\n");
    for (i, r) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"median_ns\": {}, \"mean_ns\": {}, \
             \"min_ns\": {}, \"max_ns\": {}, \"iters_per_sample\": {}, \
             \"samples\": {}}}{}\n",
            escape(&r.name),
            r.median_ns,
            r.mean_ns,
            r.min_ns,
            r.max_ns,
            r.iters_per_sample,
            r.samples,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn write_file(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(contents.as_bytes())?;
    f.into_inner().map_err(|e| e.into_error())?.sync_all()
}

/// Writes [`chrome_trace`] output to `path`.
///
/// # Errors
///
/// Propagates any I/O error from creating or writing the file.
pub fn write_chrome_trace(path: &Path, events: &[TraceEvent]) -> std::io::Result<()> {
    write_file(path, &chrome_trace(events))
}

/// Writes [`jsonl`] output to `path`.
///
/// # Errors
///
/// Propagates any I/O error from creating or writing the file.
pub fn write_jsonl(path: &Path, events: &[TraceEvent]) -> std::io::Result<()> {
    write_file(path, &jsonl(events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistSummary;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                name: "inner",
                kind: EventKind::Span,
                ts_ns: 1500,
                dur_ns: 250,
                tid: 0,
                depth: 1,
                args: vec![("level", ArgValue::UInt(3))],
            },
            TraceEvent {
                name: "marker",
                kind: EventKind::Instant,
                ts_ns: 1800,
                dur_ns: 0,
                tid: 1,
                depth: 0,
                args: vec![("msg", ArgValue::Str("a\"b".into()))],
            },
        ]
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_fields() {
        let t = chrome_trace(&sample_events());
        crate::json::validate(&t).unwrap();
        assert!(t.contains("\"ph\": \"X\""));
        assert!(t.contains("\"ph\": \"i\""));
        assert!(t.contains("\"ts\": 1.5"));
        assert!(t.contains("\"dur\": 0.25"));
        assert!(t.contains("\"level\": 3"));
        assert!(t.contains("\"msg\": \"a\\\"b\""));
    }

    #[test]
    fn jsonl_lines_each_validate() {
        let out = jsonl(&sample_events());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            crate::json::validate(line).unwrap();
        }
        assert!(out.contains("\"kind\": \"span\""));
        assert!(out.contains("\"ts_ns\": 1500"));
    }

    #[test]
    fn metrics_json_validates_and_covers_all_kinds() {
        let metrics = vec![
            MetricSnapshot::Counter {
                name: "a.count".into(),
                value: 7,
            },
            MetricSnapshot::Gauge {
                name: "b.gauge".into(),
                value: 1.25,
            },
            MetricSnapshot::Histogram {
                name: "c.hist_ns".into(),
                summary: HistSummary {
                    count: 2,
                    sum: 30,
                    min: 10,
                    max: 20,
                    p50: 12,
                    p95: 20,
                    p99: 20,
                },
            },
        ];
        let j = metrics_json(&metrics);
        crate::json::validate(&j).unwrap();
        assert!(j.contains("\"type\": \"counter\""));
        assert!(j.contains("\"p95\": 20"));
    }

    #[test]
    fn bench_json_matches_micro_schema() {
        let entries = vec![BenchEntry {
            name: "a\\b".into(),
            median_ns: 1.5,
            mean_ns: 1.5,
            min_ns: 1.0,
            max_ns: 2.0,
            iters_per_sample: 10,
            samples: 3,
        }];
        let config = vec![("scale".to_string(), "0.02".to_string())];
        let j = bench_json("json\"test", 4, &config, &entries);
        crate::json::validate(&j).unwrap();
        assert!(j.contains("\"suite\": \"json\\\"test\""));
        assert!(j.contains("\"threads\": 4"));
        assert!(j.contains("\"config\": {\"scale\": \"0.02\"}"));
        assert!(j.contains("\"name\": \"a\\\\b\""));
        assert!(j.contains("\"median_ns\": 1.5"));
    }
}
