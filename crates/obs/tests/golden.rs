//! Golden-file tests: the chrome-trace and JSONL exporters must produce
//! byte-identical output for a fixed synthetic event stream. A diff here
//! means the export format changed — update the goldens deliberately
//! (`TP_OBS_BLESS=1 cargo test -p tp-obs --test golden`) and note the
//! format change in DESIGN.md §7.

use std::path::PathBuf;

use tp_obs::export::{bench_json, chrome_trace, jsonl, BenchEntry};
use tp_obs::manifest::RunReport;
use tp_obs::{ArgValue, EventKind, MetricSnapshot, ObsData, TraceEvent};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn fixed_events() -> Vec<TraceEvent> {
    vec![
        TraceEvent {
            name: "prop_level",
            kind: EventKind::Span,
            ts_ns: 1_200,
            dur_ns: 800,
            tid: 0,
            depth: 2,
            args: vec![("level", ArgValue::UInt(0)), ("pins", ArgValue::UInt(16))],
        },
        TraceEvent {
            name: "levelized_prop",
            kind: EventKind::Span,
            ts_ns: 1_000,
            dur_ns: 1_500,
            tid: 0,
            depth: 1,
            args: vec![("levels", ArgValue::UInt(4))],
        },
        TraceEvent {
            name: "train.divergence",
            kind: EventKind::Instant,
            ts_ns: 2_750,
            dur_ns: 0,
            tid: 0,
            depth: 1,
            args: vec![
                ("step", ArgValue::UInt(7)),
                ("design", ArgValue::Str("s27\"x".into())),
                ("lr_after", ArgValue::Float(0.0005)),
                ("recovered", ArgValue::Bool(true)),
            ],
        },
        TraceEvent {
            name: "epoch",
            kind: EventKind::Span,
            ts_ns: 500,
            dur_ns: 4_000,
            tid: 0,
            depth: 0,
            args: vec![
                ("epoch", ArgValue::UInt(0)),
                ("loss", ArgValue::Float(1.25)),
            ],
        },
    ]
}

fn check_golden(file: &str, actual: &str) {
    let path = golden_dir().join(file);
    if std::env::var("TP_OBS_BLESS").is_ok() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "{file} drifted from its golden copy; re-bless with TP_OBS_BLESS=1 if intentional"
    );
}

#[test]
fn chrome_trace_matches_golden() {
    let trace = chrome_trace(&fixed_events());
    tp_obs::json::validate(&trace).unwrap();
    check_golden("trace.json", &trace);
}

#[test]
fn jsonl_matches_golden() {
    let out = jsonl(&fixed_events());
    for line in out.lines() {
        tp_obs::json::validate(line).unwrap();
    }
    check_golden("events.jsonl", &out);
}

#[test]
fn run_report_matches_golden() {
    let data = ObsData {
        events: fixed_events(),
        metrics: vec![
            MetricSnapshot::Counter {
                name: "sta.pins_propagated".into(),
                value: 4096,
            },
            MetricSnapshot::Gauge {
                name: "train.last_loss".into(),
                value: 1.25,
            },
            MetricSnapshot::Histogram {
                name: "train.step_ns".into(),
                summary: tp_obs::HistSummary {
                    count: 3,
                    sum: 700,
                    min: 100,
                    max: 400,
                    p50: 192,
                    p95: 384,
                    p99: 384,
                },
            },
        ],
    };
    let mut report = RunReport::from_obs("train", 42, 4_100, &data);
    // Pin the live VmHWM reading so the golden stays byte-stable.
    report.peak_rss_bytes = 123_456_789;
    report.config("epochs", 1).config("designs", "s27");
    report.section("divergences", "[{\"epoch\": 0, \"step\": 7}]".to_string());
    let json = report.to_json();
    tp_obs::json::validate(&json).unwrap();
    // Phase aggregation invariant: the single depth-0 epoch span accounts
    // for (within 10% of) the total wall time.
    assert!(
        (report.phase_total_ns() as f64 - report.total_wall_ns as f64).abs()
            <= 0.1 * report.total_wall_ns as f64
    );
    check_golden("run_report.json", &json);
}

#[test]
fn bench_json_matches_golden() {
    let entries = vec![
        BenchEntry {
            name: "fit_epoch".into(),
            median_ns: 1250000.5,
            mean_ns: 1300000.25,
            min_ns: 1200000.0,
            max_ns: 1500000.0,
            iters_per_sample: 4,
            samples: 3,
        },
        BenchEntry {
            name: "sta_full_flow".into(),
            median_ns: 98000.0,
            mean_ns: 99500.5,
            min_ns: 95000.0,
            max_ns: 110000.0,
            iters_per_sample: 32,
            samples: 3,
        },
    ];
    let config = vec![
        ("tp_scale".to_string(), "0.02".to_string()),
        ("tp_partition_nodes".to_string(), "0".to_string()),
    ];
    let json = bench_json("train", 1, &config, &entries);
    tp_obs::json::validate(&json).unwrap();
    check_golden("BENCH_train.json", &json);
}
