//! The run manifest: one JSON document per run capturing seed, config,
//! per-phase wall time and metric summaries.

use std::path::Path;

use crate::export::metrics_json;
use crate::json::{escape, validate};
use crate::metrics::MetricSnapshot;
use crate::span::EventKind;
use crate::ObsData;

/// Aggregated wall time of one top-level phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSummary {
    /// Span name the phase aggregates (e.g. `"epoch"`).
    pub name: String,
    /// Number of spans aggregated.
    pub count: u64,
    /// Total wall time across those spans, nanoseconds.
    pub total_ns: u64,
}

/// A run manifest: seed, config echo, per-phase wall time, metric
/// summaries and caller-supplied extra sections, serialized as one JSON
/// object.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Run kind (e.g. `"train"`).
    pub run: String,
    /// The RNG seed the run used (`TP_SEED`).
    pub seed: u64,
    /// Config echo as ordered key/value string pairs.
    pub config: Vec<(String, String)>,
    /// Total wall time of the run, nanoseconds, measured by the caller.
    pub total_wall_ns: u64,
    /// Peak resident set size in bytes ([`crate::peak_rss_bytes`] at
    /// report construction); 0 where the platform does not expose it.
    pub peak_rss_bytes: u64,
    /// Phase aggregation (see [`RunReport::from_obs`]).
    pub phases: Vec<PhaseSummary>,
    /// Metric snapshots at drain time.
    pub metrics: Vec<MetricSnapshot>,
    /// Extra `(key, json)` sections spliced verbatim into the document.
    pub sections: Vec<(String, String)>,
}

impl RunReport {
    /// Builds a report from drained observability data.
    ///
    /// Phases are the main thread's (`tid == 0`) spans at the *minimum
    /// depth present* on that thread, grouped by name in first-seen order —
    /// for a `fit_with` run those are the `epoch` spans, whose durations
    /// cover (nearly) the whole run, so phase totals sum to within a few
    /// percent of `total_wall_ns`. `tp-par` worker threads open their own
    /// depth-0 spans concurrently with the main thread's; counting those
    /// would double-charge wall time, so only tid 0 aggregates.
    pub fn from_obs(run: &str, seed: u64, total_wall_ns: u64, data: &ObsData) -> RunReport {
        let spans = data
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Span && e.tid == 0);
        let min_depth = spans.clone().map(|e| e.depth).min().unwrap_or(0);
        let mut phases: Vec<PhaseSummary> = Vec::new();
        for e in spans.filter(|e| e.depth == min_depth) {
            match phases.iter_mut().find(|p| p.name == e.name) {
                Some(p) => {
                    p.count += 1;
                    p.total_ns += e.dur_ns;
                }
                None => phases.push(PhaseSummary {
                    name: e.name.to_string(),
                    count: 1,
                    total_ns: e.dur_ns,
                }),
            }
        }
        RunReport {
            run: run.to_string(),
            seed,
            config: Vec::new(),
            total_wall_ns,
            peak_rss_bytes: crate::peak_rss_bytes(),
            phases,
            metrics: data.metrics.clone(),
            sections: Vec::new(),
        }
    }

    /// Appends one config echo entry.
    pub fn config(&mut self, key: &str, value: impl ToString) -> &mut RunReport {
        self.config.push((key.to_string(), value.to_string()));
        self
    }

    /// Appends an extra section; `json` must already be a valid JSON value
    /// (it is spliced into the document verbatim).
    ///
    /// # Panics
    ///
    /// Panics if `json` is not valid JSON — a malformed section would
    /// corrupt the whole manifest.
    pub fn section(&mut self, key: &str, json: String) -> &mut RunReport {
        if let Err(e) = validate(&json) {
            panic!("RunReport section {key:?} is not valid JSON: {e}");
        }
        self.sections.push((key.to_string(), json));
        self
    }

    /// Sum of all phase wall times, nanoseconds.
    pub fn phase_total_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.total_ns).sum()
    }

    /// Serializes the manifest as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"run\": {},\n", escape(&self.run)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"total_wall_ns\": {},\n", self.total_wall_ns));
        out.push_str(&format!("  \"peak_rss_bytes\": {},\n", self.peak_rss_bytes));
        out.push_str("  \"config\": {");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", escape(k), escape(v)));
        }
        out.push_str("},\n");
        out.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"count\": {}, \"total_ns\": {}}}{}\n",
                escape(&p.name),
                p.count,
                p.total_ns,
                if i + 1 < self.phases.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"metrics\": {}", metrics_json(&self.metrics)));
        for (k, v) in &self.sections {
            out.push_str(&format!(",\n  {}: {}", escape(k), v.trim_end()));
        }
        out.push_str("\n}\n");
        out
    }

    /// Writes the manifest to `path`.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from creating or writing the file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{ArgValue, TraceEvent};

    fn span_event(name: &'static str, ts_ns: u64, dur_ns: u64, depth: u32) -> TraceEvent {
        TraceEvent {
            name,
            kind: EventKind::Span,
            ts_ns,
            dur_ns,
            tid: 0,
            depth,
            args: Vec::new(),
        }
    }

    #[test]
    fn phases_aggregate_min_depth_spans_only() {
        let data = ObsData {
            events: vec![
                span_event("prop_level", 10, 5, 2),
                span_event("design", 5, 40, 1),
                span_event("epoch", 0, 50, 0),
                span_event("design", 55, 35, 1),
                span_event("epoch", 50, 45, 0),
                TraceEvent {
                    name: "train.divergence",
                    kind: EventKind::Instant,
                    ts_ns: 60,
                    dur_ns: 0,
                    tid: 0,
                    depth: 1,
                    args: vec![("step", ArgValue::UInt(3))],
                },
            ],
            metrics: Vec::new(),
        };
        let r = RunReport::from_obs("train", 42, 100, &data);
        assert_eq!(
            r.phases,
            vec![PhaseSummary {
                name: "epoch".into(),
                count: 2,
                total_ns: 95,
            }]
        );
        assert_eq!(r.phase_total_ns(), 95);
        // The acceptance bound the workspace holds itself to: phase time
        // sums to within 10% of the total wall time.
        assert!(
            (r.phase_total_ns() as f64 - r.total_wall_ns as f64).abs()
                <= 0.1 * r.total_wall_ns as f64
        );
    }

    #[test]
    fn to_json_validates_with_config_and_sections() {
        let mut r = RunReport::from_obs("train", 7, 1000, &ObsData::default());
        r.config("epochs", 3).config("designs", "s1,s2");
        r.section("divergences", "[{\"step\": 1}]".to_string());
        let j = r.to_json();
        validate(&j).unwrap();
        assert!(j.contains("\"seed\": 7"));
        assert!(j.contains("\"peak_rss_bytes\": "));
        assert!(j.contains("\"epochs\": \"3\""));
        assert!(j.contains("\"divergences\": [{\"step\": 1}]"));
    }

    #[test]
    #[should_panic(expected = "not valid JSON")]
    fn malformed_section_panics() {
        RunReport::default().section("bad", "{oops".to_string());
    }

    #[test]
    fn write_round_trips_through_filesystem() {
        let dir = std::env::temp_dir().join(format!("tp-obs-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run_report.json");
        let r = RunReport::from_obs("smoke", 1, 10, &ObsData::default());
        r.write(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, r.to_json());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
