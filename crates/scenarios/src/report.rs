//! The deterministic sweep report.
//!
//! `sweep_report.json` is a pure function of the journaled records plus
//! the grid and seed: no timestamps, no host information, no float
//! formatting that could vary between runs (Rust's `Display` for finite
//! floats is exact and stable, and quarantined/skipped records carry
//! zeroed metrics, so NaN never reaches the writer). That purity is what
//! lets the resume tests compare report *bytes* between an interrupted
//! and an uninterrupted sweep.

use std::io::Write as _;
use std::path::Path;

use crate::engine::SweepConfig;
use crate::grid::SweepGrid;
use crate::journal::{CellRecord, CellStatus};

fn push_f32_array(out: &mut String, values: &[f32]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

/// Renders the full report document.
pub fn render_report(grid: &SweepGrid, config: &SweepConfig, records: &[CellRecord]) -> String {
    let completed = records
        .iter()
        .filter(|r| r.status == CellStatus::Completed)
        .count();
    let quarantined = records
        .iter()
        .filter(|r| r.status == CellStatus::Quarantined)
        .count();
    let skipped = records
        .iter()
        .filter(|r| r.status == CellStatus::Skipped)
        .count();
    let retries: u64 = records
        .iter()
        .map(|r| u64::from(r.attempts.saturating_sub(1)))
        .sum();
    let overruns = records.iter().filter(|r| r.deadline_overrun).count();

    let mut out = String::with_capacity(1024 + records.len() * 160);
    out.push_str("{\n  \"schema\": \"tp-scenarios/v1\",\n");
    out.push_str(&format!("  \"seed\": {},\n", config.seed));
    out.push_str(&format!(
        "  \"fingerprint\": \"{:#018x}\",\n",
        grid.fingerprint(config.seed)
    ));
    out.push_str("  \"grid\": {\n    \"designs\": [");
    for (i, d) in grid.designs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&tp_obs::json::escape(d));
    }
    out.push_str("],\n    \"clock_periods_ns\": ");
    push_f32_array(&mut out, &grid.clock_periods_ns);
    out.push_str(",\n    \"utilizations\": ");
    push_f32_array(&mut out, &grid.utilizations);
    out.push_str(",\n    \"scales\": [");
    for (i, s) in grid.scales.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&s.to_string());
    }
    out.push_str("],\n    \"seeds\": [");
    for (i, s) in grid.seeds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&s.to_string());
    }
    out.push_str("],\n    \"corner_sets\": [");
    for (i, c) in grid.corner_sets.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&tp_obs::json::escape(c.label()));
    }
    out.push_str(&format!("],\n    \"cells\": {}\n  }},\n", grid.len()));
    out.push_str(&format!(
        "  \"summary\": {{ \"journaled\": {}, \"completed\": {completed}, \"quarantined\": {quarantined}, \"skipped\": {skipped}, \"retries\": {retries}, \"deadline_overruns\": {overruns} }},\n",
        records.len()
    ));
    out.push_str("  \"cells\": [\n");
    for (i, rec) in records.iter().enumerate() {
        let spec = grid.cell(rec.cell);
        out.push_str(&format!(
            "    {{ \"cell\": {}, \"design\": {}, \"clock_period_ns\": {}, \"utilization\": {}, \"scale\": {}, \"seed\": {}, \"corner_set\": {}, \"status\": {}, \"attempts\": {}, \"deadline_overrun\": {}, \"wns\": {}, \"tns\": {}, \"aux\": {}, \"pins\": {}, \"failure\": {} }}{}\n",
            rec.cell,
            tp_obs::json::escape(&spec.design),
            spec.clock_period_ns,
            spec.utilization,
            spec.scale,
            spec.seed,
            tp_obs::json::escape(spec.corner_set.label()),
            tp_obs::json::escape(rec.status.label()),
            rec.attempts,
            rec.deadline_overrun,
            rec.metrics.wns,
            rec.metrics.tns,
            rec.metrics.aux,
            rec.metrics.pins,
            tp_obs::json::escape(&rec.failure),
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    debug_assert!(
        tp_obs::json::validate(&out).is_ok(),
        "report must be valid JSON"
    );
    out
}

/// Writes the report atomically (tmp sibling + rename, the `.tpck`
/// pattern) so a kill mid-write never leaves a torn report next to a
/// valid journal.
pub fn write_report(
    path: &Path,
    grid: &SweepGrid,
    config: &SweepConfig,
    records: &[CellRecord],
) -> Result<(), std::io::Error> {
    let rendered = render_report(grid, config, records);
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(rendered.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::CellMetrics;

    fn tiny_grid() -> SweepGrid {
        let mut g = SweepGrid::single("usb", 0.02);
        g.seeds = vec![0, 1];
        g
    }

    fn record(cell: u64, status: CellStatus) -> CellRecord {
        CellRecord {
            cell,
            status,
            attempts: if status == CellStatus::Skipped { 0 } else { 1 },
            deadline_overrun: false,
            metrics: if status == CellStatus::Completed {
                CellMetrics {
                    wns: -0.25,
                    tns: -3.5,
                    aux: 0.0,
                    pins: 70,
                }
            } else {
                CellMetrics::default()
            },
            failure: if status == CellStatus::Quarantined {
                "attempt 3 panicked: injected \"quote\"".into()
            } else {
                String::new()
            },
        }
    }

    #[test]
    fn report_is_valid_json_and_deterministic() {
        let grid = tiny_grid();
        let config = SweepConfig::default();
        let records = vec![
            record(0, CellStatus::Completed),
            record(1, CellStatus::Quarantined),
        ];
        let a = render_report(&grid, &config, &records);
        let b = render_report(&grid, &config, &records);
        assert_eq!(a, b);
        tp_obs::json::validate(&a).expect("valid JSON");
        assert!(a.contains("\"quarantined\": 1"));
        assert!(a.contains("\\\"quote\\\""));
        assert!(a.contains("\"wns\": -0.25"));
    }

    #[test]
    fn atomic_write_replaces_and_never_tears() {
        let dir = std::env::temp_dir().join("tp-scenarios-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep_report.json");
        let grid = tiny_grid();
        let config = SweepConfig::default();
        write_report(&path, &grid, &config, &[record(0, CellStatus::Completed)]).unwrap();
        let first = std::fs::read(&path).unwrap();
        write_report(
            &path,
            &grid,
            &config,
            &[
                record(0, CellStatus::Completed),
                record(1, CellStatus::Completed),
            ],
        )
        .unwrap();
        let second = std::fs::read(&path).unwrap();
        assert_ne!(first, second);
        assert!(!path.with_extension("json.tmp").exists());
        tp_obs::json::validate(std::str::from_utf8(&second).unwrap()).unwrap();
    }
}
