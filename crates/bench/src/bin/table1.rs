//! Regenerates **Table 1**: benchmark statistics (#nodes, net/cell edges,
//! #endpoints) with the 14/7 train/test split and the Total rows.
//!
//! The "target" columns show the paper's full-size numbers scaled by
//! `TP_SCALE`, so proportionality to Table 1 is visible at any scale.

use tp_bench::{print_table, ExperimentConfig};
use tp_gen::{generate, Split, BENCHMARKS};
use tp_graph::CircuitStats;
use tp_liberty::Library;

fn main() {
    let cfg = ExperimentConfig::from_env();
    let library = Library::synthetic_sky130(cfg.seed);
    let gen_cfg = cfg.dataset_config().generator;

    let mut rows = Vec::new();
    let mut totals = [CircuitStats::default(), CircuitStats::default()];
    for spec in &BENCHMARKS {
        let circuit = generate(spec, &library, &gen_cfg);
        let s = circuit.stats();
        let split_ix = if spec.split == Split::Train { 0 } else { 1 };
        totals[split_ix].accumulate(s);
        rows.push(vec![
            spec.name.to_string(),
            if spec.split == Split::Train {
                "train"
            } else {
                "test"
            }
            .to_string(),
            s.nodes.to_string(),
            s.net_edges.to_string(),
            s.cell_edges.to_string(),
            s.endpoints.to_string(),
            format!("{:.0}", spec.nodes as f64 * cfg.scale),
            format!("{:.0}", spec.endpoints as f64 * cfg.scale),
        ]);
    }
    rows.push(vec![
        "Total Train".into(),
        "train".into(),
        totals[0].nodes.to_string(),
        totals[0].net_edges.to_string(),
        totals[0].cell_edges.to_string(),
        totals[0].endpoints.to_string(),
        format!("{:.0}", 920_301.0 * cfg.scale),
        format!("{:.0}", 34_067.0 * cfg.scale),
    ]);
    rows.push(vec![
        "Total Test".into(),
        "test".into(),
        totals[1].nodes.to_string(),
        totals[1].net_edges.to_string(),
        totals[1].cell_edges.to_string(),
        totals[1].endpoints.to_string(),
        format!("{:.0}", 624_232.0 * cfg.scale),
        format!("{:.0}", 21_977.0 * cfg.scale),
    ]);

    print_table(
        &format!("Table 1 — benchmark statistics (scale {:.4})", cfg.scale),
        &[
            "Benchmark",
            "Split",
            "#Nodes",
            "#Net",
            "#Cell",
            "#Endpoints",
            "target nodes",
            "target EP",
        ],
        &rows,
    );
}
