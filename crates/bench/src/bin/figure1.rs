//! Regenerates **Figure 1**: the receptive-field limitation of K-layer
//! GNNs. For sampled endpoints of each test design we measure (a) the
//! fraction of the pin graph visible within K undirected hops and (b) the
//! hop depth actually required to cover the endpoint's full fan-in cone —
//! the depth a conventional GNN would need to emulate a timing engine
//! (≈ the logic depth, Sec. 3.1).

use tp_bench::{print_table, ExperimentConfig};
use tp_gen::{generate, BENCHMARKS};
use tp_graph::receptive;
use tp_liberty::Library;

fn main() {
    let cfg = ExperimentConfig::from_env();
    let library = Library::synthetic_sky130(cfg.seed);
    let gen_cfg = cfg.dataset_config().generator;
    let hops = [1usize, 2, 4, 8, 16, 32];

    let mut rows = Vec::new();
    for spec in BENCHMARKS.iter().filter(|s| s.split == tp_gen::Split::Test) {
        let circuit = generate(spec, &library, &gen_cfg);
        let report = receptive::report(&circuit, &hops, 32);
        let mut row = vec![spec.name.to_string()];
        for c in &report.coverage {
            row.push(format!("{:.1}%", 100.0 * c));
        }
        row.push(format!("{:.0}", report.mean_required_depth));
        row.push(report.max_required_depth.to_string());
        rows.push(row);
    }

    print_table(
        &format!(
            "Figure 1 — GNN receptive field coverage at K hops (scale {:.4})",
            cfg.scale
        ),
        &[
            "Benchmark",
            "K=1",
            "K=2",
            "K=4",
            "K=8",
            "K=16",
            "K=32",
            "mean req. depth",
            "max req. depth",
        ],
        &rows,
    );
    println!(
        "\nA K-layer GNN aggregates only the K-hop neighborhood (left columns);\n\
         covering an endpoint's fan-in cone needs the 'required depth' on the\n\
         right — tens of hops even at this scale, hundreds at full design size.\n\
         The levelized propagation model covers it in ONE pass regardless."
    );
}
