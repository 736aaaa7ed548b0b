//! Tier-2 full-scale smoke (`scripts/scale1.sh`): one benchmark generated
//! at `TP_SCALE` (default 1.0 — the paper's real design sizes), run end to
//! end: placement, routing + four-corner STA, then a no-grad GNN forward
//! with the paper-size model, its propagation levels grouped into
//! `prop_chunk` spans under a `TP_PARTITION_NODES` budget. There is one
//! forward path; the budget changes neither the ops nor the memory held.
//! Writes `run_report.json` to the working directory; the manifest records
//! `peak_rss_bytes` (VmHWM), which the calling script asserts against a
//! documented budget.
//!
//! Run with: `TP_PARTITION_NODES=20000 cargo run --release --example
//! scale1_smoke [design] [scale]`.

use timing_predict::data::DesignGraph;
use timing_predict::gen::{generate, BenchmarkSpec, GeneratorConfig};
use timing_predict::gnn::{ModelConfig, PropPlan, TimingGnn};
use timing_predict::liberty::Library;
use timing_predict::obs;
use timing_predict::place::{place_circuit, PlacementConfig};
use timing_predict::sta::flow::run_full_flow;
use timing_predict::sta::StaConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let design_name = args.get(1).map(String::as_str).unwrap_or("usbf_device");
    let scale: f64 = args
        .get(2)
        .cloned()
        .or_else(|| std::env::var("TP_SCALE").ok())
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let seed = std::env::var("TP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    // Default to a real partition budget, so the manifest records the
    // chunk spans of a full-scale design.
    if timing_predict::partition::partition_nodes() == 0 {
        timing_predict::partition::set_partition_nodes(20_000);
    }
    let budget = timing_predict::partition::partition_nodes();
    let spec = BenchmarkSpec::by_name(design_name).unwrap_or_else(|| {
        eprintln!("unknown benchmark '{design_name}'");
        std::process::exit(2);
    });

    eprintln!("generating {design_name} at scale {scale} (seed {seed})…");
    let library = Library::synthetic_sky130(seed);
    let circuit = generate(
        spec,
        &library,
        &GeneratorConfig {
            scale,
            seed,
            depth: None,
        },
    );
    eprintln!(
        "  {} pins, {} net edges, {} cell edges",
        circuit.num_pins(),
        circuit.num_net_edges(),
        circuit.num_cell_edges()
    );

    let _ = timing_predict::gnn::install_par_metrics();
    obs::enable();
    let wall = std::time::Instant::now();

    let placement = place_circuit(&circuit, &PlacementConfig::default(), seed);
    let sta = StaConfig::default();
    let flow = run_full_flow(&circuit, &placement, &library, &sta);
    let design =
        DesignGraph::from_flow(design_name, false, &circuit, &placement, &library, &flow, &sta);
    let plan = PropPlan::build(&design);
    let model = TimingGnn::new(&ModelConfig::paper());
    let pred = timing_predict::tensor::no_grad(|| model.forward(&design, &plan));

    let wall_ns = wall.elapsed().as_nanos() as u64;
    obs::disable();
    let data = obs::drain();

    let slacks = pred.endpoint_setup_slack(&design);
    let worst = slacks.iter().copied().fold(f32::INFINITY, f32::min);
    let mut report = obs::manifest::RunReport::from_obs("scale1_smoke", seed, wall_ns, &data);
    report
        .config("design", design_name)
        .config("scale", scale)
        .config("partition_nodes", budget)
        .config("threads", timing_predict::par::threads())
        .config("num_pins", design.num_pins);
    report
        .write(std::path::Path::new("run_report.json"))
        .expect("write run_report.json");

    println!(
        "scale1: {design_name} scale {scale} — {} pins, {} endpoints, worst setup slack {worst:.4} ns",
        design.num_pins,
        design.endpoints.len()
    );
    println!(
        "scale1: wall {:.2}s, peak RSS {:.1} MiB (budget: {} nodes/chunk) — run_report.json written",
        wall_ns as f64 / 1e9,
        report.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        budget
    );
}
