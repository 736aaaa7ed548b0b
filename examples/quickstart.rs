//! Quickstart: build a small circuit, analyze it with the reference STA
//! flow, train the timing GNN on it for a few epochs, and compare the
//! predicted endpoint slack against ground truth.
//!
//! Run with: `cargo run --release --example quickstart`

use timing_predict::data::{Dataset, DatasetConfig, DesignGraph};
use timing_predict::gen::{generate, GeneratorConfig, BENCHMARKS};
use timing_predict::gnn::{ModelConfig, TimingGnn, TrainConfig, Trainer};
use timing_predict::liberty::Library;
use timing_predict::place::{place_circuit, PlacementConfig};
use timing_predict::sta::flow::run_full_flow;
use timing_predict::sta::StaConfig;

fn main() {
    // 1. A synthetic cell library standing in for SkyWater 130 nm.
    let library = Library::synthetic_sky130(1);

    // 2. Generate a small instance of the `usb` benchmark and place it.
    let gen_cfg = GeneratorConfig {
        scale: 0.05,
        seed: 7,
        depth: None,
    };
    let spec = BENCHMARKS
        .iter()
        .find(|b| b.name == "usb")
        .expect("known benchmark");
    let circuit = generate(spec, &library, &gen_cfg);
    println!("generated `{}`: {}", circuit.name(), circuit.stats());

    let placement = place_circuit(&circuit, &PlacementConfig::default(), 3);
    println!(
        "placed on a {:.0}×{:.0} µm die",
        placement.die().width,
        placement.die().height
    );

    // 3. Reference flow: Steiner routing + Elmore + 4-corner levelized STA.
    let sta_cfg = StaConfig::default();
    let flow = run_full_flow(&circuit, &placement, &library, &sta_cfg);
    println!(
        "reference flow: route {:.1} ms + STA {:.1} ms, critical path {:.3} ns",
        flow.routing_seconds * 1e3,
        flow.sta_seconds * 1e3,
        flow.report.critical_path_delay()
    );

    // 4. Lower to tensors and train the timer-inspired GNN briefly.
    let design = DesignGraph::from_flow(
        spec.name, true, &circuit, &placement, &library, &flow, &sta_cfg,
    );
    let dataset = Dataset::from_designs(vec![design]);
    let model = TimingGnn::new(&ModelConfig {
        embed_dim: 8,
        prop_dim: 12,
        hidden: vec![16],
        seed: 1,
        ablation: Default::default(),
    });
    let mut trainer = Trainer::new(
        model,
        TrainConfig {
            epochs: 400, // one design in the set => one step per epoch
            ..Default::default()
        },
    );
    trainer.fit(&dataset);

    // 5. Predict endpoint slack and compare.
    let design = &dataset.designs()[0];
    let pred = trainer.predict(design);
    let truth = design.endpoint_setup_slack();
    let predicted = pred.endpoint_setup_slack(design);
    println!("\nendpoint   truth(ns)   predicted(ns)");
    for (i, (t, p)) in truth.iter().zip(&predicted).enumerate().take(8) {
        println!("{i:>8}   {t:>9.4}   {p:>13.4}");
    }
    let r2 = timing_predict::data::r2_score(&truth, &predicted);
    println!("\nsetup-slack R² after 400 steps on one design: {r2:.4}");
    let _ = DatasetConfig::default(); // referenced so the import list shows the full API surface
}
