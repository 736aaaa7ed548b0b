//! The standalone net-embedding model (paper Sec. 3.3.1 / Table 4): learns
//! post-routing net delays from placement geometry alone, compared against
//! a Barboza-style random forest over hand-engineered net statistics.
//!
//! Run with: `cargo run --release --example net_delay_model`

use timing_predict::baselines::stats::{net_delay_features, rf4};
use timing_predict::baselines::ForestConfig;
use timing_predict::data::{r2_score, Dataset, DatasetConfig};
use timing_predict::gen::GeneratorConfig;
use timing_predict::gnn::NetEmbed;
use timing_predict::liberty::Library;
use timing_predict::nn::{optim::Adam, Module};
use timing_predict::tensor::ops::elementwise::mask_rows;

fn main() {
    let library = Library::synthetic_sky130(42);
    let dataset = Dataset::build_suite(
        &library,
        &DatasetConfig {
            generator: GeneratorConfig {
                scale: 0.01,
                seed: 42,
                depth: None,
            },
            ..Default::default()
        },
    );

    // --- random forest over pooled engineered features ---
    eprintln!("fitting random forest baseline…");
    let mut pool = timing_predict::baselines::stats::StatsDataset::default();
    for d in dataset.train() {
        pool.extend(&net_delay_features(d));
    }
    let forest = rf4::ForestPerCorner::fit(&pool, &ForestConfig::default());

    // --- net-embedding GNN trained on the net-delay task ---
    eprintln!("training net-embedding GNN…");
    let gnn = NetEmbed::new(12, &[32, 32], 42);
    let mut opt = Adam::new(gnn.parameters(), 2e-3);
    for _ in 0..60 {
        for d in dataset.train() {
            let h = gnn.embed(d);
            let loss = mask_rows(&gnn.net_delay(&h), &d.sink_mask)
                .mse(&mask_rows(&d.net_delay, &d.sink_mask));
            opt.zero_grad();
            loss.backward();
            timing_predict::nn::optim::clip_grad_norm(&gnn.parameters(), 5.0);
            opt.step();
        }
    }

    println!(
        "{:<7}{:<15}{:>10}{:>10}",
        "split", "design", "RF R²", "GNN R²"
    );
    for d in dataset.designs() {
        let feats = net_delay_features(d);
        let rf = r2_score(&rf4::truth_flat(&feats), &forest.predict_flat(&feats));
        // GNN prediction at sink pins, flattened over 4 corners
        let h = gnn.embed(d);
        let pred = gnn.net_delay(&h);
        let (p, t) = (pred.data(), d.net_delay.data());
        let mut pf = Vec::new();
        let mut tf = Vec::new();
        for i in 0..d.num_pins {
            if d.sink_mask[i] > 0.5 {
                pf.extend_from_slice(&p[i * 4..(i + 1) * 4]);
                tf.extend_from_slice(&t[i * 4..(i + 1) * 4]);
            }
        }
        let gn = r2_score(&tf, &pf);
        println!(
            "{:<7}{:<15}{:>10.4}{:>10.4}",
            if d.is_train { "train" } else { "TEST" },
            d.name,
            rf,
            gn
        );
    }
    println!(
        "\n(for the full Table 4 protocol run `cargo run --release -p tp-bench --bin table4`)"
    );
}
