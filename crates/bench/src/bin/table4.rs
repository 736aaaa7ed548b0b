//! Regenerates **Table 4**: net-delay prediction R² — statistics-based
//! random forest and MLP (Barboza et al. \[5\]) vs. the paper's net-embedding
//! GNN, per design plus train/test averages.

use tp_baselines::stats::{net_delay_features, rf4, Standardizer, StatsDataset, STATS_FEATURES};
use tp_baselines::ForestConfig;
use tp_bench::{build_dataset, fmt_r2, print_table, ExperimentConfig};
use tp_data::{r2_score, Dataset};
use tp_gnn::NetEmbed;
use tp_nn::{optim::Adam, Mlp, Module};
use tp_tensor::Tensor;

/// Floor added before the log target transform (scaled net-delay units).
const LOG_EPS: f32 = 1e-3;

/// Trains the statistics MLP with minibatches over pooled rows.
fn train_stats_mlp(pool: &StatsDataset, seed: u64, steps: usize) -> Mlp {
    let mut rng = tp_rng::StdRng::seed_from_u64(seed);
    let mlp = Mlp::new(STATS_FEATURES, &[64, 64, 64], 4, &mut rng);
    let mut opt = Adam::new(mlp.parameters(), 1e-3);
    let n = pool.len();
    let batch = 2048.min(n);
    use tp_rng::Rng;
    for step in 0..steps {
        let t = step as f32 / steps.max(2) as f32;
        opt.set_lr(1e-3 * (0.05 + 0.95 * 0.5 * (1.0 + (std::f32::consts::PI * t).cos())));
        let mut bx = Vec::with_capacity(batch * STATS_FEATURES);
        let mut by: Vec<f32> = Vec::with_capacity(batch * 4);
        for _ in 0..batch {
            let i = rng.gen_range(0..n);
            bx.extend_from_slice(&pool.x[i * STATS_FEATURES..(i + 1) * STATS_FEATURES]);
            by.extend_from_slice(&pool.y[i]);
        }
        // log-compress the heavy-tailed delay targets: errors become
        // relative, so small-net designs are weighted fairly
        for v in by.iter_mut() {
            *v = (*v + LOG_EPS).ln();
        }
        let x = Tensor::from_vec(bx, &[batch, STATS_FEATURES]).expect("consistent batch");
        let y = Tensor::from_vec(by, &[batch, 4]).expect("consistent batch");
        let loss = mlp.forward(&x).mse(&y);
        opt.zero_grad();
        loss.backward();
        tp_nn::optim::clip_grad_norm(&mlp.parameters(), 5.0);
        opt.step();
    }
    mlp
}

fn mlp_r2(mlp: &Mlp, data: &StatsDataset) -> f64 {
    let x =
        Tensor::from_vec(data.x.clone(), &[data.len(), STATS_FEATURES]).expect("consistent rows");
    // invert the log training transform
    let pred: Vec<f32> = mlp
        .forward(&x)
        .to_vec()
        .iter()
        .map(|v| v.exp() - LOG_EPS)
        .collect();
    let truth = rf4::truth_flat(data);
    r2_score(&truth, &pred)
}

/// Trains the standalone net-embedding GNN on the net-delay task only, in
/// log space (same relative-error weighting as the MLP baseline).
fn train_net_gnn(dataset: &Dataset, cfg: &ExperimentConfig) -> NetEmbed {
    let model = NetEmbed::new(cfg.embed_dim, &[cfg.hidden, cfg.hidden], cfg.seed);
    let mut opt = Adam::new(model.parameters(), 2e-3);
    let log_truth: Vec<Tensor> = dataset
        .train()
        .map(|d| d.net_delay.add_scalar(LOG_EPS).ln())
        .collect();
    for epoch in 0..cfg.epochs {
        // cosine decay as in the main trainer
        let t = epoch as f32 / cfg.epochs.max(2) as f32;
        opt.set_lr(2e-3 * (0.1 + 0.9 * 0.5 * (1.0 + (std::f32::consts::PI * t).cos())));
        for (d, lt) in dataset.train().zip(&log_truth) {
            let h = model.embed(d);
            let pred = tp_tensor::ops::elementwise::mask_rows(&model.net_delay(&h), &d.sink_mask);
            let truth = tp_tensor::ops::elementwise::mask_rows(lt, &d.sink_mask);
            let loss = pred.mse(&truth);
            opt.zero_grad();
            loss.backward();
            tp_nn::optim::clip_grad_norm(&model.parameters(), 5.0);
            opt.step();
        }
    }
    model
}

fn gnn_r2(model: &NetEmbed, d: &tp_data::DesignGraph) -> f64 {
    let h = model.embed(d);
    let pred = model.net_delay(&h).exp().add_scalar(-LOG_EPS);
    let p = pred.data();
    let t = d.net_delay.data();
    let mut pf = Vec::new();
    let mut tf = Vec::new();
    for i in 0..d.num_pins {
        if d.sink_mask[i] > 0.5 {
            for k in 0..4 {
                pf.push(p[i * 4 + k]);
                tf.push(t[i * 4 + k]);
            }
        }
    }
    r2_score(&tf, &pf)
}

fn main() {
    let cfg = ExperimentConfig::from_env();
    let (_library, dataset) = build_dataset(&cfg);

    // ---- pooled stats features over the 14 training designs ----
    eprintln!("[table4] extracting statistics features…");
    let mut pool = StatsDataset::default();
    for d in dataset.train() {
        pool.extend(&net_delay_features(d));
    }
    eprintln!("[table4] {} pooled sink rows", pool.len());
    let standardizer = Standardizer::fit(&pool);
    standardizer.apply(&mut pool);

    eprintln!("[table4] fitting random forest (4 corners)…");
    let forest = rf4::ForestPerCorner::fit(
        &pool,
        &ForestConfig {
            num_trees: 16,
            max_depth: 12,
            min_samples_leaf: 4,
            max_features: 5,
            seed: cfg.seed,
        },
    );
    eprintln!("[table4] training statistics MLP…");
    let mlp = train_stats_mlp(&pool, cfg.seed, 2000);
    eprintln!(
        "[table4] training net-embedding GNN ({} epochs)…",
        cfg.epochs
    );
    let gnn = train_net_gnn(&dataset, &cfg);

    // ---- per-design scores ----
    let mut rows = Vec::new();
    let mut avg = [(0.0f64, 0usize); 6]; // rf/mlp/gnn × train/test
    for d in dataset.designs() {
        let mut feats = net_delay_features(d);
        standardizer.apply(&mut feats);
        let rf = r2_score(&rf4::truth_flat(&feats), &forest.predict_flat(&feats));
        let ml = mlp_r2(&mlp, &feats);
        let gn = gnn_r2(&gnn, d);
        let base = if d.is_train { 0 } else { 3 };
        for (slot, v) in [(base, rf), (base + 1, ml), (base + 2, gn)] {
            avg[slot].0 += v;
            avg[slot].1 += 1;
        }
        rows.push(vec![
            d.name.clone(),
            if d.is_train { "train" } else { "test" }.to_string(),
            fmt_r2(rf),
            fmt_r2(ml),
            fmt_r2(gn),
        ]);
    }
    let mean = |s: (f64, usize)| s.0 / s.1.max(1) as f64;
    rows.push(vec![
        "Avg. Train".into(),
        "train".into(),
        fmt_r2(mean(avg[0])),
        fmt_r2(mean(avg[1])),
        fmt_r2(mean(avg[2])),
    ]);
    rows.push(vec![
        "Avg. Test".into(),
        "test".into(),
        fmt_r2(mean(avg[3])),
        fmt_r2(mean(avg[4])),
        fmt_r2(mean(avg[5])),
    ]);

    print_table(
        &format!(
            "Table 4 — net delay prediction R² (scale {:.4}, {} epochs)",
            cfg.scale, cfg.epochs
        ),
        &[
            "Benchmark",
            "Split",
            "Stats-RF [5]",
            "Stats-MLP [5]",
            "Our GNN",
        ],
        &rows,
    );
}
