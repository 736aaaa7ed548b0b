//! Regenerates **Figure 4**: predicted-vs-ground-truth endpoint slack
//! scatter for the test design `usbf_device`, setup (late) and hold
//! (early). Writes the raw points to `figure4_usbf_device.csv` and prints
//! an ASCII rendition plus the R² of each panel.

use std::fs::File;
use std::io::Write as _;

use tp_bench::{build_dataset, ExperimentConfig};
use tp_data::r2_score;
use tp_gnn::{TimingGnn, TrainConfig, Trainer};

fn ascii_scatter(title: &str, truth: &[f32], pred: &[f32]) {
    const W: usize = 56;
    const H: usize = 18;
    let lo = truth
        .iter()
        .chain(pred.iter())
        .copied()
        .fold(f32::INFINITY, f32::min);
    let hi = truth
        .iter()
        .chain(pred.iter())
        .copied()
        .fold(f32::NEG_INFINITY, f32::max);
    let span = (hi - lo).max(1e-6);
    let mut grid = vec![vec![' '; W]; H];
    // diagonal y = x reference
    for i in 0..W.min(H * 3) {
        let x = i;
        let y = H - 1 - (i * H / W).min(H - 1);
        grid[y][x] = '.';
    }
    for (&t, &p) in truth.iter().zip(pred) {
        let x = (((t - lo) / span) * (W - 1) as f32) as usize;
        let y = H - 1 - (((p - lo) / span) * (H - 1) as f32) as usize;
        grid[y.min(H - 1)][x.min(W - 1)] = '*';
    }
    println!(
        "\n{title}  [{:.3}, {:.3}] ns (x=truth, y=prediction)",
        lo, hi
    );
    for row in grid {
        println!("  |{}|", row.into_iter().collect::<String>());
    }
}

fn main() {
    let cfg = ExperimentConfig::from_env();
    let (_library, dataset) = build_dataset(&cfg);

    eprintln!("[figure4] training Full model ({} epochs)…", cfg.epochs);
    let mut trainer = Trainer::new(
        TimingGnn::new(&cfg.model_config()),
        TrainConfig {
            epochs: cfg.epochs,
            log_every: 10,
            ..Default::default()
        },
    );
    trainer.fit(&dataset);

    let design = dataset
        .by_name("usbf_device")
        .expect("suite contains usbf_device");
    let pred = trainer.predict(design);

    let truth_setup = design.endpoint_setup_slack();
    let pred_setup = pred.endpoint_setup_slack(design);
    let truth_hold: Vec<f32> = {
        let s = design.slack.data();
        design
            .endpoints
            .iter()
            .map(|&i| s[i * 4].min(s[i * 4 + 1]))
            .collect()
    };
    let pred_hold = pred.endpoint_hold_slack(design);

    let r2_setup = r2_score(&truth_setup, &pred_setup);
    let r2_hold = r2_score(&truth_hold, &pred_hold);

    let path = "figure4_usbf_device.csv";
    let mut f = File::create(path).expect("csv must be writable");
    writeln!(f, "endpoint,truth_setup,pred_setup,truth_hold,pred_hold").expect("write");
    for i in 0..truth_setup.len() {
        writeln!(
            f,
            "{},{},{},{},{}",
            i, truth_setup[i], pred_setup[i], truth_hold[i], pred_hold[i]
        )
        .expect("write");
    }

    println!(
        "\n## Figure 4 — slack prediction on usbf_device ({} endpoints, scale {:.4})",
        truth_setup.len(),
        cfg.scale
    );
    ascii_scatter("setup slack (late corners)", &truth_setup, &pred_setup);
    println!("  setup slack R² = {r2_setup:.4}");
    ascii_scatter("hold slack (early corners)", &truth_hold, &pred_hold);
    println!("  hold slack R² = {r2_hold:.4}");
    println!("\nraw points written to {path}");
}
