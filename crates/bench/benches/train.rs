//! Micro-benchmarks for the training loop: one guarded optimization step
//! and one full epoch over a small suite. Emits `BENCH_train.json`
//! (collected by `scripts/bench.sh`).

use tp_bench::micro::Suite;
use tp_data::{Dataset, DatasetConfig};
use tp_gen::GeneratorConfig;
use tp_gnn::{AuxMode, ModelConfig, TimingGnn, TrainConfig, Trainer};
use tp_liberty::Library;

fn dataset() -> Dataset {
    let library = Library::synthetic_sky130(1);
    Dataset::build_suite(
        &library,
        &DatasetConfig {
            generator: GeneratorConfig {
                scale: 0.002,
                seed: 1,
                depth: Some(8),
            },
            ..Default::default()
        },
    )
}

fn trainer(epochs: usize) -> Trainer {
    let model = TimingGnn::new(&ModelConfig {
        embed_dim: 6,
        prop_dim: 8,
        hidden: vec![12],
        seed: 2,
        ablation: Default::default(),
    });
    Trainer::new(
        model,
        TrainConfig {
            epochs,
            lr: 2e-3,
            aux: AuxMode::Full,
            ..Default::default()
        },
    )
}

fn bench_step(suite: &mut Suite) {
    let ds = dataset();
    let design = ds
        .train()
        .next()
        .expect("suite has a training design")
        .clone();
    let mut t = trainer(1);
    suite.bench("train_step/one_design", || t.step(&design));
}

fn bench_fit_epoch(suite: &mut Suite) {
    let ds = dataset();
    suite.bench("fit_epoch/suite@0.002", || {
        let mut t = trainer(1);
        t.fit(&ds)
    });
}

fn main() {
    let mut suite = Suite::new("train");
    bench_step(&mut suite);
    bench_fit_epoch(&mut suite);
    suite.finish();
}
