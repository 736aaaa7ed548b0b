//! Integration tests for the fault-tolerance layer, proving the three
//! acceptance properties end to end:
//!
//! 1. **Resume is bit-identical**: training killed after epoch `k` and
//!    resumed from its checkpoint produces exactly the losses and
//!    predictions of the uninterrupted run under the same `TP_SEED`.
//! 2. **Corruption is contained**: every truncation and byte-corruption of
//!    a checkpoint file is rejected with a typed error, and recovery falls
//!    back to the newest valid checkpoint in the directory.
//! 3. **Divergence is survivable**: an injected non-finite gradient
//!    triggers rollback + learning-rate backoff, is recorded in the train
//!    report, and training still reduces the loss.

use std::path::PathBuf;

use timing_predict::data::{Dataset, DatasetConfig};
use timing_predict::gen::GeneratorConfig;
use timing_predict::gnn::checkpoint::{checkpoint_path, list_checkpoints};
use timing_predict::gnn::{
    Checkpoint, CheckpointError, FaultInjector, FaultPlan, FitOptions, ModelConfig, Prediction,
    TimingGnn, TrainConfig, TrainReport, Trainer,
};
use timing_predict::liberty::Library;
use timing_predict::rng::seed_from_env;

const EPOCHS: usize = 4;

fn dataset(seed: u64) -> Dataset {
    let library = Library::synthetic_sky130(0);
    Dataset::build_suite(
        &library,
        &DatasetConfig {
            generator: GeneratorConfig {
                scale: 0.001,
                seed,
                depth: Some(6),
            },
            ..Default::default()
        },
    )
}

fn trainer(seed: u64) -> Trainer {
    let model = TimingGnn::new(&ModelConfig {
        embed_dim: 4,
        prop_dim: 6,
        hidden: vec![8],
        seed,
        ablation: Default::default(),
    });
    Trainer::new(
        model,
        TrainConfig {
            epochs: EPOCHS,
            ..Default::default()
        },
    )
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tp-fault-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn prediction_bits(p: &Prediction) -> Vec<u32> {
    let mut bits = Vec::new();
    for t in [&p.arrival, &p.slew, &p.net_delay] {
        bits.extend(t.to_vec().iter().map(|v| v.to_bits()));
    }
    bits
}

fn loss_bits(report: &TrainReport) -> Vec<u32> {
    report.epochs.iter().map(|e| e.total.to_bits()).collect()
}

#[test]
fn resume_after_kill_is_bit_identical() {
    let seed = seed_from_env("TP_SEED", 42);
    let data = dataset(seed);
    let dir = scratch_dir("resume");

    // Reference: an uninterrupted run, checkpointing every epoch.
    let mut reference = trainer(seed);
    let options = FitOptions {
        checkpoint_dir: Some(dir.clone()),
        ..FitOptions::default()
    };
    let full = reference.fit_with(&data, &options);
    assert_eq!(full.epochs.len(), EPOCHS);
    assert!(full.checkpoint_failures.is_empty());
    let full_pred = reference.predict(data.designs().first().expect("non-empty suite"));

    // Simulate a kill after epoch k: checkpoints past k were never
    // written, so delete them and resume a *fresh* trainer from the
    // directory.
    let kill_after = 2u64;
    for epoch in (kill_after + 1)..=(EPOCHS as u64) {
        std::fs::remove_file(checkpoint_path(&dir, epoch)).expect("checkpoint exists");
    }
    let mut resumed = trainer(seed);
    let from = resumed
        .resume_from_dir(&dir)
        .expect("checkpoint fits the architecture")
        .expect("a valid checkpoint survives");
    assert_eq!(from, kill_after as usize);

    let tail = resumed.fit_with(&data, &FitOptions::default());
    assert_eq!(tail.resumed_from_epoch, kill_after as usize);
    assert_eq!(tail.epochs.len(), EPOCHS - kill_after as usize);

    // The resumed tail must replay the reference run bit for bit: losses…
    let reference_tail: Vec<u32> = loss_bits(&full)[kill_after as usize..].to_vec();
    assert_eq!(
        loss_bits(&tail),
        reference_tail,
        "resumed epochs must be bit-identical to the uninterrupted run"
    );
    // …and final predictions.
    let resumed_pred = resumed.predict(data.designs().first().expect("non-empty suite"));
    assert_eq!(prediction_bits(&resumed_pred), prediction_bits(&full_pred));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_checkpoints_are_rejected_and_recovery_falls_back() {
    let seed = seed_from_env("TP_SEED", 42);
    let data = dataset(seed);
    let dir = scratch_dir("corrupt");
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let mut t = trainer(seed);
    let _ = t.fit_with(
        &data,
        &FitOptions {
            checkpoint_dir: Some(dir.clone()),
            ..FitOptions::default()
        },
    );
    let files = list_checkpoints(&dir);
    assert_eq!(files.len(), EPOCHS);
    let good = Checkpoint::read(&files[0]).expect("oldest checkpoint is valid");
    let newest_bytes = std::fs::read(files.last().expect("non-empty")).expect("readable");

    // (a) Every truncation of the newest checkpoint is a typed error.
    let mut injector = FaultInjector::new(seed);
    for len in 0..newest_bytes.len() {
        let err = Checkpoint::from_bytes(&newest_bytes[..len])
            .expect_err("a truncated checkpoint must never decode");
        assert!(
            matches!(
                err,
                CheckpointError::Truncated { .. }
                    | CheckpointError::BadMagic
                    | CheckpointError::ChecksumMismatch
                    | CheckpointError::Malformed(_)
            ),
            "truncation to {len} bytes produced unexpected error {err:?}"
        );
    }

    // (b) Seeded byte corruption of each file is a typed error too.
    for path in &files {
        let mut bytes = std::fs::read(path).expect("readable");
        let mid = bytes.len() / 2;
        injector.corrupt_at(&mut bytes, mid);
        assert!(Checkpoint::from_bytes(&bytes).is_err());
        std::fs::write(path, &bytes).expect("writable");
    }

    // (c) With every file corrupted, recovery reports a fresh start…
    let mut fresh = trainer(seed);
    assert_eq!(fresh.resume_from_dir(&dir).expect("no arch mismatch"), None);

    // …and once one good checkpoint reappears, recovery finds exactly it,
    // skipping the newer-but-corrupt files.
    good.write_atomic(&files[0]).expect("rewrite");
    let from = fresh
        .resume_from_dir(&dir)
        .expect("no arch mismatch")
        .expect("the restored file is valid");
    assert_eq!(from as u64, good.epoch);
    assert_eq!(fresh.step_count(), good.step);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_divergence_rolls_back_and_training_still_converges() {
    let seed = seed_from_env("TP_SEED", 42);
    let data = dataset(seed);

    // Poison the gradients of two early global steps.
    let n_train = data.train().count();
    assert!(n_train >= 1, "suite must have training designs");
    let faults = FaultPlan::nan_grad_at([1, n_train as u64 + 1]);
    let mut t = trainer(seed);
    let report = t.fit_with(
        &data,
        &FitOptions {
            faults,
            ..FitOptions::default()
        },
    );

    // Both injections were detected, rolled back, and recovered after a
    // learning-rate backoff.
    assert_eq!(report.divergences.len(), 2);
    for event in &report.divergences {
        assert!(event.recovered, "guard must recover from a transient NaN");
        assert!(
            event.lr_after < event.lr_before,
            "backoff must reduce the learning rate"
        );
    }
    let rollbacks: usize = report.epochs.iter().map(|e| e.rollbacks).sum();
    assert_eq!(rollbacks, 2);
    assert_eq!(
        report.epochs.iter().map(|e| e.skipped).sum::<usize>(),
        0,
        "recovered steps must not be counted as skips"
    );

    // Training survived: every reported loss is finite and the run still
    // made progress.
    for e in &report.epochs {
        assert!(e.total.is_finite());
    }
    let first = report.epochs.first().expect("epochs ran").total;
    let last = report.epochs.last().expect("epochs ran").total;
    assert!(
        last < first,
        "loss must still decrease despite injected divergence: {first} -> {last}"
    );
}
