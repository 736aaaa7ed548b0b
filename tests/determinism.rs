//! Regression test for the hermetic-determinism guarantee: with the same
//! `TP_SEED`, two independent runs of suite generation + training must be
//! bit-identical — same per-epoch losses, same predictions. Any platform-
//! or ordering-dependent arithmetic that sneaks into the pipeline (hash-map
//! iteration, time-seeded RNGs, non-deterministic reductions) fails this
//! before it can poison a paper table.

use timing_predict::data::{Dataset, DatasetConfig, DesignGraph};
use timing_predict::gen::GeneratorConfig;
use timing_predict::gnn::{
    EpochStats, FaultPlan, FitOptions, ModelConfig, Prediction, TimingGnn, TrainConfig, Trainer,
};
use timing_predict::liberty::Library;
use timing_predict::rng::seed_from_env;

/// One full run: build the tiny suite, train 2 epochs, predict on the
/// first design. Everything is keyed off `seed` alone.
fn run(seed: u64) -> (Vec<EpochStats>, Prediction) {
    let library = Library::synthetic_sky130(0);
    let dataset = Dataset::build_suite(
        &library,
        &DatasetConfig {
            generator: GeneratorConfig {
                scale: 0.001,
                seed,
                depth: Some(6),
            },
            ..Default::default()
        },
    );
    let model = TimingGnn::new(&ModelConfig {
        embed_dim: 4,
        prop_dim: 6,
        hidden: vec![8],
        seed,
        ablation: Default::default(),
    });
    let mut trainer = Trainer::new(
        model,
        TrainConfig {
            epochs: 2,
            ..Default::default()
        },
    );
    let history = trainer.fit(&dataset);
    let pred = trainer.predict(dataset.designs().first().expect("non-empty suite"));
    (history, pred)
}

#[test]
fn same_seed_is_bit_identical() {
    let seed = seed_from_env("TP_SEED", 42);
    let (h1, p1) = run(seed);
    let (h2, p2) = run(seed);

    assert_eq!(h1.len(), 2);
    for (a, b) in h1.iter().zip(&h2) {
        // Bit-level equality, not approximate: f32::to_bits catches even
        // sign-of-zero or NaN-payload drift that `==` would mask.
        assert_eq!(a.total.to_bits(), b.total.to_bits(), "epoch {}", a.epoch);
        assert_eq!(a.atslew.to_bits(), b.atslew.to_bits(), "epoch {}", a.epoch);
        assert_eq!(a.celld.to_bits(), b.celld.to_bits(), "epoch {}", a.epoch);
        assert_eq!(a.netd.to_bits(), b.netd.to_bits(), "epoch {}", a.epoch);
    }

    let bits = |t: &timing_predict::tensor::Tensor| -> Vec<u32> {
        t.to_vec().iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&p1.arrival), bits(&p2.arrival));
    assert_eq!(bits(&p1.slew), bits(&p2.slew));
    assert_eq!(bits(&p1.net_delay), bits(&p2.net_delay));
}

/// Determinism must also survive a kill + resume: restoring the epoch-k
/// checkpoint and training the remaining epochs replays the uninterrupted
/// run bit for bit (same `TP_SEED`). This is the guarantee that makes
/// preemptible training safe for paper tables.
#[test]
fn kill_and_resume_is_bit_identical() {
    let seed = seed_from_env("TP_SEED", 42);
    let library = Library::synthetic_sky130(0);
    let dataset = Dataset::build_suite(
        &library,
        &DatasetConfig {
            generator: GeneratorConfig {
                scale: 0.001,
                seed,
                depth: Some(6),
            },
            ..Default::default()
        },
    );
    let fresh_trainer = || {
        Trainer::new(
            TimingGnn::new(&ModelConfig {
                embed_dim: 4,
                prop_dim: 6,
                hidden: vec![8],
                seed,
                ablation: Default::default(),
            }),
            TrainConfig {
                epochs: 3,
                ..Default::default()
            },
        )
    };

    let dir = std::env::temp_dir().join("tp-determinism-resume");
    let _ = std::fs::remove_dir_all(&dir);

    // Uninterrupted reference run, checkpointing every epoch.
    let mut reference = fresh_trainer();
    let full = reference.fit_with(
        &dataset,
        &FitOptions {
            checkpoint_dir: Some(dir.clone()),
            ..FitOptions::default()
        },
    );
    let full_pred = reference.predict(dataset.designs().first().expect("non-empty suite"));

    // Kill after epoch 1: drop the later checkpoints, resume fresh.
    for epoch in 2..=3u64 {
        std::fs::remove_file(timing_predict::gnn::checkpoint::checkpoint_path(
            &dir, epoch,
        ))
        .expect("checkpoint exists");
    }
    let mut resumed = fresh_trainer();
    let from = resumed
        .resume_from_dir(&dir)
        .expect("architecture matches")
        .expect("valid checkpoint");
    assert_eq!(from, 1);
    let tail = resumed.fit_with(&dataset, &FitOptions::default());
    let resumed_pred = resumed.predict(dataset.designs().first().expect("non-empty suite"));

    let bits: Vec<u32> = full.epochs[1..].iter().map(|e| e.total.to_bits()).collect();
    let tail_bits: Vec<u32> = tail.epochs.iter().map(|e| e.total.to_bits()).collect();
    assert_eq!(bits, tail_bits, "resumed losses must replay the reference");

    let pb = |p: &Prediction| -> Vec<u32> {
        [&p.arrival, &p.slew, &p.net_delay]
            .iter()
            .flat_map(|t| t.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            .collect()
    };
    assert_eq!(pb(&resumed_pred), pb(&full_pred));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Instrumentation must not perturb the numbers: a run with the tp-obs
/// collector recording every span/metric is bit-identical to the
/// uninstrumented run, and recording alone writes no files — artifacts
/// only exist when an exporter is explicitly invoked.
#[test]
fn observability_on_is_bit_identical_and_writes_nothing() {
    let seed = seed_from_env("TP_SEED", 42);
    let (h_off, p_off) = run(seed);

    let dir = std::env::temp_dir().join(format!("tp-obs-noartifacts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let cwd = std::env::current_dir().expect("cwd");
    std::env::set_current_dir(&dir).expect("enter scratch dir");

    timing_predict::obs::reset();
    timing_predict::obs::enable();
    let (h_on, p_on) = run(seed);
    timing_predict::obs::disable();
    let data = timing_predict::obs::drain();

    std::env::set_current_dir(&cwd).expect("restore cwd");
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("scratch dir readable")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert!(
        leftovers.is_empty(),
        "recording without an exporter must write nothing, found {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        !data.events.is_empty(),
        "the instrumented run must actually have recorded spans"
    );
    for (a, b) in h_off.iter().zip(&h_on) {
        assert_eq!(a.total.to_bits(), b.total.to_bits(), "epoch {}", a.epoch);
        assert_eq!(a.atslew.to_bits(), b.atslew.to_bits(), "epoch {}", a.epoch);
        assert_eq!(a.celld.to_bits(), b.celld.to_bits(), "epoch {}", a.epoch);
        assert_eq!(a.netd.to_bits(), b.netd.to_bits(), "epoch {}", a.epoch);
    }
    let bits = |t: &timing_predict::tensor::Tensor| -> Vec<u32> {
        t.to_vec().iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&p_off.arrival), bits(&p_on.arrival));
    assert_eq!(bits(&p_off.slew), bits(&p_on.slew));
    assert_eq!(bits(&p_off.net_delay), bits(&p_on.net_delay));
}

/// Serializes the tests that flip the global `tp_par::set_threads`
/// override, so each one's "N threads" run really uses N threads.
/// Poison-tolerant: a panicked holder must not cascade into the others.
fn threads_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The tp-par contract: worker count is a pure performance knob. One run
/// of the whole pipeline — suite generation, 2 training epochs with
/// checkpointing, prediction, then placement + routing + four-corner STA
/// on a larger benchmark — is condensed to a bit signature, and the
/// signature must be identical with the pool pinned to 1 thread and to 4.
/// `scripts/tier1.sh` additionally re-runs the whole workspace under
/// `TP_THREADS=1` and `TP_THREADS=4`; this test proves the same claim
/// in-process, including the checkpoint files byte for byte.
#[test]
fn thread_count_is_bit_identical() {
    use timing_predict::gen::{generate, BenchmarkSpec};
    use timing_predict::graph::PinId;
    use timing_predict::place::{place_circuit, PlacementConfig};
    use timing_predict::sta::flow::run_full_flow;
    use timing_predict::sta::StaConfig;

    // (float bit signature, checkpoint bytes) of one full run.
    let signature = |ckpt_dir: &std::path::Path| -> (Vec<u32>, Vec<u8>) {
        let seed = seed_from_env("TP_SEED", 42);
        let library = Library::synthetic_sky130(0);
        let dataset = Dataset::build_suite(
            &library,
            &DatasetConfig {
                generator: GeneratorConfig {
                    scale: 0.001,
                    seed,
                    depth: Some(6),
                },
                ..Default::default()
            },
        );
        let mut trainer = Trainer::new(
            TimingGnn::new(&ModelConfig {
                embed_dim: 4,
                prop_dim: 6,
                hidden: vec![8],
                seed,
                ablation: Default::default(),
            }),
            TrainConfig {
                epochs: 2,
                ..Default::default()
            },
        );
        let report = trainer.fit_with(
            &dataset,
            &FitOptions {
                checkpoint_dir: Some(ckpt_dir.to_path_buf()),
                ..FitOptions::default()
            },
        );
        let pred = trainer.predict(dataset.designs().first().expect("non-empty suite"));

        let mut bits: Vec<u32> = report.epochs.iter().map(|e| e.total.to_bits()).collect();
        for t in [&pred.arrival, &pred.slew, &pred.net_delay] {
            bits.extend(t.to_vec().iter().map(|v| v.to_bits()));
        }

        let mut ckpt = Vec::new();
        for epoch in 1..=2u64 {
            ckpt.extend(
                std::fs::read(timing_predict::gnn::checkpoint::checkpoint_path(
                    ckpt_dir, epoch,
                ))
                .expect("checkpoint written"),
            );
        }

        // A benchmark large enough that STA levels and net counts clear
        // the tp-par parallelism thresholds, so the 4-thread run really
        // exercises the parallel sweeps rather than the serial fallback.
        let spec = BenchmarkSpec::by_name("picorv32a").expect("known benchmark");
        let circuit = generate(
            spec,
            &library,
            &GeneratorConfig {
                scale: 0.02,
                seed: 11,
                depth: None,
            },
        );
        let placement = place_circuit(&circuit, &PlacementConfig::default(), 5);
        let flow = run_full_flow(
            &circuit,
            &placement,
            &library,
            &StaConfig::default().with_clock_period(3.0),
        );
        for i in 0..flow.report.num_pins() {
            let p = PinId::new(i);
            for corner in [
                flow.report.arrival(p),
                flow.report.slew(p),
                flow.report.required(p),
            ] {
                bits.extend(corner.iter().map(|v| v.to_bits()));
            }
        }
        bits.push(flow.routing.total_wirelength().to_bits());
        (bits, ckpt)
    };

    let _guard = threads_lock();
    let scratch = std::env::temp_dir().join(format!("tp-det-threads-{}", std::process::id()));
    let dir1 = scratch.join("t1");
    let dir4 = scratch.join("t4");
    let _ = std::fs::remove_dir_all(&scratch);

    timing_predict::par::set_threads(1);
    let (bits1, ckpt1) = signature(&dir1);
    timing_predict::par::set_threads(4);
    let (bits4, ckpt4) = signature(&dir4);
    timing_predict::par::set_threads(0);

    assert!(
        bits1.len() > 1000,
        "signature should cover the whole pipeline, got {} floats",
        bits1.len()
    );
    assert_eq!(bits1, bits4, "thread count changed float bits somewhere");
    assert_eq!(ckpt1, ckpt4, "thread count changed checkpoint bytes");

    let _ = std::fs::remove_dir_all(&scratch);
}

/// The guarded per-design step honors the same contract when the
/// divergence guard fires: with NaN gradients injected at two steps, the
/// rollbacks, backoffs and the whole training trajectory — losses,
/// predictions, checkpoint bytes — are bit-identical on 1 thread and on 4.
#[test]
fn batched_training_is_bit_identical_across_thread_counts() {
    let signature = |threads: usize, ckpt_dir: &std::path::Path| -> (Vec<u32>, Vec<u8>) {
        timing_predict::par::set_threads(threads);
        let seed = seed_from_env("TP_SEED", 42);
        let library = Library::synthetic_sky130(0);
        let dataset = Dataset::build_suite(
            &library,
            &DatasetConfig {
                generator: GeneratorConfig {
                    scale: 0.001,
                    seed,
                    depth: Some(6),
                },
                ..Default::default()
            },
        );
        let mut trainer = Trainer::new(
            TimingGnn::new(&ModelConfig {
                embed_dim: 4,
                prop_dim: 6,
                hidden: vec![8],
                seed,
                ablation: Default::default(),
            }),
            TrainConfig {
                epochs: 2,
                ..Default::default()
            },
        );
        let report = trainer.fit_with(
            &dataset,
            &FitOptions {
                checkpoint_dir: Some(ckpt_dir.to_path_buf()),
                faults: FaultPlan::nan_grad_at([1, 4]),
            },
        );
        assert_eq!(report.epochs.iter().map(|e| e.rollbacks).sum::<usize>(), 2);
        let pred = trainer.predict(dataset.designs().first().expect("non-empty suite"));
        let mut bits: Vec<u32> = report.epochs.iter().map(|e| e.total.to_bits()).collect();
        for d in &report.divergences {
            bits.extend([d.lr_before.to_bits(), d.lr_after.to_bits()]);
        }
        for t in [&pred.arrival, &pred.slew, &pred.net_delay] {
            bits.extend(t.to_vec().iter().map(|v| v.to_bits()));
        }
        let mut ckpt = Vec::new();
        for epoch in 1..=2u64 {
            ckpt.extend(
                std::fs::read(timing_predict::gnn::checkpoint::checkpoint_path(
                    ckpt_dir, epoch,
                ))
                .expect("checkpoint written"),
            );
        }
        timing_predict::par::set_threads(0);
        (bits, ckpt)
    };

    let _guard = threads_lock();
    let scratch = std::env::temp_dir().join(format!("tp-det-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let (bits1, ckpt1) = signature(1, &scratch.join("t1"));
    let (bits4, ckpt4) = signature(4, &scratch.join("t4"));

    assert!(bits1.len() > 100, "signature too small: {}", bits1.len());
    assert_eq!(bits1, bits4, "guarded training changed float bits");
    assert_eq!(ckpt1, ckpt4, "guarded training changed checkpoint bytes");

    let _ = std::fs::remove_dir_all(&scratch);
}

/// Forked RNG streams must not depend on which worker thread draws them:
/// `root.fork(i)` keys the stream off `i` alone (tp-rng's fork is
/// position-independent), so a parallel map over stream ids yields the
/// same draws at any pool size — the pattern tp-gen uses for per-design
/// generation.
#[test]
fn rng_fork_streams_are_worker_count_independent() {
    use timing_predict::rng::{Rng as _, Xoshiro256pp};

    let draws = |threads: usize| -> Vec<u64> {
        let _guard = threads_lock();
        timing_predict::par::set_threads(threads);
        let root = Xoshiro256pp::seed_from_u64(99);
        let out = timing_predict::par::map_items(64, |i| {
            let mut stream = root.fork(i as u64);
            stream.next_u64()
        });
        timing_predict::par::set_threads(0);
        out
    };

    let serial = draws(1);
    let parallel = draws(4);
    assert_eq!(serial, parallel);
    // Not vacuous: distinct stream ids really produce distinct draws.
    assert!(
        serial.windows(2).any(|w| w[0] != w[1]),
        "forked streams should differ from each other"
    );
}

#[test]
fn different_seeds_diverge() {
    // Sanity check that the test above is not vacuous: a different seed
    // must actually change the trajectory.
    let (h1, _) = run(1);
    let (h2, _) = run(2);
    assert_ne!(
        h1.last().unwrap().total.to_bits(),
        h2.last().unwrap().total.to_bits(),
        "distinct seeds should produce distinct losses"
    );
}

/// FNV-1a over the little-endian bits of `values`.
fn bits_hash(values: impl IntoIterator<Item = f32>) -> u64 {
    let bytes: Vec<u8> = values.into_iter().flat_map(f32::to_le_bytes).collect();
    timing_predict::gnn::checkpoint::fnv1a64(&bytes)
}

/// Three `Trainer::step`s of `config` on `design`, condensed to four
/// hashes: the losses, every parameter's bits, every parameter's gradient
/// bits after the last step, and one no-grad prediction.
fn trajectory_hashes(design: &DesignGraph, config: &ModelConfig) -> [u64; 4] {
    use timing_predict::nn::Module;

    let mut trainer = Trainer::new(TimingGnn::new(config), TrainConfig::default());
    let mut losses = Vec::new();
    for _ in 0..3 {
        let p = trainer.step(design);
        assert!(
            p.total.is_finite(),
            "the trajectory trains on real gradients"
        );
        losses.extend([p.atslew, p.celld, p.netd, p.total]);
    }
    let params = trainer.model().parameters();
    let weights = bits_hash(params.iter().flat_map(|p| p.to_vec()));
    let grads = bits_hash(
        params
            .iter()
            .flat_map(|p| p.grad().expect("every parameter receives a gradient")),
    );
    let pred = trainer.predict(design);
    let prediction = bits_hash(
        [&pred.arrival, &pred.slew, &pred.net_delay, &pred.cell_delay]
            .into_iter()
            .flat_map(|t| t.to_vec()),
    );
    [bits_hash(losses), weights, grads, prediction]
}

/// Training bits are pinned across commits, not only across runs of one
/// build: three `Trainer::step`s with the default and the paper
/// `ModelConfig` on picorv32a at 1/100 scale must reproduce hashes recorded
/// on the commit before the lean autograd tape (backward reading live
/// operands and releasing interior gradients). A refactor of the tape, the
/// kernels or the optimizer that moves one bit of a loss, weight, gradient
/// or prediction fails here.
#[test]
fn training_bits_match_the_recorded_trajectory() {
    use timing_predict::gen::{generate, BenchmarkSpec};
    use timing_predict::place::{place_circuit, PlacementConfig};
    use timing_predict::sta::flow::run_full_flow;
    use timing_predict::sta::StaConfig;

    // [losses, weights, grads, prediction] per config.
    const RECORDED: [(&str, [u64; 4]); 2] = [
        (
            "default",
            [
                0x2b20e6b1bcc109c5,
                0xb211c3e9d5b08d1d,
                0xda17bb310123ef63,
                0x0c37e93ffce3d718,
            ],
        ),
        (
            "paper",
            [
                0x082ceda28b97a95c,
                0x2bf1b98467594f59,
                0xae5c4645e5a4f369,
                0xa84f6ca4916f002b,
            ],
        ),
    ];

    let library = Library::synthetic_sky130(0);
    let spec = BenchmarkSpec::by_name("picorv32a").expect("known benchmark");
    let circuit = generate(
        spec,
        &library,
        &GeneratorConfig {
            scale: 0.01,
            seed: 7,
            depth: None,
        },
    );
    let placement = place_circuit(&circuit, &PlacementConfig::default(), 5);
    let sta = StaConfig::default();
    let flow = run_full_flow(&circuit, &placement, &library, &sta);
    let design =
        DesignGraph::from_flow(spec.name, true, &circuit, &placement, &library, &flow, &sta);

    let got = [ModelConfig::default(), ModelConfig::paper()]
        .map(|config| trajectory_hashes(&design, &config));
    let hex = |h: &[u64; 4]| h.map(|v| format!("{v:#018x}")).join(", ");
    for ((name, recorded), got) in RECORDED.iter().zip(&got) {
        assert_eq!(
            got,
            recorded,
            "{name} config: [losses, weights, grads, prediction] = [{}], recorded [{}]",
            hex(got),
            hex(recorded)
        );
    }
}
