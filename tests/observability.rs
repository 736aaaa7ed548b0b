//! Acceptance test for the tp-obs subsystem (ISSUE 4): a full
//! `Trainer::fit_with` run with the chrome-trace sink produces a valid
//! trace containing the epoch → design → levelized-prop span hierarchy,
//! and a run manifest whose per-phase wall times sum to within 10% of the
//! measured total.

use timing_predict::data::{Dataset, DatasetConfig};
use timing_predict::gen::GeneratorConfig;
use timing_predict::gnn::{FitOptions, ModelConfig, TimingGnn, TrainConfig, Trainer};
use timing_predict::liberty::Library;
use timing_predict::obs;

#[test]
fn traced_training_run_produces_valid_artifacts() {
    let seed = 42u64;
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
    let config = TrainConfig {
        epochs: 2,
        ..Default::default()
    };
    let mut trainer = Trainer::new(
        TimingGnn::new(&ModelConfig {
            embed_dim: 4,
            prop_dim: 6,
            hidden: vec![8],
            seed,
            ablation: Default::default(),
        }),
        config,
    );

    obs::reset();
    obs::enable();
    let report = trainer.fit_with(&dataset, &FitOptions::default());
    obs::disable();
    let data = obs::drain();

    // --- the chrome trace is valid JSON with the expected span tree ---
    let trace = obs::export::chrome_trace(&data.events);
    obs::json::validate(&trace).expect("chrome trace must be valid JSON");
    assert!(trace.contains("\"traceEvents\""));

    let span_depth = |name: &str| -> Option<u32> {
        data.events
            .iter()
            .find(|e| e.name == name && e.kind == obs::EventKind::Span)
            .map(|e| e.depth)
    };
    let epoch_d = span_depth("epoch").expect("epoch spans recorded");
    let design_d = span_depth("design").expect("design spans recorded");
    let prop_d = span_depth("levelized_prop").expect("levelized_prop spans recorded");
    let level_d = span_depth("prop_level").expect("prop_level spans recorded");
    assert!(
        epoch_d < design_d && design_d < prop_d && prop_d < level_d,
        "span nesting must be epoch({epoch_d}) < design({design_d}) < \
         levelized_prop({prop_d}) < prop_level({level_d})"
    );
    let epochs_recorded = data
        .events
        .iter()
        .filter(|e| e.name == "epoch" && e.kind == obs::EventKind::Span)
        .count();
    assert_eq!(epochs_recorded, 2, "one span per epoch");

    // --- the JSONL export is one valid JSON object per line ---
    let jsonl = obs::export::jsonl(&data.events);
    assert_eq!(jsonl.lines().count(), data.events.len());
    for line in jsonl.lines() {
        obs::json::validate(line).expect("every JSONL line is valid JSON");
    }

    // --- run manifest: phases sum to within 10% of the total wall ---
    let manifest = report.run_report(seed, trainer.config(), &data);
    let json = manifest.to_json();
    obs::json::validate(&json).expect("run manifest must be valid JSON");
    assert_eq!(manifest.seed, seed);
    assert!(manifest.total_wall_ns > 0);
    let phase_ns = manifest.phase_total_ns() as f64;
    let total_ns = manifest.total_wall_ns as f64;
    assert!(
        (phase_ns - total_ns).abs() <= 0.10 * total_ns,
        "phase wall times ({phase_ns} ns) must sum to within 10% of the \
         run total ({total_ns} ns)"
    );
    assert!(
        manifest.phases.iter().any(|p| p.name == "epoch"),
        "the epoch phase must dominate the manifest: {:?}",
        manifest.phases
    );

    // --- metrics made it into the snapshot ---
    let counter = |name: &str| -> Option<u64> {
        data.metrics.iter().find_map(|m| match m {
            obs::MetricSnapshot::Counter { name: n, value } if n == name => Some(*value),
            _ => None,
        })
    };
    let steps = counter("train.steps").expect("train.steps counter recorded");
    let train_designs = dataset.train().count();
    assert_eq!(
        steps as usize,
        train_designs * 2,
        "one step per design per epoch"
    );
    assert!(
        counter("gnn.pins_propagated").unwrap_or(0) > 0,
        "levelized propagation must count pins"
    );
}
