//! Cross-crate integration tests: the full pipeline from netlist
//! generation through placement, routing, STA, dataset lowering, model
//! training and evaluation.

use timing_predict::baselines::{Gcnii, GcniiConfig, GcniiTrainer, NormalizedGraph};
use timing_predict::data::{r2_score, Dataset, DatasetConfig};
use timing_predict::gen::{generate, GeneratorConfig, BENCHMARKS};
use timing_predict::gnn::{AuxMode, ModelConfig, PropPlan, TimingGnn, TrainConfig, Trainer};
use timing_predict::liberty::{Corner, Library};
use timing_predict::place::{place_circuit, PlacementConfig};
use timing_predict::sta::flow::run_full_flow;
use timing_predict::sta::StaConfig;

fn tiny_dataset(scale: f64) -> (Library, Dataset) {
    let library = Library::synthetic_sky130(7);
    let dataset = Dataset::build_suite(
        &library,
        &DatasetConfig {
            generator: GeneratorConfig {
                scale,
                seed: 7,
                depth: Some(8),
            },
            ..Default::default()
        },
    );
    (library, dataset)
}

#[test]
fn pipeline_generates_consistent_dataset() {
    let (_lib, ds) = tiny_dataset(0.002);
    assert_eq!(ds.designs().len(), 21);
    for d in ds.designs() {
        // structural consistency between tensors and index lists
        assert_eq!(d.pin_features.shape()[0], d.num_pins);
        assert_eq!(d.net_edge_features.shape()[0], d.num_net_edges());
        assert_eq!(d.cell_edge_features.shape()[0], d.num_cell_edges());
        assert_eq!(d.levels.iter().map(Vec::len).sum::<usize>(), d.num_pins);
        // arrival labels are finite and early <= late
        let at = d.arrival.data();
        for i in 0..d.num_pins {
            assert!(at[i * 4] <= at[i * 4 + 2] + 1e-5, "{}: ER<=LR", d.name);
            assert!(at[i * 4 + 1] <= at[i * 4 + 3] + 1e-5, "{}: EF<=LF", d.name);
        }
    }
}

#[test]
fn sta_arrival_dominates_along_every_edge() {
    // STA invariant: late arrival at an edge head >= late arrival at its
    // tail (delays are non-negative).
    let library = Library::synthetic_sky130(3);
    let spec = &BENCHMARKS[11]; // zipdiv
    let circuit = generate(
        spec,
        &library,
        &GeneratorConfig {
            scale: 0.02,
            seed: 3,
            depth: None,
        },
    );
    let placement = place_circuit(&circuit, &PlacementConfig::default(), 3);
    let flow = run_full_flow(&circuit, &placement, &library, &StaConfig::default());
    let lr = Corner::LateRise.index();
    for e in circuit.net_edges() {
        assert!(flow.report.arrival(e.sink)[lr] >= flow.report.arrival(e.driver)[lr] - 1e-5);
    }
    for e in circuit.cell_edges() {
        // inverting arcs mix rise/fall, so compare against the max of both
        let from = flow.report.arrival(e.from);
        let to = flow.report.arrival(e.to)[lr];
        assert!(to >= from[2].min(from[3]) - 1e-5);
    }
}

#[test]
fn training_improves_over_initialization_and_transfers() {
    let (_lib, ds) = tiny_dataset(0.003);
    let mut trainer = Trainer::new(
        TimingGnn::new(&ModelConfig {
            embed_dim: 6,
            prop_dim: 10,
            hidden: vec![16],
            seed: 5,
            ablation: Default::default(),
        }),
        TrainConfig {
            epochs: 25,
            ..Default::default()
        },
    );
    let test_names: Vec<String> = ds.test().map(|d| d.name.clone()).collect();
    let before: f64 = test_names
        .iter()
        .map(|n| trainer.evaluate_arrival_r2(ds.by_name(n).expect("test design")))
        .sum::<f64>()
        / test_names.len() as f64;
    trainer.fit(&ds);
    let after: f64 = test_names
        .iter()
        .map(|n| trainer.evaluate_arrival_r2(ds.by_name(n).expect("test design")))
        .sum::<f64>()
        / test_names.len() as f64;
    assert!(
        after > before && after > 0.0,
        "test-set R² must improve and be positive: {before:.3} -> {after:.3}"
    );
}

#[test]
fn our_model_beats_gcnii_on_held_out_designs() {
    // The paper's headline comparison, miniaturized.
    let (_lib, ds) = tiny_dataset(0.003);
    let mut ours = Trainer::new(
        TimingGnn::new(&ModelConfig {
            embed_dim: 6,
            prop_dim: 10,
            hidden: vec![16],
            seed: 5,
            ablation: Default::default(),
        }),
        TrainConfig {
            epochs: 20,
            ..Default::default()
        },
    );
    ours.fit(&ds);
    let mut gcnii = GcniiTrainer::new(
        Gcnii::new(&GcniiConfig {
            layers: 8,
            dim: 16,
            alpha: 0.1,
            beta: 0.1,
            seed: 5,
        }),
        2e-3,
    );
    gcnii.fit(&ds, 20);

    let test: Vec<_> = ds.test().cloned().collect();
    let ours_avg: f64 = test
        .iter()
        .map(|d| ours.evaluate_arrival_r2(d))
        .sum::<f64>()
        / test.len() as f64;
    let gcnii_avg: f64 = test
        .iter()
        .map(|d| gcnii.evaluate_arrival_r2(d))
        .sum::<f64>()
        / test.len() as f64;
    assert!(
        ours_avg > gcnii_avg,
        "timer-inspired model must generalize better: ours {ours_avg:.3} vs gcnii {gcnii_avg:.3}"
    );
}

#[test]
fn ablation_modes_all_train() {
    let (_lib, ds) = tiny_dataset(0.002);
    for aux in [
        AuxMode::Full,
        AuxMode::CellOnly,
        AuxMode::NetOnly,
        AuxMode::None,
    ] {
        let mut t = Trainer::new(
            TimingGnn::new(&ModelConfig {
                embed_dim: 4,
                prop_dim: 6,
                hidden: vec![8],
                seed: 2,
                ablation: Default::default(),
            }),
            TrainConfig {
                epochs: 4,
                aux,
                ..Default::default()
            },
        );
        let h = t.fit(&ds);
        assert!(h.last().expect("epochs ran").total.is_finite(), "{aux:?}");
    }
}

#[test]
fn slack_reconstruction_is_consistent() {
    // Predicted slack must equal RAT − predicted AT (late) by construction;
    // with ground-truth AT substituted it must equal the stored slack.
    let (_lib, ds) = tiny_dataset(0.002);
    let d = ds.designs().first().expect("non-empty suite");
    let rat = d.rat.data();
    let at = d.arrival.data();
    let slack = d.slack.data();
    for &i in &d.endpoints {
        for c in [2usize, 3] {
            let expect = rat[i * 4 + c] - at[i * 4 + c];
            assert!((slack[i * 4 + c] - expect).abs() < 1e-5);
        }
        for c in [0usize, 1] {
            let expect = at[i * 4 + c] - rat[i * 4 + c];
            assert!((slack[i * 4 + c] - expect).abs() < 1e-5);
        }
    }
}

#[test]
fn prop_plan_and_gcnii_graph_build_for_every_design() {
    let (_lib, ds) = tiny_dataset(0.002);
    for d in ds.designs() {
        let plan = PropPlan::build(d);
        assert_eq!(
            plan.levels.iter().map(|l| l.pins.len()).sum::<usize>(),
            d.num_pins
        );
        let graph = NormalizedGraph::build(d);
        let h = graph.spmm(&d.pin_features);
        assert_eq!(h.shape(), d.pin_features.shape());
    }
}

#[test]
fn determinism_across_full_pipeline() {
    let (_l1, ds1) = tiny_dataset(0.002);
    let (_l2, ds2) = tiny_dataset(0.002);
    for (a, b) in ds1.designs().iter().zip(ds2.designs()) {
        assert_eq!(a.num_pins, b.num_pins);
        assert_eq!(a.arrival.to_vec(), b.arrival.to_vec());
        assert_eq!(a.pin_features.to_vec(), b.pin_features.to_vec());
    }
}

#[test]
fn r2_of_truth_is_one_for_all_designs() {
    let (_lib, ds) = tiny_dataset(0.002);
    for d in ds.designs() {
        let t = d.endpoint_arrival_flat();
        assert!((r2_score(&t, &t) - 1.0).abs() < 1e-9);
    }
}
