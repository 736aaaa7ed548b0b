//! Bit-identity across partition budgets (`TP_PARTITION_NODES`).
//!
//! The partition contract: the budget only groups propagation levels into
//! trace spans, never changes arithmetic. These suites regress it end to
//! end — GNN forward + loss + gradients, no-grad inference, and STA reports
//! must be bit-for-bit identical between budget 0 (one chunk) and any
//! chunk size, at any thread count.

use std::sync::Mutex;

use timing_predict::data::DesignGraph;
use timing_predict::gen::{generate, GeneratorConfig, BENCHMARKS};
use timing_predict::gnn::{ModelConfig, PropPlan, TimingGnn};
use timing_predict::graph::{Circuit, CircuitBuilder, PinId};
use timing_predict::liberty::Library;
use timing_predict::nn::Module;
use timing_predict::partition;
use timing_predict::place::{place_circuit, PlacementConfig};
use timing_predict::rng::{prop, Rng};
use timing_predict::sta::flow::run_full_flow;
use timing_predict::sta::{StaConfig, StaEngine, TimingReport};
use timing_predict::tensor::{no_grad, Tensor};

/// `set_partition_nodes` / `set_threads` are process-wide; the tests in
/// this binary run on multiple threads and must not see each other's
/// overrides. Poison-tolerant so one failing test doesn't cascade.
static KNOB_LOCK: Mutex<()> = Mutex::new(());

fn knob_lock() -> std::sync::MutexGuard<'static, ()> {
    KNOB_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Generated {
    design: DesignGraph,
    circuit: Circuit,
    placement: timing_predict::place::Placement,
    library: Library,
}

fn generated(bench: usize, scale: f64, depth: usize, seed: u64) -> Generated {
    let library = Library::synthetic_sky130(seed);
    let cfg = GeneratorConfig {
        scale,
        seed,
        depth: Some(depth),
    };
    let circuit = generate(&BENCHMARKS[bench % BENCHMARKS.len()], &library, &cfg);
    let placement = place_circuit(&circuit, &PlacementConfig::default(), seed);
    let sta = StaConfig::default();
    let flow = run_full_flow(&circuit, &placement, &library, &sta);
    let design = DesignGraph::from_flow("p", true, &circuit, &placement, &library, &flow, &sta);
    Generated {
        design,
        circuit,
        placement,
        library,
    }
}

fn bits_of(t: &Tensor) -> Vec<u32> {
    t.to_vec().iter().map(|v| v.to_bits()).collect()
}

/// No-grad inference outputs, bit-packed.
fn inference_bits(model: &TimingGnn, design: &DesignGraph, plan: &PropPlan) -> Vec<u32> {
    let pred = no_grad(|| model.forward(design, plan));
    let mut bits = bits_of(&pred.arrival);
    bits.extend(bits_of(&pred.slew));
    bits.extend(bits_of(&pred.net_delay));
    bits.extend(bits_of(&pred.cell_delay));
    bits
}

/// Training step outputs: loss bits plus every parameter gradient's bits.
fn training_bits(model: &TimingGnn, design: &DesignGraph, plan: &PropPlan) -> Vec<u32> {
    let params = model.parameters();
    params.iter().for_each(Tensor::zero_grad);
    let target = Tensor::concat_cols(&[&design.arrival, &design.slew]);
    let pred = model.forward(design, plan);
    let atslew = Tensor::concat_cols(&[&pred.arrival, &pred.slew]);
    let mut loss = atslew.mse(&target);
    if pred.cell_delay.shape()[0] > 0 {
        loss = loss.add(&pred.cell_delay.square().mean());
    }
    loss.backward();
    let mut bits = vec![loss.item().to_bits()];
    for g in params.iter().filter_map(Tensor::grad) {
        bits.extend(g.iter().map(|v| v.to_bits()));
    }
    bits
}

fn sta_bits(report: &TimingReport) -> Vec<u32> {
    let mut bits = Vec::new();
    for i in 0..report.num_pins() {
        let p = PinId::new(i);
        for vals in [report.arrival(p), report.slew(p), report.required(p)] {
            bits.extend(vals.iter().map(|v| v.to_bits()));
        }
    }
    bits
}

/// The chunk budgets a case exercises against the monolithic reference:
/// one level per chunk (budget 1 forces every level into its own chunk),
/// roughly three levels per chunk (the largest 3-consecutive-level node
/// sum, so greedy packing closes chunks after a few levels), and a
/// whole-graph single chunk.
fn budgets(plan: &PropPlan, num_pins: usize) -> [usize; 3] {
    let sizes: Vec<usize> = plan.levels.iter().map(|l| l.pins.len()).collect();
    let three = sizes
        .windows(3)
        .map(|w| w.iter().sum::<usize>())
        .max()
        .unwrap_or(num_pins)
        .max(1);
    [1, three, num_pins.max(1)]
}

#[test]
fn partitioned_gnn_and_sta_are_bit_identical_to_monolithic() {
    let _k = knob_lock();
    prop::check("partition_bit_identity", 64, |rng| {
        let bench = rng.gen_range(0..BENCHMARKS.len() as u64) as usize;
        let scale = 0.002 + rng.gen_range(0.0f32..0.003) as f64;
        let depth = rng.gen_range(5u64..9) as usize;
        let seed = rng.gen_range(0u64..1 << 20);
        let g = generated(bench, scale, depth, seed);
        let plan = PropPlan::build(&g.design);
        let model = TimingGnn::new(&ModelConfig {
            embed_dim: 4,
            prop_dim: 6,
            hidden: vec![8],
            seed,
            ablation: Default::default(),
        });
        let threads = if rng.gen_range(0u64..2) == 0 { 1 } else { 4 };

        // Monolithic reference at the default thread count.
        partition::clear_partition_nodes();
        timing_predict::par::set_threads(4);
        let engine = StaEngine::new(&g.library, StaConfig::default());
        let ref_infer = inference_bits(&model, &g.design, &plan);
        let ref_train = training_bits(&model, &g.design, &plan);
        let ref_sta = sta_bits(&engine.run(&g.circuit, &g.placement));

        timing_predict::par::set_threads(threads);
        for budget in budgets(&plan, g.design.num_pins) {
            partition::set_partition_nodes(budget);
            assert_eq!(
                inference_bits(&model, &g.design, &plan),
                ref_infer,
                "streamed inference drifted at budget {budget}, {threads} threads"
            );
            assert_eq!(
                training_bits(&model, &g.design, &plan),
                ref_train,
                "partitioned training drifted at budget {budget}, {threads} threads"
            );
            assert_eq!(
                sta_bits(&engine.run(&g.circuit, &g.placement)),
                ref_sta,
                "chunked STA drifted at budget {budget}, {threads} threads"
            );
        }
        partition::clear_partition_nodes();
        timing_predict::par::set_threads(0);
    });
}

/// A wire-only chain (no cells at all: the design has zero cell arcs, so
/// the cell-delay head must handle the empty case), and a pair of
/// disconnected two-pin nets (two independent components).
fn degenerate_circuits() -> Vec<Circuit> {
    let mut out = Vec::new();
    {
        let mut b = CircuitBuilder::new("wire");
        let pi = b.add_primary_input("in");
        let po = b.add_primary_output("out");
        b.connect(pi, &[po]).unwrap();
        out.push(b.finish().unwrap());
    }
    {
        let mut b = CircuitBuilder::new("disconnected");
        let a_in = b.add_primary_input("a_in");
        let a_out = b.add_primary_output("a_out");
        let b_in = b.add_primary_input("b_in");
        let b_out = b.add_primary_output("b_out");
        b.connect(a_in, &[a_out]).unwrap();
        b.connect(b_in, &[b_out]).unwrap();
        out.push(b.finish().unwrap());
    }
    {
        // One cell between the rails: the smallest design with a cell arc.
        let mut b = CircuitBuilder::new("onecell");
        let pi = b.add_primary_input("in");
        let (_, ci, co) = b.add_cell("u0", 0, 1);
        let po = b.add_primary_output("out");
        b.connect(pi, &[ci[0]]).unwrap();
        b.connect(co, &[po]).unwrap();
        out.push(b.finish().unwrap());
    }
    out
}

#[test]
fn degenerate_graphs_stream_bit_identically() {
    let _k = knob_lock();
    let library = Library::synthetic_sky130(0);
    let sta = StaConfig::default();
    for circuit in degenerate_circuits() {
        let placement = place_circuit(&circuit, &PlacementConfig::default(), 1);
        let flow = run_full_flow(&circuit, &placement, &library, &sta);
        let design =
            DesignGraph::from_flow("deg", true, &circuit, &placement, &library, &flow, &sta);
        let plan = PropPlan::build(&design);
        let model = TimingGnn::new(&ModelConfig {
            embed_dim: 4,
            prop_dim: 6,
            hidden: vec![8],
            seed: 9,
            ablation: Default::default(),
        });
        let engine = StaEngine::new(&library, sta);

        partition::clear_partition_nodes();
        let ref_infer = inference_bits(&model, &design, &plan);
        let ref_sta = sta_bits(&engine.run(&circuit, &placement));
        for budget in [1usize, 2, 1024] {
            partition::set_partition_nodes(budget);
            assert_eq!(
                inference_bits(&model, &design, &plan),
                ref_infer,
                "degenerate '{}' drifted at budget {budget}",
                circuit.name()
            );
            assert_eq!(
                sta_bits(&engine.run(&circuit, &placement)),
                ref_sta,
                "degenerate STA '{}' drifted at budget {budget}",
                circuit.name()
            );
        }
        partition::clear_partition_nodes();
    }
}

/// Whole-trainer bit-identity: a partitioned fit replays the monolithic
/// trajectory — per-epoch losses, post-training predictions, and the
/// checkpoint **bytes** on disk.
#[test]
fn partitioned_training_checkpoints_match_monolithic() {
    use timing_predict::data::{Dataset, DatasetConfig};
    use timing_predict::gnn::{FitOptions, TrainConfig, Trainer};

    let _k = knob_lock();
    let run = |budget: usize, dir: &std::path::Path| -> (Vec<u32>, Vec<u8>) {
        if budget == 0 {
            partition::clear_partition_nodes();
        } else {
            partition::set_partition_nodes(budget);
        }
        let library = Library::synthetic_sky130(0);
        let dataset = Dataset::build_suite(
            &library,
            &DatasetConfig {
                generator: GeneratorConfig {
                    scale: 0.001,
                    seed: 42,
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
                seed: 42,
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
                checkpoint_dir: Some(dir.to_path_buf()),
                ..FitOptions::default()
            },
        );
        let pred = trainer.predict(dataset.designs().first().expect("non-empty suite"));
        let mut bits: Vec<u32> = report.epochs.iter().map(|e| e.total.to_bits()).collect();
        for t in [&pred.arrival, &pred.slew, &pred.net_delay, &pred.cell_delay] {
            bits.extend(t.to_vec().iter().map(|v| v.to_bits()));
        }
        let mut ckpt = Vec::new();
        for epoch in 1..=2u64 {
            ckpt.extend(
                std::fs::read(timing_predict::gnn::checkpoint::checkpoint_path(dir, epoch))
                    .expect("checkpoint written"),
            );
        }
        partition::clear_partition_nodes();
        (bits, ckpt)
    };

    let scratch = std::env::temp_dir().join(format!("tp-partition-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let (mono_bits, mono_ckpt) = run(0, &scratch.join("mono"));
    let (part_bits, part_ckpt) = run(512, &scratch.join("part"));

    assert!(mono_bits.len() > 100, "signature too small");
    assert_eq!(
        mono_bits, part_bits,
        "partitioned fit changed loss/prediction bits"
    );
    assert_eq!(
        mono_ckpt, part_ckpt,
        "partitioned fit changed checkpoint bytes"
    );

    let _ = std::fs::remove_dir_all(&scratch);
}
