//! `train_epoch`: the Table-5 training operating point — the 14 training
//! designs, default `ModelConfig`, one design per optimizer step. One op is
//! one epoch of `Trainer::step` calls. It is the only workload that runs
//! autograd backward, the argmax segment reductions and Adam; it runs no
//! routing, no STA and no streaming.

use tp_data::{Dataset, DatasetConfig};
use tp_gen::GeneratorConfig;
use tp_gnn::{ModelConfig, TimingGnn, TrainConfig, Trainer};
use tp_liberty::Library;

use crate::harness::{digest_f32, measure, median, span_seconds, timed, Layers, Outcome, Phase};
use crate::Settings;

/// Epochs between restores of the post-warm-up trainer state. Training
/// with unguarded `Trainer::step` diverges to non-finite losses after a
/// dozen or more epochs on some placements; restoring keeps every measured
/// epoch among the first few of one trajectory, the Table-5 operating
/// point.
const RESTORE_EVERY: usize = 4;

/// Digest of a dataset's labels and features.
fn dataset_digest(ds: &Dataset) -> u64 {
    digest_f32(ds.designs().iter().flat_map(|d| {
        [
            &d.arrival,
            &d.pin_features,
            &d.net_edge_features,
            &d.cell_edge_features,
        ]
        .into_iter()
        .flat_map(|t| t.to_vec())
    }))
}

/// One epoch; returns its seconds, the pins processed, the steps taken
/// and how many of their losses were finite.
fn epoch(trainer: &mut Trainer, ds: &Dataset, layers: &mut Layers) -> (f64, u64, usize, usize) {
    let mut pins = 0;
    let mut losses = Vec::new();
    let (secs, ()) = timed(|| {
        for design in ds.train() {
            losses.push(layers.time("step", || trainer.step(design)).total);
            pins += design.num_pins as u64;
        }
    });
    let finite = losses.iter().filter(|l| l.is_finite()).count();
    (secs, pins, losses.len(), finite)
}

/// Runs the workload.
pub fn run(s: &Settings) -> Outcome {
    tp_partition::set_partition_nodes(0);
    let mut out = Outcome::default();
    let library = Library::synthetic_sky130(0);
    let config = DatasetConfig {
        generator: GeneratorConfig {
            scale: s.train_scale,
            seed: crate::NETLIST_SEED,
            depth: None,
        },
        placement_seed: s.seed,
        ..Default::default()
    };
    let model_config = ModelConfig::default();
    let mut dataset = None;
    let mut reference = None;
    for _ in 0..s.setup_reps {
        let (secs, ds) = timed(|| Dataset::build_suite(&library, &config));
        out.setup_s.push(secs);
        // Every set-up must rebuild the same dataset.
        let d = dataset_digest(&ds);
        let expect = *reference.get_or_insert(if s.corrupt_reference { d ^ 1 } else { d });
        out.check("train_epoch dataset digest", d == expect);
        dataset = Some(ds);
    }
    let ds = dataset.expect("at least one set-up");
    let mut trainer = Trainer::new(TimingGnn::new(&model_config), TrainConfig::default());
    let pins_per_epoch: usize = ds.train().map(|d| d.num_pins).sum();
    out.echo(
        "designs",
        ds.train()
            .map(|d| d.name.as_str())
            .collect::<Vec<_>>()
            .join(","),
    );
    out.echo("scale", s.train_scale);
    out.echo("pins_per_op", pins_per_epoch);
    out.echo("model", format!("{model_config:?}"));
    out.echo("train", format!("{:?}", trainer.config()));
    out.echo("op", "one epoch of Trainer::step over the training designs");
    out.digests.push((
        "dataset_digest".into(),
        format!("{:016x}", reference.unwrap_or(0)),
    ));

    let mut layers = Layers::default();
    let (warm, _) = timed(|| epoch(&mut trainer, &ds, &mut layers));
    out.warmup_s = warm;

    let start = trainer.checkpoint(1);
    let mut since_restore = 0;
    let mut steps_total = 0usize;
    let mut finite_total = 0usize;
    let mut run_phase = |seconds: f64, layers: &mut Layers, out: &mut Outcome| -> Phase {
        measure(seconds, 2, || {
            if since_restore == RESTORE_EVERY {
                trainer
                    .restore(&start)
                    .expect("the trainer's own checkpoint");
                since_restore = 0;
            }
            since_restore += 1;
            let (secs, pins, steps, finite) = epoch(&mut trainer, &ds, layers);
            out.check("train_epoch finite losses", steps == finite);
            steps_total += steps;
            finite_total += finite;
            (secs, pins)
        })
    };

    layers.clear();
    if !s.trace {
        let p = run_phase(s.seconds, &mut layers, &mut out);
        out.untraced = p;
        return out;
    }
    let p = run_phase(s.seconds / 2.0, &mut layers, &mut out);
    out.untraced = p;
    layers.clear();
    tp_obs::reset();
    tp_obs::enable();
    let traced = run_phase(s.seconds / 2.0, &mut layers, &mut out);
    tp_obs::disable();
    let data = tp_obs::drain();

    let ops = traced.op_s.len() as f64;
    let step = layers.total("step") / ops;
    let embed = span_seconds(&data, "net_embed") / ops;
    let prop = span_seconds(&data, "levelized_prop") / ops;
    out.set("gnn.train_step_s", step);
    out.set("gnn.net_embed_s", embed);
    out.set("gnn.propagation_s", prop);
    out.set("gnn.step_rest_s", step - embed - prop);
    out.set(
        "train.committed_step_ratio",
        finite_total as f64 / steps_total.max(1) as f64,
    );
    out.set("data.build_suite_s", median(&out.setup_s));
    out.traced = Some(traced);
    out.set_unaccounted(step);
    out
}
