//! `infer_full`: a streamed no-grad `TimingGnn::forward` on usbf_device at
//! paper scale with the paper `ModelConfig`, under a 20 000-node partition
//! budget. It is the only workload that runs at paper scale and the only
//! one that drives tp-partition and the tensor pool; it runs no autograd.
//!
//! The monolithic reference forward runs in a child process, so that this
//! process's peak RSS belongs to the streamed path alone and the child's
//! peak RSS shows the monolithic path's.

use std::process::{Command, Stdio};

use tp_data::DesignGraph;
use tp_gen::{generate, BenchmarkSpec, GeneratorConfig};
use tp_gnn::{ModelConfig, PropPlan, TimingGnn};
use tp_liberty::Library;
use tp_place::{place_circuit, PlacementConfig};
use tp_serve::prediction_hash;
use tp_sta::flow::run_full_flow;
use tp_sta::StaConfig;

use crate::harness::{measure, median, span_seconds, timed, Layers, Outcome, Phase, MIB};
use crate::Settings;

/// The benchmark design.
const DESIGN: &str = "usbf_device";

/// Partition budget, in live nodes, of the streamed forward.
const PARTITION_NODES: usize = 20_000;

/// Builds the design and its plan; returns them with the plan-build seconds.
fn build(s: &Settings) -> (DesignGraph, PropPlan, f64) {
    let library = Library::synthetic_sky130(0);
    let spec = BenchmarkSpec::by_name(DESIGN).expect("known benchmark");
    let config = GeneratorConfig {
        scale: s.infer_scale,
        seed: crate::NETLIST_SEED,
        depth: None,
    };
    let circuit = generate(spec, &library, &config);
    let placement = place_circuit(&circuit, &PlacementConfig::default(), s.seed);
    let sta = StaConfig::default();
    let flow = run_full_flow(&circuit, &placement, &library, &sta);
    let design = DesignGraph::from_flow(DESIGN, false, &circuit, &placement, &library, &flow, &sta);
    let (plan_s, plan) = timed(|| PropPlan::build(&design));
    (design, plan, plan_s)
}

/// The child-process side: one monolithic forward; prints its hash and
/// peak RSS.
pub fn reference_forward(s: &Settings) {
    tp_partition::set_partition_nodes(0);
    let (design, plan, _) = build(s);
    let model = TimingGnn::new(&ModelConfig::paper());
    let pred = tp_tensor::no_grad(|| model.forward(&design, &plan));
    println!(
        "reference {:016x} {}",
        prediction_hash(&pred),
        tp_obs::peak_rss_bytes() as f64 / MIB
    );
}

/// Runs the workload.
pub fn run(s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    tp_partition::set_partition_nodes(PARTITION_NODES);
    let model_config = ModelConfig::paper();
    let mut built = None;
    let mut plan_s = Vec::new();
    for _ in 0..s.setup_reps {
        let (secs, ((design, plan, p), model)) =
            timed(|| (build(s), TimingGnn::new(&model_config)));
        out.setup_s.push(secs);
        plan_s.push(p);
        built = Some(((design, plan), model));
    }
    let ((design, plan), model) = built.expect("at least one set-up");
    out.echo("designs", DESIGN);
    out.echo("scale", s.infer_scale);
    out.echo("pins_per_op", design.num_pins);
    out.echo("model", format!("{model_config:?}"));
    out.echo("partition_nodes", PARTITION_NODES);
    out.echo("op", "one streamed no-grad forward");

    // The reference runs while this process warms up; it is joined before
    // the first measured op.
    let mut args = vec![
        "--reference-forward".to_string(),
        "--seed".into(),
        s.seed.to_string(),
    ];
    if s.tiny {
        args.push("--tiny".into());
    }
    let child = Command::new(std::env::current_exe().expect("own executable"))
        .args(&args)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn the reference forward");

    let forward = |layers: &mut Layers| {
        timed(|| {
            layers.time("forward", || {
                tp_tensor::no_grad(|| model.forward(&design, &plan))
            })
        })
    };
    let mut layers = Layers::default();
    let (warm, _) = timed(|| {
        for _ in 0..s.infer_warmup {
            forward(&mut layers);
        }
    });
    out.warmup_s = warm;

    let reply = child
        .wait_with_output()
        .expect("reference forward finished");
    let text = String::from_utf8_lossy(&reply.stdout);
    let mut fields = text
        .split_whitespace()
        .skip_while(|w| *w != "reference")
        .skip(1);
    let parsed = fields.next().and_then(|h| u64::from_str_radix(h, 16).ok());
    let mono_rss: f64 = fields.next().and_then(|r| r.parse().ok()).unwrap_or(0.0);
    out.check(
        "infer_full reference forward ran",
        reply.status.success() && parsed.is_some(),
    );
    let mut reference = parsed.unwrap_or(0);
    if s.corrupt_reference {
        reference ^= 1;
    }
    out.digests.push((
        "monolithic_prediction_hash".into(),
        format!("{reference:016x}"),
    ));

    let run_phase = |seconds: f64, layers: &mut Layers, out: &mut Outcome| -> Phase {
        measure(seconds, 1, || {
            let (secs, pred) = forward(layers);
            out.check(
                "infer_full streamed hash",
                prediction_hash(&pred) == reference,
            );
            (secs, design.num_pins as u64)
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
    tp_tensor::pool::reset_stats();
    tp_obs::reset();
    tp_obs::enable();
    let traced = run_phase(s.seconds / 2.0, &mut layers, &mut out);
    tp_obs::disable();
    let data = tp_obs::drain();

    let ops = traced.op_s.len() as f64;
    let fwd = layers.total("forward") / ops;
    let embed = span_seconds(&data, "net_embed") / ops;
    let prop = span_seconds(&data, "levelized_prop") / ops;
    out.set("gnn.forward_s", fwd);
    out.set("gnn.net_embed_s", embed);
    out.set("gnn.propagation_s", prop);
    out.set("gnn.forward_self_s", fwd - embed - prop);
    out.set("gnn.plan_build_s", median(&plan_s));
    let pool = tp_tensor::pool::stats();
    out.set(
        "tensor.pool.hit_ratio",
        pool.hits as f64 / (pool.hits + pool.misses).max(1) as f64,
    );
    out.set(
        "tensor.pool.high_water_mib",
        pool.high_water_bytes as f64 / MIB,
    );
    out.set("tensor.pool.held_mib", pool.held_bytes as f64 / MIB);
    let chunks = tp_partition::PartitionPlan::by_max_nodes(&plan.level_graph(), PARTITION_NODES);
    out.set("partition.chunks", chunks.chunks().len() as f64);
    out.set("infer.monolithic_peak_rss_mib", mono_rss);
    out.traced = Some(traced);
    out.set_unaccounted(fwd);
    out
}
