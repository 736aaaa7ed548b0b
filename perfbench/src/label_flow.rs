//! `label_flow`: place → route → STA → lower over the seven Table-1 test
//! designs, the flow that produces the GNN's training labels. It is the
//! only workload that drives tp-place, tp-route, tp-sta and tp-data, and it
//! runs no tensor code.

use tp_data::DesignGraph;
use tp_gen::{generate, BenchmarkSpec, GeneratorConfig};
use tp_graph::Circuit;
use tp_liberty::Library;
use tp_place::{place_circuit, PlacementConfig};
use tp_route::route_circuit;
use tp_sta::flow::FlowResult;
use tp_sta::{StaConfig, StaEngine};

use crate::harness::{digest_f32, measure, timed, Layers, Outcome, Phase};
use crate::Settings;

/// Generates the test designs: the workload's set-up.
fn generate_inputs(library: &Library, s: &Settings) -> Vec<(&'static str, Circuit)> {
    BenchmarkSpec::test()
        .map(|spec| {
            let config = GeneratorConfig {
                scale: s.flow_scale,
                seed: crate::NETLIST_SEED,
                depth: None,
            };
            (spec.name, generate(spec, library, &config))
        })
        .collect()
}

/// One pass over every design; returns each lowered design's digest, the
/// pins processed, and the seconds spent digesting (benchmark-side work).
fn pass(
    library: &Library,
    circuits: &[(&'static str, Circuit)],
    s: &Settings,
    layers: &mut Layers,
) -> (Vec<u64>, u64, f64) {
    let sta = StaConfig::default();
    let mut digests = Vec::with_capacity(circuits.len());
    let mut pins = 0;
    let mut digest_s = 0.0;
    for (i, (name, circuit)) in circuits.iter().enumerate() {
        let placement = layers.time("place", || {
            place_circuit(
                circuit,
                &PlacementConfig::default(),
                s.seed.wrapping_add(i as u64),
            )
        });
        let (routing_seconds, routing) = layers.time("route", || {
            timed(|| route_circuit(circuit, &placement, library, &sta.routing))
        });
        let (sta_seconds, report) = layers.time("sta", || {
            timed(|| {
                let topology = circuit.topology();
                StaEngine::new(library, sta).run_with_routing(circuit, &topology, &routing)
            })
        });
        let flow = FlowResult {
            routing_seconds,
            sta_seconds,
            routing,
            report,
        };
        let design = layers.time("lower", || {
            DesignGraph::from_flow(*name, false, circuit, &placement, library, &flow, &sta)
        });
        pins += design.num_pins as u64;
        let (secs, d) = timed(|| digest(&design));
        digest_s += secs;
        digests.push(d);
    }
    (digests, pins, digest_s)
}

/// Digest of a lowered design: the STA labels of every pin plus the
/// placement-derived features.
fn digest(d: &DesignGraph) -> u64 {
    let tensors = [&d.arrival, &d.slew, &d.pin_features, &d.net_edge_features];
    digest_f32(tensors.iter().flat_map(|t| t.to_vec()))
}

/// Runs the workload.
pub fn run(s: &Settings) -> Outcome {
    tp_partition::set_partition_nodes(0);
    let mut out = Outcome::default();
    let mut circuits = Vec::new();
    let mut library = None;
    for _ in 0..s.setup_reps {
        let (secs, (lib, c)) = timed(|| {
            let lib = Library::synthetic_sky130(0);
            let c = generate_inputs(&lib, s);
            (lib, c)
        });
        out.setup_s.push(secs);
        library = Some(lib);
        circuits = c;
    }
    let library = library.expect("at least one set-up");
    let pins_per_pass: usize = circuits.iter().map(|(_, c)| c.num_pins()).sum();
    out.echo(
        "designs",
        circuits
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(","),
    );
    out.echo("scale", s.flow_scale);
    out.echo("pins_per_op", pins_per_pass);
    out.echo("op", "one place+route+sta+lower pass over every design");

    // Warm-up pass; its digests are the reference every later pass must
    // reproduce.
    let mut layers = Layers::default();
    let (warm, (mut reference, _, _)) = timed(|| pass(&library, &circuits, s, &mut layers));
    out.warmup_s = warm;
    if s.corrupt_reference {
        reference[0] ^= 1;
    }
    for ((name, _), d) in circuits.iter().zip(&reference) {
        out.digests
            .push((format!("sta_digest.{name}"), format!("{d:016x}")));
    }

    let run_phase = |seconds: f64, layers: &mut Layers, out: &mut Outcome| -> Phase {
        measure(seconds, 2, || {
            let (secs, (digests, pins, digest_s)) = timed(|| pass(&library, &circuits, s, layers));
            out.check("label_flow pass digests", digests == reference);
            (secs - digest_s, pins)
        })
    };

    layers.clear();
    if !s.trace {
        out.untraced = run_phase(s.seconds, &mut layers, &mut out);
        return out;
    }
    out.untraced = run_phase(s.seconds / 2.0, &mut layers, &mut out);
    layers.clear();
    tp_obs::reset();
    tp_obs::enable();
    let traced = run_phase(s.seconds / 2.0, &mut layers, &mut out);
    tp_obs::disable();
    let data = tp_obs::drain();

    let ops = traced.op_s.len() as f64;
    let stages = [
        ("place.place_circuit_s", "place"),
        ("route.route_circuit_s", "route"),
        ("sta.run_with_routing_s", "sta"),
        ("data.from_flow_s", "lower"),
    ];
    let mut per_op = 0.0;
    for (metric, layer) in stages {
        out.set(metric, layers.total(layer) / ops);
        per_op += layers.total(layer) / ops;
    }
    out.set(
        "route.nets_routed",
        data.counter_value("route.nets_routed") as f64 / ops,
    );
    out.set(
        "sta.pins_propagated",
        data.counter_value("sta.pins_propagated") as f64 / ops,
    );
    out.set("gen.generate_s", crate::harness::median(&out.setup_s));
    out.traced = Some(traced);
    out.set_unaccounted(per_op);
    out
}
