//! Sweep evaluators that predict slack with the timing GNN — in-process
//! or streamed through a live `tp-serve` instance.
//!
//! [`prediction_evaluator`] builds each cell's design locally and runs
//! one forward pass; [`serve_evaluator`] registers the same design
//! against a running server over the wire (`register`), then streams a
//! `slack` query through it. Both reduce per-endpoint setup/hold slack
//! with the same pure helper, [`metrics_from_slacks`], and the server's
//! deterministic JSON replies widen `f32` exactly into `f64` — so the
//! two evaluators produce bit-identical `CellMetrics`, and a sweep's
//! journal and report come back **byte-identical** whichever path ran
//! it. That identity is the soak-path contract: streaming a sweep
//! through the server must change where the math runs, never what it
//! computes.
//!
//! For the identity to hold, the server must be booted with the same
//! model weights and the same library seed (`ServeConfig::lib_seed`)
//! that the in-process evaluator uses.

use std::net::SocketAddr;
use std::sync::Arc;

use tp_gnn::{PropPlan, TimingGnn};
use tp_obs::json::JsonValue;
use tp_serve::{register_line, Client, RegisterSpec};

use crate::engine::CellCtx;
use crate::grid::{CellSpec, CornerSet};
use crate::journal::CellMetrics;

/// Reduces per-endpoint setup/hold slack arrays to the sweep's
/// WNS/TNS under `corner_set` — the shared tail of every
/// prediction-based evaluator. `setup` and `hold` are per-endpoint
/// worst-late and worst-early slacks, in endpoint order.
pub fn metrics_from_slacks(
    corner_set: CornerSet,
    setup: &[f32],
    hold: &[f32],
    pins: u64,
) -> CellMetrics {
    let mut wns = f32::INFINITY;
    let mut tns = 0.0f32;
    for (s, h) in setup.iter().zip(hold) {
        let worst = match corner_set {
            CornerSet::Late => *s,
            CornerSet::Early => *h,
            CornerSet::All => s.min(*h),
        };
        wns = wns.min(worst);
        if worst < 0.0 {
            tns += worst;
        }
    }
    if !wns.is_finite() {
        // A degenerate circuit with no endpoints has no slack to report;
        // zero keeps the record finite.
        wns = 0.0;
    }
    CellMetrics {
        wns,
        tns,
        aux: 0.0,
        pins,
    }
}

/// The `register` spec a sweep cell ships to a server: same parameters
/// the in-process evaluator builds from, session named after the cell
/// index. `depth: None` matches the in-process generator config.
pub fn register_spec_for_cell(spec: &CellSpec) -> RegisterSpec {
    RegisterSpec {
        name: format!("cell{}", spec.cell),
        design: spec.design.clone(),
        scale: spec.scale,
        seed: spec.seed,
        utilization: spec.utilization,
        clock_period_ns: spec.clock_period_ns,
        depth: None,
    }
}

/// In-process GNN evaluator: build the cell's design (generate → place →
/// STA flow → `DesignGraph`), run one forward pass with `model`, and
/// reduce predicted endpoint slacks. The reference the serve-streamed
/// path is byte-compared against.
pub fn prediction_evaluator(
    library: &tp_liberty::Library,
    model: Arc<TimingGnn>,
) -> impl Fn(&mut CellCtx) -> CellMetrics + Sync + '_ {
    move |ctx: &mut CellCtx| {
        let bench = tp_gen::BenchmarkSpec::by_name(&ctx.spec.design)
            .expect("grid validation guarantees known designs");
        let gen_cfg = tp_gen::GeneratorConfig {
            scale: ctx.spec.scale,
            seed: ctx.spec.seed,
            depth: None,
        };
        let circuit = tp_gen::generate(bench, library, &gen_cfg);
        let place_cfg = tp_place::PlacementConfig {
            utilization: ctx.spec.utilization,
            ..tp_place::PlacementConfig::default()
        };
        let placement = tp_place::place_circuit(&circuit, &place_cfg, ctx.spec.seed);
        let sta_cfg = tp_sta::StaConfig::default().with_clock_period(ctx.spec.clock_period_ns);
        let flow = tp_sta::flow::run_full_flow(&circuit, &placement, library, &sta_cfg);
        let design = tp_data::DesignGraph::try_from_flow(
            &ctx.spec.design,
            false,
            &circuit,
            &placement,
            library,
            &flow,
            &sta_cfg,
        )
        .expect("generated designs lower cleanly");
        let plan = PropPlan::build(&design);
        let pred = model.forward(&design, &plan);
        let setup = pred.endpoint_setup_slack(&design);
        let hold = pred.endpoint_hold_slack(&design);
        metrics_from_slacks(ctx.spec.corner_set, &setup, &hold, design.num_pins as u64)
    }
}

fn parse_reply(reply: &str, context: &str) -> JsonValue {
    let v = tp_obs::json::parse(reply)
        .unwrap_or_else(|e| panic!("{context}: unparseable reply {reply:?}: {e}"));
    if v.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        panic!("{context}: server refused: {reply}");
    }
    v
}

fn f32_slice(v: &JsonValue, key: &str, context: &str) -> Vec<f32> {
    v.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("{context}: missing array {key:?}"))
        .iter()
        .map(|x| {
            // The server widened each f32 exactly into f64; narrowing
            // recovers the identical bits.
            x.as_f64()
                .unwrap_or_else(|| panic!("{context}: non-number in {key:?}")) as f32
        })
        .collect()
}

/// Streaming evaluator: register the cell's design against the server at
/// `addr`, stream a `slack` query, and reduce the predicted slacks
/// exactly like [`prediction_evaluator`]. A connection failure or error
/// reply panics — the sweep engine's per-cell isolation turns that into
/// a retry (fresh connection) and eventually quarantine, which is the
/// correct degradation for a soak run.
pub fn serve_evaluator(addr: SocketAddr) -> impl Fn(&mut CellCtx) -> CellMetrics + Sync {
    move |ctx: &mut CellCtx| {
        let spec = register_spec_for_cell(&ctx.spec);
        let mut client = Client::connect(addr).expect("serve evaluator: connect");
        let reply = client
            .send(&register_line(Some(ctx.spec.cell), &spec))
            .expect("serve evaluator: register io")
            .expect("serve evaluator: register reply");
        let v = parse_reply(&reply, "register");
        let pins = v
            .get("pins")
            .and_then(JsonValue::as_u64)
            .expect("register reply carries pins");
        let slack_req = format!(
            "{{\"id\":{},\"op\":\"slack\",\"design\":{}}}",
            ctx.spec.cell,
            tp_obs::json::escape(&spec.name)
        );
        let reply = client
            .send(&slack_req)
            .expect("serve evaluator: slack io")
            .expect("serve evaluator: slack reply");
        let v = parse_reply(&reply, "slack");
        let setup = f32_slice(&v, "setup", "slack");
        let hold = f32_slice(&v, "hold", "slack");
        metrics_from_slacks(ctx.spec.corner_set, &setup, &hold, pins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_reduction_matches_corner_semantics() {
        let setup = [0.5f32, -0.25, 1.0];
        let hold = [0.1f32, 0.3, -0.4];
        let late = metrics_from_slacks(CornerSet::Late, &setup, &hold, 9);
        assert_eq!(late.wns, -0.25);
        assert_eq!(late.tns, -0.25);
        assert_eq!(late.pins, 9);
        assert_eq!(late.aux, 0.0);
        let early = metrics_from_slacks(CornerSet::Early, &setup, &hold, 9);
        assert_eq!(early.wns, -0.4);
        assert_eq!(early.tns, -0.4);
        let all = metrics_from_slacks(CornerSet::All, &setup, &hold, 9);
        assert_eq!(all.wns, -0.4);
        assert_eq!(all.tns, -0.25 + -0.4);
        // No endpoints → finite zero, not inf.
        let empty = metrics_from_slacks(CornerSet::Late, &[], &[], 0);
        assert_eq!(empty.wns, 0.0);
        assert_eq!(empty.tns, 0.0);
    }

    #[test]
    fn register_spec_mirrors_the_cell() {
        let cell = CellSpec {
            cell: 7,
            design: "spm".into(),
            clock_period_ns: 1.5,
            utilization: 0.6,
            scale: 0.02,
            seed: 3,
            corner_set: CornerSet::Late,
        };
        let spec = register_spec_for_cell(&cell);
        assert_eq!(spec.name, "cell7");
        assert_eq!(spec.design, "spm");
        assert_eq!(spec.scale, 0.02);
        assert_eq!(spec.seed, 3);
        assert_eq!(spec.utilization, 0.6);
        assert_eq!(spec.clock_period_ns, 1.5);
        assert_eq!(spec.depth, None);
    }
}
