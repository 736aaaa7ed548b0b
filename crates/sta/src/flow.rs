//! The full "routing + STA" reference flow with wall-clock accounting.
//!
//! This is the reproduction's analogue of the paper's **OpenROAD flow**
//! column in Table 5: the time a placement-stage optimizer would have to
//! pay to obtain exact endpoint slacks, against which the GNN's inference
//! time is compared.

use std::time::Instant;

use tp_graph::Circuit;
use tp_liberty::Library;
use tp_place::Placement;
use tp_route::{route_circuit, Routing};

use crate::{StaConfig, StaEngine, TimingReport};

/// Output of [`run_full_flow`]: the timing report plus per-stage runtimes.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Routing (Steiner + Elmore annotation) wall-clock seconds.
    pub routing_seconds: f64,
    /// STA propagation wall-clock seconds.
    pub sta_seconds: f64,
    /// The routing produced, for feature extraction reuse.
    pub routing: Routing,
    /// The ground-truth timing report.
    pub report: TimingReport,
}

/// Routes `circuit` and runs STA, timing both stages.
///
/// # Panics
///
/// Panics if the circuit references cell types missing from `library`.
pub fn run_full_flow(
    circuit: &Circuit,
    placement: &Placement,
    library: &Library,
    config: &StaConfig,
) -> FlowResult {
    let t0 = Instant::now();
    let routing = {
        let _route_span = tp_obs::span!("flow.route", nets = circuit.num_nets());
        route_circuit(circuit, placement, library, &config.routing)
    };
    let routing_seconds = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let report = {
        let _sta_span = tp_obs::span!("flow.sta", pins = circuit.num_pins());
        let topology = circuit.topology();
        let engine = StaEngine::new(library, *config);
        engine.run_with_routing(circuit, &topology, &routing)
    };
    let sta_seconds = t1.elapsed().as_secs_f64();

    FlowResult {
        routing_seconds,
        sta_seconds,
        routing,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_graph::CircuitBuilder;
    use tp_place::{place_circuit, PlacementConfig};

    #[test]
    fn flow_times_both_stages() {
        let lib = Library::synthetic_sky130(0);
        let inv = lib.type_id("INV_X1").unwrap();
        let mut b = CircuitBuilder::new("t");
        let mut prev = b.add_primary_input("in");
        for i in 0..50 {
            let (_, ins, out) = b.add_cell(format!("u{i}"), inv, 1);
            b.connect(prev, &[ins[0]]).unwrap();
            prev = out;
        }
        let po = b.add_primary_output("out");
        b.connect(prev, &[po]).unwrap();
        let c = b.finish().unwrap();
        let p = place_circuit(&c, &PlacementConfig::default(), 1);
        let flow = run_full_flow(&c, &p, &lib, &StaConfig::default());
        assert!(flow.routing_seconds >= 0.0);
        assert!(flow.sta_seconds >= 0.0);
        assert_eq!(flow.report.num_pins(), c.num_pins());
        assert_eq!(flow.routing.nets().len(), c.num_nets());
    }
}
