//! Levelized forward/backward propagation.
//!
//! Pins within one topological level have no edges between them (proved by
//! `levels_have_no_internal_edges` in tp-graph), so each level is a
//! parallel map: big levels fan out across `tp-par` workers, computing
//! every pin's update from the immutable previous state and applying the
//! results in level order. Per-pin arithmetic is identical to the serial
//! sweep — same fan-in/fan-out fold order — so reports are bit-identical
//! at any thread count.

use tp_graph::{Circuit, EdgeRef, PinKind, Topology};
use tp_liberty::{Corner, Library};
use tp_place::Placement;
use tp_route::{route_circuit, Routing};

use crate::{StaConfig, TimingReport};

/// The STA engine: borrows a cell library and owns its constraints.
#[derive(Debug, Clone)]
pub struct StaEngine<'a> {
    library: &'a Library,
    config: StaConfig,
}

impl<'a> StaEngine<'a> {
    /// Creates an engine over `library` with the given constraints.
    pub fn new(library: &'a Library, config: StaConfig) -> StaEngine<'a> {
        StaEngine { library, config }
    }

    /// Routes the design and runs full timing analysis.
    ///
    /// # Panics
    ///
    /// Panics if the circuit references cell types missing from the library.
    pub fn run(&self, circuit: &Circuit, placement: &Placement) -> TimingReport {
        let routing = route_circuit(circuit, placement, self.library, &self.config.routing);
        let topology = circuit.topology();
        self.run_with_routing(circuit, &topology, &routing)
    }

    /// Runs timing analysis over precomputed routing (reuses topology).
    ///
    /// # Panics
    ///
    /// Panics if `topology`/`routing` do not belong to `circuit`.
    pub fn run_with_routing(
        &self,
        circuit: &Circuit,
        topology: &Topology,
        routing: &Routing,
    ) -> TimingReport {
        let n = circuit.num_pins();
        let cfg = &self.config;

        let mut net_edge_delay = vec![[0.0f32; 4]; circuit.num_net_edges()];
        for net in circuit.net_ids() {
            let routed = routing.net(net);
            for (si, &eid) in circuit.net(net).edges.iter().enumerate() {
                net_edge_delay[eid.index()] = routed.sink_delays[si];
            }
        }

        // ---- forward propagation, level by level ----
        // Every pin sits on one level and its update overwrites its whole
        // row (and every cell edge is in its head pin's fan-in), so these
        // initial values are never read.
        let mut at = vec![[0.0f32; 4]; n];
        let mut slew = vec![[0.0f32; 4]; n];
        let mut cell_edge_delay = vec![[0.0f32; 4]; circuit.num_cell_edges()];
        {
            let _fwd_span = tp_obs::span!("sta.forward", pins = n);
            for level in topology.levels() {
                tp_obs::metrics::count("sta.pins_propagated", level.len() as u64);
                // Compute every pin of the level from the immutable
                // lower-level state, then apply in level order; the cost
                // model decides inline-vs-fork per level. Cell edges
                // feeding distinct pins are distinct, so the writes touch
                // disjoint slots.
                let updates =
                    tp_par::map_items_costed(&FWD_COST, level.len(), level.len() as u64, |i| {
                        self.compute_pin(circuit, topology, routing, level[i], &at, &slew)
                    });
                for (&pin, update) in level.iter().zip(updates) {
                    at[pin.index()] = update.at;
                    slew[pin.index()] = update.slew;
                    for (eid, d) in update.cell_delays {
                        cell_edge_delay[eid.index()] = d;
                    }
                }
            }
        }

        // ---- backward required-time propagation ----
        let _bwd_span = tp_obs::span!("sta.backward", pins = n);
        // Late RATs min-reduce (init +inf), early RATs max-reduce (init
        // -inf); endpoints start at their constraint.
        let unconstrained = Corner::ALL.map(|c| {
            if c.is_early() {
                f32::NEG_INFINITY
            } else {
                f32::INFINITY
            }
        });
        let constraint = Corner::ALL.map(|c| {
            if c.is_early() {
                cfg.hold_time
            } else {
                cfg.clock_period - cfg.setup_time
            }
        });
        let mut rat = vec![unconstrained; n];
        let endpoints = circuit.endpoints();
        for &ep in &endpoints {
            rat[ep.index()] = constraint;
        }
        // All fanout sinks sit at strictly higher levels, so walking the
        // levels in reverse sees only finalized sink RATs — the same
        // per-pin fold as a reverse topological order, level-parallel.
        for level in topology.levels().iter().rev() {
            let rows = tp_par::map_items_costed(&BWD_COST, level.len(), level.len() as u64, |i| {
                self.compute_rat_pin(
                    circuit,
                    topology,
                    level[i],
                    &rat,
                    &net_edge_delay,
                    &cell_edge_delay,
                )
            });
            for (&pin, row) in level.iter().zip(rows) {
                rat[pin.index()] = row;
            }
        }

        // A pin no startpoint reaches still holds its infinite arrival
        // seed; it reads arrival 0. Required times need no such step: the
        // builder rejects dangling pins, so every pin reaches an endpoint
        // through finite delays.
        for a in at.iter_mut().flatten() {
            if !a.is_finite() {
                *a = 0.0;
            }
        }

        TimingReport {
            at,
            slew,
            rat,
            net_edge_delay,
            cell_edge_delay,
            endpoints,
        }
    }
}

/// Adaptive dispatch for the forward level sweep: items and units are the
/// level's pins, seeded near the measured per-pin kernel cost. The model
/// inlines small levels (the fork-join handoff used to cost more than the
/// pin kernels at `TP_SCALE=0.02`) and sizes chunks for big ones; either
/// way it only selects serial-vs-parallel, never the arithmetic, so it
/// cannot affect results.
static FWD_COST: tp_par::CostModel = tp_par::CostModel::new("sta.forward_level", 200.0);

/// Adaptive dispatch for the backward (RAT) level sweep.
static BWD_COST: tp_par::CostModel = tp_par::CostModel::new("sta.backward_level", 100.0);

/// One pin's recomputed forward state: its arrival/slew rows plus the
/// cell-arc delays its fan-in lookup produced. Pure output of
/// [`StaEngine::compute_pin`]; applied to the shared arrays in level order.
struct PinUpdate {
    at: [f32; 4],
    slew: [f32; 4],
    cell_delays: Vec<(tp_graph::CellEdgeId, [f32; 4])>,
}

impl StaEngine<'_> {
    /// Pure forward kernel: derives `pin`'s update from the immutable
    /// current state. Reads only fan-in pins (strictly lower levels), so
    /// every pin of a level can run concurrently against the same arrays.
    fn compute_pin(
        &self,
        circuit: &Circuit,
        topology: &Topology,
        routing: &Routing,
        pin: tp_graph::PinId,
        at: &[[f32; 4]],
        slew: &[[f32; 4]],
    ) -> PinUpdate {
        let cfg = &self.config;
        let pd = circuit.pin(pin);
        if pd.is_startpoint {
            let base = match pd.kind {
                PinKind::PrimaryInput => cfg.input_delay,
                _ => cfg.clk_to_q, // register output
            };
            return PinUpdate {
                at: [base; 4],
                slew: [cfg.input_slew; 4],
                cell_delays: Vec::new(),
            };
        }
        let mut up = PinUpdate {
            at: [0.0; 4],
            slew: [0.0; 4],
            cell_delays: Vec::new(),
        };
        for c in Corner::ALL {
            let init = if c.is_early() {
                f32::INFINITY
            } else {
                f32::NEG_INFINITY
            };
            up.at[c.index()] = init;
            up.slew[c.index()] = init;
        }
        for &er in topology.fanin(pin) {
            match er {
                EdgeRef::Net(eid) => {
                    let e = circuit.net_edge(eid);
                    let routed = routing.net(e.net);
                    let si = circuit
                        .net(e.net)
                        .sinks
                        .iter()
                        .position(|&s| s == pin)
                        .expect("sink is on its net");
                    for c in Corner::ALL {
                        let k = c.index();
                        let cand_at = at[e.driver.index()][k] + routed.sink_delays[si][k];
                        let cand_slew =
                            routed.degrade_slew(&cfg.routing, si, c, slew[e.driver.index()][k]);
                        reduce(&mut up.at[k], cand_at, c);
                        reduce(&mut up.slew[k], cand_slew, c);
                    }
                }
                EdgeRef::Cell(eid) => {
                    let e = circuit.cell_edge(eid);
                    let cd = circuit.cell(e.cell);
                    let ct = self.library.cell(cd.type_id);
                    let arc = &ct.arcs[e.input_index as usize];
                    let out_net = circuit.pin(e.to).net.expect("output pin is connected");
                    let load = routing.net(out_net).total_cap;
                    let mut delays = [0.0f32; 4];
                    for c in Corner::ALL {
                        let k = c.index();
                        let src = if arc.inverting {
                            c.flipped_transition()
                        } else {
                            c
                        };
                        let in_slew = slew[e.from.index()][src.index()];
                        let d = arc.delay(c).lookup(in_slew, load[k]);
                        let os = arc.out_slew(c).lookup(in_slew, load[k]);
                        delays[k] = d;
                        let cand_at = at[e.from.index()][src.index()] + d;
                        reduce(&mut up.at[k], cand_at, c);
                        if cand_at.is_finite() {
                            reduce(&mut up.slew[k], os, c);
                        }
                    }
                    up.cell_delays.push((eid, delays));
                }
            }
        }
        // A pin no startpoint reaches (one fed only by zero-input cells)
        // keeps its infinite arrival seed. It carries no transition, so a
        // cell output takes no slew from such an input (a net sink has one
        // driver and is unreached with it); and it presents the asserted
        // input slew, so the arcs it feeds still look up finite delays.
        for k in 0..4 {
            if !up.at[k].is_finite() {
                up.slew[k] = cfg.input_slew;
            }
        }
        up
    }

    /// Pure backward kernel: folds `pin`'s fanout constraints (all at
    /// strictly higher, already-final levels) into its current RAT row, in
    /// CSR fanout order — the exact fold the serial reverse sweep does.
    fn compute_rat_pin(
        &self,
        circuit: &Circuit,
        topology: &Topology,
        pin: tp_graph::PinId,
        rat: &[[f32; 4]],
        net_edge_delay: &[[f32; 4]],
        cell_edge_delay: &[[f32; 4]],
    ) -> [f32; 4] {
        let mut row = rat[pin.index()];
        for &er in topology.fanout(pin) {
            match er {
                EdgeRef::Net(eid) => {
                    let e = circuit.net_edge(eid);
                    for c in Corner::ALL {
                        let k = c.index();
                        let cand = rat[e.sink.index()][k] - net_edge_delay[eid.index()][k];
                        reduce_rat(&mut row[k], cand, c);
                    }
                }
                EdgeRef::Cell(eid) => {
                    let e = circuit.cell_edge(eid);
                    let cd = circuit.cell(e.cell);
                    let ct = self.library.cell(cd.type_id);
                    let arc = &ct.arcs[e.input_index as usize];
                    for c in Corner::ALL {
                        // arrival at output corner c consumed input
                        // corner src; the constraint flows to src.
                        let src = if arc.inverting {
                            c.flipped_transition()
                        } else {
                            c
                        };
                        let cand =
                            rat[e.to.index()][c.index()] - cell_edge_delay[eid.index()][c.index()];
                        reduce_rat(&mut row[src.index()], cand, src);
                    }
                }
            }
        }
        row
    }
}

/// Max-reduce at late corners, min-reduce at early corners (arrivals).
fn reduce(slot: &mut f32, cand: f32, corner: Corner) {
    *slot = if corner.is_early() {
        slot.min(cand)
    } else {
        slot.max(cand)
    };
}

/// Min-reduce at late corners, max-reduce at early corners (required).
fn reduce_rat(slot: &mut f32, cand: f32, corner: Corner) {
    *slot = if corner.is_early() {
        slot.max(cand)
    } else {
        slot.min(cand)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_graph::CircuitBuilder;
    use tp_place::{place_circuit, PlacementConfig};

    fn run_chain(n: usize) -> (Circuit, TimingReport, Library) {
        let lib = Library::synthetic_sky130(0);
        let inv = lib.type_id("INV_X1").unwrap();
        let mut b = CircuitBuilder::new("chain");
        let mut prev = b.add_primary_input("in");
        for i in 0..n {
            let (_, ins, out) = b.add_cell(format!("u{i}"), inv, 1);
            b.connect(prev, &[ins[0]]).unwrap();
            prev = out;
        }
        let po = b.add_primary_output("out");
        b.connect(prev, &[po]).unwrap();
        let c = b.finish().unwrap();
        let p = place_circuit(&c, &PlacementConfig::default(), 5);
        let r = StaEngine::new(&lib, StaConfig::default()).run(&c, &p);
        (c, r, lib)
    }

    use tp_liberty::Library;

    #[test]
    fn arrival_monotone_along_chain() {
        let (c, r, _lib) = run_chain(6);
        let topo = c.topology();
        for e in c.net_edges() {
            let _ = topo;
            assert!(
                r.arrival(e.sink)[2] >= r.arrival(e.driver)[2],
                "late-rise arrival must grow along wires"
            );
        }
    }

    #[test]
    fn longer_chain_larger_delay() {
        let (_, r3, _) = run_chain(3);
        let (_, r9, _) = run_chain(9);
        assert!(r9.critical_path_delay() > r3.critical_path_delay());
    }

    #[test]
    fn early_arrival_not_after_late() {
        let (c, r, _) = run_chain(8);
        for p in c.pin_ids() {
            let a = r.arrival(p);
            assert!(a[0] <= a[2] + 1e-6, "early rise vs late rise at {p}");
            assert!(a[1] <= a[3] + 1e-6, "early fall vs late fall at {p}");
        }
    }

    #[test]
    fn endpoint_slack_consistent_with_at_and_rat() {
        let (c, r, _) = run_chain(5);
        let ep = c.endpoints()[0];
        let slack = r.slack(ep);
        let at = r.arrival(ep);
        let rat = r.required(ep);
        assert!((slack[2] - (rat[2] - at[2])).abs() < 1e-6);
        assert!((slack[0] - (at[0] - rat[0])).abs() < 1e-6);
    }

    #[test]
    fn tight_clock_creates_violations() {
        let lib = Library::synthetic_sky130(0);
        let inv = lib.type_id("INV_X1").unwrap();
        let mut b = CircuitBuilder::new("t");
        let mut prev = b.add_primary_input("in");
        for i in 0..20 {
            let (_, ins, out) = b.add_cell(format!("u{i}"), inv, 1);
            b.connect(prev, &[ins[0]]).unwrap();
            prev = out;
        }
        let po = b.add_primary_output("out");
        b.connect(prev, &[po]).unwrap();
        let c = b.finish().unwrap();
        let p = place_circuit(&c, &PlacementConfig::default(), 5);
        let relaxed =
            StaEngine::new(&lib, StaConfig::default().with_clock_period(10.0)).run(&c, &p);
        let tight = StaEngine::new(&lib, StaConfig::default().with_clock_period(0.1)).run(&c, &p);
        assert!(relaxed.wns_setup() > 0.0);
        assert!(tight.wns_setup() < 0.0);
        assert!(tight.tns_setup() < 0.0);
        assert_eq!(relaxed.tns_setup(), 0.0);
    }

    #[test]
    fn inverting_arc_swaps_transition() {
        // One inverter: late-rise arrival at the output must be driven by
        // the late-fall arrival at the input. With symmetric inputs the
        // effect shows through differing rise/fall delays.
        let (c, r, _) = run_chain(1);
        let out_pin = c
            .pin_ids()
            .find(|&p| matches!(c.pin(p).kind, PinKind::CellOutput))
            .unwrap();
        let a = r.arrival(out_pin);
        // rise and fall differ because corner scales differ
        assert_ne!(a[2], a[3]);
    }

    #[test]
    fn net_delay_to_root_feature() {
        let (c, r, _) = run_chain(2);
        // Every net sink gets the wire delay; every driver gets zeros.
        for e in c.net_edges() {
            let nd = r.net_delay_to_root(&c, e.sink);
            assert_eq!(nd, r.net_edge_delay(netedge_id(&c, e.sink)));
        }
        let pi = c.startpoints()[0];
        assert_eq!(r.net_delay_to_root(&c, pi), [0.0; 4]);
    }

    fn netedge_id(c: &Circuit, sink: tp_graph::PinId) -> tp_graph::NetEdgeId {
        let net = c.pin(sink).net.unwrap();
        let nd = c.net(net);
        let pos = nd.sinks.iter().position(|&s| s == sink).unwrap();
        nd.edges[pos]
    }

    #[test]
    fn cell_delays_recorded_positive() {
        let (c, r, _) = run_chain(4);
        for i in 0..c.num_cell_edges() {
            let d = r.cell_edge_delay(tp_graph::CellEdgeId::new(i));
            for v in d {
                assert!(v > 0.0, "cell arc delays are positive");
            }
        }
    }
}
