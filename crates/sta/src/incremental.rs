//! Incremental timing updates after ECO-style placement changes.
//!
//! Timing-driven placement loops move a handful of cells at a time; a
//! production timer re-times only the affected cone instead of the whole
//! design. [`IncrementalSta`] keeps the propagated state alive, re-routes
//! only the nets touched by a move, and re-propagates arrival/slew along a
//! level-ordered worklist that stops where a pin's values come out
//! bit-identical to before, so the result equals a full re-analysis bit
//! for bit. Required times are refreshed with one backward sweep on demand.

use std::collections::{BTreeSet, BinaryHeap};

use tp_graph::{Circuit, EdgeRef, NetId, PinId, Topology};
use tp_liberty::Library;
use tp_place::Placement;
use tp_route::{route_circuit, route_net, Routing};

use crate::{StaConfig, StaEngine, TimingReport};

/// A persistent, incrementally updatable timing view of one circuit.
pub struct IncrementalSta<'a> {
    engine: StaEngine<'a>,
    topology: Topology,
    routing: Routing,
    at: Vec<[f32; 4]>,
    slew: Vec<[f32; 4]>,
    net_edge_delay: Vec<[f32; 4]>,
    cell_edge_delay: Vec<[f32; 4]>,
}

/// Min-heap entry ordered by topological level.
#[derive(PartialEq, Eq)]
struct Entry {
    level: usize,
    pin: PinId,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: reverse for min-level-first.
        other
            .level
            .cmp(&self.level)
            .then_with(|| other.pin.index().cmp(&self.pin.index()))
    }
}

impl PartialOrd for Entry {
    // NaN-safety audit: this ordering compares only integer fields
    // (`usize` level and pin index), so it is total by construction —
    // delegating to `Ord::cmp` is exact, with no float comparison and no
    // NaN to mis-order.
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<'a> IncrementalSta<'a> {
    /// Runs the initial full analysis and retains all state.
    ///
    /// # Panics
    ///
    /// Panics if the circuit references cell types missing from `library`.
    pub fn new(
        library: &'a Library,
        config: StaConfig,
        circuit: &Circuit,
        placement: &Placement,
    ) -> IncrementalSta<'a> {
        let engine = StaEngine::new(library, config);
        let topology = circuit.topology();
        let routing = route_circuit(circuit, placement, library, &config.routing);
        let mut at = vec![[0.0f32; 4]; circuit.num_pins()];
        let mut slew = vec![[0.0f32; 4]; circuit.num_pins()];
        let mut cell_edge_delay = vec![[0.0f32; 4]; circuit.num_cell_edges()];
        for level in topology.levels() {
            for &pin in level {
                engine.propagate_pin(
                    circuit,
                    &topology,
                    &routing,
                    pin,
                    &mut at,
                    &mut slew,
                    &mut cell_edge_delay,
                );
            }
        }
        let mut net_edge_delay = vec![[0.0f32; 4]; circuit.num_net_edges()];
        for net in circuit.net_ids() {
            let routed = routing.net(net);
            for (si, &eid) in circuit.net(net).edges.iter().enumerate() {
                net_edge_delay[eid.index()] = routed.sink_delays[si];
            }
        }
        IncrementalSta {
            engine,
            topology,
            routing,
            at,
            slew,
            net_edge_delay,
            cell_edge_delay,
        }
    }

    /// The current routing (updated by [`IncrementalSta::update_pins`]).
    pub fn routing(&self) -> &Routing {
        &self.routing
    }

    /// Applies a placement change affecting `moved_pins`: re-routes every
    /// net touching a moved pin and re-propagates timing through the
    /// affected cone. Returns the number of pins whose timing was
    /// recomputed (a measure of the update's locality).
    ///
    /// # Panics
    ///
    /// Panics if `placement` does not cover `circuit` or a moved pin id is
    /// out of range.
    pub fn update_pins(
        &mut self,
        circuit: &Circuit,
        placement: &Placement,
        moved_pins: &[PinId],
    ) -> usize {
        // 1. nets touched by any moved pin
        let mut nets: BTreeSet<NetId> = BTreeSet::new();
        for &p in moved_pins {
            if let Some(net) = circuit.pin(p).net {
                nets.insert(net);
            }
        }

        // 2. re-route, refresh edge delays, seed the worklist
        let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
        let mut queued: BTreeSet<PinId> = BTreeSet::new();
        let push = |heap: &mut BinaryHeap<Entry>,
                    queued: &mut BTreeSet<PinId>,
                    topo: &Topology,
                    pin: PinId| {
            if queued.insert(pin) {
                heap.push(Entry {
                    level: topo.level(pin),
                    pin,
                });
            }
        };
        for &net in &nets {
            let routed = route_net(
                circuit,
                placement,
                self.engine.library(),
                &self.engine.config().routing,
                net,
            );
            let data = circuit.net(net);
            for (si, &eid) in data.edges.iter().enumerate() {
                self.net_edge_delay[eid.index()] = routed.sink_delays[si];
            }
            self.routing.replace_net(net, routed);
            // Sinks see new wire delay; the driver sees a new load through
            // the cell arcs that produce it.
            for &s in &data.sinks {
                push(&mut heap, &mut queued, &self.topology, s);
            }
            push(&mut heap, &mut queued, &self.topology, data.driver);
        }

        // 3. level-ordered re-propagation, cut off where nothing changed
        let mut recomputed = 0usize;
        while let Some(Entry { pin, .. }) = heap.pop() {
            queued.remove(&pin);
            let old_at = self.at[pin.index()];
            let old_slew = self.slew[pin.index()];
            self.engine.propagate_pin(
                circuit,
                &self.topology,
                &self.routing,
                pin,
                &mut self.at,
                &mut self.slew,
                &mut self.cell_edge_delay,
            );
            recomputed += 1;
            let changed = (0..4).any(|k| {
                self.at[pin.index()][k].to_bits() != old_at[k].to_bits()
                    || self.slew[pin.index()][k].to_bits() != old_slew[k].to_bits()
            });
            if changed {
                for &er in self.topology.fanout(pin) {
                    let head = match er {
                        EdgeRef::Net(eid) => circuit.net_edge(eid).sink,
                        EdgeRef::Cell(eid) => circuit.cell_edge(eid).to,
                    };
                    push(&mut heap, &mut queued, &self.topology, head);
                }
            }
        }
        recomputed
    }

    /// Produces a full [`TimingReport`] from the current state (one
    /// backward sweep recomputes required times).
    pub fn report(&self, circuit: &Circuit) -> TimingReport {
        self.engine.finish_report(
            circuit,
            &self.topology,
            self.at.clone(),
            self.slew.clone(),
            self.net_edge_delay.clone(),
            self.cell_edge_delay.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_gen::{generate, GeneratorConfig, BENCHMARKS};
    use tp_place::{place_circuit, PlacementConfig, Point};

    fn fixture() -> (Library, Circuit, Placement) {
        let library = Library::synthetic_sky130(1);
        let circuit = generate(
            &BENCHMARKS[13], // usb
            &library,
            &GeneratorConfig {
                scale: 0.05,
                seed: 3,
                depth: None,
            },
        );
        let placement = place_circuit(&circuit, &PlacementConfig::default(), 4);
        (library, circuit, placement)
    }

    /// Moves one cell (all its pins) to a corner of the die.
    fn move_cell(
        circuit: &Circuit,
        placement: &Placement,
        cell: tp_graph::CellId,
        to: Point,
    ) -> (Placement, Vec<PinId>) {
        let mut locs = placement.locations().to_vec();
        let cd = circuit.cell(cell);
        let mut moved = Vec::new();
        for &p in cd.inputs.iter().chain(std::iter::once(&cd.output)) {
            locs[p.index()] = to;
            moved.push(p);
        }
        (Placement::new(*placement.die(), locs), moved)
    }

    /// Asserts arrival, slew and required time agree bit for bit at every
    /// pin and corner.
    fn assert_bit_equal(circuit: &Circuit, inc: &TimingReport, full: &TimingReport) {
        let bits = |v: [f32; 4]| v.map(f32::to_bits);
        for p in circuit.pin_ids() {
            assert_eq!(
                bits(inc.arrival(p)),
                bits(full.arrival(p)),
                "arrival at pin {p}"
            );
            assert_eq!(bits(inc.slew(p)), bits(full.slew(p)), "slew at pin {p}");
            assert_eq!(
                bits(inc.required(p)),
                bits(full.required(p)),
                "required at pin {p}"
            );
        }
    }

    #[test]
    fn incremental_matches_full_rerun() {
        let (library, circuit, placement) = fixture();
        let config = StaConfig::default();
        let mut inc = IncrementalSta::new(&library, config, &circuit, &placement);

        let cell = tp_graph::CellId::new(circuit.num_cells() / 2);
        let to = Point::new(1.0, 1.0);
        let (new_placement, moved) = move_cell(&circuit, &placement, cell, to);
        inc.update_pins(&circuit, &new_placement, &moved);
        let inc_report = inc.report(&circuit);

        let full = StaEngine::new(&library, config).run(&circuit, &new_placement);
        assert_bit_equal(&circuit, &inc_report, &full);
    }

    #[test]
    fn update_is_local() {
        let (library, circuit, placement) = fixture();
        let mut inc = IncrementalSta::new(&library, StaConfig::default(), &circuit, &placement);
        // nudge one cell slightly: the affected cone must be much smaller
        // than the design
        let cell = tp_graph::CellId::new(0);
        let cd = circuit.cell(cell);
        let base = placement.location(cd.output);
        let (new_placement, moved) =
            move_cell(&circuit, &placement, cell, Point::new(base.x + 0.5, base.y));
        let recomputed = inc.update_pins(&circuit, &new_placement, &moved);
        assert!(recomputed > 0);
        assert!(
            recomputed < circuit.num_pins() / 2,
            "recomputed {recomputed} of {} pins — not incremental",
            circuit.num_pins()
        );
    }

    #[test]
    fn noop_move_converges_immediately() {
        let (library, circuit, placement) = fixture();
        let mut inc = IncrementalSta::new(&library, StaConfig::default(), &circuit, &placement);
        // "move" a cell to exactly where it already is
        let cell = tp_graph::CellId::new(1);
        let cd = circuit.cell(cell);
        let moved: Vec<PinId> = cd
            .inputs
            .iter()
            .chain(std::iter::once(&cd.output))
            .copied()
            .collect();
        let recomputed = inc.update_pins(&circuit, &placement, &moved);
        // only the seeded pins themselves get recomputed, nothing spreads
        let seeded_bound = 4 * (cd.inputs.len() + 1) * 8;
        assert!(recomputed <= seeded_bound, "{recomputed} > {seeded_bound}");
    }

    #[test]
    fn repeated_updates_stay_consistent() {
        let (library, circuit, placement) = fixture();
        let config = StaConfig::default();
        let mut inc = IncrementalSta::new(&library, config, &circuit, &placement);
        let mut current = placement;
        for step in 0..3 {
            let cell = tp_graph::CellId::new(step * 2 + 1);
            let to = Point::new(2.0 + step as f32, 3.0);
            let (next, moved) = move_cell(&circuit, &current, cell, to);
            inc.update_pins(&circuit, &next, &moved);
            current = next;
        }
        let full = StaEngine::new(&library, config).run(&circuit, &current);
        assert_bit_equal(&circuit, &inc.report(&circuit), &full);
    }
}
