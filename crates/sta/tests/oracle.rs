//! A brute-force oracle for the timing engine.
//!
//! On small seeded random netlists the oracle enumerates every
//! startpoint→pin and every pin→endpoint path from `Circuit`'s edge lists
//! alone — no `Topology`, no levels — sums the report's own edge delays
//! along each path, carrying the corner through inverting arcs, and checks
//! arrival, required time and slack at every pin and all four corners, bit
//! for bit.
//!
//! Exact equality is the right bar, not a tolerance: `x + d` and `x − d`
//! round monotonically in `x`, so the max (or min) over paths of each
//! path's sum equals the engine's per-pin max (or min) over fan-in of
//! already-reduced values.

use tp_graph::{CellEdgeId, Circuit, CircuitBuilder, NetEdgeId, PinId, PinKind};
use tp_liberty::{Corner, Library};
use tp_place::{place_circuit, PlacementConfig};
use tp_rng::{prop, Rng, StdRng};
use tp_route::route_circuit;
use tp_sta::{StaConfig, StaEngine, TimingReport};

const CASES: usize = 48;

/// Combinational library cells the random netlists draw from: inverting
/// and non-inverting, one to three inputs.
const CELLS: [&str; 9] = [
    "INV_X1", "BUF_X1", "NAND2_X1", "AND2_X1", "XOR2_X1", "XNOR2_X1", "NAND3_X1", "AOI21_X1",
    "MUX2_X1",
];

/// One edge of the timing graph with the report's delay on it.
struct Edge {
    from: usize,
    to: usize,
    delay: [f32; 4],
    inverting: bool,
}

impl Edge {
    /// The corner at `from` that arrival at corner `k` of `to` comes from.
    fn source_corner(&self, k: usize) -> usize {
        if self.inverting {
            Corner::ALL[k].flipped_transition().index()
        } else {
            k
        }
    }
}

/// Every net and cell edge of `circuit`, read from its edge lists.
fn edges(circuit: &Circuit, library: &Library, report: &TimingReport) -> Vec<Edge> {
    let nets = circuit.net_edges().iter().enumerate().map(|(i, e)| Edge {
        from: e.driver.index(),
        to: e.sink.index(),
        delay: report.net_edge_delay(NetEdgeId::new(i)),
        inverting: false,
    });
    let cells = circuit.cell_edges().iter().enumerate().map(|(i, e)| {
        let cell = library.cell(circuit.cell(e.cell).type_id);
        Edge {
            from: e.from.index(),
            to: e.to.index(),
            delay: report.cell_edge_delay(CellEdgeId::new(i)),
            inverting: cell.arcs[e.input_index as usize].inverting,
        }
    });
    nets.chain(cells).collect()
}

/// Late corners keep the larger candidate, early corners the smaller.
fn fold_arrival(best: &mut [f32; 4], cand: [f32; 4]) {
    for c in Corner::ALL {
        let k = c.index();
        best[k] = if c.is_early() {
            best[k].min(cand[k])
        } else {
            best[k].max(cand[k])
        };
    }
}

/// Late required times keep the smaller candidate, early ones the larger.
fn fold_required(best: &mut [f32; 4], cand: [f32; 4]) {
    for c in Corner::ALL {
        let k = c.index();
        best[k] = if c.is_early() {
            best[k].max(cand[k])
        } else {
            best[k].min(cand[k])
        };
    }
}

/// Walks every path leaving `pin`, whose arrival along the path so far is
/// `at`, and folds each path's arrival into `best`.
fn walk_arrivals(out: &[Vec<&Edge>], pin: usize, at: [f32; 4], best: &mut [Option<[f32; 4]>]) {
    match &mut best[pin] {
        Some(b) => fold_arrival(b, at),
        slot => *slot = Some(at),
    }
    for edge in &out[pin] {
        let next = std::array::from_fn(|k| at[edge.source_corner(k)] + edge.delay[k]);
        walk_arrivals(out, edge.to, next, best);
    }
}

/// Walks every path from `pin` to an endpoint (`path` holds the edges taken
/// so far) and folds each path's required time at its first pin into
/// `best`, subtracting the delays from the endpoint back.
fn walk_required<'a>(
    circuit: &Circuit,
    out: &[Vec<&'a Edge>],
    pin: usize,
    path: &mut Vec<&'a Edge>,
    constraint: [f32; 4],
    best: &mut [f32; 4],
) {
    if circuit.pin(PinId::new(pin)).is_endpoint {
        let mut rat = constraint;
        for edge in path.iter().rev() {
            let mut prev = [0.0f32; 4];
            for k in 0..4 {
                prev[edge.source_corner(k)] = rat[k] - edge.delay[k];
            }
            rat = prev;
        }
        fold_required(best, rat);
    }
    for &edge in &out[pin] {
        path.push(edge);
        walk_required(circuit, out, edge.to, path, constraint, best);
        path.pop();
    }
}

/// Checks `report` against path enumeration over `circuit`, and that every
/// edge delay and required time is finite. Returns the pins no startpoint
/// reaches.
fn check_against_paths(
    circuit: &Circuit,
    library: &Library,
    config: &StaConfig,
    report: &TimingReport,
) -> Vec<PinId> {
    let n = circuit.num_pins();
    let edges = edges(circuit, library, report);
    let mut out: Vec<Vec<&Edge>> = vec![Vec::new(); n];
    for edge in &edges {
        assert!(edge.delay.iter().all(|d| d.is_finite()), "{:?}", edge.delay);
        out[edge.from].push(edge);
    }

    let mut best_at: Vec<Option<[f32; 4]>> = vec![None; n];
    for p in circuit.pin_ids() {
        let pd = circuit.pin(p);
        if pd.is_startpoint {
            let base = match pd.kind {
                PinKind::PrimaryInput => config.input_delay,
                _ => config.clk_to_q,
            };
            walk_arrivals(&out, p.index(), [base; 4], &mut best_at);
        }
    }

    let constraint = Corner::ALL.map(|c| {
        if c.is_early() {
            config.hold_time
        } else {
            config.clock_period - config.setup_time
        }
    });
    // Late required times min-reduce from +inf, early ones max-reduce
    // from -inf; every pin reaches an endpoint, so none stays infinite.
    let unconstrained = Corner::ALL.map(|c| {
        if c.is_early() {
            f32::NEG_INFINITY
        } else {
            f32::INFINITY
        }
    });
    let bits = |v: [f32; 4]| v.map(f32::to_bits);
    let mut unreached = Vec::new();
    for p in circuit.pin_ids() {
        let name = &circuit.pin(p).name;
        // A pin no startpoint reaches reads arrival 0 at the input slew.
        let at = best_at[p.index()].unwrap_or_else(|| {
            unreached.push(p);
            assert_eq!(
                bits(report.slew(p)),
                bits([config.input_slew; 4]),
                "slew at unreached {name}"
            );
            [0.0; 4]
        });
        let mut rat = unconstrained;
        walk_required(
            circuit,
            &out,
            p.index(),
            &mut Vec::new(),
            constraint,
            &mut rat,
        );
        assert!(rat.iter().all(|v| v.is_finite()), "required at {name}");
        let slack = Corner::ALL.map(|c| {
            let k = c.index();
            if c.is_early() {
                at[k] - rat[k]
            } else {
                rat[k] - at[k]
            }
        });
        assert_eq!(bits(report.arrival(p)), bits(at), "arrival at {name}");
        assert_eq!(bits(report.required(p)), bits(rat), "required at {name}");
        assert_eq!(bits(report.slack(p)), bits(slack), "slack at {name}");
    }
    unreached
}

/// A random netlist small enough to enumerate: primary inputs, registers
/// and 2–9 cells, each input driven by a random earlier driver, so nets
/// get several sinks. About one cell in eight is a zero-input tie cell,
/// whose output no startpoint reaches.
fn random_circuit(rng: &mut StdRng, library: &Library) -> Circuit {
    let mut b = CircuitBuilder::new("oracle");
    let mut drivers: Vec<PinId> = (0..rng.gen_range(1..=3))
        .map(|i| b.add_primary_input(format!("in{i}")))
        .collect();
    let mut data_pins = Vec::new();
    let dff = library.type_id("DFF_X1").unwrap();
    for i in 0..rng.gen_range(0..=2) {
        let (_, d, q) = b.add_register(format!("r{i}"), dff);
        drivers.push(q);
        data_pins.push(d);
    }
    let mut sinks: Vec<Vec<PinId>> = vec![Vec::new(); drivers.len()];
    for i in 0..rng.gen_range(2..=9) {
        let name = CELLS[rng.gen_range(0..CELLS.len())];
        let inputs = if rng.gen_bool(0.125) {
            0
        } else {
            library.cell_by_name(name).unwrap().num_inputs
        };
        let (_, ins, out) = b.add_cell(format!("u{i}"), library.type_id(name).unwrap(), inputs);
        for pin in ins {
            sinks[rng.gen_range(0..drivers.len())].push(pin);
        }
        drivers.push(out);
        sinks.push(Vec::new());
    }
    for d in data_pins {
        sinks[rng.gen_range(0..drivers.len())].push(d);
    }
    for i in 0..rng.gen_range(1..=2) {
        let po = b.add_primary_output(format!("out{i}"));
        sinks[rng.gen_range(0..drivers.len())].push(po);
    }
    for (i, (&driver, sinks)) in drivers.iter().zip(&mut sinks).enumerate() {
        if sinks.is_empty() {
            sinks.push(b.add_primary_output(format!("tail{i}")));
        }
        b.connect(driver, sinks).unwrap();
    }
    b.finish().unwrap()
}

#[test]
fn engine_matches_path_enumeration() {
    let library = Library::synthetic_sky130(3);
    let (mut registers, mut multi_sink_nets, mut unreached) = (0, 0, 0);
    prop::check("sta_oracle", CASES, |rng| {
        let circuit = random_circuit(rng, &library);
        let placement = place_circuit(&circuit, &PlacementConfig::default(), rng.next_u64());
        let config = StaConfig::default().with_clock_period(rng.gen_range(0.2f32..3.0));
        let report = StaEngine::new(&library, config).run(&circuit, &placement);
        unreached += check_against_paths(&circuit, &library, &config, &report).len();
        registers += circuit
            .cell_ids()
            .filter(|&c| circuit.cell(c).is_register)
            .count();
        multi_sink_nets += circuit
            .net_ids()
            .filter(|&n| circuit.net(n).sinks.len() > 1)
            .count();
    });
    // The seeded cases must reach every kind of pin the checks treat
    // differently, or a branch above went untested.
    assert!(registers > 0 && multi_sink_nets > 0 && unreached > 0);
}

/// PI→INV→PO next to a zero-input tie cell that drives INV→PO2 and one
/// input of a NAND2 whose other input the PI drives. No startpoint reaches
/// the tie output, the inverter it drives or PO2: they read arrival 0 at
/// the input slew, with finite required times. The NAND2 output and what
/// it drives stay reached: the tie-fed input adds no slew candidate, so
/// the NAND2 output's slew comes from the PI-driven input alone.
#[test]
fn pins_no_startpoint_reaches_read_arrival_zero() {
    let library = Library::synthetic_sky130(0);
    let inv = library.type_id("INV_X1").unwrap();
    let nand = library.type_id("NAND2_X1").unwrap();
    let mut b = CircuitBuilder::new("tie");
    let pi = b.add_primary_input("in");
    let (_, i0, o0) = b.add_cell("u0", inv, 1);
    let po = b.add_primary_output("out");
    let (_, _, tie) = b.add_cell("tie", inv, 0);
    let (_, i1, o1) = b.add_cell("u1", inv, 1);
    let po2 = b.add_primary_output("out2");
    let (_, i2, o2) = b.add_cell("u2", nand, 2);
    let (_, i3, o3) = b.add_cell("u3", inv, 1);
    let po3 = b.add_primary_output("out3");
    b.connect(pi, &[i0[0], i2[0]]).unwrap();
    b.connect(o0, &[po]).unwrap();
    b.connect(tie, &[i1[0], i2[1]]).unwrap();
    b.connect(o1, &[po2]).unwrap();
    b.connect(o2, &[i3[0]]).unwrap();
    b.connect(o3, &[po3]).unwrap();
    let circuit = b.finish().unwrap();
    let placement = place_circuit(&circuit, &PlacementConfig::default(), 5);
    let config = StaConfig::default();
    let report = StaEngine::new(&library, config).run(&circuit, &placement);

    let unreached = check_against_paths(&circuit, &library, &config, &report);
    assert_eq!(unreached, vec![tie, i1[0], o1, po2, i2[1]]);
    assert!(report.arrival(po3).iter().all(|&a| a > config.input_delay));

    let routing = route_circuit(&circuit, &placement, &library, &config.routing);
    let load = routing.net(circuit.pin(o2).net.unwrap()).total_cap;
    let arc = &library.cell(nand).arcs[0];
    for c in Corner::ALL {
        let src = if arc.inverting {
            c.flipped_transition()
        } else {
            c
        };
        let slew = arc
            .out_slew(c)
            .lookup(report.slew(i2[0])[src.index()], load[c.index()]);
        assert_eq!(report.slew(o2)[c.index()].to_bits(), slew.to_bits(), "{c}");
    }
}
