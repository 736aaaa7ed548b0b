//! Lowering one analyzed design into model tensors.

use tp_graph::{Circuit, GraphError, PinId, PinKind};
use tp_liberty::{Corner, Library};
use tp_place::{Die, Placement, Point};
use tp_sta::flow::FlowResult;
use tp_sta::StaConfig;
use tp_tensor::Tensor;

/// Width of the pin feature vector (Table 2).
pub const PIN_FEATURES: usize = 10;
/// Width of the net-edge feature vector (Table 3).
pub const NET_EDGE_FEATURES: usize = 2;
/// Width of the cell-edge feature vector (Table 3): 8 valid flags +
/// 8 × 14 LUT indices + 8 × 49 LUT values.
pub const CELL_EDGE_FEATURES: usize = 8 + 8 * 14 + 8 * 49;

/// Position scale: µm → feature units.
const POS_SCALE: f32 = 1.0 / 100.0;
/// Capacitance scale: pF → feature units.
const CAP_SCALE: f32 = 100.0;
/// Slew-axis scale for LUT index features.
const SLEW_IDX_SCALE: f32 = 10.0;
/// Load-axis scale for LUT index features.
const LOAD_IDX_SCALE: f32 = 100.0;
/// LUT value scale (ns → feature units).
const LUT_VAL_SCALE: f32 = 10.0;

/// Maximum supported depth of the levelized topology. Deeper graphs are
/// rejected at lowering time ([`GraphError::LevelOverflow`]) — far above
/// any real design, this bound exists so corrupted inputs fail loudly
/// instead of hanging the propagation engine.
pub const MAX_LEVELS: usize = 1 << 20;

/// Unit scale of the net-delay labels: stored in units of 10 ps (ns × 100)
/// so that Elmore wire delays — orders of magnitude smaller than cell
/// delays — carry a usable gradient signal in the Eq. 6 auxiliary task.
/// R² is invariant to the choice as long as prediction and truth share it.
pub const NET_DELAY_SCALE: f32 = 100.0;

/// Wall-clock record of the reference flow that produced the labels.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FlowTiming {
    /// Routing stage, seconds.
    pub routing_seconds: f64,
    /// STA stage, seconds.
    pub sta_seconds: f64,
}

impl FlowTiming {
    /// Total reference-flow runtime, seconds.
    pub fn total(&self) -> f64 {
        self.routing_seconds + self.sta_seconds
    }
}

/// One design lowered to tensors: graph structure, features and labels.
///
/// All index vectors use pin/edge arena indices from the source
/// [`Circuit`]; tensor row `i` corresponds to arena index `i`.
#[derive(Debug, Clone)]
pub struct DesignGraph {
    /// Design name.
    pub name: String,
    /// Whether this design belongs to the training split.
    pub is_train: bool,
    /// Number of pins.
    pub num_pins: usize,
    /// Net-edge sources (drivers), one per net edge.
    pub net_src: Vec<usize>,
    /// Net-edge destinations (sinks), parallel to `net_src`.
    pub net_dst: Vec<usize>,
    /// Cell-edge sources (cell input pins).
    pub cell_src: Vec<usize>,
    /// Cell-edge destinations (cell output pins), parallel to `cell_src`.
    pub cell_dst: Vec<usize>,
    /// Pins grouped by topological level (level 0 = startpoints).
    pub levels: Vec<Vec<usize>>,
    /// Pin features `[N, PIN_FEATURES]`.
    pub pin_features: Tensor,
    /// Net-edge features `[Eₙ, NET_EDGE_FEATURES]`.
    pub net_edge_features: Tensor,
    /// Cell-edge features `[E꜀, CELL_EDGE_FEATURES]`.
    pub cell_edge_features: Tensor,
    /// Ground-truth arrival times `[N, 4]`, ns.
    pub arrival: Tensor,
    /// Ground-truth slews `[N, 4]`, ns.
    pub slew: Tensor,
    /// Ground-truth net delay from net root per pin `[N, 4]` in units of
    /// 10 ps ([`NET_DELAY_SCALE`] × ns), zero at drivers.
    pub net_delay: Tensor,
    /// Ground-truth cell-arc delays `[E꜀, 4]`, ns.
    pub cell_delay: Tensor,
    /// Per-pin endpoint indicator (1.0 at endpoints).
    pub endpoint_mask: Vec<f32>,
    /// Per-pin net-sink indicator (1.0 where the Eq. 6 net-delay loss
    /// applies).
    pub sink_mask: Vec<f32>,
    /// Endpoint pin indices.
    pub endpoints: Vec<usize>,
    /// Required arrival times `[N, 4]` under the calibrated clock (only
    /// endpoint rows are meaningful).
    pub rat: Tensor,
    /// Ground-truth endpoint slack `[N, 4]` (setup at late corners, hold at
    /// early corners; non-endpoint rows are zero).
    pub slack: Tensor,
    /// The calibrated clock period, ns.
    pub clock_period: f32,
    /// Reference-flow runtimes.
    pub timing: FlowTiming,
}

impl DesignGraph {
    /// Lowers an analyzed design.
    ///
    /// The clock is calibrated to `1.05 ×` the design's critical-path delay
    /// so that slack labels straddle zero realistically regardless of
    /// design depth.
    ///
    /// # Panics
    ///
    /// Panics if `flow` was not produced from `circuit`/`placement`, the
    /// library does not cover the circuit's cell types, or the inputs fail
    /// the [`try_from_flow`](Self::try_from_flow) validation. Pipelines
    /// that must degrade gracefully on bad designs call `try_from_flow`
    /// instead.
    pub fn from_flow(
        name: impl Into<String>,
        is_train: bool,
        circuit: &Circuit,
        placement: &Placement,
        library: &Library,
        flow: &FlowResult,
        sta: &StaConfig,
    ) -> DesignGraph {
        let name = name.into();
        match Self::try_from_flow(
            name.clone(),
            is_train,
            circuit,
            placement,
            library,
            flow,
            sta,
        ) {
            Ok(g) => g,
            Err(e) => panic!("design '{name}' failed validation: {e}"),
        }
    }

    /// Fallible lowering: validates placement coordinates, NLDM table
    /// entries, endpoint presence and topology depth while building, and
    /// rejects bad designs with a precise [`GraphError`] instead of letting
    /// NaN/inf propagate into training losses.
    ///
    /// # Errors
    ///
    /// - [`GraphError::NonFiniteCoordinate`] — a pin placement is NaN/inf;
    /// - [`GraphError::NonFiniteLut`] — a timing arc's table carries a
    ///   NaN/inf index or value;
    /// - [`GraphError::EmptyEndpoints`] — the design has no timing
    ///   endpoints to predict slack for;
    /// - [`GraphError::LevelOverflow`] — topology deeper than
    ///   [`MAX_LEVELS`].
    pub fn try_from_flow(
        name: impl Into<String>,
        is_train: bool,
        circuit: &Circuit,
        placement: &Placement,
        library: &Library,
        flow: &FlowResult,
        sta: &StaConfig,
    ) -> Result<DesignGraph, GraphError> {
        let n = circuit.num_pins();
        let report = &flow.report;
        let topo = circuit.topology();

        // ---- structure ----
        let net_src: Vec<usize> = circuit
            .net_edges()
            .iter()
            .map(|e| e.driver.index())
            .collect();
        let net_dst: Vec<usize> = circuit.net_edges().iter().map(|e| e.sink.index()).collect();
        let cell_src: Vec<usize> = circuit
            .cell_edges()
            .iter()
            .map(|e| e.from.index())
            .collect();
        let cell_dst: Vec<usize> = circuit.cell_edges().iter().map(|e| e.to.index()).collect();
        let levels: Vec<Vec<usize>> = topo
            .levels()
            .iter()
            .map(|l| l.iter().map(|p| p.index()).collect())
            .collect();
        if levels.len() > MAX_LEVELS {
            return Err(GraphError::LevelOverflow {
                levels: levels.len(),
                max: MAX_LEVELS,
            });
        }

        // ---- pin features (Table 2) ----
        let die = placement.die();
        let mut pf = vec![0.0f32; n * PIN_FEATURES];
        let mut endpoint_mask = vec![0.0f32; n];
        let mut sink_mask = vec![0.0f32; n];
        let mut endpoints = Vec::new();
        for pid in circuit.pin_ids() {
            let i = pid.index();
            let pd = circuit.pin(pid);
            let loc = placement.location(pid);
            if !loc.x.is_finite() || !loc.y.is_finite() {
                return Err(GraphError::NonFiniteCoordinate(pid));
            }
            let row = &mut pf[i * PIN_FEATURES..(i + 1) * PIN_FEATURES];
            row[0] = if pd.cell.is_none() { 1.0 } else { 0.0 };
            row[1] = if pd.kind.is_driver() { 1.0 } else { 0.0 };
            row[2..6].copy_from_slice(&boundary_features(die, loc));
            let caps = pin_caps(circuit, library, pid);
            for k in 0..4 {
                row[6 + k] = caps[k] * CAP_SCALE;
            }
            if pd.is_endpoint {
                endpoint_mask[i] = 1.0;
                endpoints.push(i);
            }
            if pd.kind.is_sink() {
                sink_mask[i] = 1.0;
            }
        }
        if endpoints.is_empty() {
            return Err(GraphError::EmptyEndpoints);
        }
        let pin_features = Tensor::from_vec(pf, &[n, PIN_FEATURES]).expect("row count consistent");

        // ---- net edge features ----
        let en = net_src.len();
        let mut nef = vec![0.0f32; en * NET_EDGE_FEATURES];
        for (k, e) in circuit.net_edges().iter().enumerate() {
            let (a, b) = (placement.location(e.driver), placement.location(e.sink));
            nef[k * NET_EDGE_FEATURES..(k + 1) * NET_EDGE_FEATURES]
                .copy_from_slice(&net_edge_features(a, b));
        }
        let net_edge_features =
            Tensor::from_vec(nef, &[en, NET_EDGE_FEATURES]).expect("row count consistent");

        // ---- cell edge features ----
        let ec = cell_src.len();
        let mut cef = vec![0.0f32; ec * CELL_EDGE_FEATURES];
        for (k, e) in circuit.cell_edges().iter().enumerate() {
            let cd = circuit.cell(e.cell);
            let ct = library.cell(cd.type_id);
            let arc = &ct.arcs[e.input_index as usize];
            let row = &mut cef[k * CELL_EDGE_FEATURES..(k + 1) * CELL_EDGE_FEATURES];
            for lut in arc.luts() {
                let finite = lut.slew_index().iter().all(|v| v.is_finite())
                    && lut.load_index().iter().all(|v| v.is_finite())
                    && lut.values().iter().all(|v| v.is_finite());
                if !finite {
                    return Err(GraphError::NonFiniteLut { cell_edge: k });
                }
            }
            for (li, lut) in arc.luts().iter().enumerate() {
                row[li] = if lut.is_valid() { 1.0 } else { 0.0 };
                let idx_base = 8 + li * 14;
                for a in 0..7 {
                    row[idx_base + a] = lut.slew_index()[a] * SLEW_IDX_SCALE;
                    row[idx_base + 7 + a] = lut.load_index()[a] * LOAD_IDX_SCALE;
                }
                let val_base = 8 + 8 * 14 + li * 49;
                for (v, &val) in lut.values().iter().enumerate() {
                    row[val_base + v] = val * LUT_VAL_SCALE;
                }
            }
        }
        let cell_edge_features =
            Tensor::from_vec(cef, &[ec, CELL_EDGE_FEATURES]).expect("row count consistent");

        // ---- labels ----
        let mut at = vec![0.0f32; n * 4];
        let mut sl = vec![0.0f32; n * 4];
        let mut nd = vec![0.0f32; n * 4];
        for pid in circuit.pin_ids() {
            let i = pid.index();
            at[i * 4..(i + 1) * 4].copy_from_slice(&report.arrival(pid));
            sl[i * 4..(i + 1) * 4].copy_from_slice(&report.slew(pid));
            let mut ndv = report.net_delay_to_root(circuit, pid);
            for v in &mut ndv {
                *v *= NET_DELAY_SCALE;
            }
            nd[i * 4..(i + 1) * 4].copy_from_slice(&ndv);
        }
        let mut cd = vec![0.0f32; ec * 4];
        for k in 0..ec {
            cd[k * 4..(k + 1) * 4]
                .copy_from_slice(&report.cell_edge_delay(tp_graph::CellEdgeId::new(k)));
        }

        // Calibrated clock: the worst endpoint sits at ~5% positive setup
        // slack, so per-design distributions straddle realistic territory.
        let clock_period = report.critical_path_delay() * 1.05 + sta.setup_time;
        let mut rat = vec![0.0f32; n * 4];
        let mut slack = vec![0.0f32; n * 4];
        for &i in &endpoints {
            for c in Corner::ALL {
                let k = c.index();
                let r = if c.is_early() {
                    sta.hold_time
                } else {
                    clock_period - sta.setup_time
                };
                rat[i * 4 + k] = r;
                slack[i * 4 + k] = if c.is_early() {
                    at[i * 4 + k] - r
                } else {
                    r - at[i * 4 + k]
                };
            }
        }

        Ok(DesignGraph {
            name: name.into(),
            is_train,
            num_pins: n,
            net_src,
            net_dst,
            cell_src,
            cell_dst,
            levels,
            pin_features,
            net_edge_features,
            cell_edge_features,
            arrival: Tensor::from_vec(at, &[n, 4]).expect("consistent"),
            slew: Tensor::from_vec(sl, &[n, 4]).expect("consistent"),
            net_delay: Tensor::from_vec(nd, &[n, 4]).expect("consistent"),
            cell_delay: Tensor::from_vec(cd, &[ec, 4]).expect("consistent"),
            endpoint_mask,
            sink_mask,
            endpoints,
            rat: Tensor::from_vec(rat, &[n, 4]).expect("consistent"),
            slack: Tensor::from_vec(slack, &[n, 4]).expect("consistent"),
            clock_period,
            timing: FlowTiming {
                routing_seconds: flow.routing_seconds,
                sta_seconds: flow.sta_seconds,
            },
        })
    }

    /// Re-validates an already-lowered design, catching corruption that
    /// arrived after construction (deserialization, in-memory mutation,
    /// fault injection). The trainer calls this before every use and skips
    /// designs that fail rather than poisoning an epoch.
    ///
    /// # Errors
    ///
    /// The same [`GraphError`] variants as
    /// [`try_from_flow`](Self::try_from_flow).
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.endpoints.is_empty() {
            return Err(GraphError::EmptyEndpoints);
        }
        if self.levels.len() > MAX_LEVELS {
            return Err(GraphError::LevelOverflow {
                levels: self.levels.len(),
                max: MAX_LEVELS,
            });
        }
        {
            let pf = self.pin_features.data();
            for i in 0..self.num_pins {
                let row = &pf[i * PIN_FEATURES..(i + 1) * PIN_FEATURES];
                if row.iter().any(|v| !v.is_finite()) {
                    return Err(GraphError::NonFiniteCoordinate(PinId::new(i)));
                }
            }
        }
        {
            let cef = self.cell_edge_features.data();
            for k in 0..self.num_cell_edges() {
                let row = &cef[k * CELL_EDGE_FEATURES..(k + 1) * CELL_EDGE_FEATURES];
                if row.iter().any(|v| !v.is_finite()) {
                    return Err(GraphError::NonFiniteLut { cell_edge: k });
                }
            }
        }
        Ok(())
    }

    /// A clone whose ECO-mutable feature tensors own fresh storage.
    ///
    /// `DesignGraph::clone` shares tensor storage, so a cached graph
    /// handed to independent sessions would alias `apply_moves` writes
    /// between them. Only `pin_features` and `net_edge_features` are ever
    /// mutated (by [`apply_moves`](Self::apply_moves)); deep-copying
    /// exactly those two keeps cache reuse sound without duplicating the
    /// immutable bulk of the graph.
    pub fn deep_clone(&self) -> DesignGraph {
        let mut out = self.clone();
        out.pin_features = Tensor::from_vec(self.pin_features.to_vec(), self.pin_features.shape())
            .expect("clone preserves shape");
        out.net_edge_features = Tensor::from_vec(
            self.net_edge_features.to_vec(),
            self.net_edge_features.shape(),
        )
        .expect("clone preserves shape");
        out
    }

    /// Number of net edges.
    pub fn num_net_edges(&self) -> usize {
        self.net_src.len()
    }

    /// Number of cell edges.
    pub fn num_cell_edges(&self) -> usize {
        self.cell_src.len()
    }

    /// Ground-truth setup slack (worst of the two late corners) per
    /// endpoint, in `endpoints` order.
    pub fn endpoint_setup_slack(&self) -> Vec<f32> {
        let s = self.slack.data();
        self.endpoints
            .iter()
            .map(|&i| s[i * 4 + 2].min(s[i * 4 + 3]))
            .collect()
    }

    /// Ground-truth arrival times flattened over endpoints × 4 corners, the
    /// quantity scored in Table 5.
    pub fn endpoint_arrival_flat(&self) -> Vec<f32> {
        let a = self.arrival.data();
        let mut out = Vec::with_capacity(self.endpoints.len() * 4);
        for &i in &self.endpoints {
            out.extend_from_slice(&a[i * 4..(i + 1) * 4]);
        }
        out
    }
}

/// One ECO-style pin move: place `pin` at the absolute location `(x, y)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PinMove {
    /// Arena index of the pin to move.
    pub pin: usize,
    /// New absolute x coordinate, µm.
    pub x: f32,
    /// New absolute y coordinate, µm.
    pub y: f32,
}

/// The feature rows touched by [`DesignGraph::apply_moves`] — the exact
/// dirty frontier an incremental re-prediction must start from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EcoDirty {
    /// Moved pins (deduplicated, ascending).
    pub pins: Vec<usize>,
    /// Net edges whose driver or sink moved (ascending edge ids).
    pub net_edges: Vec<usize>,
}

impl EcoDirty {
    /// Whether the edit touched nothing.
    pub fn is_empty(&self) -> bool {
        self.pins.is_empty() && self.net_edges.is_empty()
    }
}

impl DesignGraph {
    /// Applies ECO pin moves in place: updates `placement` and refreshes
    /// exactly the feature rows that depend on pin position — the
    /// boundary-distance block of each moved pin's feature row (Table 2)
    /// and the |Δx|/|Δy| columns of every net edge incident to a moved pin
    /// (Table 3). Cell-edge features, capacitances and I/O flags are
    /// position-independent and untouched; labels (arrival/slew/slack)
    /// keep describing the pre-move flow and are the quantities a model
    /// re-predicts after the edit.
    ///
    /// Validation is staged: every move is checked before anything is
    /// written, so a rejected batch leaves design and placement untouched.
    ///
    /// # Errors
    ///
    /// - [`GraphError::UnknownPin`] — a move names a pin index out of
    ///   range;
    /// - [`GraphError::NonFiniteCoordinate`] — a move carries a NaN or
    ///   infinite coordinate.
    pub fn apply_moves(
        &mut self,
        placement: &mut Placement,
        moves: &[PinMove],
    ) -> Result<EcoDirty, GraphError> {
        for m in moves {
            if m.pin >= self.num_pins {
                return Err(GraphError::UnknownPin(PinId::new(m.pin)));
            }
            if !m.x.is_finite() || !m.y.is_finite() {
                return Err(GraphError::NonFiniteCoordinate(PinId::new(m.pin)));
            }
        }

        let mut pins: Vec<usize> = moves.iter().map(|m| m.pin).collect();
        pins.sort_unstable();
        pins.dedup();

        // Later moves of the same pin win, matching sequential application.
        for m in moves {
            placement.set_location_unchecked(PinId::new(m.pin), Point::new(m.x, m.y));
        }

        let die = *placement.die();
        {
            let mut pf = self.pin_features.data_mut();
            for &p in &pins {
                let loc = placement.location(PinId::new(p));
                let row = &mut pf[p * PIN_FEATURES..(p + 1) * PIN_FEATURES];
                row[2..6].copy_from_slice(&boundary_features(&die, loc));
            }
        }

        let moved: std::collections::BTreeSet<usize> = pins.iter().copied().collect();
        let mut net_edges = Vec::new();
        {
            let mut nef = self.net_edge_features.data_mut();
            for (k, (&s, &d)) in self.net_src.iter().zip(&self.net_dst).enumerate() {
                if moved.contains(&s) || moved.contains(&d) {
                    let a = placement.location(PinId::new(s));
                    let b = placement.location(PinId::new(d));
                    nef[k * NET_EDGE_FEATURES..(k + 1) * NET_EDGE_FEATURES]
                        .copy_from_slice(&net_edge_features(a, b));
                    net_edges.push(k);
                }
            }
        }

        Ok(EcoDirty { pins, net_edges })
    }
}

/// The position block of a pin's feature row (Table 2): distances to the
/// four die boundaries.
fn boundary_features(die: &Die, loc: Point) -> [f32; 4] {
    die.boundary_distances(loc).map(|d| d * POS_SCALE)
}

/// A net edge's feature row (Table 3): `|Δx|` and `|Δy|` between the
/// driver at `a` and the sink at `b`.
fn net_edge_features(a: Point, b: Point) -> [f32; NET_EDGE_FEATURES] {
    [(a.x - b.x).abs() * POS_SCALE, (a.y - b.y).abs() * POS_SCALE]
}

/// Pin capacitance feature: input caps for cell inputs, port cap estimate
/// for primary outputs, zero for drivers.
fn pin_caps(circuit: &Circuit, library: &Library, pin: tp_graph::PinId) -> [f32; 4] {
    let pd = circuit.pin(pin);
    match (pd.kind, pd.cell) {
        (PinKind::CellInput, Some(cell)) => {
            let cd = circuit.cell(cell);
            let ct = library.cell(cd.type_id);
            let pos = cd
                .inputs
                .iter()
                .position(|&p| p == pin)
                .expect("input pin belongs to its cell");
            Corner::ALL.map(|c| ct.input_cap(pos, c))
        }
        (PinKind::PrimaryOutput, _) => [0.002; 4],
        _ => [0.0; 4],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_graph::CircuitBuilder;
    use tp_place::{place_circuit, PlacementConfig};
    use tp_sta::flow::run_full_flow;

    fn lowered() -> DesignGraph {
        let lib = Library::synthetic_sky130(0);
        let nand = lib.type_id("NAND2_X1").unwrap();
        let mut b = CircuitBuilder::new("t");
        let a = b.add_primary_input("a");
        let c2 = b.add_primary_input("b");
        let (_, ins, out) = b.add_cell("u0", nand, 2);
        let z = b.add_primary_output("z");
        b.connect(a, &[ins[0]]).unwrap();
        b.connect(c2, &[ins[1]]).unwrap();
        b.connect(out, &[z]).unwrap();
        let circuit = b.finish().unwrap();
        let placement = place_circuit(&circuit, &PlacementConfig::default(), 3);
        let sta = StaConfig::default();
        let flow = run_full_flow(&circuit, &placement, &lib, &sta);
        DesignGraph::from_flow("t", true, &circuit, &placement, &lib, &flow, &sta)
    }

    #[test]
    fn validation_accepts_good_and_rejects_poisoned_designs() {
        // Tensor clones share storage, so each poisoning gets its own
        // freshly lowered design.
        assert!(lowered().validate().is_ok());

        let bad = lowered();
        bad.pin_features.data_mut()[3] = f32::NAN;
        assert!(matches!(
            bad.validate(),
            Err(tp_graph::GraphError::NonFiniteCoordinate(_))
        ));

        let bad = lowered();
        let last = bad.cell_edge_features.numel() - 1;
        bad.cell_edge_features.data_mut()[last] = f32::INFINITY;
        assert!(matches!(
            bad.validate(),
            Err(tp_graph::GraphError::NonFiniteLut { .. })
        ));

        let mut bad = lowered();
        bad.endpoints.clear();
        assert!(matches!(
            bad.validate(),
            Err(tp_graph::GraphError::EmptyEndpoints)
        ));
    }

    #[test]
    fn non_finite_placement_rejected_at_build_time() {
        let lib = Library::synthetic_sky130(0);
        let nand = lib.type_id("NAND2_X1").unwrap();
        let mut b = CircuitBuilder::new("t");
        let a = b.add_primary_input("a");
        let c2 = b.add_primary_input("b");
        let (_, ins, out) = b.add_cell("u0", nand, 2);
        let z = b.add_primary_output("z");
        b.connect(a, &[ins[0]]).unwrap();
        b.connect(c2, &[ins[1]]).unwrap();
        b.connect(out, &[z]).unwrap();
        let circuit = b.finish().unwrap();
        let mut placement = place_circuit(&circuit, &PlacementConfig::default(), 3);
        let sta = StaConfig::default();
        let flow = run_full_flow(&circuit, &placement, &lib, &sta);
        placement
            .set_location_unchecked(tp_graph::PinId::new(0), tp_place::Point::new(f32::NAN, 1.0));
        let err = DesignGraph::try_from_flow("t", true, &circuit, &placement, &lib, &flow, &sta)
            .unwrap_err();
        assert!(matches!(err, tp_graph::GraphError::NonFiniteCoordinate(_)));
    }

    #[test]
    fn shapes_are_consistent() {
        let g = lowered();
        assert_eq!(g.pin_features.shape(), &[g.num_pins, PIN_FEATURES]);
        assert_eq!(
            g.net_edge_features.shape(),
            &[g.num_net_edges(), NET_EDGE_FEATURES]
        );
        assert_eq!(
            g.cell_edge_features.shape(),
            &[g.num_cell_edges(), CELL_EDGE_FEATURES]
        );
        assert_eq!(g.arrival.shape(), &[g.num_pins, 4]);
        assert_eq!(g.cell_delay.shape(), &[g.num_cell_edges(), 4]);
        assert_eq!(g.endpoint_mask.len(), g.num_pins);
    }

    #[test]
    fn endpoint_mask_matches_endpoints() {
        let g = lowered();
        let from_mask: Vec<usize> = g
            .endpoint_mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m > 0.5)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(from_mask, g.endpoints);
        assert_eq!(g.endpoints.len(), 1);
    }

    #[test]
    fn slack_straddles_calibrated_clock() {
        let g = lowered();
        // calibration puts the worst setup slack at ~5% of the clock
        let worst = g
            .endpoint_setup_slack()
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min);
        assert!(worst > 0.0, "calibrated clock leaves small positive WNS");
        assert!(worst < g.clock_period);
    }

    #[test]
    fn lut_features_carry_values() {
        let g = lowered();
        let row = g.cell_edge_features.to_vec();
        // valid flags first
        assert_eq!(row[0], 1.0);
        // some LUT value should be nonzero
        let val_base = 8 + 8 * 14;
        assert!(row[val_base..val_base + 49].iter().any(|&v| v > 0.0));
    }

    fn lowered_with_parts() -> (DesignGraph, tp_graph::Circuit, Placement, Library) {
        let lib = Library::synthetic_sky130(0);
        let nand = lib.type_id("NAND2_X1").unwrap();
        let mut b = CircuitBuilder::new("t");
        let a = b.add_primary_input("a");
        let c2 = b.add_primary_input("b");
        let (_, ins, out) = b.add_cell("u0", nand, 2);
        let z = b.add_primary_output("z");
        b.connect(a, &[ins[0]]).unwrap();
        b.connect(c2, &[ins[1]]).unwrap();
        b.connect(out, &[z]).unwrap();
        let circuit = b.finish().unwrap();
        let placement = place_circuit(&circuit, &PlacementConfig::default(), 3);
        let sta = StaConfig::default();
        let flow = run_full_flow(&circuit, &placement, &lib, &sta);
        let g = DesignGraph::from_flow("t", true, &circuit, &placement, &lib, &flow, &sta);
        (g, circuit, placement, lib)
    }

    #[test]
    fn apply_moves_matches_a_fresh_lowering() {
        // Moving pins and refreshing in place must reproduce, bit for bit,
        // the position-dependent features a from-scratch lowering of the
        // moved placement would compute.
        let (mut g, circuit, mut placement, lib) = lowered_with_parts();
        let sta = StaConfig::default();
        let flow = run_full_flow(&circuit, &placement, &lib, &sta);

        let moves = vec![
            PinMove {
                pin: 0,
                x: 1.25,
                y: 2.5,
            },
            PinMove {
                pin: 2,
                x: 0.75,
                y: 0.25,
            },
        ];
        let dirty = g.apply_moves(&mut placement, &moves).expect("valid moves");
        assert_eq!(dirty.pins, vec![0, 2]);
        assert!(!dirty.net_edges.is_empty());

        // Reference: lower the *moved* placement against the stale flow
        // (labels differ, but position-derived features must agree).
        let fresh = DesignGraph::try_from_flow("t", true, &circuit, &placement, &lib, &flow, &sta)
            .expect("moved placement still lowers");
        assert_eq!(g.pin_features.to_vec(), fresh.pin_features.to_vec());
        assert_eq!(
            g.net_edge_features.to_vec(),
            fresh.net_edge_features.to_vec()
        );
        // Position-independent features and labels are untouched.
        assert_eq!(
            g.cell_edge_features.to_vec(),
            fresh.cell_edge_features.to_vec()
        );
    }

    #[test]
    fn apply_moves_rejects_bad_input_without_mutating() {
        let (mut g, _circuit, mut placement, _lib) = lowered_with_parts();
        let before_pf = g.pin_features.to_vec();
        let before_loc = placement.locations().to_vec();

        let err = g
            .apply_moves(
                &mut placement,
                &[PinMove {
                    pin: 9999,
                    x: 1.0,
                    y: 1.0,
                }],
            )
            .unwrap_err();
        assert!(matches!(err, tp_graph::GraphError::UnknownPin(_)));

        let err = g
            .apply_moves(
                &mut placement,
                &[
                    PinMove {
                        pin: 0,
                        x: 1.0,
                        y: 1.0,
                    },
                    PinMove {
                        pin: 1,
                        x: f32::NAN,
                        y: 1.0,
                    },
                ],
            )
            .unwrap_err();
        assert!(matches!(err, tp_graph::GraphError::NonFiniteCoordinate(_)));

        // Staged validation: the rejected batches changed nothing, not even
        // the valid first move of the second batch.
        assert_eq!(g.pin_features.to_vec(), before_pf);
        assert_eq!(placement.locations(), &before_loc[..]);
    }

    #[test]
    fn apply_moves_dedups_and_last_move_wins() {
        let (mut g, _circuit, mut placement, _lib) = lowered_with_parts();
        let dirty = g
            .apply_moves(
                &mut placement,
                &[
                    PinMove {
                        pin: 1,
                        x: 0.5,
                        y: 0.5,
                    },
                    PinMove {
                        pin: 1,
                        x: 2.0,
                        y: 3.0,
                    },
                ],
            )
            .expect("valid");
        assert_eq!(dirty.pins, vec![1]);
        let loc = placement.location(tp_graph::PinId::new(1));
        assert_eq!((loc.x, loc.y), (2.0, 3.0));
        let pf = g.pin_features.to_vec();
        let die = *placement.die();
        let bd = die.boundary_distances(loc);
        for k in 0..4 {
            assert_eq!(pf[PIN_FEATURES + 2 + k], bd[k] * (1.0 / 100.0));
        }
    }

    #[test]
    fn noop_moves_touch_rows_but_change_no_bits() {
        let (mut g, _circuit, mut placement, _lib) = lowered_with_parts();
        let before_pf = g.pin_features.to_vec();
        let before_nef = g.net_edge_features.to_vec();
        let loc = placement.location(tp_graph::PinId::new(0));
        let dirty = g
            .apply_moves(
                &mut placement,
                &[PinMove {
                    pin: 0,
                    x: loc.x,
                    y: loc.y,
                }],
            )
            .expect("valid");
        assert_eq!(dirty.pins, vec![0]);
        assert_eq!(g.pin_features.to_vec(), before_pf);
        assert_eq!(g.net_edge_features.to_vec(), before_nef);
    }

    #[test]
    fn net_delay_zero_at_drivers() {
        let g = lowered();
        let nd = g.net_delay.to_vec();
        let pfd = g.pin_features.to_vec();
        for i in 0..g.num_pins {
            let is_driver = pfd[i * PIN_FEATURES + 1] > 0.5;
            if is_driver {
                for k in 0..4 {
                    assert_eq!(nd[i * 4 + k], 0.0);
                }
            }
        }
    }
}
