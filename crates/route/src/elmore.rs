//! Whole-circuit routing and per-net delay/load annotation.

use tp_graph::{Circuit, NetId, PinKind};
use tp_liberty::{Corner, Library};
use tp_place::Placement;

use crate::{steiner_tree, RcTree};

/// Wire parasitics and corner derates for routing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingConfig {
    /// Wire resistance, kΩ/µm.
    pub unit_res: f32,
    /// Wire capacitance, pF/µm.
    pub unit_cap: f32,
    /// Multiplier applied to wire delay at early corners (OCV-style derate).
    pub early_derate: f32,
    /// Capacitance assumed for primary-output port pins, pF.
    pub port_cap: f32,
    /// Slew degradation coefficient in the PERI model
    /// `slew_out² = slew_in² + (k · elmore)²`.
    pub slew_k: f32,
}

impl Default for RoutingConfig {
    fn default() -> Self {
        RoutingConfig {
            unit_res: 0.0008,
            unit_cap: 0.0002,
            early_derate: 0.85,
            port_cap: 0.002,
            slew_k: 2.2,
        }
    }
}

/// Routing results for one net.
#[derive(Debug, Clone)]
pub struct RoutedNet {
    /// Total Steiner wirelength, µm.
    pub wirelength: f32,
    /// Total load seen by the driver per corner (wire + sink pins), pF.
    pub total_cap: [f32; 4],
    /// Elmore delay to each sink per corner, ns; parallel to
    /// `circuit.net(id).sinks`.
    pub sink_delays: Vec<[f32; 4]>,
}

impl RoutedNet {
    /// Degrades a driver slew across the net toward sink `i` at `corner`
    /// using the PERI square-law model.
    pub fn degrade_slew(
        &self,
        config: &RoutingConfig,
        sink: usize,
        corner: Corner,
        slew_in: f32,
    ) -> f32 {
        let d = self.sink_delays[sink][corner.index()];
        (slew_in * slew_in + (config.slew_k * d).powi(2)).sqrt()
    }
}

/// Routing results for every net of a circuit.
#[derive(Debug, Clone)]
pub struct Routing {
    nets: Vec<RoutedNet>,
    total_wirelength: f32,
}

impl Routing {
    /// Per-net results indexed by net id.
    pub fn nets(&self) -> &[RoutedNet] {
        &self.nets
    }

    /// The result for `net`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn net(&self, net: NetId) -> &RoutedNet {
        &self.nets[net.index()]
    }

    /// Total routed wirelength, µm.
    pub fn total_wirelength(&self) -> f32 {
        self.total_wirelength
    }
}

/// Capacitance of a sink pin at each corner.
fn sink_pin_caps(
    circuit: &Circuit,
    library: &Library,
    pin: tp_graph::PinId,
    config: &RoutingConfig,
) -> [f32; 4] {
    let pd = circuit.pin(pin);
    match (pd.kind, pd.cell) {
        (PinKind::CellInput, Some(cell)) => {
            let cd = circuit.cell(cell);
            let ct = library.cell(cd.type_id);
            let pin_index = cd
                .inputs
                .iter()
                .position(|&p| p == pin)
                .expect("input pin belongs to its cell");
            Corner::ALL.map(|c| ct.input_cap(pin_index, c))
        }
        _ => [config.port_cap; 4],
    }
}

/// Routes a single net and evaluates its Elmore delays and loads.
fn route_net(
    circuit: &Circuit,
    placement: &Placement,
    library: &Library,
    config: &RoutingConfig,
    net: NetId,
) -> RoutedNet {
    let data = circuit.net(net);
    let mut terminals = Vec::with_capacity(1 + data.sinks.len());
    terminals.push(placement.location(data.driver));
    for &s in &data.sinks {
        terminals.push(placement.location(s));
    }
    let tree = steiner_tree(&terminals);
    let wirelength = tree.wirelength();

    let mut total_cap = [0.0f32; 4];
    let mut sink_delays = vec![[0.0f32; 4]; data.sinks.len()];
    for corner in Corner::ALL {
        let ci = corner.index();
        // Pin caps at tree nodes: node 0 driver (no load), 1..=k sinks,
        // rest Steiner points.
        let mut pin_cap = vec![0.0f32; tree.num_nodes()];
        for (i, &s) in data.sinks.iter().enumerate() {
            pin_cap[i + 1] = sink_pin_caps(circuit, library, s, config)[ci];
        }
        let rc = RcTree::new(&tree, &pin_cap, config.unit_res, config.unit_cap);
        total_cap[ci] = rc.total_cap();
        let delays = rc.elmore_delays();
        let derate = if corner.is_early() {
            config.early_derate
        } else {
            1.0
        };
        for i in 0..data.sinks.len() {
            sink_delays[i][ci] = delays[i + 1] * derate;
        }
    }
    RoutedNet {
        wirelength,
        total_cap,
        sink_delays,
    }
}

/// Adaptive dispatch for per-net routing: items are nets, units are net
/// *edges* (driver→sink arcs), since a net's routing cost scales with its
/// sink count, not the net count. Only selects serial vs parallel — each
/// net's result is identical either way, so the plan cannot change any
/// number.
static ROUTE_COST: tp_par::CostModel = tp_par::CostModel::new("route.nets", 300.0);

/// Routes every net of `circuit`.
///
/// Nets are independent (each reads only circuit/placement/library), so
/// they route as a tp-par ordered map; the wirelength total folds serially
/// in net-id order, keeping the sum bit-identical at any thread count.
///
/// # Panics
///
/// Panics if the circuit references cell types missing from `library`.
pub fn route_circuit(
    circuit: &Circuit,
    placement: &Placement,
    library: &Library,
    config: &RoutingConfig,
) -> Routing {
    let _route_span = tp_obs::span!("route.circuit", nets = circuit.num_nets());
    if let Some(h) = tp_obs::is_enabled().then(|| tp_obs::metrics::histogram("route.net_sinks")) {
        for n in circuit.net_ids() {
            h.record(circuit.net(n).sinks.len() as u64);
        }
    }
    let nets: Vec<RoutedNet> = tp_par::map_items_costed(
        &ROUTE_COST,
        circuit.num_nets(),
        circuit.num_net_edges() as u64,
        |i| route_net(circuit, placement, library, config, NetId::new(i)),
    );
    tp_obs::metrics::count("route.nets_routed", nets.len() as u64);
    let total_wirelength = nets.iter().map(|n| n.wirelength).sum();
    Routing {
        nets,
        total_wirelength,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_graph::CircuitBuilder;
    use tp_place::{place_circuit, PlacementConfig};

    fn fixture() -> (Circuit, Placement, Library) {
        let lib = Library::synthetic_sky130(1);
        let inv = lib.type_id("INV_X1").unwrap();
        let mut b = CircuitBuilder::new("t");
        let a = b.add_primary_input("a");
        let (_, i0, o0) = b.add_cell("u0", inv, 1);
        let (_, i1, _o1) = b.add_cell("u1", inv, 1);
        let (_, i2, o2) = b.add_cell("u2", inv, 1);
        let z = b.add_primary_output("z");
        let z2 = b.add_primary_output("z2");
        let o1 = _o1;
        b.connect(a, &[i0[0]]).unwrap();
        b.connect(o0, &[i1[0], i2[0]]).unwrap();
        b.connect(o1, &[z2]).unwrap();
        b.connect(o2, &[z]).unwrap();
        let c = b.finish().unwrap();
        let p = place_circuit(&c, &PlacementConfig::default(), 2);
        (c, p, lib)
    }

    #[test]
    fn routes_every_net() {
        let (c, p, lib) = fixture();
        let r = route_circuit(&c, &p, &lib, &RoutingConfig::default());
        assert_eq!(r.nets().len(), c.num_nets());
        assert!(r.total_wirelength() > 0.0);
    }

    #[test]
    fn loads_include_sink_caps() {
        let (c, p, lib) = fixture();
        let cfg = RoutingConfig::default();
        let r = route_circuit(&c, &p, &lib, &cfg);
        // net 0 drives one INV input: load must be at least that pin cap
        let cap = lib
            .cell_by_name("INV_X1")
            .unwrap()
            .input_cap(0, Corner::LateRise);
        let n0 = r.net(tp_graph::NetId::new(0));
        assert!(n0.total_cap[Corner::LateRise.index()] >= cap);
    }

    #[test]
    fn early_delays_not_larger_than_late() {
        let (c, p, lib) = fixture();
        let r = route_circuit(&c, &p, &lib, &RoutingConfig::default());
        for net in r.nets() {
            for d in &net.sink_delays {
                assert!(d[Corner::EarlyRise.index()] <= d[Corner::LateRise.index()] + 1e-9);
            }
        }
    }

    #[test]
    fn slew_degradation_monotone() {
        let (c, p, lib) = fixture();
        let cfg = RoutingConfig::default();
        let r = route_circuit(&c, &p, &lib, &cfg);
        let net = &r.nets()[1]; // fan-out-2 net
        let out = net.degrade_slew(&cfg, 0, Corner::LateRise, 0.02);
        assert!(out >= 0.02);
    }

    #[test]
    fn longer_placement_distance_larger_delay() {
        let lib = Library::synthetic_sky130(1);
        let inv = lib.type_id("INV_X1").unwrap();
        let mut b = CircuitBuilder::new("d");
        let a = b.add_primary_input("a");
        let (_, i0, o0) = b.add_cell("u0", inv, 1);
        let z = b.add_primary_output("z");
        b.connect(a, &[i0[0]]).unwrap();
        b.connect(o0, &[z]).unwrap();
        let c = b.finish().unwrap();
        let die = tp_place::Die::new(100.0, 100.0);
        let near = Placement::new(
            die,
            vec![
                tp_place::Point::new(0.0, 0.0),
                tp_place::Point::new(1.0, 0.0),
                tp_place::Point::new(1.5, 0.0),
                tp_place::Point::new(2.0, 0.0),
            ],
        );
        let far = Placement::new(
            die,
            vec![
                tp_place::Point::new(0.0, 0.0),
                tp_place::Point::new(90.0, 90.0),
                tp_place::Point::new(90.5, 90.0),
                tp_place::Point::new(95.0, 95.0),
            ],
        );
        let cfg = RoutingConfig::default();
        let dn = route_net(&c, &near, &lib, &cfg, tp_graph::NetId::new(0));
        let df = route_net(&c, &far, &lib, &cfg, tp_graph::NetId::new(0));
        assert!(df.sink_delays[0][2] > dn.sink_delays[0][2]);
        assert!(df.total_cap[2] > dn.total_cap[2]);
    }
}
