//! Critical-path extraction and text timing reports.
//!
//! After propagation, the worst paths are recovered by walking backwards
//! from each endpoint along the fan-in edge whose `arrival + delay`
//! produced the pin's arrival — the same provenance trace a signoff
//! timer's `report_timing` performs.

use tp_graph::{Circuit, EdgeRef, PinId, Topology};
use tp_liberty::Corner;

use crate::TimingReport;

/// One step of a timing path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// The pin reached.
    pub pin: PinId,
    /// Arrival time at the pin for the path's corner, ns.
    pub arrival: f32,
    /// Delay of the edge that reached this pin (0 at the startpoint), ns.
    pub edge_delay: f32,
    /// Whether the edge was a cell arc (`true`) or a wire (`false`);
    /// `false` for the startpoint.
    pub through_cell: bool,
}

/// A reconstructed worst path from a startpoint to an endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingPath {
    /// The endpoint this path terminates at.
    pub endpoint: PinId,
    /// The corner the path was traced under.
    pub corner: Corner,
    /// Setup slack at the endpoint (for this corner), ns.
    pub slack: f32,
    /// Steps from startpoint (first) to endpoint (last).
    pub steps: Vec<PathStep>,
}

impl TimingPath {
    /// Total path delay (arrival at endpoint − arrival at startpoint).
    pub fn path_delay(&self) -> f32 {
        match (self.steps.first(), self.steps.last()) {
            (Some(a), Some(b)) => b.arrival - a.arrival,
            _ => 0.0,
        }
    }

    /// Number of cell arcs on the path (logic depth).
    pub fn logic_depth(&self) -> usize {
        self.steps.iter().filter(|s| s.through_cell).count()
    }
}

/// Traces the worst (most critical) path into `endpoint` at `corner` by
/// following arrival provenance backwards.
///
/// # Panics
///
/// Panics if `report`/`topology` do not belong to `circuit`.
pub fn trace_path(
    circuit: &Circuit,
    topology: &Topology,
    report: &TimingReport,
    endpoint: PinId,
    corner: Corner,
) -> TimingPath {
    const EPS: f32 = 1e-4;
    let mut steps = Vec::new();
    let mut pin = endpoint;
    let mut pin_corner = corner;
    loop {
        let at = report.arrival(pin)[pin_corner.index()];
        // Find the fan-in edge that produced this arrival.
        let mut producer: Option<(PinId, Corner, f32, bool)> = None;
        for &er in topology.fanin(pin) {
            match er {
                EdgeRef::Net(eid) => {
                    let e = circuit.net_edge(eid);
                    let d = report.net_edge_delay(eid)[pin_corner.index()];
                    let src_at = report.arrival(e.driver)[pin_corner.index()];
                    if (src_at + d - at).abs() < EPS {
                        producer = Some((e.driver, pin_corner, d, false));
                        break;
                    }
                }
                EdgeRef::Cell(eid) => {
                    let e = circuit.cell_edge(eid);
                    let d = report.cell_edge_delay(eid)[pin_corner.index()];
                    // try both transitions: inverting arcs flip rise/fall
                    for src_corner in [pin_corner, pin_corner.flipped_transition()] {
                        let src_at = report.arrival(e.from)[src_corner.index()];
                        if (src_at + d - at).abs() < EPS {
                            producer = Some((e.from, src_corner, d, true));
                            break;
                        }
                    }
                    if producer.is_some() {
                        break;
                    }
                }
            }
        }
        match producer {
            Some((src, src_corner, delay, through_cell)) => {
                steps.push(PathStep {
                    pin,
                    arrival: at,
                    edge_delay: delay,
                    through_cell,
                });
                pin = src;
                pin_corner = src_corner;
            }
            None => {
                // startpoint (or provenance exhausted)
                steps.push(PathStep {
                    pin,
                    arrival: at,
                    edge_delay: 0.0,
                    through_cell: false,
                });
                break;
            }
        }
    }
    steps.reverse();
    let slack = {
        let s = report.slack(endpoint);
        s[corner.index()]
    };
    TimingPath {
        endpoint,
        corner,
        slack,
        steps,
    }
}

/// The `k` worst setup paths of the design (one per endpoint, ranked by
/// slack ascending), traced at the endpoint's worse late corner.
pub fn worst_paths(
    circuit: &Circuit,
    topology: &Topology,
    report: &TimingReport,
    k: usize,
) -> Vec<TimingPath> {
    let mut ranked: Vec<(PinId, f32, Corner)> = report
        .endpoints()
        .iter()
        .map(|&e| {
            let s = report.slack(e);
            let lr = s[Corner::LateRise.index()];
            let lf = s[Corner::LateFall.index()];
            if lr <= lf {
                (e, lr, Corner::LateRise)
            } else {
                (e, lf, Corner::LateFall)
            }
        })
        .collect();
    // total_cmp, not partial_cmp: a NaN slack (degraded design) must rank
    // deterministically — `+NaN` sorts after +inf, i.e. least critical —
    // instead of making the whole sort order depend on comparison order.
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    ranked
        .into_iter()
        .take(k)
        .map(|(e, _, c)| trace_path(circuit, topology, report, e, c))
        .collect()
}

/// Renders a human-readable `report_timing`-style text block.
pub fn format_path(circuit: &Circuit, path: &TimingPath) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(
        out,
        "Path to {} ({}), slack {:+.4} ns, {} logic levels:",
        circuit.pin(path.endpoint).name,
        path.corner,
        path.slack,
        path.logic_depth()
    )
    .expect("string write");
    writeln!(
        out,
        "  {:<28} {:>10} {:>10}  kind",
        "pin", "delay", "arrival"
    )
    .expect("string write");
    for s in &path.steps {
        writeln!(
            out,
            "  {:<28} {:>10.4} {:>10.4}  {}",
            circuit.pin(s.pin).name,
            s.edge_delay,
            s.arrival,
            if s.through_cell { "cell" } else { "wire" }
        )
        .expect("string write");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StaConfig, StaEngine};
    use tp_graph::CircuitBuilder;
    use tp_liberty::Library;
    use tp_place::{place_circuit, PlacementConfig};

    fn chain(n: usize) -> (Circuit, TimingReport, Library) {
        let lib = Library::synthetic_sky130(0);
        let inv = lib.type_id("INV_X1").expect("library cell");
        let mut b = CircuitBuilder::new("chain");
        let mut prev = b.add_primary_input("in");
        for i in 0..n {
            let (_, ins, out) = b.add_cell(format!("u{i}"), inv, 1);
            b.connect(prev, &[ins[0]]).expect("valid");
            prev = out;
        }
        let po = b.add_primary_output("out");
        b.connect(prev, &[po]).expect("valid");
        let c = b.finish().expect("valid");
        let p = place_circuit(&c, &PlacementConfig::default(), 5);
        let r = StaEngine::new(&lib, StaConfig::default()).run(&c, &p);
        (c, r, lib)
    }

    #[test]
    fn chain_path_covers_every_stage() {
        let (c, r, _) = chain(5);
        let topo = c.topology();
        let ep = c.endpoints()[0];
        let path = trace_path(&c, &topo, &r, ep, Corner::LateRise);
        // in + 5×(input,output) + out = 12 pins
        assert_eq!(path.steps.len(), 12);
        assert_eq!(path.logic_depth(), 5);
        assert_eq!(path.steps.last().expect("non-empty").pin, ep);
        // arrivals are non-decreasing along the traced path
        for w in path.steps.windows(2) {
            assert!(w[1].arrival >= w[0].arrival - 1e-6);
        }
    }

    #[test]
    fn path_delay_matches_arrival_difference() {
        let (c, r, _) = chain(4);
        let topo = c.topology();
        let path = trace_path(&c, &topo, &r, c.endpoints()[0], Corner::LateFall);
        let first = path.steps.first().expect("non-empty");
        let last = path.steps.last().expect("non-empty");
        assert!((path.path_delay() - (last.arrival - first.arrival)).abs() < 1e-6);
    }

    #[test]
    fn worst_paths_ranked_by_slack() {
        let lib = Library::synthetic_sky130(0);
        let inv = lib.type_id("INV_X1").expect("library cell");
        // two endpoints with different depths -> different slacks
        let mut b = CircuitBuilder::new("two");
        let pi = b.add_primary_input("in");
        let (_, i0, o0) = b.add_cell("u0", inv, 1);
        let (_, i1, o1) = b.add_cell("u1", inv, 1);
        let z0 = b.add_primary_output("z0");
        let z1 = b.add_primary_output("z1");
        b.connect(pi, &[i0[0]]).expect("valid");
        b.connect(o0, &[i1[0], z0]).expect("valid");
        b.connect(o1, &[z1]).expect("valid");
        let c = b.finish().expect("valid");
        let p = place_circuit(&c, &PlacementConfig::default(), 1);
        let r = StaEngine::new(&lib, StaConfig::default()).run(&c, &p);
        let topo = c.topology();
        let paths = worst_paths(&c, &topo, &r, 2);
        assert_eq!(paths.len(), 2);
        assert!(paths[0].slack <= paths[1].slack);
        // deepest endpoint (z1, through two inverters) is most critical
        assert!(paths[0].logic_depth() >= paths[1].logic_depth());
    }

    #[test]
    fn nan_slack_ranks_last_and_deterministically() {
        let lib = Library::synthetic_sky130(0);
        let inv = lib.type_id("INV_X1").expect("library cell");
        // Three endpoints so a bad comparator has room to scramble.
        let mut b = CircuitBuilder::new("nan");
        let pi = b.add_primary_input("in");
        let (_, i0, o0) = b.add_cell("u0", inv, 1);
        let (_, i1, o1) = b.add_cell("u1", inv, 1);
        let z0 = b.add_primary_output("z0");
        let z1 = b.add_primary_output("z1");
        let z2 = b.add_primary_output("z2");
        b.connect(pi, &[i0[0]]).expect("valid");
        b.connect(o0, &[i1[0], z0]).expect("valid");
        b.connect(o1, &[z1, z2]).expect("valid");
        let c = b.finish().expect("valid");
        let p = place_circuit(&c, &PlacementConfig::default(), 1);
        let mut r = StaEngine::new(&lib, StaConfig::default()).run(&c, &p);
        // Degrade one endpoint the way a broken design would: poison its
        // required time so its slack is NaN at both late corners.
        let victim = r.endpoints[1];
        r.rat[victim.index()] = [f32::NAN; 4];
        let topo = c.topology();
        let paths = worst_paths(&c, &topo, &r, 3);
        assert_eq!(paths.len(), 3, "NaN must not drop endpoints");
        assert!(
            paths[2].endpoint == victim && paths[2].slack.is_nan(),
            "the NaN endpoint ranks least critical, after every finite slack"
        );
        assert!(paths[0].slack <= paths[1].slack);
        // And the ranking is reproducible.
        let again = worst_paths(&c, &topo, &r, 3);
        let order: Vec<_> = paths.iter().map(|p| p.endpoint).collect();
        let order2: Vec<_> = again.iter().map(|p| p.endpoint).collect();
        assert_eq!(order, order2);
    }

    #[test]
    fn format_is_readable() {
        let (c, r, _) = chain(2);
        let topo = c.topology();
        let path = trace_path(&c, &topo, &r, c.endpoints()[0], Corner::LateRise);
        let text = format_path(&c, &path);
        assert!(text.contains("slack"));
        assert!(text.contains("u0/y"));
        assert!(text.lines().count() >= path.steps.len());
    }
}
