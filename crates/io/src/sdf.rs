//! SDF (Standard Delay Format) annotation writer.
//!
//! Serializes an analyzed design's delays the way signoff flows hand
//! timing to simulators: one `IOPATH` entry per cell arc and one
//! `INTERCONNECT` entry per net edge, each with `(min:typ:max)` triples
//! derived from the early/late corners:
//!
//! ```text
//! (DELAYFILE
//!   (DESIGN "usb")
//!   (TIMESCALE 1ns)
//!   (CELL (CELLTYPE "INV_X1") (INSTANCE u0)
//!     (DELAY (ABSOLUTE (IOPATH a0 y (0.012:0.013:0.014) (0.011:0.012:0.013))))
//!   )
//!   (CELL (CELLTYPE "interconnect") (INSTANCE net3)
//!     (DELAY (ABSOLUTE (INTERCONNECT u0.y u1.a0 (0.001:0.001:0.002))))
//!   )
//! )
//! ```

use std::fmt::Write as _;

use tp_graph::Circuit;
use tp_liberty::{Corner, Library};
use tp_sta::TimingReport;

fn triple(early: f32, late: f32) -> String {
    format!("({early:.6}:{:.6}:{late:.6})", 0.5 * (early + late))
}

/// Renders the SDF annotation for an analyzed circuit.
///
/// # Panics
///
/// Panics if `report` does not belong to `circuit` or the library does not
/// cover the circuit's cell types.
pub fn write(circuit: &Circuit, library: &Library, report: &TimingReport) -> String {
    let mut out = String::new();
    writeln!(out, "(DELAYFILE").expect("string write");
    writeln!(out, "  (DESIGN \"{}\")", circuit.name()).expect("string write");
    writeln!(out, "  (TIMESCALE 1ns)").expect("string write");

    // Cell arcs, grouped per instance.
    for cell_id in circuit.cell_ids() {
        let cd = circuit.cell(cell_id);
        if cd.is_register {
            continue; // no combinational arcs
        }
        let ct = library.cell(cd.type_id);
        writeln!(
            out,
            "  (CELL (CELLTYPE \"{}\") (INSTANCE {})",
            ct.name, cd.name
        )
        .expect("string write");
        write!(out, "    (DELAY (ABSOLUTE").expect("string write");
        for (i, edge_id) in circuit
            .cell_edges()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.cell == cell_id)
            .map(|(i, e)| (e.input_index as usize, tp_graph::CellEdgeId::new(i)))
        {
            let d = report.cell_edge_delay(edge_id);
            let rise = triple(d[Corner::EarlyRise.index()], d[Corner::LateRise.index()]);
            let fall = triple(d[Corner::EarlyFall.index()], d[Corner::LateFall.index()]);
            write!(out, " (IOPATH a{i} y {rise} {fall})").expect("string write");
        }
        writeln!(out, "))").expect("string write");
        writeln!(out, "  )").expect("string write");
    }

    // Interconnect delays per net edge.
    for (i, e) in circuit.net_edges().iter().enumerate() {
        let d = report.net_edge_delay(tp_graph::NetEdgeId::new(i));
        let rise = triple(d[Corner::EarlyRise.index()], d[Corner::LateRise.index()]);
        let fall = triple(d[Corner::EarlyFall.index()], d[Corner::LateFall.index()]);
        writeln!(
            out,
            "  (CELL (CELLTYPE \"interconnect\") (INSTANCE net{})",
            e.net.index()
        )
        .expect("string write");
        writeln!(
            out,
            "    (DELAY (ABSOLUTE (INTERCONNECT {} {} {rise} {fall})))",
            circuit.pin(e.driver).name,
            circuit.pin(e.sink).name
        )
        .expect("string write");
        writeln!(out, "  )").expect("string write");
    }
    writeln!(out, ")").expect("string write");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_gen::{generate, GeneratorConfig, BENCHMARKS};
    use tp_place::{place_circuit, PlacementConfig};
    use tp_sta::flow::run_full_flow;
    use tp_sta::StaConfig;

    #[test]
    fn sdf_contains_every_arc_and_edge() {
        let lib = Library::synthetic_sky130(1);
        let circuit = generate(
            &BENCHMARKS[18],
            &lib,
            &GeneratorConfig {
                scale: 0.01,
                seed: 2,
                depth: Some(6),
            },
        );
        let placement = place_circuit(&circuit, &PlacementConfig::default(), 1);
        let flow = run_full_flow(&circuit, &placement, &lib, &StaConfig::default());
        let sdf = write(&circuit, &lib, &flow.report);

        let iopaths = sdf.matches("(IOPATH").count();
        assert_eq!(iopaths, circuit.num_cell_edges());
        let interconnects = sdf.matches("(INTERCONNECT").count();
        assert_eq!(interconnects, circuit.num_net_edges());
        assert!(sdf.contains("(DESIGN \"spm\")"));
    }

    #[test]
    fn triples_are_ordered_min_typ_max() {
        let lib = Library::synthetic_sky130(1);
        let circuit = generate(
            &BENCHMARKS[18],
            &lib,
            &GeneratorConfig {
                scale: 0.01,
                seed: 2,
                depth: Some(6),
            },
        );
        let placement = place_circuit(&circuit, &PlacementConfig::default(), 1);
        let flow = run_full_flow(&circuit, &placement, &lib, &StaConfig::default());
        let sdf = write(&circuit, &lib, &flow.report);
        for cap in sdf
            .split('(')
            .filter(|s| s.contains(':') && s.contains(')'))
        {
            let triple = cap.split(')').next().expect("closing paren");
            let parts: Vec<f32> = triple
                .split(':')
                .filter_map(|p| p.trim().parse().ok())
                .collect();
            if parts.len() == 3 {
                assert!(parts[0] <= parts[1] + 1e-6 && parts[1] <= parts[2] + 1e-6);
            }
        }
    }
}
