//! Integration test: the full design state (netlist, library, placement)
//! survives a round trip through the text interchange formats, and the
//! re-imported design re-times to identical results.

use timing_predict::gen::{generate, GeneratorConfig, BENCHMARKS};
use timing_predict::io;
use timing_predict::liberty::Library;
use timing_predict::place::{place_circuit, PlacementConfig};
use timing_predict::sta::flow::run_full_flow;
use timing_predict::sta::StaConfig;

#[test]
fn full_state_roundtrip_reproduces_timing() {
    let library = Library::synthetic_sky130(11);
    let circuit = generate(
        &BENCHMARKS[11], // zipdiv
        &library,
        &GeneratorConfig {
            scale: 0.02,
            seed: 5,
            depth: None,
        },
    );
    let placement = place_circuit(&circuit, &PlacementConfig::default(), 5);
    let sta = StaConfig::default();
    let original = run_full_flow(&circuit, &placement, &library, &sta);

    // write everything out…
    let v = io::verilog::write(&circuit, &library);
    let lib_text = io::liberty::write(&library, "roundtrip");
    let def = io::def::write(&circuit, &placement);

    // …and read it all back with no access to the originals
    let library2 = io::liberty::parse(&lib_text).expect("library parses");
    let circuit2 = io::verilog::parse(&v, &library2).expect("netlist parses");
    let placement2 = io::def::parse(&def, &circuit2).expect("placement parses");
    let reimported = run_full_flow(&circuit2, &placement2, &library2, &sta);

    assert_eq!(circuit2.stats(), circuit.stats());
    assert!(
        (reimported.report.wns_setup() - original.report.wns_setup()).abs() < 1e-4,
        "WNS must survive the round trip: {} vs {}",
        reimported.report.wns_setup(),
        original.report.wns_setup()
    );
    assert!(
        (reimported.report.critical_path_delay() - original.report.critical_path_delay()).abs()
            < 1e-4
    );
    assert!(
        (reimported.report.tns_setup() - original.report.tns_setup()).abs() < 1e-3,
        "TNS must survive the round trip"
    );
}

#[test]
fn sdf_is_emitted_for_reimported_design() {
    let library = Library::synthetic_sky130(3);
    let circuit = generate(
        &BENCHMARKS[18], // spm
        &library,
        &GeneratorConfig {
            scale: 0.02,
            seed: 3,
            depth: None,
        },
    );
    let placement = place_circuit(&circuit, &PlacementConfig::default(), 3);
    let flow = run_full_flow(&circuit, &placement, &library, &StaConfig::default());
    let sdf = io::sdf::write(&circuit, &library, &flow.report);
    assert_eq!(sdf.matches("(IOPATH").count(), circuit.num_cell_edges());
    assert_eq!(
        sdf.matches("(INTERCONNECT").count(),
        circuit.num_net_edges()
    );
}
