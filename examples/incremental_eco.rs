//! ECO loop with incremental timing: move cells one at a time (as a
//! timing-driven detailed placer would) and re-time only the affected cone,
//! comparing the incremental engine's cost against full re-analysis.
//!
//! Run with: `cargo run --release --example incremental_eco`

use std::time::Instant;

use timing_predict::gen::{generate, BenchmarkSpec, GeneratorConfig};
use timing_predict::liberty::Library;
use timing_predict::place::{place_circuit, Placement, PlacementConfig, Point};
use timing_predict::sta::incremental::IncrementalSta;
use timing_predict::sta::{StaConfig, StaEngine};

fn main() {
    let library = Library::synthetic_sky130(1);
    let spec = BenchmarkSpec::by_name("picorv32a").expect("known benchmark");
    let circuit = generate(
        spec,
        &library,
        &GeneratorConfig {
            scale: 0.05,
            seed: 1,
            depth: None,
        },
    );
    let mut placement = place_circuit(&circuit, &PlacementConfig::default(), 2);
    let config = StaConfig::default();

    println!(
        "design `{}`: {} pins, {} cells",
        circuit.name(),
        circuit.num_pins(),
        circuit.num_cells()
    );
    let t0 = Instant::now();
    let mut inc = IncrementalSta::new(&library, config, &circuit, &placement);
    println!(
        "initial full analysis: {:.1} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );

    println!(
        "\n{:>5} {:>14} {:>12} {:>12} {:>12} {:>10}",
        "move", "pins recomputed", "inc (ms)", "full (ms)", "WNS (ns)", "match"
    );
    let die = *placement.die();
    for step in 0..6u32 {
        // move one cell toward the die centre, as an optimizer might
        let cell = timing_predict::graph::CellId::new((step as usize * 37) % circuit.num_cells());
        let cd = circuit.cell(cell);
        let target = Point::new(die.width * (0.4 + 0.03 * step as f32), die.height * 0.5);
        let mut locs = placement.locations().to_vec();
        let mut moved = Vec::new();
        for &p in cd.inputs.iter().chain(std::iter::once(&cd.output)) {
            locs[p.index()] = target;
            moved.push(p);
        }
        placement = Placement::new(die, locs);

        let t_inc = Instant::now();
        let recomputed = inc.update_pins(&circuit, &placement, &moved);
        let inc_ms = t_inc.elapsed().as_secs_f64() * 1e3;
        let inc_wns = inc.report(&circuit).wns_setup();

        let t_full = Instant::now();
        let full = StaEngine::new(&library, config).run(&circuit, &placement);
        let full_ms = t_full.elapsed().as_secs_f64() * 1e3;

        println!(
            "{step:>5} {recomputed:>14} {inc_ms:>12.2} {full_ms:>12.2} {inc_wns:>12.4} {:>10}",
            if inc_wns.to_bits() == full.wns_setup().to_bits() {
                "yes"
            } else {
                "NO"
            }
        );
    }
    println!(
        "\nincremental updates touch only the moved cells' cones; results match\n\
         full re-analysis exactly (see `tp-sta::incremental` property tests)."
    );
}
