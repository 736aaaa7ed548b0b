//! The reference signoff flow as a standalone tool: generate (or accept) a
//! benchmark, place it, route every net with Steiner trees, evaluate Elmore
//! delays, run four-corner levelized STA and print a timing report —
//! everything OpenROAD did for the paper's labels, in one binary.
//!
//! Run with: `cargo run --release --example sta_flow [benchmark] [scale]`
//! e.g. `cargo run --release --example sta_flow picorv32a 0.05`

use timing_predict::gen::{generate, BenchmarkSpec, GeneratorConfig};
use timing_predict::liberty::{Corner, Library};
use timing_predict::place::{place_circuit, PlacementConfig};
use timing_predict::sta::flow::run_full_flow;
use timing_predict::sta::StaConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("picorv32a");
    let scale: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.05);

    let library = Library::synthetic_sky130(1);
    let spec = BenchmarkSpec::by_name(name).unwrap_or_else(|| {
        eprintln!("unknown benchmark `{name}`; known names come from Table 1");
        std::process::exit(1);
    });
    let circuit = generate(
        spec,
        &library,
        &GeneratorConfig {
            scale,
            seed: 11,
            depth: None,
        },
    );
    let placement = place_circuit(&circuit, &PlacementConfig::default(), 5);
    let sta_cfg = StaConfig::default().with_clock_period(3.0);
    let flow = run_full_flow(&circuit, &placement, &library, &sta_cfg);
    let report = &flow.report;

    println!("== {} @ scale {scale} ==", circuit.name());
    println!("{}", circuit.stats());
    println!(
        "total wirelength: {:.1} µm",
        flow.routing.total_wirelength()
    );
    println!(
        "runtime: routing {:.2} ms, STA {:.2} ms",
        flow.routing_seconds * 1e3,
        flow.sta_seconds * 1e3
    );
    println!(
        "critical path delay: {:.4} ns",
        report.critical_path_delay()
    );
    println!(
        "WNS(setup): {:+.4} ns, TNS(setup): {:+.4} ns",
        report.wns_setup(),
        report.tns_setup()
    );

    // Slack histogram over endpoints.
    let slacks: Vec<f32> = report
        .endpoints()
        .iter()
        .map(|&e| report.setup_slack(e))
        .collect();
    let lo = slacks.iter().copied().fold(f32::INFINITY, f32::min);
    let hi = slacks.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    const BINS: usize = 12;
    let mut bins = [0usize; BINS];
    for &s in &slacks {
        let t = ((s - lo) / (hi - lo).max(1e-9) * (BINS - 1) as f32) as usize;
        bins[t.min(BINS - 1)] += 1;
    }
    println!("\nsetup-slack histogram over {} endpoints:", slacks.len());
    for (b, &count) in bins.iter().enumerate() {
        let left = lo + (hi - lo) * b as f32 / BINS as f32;
        println!(
            "{left:>8.3} ns | {:<50} {count}",
            "#".repeat((count * 50 / slacks.len().max(1)).min(50))
        );
    }

    // The worst endpoint, with its per-corner detail.
    if let Some((&worst, _)) = report
        .endpoints()
        .iter()
        .map(|e| (e, report.setup_slack(*e)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
    {
        println!("\nworst endpoint: pin {worst}");
        for c in Corner::ALL {
            let k = c.index();
            println!(
                "  {c}: AT {:+.4}  RAT {:+.4}  slack {:+.4}",
                report.arrival(worst)[k],
                report.required(worst)[k],
                report.slack(worst)[k]
            );
        }
    }
}
