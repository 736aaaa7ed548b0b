//! Timing-driven placement exploration — the use-case that motivates the
//! paper. A placement-stage optimizer wants to compare candidate placements
//! by post-routing WNS *without* paying for routing + STA each time. Here
//! we sweep placement seeds for one design through the `tp-scenarios`
//! engine — so the sweep is journaled, fault-isolated, and resumable —
//! rank the candidates by the GNN's predicted WNS, and check the ranking
//! against the true flow.
//!
//! Run with: `cargo run --release --example design_explorer [design]`
//! (default design: `xtea`; unknown names list the benchmark suite).

use std::path::Path;
use std::process::ExitCode;

use timing_predict::data::{Dataset, DatasetConfig, DesignGraph};
use timing_predict::gen::{generate, BenchmarkSpec, GeneratorConfig, BENCHMARKS};
use timing_predict::gnn::{ModelConfig, PropPlan, TimingGnn, TrainConfig, Trainer};
use timing_predict::liberty::Library;
use timing_predict::place::{place_circuit, PlacementConfig};
use timing_predict::scenarios::{run_sweep, CellStatus, SweepConfig, SweepGrid};
use timing_predict::sta::flow::run_full_flow;
use timing_predict::sta::StaConfig;

fn main() -> ExitCode {
    let design = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "xtea".to_string());
    // Fail gracefully on an unknown design instead of panicking: name the
    // problem and the valid suite.
    if BenchmarkSpec::by_name(&design).is_none() {
        eprintln!("error: unknown design `{design}`; pick one of:");
        for b in BENCHMARKS {
            eprintln!("  {}", b.name);
        }
        return ExitCode::FAILURE;
    }

    let library = Library::synthetic_sky130(42);

    // Train the predictor on the standard suite first (as a flow would:
    // train once, reuse across placement iterations).
    eprintln!("training predictor on the standard suite…");
    let dataset = Dataset::build_suite(
        &library,
        &DatasetConfig {
            generator: GeneratorConfig {
                scale: 0.01,
                seed: 42,
                depth: None,
            },
            ..Default::default()
        },
    );
    let mut trainer = Trainer::new(
        TimingGnn::new(&ModelConfig::default()),
        TrainConfig {
            epochs: 80,
            ..Default::default()
        },
    );
    trainer.fit(&dataset);
    let model = trainer.model();

    // Sweep placements of the chosen design through the scenario engine.
    // Each cell evaluates the true flow *and* the predictor: true WNS in
    // `wns`, predicted WNS in `aux`. The sweep journals into results/, so
    // a killed exploration resumes instead of restarting.
    let mut grid = SweepGrid::single(&design, 0.02);
    grid.seeds = (0..8).collect();
    let config = SweepConfig::from_env();
    let out_dir_owned = std::env::var("TP_SWEEP_OUT")
        .unwrap_or_else(|_| format!("results/scenarios/explorer_{design}"));
    let out_dir = Path::new(&out_dir_owned);
    let evaluator = |ctx: &mut timing_predict::scenarios::CellCtx| {
        let spec = BenchmarkSpec::by_name(&ctx.spec.design).expect("validated by the grid");
        let gen_cfg = GeneratorConfig {
            scale: ctx.spec.scale,
            seed: 42,
            depth: None,
        };
        let circuit = generate(spec, &library, &gen_cfg);
        let place_cfg = PlacementConfig {
            utilization: ctx.spec.utilization,
            ..PlacementConfig::default()
        };
        let placement = place_circuit(&circuit, &place_cfg, ctx.spec.seed);
        let sta_cfg = StaConfig::default().with_clock_period(ctx.spec.clock_period_ns);
        let flow = run_full_flow(&circuit, &placement, &library, &sta_cfg);
        let graph = DesignGraph::from_flow(
            format!("{}#{}", ctx.spec.design, ctx.spec.seed),
            false,
            &circuit,
            &placement,
            &library,
            &flow,
            &sta_cfg,
        );
        let pred = model.forward(&graph, &PropPlan::build(&graph));
        let pred_wns = pred
            .endpoint_setup_slack(&graph)
            .into_iter()
            .fold(f32::INFINITY, f32::min);
        let true_slacks = graph.endpoint_setup_slack();
        let true_wns = true_slacks.iter().copied().fold(f32::INFINITY, f32::min);
        timing_predict::scenarios::CellMetrics {
            wns: if true_wns.is_finite() { true_wns } else { 0.0 },
            tns: true_slacks.iter().copied().filter(|s| *s < 0.0).sum(),
            aux: if pred_wns.is_finite() { pred_wns } else { 0.0 },
            pins: circuit.num_pins() as u64,
        }
    };
    let outcome = match run_sweep(&grid, &config, out_dir, evaluator) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "\nswept {} placements of `{design}` ({} resumed from journal, {} executed)",
        outcome.records.len(),
        outcome.resumed_cells,
        outcome.executed_cells,
    );
    println!(
        "{:>6} {:>14} {:>14}",
        "seed", "true WNS (ns)", "pred WNS (ns)"
    );
    let mut pairs = Vec::new();
    for rec in &outcome.records {
        let spec = grid.cell(rec.cell);
        if rec.status != CellStatus::Completed {
            println!("{:>6} {:>14} {:>14}", spec.seed, rec.status.label(), "-");
            continue;
        }
        println!(
            "{:>6} {:>14.4} {:>14.4}",
            spec.seed, rec.metrics.wns, rec.metrics.aux
        );
        pairs.push((rec.metrics.wns, rec.metrics.aux));
    }

    // Rank agreement: does the predictor pick a top placement?
    let Some(best_true) = pairs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
        .map(|(i, _)| i)
    else {
        eprintln!(
            "error: no cell completed; see {}",
            outcome.report_path.display()
        );
        return ExitCode::FAILURE;
    };
    let best_pred = pairs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
        .map(|(i, _)| i)
        .expect("non-empty when best_true exists");
    println!("\nbest placement by true WNS: #{best_true}; by predicted WNS: #{best_pred}");
    let rank_of_pick = {
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.sort_by(|&a, &b| pairs[b].0.total_cmp(&pairs[a].0));
        order.iter().position(|&i| i == best_pred).expect("present") + 1
    };
    println!(
        "the predictor's pick ranks #{rank_of_pick} of {} by ground truth",
        pairs.len()
    );
    println!("journal: {}", outcome.journal_path.display());
    println!("report:  {}", outcome.report_path.display());
    ExitCode::SUCCESS
}
