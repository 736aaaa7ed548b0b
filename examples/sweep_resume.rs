//! Kill/resume demonstration for the scenario sweep engine.
//!
//! Runs the same multi-design grid three ways:
//!
//! 1. **uninterrupted** — straight through, the reference;
//! 2. **killed** — stopped after half the cells (`cell_budget`, a clean
//!    simulated `kill -9` at a journal boundary);
//! 3. **resumed** — the killed sweep's directory run again with no budget.
//!
//! Then checks the resume guarantee: the resumed journal and report are
//! **byte-identical** to the uninterrupted run's. Cells lost mid-wave by
//! a real kill simply re-run — the journal is the source of truth.
//!
//! Run with: `cargo run --release --example sweep_resume`

use std::path::PathBuf;
use std::process::ExitCode;

use timing_predict::liberty::Library;
use timing_predict::scenarios::{
    ground_truth_evaluator, run_sweep, SweepConfig, SweepGrid, JOURNAL_FILE, REPORT_FILE,
};

fn main() -> ExitCode {
    let library = Library::synthetic_sky130(42);
    let mut grid = SweepGrid::single("usb", 0.02);
    grid.designs = vec!["usb".into(), "spm".into()];
    grid.clock_periods_ns = vec![1.5, 2.0];
    grid.seeds = vec![0, 1, 2];
    let total = grid.len();
    let config = SweepConfig::from_env();

    let base = std::env::var("TP_SWEEP_OUT").map_or_else(
        |_| std::env::temp_dir().join("tp-sweep-resume-demo"),
        PathBuf::from,
    );
    let _ = std::fs::remove_dir_all(&base);
    let reference_dir = base.join("reference");
    let resumable_dir = base.join("resumable");

    println!("grid: {total} cells (2 designs × 2 clock periods × 3 seeds)");

    println!("[1/3] uninterrupted reference sweep…");
    let reference = run_sweep(
        &grid,
        &config,
        &reference_dir,
        ground_truth_evaluator(&library),
    )
    .expect("reference sweep");
    assert!(reference.complete());

    println!("[2/3] sweep killed after {} cells…", total / 2);
    let killed = run_sweep(
        &grid,
        &SweepConfig {
            cell_budget: Some((total / 2) as usize),
            ..config.clone()
        },
        &resumable_dir,
        ground_truth_evaluator(&library),
    )
    .expect("killed sweep");
    assert!(killed.stopped_early);
    println!(
        "      journaled {} of {total} cells, then died",
        killed.records.len()
    );

    println!("[3/3] resuming from the journal…");
    let resumed = run_sweep(
        &grid,
        &config,
        &resumable_dir,
        ground_truth_evaluator(&library),
    )
    .expect("resumed sweep");
    println!(
        "      resumed {} journaled cells, executed the remaining {}",
        resumed.resumed_cells, resumed.executed_cells
    );

    let mut ok = true;
    for file in [JOURNAL_FILE, REPORT_FILE] {
        let a = std::fs::read(reference_dir.join(file)).expect("reference artifact");
        let b = std::fs::read(resumable_dir.join(file)).expect("resumed artifact");
        let verdict = if a == b { "byte-identical" } else { "MISMATCH" };
        ok &= a == b;
        println!("{file}: {verdict} ({} bytes)", a.len());
    }
    if !ok {
        eprintln!("error: resume broke the determinism contract");
        return ExitCode::FAILURE;
    }
    println!(
        "\nresume contract holds; artifacts under {}",
        base.display()
    );
    ExitCode::SUCCESS
}
