//! Byte-identity smoke for sweeps streamed through the inference server.
//!
//! Runs the same multi-design grid twice:
//!
//! 1. **in-process** — each cell builds its design locally and runs one
//!    forward pass ([`prediction_evaluator`]), the reference;
//! 2. **served** — each cell `register`s its design against a live
//!    `tp-serve` instance over JSONL and streams a `slack` query through
//!    it ([`serve_evaluator`]).
//!
//! Then checks the streaming contract: the served journal and report are
//! **byte-identical** to the in-process run's — moving the forward pass
//! behind a socket must never change a single bit of the sweep
//! artifacts. Also probes the registration cache: re-sending a
//! cell's `register` line must come back `"cached":true`.
//!
//! Run with: `cargo run --release --example sweep_serve`

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use timing_predict::gnn::{FaultPlan, ModelConfig, TimingGnn};
use timing_predict::liberty::Library;
use timing_predict::scenarios::{
    prediction_evaluator, register_spec_for_cell, run_sweep, serve_evaluator, SweepConfig,
    SweepGrid, JOURNAL_FILE, REPORT_FILE,
};
use timing_predict::serve::{register_line, Client, JsonValue, ServeConfig, Server};

fn main() -> ExitCode {
    let lib_seed = 0u64;
    let library = Library::synthetic_sky130(lib_seed);
    let model_config = ModelConfig {
        embed_dim: 4,
        prop_dim: 6,
        hidden: vec![8],
        seed: 1,
        ablation: Default::default(),
    };

    let mut grid = SweepGrid::single("usb", 0.02);
    grid.designs = vec!["usb".into(), "spm".into()];
    grid.clock_periods_ns = vec![1.5, 2.0];
    grid.seeds = vec![0, 1];
    let total = grid.len();
    let config = SweepConfig::from_env();

    let base = std::env::var("TP_SWEEP_OUT").map_or_else(
        |_| std::env::temp_dir().join("tp-sweep-serve-demo"),
        PathBuf::from,
    );
    let _ = std::fs::remove_dir_all(&base);
    let inproc_dir = base.join("inproc");
    let served_dir = base.join("served");

    println!("grid: {total} cells (2 designs × 2 clock periods × 2 seeds)");

    println!("[1/3] in-process prediction sweep…");
    let model = Arc::new(TimingGnn::new(&model_config));
    let inproc = run_sweep(
        &grid,
        &config,
        &inproc_dir,
        prediction_evaluator(&library, model),
    )
    .expect("in-process sweep");
    assert!(inproc.complete());

    println!("[2/3] sweep streamed through a live server…");
    let mut serve_config = ServeConfig::from_env(model_config.clone());
    serve_config.faults = FaultPlan::none();
    serve_config.snapshot_dir = None;
    serve_config.lib_seed = lib_seed;
    let server = Server::start(serve_config, TimingGnn::new(&model_config)).expect("bind");
    let addr = server.local_addr();
    let served = run_sweep(&grid, &config, &served_dir, serve_evaluator(addr))
        .expect("served sweep");
    assert!(served.complete());

    println!("[3/3] probing the registration cache…");
    let mut client = Client::connect(addr).expect("connect");
    let spec = register_spec_for_cell(&grid.cell(0));
    let raw = client
        .send(&register_line(Some(99), &spec))
        .expect("socket alive")
        .expect("server replied");
    let v = timing_predict::serve::json::parse(&raw).expect("reply parses");
    assert_eq!(
        v.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "re-register refused: {raw}"
    );
    assert_eq!(
        v.get("cached").and_then(JsonValue::as_bool),
        Some(true),
        "duplicate registration must hit the content cache: {raw}"
    );
    drop(client);
    let report = server.shutdown();
    assert_eq!(report.panicked, 0, "no handler may panic in the smoke run");

    let mut ok = true;
    for file in [JOURNAL_FILE, REPORT_FILE] {
        let a = std::fs::read(inproc_dir.join(file)).expect("in-process artifact");
        let b = std::fs::read(served_dir.join(file)).expect("served artifact");
        let verdict = if a == b { "byte-identical" } else { "MISMATCH" };
        ok &= a == b;
        println!("{file}: {verdict} ({} bytes)", a.len());
    }
    if !ok {
        eprintln!("error: serving the sweep changed its artifacts");
        return ExitCode::FAILURE;
    }
    println!("\nstreaming contract holds; artifacts under {}", base.display());
    ExitCode::SUCCESS
}
