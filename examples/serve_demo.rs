//! Loopback smoke run for the inference server: the full lifecycle on one
//! process — boot, query, ECO edit, checkpoint hot-swap, graceful drain.
//!
//! Run with: `cargo run --release --example serve_demo [scratch_dir]`.
//! Exits non-zero (panics) on any protocol violation, so tier-1 can use
//! it as a wire-level smoke test. With `TP_OBS` set, the drain flushes a
//! tp-obs run manifest (`serve_report.json` in the scratch dir) whose
//! metrics include `serve.requests` and the `serve.request_ns` histogram
//! — the same source `bench.sh` reads latency percentiles from.

use timing_predict::data::DesignGraph;
use timing_predict::gen::{generate, GeneratorConfig, BENCHMARKS};
use timing_predict::gnn::{Checkpoint, FaultPlan, ModelConfig, TimingGnn};
use timing_predict::liberty::Library;
use timing_predict::place::{place_circuit, PlacementConfig};
use timing_predict::serve::{Client, JsonValue, ServeConfig, Server};
use timing_predict::sta::flow::run_full_flow;
use timing_predict::sta::StaConfig;

fn reply(client: &mut Client, line: &str) -> JsonValue {
    let raw = client
        .send(line)
        .expect("socket alive")
        .expect("server replied");
    timing_predict::serve::json::parse(&raw)
        .unwrap_or_else(|e| panic!("reply not JSON ({e}): {raw:?}"))
}

fn expect_ok(v: &JsonValue, what: &str) {
    assert_eq!(
        v.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "{what} failed: {v:?}"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scratch = args.get(1).cloned().unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("tp_serve_demo_{}", std::process::id()))
            .display()
            .to_string()
    });
    let scratch = std::path::PathBuf::from(scratch);
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let tracing = std::env::var("TP_OBS").is_ok();
    if tracing {
        timing_predict::obs::enable();
    }

    // Build the design once, outside the server.
    let lib = Library::synthetic_sky130(0);
    let circuit = generate(
        &BENCHMARKS[18], // spm
        &lib,
        &GeneratorConfig {
            scale: 0.01,
            seed: 11,
            depth: Some(6),
        },
    );
    let placement = place_circuit(&circuit, &PlacementConfig::default(), 1);
    let sta = StaConfig::default();
    let flow = run_full_flow(&circuit, &placement, &lib, &sta);
    let design = DesignGraph::from_flow("spm", false, &circuit, &placement, &lib, &flow, &sta);
    let die = *placement.die();

    let model_config = ModelConfig {
        embed_dim: 4,
        prop_dim: 6,
        hidden: vec![8],
        seed: 1,
        ablation: Default::default(),
    };
    let mut config = ServeConfig::from_env(model_config.clone());
    config.snapshot_dir = Some(scratch.clone());
    if tracing && config.obs_out.is_none() {
        config.obs_out = Some(scratch.join("serve_report.json"));
    }
    config.faults = FaultPlan::none();
    let obs_out = config.obs_out.clone();

    let server = Server::start(config, TimingGnn::new(&model_config)).expect("bind");
    server.register_design("spm", design, placement);
    let addr = server.local_addr();
    println!("serving on {addr}");

    let mut client = Client::connect(addr).expect("connect");

    // 1. Liveness + discovery.
    expect_ok(&reply(&mut client, r#"{"op":"ping","id":1}"#), "ping");
    let designs = reply(&mut client, r#"{"op":"list_designs","id":2}"#);
    expect_ok(&designs, "list_designs");

    // 2. Predict + slack.
    let predict = reply(&mut client, r#"{"op":"predict","design":"spm","id":3}"#);
    expect_ok(&predict, "predict");
    let hash_v1 = predict
        .get("prediction_hash")
        .and_then(JsonValue::as_str)
        .expect("prediction_hash")
        .to_string();
    let slack = reply(&mut client, r#"{"op":"slack","design":"spm","id":4}"#);
    expect_ok(&slack, "slack");
    println!(
        "v1 prediction {hash_v1}, {} endpoints",
        slack
            .get("endpoints")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    );

    // 3. Hot-swap: write a checkpoint with different weights, reload it.
    let trained = TimingGnn::new(&ModelConfig {
        seed: 77,
        ..model_config
    });
    let mut blob = Vec::new();
    timing_predict::nn::save_parameters(
        &timing_predict::nn::Module::parameters(&trained),
        &mut blob,
    )
    .expect("serialize");
    let ckpt = Checkpoint {
        epoch: 1,
        step: 1,
        lr: 1e-3,
        rng_state: [0; 5],
        model: blob,
        optimizer: timing_predict::nn::optim::AdamState {
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        },
    };
    ckpt.write_atomic(&timing_predict::gnn::checkpoint::checkpoint_path(
        &scratch, 1,
    ))
    .expect("write checkpoint");
    let reloaded = reply(&mut client, r#"{"op":"reload","id":5}"#);
    expect_ok(&reloaded, "reload");
    let swapped = reply(&mut client, r#"{"op":"predict","design":"spm","id":6}"#);
    expect_ok(&swapped, "predict after hot-swap");
    let hash_v2 = swapped
        .get("prediction_hash")
        .and_then(JsonValue::as_str)
        .expect("prediction_hash")
        .to_string();
    assert_ne!(
        hash_v1, hash_v2,
        "hot-swapped weights must change the prediction"
    );
    println!("hot-swapped to snapshot v2, prediction {hash_v2}");

    // 4. ECO edit through the incremental engine.
    let moved = reply(
        &mut client,
        &format!(
            r#"{{"op":"move_pins","design":"spm","moves":[{{"pin":2,"x":{},"y":{}}}],"id":7}}"#,
            die.width * 0.4,
            die.height * 0.6
        ),
    );
    expect_ok(&moved, "move_pins");
    println!(
        "ECO applied: recomputed {} rows, changed {}",
        moved
            .get("recomputed_rows")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0),
        moved
            .get("changed_rows")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    );

    // 5. Stats, then graceful drain.
    let stats = reply(&mut client, r#"{"op":"stats","id":8}"#);
    expect_ok(&stats, "stats");
    let report = server.shutdown();
    assert_eq!(report.panicked, 0, "no handler may panic in the smoke run");
    assert_eq!(report.dropped, 0);
    assert!(
        report.served >= 8,
        "all smoke requests must serve: {report:?}"
    );
    println!(
        "drained: {} requests, {} served, 0 panicked",
        report.requests_total, report.served
    );

    if let Some(path) = obs_out {
        assert!(
            path.exists(),
            "drain must flush the run manifest to {path:?}"
        );
        let manifest = std::fs::read_to_string(&path).expect("read manifest");
        timing_predict::obs::json::validate(&manifest).expect("manifest must be valid JSON");
        assert!(
            manifest.contains("serve.requests"),
            "manifest must carry serve metrics"
        );
        println!("wrote {}", path.display());
    }
}
