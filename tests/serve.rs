//! Acceptance tests for the serving layer (ISSUE 8).
//!
//! Two guarantees are proven end to end, through real sockets:
//!
//! 1. **Robustness under compound faults** — one seeded [`FaultPlan`]
//!    schedules a panicking request, a corrupt hot-swap checkpoint and
//!    queue saturation into a single run; sibling requests must complete
//!    correctly throughout, and the post-fault prediction must be
//!    bit-identical to the pre-fault one.
//! 2. **Incremental == full** — ECO `move_pins` answered by the server's
//!    incremental engine must hash bit-identically to an offline full
//!    forward pass over an independently constructed design with the
//!    same moves applied.

use timing_predict::data::{DesignGraph, PinMove};
use timing_predict::gen::{generate, GeneratorConfig, BENCHMARKS};
use timing_predict::gnn::{
    Checkpoint, FaultPlan, ModelConfig, PropPlan, RequestFault, TimingGnn,
};
use timing_predict::liberty::Library;
use timing_predict::place::{place_circuit, Placement, PlacementConfig};
use timing_predict::serve::{prediction_hash, Client, JsonValue, ServeConfig, Server};
use timing_predict::sta::flow::run_full_flow;
use timing_predict::sta::StaConfig;

fn fixture() -> (DesignGraph, Placement) {
    let lib = Library::synthetic_sky130(0);
    let cfg = GeneratorConfig {
        scale: 0.01,
        seed: 11,
        depth: Some(6),
    };
    let circuit = generate(&BENCHMARKS[18], &lib, &cfg); // spm
    let placement = place_circuit(&circuit, &PlacementConfig::default(), 1);
    let sta = StaConfig::default();
    let flow = run_full_flow(&circuit, &placement, &lib, &sta);
    let design = DesignGraph::from_flow("spm", false, &circuit, &placement, &lib, &flow, &sta);
    (design, placement)
}

fn small_config() -> ModelConfig {
    ModelConfig {
        embed_dim: 4,
        prop_dim: 6,
        hidden: vec![8],
        seed: 1,
        ablation: Default::default(),
    }
}

fn roundtrip(client: &mut Client, line: &str) -> JsonValue {
    let reply = client
        .send(line)
        .expect("socket alive")
        .expect("server replied");
    timing_predict::serve::json::parse(&reply)
        .unwrap_or_else(|e| panic!("reply not JSON ({e}): {reply:?}"))
}

fn hash_of(v: &JsonValue) -> String {
    v.get("prediction_hash")
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("missing prediction_hash in {v:?}"))
        .to_string()
}

fn is_ok(v: &JsonValue) -> bool {
    v.get("ok").and_then(JsonValue::as_bool) == Some(true)
}

/// The compound-fault acceptance run: panic + corrupt checkpoint + queue
/// saturation in one seeded schedule, siblings correct throughout.
#[test]
fn server_survives_compound_seeded_faults() {
    // Request indices are deterministic: 0 baseline predict, 1 slowed
    // predict (parks in the only admission slot), 2 overloaded sibling,
    // 3 panicking debug op, 4 corrupt reload, then verification traffic.
    let faults = FaultPlan::none().with_request_fault(1, RequestFault::Slow { ms: 350 });
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 1,
        deadline_ms: 30_000,
        snapshot_dir: None,
        lib_seed: 0,
        model_config: small_config(),
        faults,
        fault_seed: 2024,
        obs_out: None,
    };
    let model = TimingGnn::new(&config.model_config);
    let server = Server::start(config, model).expect("bind loopback");
    let (design, placement) = fixture();
    server.register_design("spm", design, placement);
    let addr = server.local_addr();

    let mut main = Client::connect(addr).expect("connect");
    let baseline = roundtrip(&mut main, r#"{"op":"predict","design":"spm","id":1}"#);
    assert!(is_ok(&baseline), "baseline must serve: {baseline:?}");
    let golden = hash_of(&baseline);

    // Queue saturation: the slowed request holds the slot...
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        roundtrip(&mut c, r#"{"op":"predict","design":"spm","id":2}"#)
    });
    std::thread::sleep(std::time::Duration::from_millis(120));
    // ...so the sibling is refused with a structured reply, not queued.
    let refused = roundtrip(&mut main, r#"{"op":"predict","design":"spm","id":3}"#);
    assert_eq!(
        refused.get("error").and_then(JsonValue::as_str),
        Some("overloaded"),
        "got {refused:?}"
    );
    let slow_reply = slow.join().expect("slot holder");
    assert!(is_ok(&slow_reply));
    assert_eq!(hash_of(&slow_reply), golden, "saturation must not corrupt results");

    // Panic isolation: the handler dies holding the session lock.
    let boom = roundtrip(&mut main, r#"{"op":"debug_panic","design":"spm","id":4}"#);
    assert_eq!(boom.get("error").and_then(JsonValue::as_str), Some("panic"));

    // Corrupt hot-swap: rejected, old snapshot keeps serving.
    let dir = std::env::temp_dir().join(format!("tp_acceptance_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = timing_predict::gnn::checkpoint::checkpoint_path(&dir, 9);
    let mut blob = Vec::new();
    timing_predict::nn::save_parameters(
        &timing_predict::nn::Module::parameters(&TimingGnn::new(&small_config())),
        &mut blob,
    )
    .expect("serialize");
    let ckpt = Checkpoint {
        epoch: 9,
        step: 9,
        lr: 1e-3,
        rng_state: [0; 5],
        model: blob,
        optimizer: timing_predict::nn::optim::AdamState {
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        },
    };
    let mut bytes = ckpt.to_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    std::fs::write(&path, &bytes).expect("write corrupt");
    let rejected = roundtrip(
        &mut main,
        &format!(r#"{{"op":"reload","path":"{}","id":5}}"#, path.display()),
    );
    assert_eq!(
        rejected.get("error").and_then(JsonValue::as_str),
        Some("snapshot_rejected"),
        "got {rejected:?}"
    );

    // After the panic, the saturation and the rejected swap: a sibling
    // connection still gets the bit-identical golden prediction.
    let mut sibling = Client::connect(addr).expect("connect");
    let after = roundtrip(&mut sibling, r#"{"op":"predict","design":"spm","id":6}"#);
    assert!(is_ok(&after), "sibling must serve after faults: {after:?}");
    assert_eq!(hash_of(&after), golden);

    let report = server.shutdown();
    assert_eq!(report.overloaded, 1, "{report:?}");
    assert_eq!(report.panicked, 1, "{report:?}");
    // Served: baseline, slot holder and sibling predicts. The refused,
    // panicked and rejected requests got error replies.
    assert_eq!(report.served, 3, "{report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Server-side incremental ECO re-prediction hashes bit-identically to an
/// offline full forward pass with the same moves.
#[test]
fn served_incremental_eco_matches_offline_full_forward() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 8,
        deadline_ms: 30_000,
        snapshot_dir: None,
        lib_seed: 0,
        model_config: small_config(),
        faults: FaultPlan::none(),
        fault_seed: 0,
        obs_out: None,
    };
    let model = TimingGnn::new(&config.model_config);
    let server = Server::start(config, model).expect("bind loopback");
    let (design, placement) = fixture();
    let die = *placement.die();
    server.register_design("spm", design, placement);

    let moves = [
        PinMove { pin: 2, x: die.width * 0.40, y: die.height * 0.60 },
        PinMove { pin: 7, x: die.width * 0.15, y: die.height * 0.85 },
        PinMove { pin: 12, x: die.width * 0.70, y: die.height * 0.10 },
    ];
    let moves_json: Vec<String> = moves
        .iter()
        .map(|m| format!(r#"{{"pin":{},"x":{},"y":{}}}"#, m.pin, m.x, m.y))
        .collect();

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let reply = roundtrip(
        &mut client,
        &format!(
            r#"{{"op":"move_pins","design":"spm","moves":[{}],"id":1}}"#,
            moves_json.join(",")
        ),
    );
    assert!(is_ok(&reply), "moves must apply: {reply:?}");
    let served_hash = hash_of(&reply);
    assert!(
        reply.get("recomputed_rows").and_then(JsonValue::as_u64).unwrap_or(0) > 0,
        "incremental update must have recomputed something: {reply:?}"
    );

    // Offline ground truth: an independent fixture (tensor storage is
    // shared by clone, so rebuild from scratch), same moves, full
    // forward pass — the paper-grade reference computation.
    let (mut design2, mut placement2) = fixture();
    // f32 roundtrip through the JSON wire is exact (f64 widening), so
    // applying the same literals offline reproduces identical bytes.
    design2
        .apply_moves(&mut placement2, &moves)
        .expect("valid moves");
    let plan2 = PropPlan::build(&design2);
    let offline = TimingGnn::new(&small_config()).forward(&design2, &plan2);
    let offline_hash = format!("{:016x}", prediction_hash(&offline));

    assert_eq!(
        served_hash, offline_hash,
        "served incremental ECO prediction must be bit-identical to a full forward pass"
    );

    // And the server's steady-state predict agrees with itself.
    let predict = roundtrip(&mut client, r#"{"op":"predict","design":"spm","id":2}"#);
    assert_eq!(hash_of(&predict), served_hash);

    server.shutdown();
}
