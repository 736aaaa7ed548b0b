//! End-to-end robustness: every failure path exercised through the wire.
//!
//! Each test boots a real server on a loopback ephemeral port and drives
//! it with the JSONL client. Faults are injected deterministically via
//! the seeded [`FaultPlan`] request schedule, so "the 3rd request hangs"
//! is a fact of the test, not a race.
//!
//! The server's `REQUEST_COST` EWMA deadline model is process-global, so
//! these tests serialize on a mutex: recorded latencies from one test
//! would otherwise inflate another test's adaptive deadline.

use std::path::PathBuf;
use std::sync::Mutex;

use tp_data::DesignGraph;
use tp_gen::{generate, GeneratorConfig, BENCHMARKS};
use tp_gnn::{Checkpoint, FaultPlan, ModelConfig, RequestFault, TimingGnn};
use tp_liberty::Library;
use tp_place::{place_circuit, Placement, PlacementConfig};
use tp_serve::{register_line, Client, JsonValue, RegisterSpec, ServeConfig, Server};
use tp_sta::flow::run_full_flow;
use tp_sta::StaConfig;

static SERIAL: Mutex<()> = Mutex::new(());

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

fn serve_config(queue_depth: usize, deadline_ms: u64, faults: FaultPlan) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth,
        deadline_ms,
        snapshot_dir: None,
        lib_seed: 0,
        model_config: small_config(),
        faults,
        fault_seed: 42,
        obs_out: None,
    }
}

fn start(config: ServeConfig) -> Server {
    let model = TimingGnn::new(&config.model_config);
    let server = Server::start(config, model).expect("bind loopback");
    let (design, placement) = fixture();
    server.register_design("spm", design, placement);
    server
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tp_serve_robust_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn checkpoint_with_seed(seed: u64, epoch: u64) -> Checkpoint {
    let model = TimingGnn::new(&ModelConfig {
        seed,
        ..small_config()
    });
    let mut blob = Vec::new();
    tp_nn::save_parameters(&tp_nn::Module::parameters(&model), &mut blob).expect("serialize");
    Checkpoint {
        epoch,
        step: epoch,
        lr: 1e-3,
        rng_state: [0; 5],
        model: blob,
        optimizer: tp_nn::optim::AdamState {
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        },
    }
}

/// Sends `line` and parses the reply JSON (panicking on socket failure).
fn roundtrip(client: &mut Client, line: &str) -> JsonValue {
    let reply = client
        .send(line)
        .expect("socket alive")
        .expect("server replied");
    tp_serve::json::parse(&reply).unwrap_or_else(|e| panic!("reply not JSON ({e}): {reply:?}"))
}

fn get_str(v: &JsonValue, key: &str) -> String {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("missing {key:?} in {v:?}"))
        .to_string()
}

fn assert_ok(v: &JsonValue) {
    assert_eq!(
        v.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "expected success reply, got {v:?}"
    );
}

fn assert_error(v: &JsonValue, kind: &str) {
    assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false));
    assert_eq!(get_str(v, "error"), kind, "wrong error kind in {v:?}");
}

#[test]
fn overloaded_request_is_refused_and_identical_on_retry() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // Request 1 (the first predict) is slowed so it parks in the only
    // admission slot while request 2 arrives on a sibling connection.
    let faults = FaultPlan::none().with_request_fault(1, RequestFault::Slow { ms: 400 });
    let server = start(serve_config(1, 30_000, faults));
    let addr = server.local_addr();

    let mut probe = Client::connect(addr).expect("connect");
    let baseline = roundtrip(&mut probe, r#"{"op":"predict","design":"spm","id":7}"#);
    assert_ok(&baseline);
    let baseline_hash = get_str(&baseline, "prediction_hash");

    // Slot-holder on its own connection (request index 1: slowed 400ms).
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        roundtrip(&mut c, r#"{"op":"predict","design":"spm","id":8}"#)
    });
    std::thread::sleep(std::time::Duration::from_millis(120));

    // Sibling arrives while the slot is held: refused, not queued.
    let mut sibling = Client::connect(addr).expect("connect");
    let refused = roundtrip(&mut sibling, r#"{"op":"predict","design":"spm","id":7}"#);
    assert_error(&refused, "overloaded");

    let slow_reply = slow.join().expect("slot-holder thread");
    assert_ok(&slow_reply);

    // Retry after the slot frees: served, bit-identical to the baseline.
    let retried = roundtrip(&mut sibling, r#"{"op":"predict","design":"spm","id":7}"#);
    assert_ok(&retried);
    assert_eq!(get_str(&retried, "prediction_hash"), baseline_hash);

    let report = server.shutdown();
    assert_eq!(report.overloaded, 1);
    assert!(report.served >= 3);
}

#[test]
fn deadline_discards_late_result_and_retry_is_idempotent() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // Request 1 hangs far past both the 50ms floor and any plausible
    // EWMA-scaled deadline; its (finished) result must be discarded.
    let faults = FaultPlan::none().with_request_fault(1, RequestFault::Hang { ms: 1_200 });
    let server = start(serve_config(8, 50, faults));
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let before = roundtrip(&mut client, r#"{"op":"predict","design":"spm","id":1}"#);
    assert_ok(&before);

    let moves = r#"{"op":"move_pins","design":"spm","moves":[{"pin":2,"x":9.5,"y":14.25}],"id":2}"#;
    let late = roundtrip(&mut client, moves);
    assert_error(&late, "deadline");

    // The handler DID apply the moves before the result was discarded;
    // absolute coordinates make the retry idempotent, so the retried
    // reply and a second identical retry agree bit-for-bit.
    let retry = roundtrip(&mut client, moves);
    assert_ok(&retry);
    let hash = get_str(&retry, "prediction_hash");
    let again = roundtrip(&mut client, moves);
    assert_ok(&again);
    assert_eq!(get_str(&again, "prediction_hash"), hash);
    let predict = roundtrip(&mut client, r#"{"op":"predict","design":"spm","id":3}"#);
    assert_eq!(get_str(&predict, "prediction_hash"), hash);

    let report = server.shutdown();
    assert_eq!(report.timed_out, 1);
}

#[test]
fn zero_deadline_disables_the_timer() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // Request 1 is slowed far past the old 50ms floor. With
    // `TP_REQ_DEADLINE_MS=0` (deadlines disabled) the late result must
    // be served, not discarded: 0 means "off", not "0ms budget".
    let faults = FaultPlan::none().with_request_fault(1, RequestFault::Slow { ms: 300 });
    let server = start(serve_config(8, 0, faults));
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let before = roundtrip(&mut client, r#"{"op":"predict","design":"spm","id":1}"#);
    assert_ok(&before);
    let hash = get_str(&before, "prediction_hash");

    // The slowed request: takes ~300ms, still succeeds bit-identically.
    let slow = roundtrip(&mut client, r#"{"op":"predict","design":"spm","id":2}"#);
    assert_ok(&slow);
    assert_eq!(get_str(&slow, "prediction_hash"), hash);

    let report = server.shutdown();
    assert_eq!(report.timed_out, 0, "no deadline may fire when disabled");
    assert_eq!(report.served, 2);
}

#[test]
fn error_replies_are_not_counted_as_served() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // No snapshot dir is configured, so a path-less reload is refused.
    let server = start(serve_config(8, 30_000, FaultPlan::none()));
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let refusals = [
        (r#"{"op":"predict","design":"nope","id":1}"#, "unknown_design"),
        (r#"{"op":"register","design":"not-a-benchmark","id":2}"#, "bad_request"),
        (r#"{"op":"reload","id":3}"#, "snapshot_rejected"),
        (
            r#"{"op":"move_pins","design":"spm","moves":[{"pin":1000000,"x":1.0,"y":1.0}],"id":4}"#,
            "bad_request",
        ),
    ];
    for (line, kind) in refusals {
        assert_error(&roundtrip(&mut client, line), kind);
    }
    let stats = roundtrip(&mut client, r#"{"op":"stats","id":5}"#);
    assert_ok(&stats);
    assert_eq!(stats.get("requests").and_then(JsonValue::as_u64), Some(5));
    assert_eq!(stats.get("served").and_then(JsonValue::as_u64), Some(0));

    let report = server.shutdown();
    assert_eq!(report.requests_total, 5);
    assert_eq!(report.served, 1, "only the stats reply succeeded: {report:?}");
}

#[test]
fn wire_registered_session_survives_panic_and_rebuilds_from_plan() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let server = start(serve_config(8, 30_000, FaultPlan::none()));
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Register a design through the wire: this session carries a cached
    // content hash and a reusable levelized plan.
    let spec = RegisterSpec {
        name: "usb".to_string(),
        design: "usb".to_string(),
        scale: 0.01,
        seed: 7,
        utilization: 0.7,
        clock_period_ns: 2.0,
        depth: None,
    };
    let registered = roundtrip(&mut client, &register_line(Some(1), &spec));
    assert_ok(&registered);

    let before = roundtrip(&mut client, r#"{"op":"predict","design":"usb","id":2}"#);
    assert_ok(&before);
    let hash = get_str(&before, "prediction_hash");

    // Panic while holding the registered session's lock, then verify the
    // quarantined session rebuilds (reusing its plan) to bit-exact state.
    let boom = roundtrip(&mut client, r#"{"op":"debug_panic","design":"usb","id":3}"#);
    assert_error(&boom, "panic");
    let after = roundtrip(&mut client, r#"{"op":"predict","design":"usb","id":4}"#);
    assert_ok(&after);
    assert_eq!(get_str(&after, "prediction_hash"), hash);

    let report = server.shutdown();
    assert_eq!(report.panicked, 1);
}

#[test]
fn panicking_handler_is_isolated_and_session_rebuilds() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let server = start(serve_config(8, 30_000, FaultPlan::none()));
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    let before = roundtrip(&mut client, r#"{"op":"predict","design":"spm","id":1}"#);
    assert_ok(&before);
    let hash = get_str(&before, "prediction_hash");

    // Panic while holding the spm session lock.
    let boom = roundtrip(&mut client, r#"{"op":"debug_panic","design":"spm","id":2}"#);
    assert_error(&boom, "panic");
    // The same connection keeps working...
    let ping = roundtrip(&mut client, r#"{"op":"ping","id":3}"#);
    assert_ok(&ping);
    // ...a sibling connection is untouched...
    let mut sibling = Client::connect(addr).expect("connect");
    let pong = roundtrip(&mut sibling, r#"{"op":"ping"}"#);
    assert_ok(&pong);
    // ...and the quarantined session rebuilds to the same bit-exact state.
    let after = roundtrip(&mut sibling, r#"{"op":"predict","design":"spm","id":4}"#);
    assert_ok(&after);
    assert_eq!(get_str(&after, "prediction_hash"), hash);

    // A panic with no session held is isolated too.
    let boom2 = roundtrip(&mut client, r#"{"op":"debug_panic","id":5}"#);
    assert_error(&boom2, "panic");
    // Unknown design: structured error, not a panic.
    let missing = roundtrip(&mut client, r#"{"op":"debug_panic","design":"nope","id":6}"#);
    assert_error(&missing, "unknown_design");

    let report = server.shutdown();
    assert_eq!(report.panicked, 2);
}

#[test]
fn hot_swap_over_the_wire_and_corrupt_checkpoint_rejection() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let dir = scratch("hotswap");
    let server = start(serve_config(8, 30_000, FaultPlan::none()));
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let v1 = roundtrip(&mut client, r#"{"op":"predict","design":"spm","id":1}"#);
    assert_ok(&v1);
    let hash_v1 = get_str(&v1, "prediction_hash");
    assert_eq!(v1.get("snapshot_version").and_then(JsonValue::as_u64), Some(1));

    // Good checkpoint (different weights) hot-swaps to version 2.
    let good = tp_gnn::checkpoint::checkpoint_path(&dir, 3);
    checkpoint_with_seed(77, 3).write_atomic(&good).expect("write");
    let swapped = roundtrip(
        &mut client,
        &format!(r#"{{"op":"reload","path":"{}","id":2}}"#, good.display()),
    );
    assert_ok(&swapped);
    assert_eq!(swapped.get("snapshot_version").and_then(JsonValue::as_u64), Some(2));

    let v2 = roundtrip(&mut client, r#"{"op":"predict","design":"spm","id":3}"#);
    assert_ok(&v2);
    assert_eq!(v2.get("snapshot_version").and_then(JsonValue::as_u64), Some(2));
    let hash_v2 = get_str(&v2, "prediction_hash");
    assert_ne!(hash_v2, hash_v1, "new weights must change the prediction");

    // Corrupt checkpoint: rejected over the wire, version 2 keeps serving.
    let bad = tp_gnn::checkpoint::checkpoint_path(&dir, 4);
    let mut bytes = checkpoint_with_seed(5, 4).to_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xa5;
    std::fs::write(&bad, &bytes).expect("write corrupt");
    let rejected = roundtrip(
        &mut client,
        &format!(r#"{{"op":"reload","path":"{}","id":4}}"#, bad.display()),
    );
    assert_error(&rejected, "snapshot_rejected");

    let still = roundtrip(&mut client, r#"{"op":"predict","design":"spm","id":5}"#);
    assert_ok(&still);
    assert_eq!(still.get("snapshot_version").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(get_str(&still, "prediction_hash"), hash_v2);

    // A path that cannot be read at all degrades to the same structured
    // refusal — never a panic, never a torn snapshot swap.
    let unreadable = roundtrip(
        &mut client,
        r#"{"op":"reload","path":"/nonexistent/nope.tpck","id":6}"#,
    );
    assert_error(&unreadable, "snapshot_rejected");
    let alive = roundtrip(&mut client, r#"{"op":"predict","design":"spm","id":7}"#);
    assert_ok(&alive);
    assert_eq!(get_str(&alive, "prediction_hash"), hash_v2);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_drain_finishes_in_flight_work() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // Request 1 is slowed so it is still in flight when drain begins.
    let faults = FaultPlan::none().with_request_fault(1, RequestFault::Slow { ms: 300 });
    let server = start(serve_config(8, 30_000, faults));
    let addr = server.local_addr();

    let mut warm = Client::connect(addr).expect("connect");
    assert_ok(&roundtrip(&mut warm, r#"{"op":"ping"}"#));

    let inflight = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        roundtrip(&mut c, r#"{"op":"predict","design":"spm","id":9}"#)
    });
    std::thread::sleep(std::time::Duration::from_millis(100));

    // Drain while the slow predict is mid-handler: it must still complete
    // and its reply must reach the client.
    let report = server.shutdown();
    let slow_reply = inflight.join().expect("in-flight thread");
    assert_ok(&slow_reply);
    assert!(report.served >= 2, "in-flight request must finish: {report:?}");

    // The drained server refuses new connections entirely.
    assert!(
        Client::connect(addr).is_err() || {
            let mut c = Client::connect(addr).expect("connect");
            c.send(r#"{"op":"ping"}"#).map(|r| r.is_none()).unwrap_or(true)
        },
        "drained server must not serve new work"
    );
}

#[test]
fn shutdown_op_starts_draining_over_the_wire() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let server = start(serve_config(8, 30_000, FaultPlan::none()));
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let reply = roundtrip(&mut client, r#"{"op":"shutdown","id":1}"#);
    assert_ok(&reply);
    assert!(server.is_draining());
    // Requests that still arrive get a structured refusal (or the
    // connection closes under them — both are clean outcomes).
    if let Ok(Some(raw)) = client.send(r#"{"op":"ping","id":2}"#) {
        let v = tp_serve::json::parse(&raw).expect("reply JSON");
        assert_error(&v, "draining");
    }
    server.shutdown();
}

#[test]
fn dropped_and_corrupted_replies_are_survivable() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // Request 1 is dropped (connection closed, no reply); request 2 gets
    // a corrupted reply that still arrives as exactly one line.
    let faults = FaultPlan::none()
        .with_request_fault(1, RequestFault::Drop)
        .with_request_fault(2, RequestFault::CorruptReply { mutations: 6 });
    let server = start(serve_config(8, 30_000, faults));
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let baseline = roundtrip(&mut client, r#"{"op":"predict","design":"spm","id":1}"#);
    let hash = get_str(&baseline, "prediction_hash");

    // Dropped: the server closes the connection without replying.
    let dropped = client.send(r#"{"op":"predict","design":"spm","id":2}"#);
    assert!(matches!(dropped, Ok(None) | Err(_)), "got {dropped:?}");

    // Corrupted: exactly one garbled line comes back on a new connection.
    let mut c2 = Client::connect(addr).expect("connect");
    let garbled = c2
        .send(r#"{"op":"predict","design":"spm","id":3}"#)
        .expect("socket alive")
        .expect("one framed line even when corrupted");
    assert!(!garbled.contains('\n'));

    // The service itself is unharmed: the next request is pristine.
    let after = roundtrip(&mut c2, r#"{"op":"predict","design":"spm","id":4}"#);
    assert_ok(&after);
    assert_eq!(get_str(&after, "prediction_hash"), hash);

    let report = server.shutdown();
    assert_eq!(report.dropped, 1);
}

#[test]
fn restart_recovers_from_newest_valid_snapshot() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let dir = scratch("restart");
    // Epoch 1: valid. Epoch 2: torn mid-write (the crash artifact).
    checkpoint_with_seed(5, 1)
        .write_atomic(&tp_gnn::checkpoint::checkpoint_path(&dir, 1))
        .expect("write");
    let torn = checkpoint_with_seed(6, 2).to_bytes();
    std::fs::write(
        tp_gnn::checkpoint::checkpoint_path(&dir, 2),
        &torn[..torn.len() / 2],
    )
    .expect("write torn");

    let mut config = serve_config(8, 30_000, FaultPlan::none());
    config.snapshot_dir = Some(dir.clone());
    let server = start(config);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // `reload` with no path = recover from the snapshot dir; the torn
    // epoch-2 file must be skipped in favour of epoch 1.
    let recovered = roundtrip(&mut client, r#"{"op":"reload","id":1}"#);
    assert_ok(&recovered);
    assert_eq!(recovered.get("epoch").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(recovered.get("snapshot_version").and_then(JsonValue::as_u64), Some(2));

    // The recovered snapshot serves: same weights as a store that loaded
    // epoch 1 directly, so the prediction digest matches.
    let served = roundtrip(&mut client, r#"{"op":"predict","design":"spm","id":2}"#);
    assert_ok(&served);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
