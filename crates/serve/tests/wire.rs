//! Wire-level contracts: concurrent replies must be **bit-identical** to
//! serial execution, and the `register` op builds and caches designs.
//!
//! Every test registers its designs over the wire (the `register` op —
//! no out-of-band `register_design` calls). The concurrency test captures
//! a serial baseline, then replays the identical request scripts from
//! concurrent clients. A concurrent reply that differs from its serial
//! twin by one byte — including the `prediction_hash` — is a test
//! failure.
//!
//! The server's `REQUEST_COST` EWMA and the tp-obs registry are
//! process-global, so tests serialize on a mutex.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Mutex;

use tp_gnn::{FaultPlan, ModelConfig, TimingGnn};
use tp_serve::{register_line, Client, JsonValue, RegisterSpec, ServeConfig, Server};

static SERIAL: Mutex<()> = Mutex::new(());

const DESIGNS: [&str; 3] = ["usb", "spm", "xtea"];

fn small_config() -> ModelConfig {
    ModelConfig {
        embed_dim: 4,
        prop_dim: 6,
        hidden: vec![8],
        seed: 1,
        ablation: Default::default(),
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth: 64,
        // Deadlines off: a slow concurrent request must never race a timer.
        deadline_ms: 0,
        snapshot_dir: None,
        lib_seed: 0,
        model_config: small_config(),
        faults: FaultPlan::none(),
        fault_seed: 42,
        obs_out: None,
    }
}

fn spec_for(design: &str) -> RegisterSpec {
    RegisterSpec {
        name: design.to_string(),
        design: design.to_string(),
        scale: 0.01,
        seed: 7,
        utilization: 0.7,
        clock_period_ns: 2.0,
        depth: None,
    }
}

fn parse(raw: &str) -> JsonValue {
    tp_serve::json::parse(raw).unwrap_or_else(|e| panic!("reply not JSON ({e}): {raw:?}"))
}

fn assert_ok(v: &JsonValue, what: &str) {
    assert_eq!(
        v.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "{what} failed: {v:?}"
    );
}

/// Boots a server and registers all three designs through the wire.
fn boot() -> Server {
    let config = serve_config();
    let model = TimingGnn::new(&config.model_config);
    let server = Server::start(config, model).expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for design in DESIGNS {
        let raw = client
            .send(&register_line(Some(1), &spec_for(design)))
            .expect("socket alive")
            .expect("server replied");
        assert_ok(&parse(&raw), &format!("register {design}"));
    }
    server
}

/// The per-design request script. `move_pins` uses absolute coordinates,
/// so the script's replies are a pure function of the design — the same
/// bytes whether it runs alone or interleaved with other designs.
fn script(design: &str) -> Vec<String> {
    vec![
        format!(r#"{{"op":"predict","design":"{design}","id":1}}"#),
        format!(r#"{{"op":"slack","design":"{design}","id":2}}"#),
        format!(
            r#"{{"op":"move_pins","design":"{design}","moves":[{{"pin":2,"x":8.5,"y":11.25}}],"id":3}}"#
        ),
        format!(r#"{{"op":"predict","design":"{design}","id":4}}"#),
        format!(r#"{{"op":"slack","design":"{design}","id":5}}"#),
    ]
}

fn run_script(addr: SocketAddr, design: &str) -> Vec<String> {
    let mut client = Client::connect(addr).expect("connect");
    script(design)
        .iter()
        .map(|line| {
            client
                .send(line)
                .expect("socket alive")
                .expect("server replied")
        })
        .collect()
}

/// Serial reference: one client, one design at a time.
fn serial_baseline() -> BTreeMap<String, Vec<String>> {
    let server = boot();
    let addr = server.local_addr();
    let replies = DESIGNS
        .iter()
        .map(|d| (d.to_string(), run_script(addr, d)))
        .collect();
    let report = server.shutdown();
    assert_eq!(report.panicked, 0);
    replies
}

#[test]
fn concurrent_replies_are_bit_identical_to_serial() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let baseline = serial_baseline();

    let server = boot();
    let addr = server.local_addr();

    // Phase A: one concurrent client per design replays its script.
    let concurrent: Vec<(String, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = DESIGNS
            .iter()
            .map(|d| s.spawn(move || (d.to_string(), run_script(addr, d))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for (design, replies) in &concurrent {
        assert_eq!(
            replies, &baseline[design],
            "concurrent replies for {design} diverged from serial"
        );
    }

    // Phase B: a read storm — three clients per design hammer the
    // post-move state with idempotent predict/slack queries. Every
    // reply must match the serial post-move bytes.
    let post_move: BTreeMap<&str, (&String, &String)> = DESIGNS
        .iter()
        .map(|&d| (d, (&baseline[d][3], &baseline[d][4])))
        .collect();
    std::thread::scope(|s| {
        for &design in &DESIGNS {
            let (predict_ref, slack_ref) = post_move[design];
            for j in 0..3u64 {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    // Distinct ids per client: each reply must carry its
                    // own request's id, byte-equal to what a serial run
                    // renders under that id.
                    let (pid, sid) = (400 + j, 500 + j);
                    let expect_p = predict_ref.replacen("\"id\":4,", &format!("\"id\":{pid},"), 1);
                    let expect_s = slack_ref.replacen("\"id\":5,", &format!("\"id\":{sid},"), 1);
                    for _ in 0..2 {
                        let p = client
                            .send(&format!(
                                r#"{{"op":"predict","design":"{design}","id":{pid}}}"#
                            ))
                            .expect("socket alive")
                            .expect("server replied");
                        assert_eq!(p, expect_p);
                        let sl = client
                            .send(&format!(
                                r#"{{"op":"slack","design":"{design}","id":{sid}}}"#
                            ))
                            .expect("socket alive")
                            .expect("server replied");
                        assert_eq!(sl, expect_s);
                    }
                });
            }
        }
    });

    let report = server.shutdown();
    assert_eq!(report.panicked, 0);
    assert_eq!(report.timed_out, 0, "deadlines are disabled");
}

#[test]
fn register_round_trips_and_caches_over_the_wire() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    tp_obs::reset();
    tp_obs::enable();

    let config = serve_config();
    let model = TimingGnn::new(&config.model_config);
    let server = Server::start(config, model).expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // First registration: a cold build.
    let spec = spec_for("spm");
    let first = parse(
        &client
            .send(&register_line(Some(1), &spec))
            .expect("socket alive")
            .expect("server replied"),
    );
    assert_ok(&first, "register");
    assert_eq!(
        first.get("cached").and_then(JsonValue::as_bool),
        Some(false)
    );
    let hash = first
        .get("content_hash")
        .and_then(JsonValue::as_str)
        .expect("content_hash in register reply")
        .to_string();
    let pins = first.get("pins").and_then(JsonValue::as_u64).expect("pins");
    assert!(pins > 0);

    // Re-registering the same name+content is a pure cache hit.
    let second = parse(
        &client
            .send(&register_line(Some(2), &spec))
            .expect("socket alive")
            .expect("server replied"),
    );
    assert_ok(&second, "re-register");
    assert_eq!(
        second.get("cached").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(
        second.get("content_hash").and_then(JsonValue::as_str),
        Some(hash.as_str())
    );

    // A different session name with identical parameters shares the
    // cached build: same content hash, still a hit.
    let alias = RegisterSpec {
        name: "spm-alias".to_string(),
        ..spec.clone()
    };
    let aliased = parse(
        &client
            .send(&register_line(Some(3), &alias))
            .expect("socket alive")
            .expect("server replied"),
    );
    assert_ok(&aliased, "aliased register");
    assert_eq!(
        aliased.get("cached").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(
        aliased.get("content_hash").and_then(JsonValue::as_str),
        Some(hash.as_str())
    );

    // Different parameters → different hash, fresh build.
    let retimed = RegisterSpec {
        name: "spm-fast".to_string(),
        clock_period_ns: 1.25,
        ..spec.clone()
    };
    let rebuilt = parse(
        &client
            .send(&register_line(Some(4), &retimed))
            .expect("socket alive")
            .expect("server replied"),
    );
    assert_ok(&rebuilt, "retimed register");
    assert_eq!(
        rebuilt.get("cached").and_then(JsonValue::as_bool),
        Some(false)
    );
    assert_ne!(
        rebuilt.get("content_hash").and_then(JsonValue::as_str),
        Some(hash.as_str())
    );

    // Registered sessions serve immediately and report their hash.
    let listed = parse(
        &client
            .send(r#"{"op":"list_designs","id":5}"#)
            .expect("socket alive")
            .expect("server replied"),
    );
    assert_ok(&listed, "list_designs");
    let names: Vec<String> = listed
        .get("designs")
        .and_then(JsonValue::as_array)
        .expect("designs array")
        .iter()
        .map(|v| v.as_str().expect("design name").to_string())
        .collect();
    let hashes: Vec<Option<String>> = listed
        .get("content_hashes")
        .and_then(JsonValue::as_array)
        .expect("content_hashes array")
        .iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect();
    assert_eq!(names.len(), hashes.len(), "aligned arrays");
    let by_name: BTreeMap<&str, &Option<String>> = names
        .iter()
        .map(String::as_str)
        .zip(hashes.iter())
        .collect();
    assert_eq!(by_name["spm"].as_deref(), Some(hash.as_str()));
    assert_eq!(by_name["spm-alias"].as_deref(), Some(hash.as_str()));
    assert!(by_name["spm-fast"].is_some());

    let predicted = parse(
        &client
            .send(r#"{"op":"predict","design":"spm-alias","id":6}"#)
            .expect("socket alive")
            .expect("server replied"),
    );
    assert_ok(&predicted, "predict on aliased session");

    // Invalid specs are structured refusals, not panics.
    for bad in [
        r#"{"op":"register","design":"not-a-benchmark","id":7}"#,
        r#"{"op":"register","design":"spm","utilization":1.5,"id":8}"#,
        r#"{"op":"register","design":"spm","scale":0,"id":9}"#,
    ] {
        let refused = parse(
            &client
                .send(bad)
                .expect("socket alive")
                .expect("server replied"),
        );
        assert_eq!(
            refused.get("ok").and_then(JsonValue::as_bool),
            Some(false),
            "{bad} must be refused"
        );
        assert_eq!(
            refused.get("error").and_then(JsonValue::as_str),
            Some("bad_request"),
            "{bad} must be a bad_request"
        );
    }

    let report = server.shutdown();
    assert_eq!(report.panicked, 0);

    let data = tp_obs::drain();
    tp_obs::disable();
    // spm cold build + retimed cold build = 2 misses; re-register (name
    // fast path) + alias (registry hit) = 2 hits.
    assert_eq!(data.counter_value("serve.design_cache_misses"), 2);
    assert_eq!(data.counter_value("serve.design_cache_hits"), 2);
}
