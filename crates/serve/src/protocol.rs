//! The JSONL wire protocol: one request object per line in, one reply
//! object per line out (DESIGN.md §10).
//!
//! Replies are rendered with `tp-obs`'s deterministic JSON emitters
//! (`escape`, `fmt_f64`); every `f32` is widened to `f64`, which
//! round-trips exactly — so the same session state always serializes to
//! the same reply **bytes**, and a client retrying after `overloaded` or
//! `deadline` can assert byte-identity.

use tp_data::PinMove;
use tp_obs::json::{escape, fmt_f64};

use crate::json::{self, JsonValue};

/// Structured error kinds a reply can carry (the `error` field).
pub mod error_kind {
    /// Unparseable or semantically invalid request.
    pub const BAD_REQUEST: &str = "bad_request";
    /// Admission control rejected the request (queue at capacity).
    pub const OVERLOADED: &str = "overloaded";
    /// The handler exceeded its deadline; the result was discarded.
    pub const DEADLINE: &str = "deadline";
    /// The handler panicked; the session was quarantined for rebuild.
    pub const PANIC: &str = "panic";
    /// The server is draining and accepts no new work.
    pub const DRAINING: &str = "draining";
    /// A hot-swap checkpoint failed validation; the old snapshot stays.
    pub const SNAPSHOT_REJECTED: &str = "snapshot_rejected";
    /// The named design has no registered session.
    pub const UNKNOWN_DESIGN: &str = "unknown_design";
}

/// A design specification shipped over the wire by the `register` op.
///
/// The server synthesizes the circuit, places it, runs the STA flow, and
/// builds the `DesignGraph` + levelized `PropPlan` from these parameters.
/// Everything except `name` participates in the content hash that keys
/// the server-side design cache, so two registrations with identical
/// parameters share one build.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisterSpec {
    /// Session name the design is registered under (defaults to `design`).
    pub name: String,
    /// Benchmark name (`tp_gen::BenchmarkSpec::by_name`).
    pub design: String,
    /// Size multiplier passed to the generator.
    pub scale: f64,
    /// Generator/placer seed.
    pub seed: u64,
    /// Placement utilization in `(0, 1]`.
    pub utilization: f32,
    /// Clock period for the STA flow, in nanoseconds.
    pub clock_period_ns: f32,
    /// Logic-depth override; `None` derives a depth from the design size.
    pub depth: Option<usize>,
}

/// One decoded request operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// List registered design sessions.
    ListDesigns,
    /// Predict for a design; replies with a digest (pin count, prediction
    /// hash, worst slacks) rather than full tensors.
    Predict {
        /// Registered design name.
        design: String,
    },
    /// Per-endpoint setup/hold slack arrays for a design.
    Slack {
        /// Registered design name.
        design: String,
    },
    /// Apply ECO pin moves and incrementally re-predict. Coordinates are
    /// absolute, so retrying after a timeout is idempotent.
    MovePins {
        /// Registered design name.
        design: String,
        /// The moves (absolute coordinates).
        moves: Vec<PinMove>,
    },
    /// Build (or fetch from the content-hash cache) a design on the
    /// server and register a session for it.
    Register {
        /// The design parameters.
        spec: RegisterSpec,
    },
    /// Hot-swap the model snapshot from a checkpoint file (`path`) or the
    /// newest valid checkpoint in the configured snapshot dir.
    Reload {
        /// Explicit checkpoint path; `None` = newest valid in dir.
        path: Option<String>,
    },
    /// Server counters and snapshot info.
    Stats,
    /// Begin draining: current requests finish, new ones are refused.
    Shutdown,
    /// Test-only: panic inside the handler (exercises panic isolation).
    DebugPanic {
        /// Session to hold locked while panicking, if any.
        design: Option<String>,
    },
}

/// A request plus its optional client-chosen correlation id (echoed in
/// the reply).
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Echoed verbatim as `"id"` when present.
    pub id: Option<u64>,
    /// The operation.
    pub request: Request,
}

fn required_str(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// Reads a required number field and narrows it to `f32`, rejecting
/// values that stop being finite after the cast. The JSON parser already
/// refuses non-finite `f64` literals, but a finite `f64` like `1e40`
/// still overflows `f32` to `inf` — without this check it would sail
/// into the session layer.
fn finite_f32(v: &JsonValue, key: &str) -> Result<f32, String> {
    let raw = v
        .get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing number {key:?}"))?;
    let narrowed = raw as f32;
    if !narrowed.is_finite() {
        return Err(format!("{key:?} = {raw:e} overflows f32"));
    }
    Ok(narrowed)
}

/// Like [`finite_f32`] but with a default when the field is absent.
/// Present-but-wrong-typed fields are rejected, not defaulted.
fn optional_finite_f32(v: &JsonValue, key: &str, default: f32) -> Result<f32, String> {
    match v.get(key) {
        None => Ok(default),
        Some(_) => finite_f32(v, key),
    }
}

/// Parses one request line. Any failure is a `bad_request` candidate —
/// the caller turns the message into a structured error reply.
pub fn parse_request(line: &str) -> Result<Envelope, String> {
    let v = json::parse(line)?;
    let id = v.get("id").and_then(JsonValue::as_u64);
    let op = v
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or("missing string field \"op\"")?;
    let request = match op {
        "ping" => Request::Ping,
        "list_designs" => Request::ListDesigns,
        "predict" => Request::Predict {
            design: required_str(&v, "design")?,
        },
        "slack" => Request::Slack {
            design: required_str(&v, "design")?,
        },
        "move_pins" => {
            let design = required_str(&v, "design")?;
            let items = v
                .get("moves")
                .and_then(JsonValue::as_array)
                .ok_or("missing array field \"moves\"")?;
            let mut moves = Vec::with_capacity(items.len());
            for (i, m) in items.iter().enumerate() {
                let pin = m
                    .get("pin")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("moves[{i}]: missing integer \"pin\""))?;
                let pin = usize::try_from(pin)
                    .map_err(|_| format!("moves[{i}]: pin index {pin} overflows usize"))?;
                let x = finite_f32(m, "x").map_err(|e| format!("moves[{i}]: {e}"))?;
                let y = finite_f32(m, "y").map_err(|e| format!("moves[{i}]: {e}"))?;
                moves.push(PinMove { pin, x, y });
            }
            Request::MovePins { design, moves }
        }
        "register" => {
            let design = required_str(&v, "design")?;
            let name = match v.get("name") {
                None => design.clone(),
                Some(n) => n
                    .as_str()
                    .map(str::to_string)
                    .ok_or("field \"name\" must be a string")?,
            };
            if name.is_empty() {
                return Err("field \"name\" must be non-empty".to_string());
            }
            let scale = match v.get("scale") {
                None => 0.01,
                Some(s) => s.as_f64().ok_or("field \"scale\" must be a number")?,
            };
            if !scale.is_finite() || scale <= 0.0 {
                return Err(format!("field \"scale\" must be > 0, got {scale}"));
            }
            let seed = match v.get("seed") {
                None => 0,
                Some(s) => s
                    .as_u64()
                    .ok_or("field \"seed\" must be a non-negative integer")?,
            };
            let utilization = optional_finite_f32(&v, "utilization", 0.7)?;
            // `optional_finite_f32` already rejected NaN/inf.
            if utilization <= 0.0 || utilization > 1.0 {
                return Err(format!(
                    "field \"utilization\" must be in (0, 1], got {utilization}"
                ));
            }
            let clock_period_ns = optional_finite_f32(&v, "clock_period_ns", 2.0)?;
            if clock_period_ns <= 0.0 {
                return Err(format!(
                    "field \"clock_period_ns\" must be > 0, got {clock_period_ns}"
                ));
            }
            let depth = match v.get("depth") {
                None => None,
                Some(d) => {
                    let d = d
                        .as_u64()
                        .ok_or("field \"depth\" must be a non-negative integer")?;
                    Some(
                        usize::try_from(d)
                            .map_err(|_| format!("field \"depth\" {d} overflows usize"))?,
                    )
                }
            };
            Request::Register {
                spec: RegisterSpec {
                    name,
                    design,
                    scale,
                    seed,
                    utilization,
                    clock_period_ns,
                    depth,
                },
            }
        }
        "reload" => Request::Reload {
            path: v
                .get("path")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
        },
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        "debug_panic" => Request::DebugPanic {
            design: v
                .get("design")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
        },
        other => return Err(format!("unknown op {other:?}")),
    };
    Ok(Envelope { id, request })
}

fn id_field(id: Option<u64>) -> String {
    match id {
        Some(id) => format!("\"id\":{id},"),
        None => String::new(),
    }
}

/// Builds a success reply: `{"id":…,"ok":true,<body>}`. `body` must be
/// zero or more pre-rendered `"key":value` pairs joined with commas.
pub fn ok_reply(id: Option<u64>, body: &str) -> String {
    if body.is_empty() {
        format!("{{{}\"ok\":true}}", id_field(id))
    } else {
        format!("{{{}\"ok\":true,{body}}}", id_field(id))
    }
}

/// Builds a structured error reply:
/// `{"id":…,"ok":false,"error":kind,"detail":…}`.
pub fn error_reply(id: Option<u64>, kind: &str, detail: &str) -> String {
    // `escape` renders a complete JSON string, quotes included.
    format!(
        "{{{}\"ok\":false,\"error\":{},\"detail\":{}}}",
        id_field(id),
        escape(kind),
        escape(detail)
    )
}

/// Renders a `register` request line for `spec` — the canonical client
/// side of the wire format (used by the scenarios serve evaluator and
/// tests so every producer emits identical bytes for identical specs).
pub fn register_line(id: Option<u64>, spec: &RegisterSpec) -> String {
    let mut line = String::from("{");
    line.push_str(&id_field(id));
    line.push_str("\"op\":\"register\",");
    line.push_str(&format!("\"name\":{},", escape(&spec.name)));
    line.push_str(&format!("\"design\":{},", escape(&spec.design)));
    line.push_str(&format!("\"scale\":{},", fmt_f64(spec.scale)));
    line.push_str(&format!("\"seed\":{},", spec.seed));
    line.push_str(&format!(
        "\"utilization\":{},",
        fmt_f64(f64::from(spec.utilization))
    ));
    line.push_str(&format!(
        "\"clock_period_ns\":{}",
        fmt_f64(f64::from(spec.clock_period_ns))
    ));
    if let Some(depth) = spec.depth {
        line.push_str(&format!(",\"depth\":{depth}"));
    }
    line.push('}');
    line
}

/// Renders a float array as a deterministic JSON array (each `f32`
/// widened exactly to `f64`).
pub fn f32_array(values: &[f32]) -> String {
    let mut out = String::with_capacity(values.len() * 8 + 2);
    out.push('[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&fmt_f64(f64::from(v)));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        let e = parse_request(r#"{"op":"ping","id":3}"#).expect("valid");
        assert_eq!(e.id, Some(3));
        assert_eq!(e.request, Request::Ping);
        let e = parse_request(r#"{"op":"predict","design":"usb"}"#).expect("valid");
        assert_eq!(
            e.request,
            Request::Predict {
                design: "usb".into()
            }
        );
        let e = parse_request(
            r#"{"op":"move_pins","design":"usb","moves":[{"pin":5,"x":1.0,"y":2.0}]}"#,
        )
        .expect("valid");
        match e.request {
            Request::MovePins { design, moves } => {
                assert_eq!(design, "usb");
                assert_eq!(
                    moves,
                    vec![PinMove {
                        pin: 5,
                        x: 1.0,
                        y: 2.0
                    }]
                );
            }
            other => panic!("wrong request: {other:?}"),
        }
        let e = parse_request(r#"{"op":"reload"}"#).expect("valid");
        assert_eq!(e.request, Request::Reload { path: None });
        for (line, want) in [
            (r#"{"op":"list_designs"}"#, Request::ListDesigns),
            (r#"{"op":"stats"}"#, Request::Stats),
            (r#"{"op":"shutdown"}"#, Request::Shutdown),
            (
                r#"{"op":"slack","design":"d"}"#,
                Request::Slack { design: "d".into() },
            ),
            (
                r#"{"op":"debug_panic"}"#,
                Request::DebugPanic { design: None },
            ),
        ] {
            assert_eq!(parse_request(line).expect("valid").request, want);
        }
    }

    #[test]
    fn rejects_bad_requests_with_messages() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"op":"warp"}"#,
            r#"{"op":"predict"}"#,
            r#"{"op":"move_pins","design":"d","moves":[{"pin":-1,"x":0,"y":0}]}"#,
            r#"{"op":"move_pins","design":"d","moves":[{"x":0,"y":0}]}"#,
            r#"{"op":"move_pins","design":"d"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn rejects_coordinates_that_overflow_f32() {
        // 1e40 is a perfectly finite f64 but narrows to f32::INFINITY;
        // before the fix it reached the session layer as an inf move.
        for bad in [
            r#"{"op":"move_pins","design":"d","moves":[{"pin":0,"x":1e40,"y":0}]}"#,
            r#"{"op":"move_pins","design":"d","moves":[{"pin":0,"x":0,"y":-1e39}]}"#,
        ] {
            let err = parse_request(bad).expect_err("overflowing coord must be rejected");
            assert!(
                err.contains("overflows f32"),
                "diagnostic names the cast: {err}"
            );
            assert!(
                err.contains("moves[0]"),
                "diagnostic names the index: {err}"
            );
        }
        // Values at the very edge of f32 still pass.
        let line = format!(
            r#"{{"op":"move_pins","design":"d","moves":[{{"pin":0,"x":{},"y":0}}]}}"#,
            f32::MAX
        );
        let e = parse_request(&line).expect("f32::MAX is representable");
        match e.request {
            Request::MovePins { moves, .. } => assert_eq!(moves[0].x, f32::MAX),
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn register_parses_defaults_and_validates_ranges() {
        let e = parse_request(r#"{"op":"register","design":"spm"}"#).expect("valid");
        match e.request {
            Request::Register { spec } => {
                assert_eq!(spec.name, "spm");
                assert_eq!(spec.design, "spm");
                assert_eq!(spec.scale, 0.01);
                assert_eq!(spec.seed, 0);
                assert_eq!(spec.utilization, 0.7);
                assert_eq!(spec.clock_period_ns, 2.0);
                assert_eq!(spec.depth, None);
            }
            other => panic!("wrong request: {other:?}"),
        }
        let e = parse_request(
            r#"{"op":"register","name":"c3","design":"usb","scale":0.02,"seed":7,"utilization":0.5,"clock_period_ns":1.5,"depth":6,"id":4}"#,
        )
        .expect("valid");
        assert_eq!(e.id, Some(4));
        match e.request {
            Request::Register { spec } => {
                assert_eq!(spec.name, "c3");
                assert_eq!(spec.design, "usb");
                assert_eq!(spec.scale, 0.02);
                assert_eq!(spec.seed, 7);
                assert_eq!(spec.utilization, 0.5);
                assert_eq!(spec.clock_period_ns, 1.5);
                assert_eq!(spec.depth, Some(6));
            }
            other => panic!("wrong request: {other:?}"),
        }
        for bad in [
            r#"{"op":"register"}"#,
            r#"{"op":"register","design":"spm","name":""}"#,
            r#"{"op":"register","design":"spm","scale":0}"#,
            r#"{"op":"register","design":"spm","scale":-0.5}"#,
            r#"{"op":"register","design":"spm","utilization":0}"#,
            r#"{"op":"register","design":"spm","utilization":1.5}"#,
            r#"{"op":"register","design":"spm","clock_period_ns":0}"#,
            r#"{"op":"register","design":"spm","clock_period_ns":1e40}"#,
            r#"{"op":"register","design":"spm","seed":-1}"#,
            r#"{"op":"register","design":"spm","depth":1.5}"#,
        ] {
            assert!(parse_request(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn register_rejects_a_seed_past_u64_max() {
        // 2^64 rounds to `u64::MAX as f64`; it used to build seed 2^64 - 1.
        let err = parse_request(r#"{"op":"register","design":"spm","seed":18446744073709551616}"#)
            .expect_err("seed 2^64 does not fit a u64");
        assert!(err.contains("seed"), "diagnostic names the field: {err}");
        let e = parse_request(r#"{"op":"register","design":"spm","seed":18446744073709549568}"#)
            .expect("the largest f64 below 2^64 is a valid seed");
        match e.request {
            Request::Register { spec } => assert_eq!(spec.seed, 18_446_744_073_709_549_568),
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn register_line_roundtrips_through_the_parser() {
        let spec = RegisterSpec {
            name: "c9".into(),
            design: "aes".into(),
            scale: 0.015,
            seed: 42,
            utilization: 0.65,
            clock_period_ns: 2.5,
            depth: Some(5),
        };
        let line = register_line(Some(11), &spec);
        tp_obs::json::validate(&line).expect("register line must be valid JSON");
        let e = parse_request(&line).expect("valid");
        assert_eq!(e.id, Some(11));
        assert_eq!(e.request, Request::Register { spec });
    }

    #[test]
    fn replies_are_valid_json() {
        for reply in [
            ok_reply(Some(9), "\"pong\":true"),
            ok_reply(None, ""),
            error_reply(Some(1), error_kind::DEADLINE, "elapsed 120ms > 100ms"),
            error_reply(None, error_kind::BAD_REQUEST, "weird \"quotes\"\n"),
            ok_reply(
                None,
                &format!("\"setup\":{}", f32_array(&[1.5, -0.25, f32::MIN_POSITIVE])),
            ),
        ] {
            tp_obs::json::validate(&reply).expect("reply must be valid JSON");
        }
    }

    #[test]
    fn f32_arrays_roundtrip_exactly() {
        let vals = [1.0f32, -0.333_333_34, 1e-30, 6.022_141e23];
        let rendered = f32_array(&vals);
        let parsed = crate::json::parse(&rendered).expect("valid");
        let arr = parsed.as_array().expect("array");
        for (v, p) in vals.iter().zip(arr) {
            assert_eq!(
                f64::from(*v),
                p.as_f64().expect("num"),
                "exact f32→f64 roundtrip"
            );
        }
    }
}
