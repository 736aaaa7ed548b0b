//! `serve_eco`: an in-process `Server` (batching off) driven by two
//! closed-loop clients, one connection each, each owning one session it
//! registered over the wire. Both sessions hold usbf_device, so the second
//! registration is a design-cache hit and the two clients load the server
//! alike. Every iteration sends a `move_pins` ECO edit of 1–4 seeded pins,
//! then a `slack` read; every 16th adds a `predict`. Closed loop, because
//! the callers are placement loops that wait for each reply. ECO writes
//! (the incremental kernel) run next to reads (snapshot copy, digest,
//! render) on the same session layer.
//!
//! Every set-up repetition but the last runs in a child process of its
//! own: servers started one after another in one process leave freed
//! memory in per-thread allocator arenas, which would inflate this
//! process's peak RSS past what one server uses, and would let later
//! repetitions reuse pages a fresh process has to fault in.

use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tp_data::PinMove;
use tp_gnn::{IncrementalGnn, ModelConfig, TimingGnn};
use tp_serve::json::{self, JsonValue};
use tp_serve::{prediction_hash, register_line, Client, DesignRegistry, RegisterSpec};
use tp_serve::{ServeConfig, Server};

use crate::harness::{median, percentile, tail_percentile, timed, Outcome, Phase, SplitMix};
use crate::Settings;

/// The design every session holds.
const DESIGN: &str = "usbf_device";

/// The two sessions, one per client.
const SESSIONS: [&str; 2] = ["eco_a", "eco_b"];

/// Deadline floor. Registering a paper-scale design runs a full forward,
/// which takes longer than the 2 s default; requests in the measured loop
/// stay far below this floor.
const DEADLINE_MS: u64 = 60_000;

/// Every this many iterations a client adds a `predict`.
const PREDICT_EVERY: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Move,
    Slack,
    Predict,
}

/// One request as the client saw it.
struct Sample {
    kind: Kind,
    secs: f64,
    /// When the reply arrived.
    done: Instant,
    ok: bool,
    recomputed_rows: Option<u64>,
}

/// What one client knows about its design.
struct Lane {
    spec: RegisterSpec,
    pins: usize,
    die: (f32, f32),
    rng: SplitMix,
    /// Every move list the server accepted, in order.
    applied: Vec<Vec<PinMove>>,
    next_id: u64,
}

impl Lane {
    fn moves(&mut self) -> Vec<PinMove> {
        let k = 1 + self.rng.below(4) as usize;
        (0..k)
            .map(|_| PinMove {
                pin: self.rng.below(self.pins as u64) as usize,
                // Sixteenth-micron grid: exact in decimal, f64 and f32, so
                // the server parses back the very coordinate the twin uses.
                x: self.rng.below((self.die.0 * 16.0) as u64) as f32 / 16.0,
                y: self.rng.below((self.die.1 * 16.0) as u64) as f32 / 16.0,
            })
            .collect()
    }

    fn line(&mut self, op: &str, moves: Option<&[PinMove]>) -> String {
        self.next_id += 1;
        let mut line = format!(
            "{{\"id\":{},\"op\":\"{op}\",\"design\":\"{}\"",
            self.next_id, self.spec.name
        );
        if let Some(moves) = moves {
            let items: Vec<String> = moves
                .iter()
                .map(|m| format!("{{\"pin\":{},\"x\":{},\"y\":{}}}", m.pin, m.x, m.y))
                .collect();
            line.push_str(&format!(",\"moves\":[{}]", items.join(",")));
        }
        line.push('}');
        line
    }
}

fn parse_ok(reply: &std::io::Result<Option<String>>) -> Option<JsonValue> {
    let v = json::parse(reply.as_ref().ok()?.as_ref()?).ok()?;
    (v.get("ok").and_then(JsonValue::as_bool) == Some(true)).then_some(v)
}

/// Runs one client's closed loop until `until`.
fn client_loop(client: &mut Client, lane: &mut Lane, until: Instant) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut i = 0;
    while Instant::now() < until {
        let moves = lane.moves();
        let line = lane.line("move_pins", Some(&moves));
        let (secs, reply) = timed(|| client.send(&line));
        let v = parse_ok(&reply);
        if v.is_some() {
            lane.applied.push(moves);
        }
        samples.push(Sample {
            kind: Kind::Move,
            secs,
            done: Instant::now(),
            ok: v.is_some(),
            recomputed_rows: v.as_ref().and_then(|v| v.get("recomputed_rows")?.as_u64()),
        });
        let mut reads = vec![Kind::Slack];
        i += 1;
        if i % PREDICT_EVERY == 0 {
            reads.push(Kind::Predict);
        }
        for kind in reads {
            let line = lane.line(
                if kind == Kind::Slack {
                    "slack"
                } else {
                    "predict"
                },
                None,
            );
            let (secs, reply) = timed(|| client.send(&line));
            samples.push(Sample {
                kind,
                secs,
                done: Instant::now(),
                ok: parse_ok(&reply).is_some(),
                recomputed_rows: None,
            });
        }
    }
    samples
}

/// Runs both clients for `seconds`; returns the phase and every sample.
///
/// The phase's metrics come from the fastest quarter of its one-second
/// windows, ranked by requests completed. On a shared two-core host, other
/// tenants slow whole stretches of seconds by up to 1.5×; over the whole
/// run, throughput and percentiles move with how much of the run such a
/// stretch covered, while the least-contended windows measure the
/// program's own cost.
fn phase(clients: &mut [(Client, Lane)], seconds: f64) -> (Phase, Vec<Sample>) {
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|(c, lane)| scope.spawn(move || client_loop(c, lane, until)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let windows = (wall_s.floor() as usize).max(1);
    let width = wall_s / windows as f64;
    let window_of = |smp: &Sample| {
        let t = smp.done.duration_since(start).as_secs_f64();
        ((t / width) as usize).min(windows - 1)
    };
    let mut all: Vec<(usize, Sample)> = Vec::new();
    for ((_, lane), samples) in clients.iter().zip(per_client) {
        all.extend(samples.into_iter().map(|smp| (lane.pins, smp)));
    }
    let mut completed = vec![0usize; windows];
    for (_, smp) in &all {
        completed[window_of(smp)] += 1;
    }
    let mut ranked: Vec<usize> = (0..windows).collect();
    ranked.sort_by_key(|&w| std::cmp::Reverse(completed[w]));
    let mut fastest = vec![false; windows];
    for &w in &ranked[..windows.div_ceil(4)] {
        fastest[w] = true;
    }
    let mut phase = Phase {
        wall_s,
        busy_s: width * windows.div_ceil(4) as f64,
        concurrent: true,
        ..Phase::default()
    };
    for (pins, smp) in all.iter().filter(|(_, smp)| fastest[window_of(smp)]) {
        phase.pins += *pins as u64;
        phase.op_s.push(smp.secs);
    }
    (phase, all.into_iter().map(|(_, smp)| smp).collect())
}

fn spec(session: &str, s: &Settings) -> RegisterSpec {
    RegisterSpec {
        name: session.to_string(),
        design: DESIGN.to_string(),
        scale: s.serve_scale,
        // One field seeds both the generator and the placer on the
        // server, so the registered designs stay fixed and `--seed`
        // drives the ECO moves.
        seed: crate::NETLIST_SEED,
        utilization: 0.7,
        clock_period_ns: 2.0,
        depth: None,
    }
}

/// Starts a server and registers each session over the wire from its own
/// client, one after another. Returns the server, each client with the
/// `pins` its reply reported, and the registration seconds.
fn start(s: &Settings) -> (Server, Vec<(Client, Option<usize>)>, f64) {
    let config = ServeConfig {
        deadline_ms: DEADLINE_MS,
        ..ServeConfig::from_env(ModelConfig::default())
    };
    let server = Server::start(config, TimingGnn::new(&ModelConfig::default())).expect("bind");
    let addr: SocketAddr = server.local_addr();
    let (register_s, clients) = timed(|| {
        SESSIONS
            .iter()
            .map(|name| {
                let mut client = Client::connect(addr).expect("connect");
                let reply = client.send(&register_line(Some(0), &spec(name, s)));
                let pins = parse_ok(&reply)
                    .and_then(|v| v.get("pins")?.as_u64())
                    .map(|p| p as usize);
                (client, pins)
            })
            .collect()
    });
    (server, clients, register_s)
}

/// The child-process side of one set-up repetition, printed as
/// `setup <seconds> <register seconds>`.
pub fn setup_only(s: &Settings) {
    let (secs, (server, clients, reg)) = timed(|| start(s));
    drop(clients);
    let _ = server.shutdown();
    println!("setup {secs} {reg}");
}

/// Runs the workload.
pub fn run(s: &Settings) -> Outcome {
    tp_partition::set_partition_nodes(0);
    let mut out = Outcome::default();
    let mut register_s = Vec::new();
    let mut args = vec![
        "--serve-setup-only".to_string(),
        "--seed".into(),
        s.seed.to_string(),
    ];
    if s.tiny {
        args.push("--tiny".into());
    }
    for _ in 1..s.setup_reps {
        let child = Command::new(std::env::current_exe().expect("own executable"))
            .args(&args)
            .stdout(Stdio::piped())
            .output()
            .expect("run a set-up repetition");
        let text = String::from_utf8_lossy(&child.stdout);
        let f: Vec<f64> = text
            .split_whitespace()
            .skip(1)
            .filter_map(|w| w.parse().ok())
            .collect();
        let ran = child.status.success() && f.len() == 2;
        out.check("serve_eco set-up repetition ran", ran);
        if ran {
            out.setup_s.push(f[0]);
            register_s.push(f[1]);
        }
    }
    let (secs, (server, registered, reg)) = timed(|| start(s));
    out.setup_s.push(secs);
    register_s.push(reg);

    // The in-process twin: the same builds the server made.
    let registry = DesignRegistry::new(ServeConfig::from_env(ModelConfig::default()).lib_seed);
    let mut clients: Vec<(Client, Lane)> = Vec::new();
    for (i, ((client, pins), name)) in registered.into_iter().zip(SESSIONS).enumerate() {
        let spec = spec(name, s);
        let (cached, _, _) = registry.get_or_build(&spec).expect("twin build");
        out.check(
            format!("register {name}"),
            pins == Some(cached.design.num_pins),
        );
        let die = cached.placement.die();
        clients.push((
            client,
            Lane {
                pins: cached.design.num_pins,
                die: (die.width, die.height),
                rng: SplitMix::new(s.seed, i as u64 + 1),
                spec,
                applied: Vec::new(),
                next_id: 0,
            },
        ));
    }
    out.echo("designs", DESIGN);
    out.echo("sessions", SESSIONS.join(","));
    out.echo("scale", s.serve_scale);
    out.echo(
        "pins_per_op",
        clients
            .iter()
            .map(|(_, l)| l.pins.to_string())
            .collect::<Vec<_>>()
            .join(","),
    );
    out.echo("model", format!("{:?}", ModelConfig::default()));
    out.echo("clients", clients.len());
    out.echo("deadline_ms", DEADLINE_MS);
    out.echo("op", "one request: move_pins, slack or predict");

    let (warm, _) = timed(|| phase(&mut clients, s.serve_warmup));
    out.warmup_s = warm;

    let count = |out: &mut Outcome, samples: &[Sample]| {
        for smp in samples {
            out.check("serve_eco reply ok", smp.ok);
        }
    };
    let traced_samples;
    if s.trace {
        let (p, samples) = phase(&mut clients, s.seconds / 2.0);
        count(&mut out, &samples);
        out.untraced = p;
        tp_obs::reset();
        tp_obs::enable();
        let (p, samples) = phase(&mut clients, s.seconds / 2.0);
        tp_obs::disable();
        count(&mut out, &samples);
        out.traced = Some(p);
        traced_samples = samples;
    } else {
        let (p, samples) = phase(&mut clients, s.seconds);
        count(&mut out, &samples);
        out.untraced = p;
        traced_samples = Vec::new();
    }
    let data = tp_obs::drain();

    // Verification: each session's final prediction must equal a fresh
    // full forward on the twin with the same moves applied.
    let model = Arc::new(TimingGnn::new(&ModelConfig::default()));
    let mut twin_timings = None;
    for (client, lane) in &mut clients {
        let line = lane.line("predict", None);
        let served = parse_ok(&client.send(&line))
            .and_then(|v| v.get("prediction_hash")?.as_str().map(str::to_string));
        let (cached, _, _) = registry.get_or_build(&lane.spec).expect("twin build");
        let (mut design, mut placement, plan) = cached.instantiate();
        for moves in &lane.applied {
            design
                .apply_moves(&mut placement, moves)
                .expect("moves the server accepted");
        }
        let pred = tp_tensor::no_grad(|| model.forward(&design, &plan));
        let mut expect = format!("{:016x}", prediction_hash(&pred));
        if s.corrupt_reference {
            expect.replace_range(..1, if expect.starts_with('0') { "1" } else { "0" });
        }
        out.check(
            format!("serve_eco {} twin hash", lane.spec.name),
            served.as_deref() == Some(&*expect),
        );
        out.digests
            .push((format!("twin_prediction_hash.{}", lane.spec.name), expect));
        out.digests.push((
            format!("moves_applied.{}", lane.spec.name),
            lane.applied.len().to_string(),
        ));
        if s.trace && twin_timings.is_none() {
            // Read-path costs on an equal-size twin of the first design.
            let engine = IncrementalGnn::with_plan(Arc::clone(&model), design, placement, plan);
            let reps = 5;
            let mut hash_s = Vec::new();
            let mut copy_s = Vec::new();
            for _ in 0..reps {
                let (c, pred) = timed(|| engine.prediction());
                let (h, _) = timed(|| prediction_hash(&pred));
                copy_s.push(c);
                hash_s.push(h);
            }
            twin_timings = Some((median(&hash_s), median(&copy_s)));
        }
    }
    let report = server.shutdown();
    out.check("serve_eco no overloaded replies", report.overloaded == 0);
    out.check("serve_eco no deadline replies", report.timed_out == 0);
    out.check("serve_eco no panics", report.panicked == 0);

    if s.trace {
        let p50_ms = |kind: Kind| {
            let v: Vec<f64> = traced_samples
                .iter()
                .filter(|x| x.kind == kind)
                .map(|x| x.secs)
                .collect();
            1e3 * median(&v)
        };
        out.set("serve.move_pins_p50_ms", p50_ms(Kind::Move));
        out.set("serve.slack_p50_ms", p50_ms(Kind::Slack));
        out.set("serve.predict_p50_ms", p50_ms(Kind::Predict));
        let all: Vec<f64> = traced_samples.iter().map(|x| x.secs).collect();
        out.set(
            "serve.request_tail_ms",
            1e3 * percentile(&all, tail_percentile(all.len())),
        );
        // The handler histogram has power-of-two buckets, too coarse to
        // subtract from a client percentile; the wire share is taken from
        // the exact sums instead.
        let client_s: f64 = traced_samples.iter().map(|x| x.secs).sum();
        if let Some(h) = data.histogram("serve.request_ns") {
            out.set("serve.handler_p50_ms", h.p50 as f64 / 1e6);
            let handler_s = h.sum as f64 / 1e9;
            let n = traced_samples.len().max(1) as f64;
            out.set("serve.wire_mean_ms", 1e3 * (client_s - handler_s) / n);
            out.set(
                "wall.unaccounted_pct",
                100.0 * (1.0 - handler_s / client_s.max(f64::MIN_POSITIVE)),
            );
        }
        let rows: Vec<u64> = traced_samples
            .iter()
            .filter_map(|x| x.recomputed_rows)
            .collect();
        out.set(
            "serve.recomputed_rows_per_move",
            rows.iter().sum::<u64>() as f64 / rows.len().max(1) as f64,
        );
        if let Some((hash_s, copy_s)) = twin_timings {
            out.set("serve.prediction_hash_ms", 1e3 * hash_s);
            out.set("serve.session_prediction_ms", 1e3 * copy_s);
        }
        out.set("serve.register_s", median(&register_s));
        out.set("serve.overloaded", report.overloaded as f64);
        out.set("serve.timeouts", report.timed_out as f64);
    }
    out
}
