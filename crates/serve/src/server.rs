//! The TCP/JSONL inference server.
//!
//! Thread-per-connection on `std::net`, with the heavy math fanning out
//! through `tp-par` inside the tensor kernels. Robustness machinery, in
//! request order:
//!
//! 1. **Backpressure** — an in-flight counter admits at most
//!    `queue_depth` concurrent requests; excess requests get an immediate
//!    structured `overloaded` reply instead of queuing unboundedly.
//! 2. **Panic isolation** — every handler runs under
//!    `tp_par::catch_isolated`; a panic becomes a `panic` error reply,
//!    the session it held is quarantined and lazily rebuilt, and every
//!    other connection keeps serving.
//! 3. **Deadlines** — each request gets
//!    `max(TP_REQ_DEADLINE_MS, grace × EWMA-predicted cost)` nanoseconds
//!    (a `tp_par::CostModel` learns the predicted cost); a handler that
//!    finishes late has its result discarded and replies `deadline`.
//!    Handlers are not preempted — ECO moves use absolute coordinates,
//!    so a timed-out `move_pins` is safe to retry.
//! 4. **Drain** — `shutdown()` stops the acceptor, refuses new requests
//!    with `draining`, lets in-flight handlers finish (or deadline out),
//!    joins every connection and flushes the tp-obs run manifest.
//!
//! Seeded [`FaultPlan`] request faults (drop / hang / corrupt-reply /
//! slow) make all four paths deterministically testable.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tp_data::DesignGraph;
use tp_gnn::checkpoint::fnv1a64;
use tp_gnn::{FaultPlan, ModelConfig, Prediction, RequestFault, TimingGnn};
use tp_obs::json::{escape, fmt_f64};
use tp_par::CostModel;
use tp_place::Placement;
use tp_rng::StdRng;

use crate::protocol::{self, error_kind, f32_array, Envelope, Request};
use crate::registry::DesignRegistry;
use crate::session::DesignSession;
use crate::snapshot::{SnapshotError, SnapshotStore};

/// EWMA cost model for one served request; feeds the adaptive deadline.
static REQUEST_COST: CostModel = CostModel::new("serve.request", 200_000.0);

/// Longest accepted request line, bytes.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Multiplier on the EWMA-predicted request cost when it exceeds the
/// configured floor — slow designs get proportionally longer deadlines.
const DEADLINE_GRACE: f64 = 8.0;

/// Server configuration (env-derived defaults via
/// [`ServeConfig::from_env`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`TP_SERVE_ADDR`, default `127.0.0.1:0`).
    pub addr: String,
    /// Admission limit on concurrent in-flight requests
    /// (`TP_SERVE_QUEUE`, default 32).
    pub queue_depth: usize,
    /// Per-request deadline floor in milliseconds
    /// (`TP_REQ_DEADLINE_MS`, default 2000). **0 disables deadlines
    /// entirely** — no EWMA floor is armed either; use for soak runs on
    /// slow boxes where wall-clock is meaningless.
    pub deadline_ms: u64,
    /// Seed for the synthetic library the `register` op builds designs
    /// against (`TP_SERVE_LIB_SEED`, default 0). Clients comparing
    /// against in-process builds must use the same seed.
    pub lib_seed: u64,
    /// Directory `reload` without a path loads the newest valid
    /// checkpoint from.
    pub snapshot_dir: Option<PathBuf>,
    /// Architecture every hot-swapped checkpoint must match.
    pub model_config: ModelConfig,
    /// Seeded request faults (tests only; [`FaultPlan::none`] in
    /// production).
    pub faults: FaultPlan,
    /// Seed for fault byte-corruption streams (forked per request index).
    pub fault_seed: u64,
    /// Where `shutdown()` writes the tp-obs run manifest (only when
    /// observability is enabled); `TP_SERVE_OBS_OUT`.
    pub obs_out: Option<PathBuf>,
}

impl ServeConfig {
    /// Reads `TP_SERVE_ADDR` / `TP_SERVE_QUEUE` / `TP_REQ_DEADLINE_MS`
    /// (0 = deadlines disabled) / `TP_SERVE_LIB_SEED` /
    /// `TP_SERVE_OBS_OUT`, with documented defaults.
    pub fn from_env(model_config: ModelConfig) -> ServeConfig {
        let parse_u64 = |var: &str, default: u64| {
            std::env::var(var)
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
                .unwrap_or(default)
        };
        ServeConfig {
            addr: std::env::var("TP_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:0".to_string()),
            queue_depth: parse_u64("TP_SERVE_QUEUE", 32).max(1) as usize,
            // 0 is meaningful (deadlines disabled), so no .max(1) floor.
            deadline_ms: parse_u64("TP_REQ_DEADLINE_MS", 2_000),
            lib_seed: parse_u64("TP_SERVE_LIB_SEED", 0),
            snapshot_dir: None,
            model_config,
            faults: FaultPlan::none(),
            fault_seed: 0,
            obs_out: std::env::var("TP_SERVE_OBS_OUT").ok().map(PathBuf::from),
        }
    }
}

/// Final accounting returned by [`Server::shutdown`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests that arrived (including refused ones).
    pub requests_total: u64,
    /// Requests answered with a success reply.
    pub served: u64,
    /// Requests refused by admission control.
    pub overloaded: u64,
    /// Requests whose result was discarded past the deadline.
    pub timed_out: u64,
    /// Requests whose handler panicked.
    pub panicked: u64,
    /// Connections the server closed mid-request (injected drops).
    pub dropped: u64,
}

#[derive(Debug, Default)]
struct Counters {
    requests_total: AtomicU64,
    served: AtomicU64,
    overloaded: AtomicU64,
    timed_out: AtomicU64,
    panicked: AtomicU64,
    dropped: AtomicU64,
}

struct SessionSlot {
    tainted: AtomicBool,
    /// Content hash of the wire `register` spec this session came from
    /// (`None` for in-process registrations). Write-once at creation, so
    /// `list_designs` and the re-registration fast path read it without
    /// taking the session lock.
    content_hash: Option<u64>,
    session: Mutex<DesignSession>,
}

struct ServerInner {
    config: ServeConfig,
    store: SnapshotStore,
    sessions: Mutex<BTreeMap<String, Arc<SessionSlot>>>,
    registry: DesignRegistry,
    inflight: AtomicUsize,
    draining: AtomicBool,
    counters: Counters,
}

/// A running server; dropping it (or calling [`Server::shutdown`]) drains
/// and joins every thread.
pub struct Server {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    started: Instant,
}

/// Locks a session slot, recovering from poisoning (a panicked handler
/// leaves the mutex poisoned; the slot's taint flag forces a rebuild, so
/// the possibly-inconsistent state behind the lock is never trusted).
fn lock_session(slot: &SessionSlot) -> MutexGuard<'_, DesignSession> {
    slot.session.lock().unwrap_or_else(|p| p.into_inner())
}

/// FNV-1a hash over the raw bits of every prediction tensor — a compact,
/// bit-exact digest two predictions can be compared through.
pub fn prediction_hash(pred: &Prediction) -> u64 {
    let mut bytes = Vec::new();
    for t in [&pred.arrival, &pred.slew, &pred.net_delay, &pred.cell_delay] {
        for v in t.to_vec() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

fn worst(values: &[f32]) -> f64 {
    values
        .iter()
        .copied()
        .min_by(f32::total_cmp)
        .map(f64::from)
        .unwrap_or(f64::NAN)
}

impl Server {
    /// Binds and starts serving with `initial` weights as snapshot v1.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors; a boot-weight serialization failure
    /// surfaces as `InvalidData` instead of a panic.
    pub fn start(config: ServeConfig, initial: TimingGnn) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let store = SnapshotStore::new(config.model_config.clone(), initial, "seed")
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let registry = DesignRegistry::new(config.lib_seed);
        let inner = Arc::new(ServerInner {
            config,
            store,
            sessions: Mutex::new(BTreeMap::new()),
            registry,
            inflight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            counters: Counters::default(),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::spawn(move || accept_loop(accept_inner, listener));
        Ok(Server {
            inner,
            addr,
            accept: Some(accept),
            started: Instant::now(),
        })
    }

    /// The bound address (use with `addr: "127.0.0.1:0"` to discover the
    /// ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Registers a design session (runs one full forward pass against the
    /// current snapshot). Replaces any session with the same name.
    pub fn register_design(&self, name: &str, design: DesignGraph, placement: Placement) {
        let snapshot = self.inner.store.current();
        let session = DesignSession::new(name, &snapshot, design, placement);
        let slot = Arc::new(SessionSlot {
            tainted: AtomicBool::new(false),
            content_hash: None,
            session: Mutex::new(session),
        });
        self.inner
            .sessions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(name.to_string(), slot);
    }

    /// The snapshot store (hot-swap without going through the wire).
    pub fn store(&self) -> &SnapshotStore {
        &self.inner.store
    }

    /// Whether the server is draining.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    /// Drains and joins everything: stop accepting, refuse new requests,
    /// let in-flight handlers finish or deadline out, then flush the
    /// tp-obs run manifest (when observability is on and `obs_out` is
    /// set).
    pub fn shutdown(mut self) -> DrainReport {
        self.drain();
        let report = self.report();
        if tp_obs::is_enabled() {
            if let Some(path) = self.inner.config.obs_out.clone() {
                let data = tp_obs::drain();
                let mut manifest = tp_obs::manifest::RunReport::from_obs(
                    "serve",
                    self.inner.config.fault_seed,
                    self.started.elapsed().as_nanos() as u64,
                    &data,
                );
                manifest
                    .config("addr", self.addr)
                    .config("queue_depth", self.inner.config.queue_depth)
                    .config("deadline_ms", self.inner.config.deadline_ms)
                    .config("requests_total", report.requests_total)
                    .config("served", report.served);
                let _ = manifest.write(&path);
            }
        }
        report
    }

    fn drain(&mut self) {
        self.inner.draining.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            if let Ok(conns) = accept.join() {
                for conn in conns {
                    let _ = conn.join();
                }
            }
        }
    }

    fn report(&self) -> DrainReport {
        let c = &self.inner.counters;
        DrainReport {
            requests_total: c.requests_total.load(Ordering::Relaxed),
            served: c.served.load(Ordering::Relaxed),
            overloaded: c.overloaded.load(Ordering::Relaxed),
            timed_out: c.timed_out.load(Ordering::Relaxed),
            panicked: c.panicked.load(Ordering::Relaxed),
            dropped: c.dropped.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

fn accept_loop(inner: Arc<ServerInner>, listener: TcpListener) -> Vec<JoinHandle<()>> {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if inner.draining.load(Ordering::Acquire) {
            return conns;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_inner = Arc::clone(&inner);
                conns.push(std::thread::spawn(move || {
                    connection_loop(conn_inner, stream);
                }));
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return conns,
        }
    }
}

enum Outcome {
    /// Write the reply line and keep the connection open.
    Reply(Vec<u8>),
    /// Close the connection without a reply (injected drop).
    Drop,
}

fn connection_loop(inner: Arc<ServerInner>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut acc: Vec<u8> = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        while let Some(nl) = acc.iter().position(|&b| b == b'\n') {
            let raw: Vec<u8> = acc.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&raw[..raw.len() - 1]);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match process_request(&inner, line) {
                Outcome::Reply(mut bytes) => {
                    bytes.push(b'\n');
                    if stream.write_all(&bytes).is_err() {
                        return;
                    }
                }
                Outcome::Drop => {
                    inner.counters.dropped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
        if acc.len() > MAX_LINE_BYTES {
            let reply =
                protocol::error_reply(None, error_kind::BAD_REQUEST, "request line too long");
            let _ = stream.write_all(reply.as_bytes());
            let _ = stream.write_all(b"\n");
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => acc.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle connections close during drain; a request already
                // being processed is past this point and finishes.
                if inner.draining.load(Ordering::Acquire) && acc.is_empty() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Decrements the in-flight gauge on every exit path.
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

fn target_design(request: &Request) -> Option<&str> {
    match request {
        Request::Predict { design }
        | Request::Slack { design }
        | Request::MovePins { design, .. } => Some(design),
        Request::Register { spec } => Some(&spec.name),
        Request::DebugPanic { design } => design.as_deref(),
        _ => None,
    }
}

fn process_request(inner: &ServerInner, line: &str) -> Outcome {
    let request_index = inner.counters.requests_total.fetch_add(1, Ordering::Relaxed);
    tp_obs::metrics::count("serve.requests", 1);
    let fault = inner.config.faults.request_fault(request_index);

    let envelope = match protocol::parse_request(line) {
        Ok(envelope) => envelope,
        Err(detail) => {
            tp_obs::metrics::count("serve.bad_requests", 1);
            return Outcome::Reply(
                protocol::error_reply(None, error_kind::BAD_REQUEST, &detail).into_bytes(),
            );
        }
    };
    let id = envelope.id;

    if inner.draining.load(Ordering::Acquire) {
        return Outcome::Reply(
            protocol::error_reply(id, error_kind::DRAINING, "server is draining").into_bytes(),
        );
    }

    if let Some(RequestFault::Drop) = fault {
        return Outcome::Drop;
    }

    // Admission control: the fetch_add reserves a slot; the guard frees it.
    let previous = inner.inflight.fetch_add(1, Ordering::AcqRel);
    let _slot = InflightGuard(&inner.inflight);
    if previous >= inner.config.queue_depth {
        inner.counters.overloaded.fetch_add(1, Ordering::Relaxed);
        tp_obs::metrics::count("serve.overloaded", 1);
        return Outcome::Reply(
            protocol::error_reply(
                id,
                error_kind::OVERLOADED,
                &format!("queue depth {} reached", inner.config.queue_depth),
            )
            .into_bytes(),
        );
    }

    // Adaptive deadline: configured floor, scaled up when the EWMA cost
    // model predicts slower requests. A floor of 0 disables deadlines
    // entirely (no EWMA floor either).
    let deadline_ns = if inner.config.deadline_ms == 0 {
        None
    } else {
        Some(
            (inner.config.deadline_ms.saturating_mul(1_000_000) as f64)
                .max(DEADLINE_GRACE * REQUEST_COST.predicted_ns(1)) as u64,
        )
    };

    let mut bytes = execute_envelope(inner, &envelope, fault, deadline_ns).into_bytes();
    if let Some(RequestFault::CorruptReply { mutations }) = fault {
        let mut rng = StdRng::seed_from_u64(inner.config.fault_seed).fork(request_index);
        tp_rng::prop::mutate_bytes(&mut rng, &mut bytes, mutations);
        // Preserve line framing so the client reads exactly one (garbled)
        // reply; the corruption stays in the payload.
        for b in bytes.iter_mut() {
            if *b == b'\n' || *b == b'\r' {
                *b = b'#';
            }
        }
        tp_obs::metrics::count("serve.corrupted_replies", 1);
    }
    Outcome::Reply(bytes)
}

/// Runs one request through the full per-request machinery — injected
/// sleep faults, panic isolation + session quarantine, EWMA cost
/// recording, deadline accounting — and renders the reply line. Only a
/// success reply delivered within the deadline counts as served.
fn execute_envelope(
    inner: &ServerInner,
    envelope: &Envelope,
    fault: Option<RequestFault>,
    deadline_ns: Option<u64>,
) -> String {
    let id = envelope.id;
    let start = Instant::now();
    let result = tp_par::catch_isolated(|| {
        match fault {
            Some(RequestFault::Hang { ms }) | Some(RequestFault::Slow { ms }) => {
                std::thread::sleep(Duration::from_millis(ms));
            }
            _ => {}
        }
        handle_request(inner, envelope)
    });
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    tp_obs::metrics::observe("serve.request_ns", elapsed_ns);

    match result {
        Err(panic) => {
            // Quarantine the session the handler may have been holding:
            // its caches (and possibly its poisoned lock) are rebuilt on
            // the next request that touches it.
            if let Some(name) = target_design(&envelope.request) {
                let sessions = inner.sessions.lock().unwrap_or_else(|p| p.into_inner());
                if let Some(slot) = sessions.get(name) {
                    slot.tainted.store(true, Ordering::Release);
                }
            }
            inner.counters.panicked.fetch_add(1, Ordering::Relaxed);
            tp_obs::metrics::count("serve.panics", 1);
            protocol::error_reply(id, error_kind::PANIC, &panic.message)
        }
        Ok(handled) => {
            REQUEST_COST.record(1, elapsed_ns);
            match (deadline_ns, handled) {
                (Some(deadline_ns), _) if elapsed_ns > deadline_ns => {
                    inner.counters.timed_out.fetch_add(1, Ordering::Relaxed);
                    tp_obs::metrics::count("serve.timeouts", 1);
                    protocol::error_reply(
                        id,
                        error_kind::DEADLINE,
                        &format!(
                            "elapsed {}ms > deadline {}ms (result discarded)",
                            elapsed_ns / 1_000_000,
                            deadline_ns / 1_000_000
                        ),
                    )
                }
                (_, Ok(reply)) => {
                    inner.counters.served.fetch_add(1, Ordering::Relaxed);
                    reply
                }
                (_, Err(reply)) => reply,
            }
        }
    }
}

fn with_session<R>(
    inner: &ServerInner,
    id: Option<u64>,
    name: &str,
    f: impl FnOnce(&mut DesignSession) -> R,
) -> Result<R, String> {
    let slot = {
        let sessions = inner.sessions.lock().unwrap_or_else(|p| p.into_inner());
        sessions.get(name).cloned()
    };
    let slot = match slot {
        Some(slot) => slot,
        None => {
            return Err(protocol::error_reply(
                id,
                error_kind::UNKNOWN_DESIGN,
                &format!("no session named {name:?}"),
            ))
        }
    };
    let mut session = lock_session(&slot);
    if slot.tainted.swap(false, Ordering::AcqRel) {
        session.taint();
    }
    session.ensure_current(&inner.store.current());
    Ok(f(&mut session))
}

/// Answers one request: `Ok` carries a success reply, `Err` an error
/// reply.
fn handle_request(inner: &ServerInner, envelope: &Envelope) -> Result<String, String> {
    let id = envelope.id;
    let _span = tp_obs::span!("serve_request");
    match &envelope.request {
        Request::Ping => Ok(protocol::ok_reply(id, "\"pong\":true")),
        Request::ListDesigns => {
            let sessions = inner.sessions.lock().unwrap_or_else(|p| p.into_inner());
            let mut names = Vec::with_capacity(sessions.len());
            let mut hashes = Vec::with_capacity(sessions.len());
            for (name, slot) in sessions.iter() {
                names.push(escape(name));
                hashes.push(match slot.content_hash {
                    Some(h) => format!("\"{h:016x}\""),
                    None => "null".to_string(),
                });
            }
            Ok(protocol::ok_reply(
                id,
                &format!(
                    "\"designs\":[{}],\"content_hashes\":[{}]",
                    names.join(","),
                    hashes.join(",")
                ),
            ))
        }
        Request::Predict { design } => with_session(inner, id, design, |session| {
            let pred = session.prediction();
            let setup = pred.endpoint_setup_slack(session.design());
            let hold = pred.endpoint_hold_slack(session.design());
            protocol::ok_reply(
                id,
                &format!(
                    "\"design\":{},\"pins\":{},\"prediction_hash\":\"{:016x}\",\"worst_setup_slack\":{},\"worst_hold_slack\":{},\"snapshot_version\":{}",
                    escape(design),
                    session.design().num_pins,
                    prediction_hash(&pred),
                    fmt_f64(worst(&setup)),
                    fmt_f64(worst(&hold)),
                    session.snapshot_version(),
                ),
            )
        }),
        Request::Slack { design } => with_session(inner, id, design, |session| {
            let pred = session.prediction();
            let setup = pred.endpoint_setup_slack(session.design());
            let hold = pred.endpoint_hold_slack(session.design());
            protocol::ok_reply(
                id,
                &format!(
                    "\"design\":{},\"endpoints\":{},\"prediction_hash\":\"{:016x}\",\"setup\":{},\"hold\":{}",
                    escape(design),
                    setup.len(),
                    prediction_hash(&pred),
                    f32_array(&setup),
                    f32_array(&hold),
                ),
            )
        }),
        Request::MovePins { design, moves } => with_session(inner, id, design, |session| {
            let stats = session
                .apply_moves(moves)
                .map_err(|e| protocol::error_reply(id, error_kind::BAD_REQUEST, &e.to_string()))?;
            let pred = session.prediction();
            Ok(protocol::ok_reply(
                id,
                &format!(
                    "\"design\":{},\"moved\":{},\"recomputed_rows\":{},\"changed_rows\":{},\"prediction_hash\":\"{:016x}\"",
                    escape(design),
                    stats.moved_pins,
                    stats.recomputed_total(),
                    stats.changed_embed_rows + stats.changed_state_rows,
                    prediction_hash(&pred),
                ),
            ))
        })?,
        Request::Register { spec } => {
            let hash = crate::registry::content_hash(spec);
            // Free re-registration: the name already serves this exact
            // content and is healthy, so nothing needs rebuilding.
            let reusable = {
                let sessions = inner.sessions.lock().unwrap_or_else(|p| p.into_inner());
                sessions.get(&spec.name).is_some_and(|slot| {
                    slot.content_hash == Some(hash) && !slot.tainted.load(Ordering::Acquire)
                })
            };
            if reusable {
                tp_obs::metrics::count("serve.design_cache_hits", 1);
                return with_session(inner, id, &spec.name, |session| {
                    protocol::ok_reply(
                        id,
                        &format!(
                            "\"design\":{},\"content_hash\":\"{hash:016x}\",\"cached\":true,\"pins\":{},\"snapshot_version\":{}",
                            escape(&spec.name),
                            session.design().num_pins,
                            session.snapshot_version(),
                        ),
                    )
                });
            }
            let (cached, hash, hit) = inner
                .registry
                .get_or_build(spec)
                .map_err(|detail| protocol::error_reply(id, error_kind::BAD_REQUEST, &detail))?;
            let snapshot = inner.store.current();
            let (design, placement, plan) = cached.instantiate();
            let session = DesignSession::with_plan(&spec.name, &snapshot, design, placement, plan);
            let pins = session.design().num_pins;
            let version = session.snapshot_version();
            let slot = Arc::new(SessionSlot {
                tainted: AtomicBool::new(false),
                content_hash: Some(hash),
                session: Mutex::new(session),
            });
            inner
                .sessions
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .insert(spec.name.clone(), slot);
            Ok(protocol::ok_reply(
                id,
                &format!(
                    "\"design\":{},\"content_hash\":\"{hash:016x}\",\"cached\":{hit},\"pins\":{pins},\"snapshot_version\":{version}",
                    escape(&spec.name),
                ),
            ))
        }
        Request::Reload { path } => {
            let loaded = match path {
                Some(p) => inner.store.load_checkpoint(Path::new(p)),
                None => match &inner.config.snapshot_dir {
                    Some(dir) => inner.store.load_latest(dir),
                    None => Err(SnapshotError::NoneFound(PathBuf::from(
                        "(no snapshot dir configured)",
                    ))),
                },
            };
            let snapshot = loaded.map_err(|e| {
                protocol::error_reply(id, error_kind::SNAPSHOT_REJECTED, &e.to_string())
            })?;
            Ok(protocol::ok_reply(
                id,
                &format!(
                    "\"snapshot_version\":{},\"epoch\":{},\"checksum\":\"{:016x}\",\"source\":{}",
                    snapshot.version,
                    snapshot.epoch,
                    snapshot.checksum,
                    escape(&snapshot.source),
                ),
            ))
        }
        Request::Stats => {
            let c = &inner.counters;
            let snapshot = inner.store.current();
            Ok(protocol::ok_reply(
                id,
                &format!(
                    "\"requests\":{},\"served\":{},\"overloaded\":{},\"timed_out\":{},\"panicked\":{},\"inflight\":{},\"snapshot_version\":{},\"snapshot_checksum\":\"{:016x}\"",
                    c.requests_total.load(Ordering::Relaxed),
                    c.served.load(Ordering::Relaxed),
                    c.overloaded.load(Ordering::Relaxed),
                    c.timed_out.load(Ordering::Relaxed),
                    c.panicked.load(Ordering::Relaxed),
                    inner.inflight.load(Ordering::Relaxed),
                    snapshot.version,
                    snapshot.checksum,
                ),
            ))
        }
        Request::Shutdown => {
            inner.draining.store(true, Ordering::Release);
            Ok(protocol::ok_reply(id, "\"draining\":true"))
        }
        Request::DebugPanic { design } => {
            if let Some(name) = design {
                // Panic while holding the session lock: exercises mutex
                // poisoning recovery plus taint-and-rebuild. An unknown
                // design is a plain error reply, no panic.
                let held: Result<(), String> = with_session(inner, id, name, |session| {
                    panic!("injected panic holding session {:?}", session.name());
                });
                held?;
            }
            panic!("injected panic");
        }
    }
}
