//! The sweep engine: wave scheduling, retry/backoff, quarantine, and the
//! soft watchdog.
//!
//! # Execution model
//!
//! Cells run in **waves**: the engine takes the next [`tp_par::threads()`]
//! cells in grid order, evaluates them concurrently via
//! [`tp_par::map_items`], then journals the wave's records *in cell
//! order*. The journaled set is therefore always a prefix of the grid
//! enumeration — the invariant behind the resume guarantee: a killed
//! sweep re-runs only the unjournaled suffix and its journal and report
//! end up byte-identical to an uninterrupted run, at any thread count.
//!
//! # Fault isolation
//!
//! Each attempt of each cell runs inside [`tp_par::catch_isolated`], so a
//! panicking evaluator (or an injected [`CellFault::Panic`]) poisons only
//! that attempt. Failed attempts — panics *and* non-finite metrics — are
//! retried up to [`SweepConfig::max_attempts`] times under bounded
//! exponential backoff with deterministic jitter, each retry on a **fresh
//! forked rng stream** (`root.fork(cell).fork(attempt)`), so a retry is a
//! genuinely different draw, not a replay of the failure. Cells that
//! exhaust their attempts are **quarantined**: journaled with zeroed
//! metrics and the last failure message, while the rest of the sweep
//! completes.
//!
//! # Watchdog deadlines
//!
//! With `TP_CELL_DEADLINE_MS` set, each cell gets a *soft* deadline —
//! `max(deadline, grace × predicted)` where `predicted` comes from a
//! [`CostModel`] EWMA over completed cells, so early cells calibrate the
//! deadline for later (larger) ones. Overrunning cells are not killed
//! (std threads cannot be), but are marked in their journal record, and
//! with [`SweepConfig::skip_siblings_on_deadline`] the overrun design's
//! remaining cells are skipped in later waves. Deadline marking depends
//! on wall clock and is therefore outside the bit-identity contract —
//! which is why it is opt-in.

use std::path::{Path, PathBuf};
use std::time::Instant;

use tp_gnn::{CellFault, FaultPlan};
use tp_par::CostModel;
use tp_rng::{seed_from_env, Rng, StdRng};

use crate::grid::{CellSpec, GridError, SweepGrid};
use crate::journal::{
    CellMetrics, CellRecord, CellStatus, Journal, JournalError, SweepHeader, JOURNAL_FILE,
};
use crate::report;

/// EWMA cost model sizing cell deadlines (ns per scaled node).
static CELL_COST: CostModel = CostModel::new("scenarios.cell", 400.0);

/// File name of the deterministic sweep report inside the output dir.
pub const REPORT_FILE: &str = "sweep_report.json";

/// Knobs governing one sweep run.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Root seed; forked per cell and per attempt (`TP_SEED`).
    pub seed: u64,
    /// Attempts per cell before quarantine (`TP_CELL_RETRIES`, min 1).
    pub max_attempts: u32,
    /// First retry's backoff, milliseconds (`TP_CELL_BACKOFF_MS`).
    pub backoff_base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub backoff_cap_ms: u64,
    /// Soft per-cell deadline, milliseconds (`TP_CELL_DEADLINE_MS`);
    /// `None` disables the watchdog.
    pub deadline_ms: Option<u64>,
    /// Multiplier on the cost model's predicted cell time: the effective
    /// deadline is `max(deadline_ms, grace × predicted)`, so calibration
    /// from completed cells keeps big cells from tripping a flat deadline.
    pub deadline_grace: f64,
    /// Skip a design's remaining cells (in later waves) once one of its
    /// cells overruns its deadline.
    pub skip_siblings_on_deadline: bool,
    /// Stop after journaling this many *new* cells — a clean simulated
    /// kill, used by the resume tests and `sweep_resume` example.
    pub cell_budget: Option<usize>,
    /// Deterministic fault injection (see [`FaultPlan::with_cell_fault`]).
    pub fault_plan: FaultPlan,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seed: 0,
            max_attempts: 3,
            backoff_base_ms: 10,
            backoff_cap_ms: 250,
            deadline_ms: None,
            deadline_grace: 4.0,
            skip_siblings_on_deadline: false,
            cell_budget: None,
            fault_plan: FaultPlan::none(),
        }
    }
}

fn env_u64(var: &str) -> Option<u64> {
    std::env::var(var).ok()?.trim().parse().ok()
}

impl SweepConfig {
    /// Reads `TP_SEED`, `TP_CELL_RETRIES`, `TP_CELL_BACKOFF_MS`, and
    /// `TP_CELL_DEADLINE_MS` on top of the defaults.
    pub fn from_env() -> SweepConfig {
        let base = SweepConfig::default();
        SweepConfig {
            seed: seed_from_env("TP_SEED", base.seed),
            max_attempts: env_u64("TP_CELL_RETRIES")
                .map_or(base.max_attempts, |v| (v as u32).max(1)),
            backoff_base_ms: env_u64("TP_CELL_BACKOFF_MS").unwrap_or(base.backoff_base_ms),
            deadline_ms: env_u64("TP_CELL_DEADLINE_MS"),
            ..base
        }
    }
}

/// Everything one evaluation attempt sees.
#[derive(Debug)]
pub struct CellCtx {
    /// The cell being evaluated.
    pub spec: CellSpec,
    /// 1-based attempt number (retries see 2, 3, …).
    pub attempt: u32,
    /// Fresh rng stream for this (cell, attempt):
    /// `root.fork(cell).fork(attempt)`.
    pub rng: StdRng,
}

/// Why a sweep could not run.
#[derive(Debug)]
pub enum SweepError {
    /// The grid failed validation.
    Grid(GridError),
    /// The journal could not be opened, resumed, or appended.
    Journal(JournalError),
    /// Output-directory or report I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Grid(e) => write!(f, "invalid sweep grid: {e}"),
            SweepError::Journal(e) => write!(f, "sweep journal failure: {e}"),
            SweepError::Io(e) => write!(f, "sweep i/o failure: {e}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Grid(e) => Some(e),
            SweepError::Journal(e) => Some(e),
            SweepError::Io(e) => Some(e),
        }
    }
}

impl From<GridError> for SweepError {
    fn from(e: GridError) -> Self {
        SweepError::Grid(e)
    }
}

impl From<JournalError> for SweepError {
    fn from(e: JournalError) -> Self {
        SweepError::Journal(e)
    }
}

impl From<std::io::Error> for SweepError {
    fn from(e: std::io::Error) -> Self {
        SweepError::Io(e)
    }
}

/// What [`run_sweep`] hands back.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Every journaled cell, in grid order (resumed + newly executed).
    pub records: Vec<CellRecord>,
    /// Cells recovered from an existing journal.
    pub resumed_cells: usize,
    /// Cells executed (and journaled) by this run.
    pub executed_cells: usize,
    /// Whether [`SweepConfig::cell_budget`] stopped the run before the
    /// grid was exhausted.
    pub stopped_early: bool,
    /// Path of the journal.
    pub journal_path: PathBuf,
    /// Path of the deterministic report.
    pub report_path: PathBuf,
}

impl SweepOutcome {
    /// Whether every grid cell is journaled.
    pub fn complete(&self) -> bool {
        !self.stopped_early
    }

    /// Count of records with the given status.
    pub fn count(&self, status: CellStatus) -> usize {
        self.records.iter().filter(|r| r.status == status).count()
    }
}

/// Deterministic backoff before retry `attempt` (the attempt about to
/// run, ≥ 2) of `cell`: exponential in the retry index, capped, with
/// jitter drawn from a dedicated fork of the root seed. A pure function
/// of `(config, cell, attempt)` — the schedule is part of the sweep's
/// reproducibility contract and tested as such.
pub fn backoff_ms(config: &SweepConfig, cell: u64, attempt: u32) -> u64 {
    debug_assert!(attempt >= 2);
    let exp = (attempt - 2).min(16);
    let base = config.backoff_base_ms.saturating_mul(1u64 << exp);
    let capped = base.min(config.backoff_cap_ms).max(1);
    // Jitter in [capped/2, capped]: bounded below so backoff stays a real
    // wait, bounded above so quarantine latency stays predictable.
    let mut rng = StdRng::seed_from_u64(config.seed)
        .fork(cell)
        .fork(0xB0FF_0000 | u64::from(attempt));
    let half = capped / 2;
    half + rng.gen_range(0..=capped - half)
}

/// Scaled-node size of a cell, the unit the deadline cost model bills in.
fn cell_units(spec: &CellSpec) -> u64 {
    let nodes = tp_gen::BenchmarkSpec::by_name(&spec.design)
        .map(|b| b.nodes)
        .unwrap_or(1);
    ((nodes as f64 * spec.scale) as u64).max(1)
}

/// Effective soft deadline for a cell of `units` scaled nodes, ns.
fn effective_deadline_ns(config: &SweepConfig, units: u64) -> Option<f64> {
    let floor_ns = config.deadline_ms? as f64 * 1e6;
    Some(floor_ns.max(config.deadline_grace * CELL_COST.predicted_ns(units)))
}

/// Runs every attempt of one cell. Pure with respect to the journal: the
/// caller decides whether the returned record gets committed.
fn run_cell<E>(spec: &CellSpec, config: &SweepConfig, eval: &E) -> CellRecord
where
    E: Fn(&mut CellCtx) -> CellMetrics + Sync,
{
    let units = cell_units(spec);
    let mut failure = String::new();
    let mut overrun = false;
    for attempt in 1..=config.max_attempts.max(1) {
        if attempt > 1 {
            std::thread::sleep(std::time::Duration::from_millis(backoff_ms(
                config, spec.cell, attempt,
            )));
            tp_obs::metrics::count("scenarios.retries", 1);
        }
        let _span = tp_obs::span!("scenarios.attempt", cell = spec.cell, attempt = attempt);
        let t0 = Instant::now();
        let result = tp_par::catch_isolated(|| {
            let mut ctx = CellCtx {
                spec: spec.clone(),
                attempt,
                rng: StdRng::seed_from_u64(config.seed)
                    .fork(spec.cell)
                    .fork(u64::from(attempt)),
            };
            match config.fault_plan.cell_fault(spec.cell, attempt) {
                Some(CellFault::Panic) => {
                    panic!("injected panic at cell {} attempt {attempt}", spec.cell)
                }
                Some(CellFault::Hang { ms }) => {
                    // An injected stall standing in for a wedged cell —
                    // the deadline path's test input.
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                    eval(&mut ctx)
                }
                Some(CellFault::NonFinite) => {
                    let mut m = eval(&mut ctx);
                    m.wns = f32::NAN;
                    m
                }
                None => eval(&mut ctx),
            }
        });
        let elapsed_ns = t0.elapsed().as_nanos() as u64;
        tp_obs::metrics::observe("scenarios.cell_ns", elapsed_ns);
        if let Some(deadline_ns) = effective_deadline_ns(config, units) {
            if (elapsed_ns as f64) > deadline_ns {
                overrun = true;
                tp_obs::metrics::count("scenarios.deadline_overruns", 1);
                tp_obs::event!("scenarios.deadline_overrun", cell = spec.cell);
            }
        }
        match result {
            Ok(m) if m.wns.is_finite() && m.tns.is_finite() && m.aux.is_finite() => {
                // Completed cells (even stalled ones) calibrate the model.
                CELL_COST.record(units, elapsed_ns);
                return CellRecord {
                    cell: spec.cell,
                    status: CellStatus::Completed,
                    attempts: attempt,
                    deadline_overrun: overrun,
                    metrics: m,
                    failure,
                };
            }
            Ok(_) => {
                failure = format!("non-finite metrics at attempt {attempt}");
            }
            Err(p) => {
                failure = format!("attempt {attempt} panicked: {}", p.message);
            }
        }
    }
    tp_obs::metrics::count("scenarios.quarantined", 1);
    tp_obs::event!("scenarios.quarantine", cell = spec.cell);
    CellRecord {
        cell: spec.cell,
        status: CellStatus::Quarantined,
        attempts: config.max_attempts.max(1),
        deadline_overrun: overrun,
        // Zeroed so quarantined records (and the report) stay finite and
        // bit-deterministic regardless of how the cell failed.
        metrics: CellMetrics::default(),
        failure,
    }
}

/// Runs (or resumes) the sweep of `grid` under `config`, journaling into
/// `out_dir/sweep.tpsj` and writing the deterministic report to
/// `out_dir/sweep_report.json`.
///
/// `eval` maps one [`CellCtx`] to [`CellMetrics`]; it may panic or return
/// non-finite metrics — both are retried then quarantined, never fatal to
/// the sweep.
///
/// # Errors
///
/// Grid validation failures, journal open/append failures (including a
/// journal from a different grid or seed), and output I/O failures.
pub fn run_sweep<E>(
    grid: &SweepGrid,
    config: &SweepConfig,
    out_dir: &Path,
    eval: E,
) -> Result<SweepOutcome, SweepError>
where
    E: Fn(&mut CellCtx) -> CellMetrics + Sync,
{
    grid.validate()?;
    std::fs::create_dir_all(out_dir)?;
    let total = grid.len();
    let header = SweepHeader {
        fingerprint: grid.fingerprint(config.seed),
        seed: config.seed,
        cells: total,
    };
    let journal_path = out_dir.join(JOURNAL_FILE);
    let (mut journal, mut records) = Journal::open(&journal_path, &header)?;
    // The engine only ever appends in grid order, so a journal that is not
    // a cell-index prefix was tampered with — refuse to resume it.
    for (i, rec) in records.iter().enumerate() {
        if rec.cell != i as u64 || rec.cell >= total {
            return Err(SweepError::Journal(JournalError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "journal is not a grid prefix at record {i} (cell {})",
                    rec.cell
                ),
            ))));
        }
    }
    let resumed_cells = records.len();
    let _sweep_span = tp_obs::span!("scenarios.sweep", cells = total, resumed = resumed_cells);

    let mut skipped_designs: std::collections::BTreeSet<String> = records
        .iter()
        .filter(|r| r.deadline_overrun)
        .filter(|_| config.skip_siblings_on_deadline)
        .map(|r| grid.cell(r.cell).design)
        .collect();

    let mut next = records.len() as u64;
    let mut executed = 0usize;
    let mut stopped_early = false;
    'waves: while next < total {
        let wave = tp_par::threads().max(1).min((total - next) as usize);
        let specs: Vec<CellSpec> = (0..wave).map(|i| grid.cell(next + i as u64)).collect();
        let skip_snapshot = &skipped_designs;
        let wave_records: Vec<CellRecord> = tp_par::map_items(wave, |i| {
            let spec = &specs[i];
            if skip_snapshot.contains(&spec.design) {
                tp_obs::metrics::count("scenarios.cells_skipped", 1);
                return CellRecord {
                    cell: spec.cell,
                    status: CellStatus::Skipped,
                    attempts: 0,
                    deadline_overrun: false,
                    metrics: CellMetrics::default(),
                    failure: format!("skipped: design {} overran its deadline", spec.design),
                };
            }
            run_cell(spec, config, &eval)
        });
        for rec in wave_records {
            if config.skip_siblings_on_deadline && rec.deadline_overrun {
                skipped_designs.insert(grid.cell(rec.cell).design);
            }
            journal.append(&rec)?;
            tp_obs::metrics::count("scenarios.cells", 1);
            records.push(rec);
            executed += 1;
            if config.cell_budget.is_some_and(|b| executed >= b) {
                stopped_early = records.len() < total as usize;
                break 'waves;
            }
        }
        next += wave as u64;
    }

    let report_path = out_dir.join(REPORT_FILE);
    report::write_report(&report_path, grid, config, &records)?;
    Ok(SweepOutcome {
        records,
        resumed_cells,
        executed_cells: executed,
        stopped_early,
        journal_path,
        report_path,
    })
}

/// The reference ground-truth evaluator: generate → place → route + STA,
/// reporting worst/total negative slack over the cell's corner set.
///
/// `library` is shared across cells (it is corner-complete); the cell's
/// `(design, scale, seed, utilization, clock period)` select the circuit,
/// placement, and timing constraint. Returns an evaluator suitable for
/// [`run_sweep`].
pub fn ground_truth_evaluator(
    library: &tp_liberty::Library,
) -> impl Fn(&mut CellCtx) -> CellMetrics + Sync + '_ {
    |ctx: &mut CellCtx| {
        let spec = tp_gen::BenchmarkSpec::by_name(&ctx.spec.design)
            .expect("grid validation guarantees known designs");
        let gen_cfg = tp_gen::GeneratorConfig {
            scale: ctx.spec.scale,
            seed: ctx.spec.seed,
            depth: None,
        };
        let circuit = tp_gen::generate(spec, library, &gen_cfg);
        let place_cfg = tp_place::PlacementConfig {
            utilization: ctx.spec.utilization,
            ..tp_place::PlacementConfig::default()
        };
        let placement = tp_place::place_circuit(&circuit, &place_cfg, ctx.spec.seed);
        let sta_cfg = tp_sta::StaConfig::default().with_clock_period(ctx.spec.clock_period_ns);
        let flow = tp_sta::flow::run_full_flow(&circuit, &placement, library, &sta_cfg);
        let report = &flow.report;
        let mut wns = f32::INFINITY;
        let mut tns = 0.0f32;
        for &ep in report.endpoints() {
            let worst = ctx.spec.corner_set.worst_slack(report.slack(ep));
            wns = wns.min(worst);
            if worst < 0.0 {
                tns += worst;
            }
        }
        if !wns.is_finite() {
            // A degenerate circuit with no endpoints has no slack to
            // report; zero keeps the record finite.
            wns = 0.0;
        }
        CellMetrics {
            wns,
            tns,
            aux: 0.0,
            pins: circuit.num_pins() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let config = SweepConfig {
            seed: 7,
            backoff_base_ms: 10,
            backoff_cap_ms: 250,
            ..SweepConfig::default()
        };
        for cell in [0u64, 3, 11] {
            let mut prev_cap = 0u64;
            for attempt in 2..=8u32 {
                let ms = backoff_ms(&config, cell, attempt);
                assert_eq!(ms, backoff_ms(&config, cell, attempt), "pure function");
                let exp = (attempt - 2).min(16);
                let cap = (config.backoff_base_ms << exp).min(config.backoff_cap_ms);
                assert!(
                    ms >= cap / 2 && ms <= cap,
                    "attempt {attempt}: {ms} vs cap {cap}"
                );
                assert!(cap >= prev_cap, "cap schedule is monotone");
                prev_cap = cap;
            }
        }
        // Different seeds shift the jitter.
        let other = SweepConfig {
            seed: 8,
            ..config.clone()
        };
        let differs = (2..=8u32).any(|a| backoff_ms(&config, 0, a) != backoff_ms(&other, 0, a));
        assert!(differs);
    }

    #[test]
    fn effective_deadline_blends_floor_and_prediction() {
        let config = SweepConfig {
            deadline_ms: Some(100),
            deadline_grace: 4.0,
            ..SweepConfig::default()
        };
        assert_eq!(effective_deadline_ns(&SweepConfig::default(), 10), None);
        let d = effective_deadline_ns(&config, 10).unwrap();
        assert!(d >= 100.0 * 1e6);
        // A huge cell's prediction dominates the flat floor.
        let big = effective_deadline_ns(&config, u64::MAX / 1000).unwrap();
        assert!(big > d);
    }

    #[test]
    fn config_from_env_reads_knobs() {
        // Env-var mutation: serialized by running in one test, restored after.
        let keep: Vec<(&str, Option<String>)> = [
            "TP_CELL_RETRIES",
            "TP_CELL_BACKOFF_MS",
            "TP_CELL_DEADLINE_MS",
        ]
        .into_iter()
        .map(|k| (k, std::env::var(k).ok()))
        .collect();
        std::env::set_var("TP_CELL_RETRIES", "5");
        std::env::set_var("TP_CELL_BACKOFF_MS", "2");
        std::env::set_var("TP_CELL_DEADLINE_MS", "1500");
        let cfg = SweepConfig::from_env();
        assert_eq!(cfg.max_attempts, 5);
        assert_eq!(cfg.backoff_base_ms, 2);
        assert_eq!(cfg.deadline_ms, Some(1500));
        for (k, v) in keep {
            match v {
                Some(v) => std::env::set_var(k, v),
                None => std::env::remove_var(k),
            }
        }
    }
}
