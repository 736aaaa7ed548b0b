//! Crash-safe, fault-isolated, resumable scenario sweeps.
//!
//! A placement-stage exploration loop (the paper's use-case) never runs
//! one scenario — it sweeps a design suite across clock periods,
//! utilizations, scales, seeds, and STA corner sets, and such sweeps are
//! long enough that crashes, wedged cells, and pathological corners are
//! the normal case, not the exception. This crate is the driver that
//! makes those sweeps boring:
//!
//! - [`SweepGrid`] — the cartesian grid with a stable mixed-radix cell
//!   enumeration; cell indices are the coordinates everything else
//!   (journal, fault plans, resume) keys off.
//! - [`journal`] — an append-only, FNV-1a-checksummed progress journal
//!   (`sweep.tpsj`). A killed sweep resumes from its journaled prefix,
//!   and the resumed journal and report are **byte-identical** to an
//!   uninterrupted run's, at any `TP_THREADS`.
//! - [`run_sweep`] — wave-parallel execution over [`tp_par`] with
//!   per-cell panic isolation, bounded-exponential-backoff retries under
//!   fresh forked rng streams, quarantine on exhaustion, and an opt-in
//!   soft watchdog deadline calibrated by a [`tp_par::CostModel`] EWMA
//!   (`TP_CELL_DEADLINE_MS`).
//! - [`report`] — a deterministic `sweep_report.json`, a pure function of
//!   the journaled records.
//!
//! # Example
//!
//! ```no_run
//! use tp_scenarios::{ground_truth_evaluator, run_sweep, SweepConfig, SweepGrid};
//!
//! let library = tp_liberty::Library::synthetic_sky130(42);
//! let mut grid = SweepGrid::single("xtea", 0.02);
//! grid.seeds = (0..8).collect();
//! let outcome = run_sweep(
//!     &grid,
//!     &SweepConfig::from_env(),
//!     std::path::Path::new("results/scenarios/xtea"),
//!     ground_truth_evaluator(&library),
//! )
//! .expect("sweepable grid");
//! println!("{} cells journaled", outcome.records.len());
//! ```

pub mod engine;
pub mod grid;
pub mod journal;
pub mod report;
pub mod serve_eval;

pub use engine::{
    backoff_ms, ground_truth_evaluator, run_sweep, CellCtx, SweepConfig, SweepError, SweepOutcome,
    REPORT_FILE,
};
pub use grid::{CellSpec, CornerSet, GridError, SweepGrid};
pub use journal::{
    CellMetrics, CellRecord, CellStatus, Journal, JournalError, SweepHeader, JOURNAL_FILE,
};
pub use serve_eval::{
    metrics_from_slacks, prediction_evaluator, register_spec_for_cell, serve_evaluator,
};
