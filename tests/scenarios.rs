//! Tier-1 contract of the scenario sweep engine (`tp-scenarios`):
//!
//! 1. **Crash safety** — a sweep killed at an arbitrary journal point
//!    (clean cell boundary *or* torn mid-record write) resumes to a
//!    journal and report **byte-identical** to an uninterrupted run's, at
//!    1 and 4 threads.
//! 2. **Fault isolation** — a poisoned cell (persistent panic or
//!    non-finite metrics) is retried, then quarantined with zeroed
//!    metrics, while every other cell completes.
//! 3. **Determinism** — the retry/backoff schedule and every journaled
//!    byte are a pure function of `TP_SEED`, independent of thread count.

use std::path::PathBuf;

use timing_predict::gnn::{CellFault, FaultPlan};
use timing_predict::liberty::Library;
use timing_predict::rng::{seed_from_env, Rng, StdRng};
use timing_predict::scenarios::{
    backoff_ms, ground_truth_evaluator, run_sweep, CellCtx, CellMetrics, CellStatus, CornerSet,
    SweepConfig, SweepGrid, JOURNAL_FILE, REPORT_FILE,
};

/// Serializes the tests that flip the global `tp_par::set_threads`
/// override, so each one's "N threads" run really uses N threads.
/// Poison-tolerant: a panicked holder must not cascade into the others.
fn threads_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tp-scenarios-test-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// 2 designs × 2 clock periods × 2 seeds = 8 cells of the real flow.
fn flow_grid() -> SweepGrid {
    let mut grid = SweepGrid::single("usb", 0.02);
    grid.designs = vec!["usb".into(), "spm".into()];
    grid.clock_periods_ns = vec![1.5, 2.0];
    grid.seeds = vec![0, 1];
    grid
}

/// 2 designs × 2 clock periods × 3 seeds = 12 cheap synthetic cells.
fn synthetic_grid() -> SweepGrid {
    let mut grid = SweepGrid::single("usb", 0.02);
    grid.designs = vec!["usb".into(), "spm".into()];
    grid.clock_periods_ns = vec![1.5, 2.0];
    grid.seeds = vec![0, 1, 2];
    grid.corner_sets = vec![CornerSet::Late];
    grid
}

/// Millisecond-scale backoff so fault tests stay fast.
fn fast_config(seed: u64) -> SweepConfig {
    SweepConfig {
        seed,
        backoff_base_ms: 1,
        backoff_cap_ms: 2,
        ..SweepConfig::default()
    }
}

/// A cheap deterministic evaluator: metrics are a pure function of the
/// cell's forked rng stream, and `aux` records the attempt that
/// succeeded (retries run under fresh streams, so this is observable).
fn synthetic_eval(ctx: &mut CellCtx) -> CellMetrics {
    let draw = (ctx.rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
    CellMetrics {
        wns: 0.25 - draw,
        tns: -draw,
        aux: ctx.attempt as f32,
        pins: ctx.spec.cell + 1,
    }
}

fn artifacts(dir: &std::path::Path) -> (Vec<u8>, Vec<u8>) {
    (
        std::fs::read(dir.join(JOURNAL_FILE)).expect("journal exists"),
        std::fs::read(dir.join(REPORT_FILE)).expect("report exists"),
    )
}

/// The tentpole acceptance test: kill the sweep at a seeded-random
/// journal point — sometimes on a clean cell boundary, sometimes with a
/// torn partial record on top — resume it, and require the resumed
/// journal *and* report bytes to equal an uninterrupted run's. The
/// reference is computed once at 1 thread; resumed runs at 1 and 4
/// threads must both match it, which also proves thread count never
/// leaks into the artifacts.
#[test]
fn kill_at_random_journal_point_resumes_bit_identical() {
    let _guard = threads_lock();
    let seed = seed_from_env("TP_SEED", 42);
    let library = Library::synthetic_sky130(42);
    let grid = flow_grid();
    let total = grid.len();
    let config = SweepConfig {
        seed,
        ..SweepConfig::default()
    };

    timing_predict::par::set_threads(1);
    let ref_dir = scratch("resume-reference");
    let reference = run_sweep(&grid, &config, &ref_dir, ground_truth_evaluator(&library))
        .expect("reference sweep");
    assert!(reference.complete());
    assert_eq!(reference.records.len() as u64, total);
    let (ref_journal, ref_report) = artifacts(&ref_dir);

    let mut kill_rng = StdRng::seed_from_u64(seed).fork(0x417);
    for threads in [1usize, 4] {
        timing_predict::par::set_threads(threads);
        for trial in 0..3u32 {
            let dir = scratch(&format!("resume-t{threads}-{trial}"));
            // Kill after a random number of journaled cells…
            let budget = kill_rng.gen_range(1..total) as usize;
            let killed = run_sweep(
                &grid,
                &SweepConfig {
                    cell_budget: Some(budget),
                    ..config.clone()
                },
                &dir,
                ground_truth_evaluator(&library),
            )
            .expect("killed sweep");
            assert!(killed.stopped_early);
            assert_eq!(killed.records.len(), budget);
            // …and on odd trials also tear the last record's bytes, the
            // way a mid-write SIGKILL would.
            if trial % 2 == 1 {
                let journal_path = dir.join(JOURNAL_FILE);
                let bytes = std::fs::read(&journal_path).unwrap();
                let chop = kill_rng.gen_range(1..40u64) as usize;
                std::fs::write(&journal_path, &bytes[..bytes.len().saturating_sub(chop)]).unwrap();
            }
            let resumed = run_sweep(&grid, &config, &dir, ground_truth_evaluator(&library))
                .expect("resumed sweep");
            assert!(resumed.complete());
            assert!(
                resumed.resumed_cells < total as usize,
                "the kill must leave work to resume"
            );
            assert!(resumed.executed_cells > 0);
            let (journal, report) = artifacts(&dir);
            assert_eq!(
                journal, ref_journal,
                "journal bytes diverged (threads={threads}, trial={trial})"
            );
            assert_eq!(
                report, ref_report,
                "report bytes diverged (threads={threads}, trial={trial})"
            );
        }
    }
    timing_predict::par::set_threads(0);
}

/// Fault isolation: a persistently panicking cell and a persistently
/// NaN-returning cell burn their retries and are quarantined with zeroed
/// metrics; a transiently faulty cell recovers on retry; every healthy
/// cell completes untouched.
#[test]
fn poisoned_cells_are_quarantined_while_the_rest_complete() {
    let seed = seed_from_env("TP_SEED", 42);
    let grid = synthetic_grid();
    let config = SweepConfig {
        fault_plan: FaultPlan::none()
            .with_cell_fault(5, CellFault::Panic, u32::MAX)
            .with_cell_fault(8, CellFault::NonFinite, u32::MAX)
            .with_cell_fault(2, CellFault::Panic, 1),
        ..fast_config(seed)
    };
    let dir = scratch("quarantine");
    let outcome = run_sweep(&grid, &config, &dir, synthetic_eval).expect("sweep");
    assert!(outcome.complete());
    assert_eq!(outcome.records.len() as u64, grid.len());
    assert_eq!(outcome.count(CellStatus::Quarantined), 2);
    assert_eq!(outcome.count(CellStatus::Completed), 10);

    for rec in &outcome.records {
        match rec.cell {
            5 => {
                assert_eq!(rec.status, CellStatus::Quarantined);
                assert_eq!(rec.attempts, config.max_attempts);
                assert!(rec.failure.contains("injected panic at cell 5"));
                assert_eq!(rec.metrics, CellMetrics::default(), "zeroed metrics");
            }
            8 => {
                assert_eq!(rec.status, CellStatus::Quarantined);
                assert_eq!(rec.attempts, config.max_attempts);
                assert!(rec.failure.contains("non-finite metrics"));
                assert_eq!(rec.metrics, CellMetrics::default());
            }
            2 => {
                // Transient: the first retry ran clean on a fresh stream.
                assert_eq!(rec.status, CellStatus::Completed);
                assert_eq!(rec.attempts, 2);
                assert_eq!(rec.metrics.aux, 2.0);
                assert!(rec.failure.contains("attempt 1 panicked"));
            }
            _ => {
                assert_eq!(rec.status, CellStatus::Completed, "cell {}", rec.cell);
                assert_eq!(rec.attempts, 1);
                assert_eq!(rec.metrics.aux, 1.0);
                assert!(rec.failure.is_empty());
            }
        }
    }
    // The quarantine is journaled: a resume sees it and re-runs nothing.
    let resumed = run_sweep(&grid, &config, &dir, synthetic_eval).expect("resume");
    assert_eq!(resumed.resumed_cells as u64, grid.len());
    assert_eq!(resumed.executed_cells, 0);
}

/// Watchdog: an injected hang overruns its (deliberately tiny) soft
/// deadline; the overrun is marked in the journal, and with sibling
/// skipping enabled the hung design's later cells are skipped while the
/// other design still completes.
#[test]
fn deadline_overrun_is_marked_and_skips_siblings() {
    // Pin the wave width: with one wave covering the whole grid there
    // would be no "later waves" left to skip.
    let _guard = threads_lock();
    timing_predict::par::set_threads(2);
    let seed = seed_from_env("TP_SEED", 42);
    let grid = synthetic_grid(); // cells 0..6 = usb, 6..12 = spm
    let config = SweepConfig {
        // 60 ms hang against a 1 ms flat deadline (grace 0 disables the
        // cost-model term, keeping the trip wire machine-independent).
        fault_plan: FaultPlan::hang_at_cell([6], 60),
        deadline_ms: Some(1),
        deadline_grace: 0.0,
        skip_siblings_on_deadline: true,
        ..fast_config(seed)
    };
    let dir = scratch("deadline");
    let outcome = run_sweep(&grid, &config, &dir, synthetic_eval).expect("sweep");
    assert!(outcome.complete());

    let overrun = &outcome.records[6];
    assert_eq!(
        overrun.status,
        CellStatus::Completed,
        "soft deadline: not killed"
    );
    assert!(overrun.deadline_overrun);
    // Skipping applies to waves after the overrun is observed; with the
    // default pool width the rest of `spm`'s cells land in later waves.
    let skipped: Vec<u64> = outcome
        .records
        .iter()
        .filter(|r| r.status == CellStatus::Skipped)
        .map(|r| r.cell)
        .collect();
    assert!(
        !skipped.is_empty(),
        "siblings after the overrun are skipped"
    );
    assert!(
        skipped.iter().all(|&c| c > 6 && c < 12),
        "only spm cells skip: {skipped:?}"
    );
    for r in outcome.records.iter().filter(|r| r.cell < 6) {
        assert_eq!(r.status, CellStatus::Completed, "usb is unaffected");
        assert!(!r.deadline_overrun);
    }
    for r in &outcome.records {
        if r.status == CellStatus::Skipped {
            assert_eq!(r.attempts, 0);
            assert!(r.failure.contains("overran its deadline"));
        }
    }
    timing_predict::par::set_threads(0);
}

/// The retry/backoff schedule is a pure function of `(TP_SEED, cell,
/// attempt)`: exponential growth to a cap, jitter within `[cap/2, cap]`,
/// reproducible call to call, shifted by the seed — and the journaled
/// artifacts of a retry-heavy sweep are bit-identical run to run and at
/// 1 vs 4 threads.
#[test]
fn retry_backoff_schedule_is_deterministic_under_tp_seed() {
    let _guard = threads_lock();
    let seed = seed_from_env("TP_SEED", 42);
    let config = fast_config(seed);

    // The pure schedule itself.
    for cell in [0u64, 7, 11] {
        for attempt in 2..=6u32 {
            let ms = backoff_ms(&config, cell, attempt);
            assert_eq!(ms, backoff_ms(&config, cell, attempt));
            let cap = (config.backoff_base_ms << (attempt - 2).min(16)).min(config.backoff_cap_ms);
            assert!(ms >= cap / 2 && ms <= cap);
        }
    }
    let shifted = SweepConfig {
        seed: seed ^ 1,
        ..config.clone()
    };
    assert!(
        (2..=6u32).any(|a| backoff_ms(&config, 3, a) != backoff_ms(&shifted, 3, a)),
        "seed must move the jitter"
    );

    // End to end: same seed + same faults → same bytes, regardless of
    // threads; a different seed changes them.
    let faulty = SweepConfig {
        fault_plan: FaultPlan::none()
            .with_cell_fault(1, CellFault::Panic, 2)
            .with_cell_fault(9, CellFault::NonFinite, 1),
        ..config
    };
    let grid = synthetic_grid();
    let run_at = |threads: usize, cfg: &SweepConfig, tag: &str| -> (Vec<u8>, Vec<u8>) {
        timing_predict::par::set_threads(threads);
        let dir = scratch(&format!("backoff-{tag}"));
        let outcome = run_sweep(&grid, cfg, &dir, synthetic_eval).expect("sweep");
        assert_eq!(
            outcome.records[1].attempts, 3,
            "two injected failures then success"
        );
        timing_predict::par::set_threads(0);
        artifacts(&dir)
    };
    let a = run_at(1, &faulty, "t1-a");
    let b = run_at(1, &faulty, "t1-b");
    let c = run_at(4, &faulty, "t4");
    assert_eq!(a, b, "same seed, same bytes");
    assert_eq!(a, c, "thread count never reaches the artifacts");
    let other = run_at(
        1,
        &SweepConfig {
            seed: seed ^ 0x5eed,
            ..faulty.clone()
        },
        "t1-other",
    );
    assert_ne!(a.0, other.0, "the seed is load-bearing");
}

/// Resuming against a different grid or seed is refused — the journal
/// header's fingerprint is the sweep's identity.
#[test]
fn resume_against_a_different_sweep_is_refused() {
    let seed = seed_from_env("TP_SEED", 42);
    let grid = synthetic_grid();
    let dir = scratch("mismatch");
    run_sweep(&grid, &fast_config(seed), &dir, synthetic_eval).expect("sweep");
    let mut other_grid = grid.clone();
    other_grid.seeds.push(99);
    let err =
        run_sweep(&other_grid, &fast_config(seed), &dir, synthetic_eval).expect_err("grid changed");
    assert!(err.to_string().contains("different sweep"), "{err}");
    let err =
        run_sweep(&grid, &fast_config(seed ^ 1), &dir, synthetic_eval).expect_err("seed changed");
    assert!(err.to_string().contains("different sweep"), "{err}");
}
