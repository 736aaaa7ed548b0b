//! Tier-2 performance regression test for the adaptive-granularity fix.
//!
//! Ignored by default (wall-clock assertions are too noisy for tier-1);
//! run explicitly with `cargo test --test speedup -- --ignored`.
//! `scripts/bench.sh` records the same comparison as committed artifacts
//! under `results/bench/`.
//!
//! The assertion is conditional on the *hardware*, mirroring
//! `tp_par::CostModel::predicts_win`: `TP_THREADS=4` can only beat
//! `TP_THREADS=1` when the machine has ≥ 2 execution units. On a 1-core
//! container (the CI image) the test instead proves the cost model knows
//! that — `predicts_win` must be false there — and that 4 threads no
//! longer *lose* badly, which was the original bug (full_flow 1.50 ms @4t
//! vs 1.00 ms @1t at `TP_SCALE=0.02` under the old fixed thresholds).

use std::time::Instant;

use timing_predict::gen::{generate, BenchmarkSpec, GeneratorConfig};
use timing_predict::liberty::Library;
use timing_predict::place::{place_circuit, PlacementConfig};
use timing_predict::sta::flow::run_full_flow;
use timing_predict::sta::StaConfig;

/// Median-of-`runs` wall time of `f`, in seconds.
fn time_median(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[test]
#[ignore = "tier-2: wall-clock speedup regression; run with -- --ignored"]
fn four_threads_beat_one_where_cost_model_predicts_win() {
    let library = Library::synthetic_sky130(0);

    // STA workload: a benchmark big enough that level sizes clear the
    // cost-model grain, so forking is predicted to pay off.
    let spec = BenchmarkSpec::by_name("picorv32a").expect("known benchmark");
    let circuit = generate(
        spec,
        &library,
        &GeneratorConfig {
            scale: 0.05,
            seed: 11,
            depth: None,
        },
    );
    let placement = place_circuit(&circuit, &PlacementConfig::default(), 5);
    let sta_cfg = StaConfig::default().with_clock_period(3.0);
    let sta_at = |threads: usize| {
        timing_predict::par::set_threads(threads);
        // Warm-up run lets the cost models converge on measured costs
        // before timing starts.
        run_full_flow(&circuit, &placement, &library, &sta_cfg);
        let t = time_median(3, || {
            run_full_flow(&circuit, &placement, &library, &sta_cfg);
        });
        timing_predict::par::set_threads(0);
        t
    };

    let sta1 = sta_at(1);
    let sta4 = sta_at(4);
    eprintln!(
        "hardware_threads={} sta: 1t={:.4}s 4t={:.4}s ({:.2}x)",
        timing_predict::par::hardware_threads(),
        sta1,
        sta4,
        sta1 / sta4,
    );

    if timing_predict::par::hardware_threads() >= 2 {
        // Real concurrency exists: 4 threads must win where the cost model
        // says they should.
        assert!(
            sta4 < sta1,
            "4-thread STA should beat 1-thread: {sta4:.4}s vs {sta1:.4}s"
        );
    } else {
        // 1-core machine: no win is possible, and the model must know it.
        timing_predict::par::set_threads(4);
        let probe = timing_predict::par::CostModel::new("speedup.probe", 1.0);
        assert!(
            !probe.predicts_win(1_000, u64::MAX / 2),
            "predicts_win must be false without hardware concurrency"
        );
        timing_predict::par::set_threads(0);
        // The original bug was a 1.5x *slowdown* at 4 threads from
        // fork-join handoff on sub-grain regions. With adaptive
        // granularity the oversubscribed run must stay near parity.
        assert!(
            sta4 < sta1 * 1.35,
            "4-thread STA regressed on 1 core: {sta4:.4}s vs {sta1:.4}s"
        );
    }
}
