//! Property-based invariants of the timing engine over randomly generated
//! designs: the physical laws any STA must obey regardless of netlist,
//! placement or constraints. Runs on the in-repo `tp_rng::prop` harness
//! (seeded cases, failure-seed reporting).

use tp_gen::{generate, GeneratorConfig, BENCHMARKS};
use tp_graph::Circuit;
use tp_liberty::{Corner, Library};
use tp_place::{place_circuit, PlacementConfig};
use tp_rng::{prop, Rng, StdRng};
use tp_sta::{StaConfig, StaEngine, TimingReport};

const CASES: usize = 64;

fn analyzed(bench: usize, seed: u64, clock: f32) -> (Circuit, TimingReport) {
    let library = Library::synthetic_sky130(1);
    let circuit = generate(
        &BENCHMARKS[bench % BENCHMARKS.len()],
        &library,
        &GeneratorConfig {
            scale: 0.004,
            seed,
            depth: None,
        },
    );
    let placement = place_circuit(&circuit, &PlacementConfig::default(), seed);
    let report = StaEngine::new(&library, StaConfig::default().with_clock_period(clock))
        .run(&circuit, &placement);
    (circuit, report)
}

/// One random (benchmark, generator-seed) pair per case — the same input
/// space the proptest suite drew from.
fn bench_and_seed(rng: &mut StdRng) -> (usize, u64) {
    (rng.gen_range(0usize..21), rng.gen_range(0u64..1000))
}

/// Late arrivals never precede early arrivals, anywhere.
#[test]
fn early_bounds_late() {
    prop::check("early_bounds_late", CASES, |rng| {
        let (bench, seed) = bench_and_seed(rng);
        let (circuit, report) = analyzed(bench, seed, 2.0);
        for p in circuit.pin_ids() {
            let a = report.arrival(p);
            assert!(a[Corner::EarlyRise.index()] <= a[Corner::LateRise.index()] + 1e-5);
            assert!(a[Corner::EarlyFall.index()] <= a[Corner::LateFall.index()] + 1e-5);
            let s = report.slew(p);
            for v in s {
                assert!(v >= 0.0 && v.is_finite());
            }
        }
    });
}

/// Arrival is monotone along every net edge (wire delays are
/// non-negative) and cell-arc delays are strictly positive.
#[test]
fn delays_non_negative() {
    prop::check("delays_non_negative", CASES, |rng| {
        let (bench, seed) = bench_and_seed(rng);
        let (circuit, report) = analyzed(bench, seed, 2.0);
        for (i, _e) in circuit.net_edges().iter().enumerate() {
            let d = report.net_edge_delay(tp_graph::NetEdgeId::new(i));
            for v in d {
                assert!(v >= 0.0);
            }
        }
        for i in 0..circuit.num_cell_edges() {
            let d = report.cell_edge_delay(tp_graph::CellEdgeId::new(i));
            for v in d {
                assert!(v > 0.0);
            }
        }
    });
}

/// WNS is a lower bound of every endpoint's setup slack, and relaxing
/// the clock increases slack uniformly.
#[test]
fn wns_and_clock_monotonicity() {
    prop::check("wns_and_clock_monotonicity", CASES, |rng| {
        let (bench, seed) = bench_and_seed(rng);
        let (circuit, tight) = analyzed(bench, seed, 1.0);
        let (_, relaxed) = analyzed(bench, seed, 4.0);
        for &ep in tight.endpoints() {
            assert!(tight.setup_slack(ep) >= tight.wns_setup() - 1e-5);
            // 3 ns more clock -> exactly 3 ns more setup slack
            let delta = relaxed.setup_slack(ep) - tight.setup_slack(ep);
            assert!((delta - 3.0).abs() < 1e-3, "delta {delta}");
        }
        assert_eq!(tight.endpoints().len(), circuit.endpoints().len());
    });
}
