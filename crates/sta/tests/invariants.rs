//! Property-based invariants of the timing engine over randomly generated
//! designs: the physical laws any STA must obey regardless of netlist,
//! placement or constraints. Runs on the in-repo `tp_rng::prop` harness
//! (seeded cases, failure-seed reporting).

use tp_gen::{generate, GeneratorConfig, BENCHMARKS};
use tp_graph::Circuit;
use tp_liberty::{Corner, Library};
use tp_place::{place_circuit, Placement, PlacementConfig};
use tp_rng::{prop, Rng, StdRng};
use tp_sta::incremental::IncrementalSta;
use tp_sta::{StaConfig, StaEngine, TimingReport};

const CASES: usize = 64;

fn analyzed(bench: usize, seed: u64, clock: f32) -> (Library, Circuit, Placement, TimingReport) {
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
    (library, circuit, placement, report)
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
        let (_, circuit, _, report) = analyzed(bench, seed, 2.0);
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
        let (_, circuit, _, report) = analyzed(bench, seed, 2.0);
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
        let (_, circuit, _, tight) = analyzed(bench, seed, 1.0);
        let (_, _, _, relaxed) = analyzed(bench, seed, 4.0);
        for &ep in tight.endpoints() {
            assert!(tight.setup_slack(ep) >= tight.wns_setup() - 1e-5);
            // 3 ns more clock -> exactly 3 ns more setup slack
            let delta = relaxed.setup_slack(ep) - tight.setup_slack(ep);
            assert!((delta - 3.0).abs() < 1e-3, "delta {delta}");
        }
        assert_eq!(tight.endpoints().len(), circuit.endpoints().len());
    });
}

/// Incremental update after a random cell move matches a full re-run bit
/// for bit.
#[test]
fn incremental_equals_full() {
    prop::check("incremental_equals_full", CASES, |rng| {
        let bench = rng.gen_range(0usize..21);
        let seed = rng.gen_range(0u64..500);
        let cell_pick: usize = rng.gen_range(0..64);
        let (library, circuit, placement, _) = analyzed(bench, seed, 2.0);
        let config = StaConfig::default();
        let mut inc = IncrementalSta::new(&library, config, &circuit, &placement);

        let cell = tp_graph::CellId::new(cell_pick % circuit.num_cells());
        let cd = circuit.cell(cell);
        let mut locs = placement.locations().to_vec();
        let die = *placement.die();
        let target = tp_place::Point::new(die.width * 0.1, die.height * 0.9);
        let mut moved = Vec::new();
        for &p in cd.inputs.iter().chain(std::iter::once(&cd.output)) {
            locs[p.index()] = target;
            moved.push(p);
        }
        let new_placement = Placement::new(die, locs);
        inc.update_pins(&circuit, &new_placement, &moved);
        let inc_report = inc.report(&circuit);
        let full = StaEngine::new(&library, config).run(&circuit, &new_placement);

        let bits = |v: [f32; 4]| v.map(f32::to_bits);
        for p in circuit.pin_ids() {
            let (i, f) = (&inc_report, &full);
            assert_eq!(bits(i.arrival(p)), bits(f.arrival(p)), "arrival at pin {p}");
            assert_eq!(bits(i.slew(p)), bits(f.slew(p)), "slew at pin {p}");
            assert_eq!(
                bits(i.required(p)),
                bits(f.required(p)),
                "required at pin {p}"
            );
        }
    });
}
