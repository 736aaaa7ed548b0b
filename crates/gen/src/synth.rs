//! Structural netlist synthesis.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use tp_graph::{Circuit, CircuitBuilder, PinId};
use tp_liberty::Library;
use tp_rng::{Rng, StdRng};

use crate::{BenchmarkSpec, Split};

/// Knobs for the netlist generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Size multiplier against the Table-1 targets. The experiment harness
    /// defaults to 1/16 so CPU training fits a session; 1.0 reproduces the
    /// paper's design sizes.
    pub scale: f64,
    /// Base seed; combined with the design name so each benchmark is a
    /// distinct but reproducible circuit.
    pub seed: u64,
    /// Logic depth override; `None` derives a depth from the design size.
    pub depth: Option<usize>,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            scale: 1.0 / 16.0,
            seed: 0xDAC22,
            depth: None,
        }
    }
}

fn scaled(v: usize, scale: f64, min: usize) -> usize {
    ((v as f64 * scale).round() as usize).max(min)
}

/// Generates one benchmark circuit.
///
/// The output is a valid [`Circuit`] (single-driver nets, acyclic,
/// fully connected) whose statistics approximate `spec` × `config.scale`.
///
/// # Panics
///
/// Panics if `config.scale` is not strictly positive.
pub fn generate(spec: &BenchmarkSpec, library: &Library, config: &GeneratorConfig) -> Circuit {
    let _gen_span = tp_obs::span!("gen.design", name = spec.name);
    assert!(config.scale > 0.0, "scale must be positive");
    let mut hasher = DefaultHasher::new();
    spec.name.hash(&mut hasher);
    let mut rng = StdRng::seed_from_u64(config.seed ^ hasher.finish());

    // Floors keep the smallest designs statistically meaningful at low
    // scales (a handful of endpoints make R² meaningless noise).
    let target_cell_edges = scaled(spec.cell_edges, config.scale, 60);
    let n_endpoints = scaled(spec.endpoints, config.scale, 8);
    let n_po = (n_endpoints / 8).max(1);
    let n_reg = (n_endpoints - n_po).max(1);
    let n_pi = (n_po + 1).max(4);
    let depth = config.depth.unwrap_or_else(|| {
        // Deeper designs for larger circuits, in the 10–48 range; real
        // suites show depth growing slowly with size.
        ((target_cell_edges as f64).powf(0.28) * 3.0)
            .round()
            .clamp(10.0, 48.0) as usize
    });

    let mut b = CircuitBuilder::new(spec.name);

    // --- sources: primary inputs + register outputs ---
    let mut level_drivers: Vec<Vec<PinId>> = vec![Vec::new(); depth + 1];
    for i in 0..n_pi {
        level_drivers[0].push(b.add_primary_input(format!("pi{i}")));
    }
    let reg_type = library.register_type();
    let mut reg_d_pins = Vec::with_capacity(n_reg);
    for i in 0..n_reg {
        let (_, d, q) = b.add_register(format!("r{i}"), reg_type);
        reg_d_pins.push(d);
        level_drivers[0].push(q);
    }

    // --- combinational cells with a center-heavy level profile ---
    let one_in = library.combinational_with_inputs(1);
    let two_in = library.combinational_with_inputs(2);
    let three_in = library.combinational_with_inputs(3);
    struct CombCell {
        level: usize,
        inputs: Vec<PinId>,
    }
    let mut comb: Vec<CombCell> = Vec::new();
    let mut edge_budget = target_cell_edges as i64;
    let mut idx = 0usize;
    while edge_budget > 0 {
        // Spindle-shaped level distribution: sum of two uniforms.
        let l = 1
            + ((rng.gen_range(0.0..1.0f64) + rng.gen_range(0.0..1.0f64)) / 2.0 * (depth - 1) as f64)
                .floor() as usize;
        let roll: f64 = rng.gen_range(0.0..1.0);
        let (type_id, n_inputs) = if roll < 0.20 {
            (one_in[rng.gen_range(0..one_in.len())], 1)
        } else if roll < 0.75 {
            (two_in[rng.gen_range(0..two_in.len())], 2)
        } else {
            (three_in[rng.gen_range(0..three_in.len())], 3)
        };
        let (_, inputs, output) = b.add_cell(format!("u{idx}"), type_id, n_inputs);
        idx += 1;
        edge_budget -= n_inputs as i64;
        level_drivers[l].push(output);
        comb.push(CombCell { level: l, inputs });
    }

    // Compact away empty levels so every cell can find an earlier driver.
    // (Level 0 is never empty.)

    // --- wire inputs: locality-biased choice of an earlier level ---
    // sinks_of[driver] accumulates the fan-out of each driving pin.
    // BTreeMap: net materialization order must be deterministic.
    let mut sinks_of: std::collections::BTreeMap<PinId, Vec<PinId>> =
        std::collections::BTreeMap::new();
    let mut unused: Vec<Vec<PinId>> = level_drivers.clone(); // drivers not yet consumed

    let pick_driver = |rng: &mut StdRng,
                       unused: &mut Vec<Vec<PinId>>,
                       level_drivers: &[Vec<PinId>],
                       max_level: usize|
     -> PinId {
        // Prefer an unused driver from a geometrically recent level so
        // every output eventually gets consumed.
        for _ in 0..4 {
            let mut l = max_level;
            // geometric walk backwards
            while l > 0 && rng.gen_bool(0.45) {
                l -= 1;
            }
            // search down from l for a level with unused drivers
            for ll in (0..=l.min(max_level)).rev() {
                if !unused[ll].is_empty() {
                    let k = rng.gen_range(0..unused[ll].len());
                    return unused[ll].swap_remove(k);
                }
            }
        }
        // Fall back to any driver from an eligible level (creates fan-out).
        loop {
            let l = rng.gen_range(0..=max_level);
            if !level_drivers[l].is_empty() {
                let k = rng.gen_range(0..level_drivers[l].len());
                return level_drivers[l][k];
            }
        }
    };

    for cell in &comb {
        for &input in &cell.inputs {
            let d = pick_driver(&mut rng, &mut unused, &level_drivers, cell.level - 1);
            sinks_of.entry(d).or_default().push(input);
        }
    }
    // Register D pins and primary outputs consume from the deep end.
    let mut po_pins = Vec::with_capacity(n_po);
    for i in 0..n_po {
        po_pins.push(b.add_primary_output(format!("po{i}")));
    }
    for (&sink, tail) in reg_d_pins.iter().zip(0..) {
        let _ = tail;
        let d = pick_driver(&mut rng, &mut unused, &level_drivers, depth);
        sinks_of.entry(d).or_default().push(sink);
    }
    for &sink in &po_pins {
        let d = pick_driver(&mut rng, &mut unused, &level_drivers, depth);
        sinks_of.entry(d).or_default().push(sink);
    }

    // --- fix-up: every remaining unused driver must reach a sink ---
    let leftovers: Vec<PinId> = unused.into_iter().flatten().collect();
    for (i, d) in leftovers.into_iter().enumerate() {
        if sinks_of.contains_key(&d) {
            continue;
        }
        let po = b.add_primary_output(format!("po_x{i}"));
        sinks_of.insert(d, vec![po]);
    }

    // --- materialize nets ---
    for (driver, sinks) in sinks_of {
        b.connect(driver, &sinks)
            .expect("generator produces direction-consistent single-driver nets");
    }

    b.finish()
        .expect("levels increase strictly, so the netlist is acyclic")
}

/// Generates the full 21-design suite, returning `(spec, circuit)` pairs in
/// Table-1 order.
///
/// Each design's RNG is seeded from `config.seed` and its own name, so the
/// designs are independent and generate as a tp-par ordered map — the suite
/// is identical at any thread count.
/// Adaptive dispatch for suite generation: items are designs, units are
/// the total scaled pin count (a design's generation cost tracks its
/// size). The old unconditional fork paid the pool handoff even for
/// tiny-scale suites.
static GEN_COST: tp_par::CostModel = tp_par::CostModel::new("gen.suite", 400.0);

pub fn generate_suite(
    library: &Library,
    config: &GeneratorConfig,
) -> Vec<(&'static BenchmarkSpec, Circuit)> {
    let units: u64 = crate::BENCHMARKS
        .iter()
        .map(|s| scaled(s.nodes, config.scale, 16) as u64)
        .sum();
    let circuits = tp_par::map_items_costed(&GEN_COST, crate::BENCHMARKS.len(), units, |i| {
        generate(&crate::BENCHMARKS[i], library, config)
    });
    crate::BENCHMARKS.iter().zip(circuits).collect()
}

/// Convenience filter over [`generate_suite`] output.
pub fn split_of(suite: &[(&'static BenchmarkSpec, Circuit)], split: Split) -> Vec<usize> {
    suite
        .iter()
        .enumerate()
        .filter(|(_, (s, _))| s.split == split)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BENCHMARKS;

    fn small_cfg() -> GeneratorConfig {
        GeneratorConfig {
            scale: 0.01,
            seed: 1,
            depth: None,
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let lib = Library::synthetic_sky130(0);
        let a = generate(&BENCHMARKS[1], &lib, &small_cfg());
        let b = generate(&BENCHMARKS[1], &lib, &small_cfg());
        assert_eq!(a.num_pins(), b.num_pins());
        assert_eq!(a.num_net_edges(), b.num_net_edges());
        assert_eq!(a.num_cell_edges(), b.num_cell_edges());
    }

    #[test]
    fn different_designs_differ() {
        let lib = Library::synthetic_sky130(0);
        let a = generate(&BENCHMARKS[0], &lib, &small_cfg());
        let b = generate(&BENCHMARKS[2], &lib, &small_cfg());
        assert_ne!(a.num_pins(), b.num_pins());
    }

    #[test]
    fn statistics_track_spec_proportions() {
        let lib = Library::synthetic_sky130(0);
        let cfg = GeneratorConfig {
            scale: 0.02,
            seed: 3,
            depth: None,
        };
        for spec in [&BENCHMARKS[0], &BENCHMARKS[4], &BENCHMARKS[18]] {
            let c = generate(spec, &lib, &cfg);
            let s = c.stats();
            // the generator floors tiny designs at 60 cell edges
            let target_edges = (spec.cell_edges as f64 * cfg.scale).max(60.0);
            assert!(
                (s.cell_edges as f64) > target_edges * 0.8
                    && (s.cell_edges as f64) < target_edges * 1.3,
                "{}: cell edges {} vs target {target_edges}",
                spec.name,
                s.cell_edges
            );
            let target_ep = (spec.endpoints as f64 * cfg.scale).max(3.0);
            assert!(
                (s.endpoints as f64) >= target_ep * 0.8,
                "{}: endpoints {} vs target {target_ep}",
                spec.name,
                s.endpoints
            );
        }
    }

    #[test]
    fn all_benchmarks_generate_valid_circuits() {
        let lib = Library::synthetic_sky130(0);
        let cfg = GeneratorConfig {
            scale: 0.005,
            seed: 9,
            depth: None,
        };
        for spec in &BENCHMARKS {
            let c = generate(spec, &lib, &cfg);
            // topology() validates acyclicity; depth should be nontrivial
            let t = c.topology();
            assert!(t.levels().len() >= 4, "{} too shallow", spec.name);
            assert!(c.stats().endpoints >= 2, "{} lacks endpoints", spec.name);
        }
    }

    #[test]
    fn fanout_emerges() {
        let lib = Library::synthetic_sky130(0);
        let c = generate(&BENCHMARKS[3], &lib, &small_cfg());
        let max_fanout = c.net_ids().map(|n| c.net(n).sinks.len()).max().unwrap_or(0);
        assert!(max_fanout >= 2, "some net should have fan-out > 1");
    }

    #[test]
    fn suite_covers_all_designs() {
        let lib = Library::synthetic_sky130(0);
        let cfg = GeneratorConfig {
            scale: 0.002,
            seed: 2,
            depth: Some(10),
        };
        let suite = generate_suite(&lib, &cfg);
        assert_eq!(suite.len(), 21);
        assert_eq!(split_of(&suite, Split::Train).len(), 14);
        assert_eq!(split_of(&suite, Split::Test).len(), 7);
    }
}
