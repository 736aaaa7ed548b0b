//! Seeded placement generator.
//!
//! Cells start at random positions; a configurable number of
//! Jacobi-style relaxation sweeps then pull each movable cell toward the
//! centroid of its connected neighbors, blended with its current position
//! and perturbed with shrinking jitter. Ports are pinned to the die
//! boundary. The result has the statistical signature a timing model cares
//! about: connected cells are near each other, wirelength correlates with
//! logical distance, and I/O nets stretch to the periphery.

use tp_graph::{Circuit, PinKind};
use tp_rng::{Rng, StdRng};

use crate::{Die, Placement, Point};

/// Tuning knobs for [`place_circuit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementConfig {
    /// Cell area assumed when sizing the die, µm².
    pub cell_area: f32,
    /// Target utilization when sizing the die.
    pub utilization: f32,
    /// Relaxation sweeps (more sweeps → tighter clustering).
    pub iterations: usize,
    /// Blend factor toward the neighbor centroid per sweep, in `(0, 1]`.
    pub pull: f32,
    /// Initial jitter as a fraction of die size.
    pub jitter: f32,
    /// Offset between pins of the same cell, µm (models pin geometry).
    pub pin_spread: f32,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            cell_area: 5.0,
            utilization: 0.7,
            iterations: 12,
            pull: 0.6,
            jitter: 0.08,
            pin_spread: 0.4,
        }
    }
}

/// Places `circuit` deterministically from `seed`.
///
/// Every pin receives a location: cell pins cluster around their cell's
/// point with a small deterministic spread, and ports sit on the nearest
/// die edge.
pub fn place_circuit(circuit: &Circuit, config: &PlacementConfig, seed: u64) -> Placement {
    let mut rng = StdRng::seed_from_u64(seed);
    let die = Die::for_cells(
        circuit.num_cells().max(4),
        config.cell_area,
        config.utilization,
    );

    // --- cell-level connectivity (via nets) ---
    let nc = circuit.num_cells();
    let mut cell_pos: Vec<Point> = (0..nc)
        .map(|_| {
            Point::new(
                rng.gen_range(0.0..die.width),
                rng.gen_range(0.0..die.height),
            )
        })
        .collect();
    // Port anchor positions around the boundary, one per port pin.
    let num_ports = circuit
        .pin_ids()
        .filter(|&p| circuit.pin(p).cell.is_none())
        .count();
    let mut port_pos: Vec<Point> = Vec::with_capacity(num_ports);
    for i in 0..num_ports {
        let t = (i as f32 + 0.5) / num_ports.max(1) as f32;
        // walk the perimeter: bottom, right, top, left
        let perim = 2.0 * (die.width + die.height);
        let d = t * perim;
        let p = if d < die.width {
            Point::new(d, 0.0)
        } else if d < die.width + die.height {
            Point::new(die.width, d - die.width)
        } else if d < 2.0 * die.width + die.height {
            Point::new(2.0 * die.width + die.height - d, die.height)
        } else {
            Point::new(0.0, perim - d)
        };
        // Perimeter arithmetic can overshoot by a float ulp at corners.
        port_pos.push(die.clamp(p));
    }
    // Map each port pin to its anchor index, in pin order.
    let mut port_index = vec![usize::MAX; circuit.num_pins()];
    let mut next_port = 0usize;
    for p in circuit.pin_ids() {
        if circuit.pin(p).cell.is_none() {
            port_index[p.index()] = next_port;
            next_port += 1;
        }
    }

    // Neighbor lists between cells (and fixed port anchors) through nets.
    #[derive(Clone, Copy)]
    enum Anchor {
        Cell(usize),
        Port(usize),
    }
    let mut neighbors: Vec<Vec<Anchor>> = vec![Vec::new(); nc];
    for net in circuit.net_ids() {
        let data = circuit.net(net);
        let mut members: Vec<Anchor> = Vec::with_capacity(1 + data.sinks.len());
        for &p in std::iter::once(&data.driver).chain(&data.sinks) {
            match circuit.pin(p).cell {
                Some(c) => members.push(Anchor::Cell(c.index())),
                None => members.push(Anchor::Port(port_index[p.index()])),
            }
        }
        for (i, &m) in members.iter().enumerate() {
            if let Anchor::Cell(c) = m {
                for (j, &other) in members.iter().enumerate() {
                    if i != j {
                        neighbors[c].push(other);
                    }
                }
            }
        }
    }

    // --- relaxation sweeps ---
    for sweep in 0..config.iterations {
        let decay = 1.0 - sweep as f32 / config.iterations.max(1) as f32;
        let jitter_amp = config.jitter * die.width * decay;
        let snapshot = cell_pos.clone();
        for c in 0..nc {
            if neighbors[c].is_empty() {
                continue;
            }
            let mut cx = 0.0;
            let mut cy = 0.0;
            for &a in &neighbors[c] {
                let p = match a {
                    Anchor::Cell(i) => snapshot[i],
                    Anchor::Port(i) => port_pos[i],
                };
                cx += p.x;
                cy += p.y;
            }
            let k = neighbors[c].len() as f32;
            let centroid = Point::new(cx / k, cy / k);
            let cur = snapshot[c];
            let jx = rng.gen_range(-jitter_amp..=jitter_amp);
            let jy = rng.gen_range(-jitter_amp..=jitter_amp);
            cell_pos[c] = die.clamp(Point::new(
                cur.x + config.pull * (centroid.x - cur.x) + jx,
                cur.y + config.pull * (centroid.y - cur.y) + jy,
            ));
        }
    }

    // --- expand to pin locations ---
    let mut locations = vec![Point::default(); circuit.num_pins()];
    for p in circuit.pin_ids() {
        let pd = circuit.pin(p);
        locations[p.index()] = match pd.cell {
            Some(c) => {
                let base = cell_pos[c.index()];
                // deterministic small spread per pin, keyed by pin kind/index
                let k = p.index() as f32;
                let dx = config.pin_spread * ((k * 0.7548).fract() - 0.5);
                let dy = config.pin_spread * ((k * 0.5698).fract() - 0.5)
                    + if matches!(pd.kind, PinKind::CellOutput) {
                        config.pin_spread * 0.5
                    } else {
                        0.0
                    };
                die.clamp(Point::new(base.x + dx, base.y + dy))
            }
            None => port_pos[port_index[p.index()]],
        };
    }
    Placement::new(die, locations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_graph::CircuitBuilder;

    fn chain(n: usize) -> Circuit {
        let mut b = CircuitBuilder::new("chain");
        let mut prev = b.add_primary_input("in");
        for i in 0..n {
            let (_, ins, out) = b.add_cell(format!("u{i}"), 0, 1);
            b.connect(prev, &[ins[0]]).unwrap();
            prev = out;
        }
        let po = b.add_primary_output("out");
        b.connect(prev, &[po]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn deterministic_given_seed() {
        let c = chain(20);
        let cfg = PlacementConfig::default();
        let a = place_circuit(&c, &cfg, 11);
        let b = place_circuit(&c, &cfg, 11);
        assert_eq!(a.locations().len(), b.locations().len());
        for (pa, pb) in a.locations().iter().zip(b.locations()) {
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn different_seeds_move_cells() {
        let c = chain(20);
        let cfg = PlacementConfig::default();
        let a = place_circuit(&c, &cfg, 1);
        let b = place_circuit(&c, &cfg, 2);
        let moved = a
            .locations()
            .iter()
            .zip(b.locations())
            .any(|(x, y)| x.manhattan(*y) > 0.1);
        assert!(moved);
    }

    #[test]
    fn relaxation_reduces_wirelength() {
        let c = chain(60);
        let loose = place_circuit(
            &c,
            &PlacementConfig {
                iterations: 0,
                ..PlacementConfig::default()
            },
            5,
        );
        let tight = place_circuit(&c, &PlacementConfig::default(), 5);
        assert!(tight.total_hpwl(&c) < loose.total_hpwl(&c));
    }

    #[test]
    fn ports_on_boundary() {
        let c = chain(10);
        let p = place_circuit(&c, &PlacementConfig::default(), 3);
        for pin in c.pin_ids() {
            if c.pin(pin).cell.is_none() {
                let loc = p.location(pin);
                let die = p.die();
                let on_edge = loc.x == 0.0
                    || loc.y == 0.0
                    || (loc.x - die.width).abs() < 1e-4
                    || (loc.y - die.height).abs() < 1e-4;
                assert!(on_edge, "port {pin:?} not on boundary: {loc:?}");
            }
        }
    }

    #[test]
    fn all_pins_inside_die() {
        let c = chain(30);
        let p = place_circuit(&c, &PlacementConfig::default(), 8);
        for &loc in p.locations() {
            assert!(p.die().contains(loc));
        }
    }
}
