//! Receptive-field measurement (paper Figure 1).
//!
//! A K-layer message-passing GNN can only aggregate features from nodes at
//! most K hops away on the *undirected* pin graph. This module measures the
//! fraction of the graph a node can see at K hops, and the hop distance an
//! endpoint actually needs to cover every startpoint in its fan-in cone —
//! i.e. the depth a conventional GNN would need to emulate a timing engine.

use std::collections::VecDeque;

use crate::{Circuit, PinId, Topology};

/// Undirected adjacency over net + cell edges (both directions).
fn undirected_neighbors(circuit: &Circuit) -> Vec<Vec<u32>> {
    let mut adj = vec![Vec::new(); circuit.num_pins()];
    for e in circuit.net_edges() {
        adj[e.driver.index()].push(e.sink.index() as u32);
        adj[e.sink.index()].push(e.driver.index() as u32);
    }
    for e in circuit.cell_edges() {
        adj[e.from.index()].push(e.to.index() as u32);
        adj[e.to.index()].push(e.from.index() as u32);
    }
    adj
}

/// Number of pins within `k` undirected hops of `seed` (inclusive).
///
/// # Panics
///
/// Panics if `seed` is out of range for `circuit`.
pub fn receptive_field_size(circuit: &Circuit, seed: PinId, k: usize) -> usize {
    let adj = undirected_neighbors(circuit);
    let mut dist = vec![u32::MAX; circuit.num_pins()];
    let mut queue = VecDeque::new();
    dist[seed.index()] = 0;
    queue.push_back(seed.index());
    let mut count = 0usize;
    while let Some(u) = queue.pop_front() {
        if dist[u] as usize > k {
            break;
        }
        count += 1;
        for &v in &adj[u] {
            let v = v as usize;
            if dist[v] == u32::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    count
}

/// Hop distance from `endpoint` back to the farthest startpoint in its
/// fan-in cone, following edges backwards. This is the receptive field a
/// conventional GNN needs to predict this endpoint's arrival time.
///
/// # Panics
///
/// Panics if `endpoint` is out of range for `circuit`.
pub fn required_receptive_depth(circuit: &Circuit, topo: &Topology, endpoint: PinId) -> usize {
    let mut dist = vec![u32::MAX; circuit.num_pins()];
    let mut queue = VecDeque::new();
    dist[endpoint.index()] = 0;
    queue.push_back(endpoint);
    let mut max_d = 0usize;
    while let Some(u) = queue.pop_front() {
        max_d = max_d.max(dist[u.index()] as usize);
        for &er in topo.fanin(u) {
            let v = match er {
                crate::topology::EdgeRef::Net(id) => circuit.net_edge(id).driver,
                crate::topology::EdgeRef::Cell(id) => circuit.cell_edge(id).from,
            };
            if dist[v.index()] == u32::MAX {
                dist[v.index()] = dist[u.index()] + 1;
                queue.push_back(v);
            }
        }
    }
    max_d
}

/// Summary of the Figure-1 experiment on one design.
#[derive(Debug, Clone, PartialEq)]
pub struct ReceptiveFieldReport {
    /// Hop counts measured (1, 2, 4, 8, …).
    pub hops: Vec<usize>,
    /// Mean fraction of the graph visible at each hop count, over sampled
    /// endpoints.
    pub coverage: Vec<f64>,
    /// Mean required depth over sampled endpoints.
    pub mean_required_depth: f64,
    /// Maximum required depth (the logic depth bound from Sec. 3.1).
    pub max_required_depth: usize,
}

/// Measures receptive-field coverage at the given hop counts for up to
/// `max_samples` endpoints.
pub fn report(circuit: &Circuit, hops: &[usize], max_samples: usize) -> ReceptiveFieldReport {
    let topo = circuit.topology();
    let endpoints = circuit.endpoints();
    let sample: Vec<PinId> = endpoints.iter().copied().take(max_samples).collect();
    let n = circuit.num_pins() as f64;
    let mut coverage = Vec::with_capacity(hops.len());
    for &k in hops {
        let mean: f64 = sample
            .iter()
            .map(|&p| receptive_field_size(circuit, p, k) as f64 / n)
            .sum::<f64>()
            / sample.len().max(1) as f64;
        coverage.push(mean);
    }
    let depths: Vec<usize> = sample
        .iter()
        .map(|&p| required_receptive_depth(circuit, &topo, p))
        .collect();
    let mean_required_depth = depths.iter().sum::<usize>() as f64 / depths.len().max(1) as f64;
    let max_required_depth = depths.iter().copied().max().unwrap_or(0);
    ReceptiveFieldReport {
        hops: hops.to_vec(),
        coverage,
        mean_required_depth,
        max_required_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CircuitBuilder;

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
    fn chain_receptive_field_grows_linearly() {
        let c = chain(10);
        let po = c.endpoints()[0];
        assert_eq!(receptive_field_size(&c, po, 0), 1);
        assert_eq!(receptive_field_size(&c, po, 2), 3);
        // whole chain is 22 pins
        assert_eq!(receptive_field_size(&c, po, 100), 22);
    }

    #[test]
    fn required_depth_equals_logic_depth() {
        let c = chain(5);
        let t = c.topology();
        let po = c.endpoints()[0];
        // pi + 5 cells (2 pins each) + po -> 11 hops from po back to pi
        assert_eq!(required_receptive_depth(&c, &t, po), 11);
        assert_eq!(t.levels().len(), 12);
    }

    #[test]
    fn report_coverage_monotone() {
        let c = chain(8);
        let r = report(&c, &[1, 2, 4, 8], 4);
        for w in r.coverage.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        assert!(r.max_required_depth >= r.mean_required_depth as usize);
    }
}
