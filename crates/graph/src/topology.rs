//! CSR adjacency and levelization of the heterogeneous timing DAG.

use crate::circuit::Circuit;
use crate::{CellEdgeId, GraphError, NetEdgeId, PinId};

/// Reference to an edge of either type, used in adjacency lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeRef {
    /// A net edge (driver → sink).
    Net(NetEdgeId),
    /// A cell edge (timing arc).
    Cell(CellEdgeId),
}

/// Compressed adjacency plus topological levels of a [`Circuit`].
///
/// The *level* of a pin is the length of the longest directed path from any
/// source (in-degree-0 pin) to it — the classic STA levelization. Pins on
/// the same level have no dependencies among themselves, so a levelized
/// engine (or the paper's propagation model) may process a whole level at
/// once. The number of levels equals the maximum logic depth plus one.
#[derive(Debug, Clone)]
pub struct Topology {
    num_pins: usize,
    fanout_index: Vec<u32>,
    fanout_edges: Vec<EdgeRef>,
    fanin_index: Vec<u32>,
    fanin_edges: Vec<EdgeRef>,
    level_of: Vec<u32>,
    levels: Vec<Vec<PinId>>,
    topo_order: Vec<PinId>,
}

impl Topology {
    /// Builds adjacency and levels.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CombinationalCycle`] if the combined
    /// net-edge/cell-edge graph is cyclic.
    pub fn build(circuit: &Circuit) -> Result<Topology, GraphError> {
        let n = circuit.num_pins();
        // Degree counting for CSR.
        let mut out_deg = vec![0u32; n];
        let mut in_deg = vec![0u32; n];
        for e in circuit.net_edges() {
            out_deg[e.driver.index()] += 1;
            in_deg[e.sink.index()] += 1;
        }
        for e in circuit.cell_edges() {
            out_deg[e.from.index()] += 1;
            in_deg[e.to.index()] += 1;
        }
        let mut fanout_index = vec![0u32; n + 1];
        let mut fanin_index = vec![0u32; n + 1];
        for i in 0..n {
            fanout_index[i + 1] = fanout_index[i] + out_deg[i];
            fanin_index[i + 1] = fanin_index[i] + in_deg[i];
        }
        let mut fanout_edges = vec![EdgeRef::Net(NetEdgeId::new(0)); fanout_index[n] as usize];
        let mut fanin_edges = vec![EdgeRef::Net(NetEdgeId::new(0)); fanin_index[n] as usize];
        let mut out_cursor: Vec<u32> = fanout_index[..n].to_vec();
        let mut in_cursor: Vec<u32> = fanin_index[..n].to_vec();
        for (i, e) in circuit.net_edges().iter().enumerate() {
            let r = EdgeRef::Net(NetEdgeId::new(i));
            fanout_edges[out_cursor[e.driver.index()] as usize] = r;
            out_cursor[e.driver.index()] += 1;
            fanin_edges[in_cursor[e.sink.index()] as usize] = r;
            in_cursor[e.sink.index()] += 1;
        }
        for (i, e) in circuit.cell_edges().iter().enumerate() {
            let r = EdgeRef::Cell(CellEdgeId::new(i));
            fanout_edges[out_cursor[e.from.index()] as usize] = r;
            out_cursor[e.from.index()] += 1;
            fanin_edges[in_cursor[e.to.index()] as usize] = r;
            in_cursor[e.to.index()] += 1;
        }

        // Kahn's algorithm computing longest-path levels.
        let mut level_of = vec![0u32; n];
        let mut pending = in_deg.clone();
        let mut queue: Vec<usize> = (0..n).filter(|&i| pending[i] == 0).collect();
        let mut topo_order: Vec<PinId> = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            topo_order.push(PinId::new(u));
            let (s, e) = (fanout_index[u] as usize, fanout_index[u + 1] as usize);
            for &er in &fanout_edges[s..e] {
                let v = match er {
                    EdgeRef::Net(id) => circuit.net_edge(id).sink,
                    EdgeRef::Cell(id) => circuit.cell_edge(id).to,
                }
                .index();
                level_of[v] = level_of[v].max(level_of[u] + 1);
                pending[v] -= 1;
                if pending[v] == 0 {
                    queue.push(v);
                }
            }
        }
        if topo_order.len() != n {
            let culprit = (0..n)
                .find(|&i| pending[i] > 0)
                .expect("some pin must remain when a cycle exists");
            return Err(GraphError::CombinationalCycle(PinId::new(culprit)));
        }

        let max_level = level_of.iter().copied().max().unwrap_or(0) as usize;
        let mut levels: Vec<Vec<PinId>> = vec![Vec::new(); max_level + 1];
        for (i, &l) in level_of.iter().enumerate() {
            levels[l as usize].push(PinId::new(i));
        }

        Ok(Topology {
            num_pins: n,
            fanout_index,
            fanout_edges,
            fanin_index,
            fanin_edges,
            level_of,
            levels,
            topo_order,
        })
    }

    /// Number of pins this topology covers.
    pub fn num_pins(&self) -> usize {
        self.num_pins
    }

    /// Outgoing edges of `pin`.
    pub fn fanout(&self, pin: PinId) -> &[EdgeRef] {
        let i = pin.index();
        &self.fanout_edges[self.fanout_index[i] as usize..self.fanout_index[i + 1] as usize]
    }

    /// Incoming edges of `pin`.
    pub fn fanin(&self, pin: PinId) -> &[EdgeRef] {
        let i = pin.index();
        &self.fanin_edges[self.fanin_index[i] as usize..self.fanin_index[i + 1] as usize]
    }

    /// Topological level of `pin` (0 for sources).
    pub fn level(&self, pin: PinId) -> usize {
        self.level_of[pin.index()] as usize
    }

    /// Pins grouped by level, index 0 first. This is the schedule both the
    /// STA engine and the delay-propagation model walk.
    pub fn levels(&self) -> &[Vec<PinId>] {
        &self.levels
    }

    /// Maximum logic depth (number of levels − 1).
    pub fn depth(&self) -> usize {
        self.levels.len().saturating_sub(1)
    }

    /// All pins in one valid topological order.
    pub fn topo_order(&self) -> &[PinId] {
        &self.topo_order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CircuitBuilder;

    fn diamond() -> Circuit {
        // in -> u0 -> {u1, u2} -> u3 -> out
        let mut b = CircuitBuilder::new("diamond");
        let pi = b.add_primary_input("in");
        let (_, i0, o0) = b.add_cell("u0", 0, 1);
        let (_, i1, o1) = b.add_cell("u1", 0, 1);
        let (_, i2, o2) = b.add_cell("u2", 0, 1);
        let (_, i3, o3) = b.add_cell("u3", 0, 2);
        let po = b.add_primary_output("out");
        b.connect(pi, &[i0[0]]).unwrap();
        b.connect(o0, &[i1[0], i2[0]]).unwrap();
        b.connect(o1, &[i3[0]]).unwrap();
        b.connect(o2, &[i3[1]]).unwrap();
        b.connect(o3, &[po]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn diamond_levels() {
        let c = diamond();
        let t = c.topology();
        let pi = PinId::new(0);
        assert_eq!(t.level(pi), 0);
        // depth: pi(0) -> i0(1) -> o0(2) -> i1(3) -> o1(4) -> i3(5) -> o3(6) -> po(7)
        assert_eq!(t.depth(), 7);
        assert_eq!(t.levels().iter().map(Vec::len).sum::<usize>(), c.num_pins());
    }

    #[test]
    fn topo_order_respects_edges() {
        let c = diamond();
        let t = c.topology();
        let pos: Vec<usize> = {
            let mut v = vec![0; c.num_pins()];
            for (i, p) in t.topo_order().iter().enumerate() {
                v[p.index()] = i;
            }
            v
        };
        for e in c.net_edges() {
            assert!(pos[e.driver.index()] < pos[e.sink.index()]);
        }
        for e in c.cell_edges() {
            assert!(pos[e.from.index()] < pos[e.to.index()]);
        }
    }

    #[test]
    fn fanin_fanout_consistent() {
        let c = diamond();
        let t = c.topology();
        let total_out: usize = c.pin_ids().map(|p| t.fanout(p).len()).sum();
        let total_in: usize = c.pin_ids().map(|p| t.fanin(p).len()).sum();
        assert_eq!(total_out, c.num_net_edges() + c.num_cell_edges());
        assert_eq!(total_in, total_out);
    }

    #[test]
    fn levels_have_no_internal_edges() {
        let c = diamond();
        let t = c.topology();
        for e in c.net_edges() {
            assert!(t.level(e.driver) < t.level(e.sink));
        }
        for e in c.cell_edges() {
            assert!(t.level(e.from) < t.level(e.to));
        }
    }
}
