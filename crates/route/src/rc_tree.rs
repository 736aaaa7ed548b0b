//! RC tree model over a Steiner topology.

use crate::SteinerTree;

/// An RC tree: the Steiner topology annotated with segment resistance and
/// node capacitance, supporting Elmore delay evaluation.
///
/// Lumped model: a segment of length `L` contributes resistance `r·L` in
/// series and splits its capacitance `c·L` as a π-model — half at the
/// upstream node, half at the downstream node.
#[derive(Debug, Clone)]
pub struct RcTree {
    /// Parent per node (`usize::MAX` at root).
    parent: Vec<usize>,
    /// Resistance of the segment to the parent, kΩ.
    seg_res: Vec<f32>,
    /// Capacitance lumped at each node, pF (wire π-halves + pin cap).
    node_cap: Vec<f32>,
    /// Nodes in root-first topological order.
    order: Vec<usize>,
}

impl RcTree {
    /// Builds an RC tree from a Steiner topology.
    ///
    /// `pin_cap[i]` is the pin capacitance at tree node `i` (0 for Steiner
    /// points and usually for the driver node). `unit_res` is kΩ/µm,
    /// `unit_cap` pF/µm.
    ///
    /// # Panics
    ///
    /// Panics if `pin_cap.len()` differs from the node count.
    pub fn new(tree: &SteinerTree, pin_cap: &[f32], unit_res: f32, unit_cap: f32) -> RcTree {
        let n = tree.num_nodes();
        assert_eq!(pin_cap.len(), n, "one pin cap per tree node required");
        let mut seg_res = vec![0.0f32; n];
        let mut node_cap = pin_cap.to_vec();
        for v in 0..n {
            let p = tree.parent[v];
            if p != usize::MAX {
                let len = tree.edge_len[v];
                seg_res[v] = unit_res * len;
                let half = 0.5 * unit_cap * len;
                node_cap[v] += half;
                node_cap[p] += half;
            }
        }
        // Root-first order via repeated scan (trees are tiny; nets rarely
        // exceed a few dozen pins).
        let mut order = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        let mut remaining = n;
        while remaining > 0 {
            for v in 0..n {
                if !placed[v] && (tree.parent[v] == usize::MAX || placed[tree.parent[v]]) {
                    placed[v] = true;
                    order.push(v);
                    remaining -= 1;
                }
            }
        }
        RcTree {
            parent: tree.parent.clone(),
            seg_res,
            node_cap,
            order,
        }
    }

    /// Total capacitance of the tree, pF — the load the driving cell sees.
    pub fn total_cap(&self) -> f32 {
        self.node_cap.iter().sum()
    }

    /// Elmore delay from the root to every node, ns.
    ///
    /// `delay[v] = Σ_{segments e on path root→v} R_e · C_downstream(e)`.
    pub fn elmore_delays(&self) -> Vec<f32> {
        let n = self.parent.len();
        // Downstream capacitance via reverse topological accumulation.
        let mut down_cap = self.node_cap.clone();
        for &v in self.order.iter().rev() {
            let p = self.parent[v];
            if p != usize::MAX {
                down_cap[p] += down_cap[v];
            }
        }
        let mut delay = vec![0.0f32; n];
        for &v in &self.order {
            let p = self.parent[v];
            if p != usize::MAX {
                delay[v] = delay[p] + self.seg_res[v] * down_cap[v];
            }
        }
        delay
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steiner_tree;
    use tp_place::Point;

    #[test]
    fn single_segment_elmore() {
        // 10 µm segment, r=0.001 kΩ/µm, c=0.0002 pF/µm, sink pin 0.002 pF.
        let tree = steiner_tree(&[Point::new(0.0, 0.0), Point::new(10.0, 0.0)]);
        let rc = RcTree::new(&tree, &[0.0, 0.002], 0.001, 0.0002);
        let delays = rc.elmore_delays();
        // R = 0.01 kΩ; downstream cap at sink = 0.002 + half wire 0.001 = 0.003
        let expect = 0.01 * 0.003;
        assert!(
            (delays[1] - expect).abs() < 1e-7,
            "{} vs {expect}",
            delays[1]
        );
        assert!((rc.total_cap() - (0.002 + 0.002)).abs() < 1e-7);
    }

    #[test]
    fn farther_sink_has_larger_delay() {
        let tree = steiner_tree(&[
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(50.0, 0.0),
        ]);
        let rc = RcTree::new(&tree, &[0.0, 0.002, 0.002], 0.001, 0.0002);
        let delays = rc.elmore_delays();
        assert!(delays[2] > delays[1]);
        assert_eq!(delays[0], 0.0);
    }

    #[test]
    fn shared_path_increases_near_sink_delay() {
        // A heavy far subtree raises the delay of the near sink too
        // (resistive shielding through the shared root segment is captured
        // by downstream cap).
        let light = {
            let t = steiner_tree(&[Point::new(0.0, 0.0), Point::new(10.0, 0.0)]);
            RcTree::new(&t, &[0.0, 0.002], 0.001, 0.0002).elmore_delays()[1]
        };
        let heavy = {
            let t = steiner_tree(&[
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(100.0, 0.0),
            ]);
            RcTree::new(&t, &[0.0, 0.002, 0.002], 0.001, 0.0002).elmore_delays()[1]
        };
        assert!(heavy > light);
    }

    #[test]
    fn zero_length_net_zero_delay() {
        let tree = steiner_tree(&[Point::new(3.0, 3.0), Point::new(3.0, 3.0)]);
        let rc = RcTree::new(&tree, &[0.0, 0.001], 0.001, 0.0002);
        assert_eq!(rc.elmore_delays()[1], 0.0);
    }
}
