//! Level-structured execution plan for the propagation stage.
//!
//! The propagation model updates each pin exactly once, at its topological
//! level. To keep memory proportional to *edges* rather than
//! `pins × levels`, states live in **per-level blocks**; every edge is
//! resolved at plan-build time to `(source level, row within that block)`
//! coordinates and grouped by source level so each group is a single
//! gather.

use tp_data::DesignGraph;

/// Edges entering one level from one source level.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeGroup {
    /// Source level index.
    pub src_level: usize,
    /// Row of each edge's source pin within the source level's block.
    pub src_rows: Vec<usize>,
    /// Row of each edge in the corresponding edge-feature tensor.
    pub edge_ids: Vec<usize>,
    /// Destination row within this level's block, parallel to `src_rows`.
    pub dest_local: Vec<usize>,
}

/// Everything needed to compute one level's block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelPlan {
    /// Global pin indices at this level (block row order).
    pub pins: Vec<usize>,
    /// Incoming net edges grouped by source level.
    pub net_groups: Vec<EdgeGroup>,
    /// Incoming cell edges grouped by source level.
    pub cell_groups: Vec<EdgeGroup>,
    /// Local rows that receive cell-arc updates (cell output pins).
    pub cell_fed_local: Vec<usize>,
}

impl LevelPlan {
    /// The sub-plan for some strictly ascending local `rows` of this
    /// level: their pins, and every edge into them re-addressed to rows of
    /// the sub-block. Each kept destination keeps its edges in this plan's
    /// order (group order, then edge order within a group), and groups
    /// left without edges are dropped, so a kernel run on the sub-plan
    /// folds every kept row exactly as it does on the whole level.
    pub fn restrict(&self, rows: &[usize]) -> LevelPlan {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows must ascend");
        let keep = |groups: &[EdgeGroup]| -> Vec<EdgeGroup> {
            groups
                .iter()
                .filter_map(|g| {
                    let mut sub = EdgeGroup {
                        src_level: g.src_level,
                        ..EdgeGroup::default()
                    };
                    for (i, d) in g.dest_local.iter().enumerate() {
                        if let Ok(r) = rows.binary_search(d) {
                            sub.src_rows.push(g.src_rows[i]);
                            sub.edge_ids.push(g.edge_ids[i]);
                            sub.dest_local.push(r);
                        }
                    }
                    (!sub.edge_ids.is_empty()).then_some(sub)
                })
                .collect()
        };
        LevelPlan {
            pins: rows.iter().map(|&r| self.pins[r]).collect(),
            net_groups: keep(&self.net_groups),
            cell_groups: keep(&self.cell_groups),
            cell_fed_local: self
                .cell_fed_local
                .iter()
                .filter_map(|r| rows.binary_search(r).ok())
                .collect(),
        }
    }
}

/// The full propagation schedule for one design.
#[derive(Debug, Clone)]
pub struct PropPlan {
    /// Per-level plans, level 0 (startpoints) first.
    pub levels: Vec<LevelPlan>,
    /// For each pin (global order): its row position in the concatenation
    /// of all level blocks — used to reassemble the final state matrix.
    pub assemble: Vec<usize>,
    /// Cell-edge feature rows in the order messages are emitted during the
    /// level walk (for the cell-delay head).
    pub cell_edge_order: Vec<usize>,
}

impl PropPlan {
    /// Builds the schedule from a lowered design.
    ///
    /// # Panics
    ///
    /// Panics if the design's level structure is inconsistent with its edge
    /// lists (cannot happen for `DesignGraph`s produced by `tp-data`).
    pub fn build(design: &DesignGraph) -> PropPlan {
        let n = design.num_pins;
        // pin -> (level, row-in-level)
        let mut coord = vec![(usize::MAX, usize::MAX); n];
        for (l, pins) in design.levels.iter().enumerate() {
            for (r, &p) in pins.iter().enumerate() {
                coord[p] = (l, r);
            }
        }
        let num_levels = design.levels.len();
        let mut levels: Vec<LevelPlan> = design
            .levels
            .iter()
            .map(|pins| LevelPlan {
                pins: pins.clone(),
                ..LevelPlan::default()
            })
            .collect();

        // Group net edges by (dest level, src level).
        let mut net_buckets: Vec<std::collections::BTreeMap<usize, EdgeGroup>> =
            vec![std::collections::BTreeMap::new(); num_levels];
        for (eid, (&s, &d)) in design.net_src.iter().zip(&design.net_dst).enumerate() {
            let (sl, sr) = coord[s];
            let (dl, dr) = coord[d];
            assert!(sl < dl, "net edge must ascend levels");
            let g = net_buckets[dl].entry(sl).or_insert_with(|| EdgeGroup {
                src_level: sl,
                ..EdgeGroup::default()
            });
            g.src_rows.push(sr);
            g.edge_ids.push(eid);
            g.dest_local.push(dr);
        }
        let mut cell_buckets: Vec<std::collections::BTreeMap<usize, EdgeGroup>> =
            vec![std::collections::BTreeMap::new(); num_levels];
        let mut cell_fed: Vec<std::collections::BTreeSet<usize>> =
            vec![std::collections::BTreeSet::new(); num_levels];
        let mut cell_edge_order = Vec::with_capacity(design.cell_src.len());
        for (eid, (&s, &d)) in design.cell_src.iter().zip(&design.cell_dst).enumerate() {
            let (sl, sr) = coord[s];
            let (dl, dr) = coord[d];
            assert!(sl < dl, "cell edge must ascend levels");
            let g = cell_buckets[dl].entry(sl).or_insert_with(|| EdgeGroup {
                src_level: sl,
                ..EdgeGroup::default()
            });
            g.src_rows.push(sr);
            g.edge_ids.push(eid);
            g.dest_local.push(dr);
            cell_fed[dl].insert(dr);
        }
        for (l, plan) in levels.iter_mut().enumerate() {
            plan.net_groups = net_buckets[l].values().cloned().collect();
            plan.cell_groups = cell_buckets[l].values().cloned().collect();
            plan.cell_fed_local = cell_fed[l].iter().copied().collect();
            for g in &plan.cell_groups {
                cell_edge_order.extend_from_slice(&g.edge_ids);
            }
        }

        // Assembly permutation: global pin id -> row in concatenated blocks.
        let mut offset = vec![0usize; num_levels];
        let mut acc = 0;
        for (l, pins) in design.levels.iter().enumerate() {
            offset[l] = acc;
            acc += pins.len();
        }
        let mut assemble = vec![0usize; n];
        for (p, &(l, r)) in coord.iter().enumerate() {
            assemble[p] = offset[l] + r;
        }

        PropPlan {
            levels,
            assemble,
            cell_edge_order,
        }
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Pins per level: the level sizes
    /// [`tp_partition::PartitionPlan::by_max_nodes`] packs into chunks.
    pub fn level_graph(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.pins.len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_data::DesignGraph;
    use tp_gen::{generate, GeneratorConfig, BENCHMARKS};
    use tp_liberty::Library;
    use tp_place::{place_circuit, PlacementConfig};
    use tp_sta::flow::run_full_flow;
    use tp_sta::StaConfig;

    fn small_design() -> DesignGraph {
        let lib = Library::synthetic_sky130(0);
        let cfg = GeneratorConfig {
            scale: 0.01,
            seed: 3,
            depth: Some(8),
        };
        let circuit = generate(&BENCHMARKS[6], &lib, &cfg); // cic_decimator
        let placement = place_circuit(&circuit, &PlacementConfig::default(), 1);
        let sta = StaConfig::default();
        let flow = run_full_flow(&circuit, &placement, &lib, &sta);
        DesignGraph::from_flow("cic", true, &circuit, &placement, &lib, &flow, &sta)
    }

    #[test]
    fn plan_covers_all_edges_and_pins() {
        let d = small_design();
        let plan = PropPlan::build(&d);
        let pins: usize = plan.levels.iter().map(|l| l.pins.len()).sum();
        assert_eq!(pins, d.num_pins);
        let net_edges: usize = plan
            .levels
            .iter()
            .flat_map(|l| &l.net_groups)
            .map(|g| g.edge_ids.len())
            .sum();
        assert_eq!(net_edges, d.num_net_edges());
        assert_eq!(plan.cell_edge_order.len(), d.num_cell_edges());
    }

    #[test]
    fn assemble_is_a_permutation() {
        let d = small_design();
        let plan = PropPlan::build(&d);
        let mut seen = vec![false; d.num_pins];
        for &r in &plan.assemble {
            assert!(!seen[r], "assembly rows must be unique");
            seen[r] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn level_zero_has_no_inputs() {
        let d = small_design();
        let plan = PropPlan::build(&d);
        assert!(plan.levels[0].net_groups.is_empty());
        assert!(plan.levels[0].cell_groups.is_empty());
    }

    /// `(src_level, src_row, edge_id)` of every edge into local row `r`,
    /// in the order a kernel folds them.
    fn in_edges(groups: &[EdgeGroup], r: usize) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        for g in groups {
            for i in 0..g.edge_ids.len() {
                if g.dest_local[i] == r {
                    out.push((g.src_level, g.src_rows[i], g.edge_ids[i]));
                }
            }
        }
        out
    }

    #[test]
    fn restrict_keeps_each_destination_in_plan_order() {
        let d = small_design();
        let plan = PropPlan::build(&d);
        for lp in &plan.levels {
            let all: Vec<usize> = (0..lp.pins.len()).collect();
            assert_eq!(
                lp.restrict(&all),
                *lp,
                "restricting to every row is the identity"
            );
            let rows: Vec<usize> = all.iter().copied().filter(|r| r % 3 != 1).collect();
            let sub = lp.restrict(&rows);
            assert_eq!(sub.pins.len(), rows.len());
            for (i, &r) in rows.iter().enumerate() {
                assert_eq!(sub.pins[i], lp.pins[r]);
                assert_eq!(in_edges(&sub.net_groups, i), in_edges(&lp.net_groups, r));
                assert_eq!(in_edges(&sub.cell_groups, i), in_edges(&lp.cell_groups, r));
                assert_eq!(
                    sub.cell_fed_local.contains(&i),
                    lp.cell_fed_local.contains(&r)
                );
            }
            let groups = sub.net_groups.iter().chain(&sub.cell_groups);
            assert!(
                groups.clone().all(|g| !g.edge_ids.is_empty()),
                "no empty groups"
            );
            assert!(groups.flat_map(|g| &g.dest_local).all(|&i| i < rows.len()));
        }
    }

    #[test]
    fn groups_reference_earlier_levels_only() {
        let d = small_design();
        let plan = PropPlan::build(&d);
        for (l, lp) in plan.levels.iter().enumerate() {
            for g in lp.net_groups.iter().chain(&lp.cell_groups) {
                assert!(g.src_level < l);
                assert_eq!(g.src_rows.len(), g.edge_ids.len());
                assert_eq!(g.src_rows.len(), g.dest_local.len());
                for &sr in &g.src_rows {
                    assert!(sr < plan.levels[g.src_level].pins.len());
                }
                for &dr in &g.dest_local {
                    assert!(dr < lp.pins.len());
                }
            }
        }
    }
}
