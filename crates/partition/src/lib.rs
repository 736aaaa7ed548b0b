//! Order-preserving partitioning of level-ordered DAGs.
//!
//! The timing graphs in this workspace (GNN propagation plans, STA
//! topologies) are processed level by level: every node of level `l`
//! depends only on nodes of strictly lower levels. At `TP_SCALE=1.0` a
//! design holds hundreds of thousands of pins, and keeping every level's
//! state resident at once is what blows past memory. Following PreRoutGNN's
//! *order-preserving partition*, this crate cuts the level sequence into
//! **chunks of consecutive levels** whose node totals respect a budget and
//! computes, per chunk, the **frontier**: the earlier levels whose state
//! must stay resident because a later chunk still reads them. Everything
//! else is releasable the moment its last reader chunk finishes.
//!
//! The partition is *pure scheduling metadata*. Executors (tp-gnn's
//! streaming propagation, tp-sta's chunked sweeps) walk levels in exactly
//! the same order at any chunk size — the plan only tells them where chunk
//! boundaries fall and what may be freed — which is how the workspace's
//! bit-identity contract survives partitioning: `TP_PARTITION_NODES=0`
//! (monolithic) and any positive budget produce the same bits.
//!
//! The crate sits just above `tp-tensor` (whose buffer pool it reports on)
//! and `tp-obs` (where it publishes chunk/frontier/pool gauges), so both
//! tp-gnn and tp-sta can depend on it without cycles.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Level-granularity view of a DAG: how many nodes sit at each level, and
/// which level-to-level data dependencies exist (`src < dst` always).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelGraph {
    level_nodes: Vec<usize>,
    deps: Vec<(usize, usize)>,
}

impl LevelGraph {
    /// Builds a level graph from per-level node counts and cross-level
    /// dependency pairs `(src_level, dst_level)`.
    ///
    /// # Panics
    ///
    /// Panics if any dependency does not ascend levels (`src >= dst`) or
    /// references a level out of range.
    pub fn new(level_nodes: Vec<usize>, deps: Vec<(usize, usize)>) -> LevelGraph {
        let n = level_nodes.len();
        for &(s, d) in &deps {
            assert!(s < d, "level dependency must ascend: {s} -> {d}");
            assert!(d < n, "dependency level {d} out of range {n}");
        }
        LevelGraph { level_nodes, deps }
    }

    /// A level graph with no recorded cross-level dependencies (used where
    /// state is flat arrays and nothing is ever released, e.g. STA sweeps).
    pub fn from_level_sizes(level_nodes: Vec<usize>) -> LevelGraph {
        LevelGraph {
            level_nodes,
            deps: Vec::new(),
        }
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.level_nodes.len()
    }

    /// Nodes at each level.
    pub fn level_nodes(&self) -> &[usize] {
        &self.level_nodes
    }

    /// Total node count.
    pub fn total_nodes(&self) -> usize {
        self.level_nodes.iter().sum()
    }
}

/// One chunk of consecutive levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Half-open level range `[start, end)` this chunk executes.
    pub levels: Range<usize>,
    /// Nodes across the chunk's own levels.
    pub nodes: usize,
    /// Nodes of *earlier* chunks that must still be resident when this
    /// chunk starts (levels whose last reader is in this chunk or later).
    pub frontier_nodes: usize,
}

/// An order-preserving execution plan: consecutive-level chunks, per-level
/// last readers, and per-chunk release lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    level_nodes: Vec<usize>,
    chunks: Vec<Chunk>,
    /// `last_use[l]`: the highest level that reads level `l`'s state
    /// (at least `l` itself).
    last_use: Vec<usize>,
    /// `release_after[c]`: levels whose state has no reader beyond chunk
    /// `c` — safe to free once the chunk completes.
    release_after: Vec<Vec<usize>>,
    /// Peak resident nodes across the plan: `max_c(frontier_c + nodes_c)`.
    max_live_nodes: usize,
    budget: usize,
}

impl PartitionPlan {
    /// Greedy packing: accumulate consecutive levels while the chunk's node
    /// total stays within `max_nodes`. A single level larger than the
    /// budget forms its own chunk (level order is never broken). A budget
    /// of `0` means "no partitioning": one chunk spanning every level.
    pub fn by_max_nodes(graph: &LevelGraph, max_nodes: usize) -> PartitionPlan {
        let n = graph.num_levels();
        let mut boundaries = Vec::new();
        if max_nodes == 0 || n == 0 {
            if n > 0 {
                boundaries.push(n);
            }
            return PartitionPlan::from_boundaries(graph, &boundaries, max_nodes);
        }
        let mut acc = 0usize;
        for (l, &sz) in graph.level_nodes.iter().enumerate() {
            if acc > 0 && acc + sz > max_nodes {
                boundaries.push(l); // close the open chunk before level l
                acc = 0;
            }
            acc += sz;
        }
        boundaries.push(n);
        PartitionPlan::from_boundaries(graph, &boundaries, max_nodes)
    }

    /// Fixed-width packing: every chunk spans `levels_per_chunk` levels
    /// (the last may be shorter). `0` is treated as "whole graph". Test
    /// and bench hook for exercising exact chunk shapes.
    pub fn by_levels_per_chunk(graph: &LevelGraph, levels_per_chunk: usize) -> PartitionPlan {
        let n = graph.num_levels();
        let w = if levels_per_chunk == 0 { n.max(1) } else { levels_per_chunk };
        let mut boundaries: Vec<usize> = (1..=n / w.max(1)).map(|i| i * w).collect();
        if boundaries.last() != Some(&n) && n > 0 {
            boundaries.push(n);
        }
        PartitionPlan::from_boundaries(graph, &boundaries, 0)
    }

    /// `boundaries` are the exclusive end levels of each chunk, ascending,
    /// ending at `num_levels`.
    fn from_boundaries(graph: &LevelGraph, boundaries: &[usize], budget: usize) -> PartitionPlan {
        let n = graph.num_levels();
        let mut last_use: Vec<usize> = (0..n).collect();
        for &(s, d) in &graph.deps {
            if d > last_use[s] {
                last_use[s] = d;
            }
        }

        // level -> owning chunk
        let mut chunk_of = vec![0usize; n];
        let mut start = 0;
        for (ci, &end) in boundaries.iter().enumerate() {
            assert!(end > start && end <= n, "bad chunk boundary {end}");
            for c in &mut chunk_of[start..end] {
                *c = ci;
            }
            start = end;
        }
        assert!(n == 0 || start == n, "boundaries must cover all levels");

        let num_chunks = boundaries.len();
        let mut release_after: Vec<Vec<usize>> = vec![Vec::new(); num_chunks];
        for l in 0..n {
            release_after[chunk_of[last_use[l]]].push(l);
        }

        let mut chunks = Vec::with_capacity(num_chunks);
        let mut max_live = 0usize;
        let mut start = 0;
        for &end in boundaries {
            let nodes: usize = graph.level_nodes[start..end].iter().sum();
            // Frontier: earlier levels still alive when this chunk starts.
            let frontier_nodes: usize = (0..start)
                .filter(|&l| last_use[l] >= start)
                .map(|l| graph.level_nodes[l])
                .sum();
            max_live = max_live.max(frontier_nodes + nodes);
            chunks.push(Chunk {
                levels: start..end,
                nodes,
                frontier_nodes,
            });
            start = end;
        }

        PartitionPlan {
            level_nodes: graph.level_nodes.clone(),
            chunks,
            last_use,
            release_after,
            max_live_nodes: max_live,
            budget,
        }
    }

    /// The chunks, in execution order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Whether the plan is a single chunk (equivalent to no partitioning).
    pub fn is_monolithic(&self) -> bool {
        self.chunks.len() <= 1
    }

    /// The highest level that reads level `l`'s state.
    pub fn last_use(&self, l: usize) -> usize {
        self.last_use[l]
    }

    /// Levels safe to release once chunk `ci` completes.
    pub fn release_after(&self, ci: usize) -> &[usize] {
        &self.release_after[ci]
    }

    /// Peak simultaneously-resident nodes under streaming execution.
    pub fn max_live_nodes(&self) -> usize {
        self.max_live_nodes
    }

    /// The node budget this plan was built with (0 for fixed-width plans).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of levels covered.
    pub fn num_levels(&self) -> usize {
        self.level_nodes.len()
    }

    /// Publishes the plan's shape as tp-obs gauges under `prefix`
    /// (`<prefix>.chunks`, `.max_live_nodes`, `.budget`). No-op while
    /// observability is disabled.
    pub fn publish(&self, prefix: &str) {
        if !tp_obs::is_enabled() {
            return;
        }
        tp_obs::metrics::gauge_set(&format!("{prefix}.chunks"), self.chunks.len() as f64);
        tp_obs::metrics::gauge_set(
            &format!("{prefix}.max_live_nodes"),
            self.max_live_nodes as f64,
        );
        tp_obs::metrics::gauge_set(&format!("{prefix}.budget"), self.budget as f64);
    }
}

// ---------------------------------------------------------------------------
// The TP_PARTITION_NODES knob
// ---------------------------------------------------------------------------

/// Programmatic override for [`partition_nodes`] (`usize::MAX` = unset,
/// mirroring `tp_par::set_threads`' override pattern).
static PARTITION_OVERRIDE: AtomicUsize = AtomicUsize::new(usize::MAX);

/// The active partition budget in nodes: the [`set_partition_nodes`]
/// override if set, else `TP_PARTITION_NODES`, else `0`.
///
/// `0` means no budget: [`PartitionPlan::by_max_nodes`] returns the whole
/// graph as one chunk, and no-grad GNN inference does not stream.
pub fn partition_nodes() -> usize {
    let over = PARTITION_OVERRIDE.load(Ordering::Relaxed);
    if over != usize::MAX {
        return over;
    }
    std::env::var("TP_PARTITION_NODES")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(0)
}

/// Overrides the partition budget process-wide (0 = force monolithic).
pub fn set_partition_nodes(n: usize) {
    PARTITION_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Clears the override, restoring `TP_PARTITION_NODES` / default behavior.
pub fn clear_partition_nodes() {
    PARTITION_OVERRIDE.store(usize::MAX, Ordering::Relaxed);
}

/// Publishes the tensor buffer-pool counters as tp-obs gauges
/// (`tensor.pool.hits`, `.misses`, `.recycled`, `.dropped`, `.held_bytes`,
/// `.high_water_bytes`). No-op while observability is disabled.
pub fn publish_pool_stats() {
    if !tp_obs::is_enabled() {
        return;
    }
    let s = tp_tensor::pool::stats();
    tp_obs::metrics::gauge_set("tensor.pool.hits", s.hits as f64);
    tp_obs::metrics::gauge_set("tensor.pool.misses", s.misses as f64);
    tp_obs::metrics::gauge_set("tensor.pool.recycled", s.recycled as f64);
    tp_obs::metrics::gauge_set("tensor.pool.dropped", s.dropped as f64);
    tp_obs::metrics::gauge_set("tensor.pool.held_bytes", s.held_bytes as f64);
    tp_obs::metrics::gauge_set("tensor.pool.high_water_bytes", s.high_water_bytes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(sizes: &[usize]) -> LevelGraph {
        // each level feeds the next, like a simple pipeline
        let deps = (1..sizes.len()).map(|l| (l - 1, l)).collect();
        LevelGraph::new(sizes.to_vec(), deps)
    }

    #[test]
    fn budget_zero_is_monolithic() {
        let g = chain(&[5, 7, 3]);
        let p = PartitionPlan::by_max_nodes(&g, 0);
        assert!(p.is_monolithic());
        assert_eq!(p.chunks().len(), 1);
        assert_eq!(p.chunks()[0].levels, 0..3);
        assert_eq!(p.chunks()[0].nodes, 15);
        assert_eq!(p.max_live_nodes(), 15);
    }

    #[test]
    fn greedy_packing_respects_budget_and_order() {
        let g = chain(&[4, 4, 4, 4, 4]);
        let p = PartitionPlan::by_max_nodes(&g, 8);
        let ranges: Vec<_> = p.chunks().iter().map(|c| c.levels.clone()).collect();
        assert_eq!(ranges, vec![0..2, 2..4, 4..5]);
        assert!(p.chunks().iter().all(|c| c.nodes <= 8));
        // covered levels are exactly 0..n in order
        let covered: Vec<usize> = p.chunks().iter().flat_map(|c| c.levels.clone()).collect();
        assert_eq!(covered, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn oversized_level_gets_own_chunk() {
        let g = chain(&[2, 100, 2]);
        let p = PartitionPlan::by_max_nodes(&g, 10);
        let ranges: Vec<_> = p.chunks().iter().map(|c| c.levels.clone()).collect();
        assert_eq!(ranges, vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn chain_frontier_is_previous_level_only() {
        let g = chain(&[3, 5, 7, 9]);
        let p = PartitionPlan::by_levels_per_chunk(&g, 1);
        let frontiers: Vec<usize> = p.chunks().iter().map(|c| c.frontier_nodes).collect();
        // chunk l's frontier is exactly level l-1 (its only live reader input)
        assert_eq!(frontiers, vec![0, 3, 5, 7]);
        assert_eq!(p.max_live_nodes(), 7 + 9);
    }

    #[test]
    fn long_range_dep_extends_residency() {
        // level 0 read by level 3: it must survive chunks 0..=3
        let g = LevelGraph::new(vec![10, 1, 1, 1], vec![(0, 3), (1, 2), (2, 3)]);
        let p = PartitionPlan::by_levels_per_chunk(&g, 1);
        assert_eq!(p.last_use(0), 3);
        assert_eq!(p.chunks()[3].frontier_nodes, 10 + 1);
        assert!(p.release_after(0).is_empty());
        assert_eq!(p.release_after(3), &[0, 2, 3]);
    }

    #[test]
    fn release_lists_cover_every_level_once() {
        let g = LevelGraph::new(vec![2; 7], vec![(0, 6), (1, 2), (2, 4), (3, 4), (4, 5), (5, 6)]);
        for width in 1..=7 {
            let p = PartitionPlan::by_levels_per_chunk(&g, width);
            let mut released: Vec<usize> = (0..p.chunks().len())
                .flat_map(|c| p.release_after(c).to_vec())
                .collect();
            released.sort_unstable();
            assert_eq!(released, (0..7).collect::<Vec<_>>(), "width {width}");
            // no level released before its own chunk or its last reader's
            for c in 0..p.chunks().len() {
                for &l in p.release_after(c) {
                    assert!(p.chunks()[c].levels.end > l);
                    assert!(p.last_use(l) < p.chunks()[c].levels.end);
                }
            }
        }
    }

    #[test]
    fn degenerate_single_level() {
        let g = LevelGraph::new(vec![42], vec![]);
        for plan in [
            PartitionPlan::by_max_nodes(&g, 1),
            PartitionPlan::by_max_nodes(&g, 0),
            PartitionPlan::by_levels_per_chunk(&g, 3),
        ] {
            assert_eq!(plan.chunks().len(), 1);
            assert_eq!(plan.chunks()[0].nodes, 42);
            assert_eq!(plan.max_live_nodes(), 42);
        }
    }

    #[test]
    fn degenerate_single_node_and_empty() {
        let g = LevelGraph::new(vec![1], vec![]);
        let p = PartitionPlan::by_max_nodes(&g, 1);
        assert_eq!(p.max_live_nodes(), 1);

        let empty = LevelGraph::new(vec![], vec![]);
        let p = PartitionPlan::by_max_nodes(&empty, 4);
        assert!(p.chunks().is_empty());
        assert_eq!(p.max_live_nodes(), 0);
    }

    #[test]
    fn disconnected_levels_release_immediately() {
        // no deps at all: every level's last use is itself
        let g = LevelGraph::from_level_sizes(vec![3, 3, 3]);
        let p = PartitionPlan::by_levels_per_chunk(&g, 1);
        for c in 0..3 {
            assert_eq!(p.chunks()[c].frontier_nodes, 0);
            assert_eq!(p.release_after(c), &[c]);
        }
        assert_eq!(p.max_live_nodes(), 3);
    }

    #[test]
    #[should_panic(expected = "must ascend")]
    fn non_ascending_dep_panics() {
        let _ = LevelGraph::new(vec![1, 1], vec![(1, 1)]);
    }

    #[test]
    fn knob_override_wins_over_env() {
        clear_partition_nodes();
        set_partition_nodes(123);
        assert_eq!(partition_nodes(), 123);
        set_partition_nodes(0);
        assert_eq!(partition_nodes(), 0);
        clear_partition_nodes();
    }
}
