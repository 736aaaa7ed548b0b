//! Order-preserving grouping of level-ordered DAGs into chunks.
//!
//! The GNN propagation plan is processed level by level: every node of
//! level `l` depends only on nodes of strictly lower levels. Following
//! PreRoutGNN's *order-preserving partition*, this crate cuts the level
//! sequence into **chunks of consecutive levels** whose node totals
//! respect a budget, `TP_PARTITION_NODES`.
//!
//! A chunk is a grouping of iterations, never a reordering: tp-gnn's
//! propagation walks the levels in the same ascending order at every
//! budget and only opens one `prop_chunk` trace span per chunk, so
//! `TP_PARTITION_NODES=0` (one chunk) and any positive budget run the same
//! ops and produce the same bits.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One chunk of consecutive levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Half-open level range `[start, end)` this chunk covers.
    pub levels: Range<usize>,
    /// Nodes across the chunk's levels.
    pub nodes: usize,
}

/// An order-preserving plan: consecutive-level chunks covering every level
/// exactly once, in ascending order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    chunks: Vec<Chunk>,
    budget: usize,
}

impl PartitionPlan {
    /// Greedy packing of levels with `level_nodes[l]` nodes each:
    /// accumulate consecutive levels while the chunk's node total stays
    /// within `max_nodes`; a chunk with no nodes yet always takes the next
    /// level, so a single level larger than the budget forms its own chunk
    /// (level order is never broken). A budget of `0` means "no
    /// partitioning": one chunk spanning every level.
    pub fn by_max_nodes(level_nodes: &[usize], max_nodes: usize) -> PartitionPlan {
        let mut chunks: Vec<Chunk> = Vec::new();
        for (l, &size) in level_nodes.iter().enumerate() {
            match chunks.last_mut() {
                Some(c) if max_nodes == 0 || c.nodes == 0 || c.nodes + size <= max_nodes => {
                    c.levels.end = l + 1;
                    c.nodes += size;
                }
                _ => chunks.push(Chunk {
                    levels: l..l + 1,
                    nodes: size,
                }),
            }
        }
        PartitionPlan {
            chunks,
            budget: max_nodes,
        }
    }

    /// The chunks, in execution order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Publishes the plan's shape as tp-obs gauges under `prefix`
    /// (`<prefix>.chunks`, `.budget`). No-op while observability is
    /// disabled.
    pub fn publish(&self, prefix: &str) {
        if !tp_obs::is_enabled() {
            return;
        }
        tp_obs::metrics::gauge_set(&format!("{prefix}.chunks"), self.chunks.len() as f64);
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
/// graph as one chunk.
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

/// Overrides the partition budget process-wide (0 = one chunk).
pub fn set_partition_nodes(n: usize) {
    PARTITION_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Clears the override, restoring `TP_PARTITION_NODES` / default behavior.
pub fn clear_partition_nodes() {
    PARTITION_OVERRIDE.store(usize::MAX, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranges(p: &PartitionPlan) -> Vec<Range<usize>> {
        p.chunks().iter().map(|c| c.levels.clone()).collect()
    }

    #[test]
    fn budget_zero_is_monolithic() {
        let p = PartitionPlan::by_max_nodes(&[5, 7, 3], 0);
        assert_eq!(p.chunks().len(), 1);
        assert_eq!(p.chunks()[0].levels, 0..3);
        assert_eq!(p.chunks()[0].nodes, 15);
    }

    #[test]
    fn greedy_packing_respects_budget_and_order() {
        let p = PartitionPlan::by_max_nodes(&[4, 4, 4, 4, 4], 8);
        assert_eq!(ranges(&p), vec![0..2, 2..4, 4..5]);
        assert!(p.chunks().iter().all(|c| c.nodes <= 8));
        // covered levels are exactly 0..n in order
        let covered: Vec<usize> = p.chunks().iter().flat_map(|c| c.levels.clone()).collect();
        assert_eq!(covered, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn oversized_level_gets_own_chunk() {
        let p = PartitionPlan::by_max_nodes(&[2, 100, 2], 10);
        assert_eq!(ranges(&p), vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn degenerate_single_level() {
        for plan in [
            PartitionPlan::by_max_nodes(&[42], 1),
            PartitionPlan::by_max_nodes(&[42], 0),
        ] {
            assert_eq!(plan.chunks().len(), 1);
            assert_eq!(plan.chunks()[0].nodes, 42);
        }
    }

    #[test]
    fn degenerate_single_node_and_empty() {
        let p = PartitionPlan::by_max_nodes(&[1], 1);
        assert_eq!(ranges(&p), vec![0..1]);

        let p = PartitionPlan::by_max_nodes(&[], 4);
        assert!(p.chunks().is_empty());
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
