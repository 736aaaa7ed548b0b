//! Buffer-pool counters, kept only so that existing readers of [`stats`]
//! (the repository benchmark's `infer_full` workload) still build.
//!
//! The crate has no buffer pool: every op allocates its output with
//! `vec![0.0; n]` and frees it on drop. [`stats`] therefore always reports
//! zeros, and [`reset_stats`] does nothing.

/// Pool counters; every field is always zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Allocations served from a free list.
    pub hits: u64,
    /// Allocations that fell through to the allocator.
    pub misses: u64,
    /// Bytes currently retained in free lists.
    pub held_bytes: u64,
    /// Peak bytes ever retained at once.
    pub high_water_bytes: u64,
}

/// The pool counters: all zero.
pub fn stats() -> PoolStats {
    PoolStats::default()
}

/// Resets the pool counters (a no-op: they are always zero).
pub fn reset_stats() {}
