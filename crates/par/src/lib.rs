//! A deterministic scoped fork-join thread pool (std-only, zero deps).
//!
//! `tp-par` parallelizes the workspace's hot loops — levelized STA sweeps,
//! per-net routing, per-design generation, dense matmul — without giving up
//! the hermetic-determinism guarantee `tests/determinism.rs` enforces. The
//! design is shaped by one contract:
//!
//! > **Every result is bit-identical at any thread count.**
//!
//! Three rules make that possible:
//!
//! 1. **Static chunking.** Chunk boundaries are a pure function of the
//!    input length and the configured thread count — never of
//!    scheduling. Workers *claim* chunks dynamically (an atomic
//!    counter), but which items form a chunk is fixed up front.
//! 2. **Ordered merge.** [`map_items`] writes each result into its own
//!    pre-allocated slot and hands the vector back in index order, so no
//!    output ever depends on which worker finished first.
//! 3. **Ordered reduction.** Parallel regions do independent per-item work;
//!    any floating-point fold stays serial, in index order.
//!
//! The worker count comes from `TP_THREADS` (default:
//! `std::thread::available_parallelism`), overridable at runtime with
//! [`set_threads`] so one process can compare thread counts (the
//! determinism tests do exactly that). `TP_THREADS=1` runs every region
//! inline — the pure serial baseline.
//!
//! Panics in a worker are captured and re-raised on the submitting thread
//! ([`std::panic::resume_unwind`]); every lock acquisition recovers from
//! poisoning (`PoisonError::into_inner`), so a panicking region leaves the
//! pool usable — there is no state to corrupt beyond the job that died.
//!
//! Nested parallel regions (a worker calling back into `tp-par`) run
//! inline on the worker; fork-join nesting never deadlocks on pool
//! capacity.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Poison-safe lock: a panic while holding the mutex must not take the
/// pool down with it — the protected state (a work queue, a panic slot)
/// is always valid at rest.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Panic capture at isolation boundaries
// ---------------------------------------------------------------------------

/// A panic caught at an isolation boundary, reduced to its message.
///
/// The pool itself re-raises worker panics on the submitting thread
/// (first panic wins), which is right for regions that share one fate.
/// Fault-*isolating* callers — a sweep engine quarantining one grid cell
/// while its siblings continue — instead want the panic as a value they
/// can account for. [`catch_isolated`] produces this type; the message is
/// extracted eagerly because the payload itself is neither `Clone` nor
/// meaningfully inspectable past the common `&str`/`String` cases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedPanic {
    /// The panic message (`&str`/`String` payloads verbatim, a fixed
    /// placeholder for anything else).
    pub message: String,
}

impl std::fmt::Display for CapturedPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "panic: {}", self.message)
    }
}

/// The message carried by a panic payload: `&str` and `String` payloads
/// verbatim, `"non-string panic payload"` otherwise.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f`, converting a panic into a [`CapturedPanic`] instead of
/// unwinding past the caller.
///
/// This is the fault-isolation primitive: a closure that dies leaves the
/// caller (and, when run on a pool worker, the pool — whose locks all
/// recover from poisoning) fully usable, with the failure reported as a
/// value for retry/quarantine accounting.
pub fn catch_isolated<R>(f: impl FnOnce() -> R) -> Result<R, CapturedPanic> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| CapturedPanic {
        message: panic_message(payload.as_ref()),
    })
}

// ---------------------------------------------------------------------------
// Thread-count configuration
// ---------------------------------------------------------------------------

/// Runtime override installed by [`set_threads`]; 0 means "use the
/// environment default".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

fn env_default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        match std::env::var("TP_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    })
}

/// The effective worker count: the [`set_threads`] override if one is
/// active, else `TP_THREADS`, else `available_parallelism`.
///
/// This is the count chunk boundaries are derived from — but note that by
/// the determinism contract its value never changes any numeric result,
/// only how the work is cut up.
pub fn threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => env_default_threads(),
        n => n,
    }
}

/// Overrides the worker count at runtime (`0` clears the override and
/// returns to the `TP_THREADS`/`available_parallelism` default).
///
/// Exists so a single process can prove the determinism contract by
/// running the same workload at different thread counts; production code
/// should configure `TP_THREADS` instead.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Number of hardware execution units actually available to this process
/// (`available_parallelism`, cached). Distinct from [`threads`]: a user may
/// pin `TP_THREADS=4` on a 1-core container to exercise the pool, but no
/// wall-clock win is possible there — [`CostModel::predicts_win`] consults
/// this to tell "can parallelize" apart from "will profit".
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

// ---------------------------------------------------------------------------
// Deterministic chunking
// ---------------------------------------------------------------------------

/// Splits `0..len` into at most `parts` contiguous ranges whose lengths
/// differ by at most one (the first `len % parts` ranges get the extra
/// item). A pure function of its arguments — the determinism contract's
/// "static chunking" rule.
fn split_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    if len == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(len);
    let q = len / parts;
    let r = len % parts;
    (0..parts)
        .map(|c| {
            let start = c * q + c.min(r);
            let end = start + q + usize::from(c < r);
            start..end
        })
        .collect()
}

/// [`split_ranges`] at the current [`threads`] count.
fn chunk_ranges(len: usize) -> Vec<Range<usize>> {
    split_ranges(len, threads())
}

// ---------------------------------------------------------------------------
// Adaptive granularity: the per-site cost model
// ---------------------------------------------------------------------------

/// Minimum predicted work, in nanoseconds, each *forked chunk* must carry
/// before a region is worth handing to the pool (100 µs). Below one grain
/// the fork-join handoff dominates; the grain is also the target chunk
/// size, so chunk counts shrink with the region instead of always fanning
/// to every worker.
const GRAIN_NS: f64 = 100_000.0;

/// Dispatch decision for one region: run it on the calling thread or fork
/// `chunks` pieces to the pool. The decision only moves work between
/// threads — per-item arithmetic and merge order are fixed — so it can
/// never change a result (the determinism contract's third rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    /// Run serially on the submitting thread.
    Inline,
    /// Fork into this many chunks (≥ 2, ≤ [`threads`], ≤ items).
    Fork {
        /// Number of statically-cut chunks to schedule.
        chunks: usize,
    },
}

/// A per-dispatch-site adaptive cost model.
///
/// Each parallel call site owns one `static CostModel` seeded with a rough
/// ns-per-unit estimate; after every region the model folds the *measured*
/// per-unit cost into an exponential moving average. The model then
/// sizes regions in wall-clock terms: fork only when the predicted
/// region cost covers at least two 100 µs grains, and cut only as
/// many chunks as the work can fill — small regions run inline instead of
/// paying the fork-join handoff, which is exactly what made `TP_THREADS=4`
/// lose to `=1` on small-scale suites under fixed item-count thresholds.
///
/// A "unit" is whatever the site's cost is proportional to (matmul
/// multiply-adds, STA pins, routed net sinks); "items" is what the region
/// is split over. Measurements feed scheduling only — never results — so
/// the adaptation cannot violate bit-identity.
#[derive(Debug)]
pub struct CostModel {
    name: &'static str,
    initial_ns_per_unit: f64,
    /// EWMA of measured ns/unit as `f64` bits; 0 = no measurement yet
    /// (positive finite floats never encode to 0).
    ewma_bits: AtomicU64,
}

impl CostModel {
    /// Creates a model for one dispatch site. `initial_ns_per_unit` seeds
    /// the estimate until the first measurement lands.
    pub const fn new(name: &'static str, initial_ns_per_unit: f64) -> CostModel {
        CostModel {
            name,
            initial_ns_per_unit,
            ewma_bits: AtomicU64::new(0),
        }
    }

    /// Current ns-per-unit estimate (the seed until a region has run).
    fn ns_per_unit(&self) -> f64 {
        match self.ewma_bits.load(Ordering::Relaxed) {
            0 => self.initial_ns_per_unit,
            bits => f64::from_bits(bits),
        }
    }

    /// Predicted wall-clock cost of a region covering `units`.
    pub fn predicted_ns(&self, units: u64) -> f64 {
        self.ns_per_unit() * units as f64
    }

    /// Folds one measured region into the moving average. Lost updates
    /// under concurrent recording are harmless — this steers scheduling,
    /// never arithmetic.
    pub fn record(&self, units: u64, elapsed_ns: u64) {
        if units == 0 {
            return;
        }
        let sample = elapsed_ns as f64 / units as f64;
        let next = match self.ewma_bits.load(Ordering::Relaxed) {
            0 => sample,
            bits => 0.8 * f64::from_bits(bits) + 0.2 * sample,
        };
        self.ewma_bits
            .store(next.max(1e-3).to_bits(), Ordering::Relaxed);
    }

    /// Sizes a region of `items` splittable pieces predicted to cost
    /// `units · ns_per_unit`: inline below two grains, otherwise fork one
    /// chunk per grain, capped by [`threads`] and `items`.
    fn plan(&self, items: usize, units: u64) -> Plan {
        plan_for(threads(), items, self.predicted_ns(units))
    }

    /// Whether forking this region should *win wall-clock time*, i.e. the
    /// region is big enough to fork **and** the hardware can actually run
    /// chunks concurrently. On a 1-core machine `TP_THREADS=4` still forks
    /// (so the pool stays exercised) but can never profit; regression
    /// tests gate their speedup assertions on this.
    pub fn predicts_win(&self, items: usize, units: u64) -> bool {
        let concurrency = threads().min(hardware_threads());
        matches!(
            plan_for(concurrency, items, self.predicted_ns(units)),
            Plan::Fork { .. }
        )
    }
}

/// The pure decision kernel behind [`CostModel::plan`].
fn plan_for(workers: usize, items: usize, predicted_ns: f64) -> Plan {
    if workers <= 1 || items < 2 {
        return Plan::Inline;
    }
    let by_cost = (predicted_ns / GRAIN_NS) as usize;
    let chunks = by_cost.min(workers).min(items);
    if chunks < 2 {
        Plan::Inline
    } else {
        Plan::Fork { chunks }
    }
}

// ---------------------------------------------------------------------------
// Region observer (tp-obs bridge without a tp-obs dependency)
// ---------------------------------------------------------------------------

/// Shape of one executed parallel region, reported to the observer hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionStats {
    /// Total items the region covered.
    pub items: usize,
    /// Number of chunks the items were split into.
    pub chunks: usize,
    /// Smallest chunk, in items.
    pub min_chunk: usize,
    /// Largest chunk, in items (max − min ≤ 1 by construction; the hook
    /// records it anyway so the invariant is observable).
    pub max_chunk: usize,
    /// Whether the cost model ran this region inline on the submitting
    /// thread instead of forking it (always `false` for the non-costed
    /// entry points, which decide by thread count alone).
    pub inlined: bool,
    /// Cost-model site name; empty for non-costed regions.
    pub site: &'static str,
}

static OBSERVER: OnceLock<fn(&RegionStats)> = OnceLock::new();

/// Installs a process-wide region observer (first caller wins; returns
/// whether this call installed it). tp-par has no dependencies, so the
/// tp-obs `par.*` metrics bridge lives in a crate that sees both and
/// registers itself here.
pub fn set_observer(hook: fn(&RegionStats)) -> bool {
    OBSERVER.set(hook).is_ok()
}

fn observe_site(items: usize, ranges: &[Range<usize>], inlined: bool, site: &'static str) {
    if let Some(hook) = OBSERVER.get() {
        let mut min_chunk = usize::MAX;
        let mut max_chunk = 0usize;
        for r in ranges {
            min_chunk = min_chunk.min(r.len());
            max_chunk = max_chunk.max(r.len());
        }
        hook(&RegionStats {
            items,
            chunks: ranges.len(),
            min_chunk: if ranges.is_empty() { 0 } else { min_chunk },
            max_chunk,
            inlined,
            site,
        });
    }
}

/// Reports a region the cost model kept inline (one "chunk" covering all
/// items on the submitting thread).
fn observe_inline(items: usize, site: &'static str) {
    if OBSERVER.get().is_some() {
        observe_site(items, std::slice::from_ref(&(0..items)), true, site);
    }
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// One submitted fork-join region. Workers (and the submitting thread)
/// claim chunk indices from `next` until exhausted; the last finisher
/// flips `done`.
struct Job {
    /// Type- and lifetime-erased chunk body. Only dereferenced for chunk
    /// indices `< chunks`, all of which complete before `execute` returns,
    /// so the pointee outlives every dereference. Stale queue entries
    /// popped later see `next >= chunks` and never touch it.
    func: *const (dyn Fn(usize) + Sync),
    chunks: usize,
    next: AtomicUsize,
    finished: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: `func` is only dereferenced while the submitting thread blocks
// in `execute`, which keeps the closure (and everything it borrows) alive;
// all other fields are Sync synchronization primitives.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs chunks until none remain. Called by workers and by
    /// the submitting thread (which participates instead of idling).
    fn run(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                return;
            }
            // SAFETY: i < chunks, so the submitter is still blocked in
            // `execute` and the closure is alive (see `func` docs).
            let f = unsafe { &*self.func };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                let mut slot = lock_recover(&self.panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            if self.finished.fetch_add(1, Ordering::AcqRel) + 1 == self.chunks {
                *lock_recover(&self.done) = true;
                self.done_cv.notify_all();
            }
        }
    }
}

struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_cv: Condvar,
    spawned: Mutex<usize>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

thread_local! {
    /// Set inside pool workers so nested regions run inline instead of
    /// re-entering the pool (fork-join nesting must never deadlock).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

impl Pool {
    /// Lazily grows the worker set to `target` threads; returns how many
    /// actually exist (spawn failure degrades to fewer helpers — the
    /// submitting thread completes any job on its own regardless).
    fn ensure_workers(&'static self, target: usize) -> usize {
        let mut n = lock_recover(&self.spawned);
        while *n < target {
            let spawned = std::thread::Builder::new()
                .name(format!("tp-par-{}", *n))
                .spawn(|| self.worker_loop())
                .is_ok();
            if !spawned {
                break;
            }
            *n += 1;
        }
        *n
    }

    fn worker_loop(&self) {
        IN_WORKER.with(|w| w.set(true));
        loop {
            let job = {
                let mut q = lock_recover(&self.queue);
                loop {
                    if let Some(job) = q.pop_front() {
                        break job;
                    }
                    q = self
                        .queue_cv
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            job.run();
        }
    }
}

/// Runs `f(0), f(1), …, f(chunks-1)`, each exactly once, possibly on pool
/// workers. Blocks until all chunks finish; re-raises the first captured
/// panic on the calling thread.
fn execute(chunks: usize, f: &(dyn Fn(usize) + Sync)) {
    if chunks == 0 {
        return;
    }
    let serial = chunks == 1 || threads() <= 1 || IN_WORKER.with(|w| w.get());
    if serial {
        for i in 0..chunks {
            f(i);
        }
        return;
    }
    let pool = pool();
    let helpers = pool.ensure_workers(threads() - 1).min(chunks - 1);
    if helpers == 0 {
        for i in 0..chunks {
            f(i);
        }
        return;
    }
    // SAFETY: lifetime erasure only; `execute` does not return until every
    // chunk has completed, so the 'static claim is never observable.
    let func: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
    };
    let job = Arc::new(Job {
        func,
        chunks,
        next: AtomicUsize::new(0),
        finished: AtomicUsize::new(0),
        panic: Mutex::new(None),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    });
    {
        let mut q = lock_recover(&pool.queue);
        for _ in 0..helpers {
            q.push_back(job.clone());
        }
    }
    pool.queue_cv.notify_all();
    job.run(); // the submitter works too
    let mut done = lock_recover(&job.done);
    while !*done {
        done = job
            .done_cv
            .wait(done)
            .unwrap_or_else(PoisonError::into_inner);
    }
    drop(done);
    let payload = lock_recover(&job.panic).take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

// ---------------------------------------------------------------------------
// High-level API
// ---------------------------------------------------------------------------

/// Slot vector the chunks write into; disjoint indices, merged in order.
struct Slots<'a, R>(&'a [UnsafeCell<Option<R>>]);

// SAFETY: chunk ranges are disjoint, so no two threads ever touch the
// same slot; `R: Send` lets the value cross back to the submitter.
unsafe impl<R: Send> Sync for Slots<'_, R> {}

impl<R> Slots<'_, R> {
    /// Stores `value` into slot `i`.
    ///
    /// # Safety
    ///
    /// The caller must be the only thread writing slot `i` (guaranteed by
    /// tp-par's disjoint chunk ranges). A method rather than field access
    /// so closures capture the whole `Slots` (whose `Sync` impl carries
    /// the disjointness argument), not the raw slice.
    unsafe fn set(&self, i: usize, value: R) {
        *self.0[i].get() = Some(value);
    }
}

/// Parallel ordered map: returns `[f(0), f(1), …, f(len-1)]`.
///
/// Each item's result is written to its own slot and the vector is
/// assembled in index order — the output is independent of scheduling,
/// which is what makes parallel regions bit-identical at any thread count.
///
/// # Panics
///
/// Re-raises the first panic any item raised.
pub fn map_items<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let ranges = chunk_ranges(len);
    if ranges.is_empty() {
        return Vec::new();
    }
    observe_site(len, &ranges, false, "");
    map_items_over(len, &ranges, f)
}

/// Ordered map over an explicit chunking (shared by [`map_items`] and the
/// cost-model dispatch): each item's result lands in its own slot, vector
/// assembled in index order.
fn map_items_over<R, F>(len: usize, ranges: &[Range<usize>], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if ranges.is_empty() {
        return Vec::new();
    }
    let slots: Vec<UnsafeCell<Option<R>>> = std::iter::repeat_with(|| UnsafeCell::new(None))
        .take(len)
        .collect();
    {
        let shared = Slots(&slots);
        execute(ranges.len(), &|c| {
            for i in ranges[c].clone() {
                // SAFETY: `i` belongs to exactly one chunk (disjoint
                // ranges), so this is the only writer of slot `i`.
                unsafe { shared.set(i, f(i)) };
            }
        });
    }
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every chunk fills its slots"))
        .collect()
}

/// Ordered map dispatched through a [`CostModel`]: regions the model sizes
/// below two grains run inline on the calling thread (reported to the
/// observer with `inlined = true`); larger regions fork into one chunk per
/// grain. `units` is the site's cost proxy (see [`CostModel`]); the
/// measured region cost is folded back into the model either way.
///
/// Inline or forked, the output is `[f(0), …, f(len-1)]` — the plan can
/// only move work between threads, never change a result.
///
/// # Panics
///
/// Re-raises the first panic any item raised.
pub fn map_items_costed<R, F>(model: &CostModel, len: usize, units: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let t0 = Instant::now();
    let out = match model.plan(len, units) {
        Plan::Inline => {
            observe_inline(len, model.name);
            (0..len).map(f).collect()
        }
        Plan::Fork { chunks } => {
            let ranges = split_ranges(len, chunks);
            observe_site(len, &ranges, false, model.name);
            map_items_over(len, &ranges, f)
        }
    };
    model.record(units, t0.elapsed().as_nanos() as u64);
    out
}

/// Raw base pointer of a mutable slice, shareable because each chunk
/// reslices a disjoint row range.
struct RawRows<T>(*mut T);

// SAFETY: chunks address disjoint row ranges of the same allocation.
unsafe impl<T: Send> Sync for RawRows<T> {}

impl<T> RawRows<T> {
    /// Base pointer accessor — a method so closures capture the `RawRows`
    /// wrapper (and its `Sync` justification), not the bare pointer.
    fn ptr(&self) -> *mut T {
        self.0
    }
}

/// Chunks a mutable `[rows × width]` buffer by rows and runs
/// `f(chunk_index, row_range, rows_slice)` per chunk, where `rows_slice`
/// is the mutable sub-slice holding exactly those rows. The disjoint-rows
/// split is what lets dense kernels (matmul) fill one output concurrently.
/// The region is dispatched through a [`CostModel`] (see
/// [`map_items_costed`] for the inline/fork semantics). `units` is the
/// site's cost proxy — for a dense kernel typically the flop count, which
/// unlike the row count captures how expensive each row is.
///
/// # Panics
///
/// Panics if `width == 0` or `data.len()` is not a multiple of `width`;
/// re-raises the first panic any chunk raised.
pub fn for_each_rows_mut_costed<T, F>(
    model: &CostModel,
    data: &mut [T],
    width: usize,
    units: u64,
    f: F,
) where
    T: Send,
    F: Fn(usize, Range<usize>, &mut [T]) + Sync,
{
    assert!(width > 0, "row width must be positive");
    assert_eq!(data.len() % width, 0, "data must be whole rows");
    let rows = data.len() / width;
    if rows == 0 {
        return;
    }
    let t0 = Instant::now();
    match model.plan(rows, units) {
        Plan::Inline => {
            observe_inline(rows, model.name);
            f(0, 0..rows, data);
        }
        Plan::Fork { chunks } => {
            let ranges = split_ranges(rows, chunks);
            observe_site(rows, &ranges, false, model.name);
            let base = RawRows(data.as_mut_ptr());
            execute(ranges.len(), &|c| {
                let r = ranges[c].clone();
                // SAFETY: row ranges are disjoint and in-bounds, so each
                // chunk gets an exclusive sub-slice of `data`.
                let rows_slice = unsafe {
                    std::slice::from_raw_parts_mut(base.ptr().add(r.start * width), r.len() * width)
                };
                f(c, r, rows_slice);
            });
        }
    }
    model.record(units, t0.elapsed().as_nanos() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Serializes tests that flip the global thread-count override. The
    /// override is numerically inert (that is the whole contract) but
    /// tests asserting on `threads()` itself need exclusive access.
    fn override_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock_recover(&LOCK)
    }

    #[test]
    fn split_ranges_is_balanced_and_exhaustive() {
        for len in [0usize, 1, 2, 7, 16, 100, 1023] {
            for parts in [1usize, 2, 3, 4, 7, 64] {
                let ranges = split_ranges(len, parts);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, len, "len={len} parts={parts}");
                // contiguous and ordered
                let mut cursor = 0;
                for r in &ranges {
                    assert_eq!(r.start, cursor);
                    cursor = r.end;
                }
                // balanced to within one item
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|r| r.len()).min(),
                    ranges.iter().map(|r| r.len()).max(),
                ) {
                    assert!(max - min <= 1, "len={len} parts={parts}");
                }
            }
        }
    }

    #[test]
    fn map_items_preserves_order() {
        let _guard = override_lock();
        set_threads(4);
        let out = map_items(1000, |i| i * i);
        set_threads(0);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn thread_count_does_not_change_float_bits() {
        let _guard = override_lock();
        let work = |i: usize| {
            let mut acc = 0.1f32 * (i as f32 + 1.0);
            for k in 1..50u32 {
                acc = (acc * 1.0000117 + (k as f32).sin()).fract();
            }
            acc
        };
        set_threads(1);
        let serial: Vec<u32> = map_items(777, work).iter().map(|v| v.to_bits()).collect();
        set_threads(4);
        let parallel: Vec<u32> = map_items(777, work).iter().map(|v| v.to_bits()).collect();
        set_threads(0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn panics_propagate_and_pool_survives() {
        let _guard = override_lock();
        set_threads(4);
        let result = std::panic::catch_unwind(|| {
            map_items(100, |i| {
                if i == 63 {
                    panic!("boom at 63");
                }
                i
            })
        });
        let payload = result.expect_err("the region must panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom at 63");
        // The pool must still schedule work after a panicked region.
        let out = map_items(100, |i| i + 1);
        set_threads(0);
        assert_eq!(out[99], 100);
    }

    #[test]
    fn nested_regions_run_inline_without_deadlock() {
        let _guard = override_lock();
        set_threads(4);
        let out = map_items(8, |i| {
            map_items(8, move |j| i * 8 + j).iter().sum::<usize>()
        });
        set_threads(0);
        let expect: usize = (0..64).sum();
        assert_eq!(out.iter().sum::<usize>(), expect);
    }

    #[test]
    fn set_threads_overrides_and_resets() {
        let _guard = override_lock();
        set_threads(3);
        assert_eq!(threads(), 3);
        assert_eq!(chunk_ranges(9).len(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    fn observer_sees_region_shape() {
        static ITEMS: AtomicU64 = AtomicU64::new(0);
        fn hook(s: &RegionStats) {
            assert!(
                s.max_chunk - s.min_chunk <= 1,
                "static chunking is balanced"
            );
            ITEMS.fetch_add(s.items as u64, Ordering::Relaxed);
        }
        // First install wins; either way a hook observing regions exists.
        let _ = set_observer(hook);
        let before = ITEMS.load(Ordering::Relaxed);
        let _ = map_items(500, |i| i);
        let after = ITEMS.load(Ordering::Relaxed);
        if set_observer(hook) {
            unreachable!("set_observer cannot succeed twice");
        }
        // Only assert when our hook is the installed one.
        if OBSERVER.get() == Some(&(hook as fn(&RegionStats))) {
            assert!(after >= before + 500);
        }
    }

    #[test]
    fn catch_isolated_returns_values_and_captures_messages() {
        assert_eq!(catch_isolated(|| 7), Ok(7));
        let static_str = catch_isolated(|| -> u32 { panic!("boom") }).unwrap_err();
        assert_eq!(static_str.message, "boom");
        let formatted = catch_isolated(|| -> u32 { panic!("cell {}", 3) }).unwrap_err();
        assert_eq!(formatted.message, "cell 3");
        let opaque = catch_isolated(|| -> u32 { std::panic::panic_any(42u64) }).unwrap_err();
        assert_eq!(opaque.message, "non-string panic payload");
        assert_eq!(formatted.to_string(), "panic: cell 3");
    }

    #[test]
    fn catch_isolated_on_pool_workers_leaves_region_healthy() {
        let _guard = override_lock();
        set_threads(4);
        // One item dies per chunk-mate; the region as a whole must still
        // return every result in order because each failure is contained.
        let out = map_items(64, |i| {
            catch_isolated(move || {
                if i % 7 == 0 {
                    panic!("dies at {i}");
                }
                i * 2
            })
        });
        set_threads(0);
        for (i, r) in out.iter().enumerate() {
            if i % 7 == 0 {
                assert_eq!(r.as_ref().unwrap_err().message, format!("dies at {i}"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 2);
            }
        }
    }

    #[test]
    fn zero_len_regions_are_no_ops() {
        assert!(map_items(0, |i| i).is_empty());
        assert!(chunk_ranges(0).is_empty());
        let mut empty: Vec<f32> = Vec::new();
        let m = CostModel::new("zero", 1.0);
        assert!(map_items_costed(&m, 0, 0, |i| i).is_empty());
        for_each_rows_mut_costed(&m, &mut empty, 4, 0, |_, _, _| panic!("must not run"));
    }

    /// Units that predict `grains` grains of work on a model with
    /// 1 ns/unit seed.
    fn units_for_grains(grains: f64) -> u64 {
        (grains * GRAIN_NS) as u64
    }

    #[test]
    fn cost_model_plans_by_predicted_grains() {
        let _guard = override_lock();
        set_threads(4);
        let m = CostModel::new("plan", 1.0);
        // Below two grains: inline, regardless of item count.
        assert_eq!(m.plan(1000, units_for_grains(1.5)), Plan::Inline);
        // Ten grains of work but only 4 workers: one chunk per worker.
        assert_eq!(
            m.plan(1000, units_for_grains(10.0)),
            Plan::Fork { chunks: 4 }
        );
        // Three grains: chunk count tracks the work, not the worker count.
        assert_eq!(
            m.plan(1000, units_for_grains(3.0)),
            Plan::Fork { chunks: 3 }
        );
        // Indivisible regions stay inline no matter how costly.
        assert_eq!(m.plan(1, units_for_grains(100.0)), Plan::Inline);
        // Chunks never exceed items.
        assert_eq!(m.plan(2, units_for_grains(100.0)), Plan::Fork { chunks: 2 });
        set_threads(1);
        // A single worker never forks.
        assert_eq!(m.plan(1000, units_for_grains(100.0)), Plan::Inline);
        set_threads(0);
    }

    #[test]
    fn cost_model_record_folds_ewma() {
        let m = CostModel::new("ewma", 7.0);
        assert_eq!(m.ns_per_unit(), 7.0); // seed until first measurement
        m.record(10, 1000); // sample: 100 ns/unit replaces the seed
        assert!((m.ns_per_unit() - 100.0).abs() < 1e-9);
        m.record(10, 2000); // 0.8·100 + 0.2·200 = 120
        assert!((m.ns_per_unit() - 120.0).abs() < 1e-9);
        m.record(0, 999); // zero-unit regions are ignored
        assert!((m.ns_per_unit() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn predicts_win_requires_real_hardware_concurrency() {
        let _guard = override_lock();
        set_threads(4);
        let m = CostModel::new("win", 1.0);
        let big = units_for_grains(100.0);
        // Tiny regions never predict a win.
        assert!(!m.predicts_win(1000, units_for_grains(0.5)));
        if hardware_threads() >= 2 {
            assert!(m.predicts_win(1000, big));
        } else {
            // On a 1-core machine TP_THREADS=4 still forks (plan) but can
            // never profit (predicts_win).
            assert_eq!(m.plan(1000, big), Plan::Fork { chunks: 4 });
            assert!(!m.predicts_win(1000, big));
        }
        set_threads(0);
    }

    #[test]
    fn costed_map_is_ordered_and_thread_count_independent() {
        let _guard = override_lock();
        let work = |i: usize| {
            let mut acc = 0.3f32 * (i as f32 + 1.0);
            for k in 1..40u32 {
                acc = (acc * 1.0000093 + (k as f32).cos()).fract();
            }
            acc
        };
        // Fresh models per run so the recorded EWMA cannot leak between
        // passes and change the plan mid-comparison — and even if it did,
        // the bits must not move (that is the property under test).
        let run = |threads: usize, units: u64| {
            set_threads(threads);
            let m = CostModel::new("bits", 1.0);
            let out: Vec<u32> = map_items_costed(&m, 501, units, work)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            set_threads(0);
            out
        };
        let inline_units = units_for_grains(0.1);
        let fork_units = units_for_grains(50.0);
        let baseline = run(1, inline_units);
        assert_eq!(baseline, run(4, inline_units), "inline plan");
        assert_eq!(baseline, run(4, fork_units), "forked plan");
        for (i, bits) in baseline.iter().enumerate() {
            assert_eq!(*bits, work(i).to_bits(), "order preserved at {i}");
        }
    }

    #[test]
    fn costed_rows_mut_fills_every_row_under_both_plans() {
        let _guard = override_lock();
        set_threads(4);
        for units in [units_for_grains(0.1), units_for_grains(50.0)] {
            let m = CostModel::new("rows", 1.0);
            let mut data = vec![0u64; 61 * 3];
            for_each_rows_mut_costed(&m, &mut data, 3, units, |_, rows, slice| {
                for (local, row) in rows.clone().enumerate() {
                    for k in 0..3 {
                        slice[local * 3 + k] += (row * 3 + k) as u64 + 1;
                    }
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i as u64 + 1, "units={units} cell {i}");
            }
        }
        set_threads(0);
    }

    #[test]
    fn costed_dispatch_reports_inline_regions() {
        static INLINED: AtomicU64 = AtomicU64::new(0);
        static FORKED: AtomicU64 = AtomicU64::new(0);
        fn hook(s: &RegionStats) {
            if s.site == "obs-site" {
                if s.inlined {
                    INLINED.fetch_add(1, Ordering::Relaxed);
                } else {
                    FORKED.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let _guard = override_lock();
        // First install wins; only assert when our hook is the one installed.
        let _ = set_observer(hook);
        if OBSERVER.get() != Some(&(hook as fn(&RegionStats))) {
            return;
        }
        set_threads(4);
        let m = CostModel::new("obs-site", 1.0);
        let _ = map_items_costed(&m, 64, units_for_grains(0.1), |i| i);
        assert_eq!(INLINED.load(Ordering::Relaxed), 1);
        assert_eq!(FORKED.load(Ordering::Relaxed), 0);
        let m2 = CostModel::new("obs-site", 1.0);
        let _ = map_items_costed(&m2, 64, units_for_grains(50.0), |i| i);
        set_threads(0);
        assert_eq!(INLINED.load(Ordering::Relaxed), 1);
        assert_eq!(FORKED.load(Ordering::Relaxed), 1);
    }
}
