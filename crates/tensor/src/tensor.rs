use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use tp_rng::Rng;

use crate::{Shape, TensorError};

/// Process-wide id source. Ids must be unique *across* threads because the
/// backward sweep's visited set is keyed by id, and a graph built on a
/// worker may reference leaves created on the main thread.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Poison-safe read lock: a panicked region must not make the tape
/// unusable — tensor state is always valid at rest.
fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Backward closure: receives the gradient flowing into this node and the
/// node's own output, and accumulates gradients into the node's parents
/// (which it captures). `Send + Sync` so whole graphs can be built and
/// differentiated on tp-par workers.
pub(crate) type BackwardFn = Box<dyn Fn(&[f32], &[f32]) + Send + Sync>;

/// What a backward panics with when an operand it reads was written in
/// place after the forward read it.
pub(crate) const IN_PLACE_WRITE: &str =
    "tensor written in place (data_mut) between an op's forward and its backward";

/// An operand that an op's backward reads live from its tensor, instead
/// of from a copy, with the tensor's version when the forward read it.
pub(crate) struct Saved {
    pub(crate) tensor: Tensor,
    version: u64,
}

impl Saved {
    /// Read-locks the operand, then panics if [`Tensor::data_mut`] has
    /// handed it out since the forward: the read guard taken first keeps
    /// the version still while the data is in use.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, Vec<f32>> {
        let data = self.tensor.data();
        assert!(
            self.tensor.inner.version.load(Ordering::Relaxed) == self.version,
            "{IN_PLACE_WRITE}"
        );
        data
    }
}

pub(crate) struct Inner {
    pub(crate) id: u64,
    pub(crate) shape: Shape,
    /// Reader-writer lock rather than a mutex: graph building takes
    /// overlapping read borrows of the *same* tensor (`x.matmul(&x)` reads
    /// `x` twice on one thread), which readers permit. The locking
    /// discipline is phase-based — writers (optimizer steps, fault
    /// injection) never run concurrently with graph building or backward —
    /// so the re-entrant read can never deadlock against a queued writer.
    pub(crate) data: RwLock<Vec<f32>>,
    /// Bumped by every [`Tensor::data_mut`], so a backward can tell that
    /// an operand it reads live changed after the forward. `Relaxed` is
    /// enough: the bump happens under the write lock and [`Saved::read`]
    /// checks under a read lock, so the lock orders them. `save` reads it
    /// before the forward's read lock, so a stale value can only make a
    /// backward panic, never miss a write.
    version: AtomicU64,
    pub(crate) grad: Mutex<Option<Vec<f32>>>,
    pub(crate) requires_grad: AtomicBool,
    pub(crate) parents: Vec<Tensor>,
    pub(crate) backward: Option<BackwardFn>,
}

/// A dense `f32` tensor participating in a dynamic autograd graph.
///
/// `Tensor` is a cheap reference-counted handle (`Arc`); cloning shares
/// storage and gradient. The handle is `Send + Sync`, so one model's
/// parameters can serve forwards on several threads at once. See the
/// [crate docs](crate) for an overview and example.
#[derive(Clone)]
pub struct Tensor {
    pub(crate) inner: Arc<Inner>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` differs
    /// from the product of `shape`, or [`TensorError::EmptyShape`] for an
    /// empty shape slice.
    ///
    /// # Example
    ///
    /// ```
    /// # use tp_tensor::Tensor;
    /// # fn main() -> Result<(), tp_tensor::TensorError> {
    /// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
    /// assert_eq!(t.shape(), &[2, 3]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Tensor, TensorError> {
        if shape.is_empty() {
            return Err(TensorError::EmptyShape);
        }
        let expected: usize = shape.iter().product();
        if expected != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Tensor::leaf(data, Shape::new(shape)))
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Tensor {
        Tensor::leaf(data.to_vec(), Shape::new(&[data.len().max(1)]))
    }

    /// A tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Tensor {
        Tensor::full(shape, 0.0)
    }

    /// A tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Tensor {
        Tensor::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    fn full(shape: &[usize], value: f32) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::leaf(vec![value; n], Shape::new(shape))
    }

    /// A tensor with elements drawn uniformly from `[lo, hi)`.
    pub(crate) fn rand_uniform<R: Rng>(shape: &[usize], lo: f32, hi: f32, rng: &mut R) -> Tensor {
        let n: usize = shape.iter().product();
        let data: Vec<f32> = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor::leaf(data, Shape::new(shape))
    }

    /// A tensor with elements drawn from a normal distribution, using the
    /// Box–Muller transform (keeps us free of extra dependencies).
    pub fn randn<R: Rng>(shape: &[usize], mean: f32, std: f32, rng: &mut R) -> Tensor {
        let n: usize = shape.iter().product();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(mean + std * r * theta.cos());
            if data.len() < n {
                data.push(mean + std * r * theta.sin());
            }
        }
        Tensor::leaf(data, Shape::new(shape))
    }

    pub(crate) fn leaf(data: Vec<f32>, shape: Shape) -> Tensor {
        Tensor {
            inner: Arc::new(Inner {
                id: next_id(),
                shape,
                data: RwLock::new(data),
                version: AtomicU64::new(0),
                grad: Mutex::new(None),
                requires_grad: AtomicBool::new(false),
                parents: Vec::new(),
                backward: None,
            }),
        }
    }

    /// Whether an op over `parents` records a tape node: the tape is on
    /// (outside [`crate::no_grad`]) and some parent requires gradients.
    /// The one definition of that rule: [`Tensor::from_op`] applies it,
    /// and an op with forward work only its backward needs (the arg-max
    /// of `segment_max`) checks it first.
    pub(crate) fn records_tape(parents: &[Tensor]) -> bool {
        crate::autograd::grad_enabled() && parents.iter().any(Tensor::requires_grad)
    }

    /// Creates a node produced by an operation. When it records no tape
    /// (see [`Tensor::records_tape`]) the result is a plain leaf: the
    /// backward closure and parent links are dropped, so inference keeps
    /// no intermediate alive — even when a parent is a trainable parameter.
    pub(crate) fn from_op(
        data: Vec<f32>,
        shape: Shape,
        parents: Vec<Tensor>,
        backward: BackwardFn,
    ) -> Tensor {
        if !Tensor::records_tape(&parents) {
            return Tensor::leaf(data, shape);
        }
        Tensor {
            inner: Arc::new(Inner {
                id: next_id(),
                shape,
                data: RwLock::new(data),
                version: AtomicU64::new(0),
                grad: Mutex::new(None),
                requires_grad: AtomicBool::new(true),
                parents,
                backward: Some(backward),
            }),
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The dimension sizes of this tensor.
    pub fn shape(&self) -> &[usize] {
        self.inner.shape.dims()
    }

    /// The shape object.
    pub fn shape_obj(&self) -> &Shape {
        &self.inner.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.inner.shape.numel()
    }

    /// Rank (number of dimensions).
    pub(crate) fn rank(&self) -> usize {
        self.inner.shape.rank()
    }

    /// Read-locks the underlying data. Multiple overlapping reads are fine
    /// (ops taking the same tensor on both sides rely on that).
    pub fn data(&self) -> RwLockReadGuard<'_, Vec<f32>> {
        read_recover(&self.inner.data)
    }

    /// Write-locks the underlying data (used by optimizers and fault
    /// injection — phases during which no graph is being built).
    ///
    /// Every call bumps the tensor's version. The backward of an op that
    /// reads this tensor as an operand (`linear`, `matmul`, `mul`,
    /// `lut_interp`, the unary ops) reads it live rather than from a
    /// copy, so a write between that op's forward and
    /// [`Tensor::backward`] makes the backward panic instead of
    /// differentiating the new data.
    pub fn data_mut(&self) -> RwLockWriteGuard<'_, Vec<f32>> {
        let data = write_recover(&self.inner.data);
        self.inner.version.fetch_add(1, Ordering::Relaxed);
        data
    }

    /// This tensor as an operand its op's backward reads live; see
    /// [`Saved::read`].
    pub(crate) fn save(&self) -> Saved {
        Saved {
            tensor: self.clone(),
            version: self.inner.version.load(Ordering::Relaxed),
        }
    }

    /// Copies the data out into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<f32> {
        self.data().clone()
    }

    /// The single value of a one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() requires a single-element tensor, shape is {}",
            self.inner.shape
        );
        self.data()[0]
    }

    // ------------------------------------------------------------------
    // Autograd state
    // ------------------------------------------------------------------

    /// Whether this tensor participates in gradient computation.
    pub fn requires_grad(&self) -> bool {
        self.inner.requires_grad.load(Ordering::Relaxed)
    }

    /// Marks this tensor as a trainable leaf and returns it (builder style).
    pub fn with_grad(self) -> Tensor {
        self.inner.requires_grad.store(true, Ordering::Relaxed);
        self
    }

    /// The accumulated gradient of a leaf, if any.
    ///
    /// Only leaves keep a gradient: [`Tensor::backward`] frees each
    /// interior node's gradient as soon as that node's backward has run,
    /// so an op's output reads `None` after the sweep.
    pub fn grad(&self) -> Option<Vec<f32>> {
        lock_recover(&self.inner.grad).clone()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        *lock_recover(&self.inner.grad) = None;
    }

    /// Returns a new leaf tensor sharing no graph history (data is copied).
    pub fn detach(&self) -> Tensor {
        Tensor::leaf(self.to_vec(), self.inner.shape.clone())
    }

    /// Adds `g` into the gradient slot. An empty slot takes an owned `g`
    /// as it is, and copies a borrowed one.
    pub(crate) fn accumulate_grad<'a>(&self, g: impl Into<Cow<'a, [f32]>>) {
        let g = g.into();
        debug_assert_eq!(g.len(), self.numel(), "gradient length mismatch");
        let mut slot = lock_recover(&self.inner.grad);
        match slot.as_mut() {
            Some(existing) => {
                for (e, &v) in existing.iter_mut().zip(g.iter()) {
                    *e += v;
                }
            }
            None => *slot = Some(g.into_owned()),
        }
    }

    /// Empties the gradient slot, returning what it held.
    pub(crate) fn take_grad(&self) -> Option<Vec<f32>> {
        lock_recover(&self.inner.grad).take()
    }

    /// Replaces the stored gradient wholesale (used by gradient clipping).
    ///
    /// # Panics
    ///
    /// Panics if `g.len()` differs from the element count.
    pub fn replace_grad(&self, g: Vec<f32>) {
        assert_eq!(g.len(), self.numel(), "gradient length mismatch");
        *lock_recover(&self.inner.grad) = Some(g);
    }

    /// Applies `f(data, grad)` to the parameter in place; no-op when no
    /// gradient has been accumulated. Used by optimizers.
    pub fn apply_grad_update<F: FnMut(&mut [f32], &[f32])>(&self, mut f: F) {
        let grad = lock_recover(&self.inner.grad);
        if let Some(g) = grad.as_ref() {
            let mut data = self.data_mut();
            f(&mut data, g);
        }
    }

    pub(crate) fn id(&self) -> u64 {
        self.inner.id
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let data = self.data();
        let preview: Vec<f32> = data.iter().take(8).copied().collect();
        f.debug_struct("Tensor")
            .field("shape", &self.inner.shape.dims())
            .field("requires_grad", &self.requires_grad())
            .field("data[..8]", &preview)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(t.to_vec()[2], 3.0);
        assert_eq!(t.numel(), 4);
        assert!(!t.requires_grad());
    }

    #[test]
    fn shape_mismatch_is_error() {
        let err = Tensor::from_vec(vec![1.0], &[2, 2]).unwrap_err();
        assert_eq!(
            err,
            TensorError::ShapeDataMismatch {
                expected: 4,
                actual: 1
            }
        );
    }

    #[test]
    fn grad_accumulates() {
        let t = Tensor::zeros(&[3]).with_grad();
        t.accumulate_grad(vec![1.0, 2.0, 3.0]);
        t.accumulate_grad(&[1.0, 1.0, 1.0][..]);
        assert_eq!(t.grad().unwrap(), vec![2.0, 3.0, 4.0]);
        t.zero_grad();
        assert!(t.grad().is_none());
    }

    #[test]
    fn randn_has_roughly_right_moments() {
        let mut rng = tp_rng::StdRng::seed_from_u64(2024);
        let t = Tensor::randn(&[10_000], 0.0, 1.0, &mut rng);
        let data = t.to_vec();
        let mean: f32 = data.iter().sum::<f32>() / data.len() as f32;
        let var: f32 =
            data.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / data.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 1.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn detach_breaks_graph() {
        let a = Tensor::ones(&[2]).with_grad();
        let b = a.detach();
        assert!(!b.requires_grad());
    }

    #[test]
    fn tensor_handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }

    #[test]
    fn ids_are_unique_across_threads() {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..100)
                        .map(|_| Tensor::from_slice(&[0.0]).id())
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 400, "no id collides across threads");
    }
}
