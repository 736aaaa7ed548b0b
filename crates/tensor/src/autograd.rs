//! Reverse-mode sweep: topological ordering, gradient propagation, and the
//! thread-local gradient sink that makes parallel per-design training safe.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, PoisonError};

use crate::Tensor;

// ---------------------------------------------------------------------------
// No-grad mode
// ---------------------------------------------------------------------------

thread_local! {
    /// When set, `Tensor::from_op` drops parents and backward closures even
    /// if a parent requires gradients, so a forward pass builds no tape.
    /// Thread-local: a no-grad prediction on one tp-par worker must not
    /// disable tape building for training running elsewhere.
    static NO_GRAD: Cell<bool> = const { Cell::new(false) };
}

/// Whether operations currently record the autograd tape on this thread:
/// `false` inside a [`no_grad`] region.
pub fn grad_enabled() -> bool {
    NO_GRAD.with(|c| !c.get())
}

struct NoGradGuard {
    prev: bool,
}

impl Drop for NoGradGuard {
    fn drop(&mut self) {
        NO_GRAD.with(|c| c.set(self.prev));
    }
}

/// Runs `f` with tape recording disabled on this thread: every op built
/// inside behaves as pure data flow (no parents, no backward closures, no
/// `requires_grad` propagation). Scopes nest and restore on panic.
///
/// # Example
///
/// ```
/// # use tp_tensor::{no_grad, Tensor};
/// let w = Tensor::from_slice(&[2.0]).with_grad();
/// let y = no_grad(|| w.mul(&w));
/// assert!(!y.requires_grad());
/// y.backward(); // no-op: there is no tape
/// assert!(w.grad().is_none());
/// ```
pub fn no_grad<T>(f: impl FnOnce() -> T) -> T {
    let guard = NoGradGuard {
        prev: NO_GRAD.with(|c| c.replace(true)),
    };
    let out = f();
    drop(guard);
    out
}

impl Tensor {
    /// Runs backpropagation from this tensor.
    ///
    /// The tensor is seeded with a gradient of all ones (for the scalar
    /// losses used in this workspace that is the conventional `dL/dL = 1`),
    /// then every reachable node's backward closure runs in reverse
    /// topological order, accumulating gradients into leaves created with
    /// [`Tensor::with_grad`].
    ///
    /// Calling `backward` twice without [`Tensor::zero_grad`] accumulates
    /// gradients, matching PyTorch semantics.
    ///
    /// # Example
    ///
    /// ```
    /// # use tp_tensor::Tensor;
    /// let x = Tensor::from_slice(&[3.0]).with_grad();
    /// let y = x.mul(&x); // y = x^2
    /// y.backward();
    /// assert_eq!(x.grad().unwrap(), vec![6.0]);
    /// ```
    pub fn backward(&self) {
        if !self.requires_grad() {
            return;
        }
        let order = self.topo_order();
        // Gradients accumulate across backward calls on *leaves* only;
        // interior nodes start each sweep fresh.
        for node in &order {
            if node.inner.backward.is_some() {
                node.zero_grad();
            }
        }
        self.accumulate_grad(&vec![1.0; self.numel()]);
        for node in order.iter().rev() {
            let grad = node.grad();
            if let (Some(g), Some(back)) = (grad, node.inner.backward.as_ref()) {
                back(&g);
            }
        }
    }

    /// Iterative DFS postorder over the parent DAG; each node appears after
    /// all of its consumers have been popped during the reverse iteration.
    fn topo_order(&self) -> Vec<Tensor> {
        let mut order: Vec<Tensor> = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        // Stack of (node, next-parent-index) to avoid recursion on deep
        // graphs (levelized propagation chains can be hundreds long).
        let mut stack: Vec<(Tensor, usize)> = vec![(self.clone(), 0)];
        visited.insert(self.id());
        while let Some((node, idx)) = stack.pop() {
            if idx < node.inner.parents.len() {
                let parent = node.inner.parents[idx].clone();
                stack.push((node, idx + 1));
                if parent.requires_grad() && visited.insert(parent.id()) {
                    stack.push((parent, 0));
                }
            } else {
                order.push(node);
            }
        }
        order
    }
}

// ---------------------------------------------------------------------------
// Thread-local gradient sink
// ---------------------------------------------------------------------------

thread_local! {
    /// When set, leaf-gradient accumulation for the *registered ids only*
    /// diverts here instead of the tensor's shared grad slot. This is what
    /// lets several tp-par workers backprop graphs that all reference the
    /// same parameter tensors: each worker's leaf grads land in its own
    /// sink, and the trainer folds the per-design results in a fixed block
    /// order afterwards (bit-identical at any thread count).
    static SINK: RefCell<Option<HashMap<u64, Option<Vec<f32>>>>> =
        const { RefCell::new(None) };
}

/// Diverts `g` into the active sink if `id` is registered there. Returns
/// whether the gradient was captured (the caller skips the shared slot).
pub(crate) fn sink_accumulate(id: u64, g: &[f32]) -> bool {
    SINK.with(|sink| {
        let mut sink = sink.borrow_mut();
        let Some(map) = sink.as_mut() else {
            return false;
        };
        let Some(slot) = map.get_mut(&id) else {
            return false;
        };
        match slot.as_mut() {
            Some(acc) => {
                for (e, &v) in acc.iter_mut().zip(g) {
                    *e += v;
                }
            }
            None => *slot = Some(g.to_vec()),
        }
        true
    })
}

/// Restores the previous sink when the `collect_grads` scope ends — on
/// normal exit *or* panic. tp-par workers are persistent and reused, so a
/// sink leaked past a panicking closure would silently swallow gradients
/// of whatever runs on that worker next.
struct SinkScope {
    prev: Option<HashMap<u64, Option<Vec<f32>>>>,
}

impl SinkScope {
    fn install(ids: &[u64]) -> SinkScope {
        let fresh: HashMap<u64, Option<Vec<f32>>> =
            ids.iter().map(|&id| (id, None)).collect();
        let prev = SINK.with(|sink| sink.borrow_mut().replace(fresh));
        SinkScope { prev }
    }

    fn take(self) -> HashMap<u64, Option<Vec<f32>>> {
        // Dropping `self` afterwards restores the previous sink.
        SINK.with(|sink| sink.borrow_mut().take()).unwrap_or_default()
    }
}

impl Drop for SinkScope {
    fn drop(&mut self) {
        SINK.with(|sink| *sink.borrow_mut() = self.prev.take());
    }
}

/// Runs `f` with gradient accumulation into `leaves` diverted to a
/// thread-local sink, returning `f`'s result and the captured gradient per
/// leaf (in `leaves` order; `None` where no gradient reached the leaf).
///
/// The shared grad slots of `leaves` are untouched, so any number of
/// threads may run `collect_grads` over graphs referencing the same
/// parameters concurrently. Scopes nest: an inner scope shadows the outer
/// one until it ends.
///
/// # Example
///
/// ```
/// # use tp_tensor::{collect_grads, Tensor};
/// let w = Tensor::from_slice(&[2.0]).with_grad();
/// let (loss, grads) = collect_grads(std::slice::from_ref(&w), || {
///     let y = w.mul(&w); // y = w², dy/dw = 2w
///     y.backward();
///     y.item()
/// });
/// assert_eq!(loss, 4.0);
/// assert_eq!(grads[0].as_deref(), Some(&[4.0][..]));
/// assert!(w.grad().is_none(), "the shared slot stays untouched");
/// ```
pub fn collect_grads<T>(leaves: &[Tensor], f: impl FnOnce() -> T) -> (T, Vec<Option<Vec<f32>>>) {
    let ids: Vec<u64> = leaves.iter().map(Tensor::id).collect();
    // Duplicate handles to one tensor would double-count its gradient in a
    // way the caller cannot see; refuse early.
    {
        let mut seen = HashSet::new();
        for &id in &ids {
            assert!(seen.insert(id), "collect_grads leaves must be distinct tensors");
        }
    }
    let scope = SinkScope::install(&ids);
    let out = f();
    let mut map = scope.take();
    let grads = ids.iter().map(|id| map.remove(id).flatten()).collect();
    (out, grads)
}

/// Compile-time proof that the tape crosses threads: the pool-based trainer
/// moves whole graphs (closures capturing `Tensor`s) onto workers.
#[allow(dead_code)]
fn assert_tape_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Tensor>();
    assert_send_sync::<Mutex<Tensor>>();
    assert_send_sync::<PoisonError<Tensor>>();
}

#[cfg(test)]
mod tests {
    use super::collect_grads;
    use crate::Tensor;

    #[test]
    fn chain_rule_through_shared_node() {
        // y = (x + x) * x = 2x^2, dy/dx = 4x
        let x = Tensor::from_slice(&[5.0]).with_grad();
        let y = x.add(&x).mul(&x);
        y.backward();
        assert_eq!(x.grad().unwrap(), vec![20.0]);
    }

    #[test]
    fn backward_is_noop_without_grad() {
        let x = Tensor::from_slice(&[1.0]);
        let y = x.add(&x);
        y.backward();
        assert!(x.grad().is_none());
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        let x = Tensor::from_slice(&[1.0]).with_grad();
        let mut y = x.clone();
        for _ in 0..5_000 {
            y = y.add_scalar(0.0);
        }
        y.backward();
        assert_eq!(x.grad().unwrap(), vec![1.0]);
    }

    #[test]
    fn double_backward_accumulates() {
        let x = Tensor::from_slice(&[2.0]).with_grad();
        let y = x.mul(&x);
        y.backward();
        y.backward();
        assert_eq!(x.grad().unwrap(), vec![8.0]);
    }

    #[test]
    fn sink_captures_registered_leaves_only() {
        let w = Tensor::from_slice(&[3.0]).with_grad();
        let b = Tensor::from_slice(&[1.0]).with_grad();
        let (_, grads) = collect_grads(std::slice::from_ref(&w), || {
            let y = w.mul(&w).add(&b);
            y.backward();
        });
        assert_eq!(grads[0].as_deref(), Some(&[6.0][..]));
        assert!(w.grad().is_none(), "registered leaf bypasses shared slot");
        assert_eq!(b.grad().unwrap(), vec![1.0], "unregistered leaf unaffected");
    }

    #[test]
    fn sink_accumulates_across_backwards_in_scope() {
        let w = Tensor::from_slice(&[2.0]).with_grad();
        let (_, grads) = collect_grads(std::slice::from_ref(&w), || {
            w.mul(&w).backward();
            w.mul(&w).backward();
        });
        assert_eq!(grads[0].as_deref(), Some(&[8.0][..]), "4.0 twice");
    }

    #[test]
    fn sink_scopes_clear_after_use() {
        let w = Tensor::from_slice(&[2.0]).with_grad();
        let _ = collect_grads(std::slice::from_ref(&w), || {
            w.mul(&w).backward();
        });
        // After the scope: accumulation goes to the shared slot again.
        w.mul(&w).backward();
        assert_eq!(w.grad().unwrap(), vec![4.0]);
    }

    #[test]
    fn sink_clears_on_panic() {
        let w = Tensor::from_slice(&[2.0]).with_grad();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            collect_grads(std::slice::from_ref(&w), || panic!("mid-scope"))
        }));
        assert!(result.is_err());
        w.mul(&w).backward();
        assert_eq!(w.grad().unwrap(), vec![4.0], "no stale sink after panic");
    }

    #[test]
    fn sink_scopes_nest() {
        let w = Tensor::from_slice(&[2.0]).with_grad();
        let (_, outer) = collect_grads(std::slice::from_ref(&w), || {
            w.mul(&w).backward(); // outer scope: 4.0
            let (_, inner) = collect_grads(std::slice::from_ref(&w), || {
                w.add(&w).backward(); // inner scope: 2.0
            });
            assert_eq!(inner[0].as_deref(), Some(&[2.0][..]));
        });
        assert_eq!(outer[0].as_deref(), Some(&[4.0][..]));
    }

    #[test]
    fn leaf_grads_collected_concurrently_match_serial() {
        let w = Tensor::from_slice(&[1.5, -0.5]).with_grad();
        let serial: Vec<Option<Vec<f32>>> = (0..8)
            .map(|i| {
                let (_, g) = collect_grads(std::slice::from_ref(&w), || {
                    w.mul_scalar(i as f32 + 1.0).sum().backward();
                });
                g.into_iter().next().unwrap()
            })
            .collect();
        let threaded: Vec<Option<Vec<f32>>> = {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let w = w.clone();
                    std::thread::spawn(move || {
                        let (_, g) = collect_grads(std::slice::from_ref(&w), || {
                            w.mul_scalar(i as f32 + 1.0).sum().backward();
                        });
                        g.into_iter().next().unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        };
        assert_eq!(serial, threaded);
        assert!(w.grad().is_none());
    }
}
