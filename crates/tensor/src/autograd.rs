//! Reverse-mode sweep: topological ordering, gradient propagation, and the
//! thread-local no-grad mode.

use std::cell::Cell;
use std::collections::HashSet;
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
    /// Each interior node's gradient is taken out of its slot when that
    /// node's backward runs and freed after it, so after the sweep only
    /// leaves hold a [`Tensor::grad`]. Calling `backward` twice without
    /// [`Tensor::zero_grad`] accumulates leaf gradients, matching PyTorch
    /// semantics.
    ///
    /// # Panics
    ///
    /// Panics if an operand that some op's backward reads (see
    /// [`Tensor::data_mut`]) was written in place after that op's forward.
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
        // interior nodes start each sweep fresh, even after a sweep that
        // panicked half way.
        for node in &order {
            if node.inner.backward.is_some() {
                node.zero_grad();
            }
        }
        self.accumulate_grad(vec![1.0; self.numel()]);
        for node in order.iter().rev() {
            if let Some(back) = node.inner.backward.as_ref() {
                if let Some(g) = node.take_grad() {
                    back(&g, &node.data());
                }
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

/// Compile-time proof that tensors cross threads: tp-serve's connection
/// threads and the sweep's prediction evaluator share one model's parameters.
#[allow(dead_code)]
fn assert_tape_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Tensor>();
    assert_send_sync::<Mutex<Tensor>>();
    assert_send_sync::<PoisonError<Tensor>>();
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use crate::tensor::IN_PLACE_WRITE;
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
        assert_eq!(x.grad().unwrap(), vec![4.0]);
        // The leaf accumulates over the second sweep; the root, an
        // interior node, keeps no gradient after either.
        assert!(y.grad().is_none());
        y.backward();
        assert_eq!(x.grad().unwrap(), vec![8.0]);
        assert!(y.grad().is_none());
    }

    /// After a sweep only leaves hold gradients: every op's output frees
    /// its gradient once its own backward has run.
    #[test]
    fn backward_releases_every_interior_gradient() {
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.5, -0.5, 1.0], &[3, 2])
            .unwrap()
            .with_grad();
        let w = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[2, 2])
            .unwrap()
            .with_grad();
        let b = Tensor::from_slice(&[0.25, -0.5]).with_grad();
        let h = x.linear_relu(&w, &b);
        let p = h.matmul(&w);
        let pm = p.mul(&x);
        let q = pm.add(&h);
        let e = q.square();
        let g = e.gather_rows(&[2, 0, 0]);
        let s = g.segment_sum(&[1, 0, 1], 2);
        let m = g.segment_max(&[0, 0, 1], 2);
        let c = Tensor::concat_cols(&[&s, &m]);
        let n = c.narrow_cols(1, 2);
        let tables = Tensor::from_vec((0..16).map(|i| i as f32 * 0.25).collect(), &[2, 8]).unwrap();
        let o = n.lut_interp(&s, &tables, 0);
        let loss = o.sum();
        loss.backward();
        for t in [&h, &p, &pm, &q, &e, &g, &s, &m, &c, &n, &o, &loss] {
            assert!(t.grad().is_none(), "interior gradient kept: {t:?}");
        }
        for t in [&x, &w, &b] {
            assert!(t.grad().is_some(), "leaf gradient missing: {t:?}");
        }
    }

    /// Every op whose backward reads an operand live panics at backward
    /// when that operand was written in place after the forward, instead
    /// of differentiating the new data.
    #[test]
    fn in_place_write_between_forward_and_backward_panics() {
        type Op = fn(&Tensor, &Tensor, &Tensor) -> Tensor;
        let cases: [(&str, Op, usize); 7] = [
            ("linear, x written", |x, w, b| x.linear(w, b), 0),
            ("linear_relu, W written", |x, w, b| x.linear_relu(w, b), 1),
            ("matmul, lhs written", |x, w, _| x.matmul(w), 0),
            ("mul, lhs written", |x, w, _| x.mul(w), 0),
            ("mul, rhs written", |x, w, _| x.mul(w), 1),
            (
                "lut_interp, W written",
                |x, w, _| x.lut_interp(w, &Tensor::ones(&[2, 4]), 0),
                1,
            ),
            ("square, input written", |x, _, _| x.square(), 0),
        ];
        for (name, op, written) in cases {
            let operands = [
                Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.5], &[2, 2]).unwrap(),
                Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[2, 2]).unwrap(),
                Tensor::from_slice(&[0.25, -0.5]),
            ]
            .map(Tensor::with_grad);
            let loss = op(&operands[0], &operands[1], &operands[2]).sum();
            operands[written].data_mut()[0] += 1.0;
            let err = catch_unwind(AssertUnwindSafe(|| loss.backward())).expect_err(name);
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert_eq!(msg, IN_PLACE_WRITE, "{name}");
        }
    }
}
