//! Elementwise arithmetic, activations and pointwise math.
//!
//! Binary operations support three shape combinations:
//!
//! 1. identical shapes,
//! 2. `[N, D] ∘ [D]` — the right operand broadcasts across rows (bias add),
//! 3. `anything ∘ [1]` — the right operand is a scalar tensor.

use std::borrow::Cow;

use crate::tensor::{BackwardFn, Saved};
use crate::Tensor;

/// How the right-hand operand lines up against the left.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Broadcast {
    Same,
    RowVector,
    Scalar,
}

fn broadcast_mode(lhs: &Tensor, rhs: &Tensor) -> Broadcast {
    if lhs.shape() == rhs.shape() {
        Broadcast::Same
    } else if rhs.numel() == 1 {
        Broadcast::Scalar
    } else if lhs.rank() == 2 && rhs.rank() == 1 && lhs.shape()[1] == rhs.shape()[0] {
        Broadcast::RowVector
    } else {
        panic!(
            "incompatible shapes for elementwise op: {} vs {}",
            lhs.shape_obj(),
            rhs.shape_obj()
        );
    }
}

/// Reduces a full-size gradient back onto a broadcast operand; a
/// same-shape operand gets `grad` itself.
fn reduce_to<'a>(mode: Broadcast, grad: impl Into<Cow<'a, [f32]>>, cols: usize) -> Cow<'a, [f32]> {
    let grad = grad.into();
    match mode {
        Broadcast::Same => grad,
        Broadcast::Scalar => Cow::Owned(vec![grad.iter().sum()]),
        Broadcast::RowVector => {
            let mut out = vec![0.0; cols];
            for chunk in grad.chunks(cols) {
                for (o, &g) in out.iter_mut().zip(chunk) {
                    *o += g;
                }
            }
            Cow::Owned(out)
        }
    }
}

/// The rows of a `[N, c]` buffer that a `[c]` row vector broadcasts
/// over. `c == 0` yields none (the buffer is empty then), where a bare
/// `chunks_exact(0)` would panic.
fn rows(v: &[f32], c: usize) -> std::slice::ChunksExact<'_, f32> {
    v.chunks_exact(c.max(1))
}

/// The gradient `add` gives an `[n]` bias broadcast over an `[m, n]`
/// matrix: the column sums of `grad`, in row order. (An `[1]` bias takes
/// the scalar path, as [`broadcast_mode`] decides for `add`.)
pub(crate) fn bias_grad(grad: &[f32], n: usize) -> Vec<f32> {
    let mode = if n == 1 {
        Broadcast::Scalar
    } else {
        Broadcast::RowVector
    };
    reduce_to(mode, grad, n).into_owned()
}

impl Tensor {
    /// `fwd` applied elementwise under broadcasting; `make_backward`
    /// builds the backward from the broadcast mode, the row width and
    /// both operands.
    fn binary_op(
        &self,
        rhs: &Tensor,
        fwd: impl Fn(f32, f32) -> f32,
        make_backward: impl FnOnce(Broadcast, usize, Saved, Saved) -> BackwardFn,
    ) -> Tensor {
        let mode = broadcast_mode(self, rhs);
        let (lhs_s, rhs_s) = (self.save(), rhs.save());
        let cols = if self.rank() == 2 {
            self.shape()[1]
        } else {
            self.numel()
        };
        let ld = self.data();
        let rd = rhs.data();
        let out: Vec<f32> = match mode {
            Broadcast::Same => ld.iter().zip(rd.iter()).map(|(&a, &b)| fwd(a, b)).collect(),
            Broadcast::Scalar => {
                let b = rd[0];
                ld.iter().map(|&a| fwd(a, b)).collect()
            }
            Broadcast::RowVector => rows(&ld, rd.len())
                .flat_map(|row| row.iter().zip(rd.iter()).map(|(&a, &b)| fwd(a, b)))
                .collect(),
        };
        drop(ld);
        drop(rd);
        let shape = self.shape_obj().clone();
        let backward = make_backward(mode, cols, lhs_s, rhs_s);
        Tensor::from_op(out, shape, vec![self.clone(), rhs.clone()], backward)
    }

    /// Elementwise addition; `rhs` may be same-shape, a row vector against a
    /// matrix, or a scalar tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are incompatible (see module docs).
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        self.binary_op(
            rhs,
            |a, b| a + b,
            |mode, cols, lhs, rhs| {
                Box::new(move |g: &[f32], _| {
                    if lhs.tensor.requires_grad() {
                        lhs.tensor.accumulate_grad(g);
                    }
                    if rhs.tensor.requires_grad() {
                        rhs.tensor.accumulate_grad(reduce_to(mode, g, cols));
                    }
                })
            },
        )
    }

    /// Elementwise subtraction (same broadcasting rules as [`Tensor::add`]).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are incompatible.
    pub(crate) fn sub(&self, rhs: &Tensor) -> Tensor {
        self.binary_op(
            rhs,
            |a, b| a - b,
            |mode, cols, lhs, rhs| {
                Box::new(move |g: &[f32], _| {
                    if lhs.tensor.requires_grad() {
                        lhs.tensor.accumulate_grad(g);
                    }
                    if rhs.tensor.requires_grad() {
                        let neg: Vec<f32> = g.iter().map(|x| -x).collect();
                        rhs.tensor.accumulate_grad(reduce_to(mode, neg, cols));
                    }
                })
            },
        )
    }

    /// Elementwise (Hadamard) product (same broadcasting rules as
    /// [`Tensor::add`]).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are incompatible.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        self.binary_op(
            rhs,
            |a, b| a * b,
            |mode, cols, lhs, rhs| {
                Box::new(move |g: &[f32], _| {
                    if lhs.tensor.requires_grad() {
                        let rd = rhs.read();
                        let gl: Vec<f32> = match mode {
                            Broadcast::Same => {
                                g.iter().zip(rd.iter()).map(|(&g, &b)| g * b).collect()
                            }
                            Broadcast::Scalar => g.iter().map(|&g| g * rd[0]).collect(),
                            Broadcast::RowVector => rows(g, rd.len())
                                .flat_map(|row| row.iter().zip(rd.iter()).map(|(&g, &b)| g * b))
                                .collect(),
                        };
                        drop(rd);
                        lhs.tensor.accumulate_grad(gl);
                    }
                    if rhs.tensor.requires_grad() {
                        let ld = lhs.read();
                        let gr: Vec<f32> = g.iter().zip(ld.iter()).map(|(&g, &a)| g * a).collect();
                        drop(ld);
                        rhs.tensor.accumulate_grad(reduce_to(mode, gr, cols));
                    }
                })
            },
        )
    }

    /// `fwd` applied elementwise; the backward scales the incoming
    /// gradient by `dfdx(x, y)`, reading the input `x` live and the
    /// output `y` from the node.
    fn unary_op(
        &self,
        fwd: impl Fn(f32) -> f32,
        dfdx: impl Fn(f32, f32) -> f32 + Send + Sync + 'static,
    ) -> Tensor {
        let src = self.save();
        let out: Vec<f32> = self.data().iter().map(|&x| fwd(x)).collect();
        let backward: BackwardFn = Box::new(move |g: &[f32], y: &[f32]| {
            if src.tensor.requires_grad() {
                let x = src.read();
                let gl: Vec<f32> = g
                    .iter()
                    .zip(x.iter().zip(y))
                    .map(|(&g, (&x, &y))| g * dfdx(x, y))
                    .collect();
                drop(x);
                src.tensor.accumulate_grad(gl);
            }
        });
        Tensor::from_op(out, self.shape_obj().clone(), vec![self.clone()], backward)
    }

    /// Adds a scalar constant.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.unary_op(|x| x + s, |_, _| 1.0)
    }

    /// Multiplies by a scalar constant.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.unary_op(move |x| x * s, move |_, _| s)
    }

    /// Rectified linear unit, `max(x, 0)`.
    pub fn relu(&self) -> Tensor {
        self.unary_op(|x| x.max(0.0), |x, _| if x > 0.0 { 1.0 } else { 0.0 })
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        self.unary_op(|x| x.exp(), |_, y| y)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.unary_op(|x| x.ln(), |x, _| 1.0 / x)
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        self.unary_op(|x| x * x, |x, _| 2.0 * x)
    }
}

/// Returns a `[N, D] -> [N, D]` tensor whose rows are `mask[i] * row[i]`;
/// useful for masking endpoint-only losses without branching.
///
/// # Panics
///
/// Panics if `mask.len()` differs from the number of rows of `t`.
pub fn mask_rows(t: &Tensor, mask: &[f32]) -> Tensor {
    let (n, d) = t.shape_obj().as_2d();
    assert_eq!(mask.len(), n, "mask length must equal row count");
    let mut expanded = vec![0.0; n * d];
    for (i, &m) in mask.iter().enumerate() {
        for j in 0..d {
            expanded[i * d + j] = m;
        }
    }
    let m = Tensor::from_vec(expanded, &[n, d]).expect("mask shape is consistent");
    t.mul(&m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32], s: &[usize]) -> Tensor {
        Tensor::from_vec(v.to_vec(), s).unwrap()
    }

    #[test]
    fn add_same_shape() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[10.0, 20.0], &[2]);
        assert_eq!(a.add(&b).to_vec(), vec![11.0, 22.0]);
    }

    #[test]
    fn add_row_vector_broadcast() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]).with_grad();
        let b = t(&[10.0, 20.0], &[2]).with_grad();
        let y = a.add(&b);
        assert_eq!(y.to_vec(), vec![11.0, 22.0, 13.0, 24.0]);
        y.sum().backward();
        assert_eq!(b.grad().unwrap(), vec![2.0, 2.0]);
    }

    #[test]
    fn scalar_broadcast() {
        let a = t(&[1.0, 2.0], &[2]).with_grad();
        let s = Tensor::from_slice(&[3.0]).with_grad();
        let y = a.mul(&s);
        assert_eq!(y.to_vec(), vec![3.0, 6.0]);
        y.sum().backward();
        assert_eq!(s.grad().unwrap(), vec![3.0]);
        assert_eq!(a.grad().unwrap(), vec![3.0, 3.0]);
    }

    #[test]
    fn mul_row_vector_gradients() {
        // y = a ∘ b with b: [3] broadcast over a: [2, 3];
        // per-element upstream weights make every gradient entry distinct.
        let w = t(&[1.0, -2.0, 0.5, 3.0, 0.25, -1.0], &[2, 3]);
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).with_grad();
        let b = t(&[2.0, -4.0, 0.5], &[3]).with_grad();
        let y = a.mul(&b);
        assert_eq!(y.to_vec(), vec![2.0, -8.0, 1.5, 8.0, -20.0, 3.0]);
        y.mul(&w).sum().backward();
        assert_eq!(a.grad().unwrap(), vec![2.0, 8.0, 0.25, 6.0, -1.0, -0.5]);
        // db[j] = Σ_i w[i,j]·a[i,j]
        assert_eq!(b.grad().unwrap(), vec![13.0, -2.75, -4.5]);
    }

    /// `sub` is crate-private, and its one caller, `mse`, passes same-shape
    /// operands, so its broadcast paths are checked here against central
    /// finite differences of a nonlinear, position-weighted loss.
    #[test]
    fn sub_grads_match_finite_differences() {
        const H: f32 = 1e-2;
        let finite_diff = |x: &[f32], f: &dyn Fn(&[f32]) -> f32| -> Vec<f32> {
            (0..x.len())
                .map(|i| {
                    let (mut plus, mut minus) = (x.to_vec(), x.to_vec());
                    plus[i] += H;
                    minus[i] -= H;
                    (f(&plus) - f(&minus)) / (2.0 * H)
                })
                .collect()
        };
        let w = t(&[1.0, -2.0, 0.5, 3.0, -1.5, 0.25], &[3, 2]);
        let a = [0.7, -1.3, 0.4, 2.1, -0.6, 1.5];
        let same = [0.9, -0.2, 0.1, 1.1, -0.8, 0.3];
        for (b, b_shape) in [
            (&same[..], &[3, 2][..]),
            (&[0.9, -0.2], &[2]),
            (&[0.3], &[1]),
        ] {
            let loss = |a: &Tensor, b: &Tensor| a.sub(b).square().mul(&w).sum();
            let (at, bt) = (t(&a, &[3, 2]).with_grad(), t(b, b_shape).with_grad());
            loss(&at, &bt).backward();
            let fd_a = finite_diff(&a, &|a| loss(&t(a, &[3, 2]), &t(b, b_shape)).item());
            let fd_b = finite_diff(b, &|b| loss(&t(&a, &[3, 2]), &t(b, b_shape)).item());
            for (got, want) in [(at.grad().unwrap(), fd_a), (bt.grad().unwrap(), fd_b)] {
                for (g, f) in got.iter().zip(&want) {
                    assert!(
                        (g - f).abs() < 2e-2 * f.abs().max(1.0),
                        "{got:?} vs {want:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn relu_grad_zero_below() {
        let a = t(&[-1.0, 2.0], &[2]).with_grad();
        let y = a.relu().sum();
        y.backward();
        assert_eq!(a.grad().unwrap(), vec![0.0, 1.0]);
    }

    #[test]
    fn mask_rows_zeroes_unselected() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let y = mask_rows(&a, &[1.0, 0.0]);
        assert_eq!(y.to_vec(), vec![1.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "incompatible shapes")]
    fn mismatched_shapes_panic() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[1.0, 2.0, 3.0], &[3]);
        let _ = a.add(&b);
    }
}
