//! Elementwise arithmetic, activations and pointwise math.
//!
//! Binary operations support three shape combinations:
//!
//! 1. identical shapes,
//! 2. `[N, D] ∘ [D]` — the right operand broadcasts across rows (bias add),
//! 3. `anything ∘ [1]` — the right operand is a scalar tensor.

use crate::tensor::BackwardFn;
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

/// Reduces a full-size gradient back onto a broadcast operand.
fn reduce_to(mode: Broadcast, grad: &[f32], cols: usize) -> Vec<f32> {
    match mode {
        Broadcast::Same => grad.to_vec(),
        Broadcast::Scalar => vec![grad.iter().sum()],
        Broadcast::RowVector => {
            let mut out = vec![0.0; cols];
            for chunk in grad.chunks(cols) {
                for (o, &g) in out.iter_mut().zip(chunk) {
                    *o += g;
                }
            }
            out
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
    reduce_to(mode, grad, n)
}

impl Tensor {
    fn binary_op(
        &self,
        rhs: &Tensor,
        fwd: impl Fn(f32, f32) -> f32,
        make_backward: impl FnOnce(Broadcast, usize, Tensor, Tensor) -> BackwardFn,
    ) -> Tensor {
        let mode = broadcast_mode(self, rhs);
        let cols = if self.rank() == 2 { self.shape()[1] } else { self.numel() };
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
        let backward = make_backward(mode, cols, self.clone(), rhs.clone());
        Tensor::from_op(out, shape, vec![self.clone(), rhs.clone()], backward)
    }

    /// Elementwise addition; `rhs` may be same-shape, a row vector against a
    /// matrix, or a scalar tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are incompatible (see module docs).
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        self.binary_op(rhs, |a, b| a + b, |mode, cols, lhs, rhs| {
            Box::new(move |g: &[f32]| {
                if lhs.requires_grad() {
                    lhs.accumulate_grad(g);
                }
                if rhs.requires_grad() {
                    rhs.accumulate_grad(&reduce_to(mode, g, cols));
                }
            })
        })
    }

    /// Elementwise subtraction (same broadcasting rules as [`Tensor::add`]).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are incompatible.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        self.binary_op(rhs, |a, b| a - b, |mode, cols, lhs, rhs| {
            Box::new(move |g: &[f32]| {
                if lhs.requires_grad() {
                    lhs.accumulate_grad(g);
                }
                if rhs.requires_grad() {
                    let neg: Vec<f32> = g.iter().map(|x| -x).collect();
                    rhs.accumulate_grad(&reduce_to(mode, &neg, cols));
                }
            })
        })
    }

    /// Elementwise (Hadamard) product (same broadcasting rules as
    /// [`Tensor::add`]).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are incompatible.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        self.binary_op(rhs, |a, b| a * b, |mode, cols, lhs, rhs| {
            Box::new(move |g: &[f32]| {
                if lhs.requires_grad() {
                    let rd = rhs.data();
                    let gl: Vec<f32> = match mode {
                        Broadcast::Same => g.iter().zip(rd.iter()).map(|(&g, &b)| g * b).collect(),
                        Broadcast::Scalar => g.iter().map(|&g| g * rd[0]).collect(),
                        Broadcast::RowVector => rows(g, rd.len())
                            .flat_map(|row| row.iter().zip(rd.iter()).map(|(&g, &b)| g * b))
                            .collect(),
                    };
                    drop(rd);
                    lhs.accumulate_grad(&gl);
                }
                if rhs.requires_grad() {
                    let ld = lhs.data();
                    let gr: Vec<f32> = g.iter().zip(ld.iter()).map(|(&g, &a)| g * a).collect();
                    drop(ld);
                    rhs.accumulate_grad(&reduce_to(mode, &gr, cols));
                }
            })
        })
    }

    /// Elementwise division (same broadcasting rules as [`Tensor::add`]).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are incompatible.
    pub fn div(&self, rhs: &Tensor) -> Tensor {
        self.binary_op(rhs, |a, b| a / b, |mode, cols, lhs, rhs| {
            Box::new(move |g: &[f32]| {
                let rd_snapshot = rhs.to_vec();
                if lhs.requires_grad() {
                    let gl: Vec<f32> = match mode {
                        Broadcast::Same => g
                            .iter()
                            .zip(rd_snapshot.iter())
                            .map(|(&g, &b)| g / b)
                            .collect(),
                        Broadcast::Scalar => g.iter().map(|&g| g / rd_snapshot[0]).collect(),
                        Broadcast::RowVector => rows(g, rd_snapshot.len())
                            .flat_map(|row| row.iter().zip(&rd_snapshot).map(|(&g, &b)| g / b))
                            .collect(),
                    };
                    lhs.accumulate_grad(&gl);
                }
                if rhs.requires_grad() {
                    let ld = lhs.data();
                    let gr: Vec<f32> = match mode {
                        Broadcast::Same => g
                            .iter()
                            .zip(ld.iter())
                            .zip(rd_snapshot.iter())
                            .map(|((&g, &a), &b)| -g * a / (b * b))
                            .collect(),
                        Broadcast::Scalar => {
                            let b = rd_snapshot[0];
                            g.iter()
                                .zip(ld.iter())
                                .map(|(&g, &a)| -g * a / (b * b))
                                .collect()
                        }
                        Broadcast::RowVector => rows(g, rd_snapshot.len())
                            .zip(rows(&ld, rd_snapshot.len()))
                            .flat_map(|(grow, lrow)| {
                                grow.iter()
                                    .zip(lrow)
                                    .zip(&rd_snapshot)
                                    .map(|((&g, &a), &b)| -g * a / (b * b))
                            })
                            .collect(),
                    };
                    drop(ld);
                    rhs.accumulate_grad(&reduce_to(mode, &gr, cols));
                }
            })
        })
    }

    fn unary_op(
        &self,
        fwd: impl Fn(f32) -> f32,
        dfdx: impl Fn(f32, f32) -> f32 + Send + Sync + 'static,
    ) -> Tensor {
        let input = self.to_vec();
        let out: Vec<f32> = input.iter().map(|&x| fwd(x)).collect();
        let out_snapshot = out.clone();
        let src = self.clone();
        let backward: BackwardFn = Box::new(move |g: &[f32]| {
            if src.requires_grad() {
                let gl: Vec<f32> = g
                    .iter()
                    .zip(input.iter().zip(out_snapshot.iter()))
                    .map(|(&g, (&x, &y))| g * dfdx(x, y))
                    .collect();
                src.accumulate_grad(&gl);
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

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.mul_scalar(-1.0)
    }

    /// Rectified linear unit, `max(x, 0)`.
    pub fn relu(&self) -> Tensor {
        self.unary_op(|x| x.max(0.0), |x, _| if x > 0.0 { 1.0 } else { 0.0 })
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&self, alpha: f32) -> Tensor {
        self.unary_op(
            move |x| if x > 0.0 { x } else { alpha * x },
            move |x, _| if x > 0.0 { 1.0 } else { alpha },
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.unary_op(|x| x.tanh(), |_, y| 1.0 - y * y)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        self.unary_op(|x| 1.0 / (1.0 + (-x).exp()), |_, y| y * (1.0 - y))
    }

    /// Softplus, `ln(1 + e^x)`, a smooth non-negative activation used for
    /// delay outputs (delays are physically non-negative).
    pub fn softplus(&self) -> Tensor {
        self.unary_op(
            |x| {
                if x > 20.0 {
                    x
                } else {
                    (1.0 + x.exp()).ln()
                }
            },
            |x, _| 1.0 / (1.0 + (-x).exp()),
        )
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

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.unary_op(|x| x.sqrt(), |_, y| 0.5 / y.max(1e-12))
    }

    /// Elementwise absolute value (subgradient 0 at the kink).
    pub fn abs(&self) -> Tensor {
        self.unary_op(|x| x.abs(), |x, _| {
            if x > 0.0 {
                1.0
            } else if x < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
    }

    /// Clamps every element into `[lo, hi]` (gradient is zero outside).
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.unary_op(
            move |x| x.clamp(lo, hi),
            move |x, _| if x >= lo && x <= hi { 1.0 } else { 0.0 },
        )
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
        let s = Tensor::scalar(3.0).with_grad();
        let y = a.mul(&s);
        assert_eq!(y.to_vec(), vec![3.0, 6.0]);
        y.sum().backward();
        assert_eq!(s.grad().unwrap(), vec![3.0]);
        assert_eq!(a.grad().unwrap(), vec![3.0, 3.0]);
    }

    #[test]
    fn div_gradients() {
        let a = t(&[6.0], &[1]).with_grad();
        let b = t(&[3.0], &[1]).with_grad();
        let y = a.div(&b);
        y.backward();
        assert!((a.grad().unwrap()[0] - 1.0 / 3.0).abs() < 1e-6);
        assert!((b.grad().unwrap()[0] + 6.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn mul_and_div_row_vector_gradients() {
        // y = a ∘ b and y = a / b with b: [3] broadcast over a: [2, 3];
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

        a.zero_grad();
        b.zero_grad();
        let y = a.div(&b);
        assert_eq!(y.to_vec(), vec![0.5, -0.5, 6.0, 2.0, -1.25, 12.0]);
        y.mul(&w).sum().backward();
        assert_eq!(a.grad().unwrap(), vec![0.5, 0.5, 1.0, 1.5, -0.0625, -2.0]);
        // db[j] = Σ_i -w[i,j]·a[i,j] / b[j]²
        assert_eq!(b.grad().unwrap(), vec![-3.25, 0.171875, 18.0]);
    }

    #[test]
    fn relu_grad_zero_below() {
        let a = t(&[-1.0, 2.0], &[2]).with_grad();
        let y = a.relu().sum();
        y.backward();
        assert_eq!(a.grad().unwrap(), vec![0.0, 1.0]);
    }

    #[test]
    fn tanh_matches_reference() {
        let a = t(&[0.5], &[1]).with_grad();
        let y = a.tanh();
        assert!((y.item() - 0.5_f32.tanh()).abs() < 1e-6);
        y.backward();
        let expect = 1.0 - 0.5_f32.tanh().powi(2);
        assert!((a.grad().unwrap()[0] - expect).abs() < 1e-6);
    }

    #[test]
    fn softplus_is_smooth_and_stable() {
        let a = t(&[-30.0, 0.0, 30.0], &[3]);
        let y = a.softplus().to_vec();
        assert!(y[0] >= 0.0 && y[0] < 1e-6);
        assert!((y[1] - (2.0_f32).ln()).abs() < 1e-6);
        assert!((y[2] - 30.0).abs() < 1e-4);
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
