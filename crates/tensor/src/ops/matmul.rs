//! Dense matrix multiplication and the fused dense layer.

use super::elementwise::bias_grad;
use super::gemm::{gemm, gemm_tn, Epilogue};
use crate::tensor::{BackwardFn, Saved};
use crate::{Shape, Tensor};

fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0; src.len()];
    for i in 0..rows {
        for j in 0..cols {
            out[j * rows + i] = src[i * cols + j];
        }
    }
    out
}

/// Accumulates the gradients of `y = lhs·rhs` (`[m, k] × [k, n]`) from
/// `g = dL/dy`, reading the operands live: `dL/dlhs = g·rhsᵀ` over a
/// transposed copy of the (small) weight, then `dL/drhs = lhsᵀ·g` reading
/// `lhs` in place.
fn matmul_backward(g: &[f32], lhs: &Saved, rhs: &Saved, (m, k, n): (usize, usize, usize)) {
    if lhs.tensor.requires_grad() {
        let bt = transpose(&rhs.read(), k, n);
        let mut ga = vec![0.0; m * k];
        gemm(g, &bt, m, n, k, &mut ga, Epilogue::default());
        lhs.tensor.accumulate_grad(ga);
    }
    if rhs.tensor.requires_grad() {
        let mut gb = vec![0.0; k * n];
        gemm_tn(&lhs.read(), g, m, k, n, &mut gb);
        rhs.tensor.accumulate_grad(gb);
    }
}

impl Tensor {
    /// Matrix product of two rank-2 tensors, `[M, K] × [K, N] → [M, N]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the inner dimensions
    /// disagree.
    ///
    /// # Example
    ///
    /// ```
    /// # use tp_tensor::Tensor;
    /// # fn main() -> Result<(), tp_tensor::TensorError> {
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
    /// assert_eq!(a.matmul(&i).to_vec(), a.to_vec());
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let (m, k) = self.shape_obj().as_2d();
        let (k2, n) = rhs.shape_obj().as_2d();
        assert_eq!(
            k,
            k2,
            "matmul inner dims disagree: {} vs {}",
            self.shape_obj(),
            rhs.shape_obj()
        );
        let (lhs_s, rhs_s) = (self.save(), rhs.save());
        let mut out = vec![0.0; m * n];
        gemm(
            &self.data(),
            &rhs.data(),
            m,
            k,
            n,
            &mut out,
            Epilogue::default(),
        );
        let backward: BackwardFn = Box::new(move |g: &[f32], _| {
            matmul_backward(g, &lhs_s, &rhs_s, (m, k, n));
        });
        Tensor::from_op(
            out,
            Shape::new(&[m, n]),
            vec![self.clone(), rhs.clone()],
            backward,
        )
    }

    /// Dense layer `x·W + b` as one op: `self` is `x: [M, K]`, `weight` is
    /// `[K, N]`, `bias` is `[N]`. Bit-identical to
    /// `self.matmul(weight).add(bias)` in its output and in every gradient,
    /// with one output buffer instead of two.
    ///
    /// # Panics
    ///
    /// Panics if `self` or `weight` is not rank 2, the inner dimensions
    /// disagree, or `bias` is not `[N]`.
    ///
    /// # Example
    ///
    /// ```
    /// # use tp_tensor::Tensor;
    /// # fn main() -> Result<(), tp_tensor::TensorError> {
    /// let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2])?;
    /// let w = Tensor::from_vec(vec![1.0, -1.0, 1.0, -1.0], &[2, 2])?;
    /// let b = Tensor::from_vec(vec![0.5, 0.5], &[2])?;
    /// assert_eq!(x.linear(&w, &b).to_vec(), vec![3.5, -2.5]);
    /// assert_eq!(x.linear_relu(&w, &b).to_vec(), vec![3.5, 0.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn linear(&self, weight: &Tensor, bias: &Tensor) -> Tensor {
        self.dense(weight, bias, false)
    }

    /// [`Tensor::linear`] followed by ReLU, as one op: bit-identical to
    /// `self.matmul(weight).add(bias).relu()`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Tensor::linear`].
    pub fn linear_relu(&self, weight: &Tensor, bias: &Tensor) -> Tensor {
        self.dense(weight, bias, true)
    }

    /// The fused dense op. Each output element goes through the float ops
    /// of `matmul → add → relu` in the same order: the gemm sum, `+ b[j]`,
    /// then `max(0.0)`, all in the gemm's one pass over the output. The
    /// backward masks the incoming gradient with
    /// `g · [y > 0]` on the op's own output `y` (the relu backward's exact
    /// product; `y > 0` iff its input was), sums the bias gradient as `add`
    /// does, and hands the masked gradient to matmul's backward, which
    /// reads `x` and `W` live.
    fn dense(&self, weight: &Tensor, bias: &Tensor, relu: bool) -> Tensor {
        let (m, k) = self.shape_obj().as_2d();
        let (k2, n) = weight.shape_obj().as_2d();
        assert_eq!(
            k,
            k2,
            "linear inner dims disagree: {} vs {}",
            self.shape_obj(),
            weight.shape_obj()
        );
        assert_eq!(
            bias.shape(),
            [n],
            "linear bias must be [{n}], got {}",
            bias.shape_obj()
        );
        let (x, w) = (self.save(), weight.save());
        let mut out = vec![0.0; m * n];
        let bd = bias.data();
        let epi = Epilogue {
            bias: Some(&bd),
            relu,
        };
        gemm(&self.data(), &weight.data(), m, k, n, &mut out, epi);
        drop(bd);
        let b = bias.clone();
        let backward: BackwardFn = Box::new(move |g: &[f32], y: &[f32]| {
            let masked: Vec<f32>;
            let g = if relu {
                masked = g
                    .iter()
                    .zip(y)
                    .map(|(&g, &y)| g * if y > 0.0 { 1.0 } else { 0.0 })
                    .collect();
                &masked[..]
            } else {
                g
            };
            if b.requires_grad() {
                b.accumulate_grad(bias_grad(g, n));
            }
            matmul_backward(g, &x, &w, (m, k, n));
        });
        Tensor::from_op(
            out,
            Shape::new(&[m, n]),
            vec![self.clone(), weight.clone(), bias.clone()],
            backward,
        )
    }
}

#[cfg(test)]
mod tests {
    use tp_rng::{prop, Rng, StdRng};

    use crate::{no_grad, Tensor};

    #[test]
    fn matmul_2x3_3x2() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7., 8., 9., 10., 11., 12.], &[3, 2]).unwrap();
        let y = a.matmul(&b);
        assert_eq!(y.shape(), &[2, 2]);
        assert_eq!(y.to_vec(), vec![58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_gradients_match_manual() {
        // y = sum(A·B); dy/dA = ones·Bᵀ, dy/dB = Aᵀ·ones
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2])
            .unwrap()
            .with_grad();
        let b = Tensor::from_vec(vec![5., 6., 7., 8.], &[2, 2])
            .unwrap()
            .with_grad();
        a.matmul(&b).sum().backward();
        assert_eq!(a.grad().unwrap(), vec![11., 15., 11., 15.]);
        assert_eq!(b.grad().unwrap(), vec![4., 4., 6., 6.]);
    }

    #[test]
    fn large_matmul_bits_are_thread_count_independent() {
        // 96×48 × 48×40 = 184k multiply-adds — enough predicted work for
        // the cost model to fork at >1 thread. Flipping the global
        // override mid-suite is safe precisely because of the property
        // under test: thread count never changes results.
        let (m, k, n) = (96usize, 48usize, 40usize);
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.031)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 53 % 97) as f32 - 48.0) * 0.017)
            .collect();
        let at = Tensor::from_vec(a, &[m, k]).unwrap().with_grad();
        let bt = Tensor::from_vec(b, &[k, n]).unwrap().with_grad();
        let run = |threads: usize| {
            tp_par::set_threads(threads);
            at.zero_grad();
            bt.zero_grad();
            let y = at.matmul(&bt);
            y.sum().backward();
            let bits = |v: Vec<f32>| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
            let out = (
                bits(y.to_vec()),
                bits(at.grad().unwrap()),
                bits(bt.grad().unwrap()),
            );
            tp_par::set_threads(0);
            out
        };
        assert_eq!(run(1), run(4));
    }

    /// `rows × cols` values in [-2, 2) with exact zeros mixed in, so both
    /// the gemm's zero skip and the ReLU mask see every case.
    fn values(rng: &mut StdRng, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        let v = (0..n)
            .map(|_| {
                if rng.gen_range(0..6u32) == 0 {
                    0.0
                } else {
                    rng.gen_range(-2.0f32..2.0)
                }
            })
            .collect();
        Tensor::from_vec(v, shape).unwrap()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Builds a two-layer net whose first layer is applied twice (to `x`
    /// and `x2`, sharing `w1`, `b1`), with either the fused ops or the
    /// `matmul → add → relu` chain, and returns both outputs and the loss.
    fn two_layer_net(
        fused: bool,
        relu: bool,
        (x, x2): (&Tensor, &Tensor),
        (w1, b1, w2, b2): (&Tensor, &Tensor, &Tensor, &Tensor),
        (wy, wz): (&Tensor, &Tensor),
    ) -> (Tensor, Tensor, Tensor) {
        let layer = |x: &Tensor, w: &Tensor, b: &Tensor, relu: bool| match (fused, relu) {
            (true, true) => x.linear_relu(w, b),
            (true, false) => x.linear(w, b),
            (false, true) => x.matmul(w).add(b).relu(),
            (false, false) => x.matmul(w).add(b),
        };
        // An interior input, so its gradient flows on through the tape.
        let y = layer(&layer(&x.mul_scalar(1.0), w1, b1, relu), w2, b2, false);
        let z = layer(x2, w1, b1, relu);
        let loss = y.mul(wy).sum().add(&z.mul(wz).sum());
        (y, z, loss)
    }

    #[test]
    fn fused_dense_is_bit_identical_to_matmul_add_relu() {
        prop::check(
            "fused_dense_is_bit_identical_to_matmul_add_relu",
            64,
            |rng| {
                let (m, m2) = (rng.gen_range(1..10usize), rng.gen_range(1..6usize));
                // Widths up to 72 reach every mix of the gemm's 32-, 16- and
                // 8-column panels and its column tails.
                let (k, h) = (rng.gen_range(1..12usize), rng.gen_range(1..73usize));
                // n = 1 takes `add`'s scalar-broadcast path for the bias.
                let n = rng.gen_range(1..73usize);
                let relu = rng.gen_range(0..2u32) == 0;
                let x = values(rng, &[m, k]).with_grad();
                let x2 = values(rng, &[m2, k]).with_grad();
                let params = [
                    values(rng, &[k, h]).with_grad(),
                    values(rng, &[h]).with_grad(),
                    values(rng, &[h, n]).with_grad(),
                    values(rng, &[n]).with_grad(),
                ];
                // A quarter of the cases make row 0 of the shared first
                // layer's weight +inf and zero column 0 of some input rows:
                // those rows take the gemm's reference fallback (which
                // skips 0·inf), and the bias and the ReLU must come after
                // it; the other rows stay non-finite.
                if rng.gen_range(0..4u32) == 0 {
                    params[0].data_mut()[..h].fill(f32::INFINITY);
                    for t in [&x, &x2] {
                        for row in t.data_mut().chunks_exact_mut(k) {
                            if rng.gen_range(0..2u32) == 0 {
                                row[0] = 0.0;
                            }
                        }
                    }
                }
                let (wy, wz) = (values(rng, &[m, n]), values(rng, &[m2, h]));
                let leaves = [&x, &x2, &params[0], &params[1], &params[2], &params[3]];
                let run = |fused: bool| {
                    let net = || {
                        two_layer_net(
                            fused,
                            relu,
                            (&x, &x2),
                            (&params[0], &params[1], &params[2], &params[3]),
                            (&wy, &wz),
                        )
                    };
                    // With a tape: outputs and every leaf gradient.
                    leaves.iter().for_each(|t| t.zero_grad());
                    let (y, z, loss) = net();
                    loss.backward();
                    let mut taped =
                        vec![bits(&y.to_vec()), bits(&z.to_vec()), bits(&loss.to_vec())];
                    taped.extend(leaves.iter().map(|t| bits(&t.grad().unwrap())));
                    // Without one: outputs only.
                    let (y, z, loss) = no_grad(net);
                    let untaped = [y, z, loss].map(|t| bits(&t.to_vec()));
                    (taped, untaped)
                };
                assert_eq!(run(false), run(true), "{m}x{k}x{h}x{n} relu={relu}");
            },
        );
    }

    #[test]
    fn weight_gradient_across_row_panels_is_the_straight_sum() {
        // 165 rows span three of the weight-gradient gemm's 64-row panels,
        // the last one ragged, so its sums carry from panel to panel.
        let (m, k, n) = (165, 9, 21);
        let mut rng = StdRng::seed_from_u64(11);
        let x = values(&mut rng, &[m, k]);
        let w = values(&mut rng, &[k, n]).with_grad();
        let b = values(&mut rng, &[n]);
        let g = values(&mut rng, &[m, n]);
        // dL/dW = xᵀ·g with L = sum(y ⊙ g): each sum from +0.0, rows
        // ascending, zero terms skipped, as the reference kernel adds.
        let (xd, gd) = (x.to_vec(), g.to_vec());
        let mut want = vec![0.0f32; k * n];
        for (xrow, grow) in xd.chunks_exact(k).zip(gd.chunks_exact(n)) {
            for (&xv, wrow) in xrow.iter().zip(want.chunks_exact_mut(n)) {
                if xv != 0.0 {
                    for (o, &gv) in wrow.iter_mut().zip(grow) {
                        *o += xv * gv;
                    }
                }
            }
        }
        for (name, y) in [("matmul", x.matmul(&w)), ("linear", x.linear(&w, &b))] {
            w.zero_grad();
            y.mul(&g).sum().backward();
            assert_eq!(bits(&w.grad().unwrap()), bits(&want), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "linear bias must be [2]")]
    fn linear_rejects_a_bias_of_the_wrong_width() {
        let x = Tensor::zeros(&[1, 3]);
        let _ = x.linear(&Tensor::zeros(&[3, 2]), &Tensor::zeros(&[3]));
    }

    #[test]
    #[should_panic(expected = "inner dims disagree")]
    fn mismatched_inner_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }
}
