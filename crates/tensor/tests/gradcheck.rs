//! Property-based gradient verification against central finite differences,
//! on the in-repo `tp_rng::prop` harness (seeded cases, failure-seed
//! reporting).
//!
//! For every differentiable op we build a scalar loss `L(x) = Σ f(x) ⊙ w`
//! with random weights `w`, compute analytic gradients via backprop, and
//! compare against `(L(x+h) - L(x-h)) / 2h` per coordinate.

use tp_rng::{prop, Rng, StdRng};
use tp_tensor::Tensor;

const H: f32 = 1e-2;
const TOL: f32 = 2e-2;
const CASES: usize = 64;

/// Evaluates `loss(x_data)` freshly (no autograd) for finite differences.
fn numeric_grad(
    x_data: &[f32],
    shape: &[usize],
    loss: &dyn Fn(&Tensor) -> Tensor,
) -> Vec<f32> {
    let mut grads = Vec::with_capacity(x_data.len());
    for i in 0..x_data.len() {
        let mut plus = x_data.to_vec();
        plus[i] += H;
        let mut minus = x_data.to_vec();
        minus[i] -= H;
        let lp = loss(&Tensor::from_vec(plus, shape).unwrap()).item();
        let lm = loss(&Tensor::from_vec(minus, shape).unwrap()).item();
        grads.push((lp - lm) / (2.0 * H));
    }
    grads
}

fn check_op(x_data: Vec<f32>, shape: &[usize], loss: impl Fn(&Tensor) -> Tensor) {
    let x = Tensor::from_vec(x_data.clone(), shape).unwrap().with_grad();
    loss(&x).backward();
    let analytic = x.grad().expect("gradient must exist");
    let numeric = numeric_grad(&x_data, shape, &loss);
    for (i, (&a, &n)) in analytic.iter().zip(&numeric).enumerate() {
        let scale = a.abs().max(n.abs()).max(1.0);
        assert!(
            (a - n).abs() / scale < TOL,
            "coordinate {i}: analytic {a} vs numeric {n}"
        );
    }
}

fn vals(rng: &mut StdRng, n: usize) -> Vec<f32> {
    prop::vec_f32(rng, n, -2.0, 2.0)
}

/// Values bounded away from zero, for ops with kinks or singularities there.
fn vals_nonzero(rng: &mut StdRng, n: usize) -> Vec<f32> {
    prop::vec_f32(rng, n, 0.3, 2.0)
}

#[test]
fn grad_square_mean() {
    prop::check("grad_square_mean", CASES, |rng| {
        check_op(vals(rng, 8), &[2, 4], |x| x.square().mean());
    });
}

#[test]
fn grad_exp() {
    prop::check("grad_exp", CASES, |rng| {
        check_op(vals(rng, 4), &[4], |x| x.exp().sum());
    });
}

#[test]
fn grad_ln() {
    prop::check("grad_ln", CASES, |rng| {
        check_op(vals_nonzero(rng, 4), &[4], |x| x.ln().sum());
    });
}

#[test]
fn grad_matmul() {
    prop::check("grad_matmul", CASES, |rng| {
        let w = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.25, 1.5, -0.75], &[3, 2]).unwrap();
        check_op(vals(rng, 6), &[2, 3], move |x| x.matmul(&w).sum());
    });
}

#[test]
fn grad_linear() {
    prop::check("grad_linear", CASES, |rng| {
        let w = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.25, 1.5, -0.75], &[3, 2]).unwrap();
        let b = Tensor::from_slice(&[0.3, -0.6]);
        let wts = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[2, 2]).unwrap();
        let x = vals(rng, 6);
        check_op(x.clone(), &[2, 3], |x| x.linear(&w, &b).mul(&wts).sum());
        let x = Tensor::from_vec(x, &[2, 3]).unwrap();
        check_op(vals(rng, 6), &[3, 2], |w| x.linear(w, &b).mul(&wts).sum());
        check_op(vals(rng, 2), &[2], |b| x.linear(&w, b).mul(&wts).sum());
    });
}

/// The ReLU kink sits where a pre-activation crosses zero, and a central
/// difference straddling it is meaningless. So inputs are positive, column
/// 0's weights and bias keep every pre-activation above 0.35 (live) and
/// column 1's keep it below -0.45 (masked), while an `H`-sized nudge of
/// any operand moves a pre-activation by at most 0.02.
#[test]
fn grad_linear_relu() {
    prop::check("grad_linear_relu", CASES, |rng| {
        let w = Tensor::from_vec(vec![0.5, -1.0, 0.25, -0.5, 1.5, -0.75], &[3, 2]).unwrap();
        let b = Tensor::from_slice(&[0.1, -0.2]);
        let wts = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[2, 2]).unwrap();
        let x = vals_nonzero(rng, 6);
        check_op(x.clone(), &[2, 3], |x| {
            x.linear_relu(&w, &b).mul(&wts).sum()
        });
        let x = Tensor::from_vec(x, &[2, 3]).unwrap();
        let w_vals: Vec<f32> = (0..6)
            .map(|i| {
                let v = rng.gen_range(0.3f32..2.0);
                if i % 2 == 0 {
                    v
                } else {
                    -v
                }
            })
            .collect();
        check_op(w_vals, &[3, 2], |w| x.linear_relu(w, &b).mul(&wts).sum());
        check_op(vec![0.5, -1.5], &[2], |b| {
            x.linear_relu(&w, b).mul(&wts).sum()
        });
    });
}

#[test]
fn grad_mul_chain() {
    prop::check("grad_mul_chain", CASES, |rng| {
        check_op(vals(rng, 4), &[4], |x| x.mul(x).add(x).sum());
    });
}

#[test]
fn grad_gather() {
    prop::check("grad_gather", CASES, |rng| {
        check_op(vals(rng, 6), &[3, 2], |x| {
            x.gather_rows(&[2, 0, 0, 1]).square().sum()
        });
    });
}

#[test]
fn grad_segment_sum() {
    prop::check("grad_segment_sum", CASES, |rng| {
        check_op(vals(rng, 8), &[4, 2], |x| {
            x.segment_sum(&[0, 1, 0, 1], 2).square().sum()
        });
    });
}

#[test]
fn grad_concat_and_narrow() {
    prop::check("grad_concat_and_narrow", CASES, |rng| {
        check_op(vals(rng, 6), &[3, 2], |x| {
            let left = x.narrow_cols(0, 1);
            let right = x.narrow_cols(1, 1);
            Tensor::concat_cols(&[&right, &left]).square().sum()
        });
    });
}

#[test]
fn grad_outer_flatten() {
    prop::check("grad_outer_flatten", CASES, |rng| {
        let w = Tensor::from_vec(vec![1.0, -0.5, 0.25, 2.0], &[2, 2]).unwrap();
        check_op(vals(rng, 4), &[2, 2], move |x| x.outer_flatten(&w).sum());
    });
}

#[test]
fn grad_sum_axis1() {
    prop::check("grad_sum_axis1", CASES, |rng| {
        check_op(vals(rng, 6), &[2, 3], |x| x.sum_axis1().square().sum());
    });
}

#[test]
fn grad_mse() {
    prop::check("grad_mse", CASES, |rng| {
        let t = Tensor::from_slice(&[0.1, -0.2, 0.3, -0.4]);
        check_op(vals(rng, 4), &[4], move |x| x.mse(&t));
    });
}

#[test]
fn segment_sum_matches_naive() {
    prop::check("segment_sum_matches_naive", CASES, |rng| {
        let v = vals(rng, 12);
        let segs = prop::vec_index(rng, 6, 3);
        let x = Tensor::from_vec(v.clone(), &[6, 2]).unwrap();
        let y = x.segment_sum(&segs, 3);
        let mut expect = vec![0.0f32; 6];
        for (r, &s) in segs.iter().enumerate() {
            expect[s * 2] += v[r * 2];
            expect[s * 2 + 1] += v[r * 2 + 1];
        }
        let got = y.to_vec();
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-4);
        }
    });
}

#[test]
fn segment_max_matches_naive() {
    prop::check("segment_max_matches_naive", CASES, |rng| {
        let v = vals(rng, 12);
        let segs = prop::vec_index(rng, 6, 3);
        let x = Tensor::from_vec(v.clone(), &[6, 2]).unwrap();
        let y = x.segment_max(&segs, 3);
        let mut expect = vec![f32::NEG_INFINITY; 6];
        for (r, &s) in segs.iter().enumerate() {
            for j in 0..2 {
                expect[s * 2 + j] = expect[s * 2 + j].max(v[r * 2 + j]);
            }
        }
        for e in expect.iter_mut() {
            if *e == f32::NEG_INFINITY {
                *e = 0.0;
            }
        }
        let got = y.to_vec();
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-4);
        }
    });
}
