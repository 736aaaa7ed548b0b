//! Property-based gradient verification against central finite differences,
//! on the in-repo `tp_rng::prop` harness (seeded cases, failure-seed
//! reporting).
//!
//! For every differentiable op we build a scalar loss `L(x) = Σ f(x) ⊙ w`
//! with random weights `w`, compute analytic gradients via backprop, and
//! compare against `(L(x+h) - L(x-h)) / 2h` per coordinate.

use tp_rng::{prop, Rng, StdRng};
use tp_tensor::ops::elementwise::mask_rows;
use tp_tensor::Tensor;

const H: f32 = 1e-2;
const TOL: f32 = 2e-2;
const CASES: usize = 64;

/// Evaluates `loss(x_data)` freshly (no autograd) for finite differences.
fn numeric_grad(x_data: &[f32], shape: &[usize], loss: &dyn Fn(&Tensor) -> Tensor) -> Vec<f32> {
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

/// Values with magnitude in [0.3, 2) and a random sign: every input stays
/// on one side of a kink at 0 under an `H`-sized nudge.
fn vals_signed_nonzero(rng: &mut StdRng, n: usize) -> Vec<f32> {
    let mut v = vals_nonzero(rng, n);
    for x in &mut v {
        if rng.gen_range(0..2u32) == 0 {
            *x = -*x;
        }
    }
    v
}

fn tensor(data: Vec<f32>, shape: &[usize]) -> Tensor {
    Tensor::from_vec(data, shape).unwrap()
}

/// `Σ y² ⊙ w`: nonlinear, and each output position weighted differently,
/// so a gradient routed to the wrong row or column shows.
fn weighted_square(y: &Tensor, w: &Tensor) -> Tensor {
    y.square().mul(w).sum()
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
fn grad_lut_interp() {
    // Two rows of 2×3 coefficients and two tables after one leading
    // column: the gradient of each coefficient operand in turn, the other
    // held fixed.
    prop::check("grad_lut_interp", CASES, |rng| {
        let tables = tensor(vals(rng, 2 * 13), &[2, 13]);
        let w = tensor(vals(rng, 4), &[2, 2]);
        let cl = tensor(vals(rng, 6), &[2, 3]);
        let (t, wc) = (tables.clone(), w.clone());
        check_op(vals(rng, 4), &[2, 2], move |cs| {
            weighted_square(&cs.lut_interp(&cl, &t, 1), &wc)
        });
        let cs = tensor(vals(rng, 4), &[2, 2]);
        check_op(vals(rng, 6), &[2, 3], move |cl| {
            weighted_square(&cs.lut_interp(cl, &tables, 1), &w)
        });
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
fn grad_mse_target() {
    prop::check("grad_mse_target", CASES, |rng| {
        let p = tensor(vals(rng, 4), &[4]);
        check_op(vals(rng, 4), &[4], move |t| p.mse(t));
    });
}

#[test]
fn grad_relu() {
    prop::check("grad_relu", CASES, |rng| {
        let w = tensor(vals(rng, 8), &[2, 4]);
        check_op(vals_signed_nonzero(rng, 8), &[2, 4], move |x| {
            x.relu().mul(&w).sum()
        });
    });
}

#[test]
fn grad_add_broadcasts() {
    prop::check("grad_add_broadcasts", CASES, |rng| {
        let w = tensor(vals(rng, 6), &[3, 2]);
        let a = tensor(vals(rng, 6), &[3, 2]);
        let (row, scalar) = (tensor(vals(rng, 2), &[2]), tensor(vals(rng, 1), &[1]));
        check_op(vals(rng, 6), &[3, 2], |x| weighted_square(&x.add(&row), &w));
        check_op(vals(rng, 2), &[2], |r| weighted_square(&a.add(r), &w));
        check_op(vals(rng, 6), &[3, 2], |x| {
            weighted_square(&x.add(&scalar), &w)
        });
        check_op(vals(rng, 1), &[1], |s| weighted_square(&a.add(s), &w));
    });
}

#[test]
fn grad_concat_rows() {
    prop::check("grad_concat_rows", CASES, |rng| {
        let w = tensor(vals(rng, 10), &[5, 2]);
        let other = tensor(vals(rng, 4), &[2, 2]);
        check_op(vals(rng, 6), &[3, 2], |x| {
            weighted_square(&Tensor::concat_rows(&[x, &other]), &w)
        });
        check_op(vals(rng, 6), &[3, 2], |x| {
            weighted_square(&Tensor::concat_rows(&[&other, x]), &w)
        });
    });
}

#[test]
fn grad_scatter_rows() {
    prop::check("grad_scatter_rows", CASES, |rng| {
        let w = tensor(vals(rng, 8), &[4, 2]);
        let index = prop::vec_index(rng, 3, 4);
        check_op(vals(rng, 6), &[3, 2], |x| {
            weighted_square(&x.scatter_rows(&index, 4), &w)
        });
    });
}

#[test]
fn grad_assemble_rows() {
    prop::check("grad_assemble_rows", CASES, |rng| {
        let w = tensor(vals(rng, 12), &[6, 2]);
        let index = prop::vec_index(rng, 6, 5);
        let (a, b) = (tensor(vals(rng, 4), &[2, 2]), tensor(vals(rng, 6), &[3, 2]));
        check_op(vals(rng, 4), &[2, 2], |x| {
            weighted_square(&Tensor::assemble_rows(&[x, &b], &index), &w)
        });
        check_op(vals(rng, 6), &[3, 2], |x| {
            weighted_square(&Tensor::assemble_rows(&[&a, x], &index), &w)
        });
    });
}

#[test]
fn grad_mask_rows() {
    prop::check("grad_mask_rows", CASES, |rng| {
        let w = tensor(vals(rng, 6), &[3, 2]);
        let mask = [1.0, 0.0, rng.gen_range(-1.0f32..1.0)];
        check_op(vals(rng, 6), &[3, 2], |x| {
            weighted_square(&mask_rows(x, &mask), &w)
        });
    });
}

/// Distinct inputs 0.1 apart, shuffled: no (segment, column) has a tie, and
/// an `H`-sized nudge never changes which row is the maximum.
#[test]
fn grad_segment_max_tie_free() {
    prop::check("grad_segment_max_tie_free", CASES, |rng| {
        let mut v: Vec<f32> = (0..12).map(|i| i as f32 * 0.1 - 0.6).collect();
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..=i as u64) as usize);
        }
        let segments = prop::vec_index(rng, 6, 3);
        let w = tensor(vals(rng, 6), &[3, 2]);
        check_op(v, &[6, 2], |x| {
            weighted_square(&x.segment_max(&segments, 3), &w)
        });
    });
}

/// On a tie the whole gradient reaches the first row holding the maximum.
#[test]
fn segment_max_tie_sends_gradient_to_the_first_row() {
    let x = tensor(vec![1.0, 5.0, 3.0, 5.0, 3.0, 2.0, 4.0, 4.0], &[4, 2]).with_grad();
    let y = x.segment_max(&[0, 0, 0, 1], 2);
    assert_eq!(y.to_vec(), vec![3.0, 5.0, 4.0, 4.0]);
    y.mul(&tensor(vec![2.0, 3.0, 5.0, 7.0], &[2, 2]))
        .sum()
        .backward();
    // Column 0 ties rows 1 and 2 at 3; column 1 ties rows 0 and 1 at 5.
    assert_eq!(
        x.grad().unwrap(),
        vec![0.0, 3.0, 2.0, 0.0, 0.0, 0.0, 5.0, 7.0]
    );
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
        // `None` until a member arrives; a NaN member wins, the first one
        // on several, and an empty segment reads 0.
        let mut expect: Vec<Option<f32>> = vec![None; 6];
        for (r, &s) in segs.iter().enumerate() {
            for j in 0..2 {
                let v = v[r * 2 + j];
                let e = &mut expect[s * 2 + j];
                *e = Some(match *e {
                    None => v,
                    Some(max) if max.is_nan() => max,
                    Some(max) if v.is_nan() || v > max => v,
                    Some(max) => max,
                });
            }
        }
        let expect: Vec<f32> = expect.into_iter().map(|e| e.unwrap_or(0.0)).collect();
        let got = y.to_vec();
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-4);
        }
    });
}
