//! Shape manipulation: reshape, concat, column slicing, row-wise outer
//! products.

use crate::tensor::BackwardFn;
use crate::{Shape, Tensor, TensorError};

impl Tensor {
    /// Returns a tensor with the same data viewed under a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if the element counts differ.
    pub(crate) fn reshape(&self, shape: &[usize]) -> Result<Tensor, TensorError> {
        let to: usize = shape.iter().product();
        if to != self.numel() {
            return Err(TensorError::ReshapeMismatch {
                from: self.numel(),
                to,
            });
        }
        let src = self.clone();
        let backward: BackwardFn = Box::new(move |g: &[f32], _| {
            if src.requires_grad() {
                src.accumulate_grad(g);
            }
        });
        Ok(Tensor::from_op(
            self.to_vec(),
            Shape::new(shape),
            vec![self.clone()],
            backward,
        ))
    }

    /// Views a rank-1 tensor `[N]` as a column matrix `[N, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 1.
    pub fn unsqueeze1(&self) -> Tensor {
        assert_eq!(self.rank(), 1, "unsqueeze1 expects a rank-1 tensor");
        self.reshape(&[self.numel(), 1])
            .expect("element count unchanged")
    }

    /// Concatenates matrices along axis 1 (features): `[N, A] ‖ [N, B] ‖ … →
    /// [N, A+B+…]`.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, any part is not rank 2, or row counts
    /// disagree.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols requires at least one part");
        let n = parts[0].shape_obj().as_2d().0;
        let widths: Vec<usize> = parts
            .iter()
            .map(|p| {
                let (rows, cols) = p.shape_obj().as_2d();
                assert_eq!(rows, n, "concat_cols parts must share a row count");
                cols
            })
            .collect();
        let total: usize = widths.iter().sum();
        let mut out = vec![0.0; n * total];
        let mut offset = 0;
        for (p, &w) in parts.iter().zip(&widths) {
            let data = p.data();
            for i in 0..n {
                out[i * total + offset..i * total + offset + w]
                    .copy_from_slice(&data[i * w..(i + 1) * w]);
            }
            offset += w;
        }
        let parents: Vec<Tensor> = parts.iter().map(|&p| p.clone()).collect();
        let parent_handles = parents.clone();
        let backward: BackwardFn = Box::new(move |g: &[f32], _| {
            let mut offset = 0;
            for (p, &w) in parent_handles.iter().zip(&widths) {
                if p.requires_grad() {
                    let mut gp = vec![0.0; n * w];
                    for i in 0..n {
                        gp[i * w..(i + 1) * w]
                            .copy_from_slice(&g[i * total + offset..i * total + offset + w]);
                    }
                    p.accumulate_grad(gp);
                }
                offset += w;
            }
        });
        Tensor::from_op(out, Shape::new(&[n, total]), parents, backward)
    }

    /// Concatenates matrices along axis 0 (rows): `[A, D] ⧺ [B, D] → [A+B, D]`.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or column counts disagree.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows requires at least one part");
        let d = parts[0].shape_obj().as_2d().1;
        let heights: Vec<usize> = parts
            .iter()
            .map(|p| {
                let (rows, cols) = p.shape_obj().as_2d();
                assert_eq!(cols, d, "concat_rows parts must share a column count");
                rows
            })
            .collect();
        let total: usize = heights.iter().sum();
        let mut out = Vec::with_capacity(total * d);
        for p in parts {
            out.extend_from_slice(&p.data());
        }
        let parents: Vec<Tensor> = parts.iter().map(|&p| p.clone()).collect();
        let parent_handles = parents.clone();
        let backward: BackwardFn = Box::new(move |g: &[f32], _| {
            let mut offset = 0;
            for (p, &h) in parent_handles.iter().zip(&heights) {
                if p.requires_grad() {
                    p.accumulate_grad(&g[offset * d..(offset + h) * d]);
                }
                offset += h;
            }
        });
        Tensor::from_op(out, Shape::new(&[total, d]), parents, backward)
    }

    /// Slices columns `[start, start+len)` of a matrix: `[N, D] → [N, len]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the range exceeds `D`.
    pub fn narrow_cols(&self, start: usize, len: usize) -> Tensor {
        let (n, d) = self.shape_obj().as_2d();
        assert!(
            start + len <= d,
            "column range {start}..{} exceeds {d}",
            start + len
        );
        let data = self.data();
        let mut out = Vec::with_capacity(n * len);
        for i in 0..n {
            out.extend_from_slice(&data[i * d + start..i * d + start + len]);
        }
        drop(data);
        let src = self.clone();
        let backward: BackwardFn = Box::new(move |g: &[f32], _| {
            if src.requires_grad() {
                let mut gs = vec![0.0; n * d];
                for i in 0..n {
                    gs[i * d + start..i * d + start + len]
                        .copy_from_slice(&g[i * len..(i + 1) * len]);
                }
                src.accumulate_grad(gs);
            }
        });
        Tensor::from_op(out, Shape::new(&[n, len]), vec![self.clone()], backward)
    }

    /// Row-wise outer product, flattened: given `self: [N, A]` and
    /// `rhs: [N, B]`, returns `[N, A·B]` where
    /// `out[i, a·B + b] = self[i, a] · rhs[i, b]`.
    ///
    /// This is the **Kronecker-product combination** of per-axis LUT
    /// interpolation coefficients from the paper's Sec. 3.3.2.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or row counts disagree.
    pub fn outer_flatten(&self, rhs: &Tensor) -> Tensor {
        let (n, a) = self.shape_obj().as_2d();
        let (n2, b) = rhs.shape_obj().as_2d();
        assert_eq!(n, n2, "outer_flatten operands must share a row count");
        let (lhs_s, rhs_s) = (self.save(), rhs.save());
        let ld = self.data();
        let rd = rhs.data();
        let mut out = vec![0.0; n * a * b];
        for i in 0..n {
            for x in 0..a {
                let lv = ld[i * a + x];
                if lv == 0.0 {
                    continue;
                }
                let dst = &mut out[i * a * b + x * b..i * a * b + (x + 1) * b];
                let rrow = &rd[i * b..(i + 1) * b];
                for (o, &rv) in dst.iter_mut().zip(rrow) {
                    *o = lv * rv;
                }
            }
        }
        drop(ld);
        drop(rd);
        let backward: BackwardFn = Box::new(move |g: &[f32], _| {
            if lhs_s.tensor.requires_grad() {
                let rd = rhs_s.read();
                let mut gl = vec![0.0; n * a];
                for i in 0..n {
                    for x in 0..a {
                        let mut acc = 0.0;
                        for y in 0..b {
                            acc += g[i * a * b + x * b + y] * rd[i * b + y];
                        }
                        gl[i * a + x] = acc;
                    }
                }
                drop(rd);
                lhs_s.tensor.accumulate_grad(gl);
            }
            if rhs_s.tensor.requires_grad() {
                let ld = lhs_s.read();
                let mut gr = vec![0.0; n * b];
                for i in 0..n {
                    for y in 0..b {
                        let mut acc = 0.0;
                        for x in 0..a {
                            acc += g[i * a * b + x * b + y] * ld[i * a + x];
                        }
                        gr[i * b + y] = acc;
                    }
                }
                drop(ld);
                rhs_s.tensor.accumulate_grad(gr);
            }
        });
        Tensor::from_op(
            out,
            Shape::new(&[n, a * b]),
            vec![self.clone(), rhs.clone()],
            backward,
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    fn m(v: &[f32], s: &[usize]) -> Tensor {
        Tensor::from_vec(v.to_vec(), s).unwrap()
    }

    #[test]
    fn reshape_checks_count() {
        let a = Tensor::zeros(&[2, 3]);
        assert!(a.reshape(&[3, 2]).is_ok());
        assert!(a.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn concat_cols_values_and_grad() {
        let a = m(&[1., 2.], &[2, 1]).with_grad();
        let b = m(&[3., 4., 5., 6.], &[2, 2]).with_grad();
        let y = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(y.to_vec(), vec![1., 3., 4., 2., 5., 6.]);
        y.mul(&m(&[1., 2., 3., 4., 5., 6.], &[2, 3]))
            .sum()
            .backward();
        assert_eq!(a.grad().unwrap(), vec![1., 4.]);
        assert_eq!(b.grad().unwrap(), vec![2., 3., 5., 6.]);
    }

    #[test]
    fn concat_rows_stacks() {
        let a = m(&[1., 2.], &[1, 2]);
        let b = m(&[3., 4., 5., 6.], &[2, 2]);
        let y = Tensor::concat_rows(&[&a, &b]);
        assert_eq!(y.shape(), &[3, 2]);
        assert_eq!(y.to_vec(), vec![1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    fn narrow_cols_slices() {
        let a = m(&[1., 2., 3., 4., 5., 6.], &[2, 3]).with_grad();
        let y = a.narrow_cols(1, 2);
        assert_eq!(y.to_vec(), vec![2., 3., 5., 6.]);
        y.sum().backward();
        assert_eq!(a.grad().unwrap(), vec![0., 1., 1., 0., 1., 1.]);
    }

    #[test]
    fn outer_flatten_is_rowwise_kron() {
        let a = m(&[1., 2.], &[1, 2]);
        let b = m(&[10., 20., 30.], &[1, 3]);
        let y = a.outer_flatten(&b);
        assert_eq!(y.shape(), &[1, 6]);
        assert_eq!(y.to_vec(), vec![10., 20., 30., 20., 40., 60.]);
    }

    #[test]
    fn outer_flatten_grads() {
        let a = m(&[2.0], &[1, 1]).with_grad();
        let b = m(&[3.0], &[1, 1]).with_grad();
        a.outer_flatten(&b).backward();
        assert_eq!(a.grad().unwrap(), vec![3.0]);
        assert_eq!(b.grad().unwrap(), vec![2.0]);
    }

    #[test]
    fn unsqueeze1_makes_column() {
        let a = Tensor::from_slice(&[1., 2., 3.]);
        assert_eq!(a.unsqueeze1().shape(), &[3, 1]);
    }
}
