//! Shape manipulation: concatenation and column slicing.

use crate::tensor::BackwardFn;
use crate::{Shape, Tensor};

impl Tensor {
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
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    fn m(v: &[f32], s: &[usize]) -> Tensor {
        Tensor::from_vec(v.to_vec(), s).unwrap()
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
}
