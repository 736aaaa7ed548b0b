//! Row gathering and segment reductions — the message-passing primitives.
//!
//! A message-passing layer is expressed as
//!
//! 1. [`Tensor::gather_rows`] to pull source-node (and edge) features into
//!    per-edge rows,
//! 2. a dense MLP on the per-edge rows, and
//! 3. [`Tensor::segment_sum`] / [`Tensor::segment_max`] to reduce edge
//!    messages onto destination nodes — the paper's two reduction channels.

use std::sync::Arc;

use crate::tensor::BackwardFn;
use crate::{Shape, Tensor};

impl Tensor {
    /// Gathers rows of a matrix: `out[i, :] = self[index[i], :]`.
    ///
    /// Rows may repeat; gradients of repeated rows accumulate.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or any index is out of bounds.
    ///
    /// # Example
    ///
    /// ```
    /// # use tp_tensor::Tensor;
    /// # fn main() -> Result<(), tp_tensor::TensorError> {
    /// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let y = x.gather_rows(&[1, 1, 0]);
    /// assert_eq!(y.to_vec(), vec![3.0, 4.0, 3.0, 4.0, 1.0, 2.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn gather_rows(&self, index: &[usize]) -> Tensor {
        let (n, d) = self.shape_obj().as_2d();
        let data = self.data();
        let mut out = Vec::with_capacity(index.len() * d);
        for &i in index {
            assert!(i < n, "gather index {i} out of bounds for {n} rows");
            out.extend_from_slice(&data[i * d..(i + 1) * d]);
        }
        drop(data);
        let index: Arc<Vec<usize>> = Arc::new(index.to_vec());
        let rows = index.len();
        let src = self.clone();
        let idx = Arc::clone(&index);
        let backward: BackwardFn = Box::new(move |g: &[f32], _| {
            if src.requires_grad() {
                let mut gs = vec![0.0; n * d];
                for (r, &i) in idx.iter().enumerate() {
                    for j in 0..d {
                        gs[i * d + j] += g[r * d + j];
                    }
                }
                src.accumulate_grad(gs);
            }
        });
        Tensor::from_op(out, Shape::new(&[rows, d]), vec![self.clone()], backward)
    }

    /// Fused block assembly: equivalent to
    /// `Tensor::concat_rows(parts).gather_rows(index)` — `out[i, :]` is row
    /// `index[i]` of the virtual row-concatenation of `parts` — without
    /// materializing the concatenated matrix or its gradient.
    ///
    /// This is the propagation stage's state-assembly op: forward copies
    /// and backward scatter-adds follow the exact element order of the
    /// two-op form, so swapping it in changes no result bits.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, parts disagree on column count, or any
    /// index is out of bounds for the total row count.
    pub fn assemble_rows(parts: &[&Tensor], index: &[usize]) -> Tensor {
        assert!(!parts.is_empty(), "assemble_rows needs at least one part");
        let d = parts[0].shape_obj().as_2d().1;
        // offsets[p] = first virtual row of part p; sentinel total at the end
        let mut offsets = Vec::with_capacity(parts.len() + 1);
        let mut total = 0usize;
        for p in parts {
            let (r, pd) = p.shape_obj().as_2d();
            assert_eq!(pd, d, "assemble_rows parts must share column count");
            offsets.push(total);
            total += r;
        }
        offsets.push(total);
        let locate = |offsets: &[usize], r: usize| -> (usize, usize) {
            let pi = offsets.partition_point(|&o| o <= r) - 1;
            (pi, r - offsets[pi])
        };
        let n = index.len();
        let mut out = vec![0.0; n * d];
        {
            let datas: Vec<_> = parts.iter().map(|p| p.data()).collect();
            for (i, &r) in index.iter().enumerate() {
                assert!(
                    r < total,
                    "assemble index {r} out of bounds for {total} rows"
                );
                let (pi, local) = locate(&offsets, r);
                out[i * d..(i + 1) * d].copy_from_slice(&datas[pi][local * d..(local + 1) * d]);
            }
        }
        let idx: Arc<Vec<usize>> = Arc::new(index.to_vec());
        let offs: Arc<Vec<usize>> = Arc::new(offsets);
        let srcs: Vec<Tensor> = parts.iter().map(|&p| p.clone()).collect();
        let parents = srcs.clone();
        let backward: BackwardFn = Box::new(move |g: &[f32], _| {
            // Mirror the two-op backward bit-for-bit: scatter-add in
            // ascending output-row order into zeroed per-part buffers,
            // then accumulate each part once, in parts order.
            let mut gparts: Vec<Option<Vec<f32>>> = srcs
                .iter()
                .map(|s| s.requires_grad().then(|| vec![0.0; s.numel()]))
                .collect();
            for (i, &r) in idx.iter().enumerate() {
                let (pi, local) = locate(&offs, r);
                if let Some(gp) = gparts[pi].as_mut() {
                    for j in 0..d {
                        gp[local * d + j] += g[i * d + j];
                    }
                }
            }
            for (s, gp) in srcs.iter().zip(gparts) {
                if let Some(gp) = gp {
                    s.accumulate_grad(gp);
                }
            }
        });
        Tensor::from_op(out, Shape::new(&[n, d]), parents, backward)
    }

    /// Segment sum: `out[s, :] = Σ_{i : segments[i] == s} self[i, :]`.
    ///
    /// `self` is `[E, D]`, the result is `[num_segments, D]`. Segments with
    /// no members are zero.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2, `segments.len()` differs from the
    /// row count, or any segment id is `>= num_segments`.
    pub fn segment_sum(&self, segments: &[usize], num_segments: usize) -> Tensor {
        let (e, d) = self.shape_obj().as_2d();
        assert_eq!(segments.len(), e, "one segment id per row required");
        let data = self.data();
        let mut out = vec![0.0; num_segments * d];
        for (r, &s) in segments.iter().enumerate() {
            assert!(
                s < num_segments,
                "segment id {s} out of range {num_segments}"
            );
            for j in 0..d {
                out[s * d + j] += data[r * d + j];
            }
        }
        drop(data);
        let seg: Arc<Vec<usize>> = Arc::new(segments.to_vec());
        let src = self.clone();
        let backward: BackwardFn = Box::new(move |g: &[f32], _| {
            if src.requires_grad() {
                let mut gs = vec![0.0; e * d];
                for (r, &s) in seg.iter().enumerate() {
                    gs[r * d..(r + 1) * d].copy_from_slice(&g[s * d..(s + 1) * d]);
                }
                src.accumulate_grad(gs);
            }
        });
        Tensor::from_op(
            out,
            Shape::new(&[num_segments, d]),
            vec![self.clone()],
            backward,
        )
    }

    /// Segment max: `out[s, :] = max_{i : segments[i] == s} self[i, :]`.
    ///
    /// Empty segments (no row has their id) yield zero. A NaN member beats
    /// every number, so the max carries a NaN message as
    /// [`Tensor::segment_sum`] does, and `-inf` is an ordinary member. The
    /// gradient flows only to the arg-max row of each (segment, column)
    /// pair, the first such row on a tie or among NaNs, matching
    /// scatter-max semantics in graph learning frameworks. Without a tape
    /// no arg-max is kept; with one it is stored as `u32` row ids.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Tensor::segment_sum`]; also, when recording a
    /// tape, if the row count does not fit in a `u32` below `u32::MAX`.
    pub fn segment_max(&self, segments: &[usize], num_segments: usize) -> Tensor {
        let (e, d) = self.shape_obj().as_2d();
        assert_eq!(segments.len(), e, "one segment id per row required");
        let tape = Tensor::records_tape(std::slice::from_ref(self));
        // u32::MAX marks a (segment, column) no row reached.
        let mut argmax = if tape {
            assert!(
                e < u32::MAX as usize,
                "segment_max arg-max ids are u32; {e} rows do not fit"
            );
            vec![u32::MAX; num_segments * d]
        } else {
            Vec::new()
        };
        let data = self.data();
        // Empty segments keep these zeros: membership, not a sentinel
        // value, decides emptiness.
        let mut out = vec![0.0; num_segments * d];
        let mut seen = vec![false; num_segments];
        for (r, &s) in segments.iter().enumerate() {
            assert!(
                s < num_segments,
                "segment id {s} out of range {num_segments}"
            );
            let row = &data[r * d..(r + 1) * d];
            let orow = &mut out[s * d..(s + 1) * d];
            if !seen[s] {
                seen[s] = true;
                orow.copy_from_slice(row);
                if tape {
                    argmax[s * d..(s + 1) * d].fill(r as u32);
                }
            } else if tape {
                let arow = &mut argmax[s * d..(s + 1) * d];
                for ((o, a), &v) in orow.iter_mut().zip(arow).zip(row) {
                    let take = beats(v, *o);
                    *o = if take { v } else { *o };
                    *a = if take { r as u32 } else { *a };
                }
            } else {
                for (o, &v) in orow.iter_mut().zip(row) {
                    *o = if beats(v, *o) { v } else { *o };
                }
            }
        }
        drop(data);
        if !tape {
            return Tensor::leaf(out, Shape::new(&[num_segments, d]));
        }
        let src = self.clone();
        let backward: BackwardFn = Box::new(move |g: &[f32], _| {
            if src.requires_grad() {
                let mut gs = vec![0.0; e * d];
                for (sj, &r) in argmax.iter().enumerate() {
                    if r != u32::MAX {
                        let j = sj % d;
                        gs[r as usize * d + j] += g[sj];
                    }
                }
                src.accumulate_grad(gs);
            }
        });
        Tensor::from_op(
            out,
            Shape::new(&[num_segments, d]),
            vec![self.clone()],
            backward,
        )
    }

    /// Scatters rows of `self` (`[K, D]`) into a zero matrix of `n` rows at
    /// positions `index`: `out[index[i], :] = self[i, :]`. Duplicate indices
    /// accumulate. The inverse of [`Tensor::gather_rows`].
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2, `index.len()` differs from the
    /// row count, or any index is `>= n`.
    pub fn scatter_rows(&self, index: &[usize], n: usize) -> Tensor {
        let (k, d) = self.shape_obj().as_2d();
        assert_eq!(index.len(), k, "one destination per row required");
        let data = self.data();
        let mut out = vec![0.0; n * d];
        for (r, &i) in index.iter().enumerate() {
            assert!(i < n, "scatter index {i} out of bounds for {n} rows");
            for j in 0..d {
                out[i * d + j] += data[r * d + j];
            }
        }
        drop(data);
        let idx: Arc<Vec<usize>> = Arc::new(index.to_vec());
        let src = self.clone();
        let backward: BackwardFn = Box::new(move |g: &[f32], _| {
            if src.requires_grad() {
                let mut gs = vec![0.0; k * d];
                for (r, &i) in idx.iter().enumerate() {
                    gs[r * d..(r + 1) * d].copy_from_slice(&g[i * d..(i + 1) * d]);
                }
                src.accumulate_grad(gs);
            }
        });
        Tensor::from_op(out, Shape::new(&[n, d]), vec![self.clone()], backward)
    }
}

/// Whether a later member `v` of a segment replaces its running max `o`:
/// a larger number does, and a NaN replaces any number, so a NaN is never
/// replaced and the first NaN wins as the first maximal row wins a tie.
#[inline(always)]
fn beats(v: f32, o: f32) -> bool {
    (v > o) | (v.is_nan() & !o.is_nan())
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    fn m(v: &[f32], s: &[usize]) -> Tensor {
        Tensor::from_vec(v.to_vec(), s).unwrap()
    }

    #[test]
    fn gather_repeats_accumulate_grad() {
        let x = m(&[1., 2., 3., 4.], &[2, 2]).with_grad();
        let y = x.gather_rows(&[0, 0, 1]);
        y.sum().backward();
        assert_eq!(x.grad().unwrap(), vec![2., 2., 1., 1.]);
    }

    #[test]
    fn segment_sum_values() {
        let x = m(&[1., 1., 2., 2., 3., 3.], &[3, 2]);
        let y = x.segment_sum(&[0, 1, 0], 2);
        assert_eq!(y.to_vec(), vec![4., 4., 2., 2.]);
    }

    #[test]
    fn segment_sum_empty_segment_is_zero() {
        let x = m(&[5., 5.], &[1, 2]);
        let y = x.segment_sum(&[2], 4);
        assert_eq!(y.to_vec(), vec![0., 0., 0., 0., 5., 5., 0., 0.]);
    }

    #[test]
    fn segment_sum_grad_broadcasts() {
        let x = m(&[1., 2., 3.], &[3, 1]).with_grad();
        let y = x.segment_sum(&[0, 0, 1], 2);
        y.mul(&m(&[10., 1.], &[2, 1])).sum().backward();
        assert_eq!(x.grad().unwrap(), vec![10., 10., 1.]);
    }

    #[test]
    fn segment_max_values_and_grad() {
        let x = m(&[1., 9., 5., 4.], &[4, 1]).with_grad();
        let y = x.segment_max(&[0, 0, 1, 1], 2);
        assert_eq!(y.to_vec(), vec![9., 5.]);
        y.sum().backward();
        // gradient flows only to rows 1 (max of seg 0) and 2 (max of seg 1)
        assert_eq!(x.grad().unwrap(), vec![0., 1., 1., 0.]);
    }

    #[test]
    fn segment_max_handles_negatives_and_empties() {
        let x = m(&[-3., -7.], &[2, 1]);
        let y = x.segment_max(&[1, 1], 3);
        assert_eq!(y.to_vec(), vec![0., -3., 0.]);
    }

    #[test]
    fn segment_max_of_a_lone_neg_infinity_is_neg_infinity() {
        // Seeding with -inf and mapping a leftover -inf to "empty" read 0
        // here and sent the row no gradient.
        let x = m(&[f32::NEG_INFINITY, 2.0, f32::NEG_INFINITY, 3.0], &[4, 1]).with_grad();
        let y = x.segment_max(&[0, 1, 2, 2], 4);
        assert_eq!(y.to_vec(), vec![f32::NEG_INFINITY, 2., 3., 0.]);
        y.mul(&m(&[5., 6., 7., 8.], &[4, 1])).sum().backward();
        assert_eq!(x.grad().unwrap(), vec![5., 6., 0., 7.]);
    }

    #[test]
    fn segment_max_lets_the_first_nan_win() {
        // Two NaNs told apart by their payloads.
        let (nan_a, nan_b) = (f32::from_bits(0x7fc0_0001), f32::from_bits(0x7fc0_0002));
        let x = m(&[nan_a, nan_b, 1., nan_b, 5., nan_a], &[6, 1]).with_grad();
        let segments = [0, 0, 1, 1, 1, 1];
        let untaped = crate::no_grad(|| x.segment_max(&segments, 2));
        let y = x.segment_max(&segments, 2);
        for out in [&untaped, &y] {
            let bits: Vec<u32> = out.to_vec().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, vec![nan_a.to_bits(), nan_b.to_bits()]);
        }
        y.mul(&m(&[2., 3.], &[2, 1])).sum().backward();
        assert_eq!(x.grad().unwrap(), vec![2., 0., 0., 3., 0., 0.]);
    }

    #[test]
    fn scatter_is_gather_inverse() {
        let x = m(&[1., 2., 3., 4.], &[2, 2]).with_grad();
        let y = x.scatter_rows(&[2, 0], 3);
        assert_eq!(y.to_vec(), vec![3., 4., 0., 0., 1., 2.]);
        y.sum().backward();
        assert_eq!(x.grad().unwrap(), vec![1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_oob_panics() {
        let x = m(&[1., 2.], &[1, 2]);
        let _ = x.gather_rows(&[3]);
    }

    #[test]
    fn assemble_rows_matches_concat_gather_bitwise() {
        // Three uneven parts (one empty) and a permutation index — the
        // propagation stage's exact usage pattern.
        let a = m(&[0.1, 0.2, 0.3, 0.4], &[2, 2]).with_grad();
        let b = m(&[], &[0, 2]).with_grad();
        let c = m(&[1.5, -2.5, 3.5, 4.5, 5.5, 6.5], &[3, 2]).with_grad();
        let index = [3usize, 0, 4, 1, 2];
        let weights = m(&[2., -1., 0.5, 3., -0.25, 1., 4., -2., 0.125, 7.], &[5, 2]);

        let run = |fused: bool| {
            a.zero_grad();
            b.zero_grad();
            c.zero_grad();
            let out = if fused {
                Tensor::assemble_rows(&[&a, &b, &c], &index)
            } else {
                Tensor::concat_rows(&[&a, &b, &c]).gather_rows(&index)
            };
            out.mul(&weights).sum().backward();
            let bits = |v: Vec<f32>| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
            (
                bits(out.to_vec()),
                bits(a.grad().unwrap()),
                bits(c.grad().unwrap()),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn assemble_rows_with_repeated_index_accumulates_like_gather() {
        let a = m(&[1., 2.], &[1, 2]).with_grad();
        let fused = Tensor::assemble_rows(&[&a], &[0, 0, 0]);
        fused.sum().backward();
        assert_eq!(a.grad().unwrap(), vec![3., 3.]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn assemble_rows_oob_panics() {
        let a = m(&[1., 2.], &[1, 2]);
        let _ = Tensor::assemble_rows(&[&a], &[1]);
    }
}
