//! Differentiable tensor operations.
//!
//! All operations are methods on [`Tensor`](crate::Tensor), grouped here by
//! family:
//!
//! - [`elementwise`] — add/sub/mul/div, scalar variants, activations, math,
//! - [`matmul`] — dense matrix multiplication, the fused dense layer
//!   (`linear`, `linear_relu`) and 2-D transpose,
//! - [`reduce`] — sum/mean over all elements or along an axis,
//! - [`index`] — row gathering and segment (scatter) reductions,
//! - [`shapeops`] — reshape, concatenation, column slicing, row-wise outer
//!   products.

pub mod elementwise;
mod gemm;
pub mod index;
pub mod matmul;
pub mod reduce;
pub mod shapeops;
