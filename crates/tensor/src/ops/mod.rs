//! Differentiable tensor operations.
//!
//! All operations are methods on [`Tensor`](crate::Tensor), grouped here by
//! family:
//!
//! - [`elementwise`] — add/sub/mul, scalar variants, ReLU, pointwise math,
//! - [`matmul`] — dense matrix multiplication and the fused dense layer
//!   (`linear`, `linear_relu`); [`gemm_kernel`] names the gemm kernel
//!   under them,
//! - [`reduce`] — sum/mean over all elements, mean-squared error,
//! - [`index`] — row gathering and segment (scatter) reductions,
//! - [`shapeops`] — concatenation and column slicing,
//! - [`lut`] — the learned LUT interpolation (Kronecker product of the
//!   per-axis coefficients, dotted with each lookup table) as one op.

pub mod elementwise;
mod gemm;
pub mod index;
pub mod lut;
pub mod matmul;
pub mod reduce;
pub mod shapeops;

pub use gemm::gemm_kernel;
