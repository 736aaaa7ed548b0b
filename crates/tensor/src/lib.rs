//! Dense `f32` tensors with reverse-mode automatic differentiation.
//!
//! This crate is the numerical substrate for the timing-GNN reproduction: a
//! small, dependency-free define-by-run autograd engine in the spirit of
//! PyTorch, sized for CPU training of message-passing networks.
//!
//! # Design
//!
//! A [`Tensor`] is a cheaply clonable handle (`Arc`) to a node in a dynamic
//! computation graph. Every differentiable operation records its parents and
//! a backward closure; [`Tensor::backward`] runs a reverse topological sweep
//! and accumulates gradients into every reachable leaf that
//! [requires gradients](Tensor::requires_grad).
//!
//! The tape holds each activation once. A backward closure reads its
//! operands live from the parent tensors and its own output from the node,
//! never from copies taken at forward time, and the sweep frees each
//! interior node's gradient as soon as that node's backward has run, so
//! only leaves keep a [`Tensor::grad`]. Reading live is safe because every
//! [`Tensor::data_mut`] bumps the tensor's version: writing an operand in
//! place between an op's forward and the backward makes the backward
//! panic instead of differentiating the new data.
//!
//! Beyond the usual dense ops (matmul, elementwise math, reductions) the
//! crate provides the *graph* primitives the paper's model is built from:
//!
//! - [`Tensor::gather_rows`] — indexed row selection (message construction),
//! - [`Tensor::segment_sum`] / [`Tensor::segment_max`] — the two reduction
//!   channels used by the net-embedding and propagation layers,
//! - [`Tensor::lut_interp`] — the learned LUT interpolation: the row-wise
//!   Kronecker product of the per-axis coefficients, dotted with each
//!   lookup table, as one tape node.
//!
//! # Example
//!
//! ```
//! use tp_tensor::Tensor;
//!
//! # fn main() -> Result<(), tp_tensor::TensorError> {
//! let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?.with_grad();
//! let x = Tensor::from_vec(vec![1.0, -1.0], &[2, 1])?;
//! let y = w.matmul(&x).relu().sum();
//! y.backward();
//! assert_eq!(w.grad().unwrap().len(), 4);
//! # Ok(())
//! # }
//! ```
//!
//! Tensors are `Send + Sync`, so one model's parameters can serve
//! forwards on several threads at once. A backward sweep accumulates leaf
//! gradients into each leaf's own grad slot; the dense kernels inside it
//! split rows across tp-par workers and stay bit-identical at any thread
//! count.

#![deny(clippy::undocumented_unsafe_blocks)]

mod autograd;
mod error;
mod init;
mod shape;
mod tensor;

pub mod ops;
pub mod pool;

pub use autograd::{grad_enabled, no_grad};
pub use error::TensorError;
pub use init::xavier_uniform;
pub use shape::Shape;
pub use tensor::Tensor;
