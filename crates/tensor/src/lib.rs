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
//! and accumulates gradients into every reachable node that
//! [requires gradients](Tensor::requires_grad).
//!
//! Beyond the usual dense ops (matmul, elementwise math, reductions) the
//! crate provides the *graph* primitives the paper's model is built from:
//!
//! - [`Tensor::gather_rows`] — indexed row selection (message construction),
//! - [`Tensor::segment_sum`] / [`Tensor::segment_max`] — the two reduction
//!   channels used by the net-embedding and propagation layers,
//! - [`Tensor::outer_flatten`] — the row-wise Kronecker product used by the
//!   learned LUT-interpolation module.
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
//! Tensors are `Send + Sync`: whole graphs can be built and differentiated
//! on tp-par workers. Concurrent backward sweeps that share parameter
//! leaves divert their leaf gradients through [`collect_grads`], whose
//! thread-local sink keeps the shared grad slots race-free; the trainer
//! then folds per-design gradients in a fixed block order, so parallel
//! training stays bit-identical at any thread count.

#![deny(clippy::undocumented_unsafe_blocks)]

mod autograd;
mod error;
mod init;
mod shape;
mod tensor;

pub mod ops;
pub mod pool;

pub use autograd::{collect_grads, grad_enabled, no_grad};
pub use error::TensorError;
pub use init::{kaiming_uniform, xavier_uniform};
pub use shape::Shape;
pub use tensor::Tensor;
