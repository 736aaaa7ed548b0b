//! Neural-network building blocks on top of [`tp_tensor`].
//!
//! Provides exactly what the DAC'22 timing-GNN needs: fully connected
//! layers, the ReLU [`Mlp`] used throughout the paper (Sec. 4), and the
//! [`Adam`](optim::Adam) optimizer.
//!
//! # Example
//!
//! ```
//! use tp_nn::{Mlp, Module, optim::Adam};
//! use tp_tensor::Tensor;
//!
//! # fn main() -> Result<(), tp_tensor::TensorError> {
//! let mut rng = tp_rng::StdRng::seed_from_u64(0);
//! // Learn y = 2x on a handful of points.
//! let mlp = Mlp::new(1, &[8], 1, &mut rng);
//! let mut adam = Adam::new(mlp.parameters(), 1e-2);
//! let x = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], &[4, 1])?;
//! let y = Tensor::from_vec(vec![0.0, 2.0, 4.0, 6.0], &[4, 1])?;
//! for _ in 0..500 {
//!     let loss = mlp.forward(&x).mse(&y);
//!     adam.zero_grad();
//!     loss.backward();
//!     adam.step();
//! }
//! assert!(mlp.forward(&x).mse(&y).item() < 0.1);
//! # Ok(())
//! # }
//! ```

mod linear;
mod mlp;
mod module;
pub mod optim;
mod serialize;

pub use linear::Linear;
pub use mlp::Mlp;
pub use module::Module;
pub use serialize::{load_parameters, save_parameters, SerializeError};
