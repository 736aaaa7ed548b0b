use tp_rng::Rng;
use tp_tensor::{xavier_uniform, Tensor};

use crate::Module;

/// A fully connected layer, `y = x·W + b`, run as one fused tensor op
/// ([`Tensor::linear`]).
///
/// Weights use Xavier-uniform initialization; biases start at zero.
///
/// # Example
///
/// ```
/// use tp_nn::{Linear, Module};
/// use tp_tensor::Tensor;
///
/// let mut rng = tp_rng::StdRng::seed_from_u64(3);
/// let layer = Linear::new(4, 2, &mut rng);
/// let x = Tensor::zeros(&[5, 4]);
/// assert_eq!(layer.forward(&x).shape(), &[5, 2]);
/// assert_eq!(layer.num_parameters(), 4 * 2 + 2);
/// ```
#[derive(Clone)]
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Creates a layer mapping `in_features` to `out_features`.
    pub fn new<R: Rng>(in_features: usize, out_features: usize, rng: &mut R) -> Linear {
        Linear {
            weight: xavier_uniform(in_features, out_features, rng).with_grad(),
            bias: Tensor::zeros(&[out_features]).with_grad(),
            in_features,
            out_features,
        }
    }

    /// Applies the layer to a `[N, in_features]` batch.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 2 with `in_features` columns.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        x.linear(&self.weight, &self.bias)
    }

    /// `relu(x·W + b)` as one fused op, bit-identical to
    /// `self.forward(x).relu()`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Linear::forward`].
    pub fn forward_relu(&self, x: &Tensor) -> Tensor {
        x.linear_relu(&self.weight, &self.bias)
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The weight matrix handle.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias vector handle.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }
}

impl Module for Linear {
    fn parameters(&self) -> Vec<Tensor> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

impl std::fmt::Debug for Linear {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Linear({} -> {})", self.in_features, self.out_features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = tp_rng::StdRng::seed_from_u64(0);
        let l = Linear::new(3, 2, &mut rng);
        // zero input -> output equals bias (zeros)
        let y = l.forward(&Tensor::zeros(&[4, 3]));
        assert_eq!(y.shape(), &[4, 2]);
        assert!(y.to_vec().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gradients_reach_weight_and_bias() {
        let mut rng = tp_rng::StdRng::seed_from_u64(1);
        let l = Linear::new(2, 2, &mut rng);
        let x = Tensor::ones(&[3, 2]);
        l.forward(&x).sum().backward();
        assert!(l.weight().grad().is_some());
        assert_eq!(l.bias().grad().unwrap(), vec![3.0, 3.0]);
    }

    #[test]
    fn parameter_count() {
        let mut rng = tp_rng::StdRng::seed_from_u64(2);
        assert_eq!(Linear::new(7, 5, &mut rng).num_parameters(), 40);
    }
}
