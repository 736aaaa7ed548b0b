use tp_rng::Rng;
use tp_tensor::Tensor;

use crate::{Linear, Module};

/// Hidden-layer activation function for [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Rectified linear unit (paper default).
    #[default]
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Leaky ReLU with slope 0.01.
    LeakyRelu,
}

impl Activation {
    fn apply(self, x: &Tensor) -> Tensor {
        match self {
            Activation::Relu => x.relu(),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => x.sigmoid(),
            Activation::LeakyRelu => x.leaky_relu(0.01),
        }
    }
}

/// A multi-layer perceptron with a linear output layer.
///
/// The paper (Sec. 4) uses MLPs with **3 hidden layers of 64 neurons**
/// throughout; [`Mlp::paper_default`] constructs exactly that.
///
/// # Example
///
/// ```
/// use tp_nn::{Activation, Mlp, Module};
///
/// let mut rng = tp_rng::StdRng::seed_from_u64(0);
/// let mlp = Mlp::paper_default(10, 4, &mut rng);
/// let x = tp_tensor::Tensor::zeros(&[2, 10]);
/// assert_eq!(mlp.forward(&x).shape(), &[2, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Builds an MLP with the given hidden widths.
    pub fn new<R: Rng>(
        in_features: usize,
        hidden: &[usize],
        out_features: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Mlp {
        let mut layers = Vec::with_capacity(hidden.len() + 1);
        let mut prev = in_features;
        for &h in hidden {
            layers.push(Linear::new(prev, h, rng));
            prev = h;
        }
        layers.push(Linear::new(prev, out_features, rng));
        Mlp { layers, activation }
    }

    /// The paper's configuration: 3 hidden layers × 64 neurons, ReLU.
    pub fn paper_default<R: Rng>(in_features: usize, out_features: usize, rng: &mut R) -> Mlp {
        Mlp::new(in_features, &[64, 64, 64], out_features, Activation::Relu, rng)
    }

    /// A smaller 2×32 variant for fast tests and scaled-down training.
    pub fn small<R: Rng>(in_features: usize, out_features: usize, rng: &mut R) -> Mlp {
        Mlp::new(in_features, &[32, 32], out_features, Activation::Relu, rng)
    }

    /// Applies the network to a `[N, in_features]` batch.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of columns.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = match self.activation {
                _ if i == last => layer.forward(&h),
                Activation::Relu => layer.forward_relu(&h),
                act => act.apply(&layer.forward(&h)),
            };
        }
        h
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.layers[0].in_features()
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.layers[self.layers.len() - 1].out_features()
    }

    /// The constituent layers.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }
}

impl Module for Mlp {
    fn parameters(&self) -> Vec<Tensor> {
        self.layers.iter().flat_map(Module::parameters).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_shape() {
        let mut rng = tp_rng::StdRng::seed_from_u64(0);
        let mlp = Mlp::paper_default(27, 8, &mut rng);
        assert_eq!(mlp.layers().len(), 4);
        assert_eq!(mlp.in_features(), 27);
        assert_eq!(mlp.out_features(), 8);
        // 27*64+64 + 64*64+64 + 64*64+64 + 64*8+8
        assert_eq!(mlp.num_parameters(), 27 * 64 + 64 + 2 * (64 * 64 + 64) + 64 * 8 + 8);
    }

    #[test]
    fn zero_hidden_is_linear() {
        let mut rng = tp_rng::StdRng::seed_from_u64(0);
        let mlp = Mlp::new(3, &[], 2, Activation::Relu, &mut rng);
        assert_eq!(mlp.layers().len(), 1);
        // Negative outputs possible since output layer has no activation.
        let x = tp_tensor::Tensor::from_vec(vec![-10.0, -10.0, -10.0], &[1, 3]).unwrap();
        let _ = mlp.forward(&x);
    }

    #[test]
    fn activations_all_run() {
        let mut rng = tp_rng::StdRng::seed_from_u64(0);
        for act in [
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::LeakyRelu,
        ] {
            let mlp = Mlp::new(2, &[4], 1, act, &mut rng);
            let y = mlp.forward(&tp_tensor::Tensor::ones(&[1, 2]));
            assert!(y.item().is_finite());
        }
    }
}
