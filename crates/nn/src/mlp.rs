use tp_rng::Rng;
use tp_tensor::Tensor;

use crate::{Linear, Module};

/// A multi-layer perceptron: ReLU hidden layers and a linear output layer.
///
/// The paper (Sec. 4) uses MLPs with **3 hidden layers of 64 neurons**
/// throughout.
///
/// # Example
///
/// ```
/// use tp_nn::{Mlp, Module};
///
/// let mut rng = tp_rng::StdRng::seed_from_u64(0);
/// let mlp = Mlp::new(10, &[64, 64, 64], 4, &mut rng);
/// let x = tp_tensor::Tensor::zeros(&[2, 10]);
/// assert_eq!(mlp.forward(&x).shape(), &[2, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP with the given hidden widths.
    pub fn new<R: Rng>(
        in_features: usize,
        hidden: &[usize],
        out_features: usize,
        rng: &mut R,
    ) -> Mlp {
        let mut layers = Vec::with_capacity(hidden.len() + 1);
        let mut prev = in_features;
        for &h in hidden {
            layers.push(Linear::new(prev, h, rng));
            prev = h;
        }
        layers.push(Linear::new(prev, out_features, rng));
        Mlp { layers }
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
            h = if i == last {
                layer.forward(&h)
            } else {
                layer.forward_relu(&h)
            };
        }
        h
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
    fn paper_shape() {
        let mut rng = tp_rng::StdRng::seed_from_u64(0);
        let mlp = Mlp::new(27, &[64, 64, 64], 8, &mut rng);
        assert_eq!(mlp.layers.len(), 4);
        // 27*64+64 + 64*64+64 + 64*64+64 + 64*8+8
        assert_eq!(
            mlp.num_parameters(),
            27 * 64 + 64 + 2 * (64 * 64 + 64) + 64 * 8 + 8
        );
    }

    #[test]
    fn zero_hidden_is_linear() {
        let mut rng = tp_rng::StdRng::seed_from_u64(0);
        let mlp = Mlp::new(3, &[], 2, &mut rng);
        assert_eq!(mlp.layers.len(), 1);
        // Negative outputs possible since output layer has no activation.
        let x = tp_tensor::Tensor::from_vec(vec![-10.0, -10.0, -10.0], &[1, 3]).unwrap();
        let _ = mlp.forward(&x);
    }
}
