//! Reductions: sum/mean over all elements and the mean-squared error.

use crate::tensor::BackwardFn;
use crate::{Shape, Tensor};

impl Tensor {
    /// Sum of all elements, returned as a `[1]` tensor.
    pub fn sum(&self) -> Tensor {
        let total: f32 = self.data().iter().sum();
        let n = self.numel();
        let src = self.clone();
        let backward: BackwardFn = Box::new(move |g: &[f32], _| {
            if src.requires_grad() {
                src.accumulate_grad(vec![g[0]; n]);
            }
        });
        Tensor::from_op(vec![total], Shape::new(&[1]), vec![self.clone()], backward)
    }

    /// Mean of all elements, returned as a `[1]` tensor.
    pub fn mean(&self) -> Tensor {
        let n = self.numel() as f32;
        self.sum().mul_scalar(1.0 / n)
    }

    /// Mean-squared-error against `target` (which carries no gradient
    /// requirement in typical use), returned as a `[1]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mse(&self, target: &Tensor) -> Tensor {
        assert_eq!(
            self.shape(),
            target.shape(),
            "mse operands must share a shape"
        );
        self.sub(target).square().mean()
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    #[test]
    fn sum_and_mean() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]).unwrap();
        assert_eq!(a.sum().item(), 10.0);
        assert_eq!(a.mean().item(), 2.5);
    }

    #[test]
    fn sum_grad_is_ones() {
        let a = Tensor::zeros(&[3]).with_grad();
        a.sum().backward();
        assert_eq!(a.grad().unwrap(), vec![1.0; 3]);
    }

    #[test]
    fn mean_grad_is_uniform() {
        let a = Tensor::zeros(&[4]).with_grad();
        a.mean().backward();
        assert_eq!(a.grad().unwrap(), vec![0.25; 4]);
    }

    #[test]
    fn mse_of_equal_tensors_is_zero() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        assert_eq!(a.mse(&a).item(), 0.0);
    }

    #[test]
    fn mse_gradient() {
        let a = Tensor::from_slice(&[3.0]).with_grad();
        let t = Tensor::from_slice(&[1.0]);
        a.mse(&t).backward();
        // d/da (a-t)^2 = 2(a-t) = 4
        assert_eq!(a.grad().unwrap(), vec![4.0]);
    }
}
