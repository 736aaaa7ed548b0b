//! Weight initialization schemes.

use tp_rng::Rng;

use crate::Tensor;

/// Xavier/Glorot uniform initialization for a `[fan_in, fan_out]` weight
/// matrix: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
///
/// # Example
///
/// ```
/// let mut rng = tp_rng::StdRng::seed_from_u64(7);
/// let w = tp_tensor::xavier_uniform(8, 4, &mut rng);
/// assert_eq!(w.shape(), &[8, 4]);
/// ```
pub fn xavier_uniform<R: Rng>(fan_in: usize, fan_out: usize, rng: &mut R) -> Tensor {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Tensor::rand_uniform(&[fan_in, fan_out], -a, a, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_respects_bound() {
        let mut rng = tp_rng::StdRng::seed_from_u64(1);
        let w = xavier_uniform(10, 10, &mut rng);
        let a = (6.0 / 20.0_f32).sqrt();
        assert!(w.to_vec().iter().all(|&x| x.abs() <= a));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = tp_rng::StdRng::seed_from_u64(42);
        let mut r2 = tp_rng::StdRng::seed_from_u64(42);
        assert_eq!(
            xavier_uniform(4, 4, &mut r1).to_vec(),
            xavier_uniform(4, 4, &mut r2).to_vec()
        );
    }
}
