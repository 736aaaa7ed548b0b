//! Learned NLDM LUT interpolation (paper Sec. 3.3.2, Fig. 3).
//!
//! A real timing engine looks a cell arc's delay up by bilinear
//! interpolation over (input slew, output load). The model learns that
//! computation: from the source pin's state and the arc's LUT axis indices
//! it produces a 7-vector of interpolation coefficients **per axis**, takes
//! their **Kronecker product** to form a 7×7 coefficient matrix, and
//! applies it to each of the arc's 8 LUT value matrices with a dot product
//! — one scalar per table, concatenated into the arc message.

use tp_data::CELL_EDGE_FEATURES;
use tp_nn::{Mlp, Module};
use tp_rng::StdRng;
use tp_tensor::Tensor;

/// Layout constants of the cell-edge feature vector (see `tp_data`).
const VALID_FLAGS: usize = 8;
const IDX_PER_LUT: usize = 14;
const VALS_PER_LUT: usize = 49;
const IDX_BASE: usize = VALID_FLAGS;
const VAL_BASE: usize = VALID_FLAGS + 8 * IDX_PER_LUT;
// The 8 value tables run to the end of the row, as `lut_interp` reads them.
const _: () = assert!(VAL_BASE + 8 * VALS_PER_LUT == CELL_EDGE_FEATURES);

/// The learned LUT-interpolation module.
#[derive(Debug, Clone)]
pub struct LutModule {
    coef_slew: Mlp,
    coef_load: Mlp,
    state_dim: usize,
}

impl LutModule {
    /// Creates the module for `state_dim`-wide pin states.
    pub fn new(state_dim: usize, hidden: &[usize], rng: &mut StdRng) -> LutModule {
        // Conditioning: source state + all 8 LUTs' axis indices + flags.
        let cond = state_dim + 8 * IDX_PER_LUT + VALID_FLAGS;
        LutModule {
            coef_slew: Mlp::new(cond, hidden, 7, rng),
            coef_load: Mlp::new(cond, hidden, 7, rng),
            state_dim,
        }
    }

    /// Width of the per-arc output (one scalar per LUT).
    pub const OUT_DIM: usize = 8;

    /// Computes per-arc LUT messages.
    ///
    /// `src_state` is `[E, state_dim]` (source pin states per edge) and
    /// `edge_features` is `[E, CELL_EDGE_FEATURES]`. Returns `[E, 8]`.
    ///
    /// # Panics
    ///
    /// Panics if the feature width is not `CELL_EDGE_FEATURES` or row
    /// counts disagree.
    pub fn forward(&self, src_state: &Tensor, edge_features: &Tensor) -> Tensor {
        let (e, w) = edge_features.shape_obj().as_2d();
        assert_eq!(w, CELL_EDGE_FEATURES, "unexpected cell-edge feature width");
        assert_eq!(src_state.shape()[0], e, "one state row per edge required");
        assert_eq!(src_state.shape()[1], self.state_dim, "state width mismatch");

        let flags = edge_features.narrow_cols(0, VALID_FLAGS);
        let indices = edge_features.narrow_cols(IDX_BASE, 8 * IDX_PER_LUT);
        let cond = Tensor::concat_cols(&[src_state, &indices, &flags]);
        let cs = self.coef_slew.forward(&cond); // [E, 7]
        let cl = self.coef_load.forward(&cond); // [E, 7]
        cs.lut_interp(&cl, edge_features, VAL_BASE) // [E, 8]
    }
}

impl Module for LutModule {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.coef_slew.parameters();
        p.extend(self.coef_load.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_features(e: usize) -> Tensor {
        let mut data = vec![0.0f32; e * CELL_EDGE_FEATURES];
        for row in 0..e {
            let base = row * CELL_EDGE_FEATURES;
            for f in 0..8 {
                data[base + f] = 1.0;
            }
            for i in 0..8 * IDX_PER_LUT {
                data[base + IDX_BASE + i] = (i % 7) as f32 * 0.1;
            }
            for v in 0..8 * VALS_PER_LUT {
                data[base + VAL_BASE + v] = 0.01 * (v % 49) as f32 + row as f32 * 0.1;
            }
        }
        Tensor::from_vec(data, &[e, CELL_EDGE_FEATURES]).unwrap()
    }

    #[test]
    fn output_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = LutModule::new(6, &[8], &mut rng);
        let y = m.forward(&Tensor::ones(&[5, 6]), &edge_features(5));
        assert_eq!(y.shape(), &[5, 8]);
    }

    #[test]
    fn kron_structure_differentiates_luts() {
        // Different LUT values per row must give different outputs.
        let mut rng = StdRng::seed_from_u64(1);
        let m = LutModule::new(4, &[8], &mut rng);
        let y = m.forward(&Tensor::ones(&[2, 4]), &edge_features(2));
        let v = y.to_vec();
        assert_ne!(v[0..8], v[8..16]);
    }

    #[test]
    fn gradients_flow_to_coefficient_mlps() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = LutModule::new(4, &[8], &mut rng);
        let x = Tensor::ones(&[3, 4]).with_grad();
        let y = m.forward(&x, &edge_features(3));
        y.sum().backward();
        assert!(x.grad().is_some());
        for p in m.parameters() {
            assert!(p.grad().is_some(), "all LUT-module params receive grads");
        }
    }

    #[test]
    fn can_learn_a_bilinear_lookup() {
        // Train the module to reproduce a fixed dot-product target: sanity
        // that the Kronecker bottleneck is trainable.
        let mut rng = StdRng::seed_from_u64(7);
        let m = LutModule::new(2, &[16], &mut rng);
        let ef = edge_features(4);
        let x = Tensor::ones(&[4, 2]);
        let target =
            Tensor::from_vec((0..32).map(|i| (i % 8) as f32 * 0.05).collect(), &[4, 8]).unwrap();
        let mut opt = tp_nn::optim::Adam::new(m.parameters(), 1e-2);
        let before = m.forward(&x, &ef).mse(&target).item();
        for _ in 0..150 {
            let loss = m.forward(&x, &ef).mse(&target);
            opt.zero_grad();
            loss.backward();
            opt.step();
        }
        let after = m.forward(&x, &ef).mse(&target).item();
        assert!(after < before * 0.5, "{before} -> {after}");
    }
}
