//! The Adam optimizer and gradient clipping, operating on parameter
//! handles.

use std::fmt;

use tp_tensor::Tensor;

/// A snapshot of Adam's internal state (first/second moments and the step
/// counter), exported for checkpointing and restored on resume so that a
/// resumed run continues bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// First-moment estimates, one vector per managed parameter.
    pub m: Vec<Vec<f32>>,
    /// Second-moment estimates, parallel to `m`.
    pub v: Vec<Vec<f32>>,
    /// Bias-correction step counter.
    pub t: u32,
}

/// Error returned when an [`AdamState`] does not match the optimizer's
/// parameter list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimStateMismatch {
    /// What the snapshot describes (tensor count or a tensor length).
    pub stored: usize,
    /// What the live optimizer expects.
    pub expected: usize,
}

impl fmt::Display for OptimStateMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "optimizer state shape mismatch: stored {}, optimizer expects {}",
            self.stored, self.expected
        )
    }
}

impl std::error::Error for OptimStateMismatch {}

/// Adam (Kingma & Ba) with the standard bias-corrected moment estimates.
///
/// # Example
///
/// ```
/// use tp_tensor::Tensor;
/// use tp_nn::optim::Adam;
///
/// let w = Tensor::from_slice(&[1.0]).with_grad();
/// let mut opt = Adam::new(vec![w.clone()], 0.1);
/// for _ in 0..100 {
///     let loss = w.square().sum();
///     opt.zero_grad();
///     loss.backward();
///     opt.step();
/// }
/// assert!(w.to_vec()[0].abs() < 0.05);
/// ```
pub struct Adam {
    params: Vec<Tensor>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    t: u32,
}

impl Adam {
    /// Creates an optimizer with default betas `(0.9, 0.999)`.
    pub fn new(params: Vec<Tensor>, lr: f32) -> Adam {
        let m = params.iter().map(|p| vec![0.0; p.numel()]).collect();
        let v = params.iter().map(|p| vec![0.0; p.numel()]).collect();
        Adam {
            params,
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m,
            v,
            t: 0,
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Overrides the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Clears gradients on all managed parameters.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// Exports the moment estimates and step counter for checkpointing.
    pub fn export_state(&self) -> AdamState {
        AdamState {
            m: self.m.clone(),
            v: self.v.clone(),
            t: self.t,
        }
    }

    /// Restores a state exported by [`export_state`](Self::export_state).
    ///
    /// The whole snapshot is validated against the live parameter list
    /// before anything is committed, so a mismatched state leaves the
    /// optimizer untouched.
    ///
    /// # Errors
    ///
    /// Returns [`OptimStateMismatch`] when the tensor count or any moment
    /// length disagrees with the managed parameters.
    pub fn import_state(&mut self, state: AdamState) -> Result<(), OptimStateMismatch> {
        if state.m.len() != self.params.len() || state.v.len() != self.params.len() {
            return Err(OptimStateMismatch {
                stored: state.m.len().min(state.v.len()),
                expected: self.params.len(),
            });
        }
        for (i, p) in self.params.iter().enumerate() {
            if state.m[i].len() != p.numel() || state.v[i].len() != p.numel() {
                return Err(OptimStateMismatch {
                    stored: state.m[i].len().min(state.v[i].len()),
                    expected: p.numel(),
                });
            }
        }
        self.m = state.m;
        self.v = state.v;
        self.t = state.t;
        Ok(())
    }

    /// Applies one update from the accumulated gradients. Parameters with no
    /// gradient are skipped.
    pub fn step(&mut self) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in self.params.iter().enumerate() {
            let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            p.apply_grad_update(|data, grad| {
                for j in 0..data.len() {
                    let g = grad[j];
                    m[j] = b1 * m[j] + (1.0 - b1) * g;
                    v[j] = b2 * v[j] + (1.0 - b2) * g * g;
                    let mh = m[j] / bc1;
                    let vh = v[j] / bc2;
                    data[j] -= lr * (mh / (vh.sqrt() + eps));
                }
            });
        }
    }
}

/// Clips the global L2 norm of the gradients of `params` to `max_norm`;
/// returns the pre-clip norm. Keeps deep propagation training stable.
pub fn clip_grad_norm(params: &[Tensor], max_norm: f32) -> f32 {
    let mut total = 0.0f32;
    for p in params {
        if let Some(g) = p.grad() {
            total += g.iter().map(|x| x * x).sum::<f32>();
        }
    }
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            if let Some(g) = p.grad() {
                p.replace_grad(g.iter().map(|x| x * scale).collect());
            }
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_tensor::Tensor;

    #[test]
    fn adam_handles_sparse_grads() {
        // Second parameter never receives a gradient; step must not panic.
        let a = Tensor::from_slice(&[1.0]).with_grad();
        let b = Tensor::from_slice(&[1.0]).with_grad();
        let mut opt = Adam::new(vec![a.clone(), b.clone()], 0.1);
        let loss = a.square().sum();
        loss.backward();
        opt.step();
        assert_eq!(b.to_vec(), vec![1.0]);
        assert!(a.to_vec()[0] < 1.0);
    }

    #[test]
    fn adam_state_roundtrip_continues_identically() {
        let train = |steps: usize, resume_at: Option<usize>| -> Vec<f32> {
            let w = Tensor::from_slice(&[2.0, -1.5]).with_grad();
            let mut opt = Adam::new(vec![w.clone()], 0.05);
            for s in 0..steps {
                if resume_at == Some(s) {
                    // Simulate a crash/restart: rebuild the optimizer from
                    // an exported state snapshot.
                    let state = opt.export_state();
                    opt = Adam::new(vec![w.clone()], opt.lr());
                    opt.import_state(state).unwrap();
                }
                let loss = w.square().sum();
                opt.zero_grad();
                loss.backward();
                opt.step();
            }
            w.to_vec()
        };
        let straight = train(20, None);
        let resumed = train(20, Some(11));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&straight), bits(&resumed));
    }

    #[test]
    fn adam_state_mismatch_rejected() {
        let a = Tensor::from_slice(&[1.0]).with_grad();
        let b = Tensor::from_slice(&[1.0, 2.0]).with_grad();
        let donor = Adam::new(vec![a], 0.1);
        let mut opt = Adam::new(vec![b], 0.1);
        let before = opt.export_state();
        assert!(opt.import_state(donor.export_state()).is_err());
        assert_eq!(opt.export_state(), before, "failed import must not commit");
    }

    #[test]
    fn clip_grad_norm_scales() {
        let w = Tensor::from_slice(&[3.0, 4.0]).with_grad();
        w.square().sum().backward(); // grad = [6, 8], norm 10
        let pre = clip_grad_norm(std::slice::from_ref(&w), 5.0);
        assert!((pre - 10.0).abs() < 1e-4);
        let g = w.grad().unwrap();
        let norm: f32 = g.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 5.0).abs() < 1e-4);
    }
}
