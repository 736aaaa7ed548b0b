//! Evaluation metrics: the coefficient of determination used throughout
//! the paper's Tables 4 and 5.

/// R² (coefficient of determination) between `truth` and `pred`.
///
/// `R² = 1 − Σ(y − ŷ)² / Σ(y − ȳ)²`, computed in `f64`. A perfect
/// predictor scores 1; predicting the mean scores 0; worse-than-mean
/// predictors go negative (as the deep GCNII baselines do on test designs
/// in Table 5).
///
/// Returns 0 for fewer than two samples or zero-variance truth (degenerate
/// but well-defined for reporting).
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// let truth = [1.0, 2.0, 3.0];
/// assert!((tp_data::r2_score(&truth, &truth) - 1.0).abs() < 1e-12);
/// ```
pub fn r2_score(truth: &[f32], pred: &[f32]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "r2_score slice lengths differ");
    let mut acc = R2Accumulator::new();
    acc.extend(truth, pred);
    acc.value()
}

/// Streaming R² accumulator, for scoring across many designs without
/// concatenating buffers.
#[derive(Debug, Clone, Default)]
pub struct R2Accumulator {
    n: usize,
    sum_y: f64,
    sum_y2: f64,
    sum_res2: f64,
}

impl R2Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> R2Accumulator {
        R2Accumulator::default()
    }

    /// Adds one (truth, prediction) pair.
    pub fn push(&mut self, truth: f32, pred: f32) {
        let y = truth as f64;
        let e = y - pred as f64;
        self.n += 1;
        self.sum_y += y;
        self.sum_y2 += y * y;
        self.sum_res2 += e * e;
    }

    /// Adds many pairs.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn extend(&mut self, truth: &[f32], pred: &[f32]) {
        assert_eq!(
            truth.len(),
            pred.len(),
            "R2Accumulator slice lengths differ"
        );
        for (&t, &p) in truth.iter().zip(pred) {
            self.push(t, p);
        }
    }

    /// The current R² (0 when degenerate).
    pub fn value(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let mean = self.sum_y / self.n as f64;
        let ss_tot = self.sum_y2 - self.n as f64 * mean * mean;
        if ss_tot <= 1e-18 {
            return 0.0;
        }
        1.0 - self.sum_res2 / ss_tot
    }

    /// Number of samples seen.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no samples have been seen.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_is_one() {
        let y = [1.0, 5.0, -3.0, 2.0];
        assert!((r2_score(&y, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_prediction_is_zero() {
        let y = [1.0, 2.0, 3.0];
        let p = [2.0, 2.0, 2.0];
        assert!(r2_score(&y, &p).abs() < 1e-12);
    }

    #[test]
    fn bad_prediction_is_negative() {
        let y = [1.0, 2.0, 3.0];
        let p = [30.0, -10.0, 99.0];
        assert!(r2_score(&y, &p) < 0.0);
    }

    #[test]
    fn degenerate_inputs_yield_zero() {
        assert_eq!(r2_score(&[1.0], &[1.0]), 0.0);
        assert_eq!(r2_score(&[2.0, 2.0], &[1.0, 3.0]), 0.0);
    }

    #[test]
    fn accumulator_matches_batch() {
        let y = [0.5, 1.5, -2.0, 4.0, 0.0];
        let p = [0.4, 1.7, -1.5, 3.0, 0.2];
        let batch = r2_score(&y, &p);
        let mut acc = R2Accumulator::new();
        acc.extend(&y[..2], &p[..2]);
        acc.extend(&y[2..], &p[2..]);
        assert!((acc.value() - batch).abs() < 1e-12);
        assert_eq!(acc.len(), 5);
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn mismatched_lengths_panic() {
        let _ = r2_score(&[1.0], &[1.0, 2.0]);
    }
}
