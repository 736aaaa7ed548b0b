use tp_tensor::Tensor;

/// A trainable component exposing its parameters for optimization and
/// serialization.
///
/// Implementors return parameter handles in a **stable order** so that
/// [`save_parameters`](crate::save_parameters) /
/// [`load_parameters`](crate::load_parameters) round-trip correctly.
pub trait Module {
    /// All trainable parameter tensors, in a stable order.
    fn parameters(&self) -> Vec<Tensor>;

    /// Total number of scalar parameters.
    fn num_parameters(&self) -> usize {
        self.parameters().iter().map(Tensor::numel).sum()
    }

    /// Clears accumulated gradients on every parameter.
    fn zero_grad(&self) {
        for p in self.parameters() {
            p.zero_grad();
        }
    }
}
