use std::fmt;

/// Error type for fallible tensor construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// The provided data length does not match the product of the shape dims.
    ShapeDataMismatch {
        /// Number of elements implied by the shape.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// An empty shape (rank 0 with no data) was provided where one is invalid.
    EmptyShape,
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeDataMismatch { expected, actual } => write!(
                f,
                "shape expects {expected} elements but {actual} were provided"
            ),
            TensorError::EmptyShape => write!(f, "shape must have at least one dimension"),
        }
    }
}

impl std::error::Error for TensorError {}
