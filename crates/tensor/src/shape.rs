use std::fmt;

/// The dimensions of a [`Tensor`](crate::Tensor), stored row-major.
///
/// Rank is at most a handful in practice (the workspace only uses rank 1 and
/// 2), but arbitrary ranks are supported.
///
/// # Example
///
/// ```
/// let t = tp_tensor::Tensor::zeros(&[3, 4]);
/// assert_eq!(t.shape_obj().as_2d(), (3, 4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a dimension slice.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty; scalars are represented as `[1]`.
    pub(crate) fn new(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "shape must have at least one dimension");
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// The dimension sizes.
    pub(crate) fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub(crate) fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of all dims).
    pub(crate) fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Returns `(rows, cols)` for a rank-2 shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is not rank 2.
    pub fn as_2d(&self) -> (usize, usize) {
        assert_eq!(self.rank(), 2, "expected rank-2 shape, got {self}");
        (self.dims[0], self.dims[1])
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_dims() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.dims(), &[2, 3, 4]);
    }

    #[test]
    fn display() {
        assert_eq!(Shape::new(&[5, 7]).to_string(), "[5, 7]");
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_panics() {
        let _ = Shape::new(&[]);
    }

    #[test]
    #[should_panic(expected = "rank-2")]
    fn as_2d_rejects_rank1() {
        let _ = Shape::new(&[4]).as_2d();
    }
}
