//! Tensor shapes and index arithmetic.

use crate::tensor::TensorError;

/// An N-dimensional shape (up to rank 4, which covers every proxy model).
///
/// # Examples
///
/// ```
/// use mlperf_tensor::Shape;
///
/// let s = Shape::d3(3, 8, 8); // [C, H, W]
/// assert_eq!(s.len(), 192);
/// assert_eq!(s.rank(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or any dimension is zero.
    pub fn new(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "shape must have at least one dimension");
        assert!(
            dims.iter().all(|d| *d > 0),
            "dimensions must be positive: {dims:?}"
        );
        Self {
            dims: dims.to_vec(),
        }
    }

    /// A rank-1 shape.
    pub fn d1(a: usize) -> Self {
        Self::new(&[a])
    }

    /// A rank-2 shape.
    pub fn d2(a: usize, b: usize) -> Self {
        Self::new(&[a, b])
    }

    /// A rank-3 shape (`[C, H, W]` for activations).
    pub fn d3(a: usize, b: usize, c: usize) -> Self {
        Self::new(&[a, b, c])
    }

    /// A rank-4 shape (`[OutC, InC, KH, KW]` for convolution weights).
    pub fn d4(a: usize, b: usize, c: usize, d: usize) -> Self {
        Self::new(&[a, b, c, d])
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the shape holds zero elements (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rank()`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims[i]
    }

    /// Row-major strides.
    pub(crate) fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flattens a multi-index to a linear offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index rank differs
    /// from the shape rank or any coordinate exceeds its dimension.
    pub(crate) fn offset(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.dims.len() {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                dims: self.dims.clone(),
            });
        }
        let mut off = 0;
        let strides = self.strides();
        for ((i, d), s) in index.iter().zip(&self.dims).zip(&strides) {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds {
                    index: index.to_vec(),
                    dims: self.dims.clone(),
                });
            }
            off += i * s;
        }
        Ok(off)
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
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
    fn constructors_and_len() {
        assert_eq!(Shape::d1(5).len(), 5);
        assert_eq!(Shape::d2(2, 3).len(), 6);
        assert_eq!(Shape::d3(3, 4, 5).len(), 60);
        assert_eq!(Shape::d4(2, 3, 4, 5).len(), 120);
        assert!(!Shape::d1(1).is_empty());
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::d3(3, 4, 5).strides(), vec![20, 5, 1]);
        assert_eq!(Shape::d1(7).strides(), vec![1]);
    }

    #[test]
    fn offset_roundtrip() {
        let s = Shape::d3(2, 3, 4);
        let mut seen = vec![false; s.len()];
        for a in 0..2 {
            for b in 0..3 {
                for c in 0..4 {
                    let off = s.offset(&[a, b, c]).unwrap();
                    assert!(!seen[off], "offset collision at {off}");
                    seen[off] = true;
                }
            }
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn offset_rejects_bad_indices() {
        let s = Shape::d2(2, 3);
        assert!(s.offset(&[2, 0]).is_err());
        assert!(s.offset(&[0, 3]).is_err());
        assert!(s.offset(&[0]).is_err());
        assert!(s.offset(&[0, 0, 0]).is_err());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dim_panics() {
        Shape::new(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_shape_panics() {
        Shape::new(&[]);
    }

    #[test]
    fn display() {
        assert_eq!(Shape::d3(3, 224, 224).to_string(), "[3x224x224]");
    }
}
