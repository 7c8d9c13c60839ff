//! Dense f32 tensors.

use crate::shape::Shape;

/// A dense, row-major f32 tensor.
///
/// # Examples
///
/// ```
/// use mlperf_tensor::{Shape, Tensor};
///
/// let z = Tensor::zeros(Shape::d2(2, 2));
/// assert_eq!(z.data(), &[0.0; 4]);
/// let f = Tensor::fill_with(Shape::d1(3), |i| i[0] as f32);
/// assert_eq!(f.data(), &[0.0, 1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// An all-zero tensor.
    pub fn zeros(shape: Shape) -> Self {
        let len = shape.len();
        Self {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Builds a tensor from existing row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.len(),
                actual: data.len(),
            });
        }
        Ok(Self { shape, data })
    }

    /// Builds a tensor by evaluating `f` at every multi-index.
    pub fn fill_with<F: FnMut(&[usize]) -> f32>(shape: Shape, mut f: F) -> Self {
        let rank = shape.rank();
        let dims = shape.dims().to_vec();
        let mut index = vec![0usize; rank];
        let mut data = Vec::with_capacity(shape.len());
        loop {
            data.push(f(&index));
            // Odometer increment.
            let mut d = rank;
            loop {
                if d == 0 {
                    return Self { shape, data };
                }
                d -= 1;
                index[d] += 1;
                if index[d] < dims[d] {
                    break;
                }
                index[d] = 0;
            }
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds; use `Shape::offset` for a
    /// fallible path.
    pub fn at(&self, index: &[usize]) -> f32 {
        let off = self.shape.offset(index).expect("index in bounds");
        self.data[off]
    }

    /// Returns a new tensor with `f` applied elementwise.
    pub(crate) fn map<F: Fn(f32) -> f32>(&self, f: F) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|x| f(*x)).collect(),
        }
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        Ok(Self {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        })
    }

    /// Index of the maximum element (first on ties).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty (impossible by construction).
    pub fn argmax(&self) -> usize {
        self.data
            .iter()
            .enumerate()
            .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, v)| {
                if *v > bv {
                    (i, *v)
                } else {
                    (bi, bv)
                }
            })
            .0
    }

    /// Largest absolute value in the tensor (0 for all-zero tensors).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, x| m.max(x.abs()))
    }
}

/// Errors from tensor construction and arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorError {
    /// Data length does not match the shape's element count.
    LengthMismatch {
        /// Elements implied by the shape.
        expected: usize,
        /// Elements actually provided.
        actual: usize,
    },
    /// Two operands had incompatible shapes.
    ShapeMismatch {
        /// Left operand shape.
        left: Shape,
        /// Right operand shape.
        right: Shape,
    },
    /// A multi-index was out of bounds or of the wrong rank.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// The tensor dimensions.
        dims: Vec<usize>,
    },
    /// An operation's parameters were invalid (e.g. zero stride).
    BadParameter(String),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "data length {actual} does not match shape length {expected}"
                )
            }
            TensorError::ShapeMismatch { left, right } => {
                write!(f, "shape mismatch: {left} vs {right}")
            }
            TensorError::IndexOutOfBounds { index, dims } => {
                write!(f, "index {index:?} out of bounds for dimensions {dims:?}")
            }
            TensorError::BadParameter(msg) => write!(f, "bad parameter: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros() {
        let z = Tensor::zeros(Shape::d2(2, 3));
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|x| *x == 0.0));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(Shape::d2(2, 2), vec![1.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_vec(Shape::d2(2, 2), vec![1.0; 3]),
            Err(TensorError::LengthMismatch {
                expected: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn fill_with_visits_row_major() {
        let t = Tensor::fill_with(Shape::d2(2, 3), |i| (i[0] * 10 + i[1]) as f32);
        assert_eq!(t.data(), &[0., 1., 2., 10., 11., 12.]);
    }

    #[test]
    fn at_reads_row_major() {
        let t = Tensor::from_vec(Shape::d3(2, 2, 2), vec![0., 0., 0., 0., 0., 7., 0., 0.]).unwrap();
        assert_eq!(t.at(&[1, 0, 1]), 7.0);
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn add_and_shape_mismatch() {
        let a = Tensor::fill_with(Shape::d1(3), |_| 1.0);
        let b = Tensor::fill_with(Shape::d1(3), |_| 2.0);
        assert_eq!(a.add(&b).unwrap().data(), &[3.0; 3]);
        let c = Tensor::fill_with(Shape::d1(4), |_| 2.0);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn map_applies_elementwise() {
        let t = Tensor::from_vec(Shape::d1(4), vec![1., 2., 3., 4.]).unwrap();
        assert_eq!(t.map(|x| x * x).data(), &[1., 4., 9., 16.]);
    }

    #[test]
    fn argmax_first_on_ties() {
        let t = Tensor::from_vec(Shape::d1(5), vec![1., 5., 3., 5., 2.]).unwrap();
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn abs_max() {
        let t = Tensor::from_vec(Shape::d1(3), vec![-7., 2., 5.]).unwrap();
        assert_eq!(t.abs_max(), 7.0);
        assert_eq!(Tensor::zeros(Shape::d1(2)).abs_max(), 0.0);
    }

    #[test]
    fn error_display() {
        let e = TensorError::ShapeMismatch {
            left: Shape::d1(2),
            right: Shape::d1(3),
        };
        assert!(e.to_string().contains("mismatch"));
    }
}
