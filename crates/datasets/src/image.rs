//! Synthetic image datasets (ImageNet / COCO stand-ins).

use crate::DatasetError;
use mlperf_stats::Rng64;
use mlperf_tensor::{Shape, Tensor};

/// A deterministic, lazily materialized image dataset.
///
/// Every sample is a smooth random field: a per-index seeded mixture of a few
/// low-frequency sinusoids plus white noise, normalized to roughly
/// `[-1, 1]`. There is nothing to recognize in these images by design — the
/// teacher network *defines* the labels (see `mlperf-models`) — but the
/// statistics (smooth structure + noise, bounded range) are what convolution
/// and quantization care about.
///
/// # Examples
///
/// ```
/// use mlperf_datasets::SyntheticImages;
/// use mlperf_tensor::Shape;
///
/// let ds = SyntheticImages::new(Shape::d3(3, 16, 16), 100, 42);
/// let a = ds.input(5)?;
/// let b = ds.input(5)?;
/// assert_eq!(a, b); // pure function of (seed, index)
/// # Ok::<(), mlperf_datasets::DatasetError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticImages {
    shape: Shape,
    len: usize,
    seed: u64,
}

/// White-noise amplitude added to every pixel.
const NOISE: f32 = 0.25;

impl SyntheticImages {
    /// Creates a dataset of `len` images of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or the shape is not rank 3.
    pub fn new(shape: Shape, len: usize, seed: u64) -> Self {
        assert!(len > 0, "dataset must be non-empty");
        assert_eq!(shape.rank(), 3, "images are [C, H, W]");
        Self { shape, len, seed }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the dataset is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Materializes sample `index`.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::IndexOutOfRange`] if `index >= len`.
    pub fn input(&self, index: usize) -> Result<Tensor, DatasetError> {
        if index >= self.len {
            return Err(DatasetError::IndexOutOfRange {
                index,
                len: self.len,
            });
        }
        let mut rng = Rng64::new(self.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // Three random plane waves per channel.
        let dims = self.shape.dims();
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        let mut waves = Vec::with_capacity(c * 3);
        for _ in 0..c * 3 {
            let fx = rng.next_f64() as f32 * 0.8 + 0.1;
            let fy = rng.next_f64() as f32 * 0.8 + 0.1;
            let phase = rng.next_f64() as f32 * std::f32::consts::TAU;
            let amp = rng.next_f64() as f32 * 0.5 + 0.2;
            waves.push((fx, fy, phase, amp));
        }
        Ok(Tensor::fill_with(self.shape.clone(), |idx| {
            let (ch, y, x) = (idx[0], idx[1] as f32, idx[2] as f32);
            let mut v = 0.0f32;
            for (fx, fy, phase, amp) in &waves[ch * 3..ch * 3 + 3] {
                v += amp
                    * (fx * x / w as f32 * std::f32::consts::TAU
                        + fy * y / h as f32 * std::f32::consts::TAU
                        + phase)
                        .sin();
            }
            v + (rng.next_f64() as f32 * 2.0 - 1.0) * NOISE
        }))
    }

    /// The fixed calibration subset: the first `n` indices, mirroring the
    /// paper's "small, fixed data set that can be used to calibrate".
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the dataset length.
    pub fn calibration_indices(&self, n: usize) -> Vec<usize> {
        assert!(n <= self.len, "calibration subset larger than dataset");
        (0..n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> SyntheticImages {
        SyntheticImages::new(Shape::d3(2, 8, 8), 50, 7)
    }

    #[test]
    fn deterministic_per_index() {
        let d = ds();
        assert_eq!(d.input(3).unwrap(), d.input(3).unwrap());
    }

    #[test]
    fn distinct_indices_distinct_images() {
        let d = ds();
        assert_ne!(d.input(3).unwrap(), d.input(4).unwrap());
    }

    #[test]
    fn distinct_seeds_distinct_images() {
        let a = SyntheticImages::new(Shape::d3(2, 8, 8), 10, 1);
        let b = SyntheticImages::new(Shape::d3(2, 8, 8), 10, 2);
        assert_ne!(a.input(0).unwrap(), b.input(0).unwrap());
    }

    #[test]
    fn values_bounded() {
        let d = ds();
        for i in 0..10 {
            let img = d.input(i).unwrap();
            // 3 waves of amplitude <=0.7 plus 0.25 noise: |v| <= 2.35.
            assert!(img.abs_max() <= 2.4, "image {i} out of range");
        }
    }

    #[test]
    fn index_out_of_range() {
        assert!(matches!(
            ds().input(50),
            Err(DatasetError::IndexOutOfRange { index: 50, len: 50 })
        ));
    }

    #[test]
    fn calibration_subset_is_prefix() {
        assert_eq!(ds().calibration_indices(4), vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "larger than dataset")]
    fn oversized_calibration_panics() {
        ds().calibration_indices(51);
    }
}
