//! QSL load checking.
//!
//! At startup "the LoadGen requests that the SUT load data-set samples into
//! memory" as an untimed operation (Section IV-B). The tracker refuses a
//! load outside the data set.

use crate::DatasetError;

/// Checks sample loads against the data set's length.
///
/// # Examples
///
/// ```
/// use mlperf_datasets::SampleTracker;
///
/// let t = SampleTracker::new(1000);
/// t.load(&[3, 5, 7])?;
/// assert!(t.load(&[1000]).is_err());
/// # Ok::<(), mlperf_datasets::DatasetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SampleTracker {
    total: usize,
}

impl SampleTracker {
    /// Creates a tracker for a dataset of `total` samples.
    pub fn new(total: usize) -> Self {
        Self { total }
    }

    /// Checks that samples may be loaded.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::IndexOutOfRange`] if any index exceeds the
    /// dataset length.
    pub fn load(&self, indices: &[usize]) -> Result<(), DatasetError> {
        match indices.iter().find(|i| **i >= self.total) {
            Some(bad) => Err(DatasetError::IndexOutOfRange {
                index: *bad,
                len: self.total,
            }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_rejects_out_of_range() {
        let t = SampleTracker::new(5);
        assert!(t.load(&[1, 4]).is_ok());
        assert_eq!(
            t.load(&[1, 9]),
            Err(DatasetError::IndexOutOfRange { index: 9, len: 5 })
        );
    }
}
