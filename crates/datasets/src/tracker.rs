//! QSL load/unload accounting.
//!
//! At startup "the LoadGen requests that the SUT load data-set samples into
//! memory" as an untimed operation (Section IV-B). The tracker keeps the
//! loaded set, refuses a load outside the data set, and records the
//! largest resident set and the number of loads.

use crate::DatasetError;
use std::collections::HashSet;

/// Tracks which sample indices are currently resident.
///
/// # Examples
///
/// ```
/// use mlperf_datasets::SampleTracker;
///
/// let mut t = SampleTracker::new(1000);
/// t.load(&[3, 5, 7])?;
/// t.unload(&[5]);
/// t.load(&[9])?;
/// assert_eq!(t.peak_resident(), 3);
/// assert!(t.load(&[1000]).is_err());
/// # Ok::<(), mlperf_datasets::DatasetError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SampleTracker {
    total: usize,
    loaded: HashSet<usize>,
    peak_resident: usize,
    load_calls: u64,
}

impl SampleTracker {
    /// Creates a tracker for a dataset of `total` samples.
    pub fn new(total: usize) -> Self {
        Self {
            total,
            ..Self::default()
        }
    }

    /// Marks samples as loaded.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::IndexOutOfRange`] if any index exceeds the
    /// dataset length; no indices are loaded in that case.
    pub fn load(&mut self, indices: &[usize]) -> Result<(), DatasetError> {
        if let Some(bad) = indices.iter().find(|i| **i >= self.total) {
            return Err(DatasetError::IndexOutOfRange {
                index: *bad,
                len: self.total,
            });
        }
        self.load_calls += 1;
        self.loaded.extend(indices.iter().copied());
        self.peak_resident = self.peak_resident.max(self.loaded.len());
        Ok(())
    }

    /// Marks samples as unloaded (unknown indices are ignored).
    pub fn unload(&mut self, indices: &[usize]) {
        for i in indices {
            self.loaded.remove(i);
        }
    }

    /// Largest resident set seen.
    pub fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    /// Number of `load` calls.
    pub fn load_calls(&self) -> u64 {
        self.load_calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_unload_cycle() {
        let mut t = SampleTracker::new(10);
        t.load(&[1, 2, 3]).unwrap();
        t.unload(&[2]);
        t.load(&[2, 4]).unwrap();
        assert_eq!(t.peak_resident(), 4);
    }

    #[test]
    fn load_rejects_out_of_range_atomically() {
        let mut t = SampleTracker::new(5);
        assert!(t.load(&[1, 9]).is_err());
        assert_eq!(t.peak_resident(), 0, "failed load must not partially apply");
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut t = SampleTracker::new(10);
        t.load(&[0, 1, 2, 3]).unwrap();
        t.unload(&[0, 1, 2, 3]);
        t.load(&[4]).unwrap();
        assert_eq!(t.peak_resident(), 4);
        assert_eq!(t.load_calls(), 2);
    }

    #[test]
    fn duplicate_loads_idempotent() {
        let mut t = SampleTracker::new(10);
        t.load(&[1, 1, 1]).unwrap();
        assert_eq!(t.peak_resident(), 1);
    }

    #[test]
    fn unload_unknown_is_noop() {
        let mut t = SampleTracker::new(3);
        t.unload(&[7]);
        t.load(&[1]).unwrap();
        assert_eq!(t.peak_resident(), 1);
    }
}
