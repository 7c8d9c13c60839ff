//! The QuerySampleLibrary — Figure 3's "data set" component.

use crate::query::SampleIndex;

/// The LoadGen's view of the data set.
///
/// Loading and unloading are untimed operations requested by the LoadGen at
/// startup (Section IV-B). `performance_sample_count` is the number of
/// samples guaranteed to fit in memory; performance-mode queries draw their
/// indices from that loaded set only.
pub trait QuerySampleLibrary {
    /// Human-readable name for logs.
    fn name(&self) -> &str;

    /// Total samples in the data set (accuracy mode covers all of them).
    fn total_sample_count(&self) -> usize;

    /// Samples that can be resident simultaneously.
    fn performance_sample_count(&self) -> usize;

    /// Loads samples into memory (untimed).
    fn load_samples(&mut self, indices: &[SampleIndex]);

    /// Unloads samples (untimed).
    fn unload_samples(&mut self, indices: &[SampleIndex]);
}

/// A trivial in-memory QSL used by tests and examples.
///
/// # Examples
///
/// ```
/// use mlperf_loadgen::qsl::{MemoryQsl, QuerySampleLibrary};
///
/// let mut qsl = MemoryQsl::new("toy", 100, 16);
/// assert_eq!(qsl.total_sample_count(), 100);
/// assert_eq!(qsl.performance_sample_count(), 16);
/// qsl.load_samples(&[0, 1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryQsl {
    name: String,
    total: usize,
    performance: usize,
    loaded: std::collections::HashSet<SampleIndex>,
}

impl MemoryQsl {
    /// Creates a QSL with `total` samples of which `performance` fit in
    /// memory.
    ///
    /// # Panics
    ///
    /// Panics if `total == 0` or `performance == 0` or
    /// `performance > total`.
    pub fn new(name: &str, total: usize, performance: usize) -> Self {
        assert!(total > 0, "QSL must have samples");
        assert!(
            performance > 0 && performance <= total,
            "performance sample count {performance} invalid for total {total}"
        );
        Self {
            name: name.to_string(),
            total,
            performance,
            loaded: std::collections::HashSet::new(),
        }
    }
}

impl QuerySampleLibrary for MemoryQsl {
    fn name(&self) -> &str {
        &self.name
    }

    fn total_sample_count(&self) -> usize {
        self.total
    }

    fn performance_sample_count(&self) -> usize {
        self.performance
    }

    fn load_samples(&mut self, indices: &[SampleIndex]) {
        self.loaded.extend(indices.iter().copied());
    }

    fn unload_samples(&mut self, indices: &[SampleIndex]) {
        for i in indices {
            self.loaded.remove(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_qsl_lifecycle() {
        let mut q = MemoryQsl::new("t", 10, 4);
        assert_eq!(q.name(), "t");
        assert_eq!(q.performance_sample_count(), 4);
        q.load_samples(&[1, 2]);
        assert_eq!(q.loaded.len(), 2);
        q.unload_samples(&[1]);
        assert_eq!(q.loaded.len(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid for total")]
    fn performance_larger_than_total_panics() {
        MemoryQsl::new("t", 4, 10);
    }
}
