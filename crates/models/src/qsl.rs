//! `QuerySampleLibrary` adapters for the reference tasks.

use crate::registry::TaskId;
use mlperf_datasets::SampleTracker;
use mlperf_loadgen::qsl::QuerySampleLibrary;
use mlperf_loadgen::query::SampleIndex;

/// Performance sample counts mirroring the official per-task settings
/// (how many samples are guaranteed to fit in memory during a
/// performance run).
fn default_performance_count(task: TaskId) -> usize {
    match task {
        TaskId::ImageClassificationHeavy | TaskId::ImageClassificationLight => 1_024,
        TaskId::ObjectDetectionHeavy => 64,
        TaskId::ObjectDetectionLight => 256,
        TaskId::MachineTranslation => 3_903,
    }
}

/// A QSL for one reference task; a load outside the data set panics.
///
/// # Examples
///
/// ```
/// use mlperf_models::qsl::TaskQsl;
/// use mlperf_models::TaskId;
/// use mlperf_loadgen::qsl::QuerySampleLibrary;
///
/// let mut qsl = TaskQsl::for_task(TaskId::ImageClassificationHeavy, 512);
/// assert_eq!(qsl.total_sample_count(), 512);
/// assert!(qsl.performance_sample_count() <= 512);
/// qsl.load_samples(&[0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct TaskQsl {
    name: String,
    total: usize,
    performance: usize,
    tracker: SampleTracker,
}

impl TaskQsl {
    /// Creates the QSL for `task` with `total` samples; the performance
    /// sample count follows the official per-task settings, capped by
    /// `total`.
    ///
    /// # Panics
    ///
    /// Panics if `total == 0`.
    pub fn for_task(task: TaskId, total: usize) -> Self {
        assert!(total > 0, "QSL needs at least one sample");
        Self {
            name: format!("{}-qsl", task.spec().model_name),
            total,
            performance: default_performance_count(task).min(total),
            tracker: SampleTracker::new(total),
        }
    }
}

impl QuerySampleLibrary for TaskQsl {
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
        self.tracker
            .load(indices)
            .expect("LoadGen only loads in-range indices");
    }

    fn unload_samples(&mut self, _indices: &[SampleIndex]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_capped_by_total() {
        let q = TaskQsl::for_task(TaskId::ImageClassificationHeavy, 100);
        assert_eq!(q.performance_sample_count(), 100);
        let q = TaskQsl::for_task(TaskId::ImageClassificationHeavy, 5_000);
        assert_eq!(q.performance_sample_count(), 1_024);
    }

    #[test]
    fn per_task_defaults() {
        assert_eq!(
            TaskQsl::for_task(TaskId::ObjectDetectionHeavy, 10_000).performance_sample_count(),
            64
        );
        assert_eq!(
            TaskQsl::for_task(TaskId::MachineTranslation, 10_000).performance_sample_count(),
            3_903
        );
    }

    #[test]
    fn loads_inside_the_data_set() {
        let mut q = TaskQsl::for_task(TaskId::ObjectDetectionLight, 50);
        q.load_samples(&[3, 4, 49]);
        q.unload_samples(&[4]);
        assert!(q.name().contains("SSD-MobileNet"));
    }

    #[test]
    #[should_panic(expected = "in-range")]
    fn an_out_of_range_load_panics() {
        TaskQsl::for_task(TaskId::ObjectDetectionLight, 50).load_samples(&[50]);
    }

    #[test]
    #[should_panic]
    fn zero_total_panics() {
        TaskQsl::for_task(TaskId::MachineTranslation, 0);
    }
}
