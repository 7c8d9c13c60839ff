//! One submitted result.

use crate::types::{Category, Division, SystemDescription};
use mlperf_loadgen::results::TestResult;
use mlperf_loadgen::scenario::Scenario;
use mlperf_models::TaskId;

/// Review state of a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ReviewStatus {
    /// Not yet reviewed.
    Pending,
    /// Cleared for release.
    Released,
    /// Rejected, with the reviewers' findings.
    Rejected(Vec<String>),
}

/// A result submission: system description, claimed task/scenario, the
/// scored LoadGen run, and the accuracy-script outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRecord {
    /// Unique id within the round.
    pub(crate) id: u64,
    /// Closed or open division.
    pub division: Division,
    /// Availability category.
    pub(crate) category: Category,
    /// The system under test.
    pub(crate) system: SystemDescription,
    /// Table I model name (closed division: the reference model).
    pub(crate) model_name: String,
    /// The scenario run.
    pub(crate) scenario: Scenario,
    /// The scored LoadGen result.
    pub(crate) result: TestResult,
    /// Quality measured by the accuracy script.
    pub(crate) measured_quality: f64,
    /// FP32 reference quality for the task on the proxy reference model.
    pub(crate) reference_quality: f64,
    /// Review state.
    pub(crate) status: ReviewStatus,
    /// Open-division deviation notes (empty for closed).
    pub(crate) notes: String,
}

impl ResultRecord {
    /// The task this record claims, resolved from the model name (known
    /// for closed-division records; open division may use custom models).
    pub(crate) fn task(&self) -> Option<TaskId> {
        TaskId::from_model_name(&self.model_name)
    }

    /// Whether the record has been released.
    pub fn is_released(&self) -> bool {
        self.status == ReviewStatus::Released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_loadgen::results::ScenarioMetric;
    use mlperf_loadgen::time::Nanos;

    pub(crate) fn sample_record() -> ResultRecord {
        ResultRecord {
            id: 1,
            division: Division::Closed,
            category: Category::Available,
            system: SystemDescription {
                system_name: "edge-gpu".into(),
                vendor: "Nimbus Graphics".into(),
                framework: "TensorRT".into(),
                architecture: "GPU".into(),
                accelerator_count: 1,
                cpu_count: 8,
                memory_gib: 32,
            },
            model_name: "ResNet-50 v1.5".into(),
            scenario: Scenario::Offline,
            result: TestResult {
                sut_name: "edge-gpu".into(),
                qsl_name: "imagenet-syn".into(),
                scenario: Scenario::Offline,
                performance_mode: true,
                metric: ScenarioMetric::Offline {
                    samples_per_second: 100.0,
                },
                latency_stats: None,
                query_count: 1,
                error_count: 0,
                sample_count: 24_576,
                duration: Nanos::from_secs(61),
                validity: vec![],
            },
            measured_quality: 0.76,
            reference_quality: 0.765,
            status: ReviewStatus::Pending,
            notes: String::new(),
        }
    }

    #[test]
    fn task_resolution() {
        let r = sample_record();
        assert_eq!(r.task(), Some(TaskId::ImageClassificationHeavy));
        let mut custom = r.clone();
        custom.model_name = "MyCustomNet".into();
        assert_eq!(custom.task(), None);
    }

    #[test]
    fn release_state() {
        let mut r = sample_record();
        assert!(!r.is_released());
        r.status = ReviewStatus::Released;
        assert!(r.is_released());
        r.status = ReviewStatus::Rejected(vec!["too slow".into()]);
        assert!(!r.is_released());
    }
}
