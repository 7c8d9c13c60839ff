//! Quality targets and windows (Section III-B).

use crate::registry::TaskId;

/// A task's quality requirement: a fraction of the FP32 reference quality.
///
/// "We require that almost all implementations achieve a quality target
/// within 1% of the FP32 reference model's accuracy" — 2% for the
/// quantization-sensitive MobileNet classifier, and SSD-MobileNet's absolute
/// target was reduced to 22.0 mAP (represented here as its own reference
/// value with a 99% window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityTarget {
    reference: f64,
    window: f64,
}

impl QualityTarget {
    /// Creates a target: `window` fraction of `reference` quality.
    ///
    /// # Panics
    ///
    /// Panics unless `reference > 0` and `0 < window <= 1`.
    pub(crate) fn new(reference: f64, window: f64) -> Self {
        assert!(reference > 0.0, "reference quality must be positive");
        assert!(
            window > 0.0 && window <= 1.0,
            "quality window must be in (0, 1], got {window}"
        );
        Self { reference, window }
    }

    /// The paper's *window* for a task applied to a measured FP32 reference
    /// quality — what this reproduction uses, since the proxy models have
    /// their own (measured) FP32 reference quality.
    pub fn for_task_with_reference(task: TaskId, measured_fp32: f64) -> Self {
        Self::new(measured_fp32, task.spec().quality_window)
    }

    /// The minimum admissible quality.
    pub fn threshold(&self) -> f64 {
        self.reference * self.window
    }

    /// Whether a measured quality meets the target.
    pub fn is_met(&self, measured: f64) -> bool {
        measured >= self.threshold()
    }
}

impl std::fmt::Display for QualityTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.1}% of {:.3} (>= {:.3})",
            self.window * 100.0,
            self.reference,
            self.threshold()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet_example_from_the_paper() {
        // "the ResNet-50 v1.5 model achieves 76.46% Top-1 accuracy, and an
        // equivalent model must achieve at least 75.70% Top-1 accuracy."
        let task = TaskId::ImageClassificationHeavy;
        let t = QualityTarget::for_task_with_reference(task, task.spec().fp32_quality);
        assert!((t.threshold() - 75.69).abs() < 0.01);
        assert!(t.is_met(75.70));
        assert!(!t.is_met(75.60));
    }

    #[test]
    fn mobilenet_gets_the_wider_window() {
        let task = TaskId::ImageClassificationLight;
        let t = QualityTarget::for_task_with_reference(task, task.spec().fp32_quality);
        assert!((t.threshold() - 71.676 * 0.98).abs() < 1e-9);
    }

    #[test]
    fn measured_reference_window() {
        let t = QualityTarget::for_task_with_reference(TaskId::ImageClassificationHeavy, 0.90);
        assert!(t.is_met(0.893));
        assert!(!t.is_met(0.88));
    }

    #[test]
    fn boundary_is_inclusive() {
        let t = QualityTarget::new(100.0, 0.99);
        assert!(t.is_met(99.0));
        assert!(!t.is_met(98.999_999));
    }

    #[test]
    #[should_panic(expected = "quality window")]
    fn bad_window_panics() {
        QualityTarget::new(1.0, 1.5);
    }

    #[test]
    fn display_mentions_threshold() {
        let t = QualityTarget::new(76.456, 0.99);
        assert!(t.to_string().contains("99.0%"));
    }
}
