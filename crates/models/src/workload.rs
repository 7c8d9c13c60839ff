//! Per-sample operation counts for the latency simulation.
//!
//! Vision models cost a fixed number of operations per input (Table I).
//! GNMT's cost varies with sequence length — the property behind the
//! paper's observation that NMT suffers the largest server-scenario
//! throughput loss (Section VI-B). The simulated devices query this type
//! per sample index.

use crate::registry::TaskId;
use mlperf_datasets::SyntheticSentences;

/// GNMT nominal operations per token, in GOPS (≈ 2 × encoder+decoder
/// parameter usage per step).
const GNMT_GOPS_PER_TOKEN: f64 = 0.6;

/// A task's computational footprint as seen by a device.
#[derive(Debug, Clone)]
pub struct Workload {
    task: TaskId,
    sentences: Option<SyntheticSentences>,
}

impl Workload {
    /// Creates the workload for `task`. Translation derives per-sample
    /// sequence lengths from the standard synthetic corpus seed.
    pub fn new(task: TaskId) -> Self {
        let sentences = match task {
            // Continuation 0.95 puts the mean near WMT's ~21 tokens/sentence,
            // aligning mean cost with the nominal Table I figure.
            TaskId::MachineTranslation => Some(
                SyntheticSentences::new(8_192, 65_536, 0x0057_4d54_3136_u64, 4, 64)
                    .with_continuation(0.95),
            ),
            _ => None,
        };
        Self { task, sentences }
    }

    /// Operations for one inference on `sample_index`, in GOPS.
    pub fn ops_for_sample(&self, sample_index: usize) -> f64 {
        match &self.sentences {
            None => self.task.spec().gops_per_input,
            Some(corpus) => {
                let len = corpus
                    .sentence_length(sample_index % corpus.len())
                    .expect("index wrapped into range");
                len as f64 * GNMT_GOPS_PER_TOKEN
            }
        }
    }

    /// Mean operations per input over a window of samples, in GOPS.
    pub fn mean_ops(&self, window: usize) -> f64 {
        let n = window.max(1);
        (0..n).map(|i| self.ops_for_sample(i)).sum::<f64>() / n as f64
    }

    /// Whether per-sample cost varies (true only for translation).
    pub fn is_variable(&self) -> bool {
        self.sentences.is_some()
    }

    /// A high-percentile per-sample cost, in GOPS — what tail-latency
    /// capability checks must budget for. Vision tasks are constant;
    /// translation pays for its longest admissible sentence.
    pub fn worst_case_ops(&self) -> f64 {
        match &self.sentences {
            None => self.task.spec().gops_per_input,
            Some(corpus) => corpus.length_range().1 as f64 * GNMT_GOPS_PER_TOKEN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vision_costs_are_constant_and_match_table_i() {
        for task in [
            TaskId::ImageClassificationHeavy,
            TaskId::ImageClassificationLight,
            TaskId::ObjectDetectionHeavy,
            TaskId::ObjectDetectionLight,
        ] {
            let w = Workload::new(task);
            assert!(!w.is_variable());
            assert_eq!(w.ops_for_sample(0), task.spec().gops_per_input);
            assert_eq!(w.ops_for_sample(123), w.ops_for_sample(9_999));
        }
    }

    #[test]
    fn translation_costs_vary_with_length() {
        let w = Workload::new(TaskId::MachineTranslation);
        assert!(w.is_variable());
        let costs: Vec<f64> = (0..200).map(|i| w.ops_for_sample(i)).collect();
        let distinct: std::collections::HashSet<u64> =
            costs.iter().map(|c| (*c * 1000.0) as u64).collect();
        assert!(distinct.len() > 5, "costs should vary");
        // All positive and bounded by the max sentence length.
        assert!(costs.iter().all(|c| *c >= 4.0 * GNMT_GOPS_PER_TOKEN));
        assert!(costs.iter().all(|c| *c <= 64.0 * GNMT_GOPS_PER_TOKEN));
    }

    #[test]
    fn translation_mean_near_nominal() {
        let w = Workload::new(TaskId::MachineTranslation);
        let mean = w.mean_ops(5_000);
        let nominal = TaskId::MachineTranslation.spec().gops_per_input;
        assert!(
            (mean / nominal - 1.0).abs() < 0.5,
            "mean {mean} vs nominal {nominal}"
        );
    }

    #[test]
    fn deterministic_per_index() {
        let a = Workload::new(TaskId::MachineTranslation);
        let b = Workload::new(TaskId::MachineTranslation);
        for i in [0usize, 7, 1_000, 65_535, 70_000] {
            assert_eq!(a.ops_for_sample(i), b.ops_for_sample(i));
        }
    }
}
