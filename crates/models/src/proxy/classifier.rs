//! Image-classification proxy (MiniResNet / MiniMobileNet).

use super::Precision;
use crate::registry::TaskId;
use mlperf_datasets::SyntheticImages;
use mlperf_metrics::top1_accuracy;
use mlperf_nn::layer::Activation;
use mlperf_nn::network::NetworkBuilder;
use mlperf_nn::{Network, QNetwork};
use mlperf_stats::Rng64;
use mlperf_tensor::{Shape, Tensor};

/// Number of synthetic classes.
const NUM_CLASSES: usize = 16;
/// Calibration-set size (the paper provides a small fixed calibration set).
const CALIBRATION_SAMPLES: usize = 16;

/// A runnable classification proxy for the two ImageNet tasks.
///
/// # Examples
///
/// ```
/// use mlperf_models::proxy::{ClassifierProxy, Precision};
/// use mlperf_models::TaskId;
///
/// let proxy = ClassifierProxy::new(TaskId::ImageClassificationLight, 64, 7);
/// let acc = proxy.accuracy(Precision::Fp32);
/// assert!(acc > 0.5, "teacher should mostly agree with its own labels");
/// ```
#[derive(Debug)]
pub struct ClassifierProxy {
    task: TaskId,
    dataset: SyntheticImages,
    teacher: Network,
    quantized: QNetwork,
    labels: Vec<usize>,
}

impl ClassifierProxy {
    /// Builds the proxy for a classification task with `len` samples.
    ///
    /// # Panics
    ///
    /// Panics if `task` is not one of the two image-classification tasks or
    /// `len` is zero.
    pub fn new(task: TaskId, len: usize, seed: u64) -> Self {
        let heavy = match task {
            TaskId::ImageClassificationHeavy => true,
            TaskId::ImageClassificationLight => false,
            other => panic!("{other:?} is not a classification task"),
        };
        let shape = Shape::d3(2, 12, 12);
        let dataset = SyntheticImages::new(shape.clone(), len, seed ^ 0x1357_9bdf);
        let mut wrng = Rng64::new(seed);
        let teacher = if heavy {
            // MiniResNet: stem conv + two residual blocks.
            NetworkBuilder::new(shape)
                .conv2d(8, 3, 1, 1, Activation::Relu, &mut wrng)
                .expect("static architecture")
                .residual_block(Activation::Relu, &mut wrng)
                .expect("static architecture")
                .residual_block(Activation::Relu, &mut wrng)
                .expect("static architecture")
                .global_avgpool()
                .expect("static architecture")
                .dense(NUM_CLASSES, Activation::None, &mut wrng)
                .expect("static architecture")
                .build()
        } else {
            // MiniMobileNet: stem + depthwise-separable blocks, ReLU6.
            NetworkBuilder::new(shape)
                .conv2d(8, 3, 2, 1, Activation::Relu6, &mut wrng)
                .expect("static architecture")
                .depthwise_conv2d(3, 1, 1, Activation::Relu6, &mut wrng)
                .expect("static architecture")
                .conv2d(16, 1, 1, 0, Activation::Relu6, &mut wrng)
                .expect("static architecture")
                .global_avgpool()
                .expect("static architecture")
                .dense(NUM_CLASSES, Activation::None, &mut wrng)
                .expect("static architecture")
                .build()
        };
        // Calibrate INT8 on the fixed prefix subset.
        let calibration: Vec<Tensor> = dataset
            .calibration_indices(CALIBRATION_SAMPLES.min(len))
            .into_iter()
            .map(|i| dataset.input(i).expect("calibration index in range"))
            .collect();
        let quantized = QNetwork::quantize(&teacher, &calibration).expect("calibration non-empty");
        // Ground truth: teacher labels with noise setting the FP32 quality.
        let noise = 1.0 - task.spec().fp32_quality / 100.0;
        let mut label_rng = Rng64::new(seed ^ 0x6c61_6265_6c73);
        let labels = (0..len)
            .map(|i| {
                let input = dataset.input(i).expect("index in range");
                let teacher_label = teacher.forward(&input).expect("shape fixed").argmax();
                if label_rng.next_bool(noise) {
                    // A different class, uniformly.
                    let offset = 1 + label_rng.next_index(NUM_CLASSES - 1);
                    (teacher_label + offset) % NUM_CLASSES
                } else {
                    teacher_label
                }
            })
            .collect();
        Self {
            task,
            dataset,
            teacher,
            quantized,
            labels,
        }
    }

    /// The task this proxy stands in for.
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The FP32 teacher network (for ablations and inspection).
    pub fn teacher(&self) -> &Network {
        &self.teacher
    }

    /// Materializes the input tensor for a sample.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn input(&self, index: usize) -> Tensor {
        self.dataset.input(index).expect("index in range")
    }

    /// Runs one inference and returns the predicted class.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn predict(&self, precision: Precision, index: usize) -> usize {
        let input = self.dataset.input(index).expect("index in range");
        match precision {
            Precision::Fp32 => self.teacher.forward(&input).expect("shape fixed").argmax(),
            Precision::Quantized => self
                .quantized
                .forward(&input)
                .expect("shape fixed")
                .argmax(),
        }
    }

    /// Top-1 accuracy over the whole dataset at a precision.
    pub fn accuracy(&self, precision: Precision) -> f64 {
        let predictions: Vec<usize> = (0..self.len())
            .map(|i| self.predict(precision, i))
            .collect();
        top1_accuracy(&predictions, &self.labels)
    }

    /// Scores an externally produced prediction list (the accuracy-script
    /// path: LoadGen log in, accuracy out).
    ///
    /// # Panics
    ///
    /// Panics if `predictions` is not parallel to the dataset.
    pub fn score(&self, predictions: &[usize]) -> f64 {
        top1_accuracy(predictions, &self.labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp32_accuracy_tracks_label_noise() {
        let proxy = ClassifierProxy::new(TaskId::ImageClassificationHeavy, 400, 1);
        let acc = proxy.accuracy(Precision::Fp32);
        // Expected ~0.7646 with binomial noise; allow a wide band.
        assert!((0.68..0.85).contains(&acc), "acc={acc}");
    }

    #[test]
    fn int8_close_to_fp32_and_not_identical_everywhere() {
        let proxy = ClassifierProxy::new(TaskId::ImageClassificationLight, 300, 2);
        let fp32 = proxy.accuracy(Precision::Fp32);
        let int8 = proxy.accuracy(Precision::Quantized);
        assert!(
            (fp32 - int8).abs() < 0.08,
            "fp32={fp32} int8={int8}: quantization gap too large"
        );
    }

    #[test]
    fn deterministic() {
        let a = ClassifierProxy::new(TaskId::ImageClassificationHeavy, 50, 3);
        let b = ClassifierProxy::new(TaskId::ImageClassificationHeavy, 50, 3);
        for i in 0..50 {
            assert_eq!(a.labels[i], b.labels[i]);
            assert_eq!(a.predict(Precision::Fp32, i), b.predict(Precision::Fp32, i));
        }
    }

    #[test]
    fn seed_changes_everything() {
        let a = ClassifierProxy::new(TaskId::ImageClassificationHeavy, 80, 4);
        let b = ClassifierProxy::new(TaskId::ImageClassificationHeavy, 80, 5);
        let same = (0..80).filter(|i| a.labels[*i] == b.labels[*i]).count();
        assert!(same < 60, "labels should differ across seeds, same={same}");
    }

    #[test]
    fn score_matches_accuracy() {
        let proxy = ClassifierProxy::new(TaskId::ImageClassificationLight, 60, 6);
        let preds: Vec<usize> = (0..60).map(|i| proxy.predict(Precision::Fp32, i)).collect();
        assert_eq!(proxy.score(&preds), proxy.accuracy(Precision::Fp32));
    }

    #[test]
    #[should_panic(expected = "not a classification task")]
    fn wrong_task_panics() {
        ClassifierProxy::new(TaskId::MachineTranslation, 10, 1);
    }
}
