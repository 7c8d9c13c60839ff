//! Object-detection proxy (MiniSSD).
//!
//! A small convolutional backbone produces a `[5 + C, G, G]` grid head:
//! channel 0 is objectness, channels 1–4 are box offsets within the cell,
//! and the rest are class logits — a single-shot-detector head in
//! miniature. The teacher's own decoded detections (plus jitter/drop noise)
//! define the ground truth.

use super::Precision;
use crate::registry::TaskId;
use mlperf_datasets::SyntheticImages;
use mlperf_metrics::{mean_average_precision, BoundingBox, Detection, GroundTruth};
use mlperf_nn::layer::Activation;
use mlperf_nn::network::NetworkBuilder;
use mlperf_nn::Network;
use mlperf_stats::Rng64;
use mlperf_tensor::quant::per_channel_i16_roundtrip;
use mlperf_tensor::{Shape, Tensor};

/// Detection classes.
const NUM_CLASSES: usize = 8;
/// Grid cells per axis.
const GRID: usize = 4;
/// Image extent in pixels (box coordinates live in this space).
const EXTENT: f32 = 64.0;
/// Fraction of grid cells that fire, on average (sets the adaptive
/// objectness threshold: ~1.6 detections per 16-cell image).
const DETECTION_DENSITY: f64 = 0.10;
/// IoU threshold used for scoring.
const IOU_THRESHOLD: f32 = 0.5;

/// A runnable detection proxy for the two COCO tasks.
#[derive(Debug)]
pub struct DetectorProxy {
    dataset: SyntheticImages,
    teacher: Network,
    quantized: Network,
    ground_truth: Vec<GroundTruth>,
    objectness_threshold: f32,
}

impl DetectorProxy {
    /// Builds the proxy for a detection task with `len` images.
    ///
    /// # Panics
    ///
    /// Panics if `task` is not one of the two object-detection tasks or
    /// `len` is zero.
    pub fn new(task: TaskId, len: usize, seed: u64) -> Self {
        let heavy = match task {
            TaskId::ObjectDetectionHeavy => true,
            TaskId::ObjectDetectionLight => false,
            other => panic!("{other:?} is not a detection task"),
        };
        let shape = Shape::d3(2, 16, 16);
        let dataset = SyntheticImages::new(shape.clone(), len, seed ^ 0x2468_ace0);
        let mut wrng = Rng64::new(seed ^ 0x5544_3322);
        let head_channels = 5 + NUM_CLASSES;
        let teacher = if heavy {
            NetworkBuilder::new(shape)
                .conv2d(8, 3, 1, 1, Activation::Relu, &mut wrng)
                .expect("static architecture")
                .residual_block(Activation::Relu, &mut wrng)
                .expect("static architecture")
                .maxpool(2)
                .expect("static architecture")
                .conv2d(12, 3, 2, 1, Activation::Relu, &mut wrng)
                .expect("static architecture")
                .conv2d(head_channels, 1, 1, 0, Activation::None, &mut wrng)
                .expect("static architecture")
                .build()
        } else {
            NetworkBuilder::new(shape)
                .conv2d(8, 3, 2, 1, Activation::Relu6, &mut wrng)
                .expect("static architecture")
                .depthwise_conv2d(3, 2, 1, Activation::Relu6, &mut wrng)
                .expect("static architecture")
                .conv2d(head_channels, 1, 1, 0, Activation::None, &mut wrng)
                .expect("static architecture")
                .build()
        };
        debug_assert_eq!(teacher.output_shape().dims(), &[head_channels, GRID, GRID]);
        // Adaptive objectness threshold: the p90 of the teacher's own
        // objectness scores, so every random teacher emits a usable
        // detection density regardless of where its logits happen to sit.
        let mut scores: Vec<f32> = Vec::new();
        for image_id in 0..len.min(64) {
            let input = dataset.input(image_id).expect("index in range");
            let out = teacher.forward(&input).expect("shape fixed");
            for gy in 0..GRID {
                for gx in 0..GRID {
                    scores.push(sigmoid(out.at(&[0, gy, gx])));
                }
            }
        }
        scores.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
        let rank = ((1.0 - DETECTION_DENSITY) * scores.len() as f64) as usize;
        // Put the threshold in the *widest gap* between consecutive scores
        // near the density rank: quantization noise then cannot flip the
        // boundary cell back and forth.
        let lo = rank.saturating_sub(8);
        let hi = (rank + 8).min(scores.len() - 1);
        let mut best = (0.0f32, scores[rank.min(scores.len() - 1)]);
        for i in lo..hi {
            let gap = scores[i + 1] - scores[i];
            if gap > best.0 {
                best = (gap, (scores[i] + scores[i + 1]) / 2.0);
            }
        }
        let objectness_threshold = best.1.clamp(0.2, 0.95);
        // 16-bit per-channel weights with full-precision accumulation:
        // the INT16/FP16-class deployment numerics real v0.5 detection
        // submissions used (full INT8 detection without retraining was
        // exactly the failure mode that made the paper reduce
        // SSD-MobileNet's absolute target).
        let quantized = teacher.map_parameters(per_channel_i16_roundtrip);
        // Ground truth: the teacher's detections, jittered and thinned.
        let mut gt_rng = Rng64::new(seed ^ 0x6274_7275_7468);
        let mut ground_truth = Vec::new();
        for image_id in 0..len {
            let input = dataset.input(image_id).expect("index in range");
            let out = teacher.forward(&input).expect("shape fixed");
            for det in decode(&out, image_id, objectness_threshold) {
                // Drop ~12% of boxes so the model has unmatched detections
                // (this, not box jitter, sets the FP32 reference mAP).
                if gt_rng.next_bool(0.12) {
                    continue;
                }
                // Mild jitter: matches stay comfortably above the IoU
                // threshold so quantization noise does not flip them.
                let jitter = |rng: &mut Rng64| (rng.next_f64() as f32 * 2.0 - 1.0) * EXTENT * 0.012;
                let dx = jitter(&mut gt_rng);
                let dy = jitter(&mut gt_rng);
                let b = det.bbox;
                let bbox = BoundingBox::new(
                    (b.x1 + dx).clamp(0.0, EXTENT - 2.0),
                    (b.y1 + dy).clamp(0.0, EXTENT - 2.0),
                    (b.x2 + dx).clamp(2.0, EXTENT),
                    (b.y2 + dy).clamp(2.0, EXTENT),
                );
                ground_truth.push(GroundTruth {
                    image_id,
                    class: det.class,
                    bbox,
                });
            }
        }
        Self {
            dataset,
            teacher,
            quantized,
            ground_truth,
            objectness_threshold,
        }
    }

    /// Number of images.
    pub(crate) fn len(&self) -> usize {
        self.dataset.len()
    }

    /// Runs one inference and returns decoded detections.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub(crate) fn detect(&self, precision: Precision, index: usize) -> Vec<Detection> {
        let input = self.dataset.input(index).expect("index in range");
        let out = match precision {
            Precision::Fp32 => self.teacher.forward(&input).expect("shape fixed"),
            Precision::Quantized => self.quantized.forward(&input).expect("shape fixed"),
        };
        decode(&out, index, self.objectness_threshold)
    }

    /// mAP@0.5 over the whole dataset at a precision.
    pub fn map(&self, precision: Precision) -> f64 {
        let detections: Vec<Detection> = (0..self.len())
            .flat_map(|i| self.detect(precision, i))
            .collect();
        mean_average_precision(&detections, &self.ground_truth, IOU_THRESHOLD)
    }
}

/// Decodes a `[5 + C, G, G]` head tensor into detections.
fn decode(output: &Tensor, image_id: usize, threshold: f32) -> Vec<Detection> {
    let cell = EXTENT / GRID as f32;
    let mut detections = Vec::new();
    for gy in 0..GRID {
        for gx in 0..GRID {
            let objectness = sigmoid(output.at(&[0, gy, gx]));
            if objectness < threshold {
                continue;
            }
            // Box: cell anchor modulated by sigmoid offsets.
            let ox = sigmoid(output.at(&[1, gy, gx]));
            let oy = sigmoid(output.at(&[2, gy, gx]));
            let ow = 0.5 + sigmoid(output.at(&[3, gy, gx]));
            let oh = 0.5 + sigmoid(output.at(&[4, gy, gx]));
            let cx = (gx as f32 + ox) * cell;
            let cy = (gy as f32 + oy) * cell;
            let (w, h) = (cell * ow, cell * oh);
            let x1 = (cx - w / 2.0).clamp(0.0, EXTENT - 2.0);
            let y1 = (cy - h / 2.0).clamp(0.0, EXTENT - 2.0);
            let x2 = (cx + w / 2.0).clamp(x1 + 1.0, EXTENT);
            let y2 = (cy + h / 2.0).clamp(y1 + 1.0, EXTENT);
            // Class: argmax over class channels.
            let mut best = (0usize, f32::NEG_INFINITY);
            for c in 0..NUM_CLASSES {
                let v = output.at(&[5 + c, gy, gx]);
                if v > best.1 {
                    best = (c, v);
                }
            }
            detections.push(Detection {
                image_id,
                class: best.0,
                score: objectness,
                bbox: BoundingBox::new(x1, y1, x2, y2),
            });
        }
    }
    detections
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_nonempty_and_bounded() {
        let proxy = DetectorProxy::new(TaskId::ObjectDetectionLight, 60, 1);
        assert!(!proxy.ground_truth.is_empty(), "no ground truth generated");
        for gt in &proxy.ground_truth {
            assert!(gt.bbox.x1 >= 0.0 && gt.bbox.x2 <= EXTENT);
            assert!(gt.class < NUM_CLASSES);
            assert!(gt.image_id < 60);
        }
    }

    #[test]
    fn fp32_map_is_high_but_imperfect() {
        let proxy = DetectorProxy::new(TaskId::ObjectDetectionHeavy, 80, 2);
        let map = proxy.map(Precision::Fp32);
        assert!(
            map > 0.5,
            "teacher should mostly match its own noisy gt: {map}"
        );
        assert!(map < 0.999, "noise should keep mAP below perfect: {map}");
    }

    #[test]
    fn int8_close_to_fp32() {
        let proxy = DetectorProxy::new(TaskId::ObjectDetectionLight, 60, 3);
        let fp32 = proxy.map(Precision::Fp32);
        let int8 = proxy.map(Precision::Quantized);
        assert!(
            (fp32 - int8).abs() < 0.12,
            "quantization gap too large: fp32={fp32} int8={int8}"
        );
    }

    #[test]
    fn deterministic() {
        let a = DetectorProxy::new(TaskId::ObjectDetectionLight, 20, 4);
        let b = DetectorProxy::new(TaskId::ObjectDetectionLight, 20, 4);
        assert_eq!(a.ground_truth, b.ground_truth);
        assert_eq!(a.detect(Precision::Fp32, 5), b.detect(Precision::Fp32, 5));
    }

    #[test]
    #[should_panic(expected = "not a detection task")]
    fn wrong_task_panics() {
        DetectorProxy::new(TaskId::ImageClassificationHeavy, 10, 1);
    }
}
