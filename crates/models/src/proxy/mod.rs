//! Runnable proxy models.
//!
//! Each proxy pairs a deterministic **teacher** network with a synthetic
//! dataset whose ground truth is *derived from the teacher plus noise*:
//!
//! * the FP32 proxy — the teacher itself — scores high but not perfect
//!   (the injected label/box/token noise sets the measured FP32 reference
//!   quality, playing the role of ImageNet/COCO/WMT difficulty);
//! * the INT8 proxy — a post-training-quantized copy — scores slightly
//!   lower, because quantization genuinely perturbs the arithmetic.
//!
//! That reproduces the structure the paper's quality rules operate on: a
//! per-task FP32 reference quality and submissions that must stay within
//! the Table I window of it without retraining.

mod classifier;
mod detector;
mod translator;

pub use classifier::ClassifierProxy;
pub use detector::DetectorProxy;
pub use translator::TranslatorProxy;

/// Numeric format of a proxy evaluation (the registered-numerics idea of
/// Section IV-A, reduced to two deployment paths per task).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit floating point (the reference).
    Fp32,
    /// The task's deployment-realistic post-training quantization, from
    /// the paper's approved numerics list: per-channel INT8 with
    /// calibration for the CNN tasks (FP32 detection head, as in
    /// production SSD deployments), and per-row INT16 recurrent weights
    /// with an FP32 LM head for GNMT (v0.5 translation submissions did
    /// not use INT8).
    Quantized,
}
