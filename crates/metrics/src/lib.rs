//! Accuracy metrics for the three MLPerf Inference v0.5 task families.
//!
//! These are the "accuracy script" of Figure 3 in the paper: after a
//! LoadGen accuracy-mode run, the logged responses are scored with the
//! task-appropriate metric and compared against the Table I quality target.
//!
//! * [`classification`] — Top-1 accuracy (ImageNet tasks).
//! * [`detection`] — mean average precision with IoU matching and 101-point
//!   precision/recall interpolation (COCO tasks).
//! * [`bleu`] — corpus-level BLEU with the standard 4-gram geometric mean
//!   and brevity penalty, SacreBLEU-style (WMT task).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bleu;
pub mod classification;
pub mod detection;

pub use bleu::corpus_bleu;
pub use classification::top1_accuracy;
pub use detection::{mean_average_precision, BoundingBox, Detection, GroundTruth};
