//! Deterministic synthetic datasets standing in for ImageNet, COCO, and
//! WMT16 EN-DE.
//!
//! The real benchmark downloads public datasets before a run (Section IV-C).
//! This reproduction cannot assume multi-gigabyte downloads, so each dataset
//! is a *pure function* of `(seed, index)`: any sample can be materialized on
//! demand, bit-identically, on any machine. Ground-truth labels are attached
//! one level up in `mlperf-models` by running the deterministic teacher
//! networks over these inputs (see DESIGN.md for why that substitution
//! preserves the quality-target machinery).
//!
//! The module also provides [`tracker::SampleTracker`], the QSL's load
//! check: loading samples into memory is an untimed operation, and a load
//! must stay inside the data set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod image;
pub mod text;
pub mod tracker;

pub use image::SyntheticImages;
pub use text::SyntheticSentences;
pub use tracker::SampleTracker;

/// Errors from dataset access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// A sample index beyond the dataset length was requested.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The dataset length.
        len: usize,
    },
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::IndexOutOfRange { index, len } => {
                write!(f, "sample index {index} out of range for dataset of {len}")
            }
        }
    }
}

impl std::error::Error for DatasetError {}
