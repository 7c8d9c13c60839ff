//! The submission system (Section V).
//!
//! An MLPerf Inference result submission carries performance scores, a
//! system description, and the LoadGen logs; it lands in a division
//! (closed/open) and category (available/preview/RDO), goes through peer
//! review, and — if it survives — is released. This crate implements that
//! pipeline over the simulated fleet:
//!
//! * [`types`] — divisions, categories, system descriptions.
//! * [`record`] — one submitted result with its run evidence.
//! * [`round`] — the synthetic v0.5 submission round: drives the LoadGen
//!   over the fleet to produce the result corpus behind Tables VI–VII and
//!   Figures 5–8, including a tranche of rule-violating submissions for
//!   review to catch.
//! * [`review`] — peer review via the `mlperf-audit` checker; tracks
//!   submitted vs released counts (the paper released 166 of ~180
//!   closed-division results).
//! * [`report`] — renderers that aggregate released records into the
//!   paper's tables and figures. Deliberately, there is **no summary
//!   score** (Section V-C).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod record;
pub mod report;
pub mod review;
pub mod round;
pub mod types;

pub use record::ResultRecord;
