//! Compliance auditing (Section V-B).
//!
//! "A challenge of benchmarking inference systems is that many include
//! proprietary and closed-source components ... we developed a validation
//! suite to assist with peer review." This crate is that suite:
//!
//! * [`tests`] — the behavioural audits run against a live SUT:
//!   accuracy verification (sampled performance-mode response logging
//!   checked against an accuracy run), on-the-fly caching detection
//!   (duplicate vs unique sample indices), alternate-random-seed
//!   testing, and query-completeness verification (the issued-vs-resolved
//!   detail-log count that exposes silent query dropping).
//! * [`checker`] — the submission checker: static validation of a scored
//!   run against the Table I/III/V rules (quality target, latency bound,
//!   query counts, validity flags). In the real v0.5 round these checks
//!   surfaced ~40 issues in ~180 closed-division results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod tests;

pub use tests::{AuditOutcome, AuditReport};
