//! Tail-latency forensics for the MLPerf Inference reproduction.
//!
//! The benchmark's verdicts hinge on tail percentiles and per-scenario
//! latency bounds, and the rest of the workspace already *records* the
//! evidence: merged cross-host detail logs with per-query trace ids and
//! re-stamped server spans (`mlperf-wire`), flight-recorder dumps of
//! INVALID runs, metrics snapshots, and outcome JSONs. This crate is the
//! layer that turns those artifacts into **explanations**:
//!
//! * [`segment`] — [`segment::query_paths`] folds a detail log into one
//!   [`segment::QueryPath`] per query and splits its latency into
//!   client-queue / network / server-queue / compute segments that sum to
//!   the end-to-end latency *exactly* (the network segment is the signed
//!   residual, so clock skew is visible instead of silently absorbed).
//! * [`breakdown`] — `breakdown::breakdown` attributes p50/p90/p99/p99.9
//!   to the dominant segment of the query at each nearest rank, matching
//!   the percentile convention the validity rules use.
//! * [`rootcause`] — [`rootcause::root_causes`] names each violated
//!   constraint and argues it from the log: offending queries, their time
//!   window, critical-path trace ids, and injected-fault evidence.
//! * [`heatmap`](mod@heatmap) — [`heatmap::heatmap`] buckets completions into
//!   `k · interval` windows and stamps each with the load at its boundary
//!   (issued, in flight, samples, DVFS state): the run's time series, for
//!   every clock and transport that writes a detail log.
//! * [`diff`] — [`diff::diff_paths`] / [`diff::diff_metrics`] compare two
//!   runs at nearest-rank quantiles and name the segment that regressed.
//! * [`shards`] — `shards::shard_reports` folds a fleet run's
//!   `ShardEvent` rows and per-shard server spans into one attribution
//!   row per shard, naming each dead shard's failover window.
//! * [`report`] — [`report::analyze_records`] runs the whole pipeline and
//!   [`report::render_markdown`] emits a deterministic, self-contained
//!   report (the committed `results/analysis.{md,json}` artifacts).
//!
//! Like `mlperf-trace` and `mlperf-wire`, the crate is std-only.
//!
//! # Example
//!
//! ```
//! use mlperf_trace::{TraceEvent, TraceRecord};
//!
//! let records = vec![
//!     TraceRecord { ts_ns: 1_000, event: TraceEvent::QueryIssued {
//!         query_id: 1, sample_count: 1, delay_ns: 200 } },
//!     TraceRecord { ts_ns: 51_000, event: TraceEvent::QueryCompleted {
//!         query_id: 1, latency_ns: 50_200 } },
//! ];
//! let analysis = mlperf_analysis::analyze_records("doc", &records, &[], None);
//! assert_eq!(analysis.breakdown.max_residual_ns, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breakdown;
pub mod diff;
pub mod heatmap;
pub mod report;
pub mod rootcause;
pub mod segment;
pub mod shards;

pub use diff::{diff_metrics, diff_paths, DiffRow, QuantileSet, RunDiff};
pub use heatmap::{heatmap, heatmap_jsonl, HeatmapRow};
pub use report::{analyze_records, render_markdown, Analysis};
pub use rootcause::{detect_constraints, issue_texts, root_causes, Culprit, RootCause};
pub use segment::{query_paths, QueryPath, Segment};
