//! Observability layer for the MLPerf Inference reproduction.
//!
//! The paper's LoadGen "records queries and responses from the SUT ...
//! reports statistics, summarizes the results, and determines whether the
//! run was valid" (Section IV-B), and the reference implementation ships a
//! `mlperf_log_detail.txt` event stream alongside the summary. This crate
//! is that layer for the reproduction: typed trace events with
//! simulated-time timestamps, pluggable sinks, a Chrome
//! `trace_event`-format exporter, and a run metrics registry.
//!
//! The build environment is offline, so everything here is hand-rolled
//! with zero third-party dependencies — including [`json`], a small
//! serde_json-compatible JSON layer the rest of the workspace uses for its
//! serialization needs.
//!
//! # Architecture
//!
//! * [`json`] — [`json::JsonValue`] plus the [`json::ToJson`] /
//!   [`json::FromJson`] traits; output shapes match serde_json's defaults
//!   so pre-existing artifacts keep parsing. One tokenizer serves the
//!   tree parser and the detail log's pull decoder.
//! * [`event`] — the [`event::TraceEvent`] taxonomy, the
//!   [`event::TraceSink`] trait, the built-in sinks
//!   ([`event::NoopSink`], [`event::RingBufferSink`],
//!   [`event::JsonlSink`]), and the detail-log line codec
//!   ([`event::render_detail_log`] / [`event::parse_detail_log`]), which
//!   streams records to text and pulls them back without a tree.
//! * [`chrome`] — [`chrome::chrome_trace_json`], converting a recorded
//!   event stream into a `chrome://tracing` / Perfetto-loadable timeline.
//! * [`flight`] — [`flight::FlightRecorder`], a bounded ring of recent
//!   events dumped as a post-mortem when a run ends INVALID or aborts.
//! * [`crc`] / [`bytes`] — one of each for every binary format (wire
//!   frames, `MLPJ` journal frames and checkpoints, `MLPR`): the
//!   slice-by-8 [`crc::crc32`], the FNV-1a [`crc::fnv1a64`], and the
//!   big-endian codec [`bytes::ByteWriter`] / [`bytes::ByteReader`].
//! * [`journal`] — [`journal::JournalWriter`] / [`journal::read_journal`],
//!   the `MLPJ` append-only write-ahead journal (CRC-framed, batched
//!   `fsync`, torn-tail salvage) that crash-safe runs checkpoint into.
//! * [`reader`] — [`reader::read_detail_log`], the one place that sniffs
//!   a detail-log artifact's shape (plain JSONL vs flight dump) for every
//!   consumer of recorded runs.
//! * [`metrics`] — [`metrics::MetricsRegistry`] with counters, gauges, and
//!   the mergeable log-bucketed [`metrics::LogHistogram`].
//! * [`profile`] — the *wall-clock* side of observability: a hierarchical
//!   span profiler ([`profile_span!`]) with self-time tables and
//!   flamegraph-compatible collapsed stacks.
//! * [`sync`] — the one lock discipline: [`sync::lock`] and the `Condvar`
//!   waits that take a poisoned mutex anyway, used at every lock site in
//!   the wire endpoints, the shard router, the work queue and the sinks.
//! * [`timeseries`] — [`timeseries::TimeSeriesSampler`], snapshotting the
//!   metrics registry on a simulated-time grid so degradation curves are
//!   plottable over a run.
//!
//! # Example: record a run into a ring buffer
//!
//! ```
//! use mlperf_trace::{RingBufferSink, TraceEvent, TraceSink};
//!
//! let sink = RingBufferSink::unbounded();
//! sink.record(1_000, &TraceEvent::QueryIssued {
//!     query_id: 0,
//!     sample_count: 1,
//!     delay_ns: 0,
//! });
//! sink.record(51_000, &TraceEvent::QueryCompleted {
//!     query_id: 0,
//!     latency_ns: 50_000,
//! });
//! let timeline = mlperf_trace::chrome_trace_json(&sink.snapshot());
//! assert!(timeline.contains("\"ph\":\"X\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytes;
pub mod chrome;
pub mod crc;
pub mod event;
pub mod flight;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod reader;
pub mod sync;
pub mod timeseries;

pub use chrome::chrome_trace_json;
pub use event::{
    parse_detail_log, render_detail_log, FanoutSink, JsonlSink, NoopSink, RingBufferSink,
    TraceEvent, TraceRecord, TraceSink,
};
pub use flight::{parse_flight_dump, FlightDump, FlightRecorder};
pub use journal::{read_journal, JournalError, JournalScan, JournalWriter, TornTail};
pub use json::{FromJson, JsonError, JsonValue, ToJson};
pub use metrics::{Counter, Histogram, LogHistogram, MetricsRegistry, MetricsSnapshot};
pub use profile::{SpanGuard, SpanReport, SpanRow};
pub use reader::{read_detail_log, read_detail_log_str, DetailLog};
pub use timeseries::{TimeSeriesRow, TimeSeriesSampler};
