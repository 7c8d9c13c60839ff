//! Flight recorder: a bounded ring of recent trace events that is dumped
//! to disk only when something goes wrong.
//!
//! A healthy run costs one ring buffer and no I/O. When a run ends
//! INVALID, aborts, or a chaos cell needs a post-mortem, [`FlightRecorder::dump_to`]
//! writes the retained tail as a *flight dump*: a one-line JSON header
//! (reason, event count, how many older events were evicted) followed by
//! the standard detail-log JSONL, so `analyze --log` and
//! [`parse_detail_log`](crate::parse_detail_log) tooling read the body
//! unchanged.

use std::path::Path;
use std::sync::Arc;

use crate::event::{
    detail_lines, render_detail_log, RingBufferSink, TraceEvent, TraceRecord, TraceSink,
};
use crate::json::{FromJson, JsonError, JsonValue, ToJson};

/// A shareable bounded event ring that can post-mortem itself.
///
/// Clone-cheap (`Arc` inside) and itself a [`TraceSink`]: hand a clone to
/// anything that wants a sink and keep one handle around for the dump.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: Arc<RingBufferSink>,
}

impl FlightRecorder {
    /// A recorder retaining the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Arc::new(RingBufferSink::new(capacity)),
        }
    }

    /// Copies out the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.ring.snapshot()
    }

    /// Renders the dump text without touching the filesystem.
    pub(crate) fn render(&self, reason: &str) -> String {
        render_flight_dump(reason, &self.ring.snapshot(), self.ring.dropped())
    }

    /// Writes the flight dump to `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be written.
    pub fn dump_to(&self, path: &Path, reason: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render(reason))
    }
}

impl TraceSink for FlightRecorder {
    fn record(&self, ts_ns: u64, event: &TraceEvent) {
        self.ring.record(ts_ns, event);
    }
}

/// Renders a flight dump: header line, then one record per line.
pub fn render_flight_dump(reason: &str, records: &[TraceRecord], evicted: u64) -> String {
    let header = JsonValue::object(vec![(
        "flight_dump",
        JsonValue::object(vec![
            ("reason", reason.to_json_value()),
            ("events", records.len().to_json_value()),
            ("evicted", evicted.to_json_value()),
        ]),
    )]);
    let mut out = header.to_compact();
    out.push('\n');
    out.push_str(&render_detail_log(records));
    out
}

/// A parsed flight dump.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Why the dump was taken (validity issues, abort reason, ...).
    pub reason: String,
    /// Events older than the ring capacity, lost before the dump.
    pub evicted: u64,
    /// The retained events, oldest first.
    pub records: Vec<TraceRecord>,
}

/// Parses a flight dump written by [`render_flight_dump`].
///
/// # Errors
///
/// Returns [`JsonError`] if the header is missing/malformed or any body
/// line fails to parse as a `TraceRecord`.
pub fn parse_flight_dump(text: &str) -> Result<FlightDump, JsonError> {
    let mut lines = detail_lines(text).map(|(_, line)| line);
    let header = lines
        .next()
        .ok_or_else(|| JsonError::new("empty flight dump"))?;
    let header = JsonValue::parse(header)?;
    let meta = header.field("flight_dump")?;
    let reason = meta.field("reason")?.as_str()?.to_string();
    let evicted = meta.field("evicted")?.as_u64()?;
    let records = lines
        .map(TraceRecord::from_json_str)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(FlightDump {
        reason,
        evicted,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(ts_ns: u64, query_id: u64) -> TraceEvent {
        let _ = ts_ns;
        TraceEvent::QuerySent { query_id }
    }

    #[test]
    fn dump_roundtrips_through_text() {
        let recorder = FlightRecorder::new(8);
        for id in 0..5u64 {
            recorder.record(id * 100, &record(id * 100, id));
        }
        let text = recorder.render("run INVALID: error_fraction_exceeded");
        let dump = parse_flight_dump(&text).expect("parse");
        assert_eq!(dump.reason, "run INVALID: error_fraction_exceeded");
        assert_eq!(dump.evicted, 0);
        assert_eq!(dump.records.len(), 5);
        assert_eq!(dump.records[4].ts_ns, 400);
    }

    #[test]
    fn ring_keeps_the_tail_and_counts_evictions() {
        let recorder = FlightRecorder::new(3);
        for id in 0..10u64 {
            recorder.record(id, &record(id, id));
        }
        let dump = parse_flight_dump(&recorder.render("abort")).expect("parse");
        assert_eq!(dump.evicted, 7);
        assert_eq!(dump.records.len(), 3);
        assert_eq!(dump.records[0].ts_ns, 7, "oldest retained is ts 7");
    }

    #[test]
    fn malformed_dumps_are_rejected() {
        assert!(parse_flight_dump("").is_err());
        assert!(parse_flight_dump("{\"not_a_header\":{}}\n").is_err());
    }
}
