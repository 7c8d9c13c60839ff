//! Typed trace events and the sinks that record them.
//!
//! Events carry **simulated-time** nanosecond timestamps (the `ts_ns`
//! argument to [`TraceSink::record`]), not wall-clock time: a trace taken
//! from a deterministic run is itself deterministic.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Mutex};

use crate::json::{
    missing_field, write_u64, FromJson, JsonError, JsonValue, Parser, Picked, Scalar, ToJson, Token,
};
use crate::sync::lock;

/// One structured event in a LoadGen run.
///
/// The taxonomy mirrors the lifecycle stages the MLPerf LoadGen detail log
/// exposes: scheduling, issue, device-side batching, completion, plus the
/// exceptional paths (drops, validity failures) and run bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A run phase boundary (e.g. "issue", "drain", "report").
    RunPhase {
        /// Phase label.
        phase: String,
        /// Scenario code (e.g. "server").
        scenario: String,
    },
    /// The schedule for a query was generated.
    QueryScheduled {
        /// Query id.
        query_id: u64,
        /// Number of samples in the query.
        sample_count: usize,
    },
    /// LoadGen issued a query to the SUT.
    QueryIssued {
        /// Query id.
        query_id: u64,
        /// Number of samples in the query.
        sample_count: usize,
        /// Nanoseconds the issue slipped past its scheduled time.
        delay_ns: u64,
    },
    /// The query left LoadGen for the SUT transport (issue path end).
    QuerySent {
        /// Query id.
        query_id: u64,
    },
    /// The SUT completed a query.
    QueryCompleted {
        /// Query id.
        query_id: u64,
        /// Issue-to-completion latency in nanoseconds.
        latency_ns: u64,
    },
    /// A device engine formed a batch and dispatched it.
    BatchFormed {
        /// Device unit (lane) index the batch ran on.
        unit: usize,
        /// Number of samples in the batch.
        batch_size: usize,
        /// Simulated service time of the batch in nanoseconds.
        service_ns: u64,
    },
    /// The device's effective clock multiplier changed (thermal/DVFS).
    DvfsStateChange {
        /// Device unit index.
        unit: usize,
        /// Clock multiplier scaled by 1000 (e.g. 1250 = 1.25x).
        multiplier_milli: u32,
    },
    /// A MultiStream interval was skipped because the SUT fell behind.
    OverloadDropped {
        /// Query id whose tardiness caused the skip.
        query_id: u64,
        /// Number of intervals skipped.
        intervals: u64,
    },
    /// A sample's response was recorded into the accuracy log.
    AccuracyLogged {
        /// Query id the sample belongs to.
        query_id: u64,
        /// Number of samples logged for the query.
        samples: usize,
    },
    /// A validity rule failed during result finalization.
    ValidityCheckFailed {
        /// Human-readable description of the failed rule.
        issue: String,
    },
    /// One step of a FindPeakPerformance search.
    PeakSearchStep {
        /// The load target tried (QPS or stream count).
        target: f64,
        /// Whether the run at that target was valid.
        valid: bool,
    },
    /// The SUT resolved a query as an error/drop instead of an answer.
    QueryErrored {
        /// Query id.
        query_id: u64,
        /// Schedule-to-failure latency in nanoseconds.
        latency_ns: u64,
    },
    /// A fault plan fired on a query (fault-injection extension).
    FaultInjected {
        /// Query id the fault hit.
        query_id: u64,
        /// Fault kind label: `transient_error`, `latency_spike`, `stall`,
        /// `throttle`, or `death`.
        fault: String,
    },
    /// A resilience policy acted on a query.
    RecoveryAction {
        /// Query id the action concerned.
        query_id: u64,
        /// Action label: `timeout`, `retry`, `failover`, or `exhausted`.
        action: String,
        /// 1-based attempt number (retries); 0 where not meaningful.
        attempt: u32,
    },
    /// Something happened on the network SUT transport (wire extension).
    WireEvent {
        /// Which endpoint observed it: `client` or `server`.
        endpoint: String,
        /// Event label: `connect`, `handshake`, `heartbeat_loss`,
        /// `disconnect`, `response_timeout`, `drain`, or `reject`.
        kind: String,
        /// Query id the event concerned; 0 where not query-scoped.
        query_id: u64,
        /// Free-form context (peer address, reject reason, ...).
        detail: String,
    },
    /// A chaos transport injected a fault into the wire (network chaos
    /// extension). Distinct from [`TraceEvent::FaultInjected`], which is
    /// device-side: this one fires per *frame*, not per query.
    WireFault {
        /// Which endpoint's transport injected it: `client` or `server`.
        endpoint: String,
        /// Fault kind label: `corrupt`, `truncate`, `duplicate`, `delay`,
        /// `partition`, or `disconnect`.
        fault: String,
        /// 1-based frame index (per direction) the fault hit.
        frame: u64,
        /// Free-form context (direction, byte offset, ...).
        detail: String,
    },
    /// One phase of a distributed query span (wire tracing extension).
    ///
    /// `ts_ns` of the enclosing record is the phase *start*; `dur_ns` is
    /// its length (0 for instantaneous marks). Server-side spans are
    /// re-stamped onto the client clock via the handshake clock-offset
    /// estimate before they land in a merged detail log.
    SpanEvent {
        /// Host the phase ran on: `client`, `server`, or a daemon name.
        host: String,
        /// Trace id shared by every phase of one query across hosts.
        trace_id: u64,
        /// Query id the span belongs to.
        query_id: u64,
        /// Phase label: `issue`, `queue`, `compute`, or `complete`.
        phase: String,
        /// Phase duration in nanoseconds (0 for instants).
        dur_ns: u64,
    },
    /// A clock-offset estimate between this host and a peer (wire tracing
    /// extension). Recorded whenever a four-timestamp probe improves the
    /// estimate.
    ClockSync {
        /// Peer host label the offset is measured against.
        host: String,
        /// Estimated `peer_clock - local_clock` in nanoseconds.
        offset_ns: i64,
        /// Round-trip time of the winning probe in nanoseconds.
        rtt_ns: u64,
    },
    /// A sharded-SUT router decision or shard health transition (fleet
    /// extension). Routing rows (`route`, `failover`) are query-scoped;
    /// health rows (`suspect`, `down`, `rejoin`, `drained`, `up`) carry
    /// `query_id` 0.
    ShardEvent {
        /// Label of the shard the event concerns (e.g. `shard-2`).
        shard: String,
        /// Event label: `route`, `failover`, `suspect`, `down`, `rejoin`,
        /// `drained`, or `up`.
        kind: String,
        /// Query id the event concerned; 0 where not query-scoped.
        query_id: u64,
        /// Free-form context (policy name, failure reason, drain count).
        detail: String,
    },
}

impl TraceEvent {
    /// Short event-kind label, used for summaries and counters.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RunPhase { .. } => "run_phase",
            TraceEvent::QueryScheduled { .. } => "query_scheduled",
            TraceEvent::QueryIssued { .. } => "query_issued",
            TraceEvent::QuerySent { .. } => "query_sent",
            TraceEvent::QueryCompleted { .. } => "query_completed",
            TraceEvent::BatchFormed { .. } => "batch_formed",
            TraceEvent::DvfsStateChange { .. } => "dvfs_state_change",
            TraceEvent::OverloadDropped { .. } => "overload_dropped",
            TraceEvent::AccuracyLogged { .. } => "accuracy_logged",
            TraceEvent::ValidityCheckFailed { .. } => "validity_check_failed",
            TraceEvent::PeakSearchStep { .. } => "peak_search_step",
            TraceEvent::QueryErrored { .. } => "query_errored",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::RecoveryAction { .. } => "recovery_action",
            TraceEvent::WireEvent { .. } => "wire_event",
            TraceEvent::WireFault { .. } => "wire_fault",
            TraceEvent::SpanEvent { .. } => "span",
            TraceEvent::ClockSync { .. } => "clock_sync",
            TraceEvent::ShardEvent { .. } => "shard_event",
        }
    }
}

impl TraceEvent {
    /// The event's JSON shape, once: the variant name and its fields in
    /// the order they are written. Both encoders — the tree
    /// ([`ToJson::to_json_value`]) and the streamed line (`write_record`)
    /// — read it from here.
    fn fields<R>(&self, visit: impl FnOnce(&'static str, &[(&'static str, Scalar<'_>)]) -> R) -> R {
        use Scalar::{Bool, Str, F64, I64, U64};
        let size = |n: &usize| U64(*n as u64);
        match self {
            TraceEvent::RunPhase { phase, scenario } => visit(
                "RunPhase",
                &[("phase", Str(phase)), ("scenario", Str(scenario))],
            ),
            TraceEvent::QueryScheduled {
                query_id,
                sample_count,
            } => visit(
                "QueryScheduled",
                &[
                    ("query_id", U64(*query_id)),
                    ("sample_count", size(sample_count)),
                ],
            ),
            TraceEvent::QueryIssued {
                query_id,
                sample_count,
                delay_ns,
            } => visit(
                "QueryIssued",
                &[
                    ("query_id", U64(*query_id)),
                    ("sample_count", size(sample_count)),
                    ("delay_ns", U64(*delay_ns)),
                ],
            ),
            TraceEvent::QuerySent { query_id } => {
                visit("QuerySent", &[("query_id", U64(*query_id))])
            }
            TraceEvent::QueryCompleted {
                query_id,
                latency_ns,
            } => visit(
                "QueryCompleted",
                &[
                    ("query_id", U64(*query_id)),
                    ("latency_ns", U64(*latency_ns)),
                ],
            ),
            TraceEvent::BatchFormed {
                unit,
                batch_size,
                service_ns,
            } => visit(
                "BatchFormed",
                &[
                    ("unit", size(unit)),
                    ("batch_size", size(batch_size)),
                    ("service_ns", U64(*service_ns)),
                ],
            ),
            TraceEvent::DvfsStateChange {
                unit,
                multiplier_milli,
            } => visit(
                "DvfsStateChange",
                &[
                    ("unit", size(unit)),
                    ("multiplier_milli", U64(u64::from(*multiplier_milli))),
                ],
            ),
            TraceEvent::OverloadDropped {
                query_id,
                intervals,
            } => visit(
                "OverloadDropped",
                &[("query_id", U64(*query_id)), ("intervals", U64(*intervals))],
            ),
            TraceEvent::AccuracyLogged { query_id, samples } => visit(
                "AccuracyLogged",
                &[("query_id", U64(*query_id)), ("samples", size(samples))],
            ),
            TraceEvent::ValidityCheckFailed { issue } => {
                visit("ValidityCheckFailed", &[("issue", Str(issue))])
            }
            TraceEvent::PeakSearchStep { target, valid } => visit(
                "PeakSearchStep",
                &[("target", F64(*target)), ("valid", Bool(*valid))],
            ),
            TraceEvent::QueryErrored {
                query_id,
                latency_ns,
            } => visit(
                "QueryErrored",
                &[
                    ("query_id", U64(*query_id)),
                    ("latency_ns", U64(*latency_ns)),
                ],
            ),
            TraceEvent::FaultInjected { query_id, fault } => visit(
                "FaultInjected",
                &[("query_id", U64(*query_id)), ("fault", Str(fault))],
            ),
            TraceEvent::RecoveryAction {
                query_id,
                action,
                attempt,
            } => visit(
                "RecoveryAction",
                &[
                    ("query_id", U64(*query_id)),
                    ("action", Str(action)),
                    ("attempt", U64(u64::from(*attempt))),
                ],
            ),
            TraceEvent::WireEvent {
                endpoint,
                kind,
                query_id,
                detail,
            } => visit(
                "WireEvent",
                &[
                    ("endpoint", Str(endpoint)),
                    ("kind", Str(kind)),
                    ("query_id", U64(*query_id)),
                    ("detail", Str(detail)),
                ],
            ),
            TraceEvent::WireFault {
                endpoint,
                fault,
                frame,
                detail,
            } => visit(
                "WireFault",
                &[
                    ("endpoint", Str(endpoint)),
                    ("fault", Str(fault)),
                    ("frame", U64(*frame)),
                    ("detail", Str(detail)),
                ],
            ),
            TraceEvent::SpanEvent {
                host,
                trace_id,
                query_id,
                phase,
                dur_ns,
            } => visit(
                "SpanEvent",
                &[
                    ("host", Str(host)),
                    ("trace_id", U64(*trace_id)),
                    ("query_id", U64(*query_id)),
                    ("phase", Str(phase)),
                    ("dur_ns", U64(*dur_ns)),
                ],
            ),
            TraceEvent::ClockSync {
                host,
                offset_ns,
                rtt_ns,
            } => visit(
                "ClockSync",
                &[
                    ("host", Str(host)),
                    ("offset_ns", I64(*offset_ns)),
                    ("rtt_ns", U64(*rtt_ns)),
                ],
            ),
            TraceEvent::ShardEvent {
                shard,
                kind,
                query_id,
                detail,
            } => visit(
                "ShardEvent",
                &[
                    ("shard", Str(shard)),
                    ("kind", Str(kind)),
                    ("query_id", U64(*query_id)),
                    ("detail", Str(detail)),
                ],
            ),
        }
    }
}

/// How one variant is read back: the inverse of [`TraceEvent::fields`].
/// `keys` are the payload keys in the order `fields` writes them, and
/// `build` makes the variant from the payload members at those keys. Both
/// decoders — over a tree ([`FromJson::from_json_value`]) and over a line
/// ([`TraceRecord::from_json_str`]) — come through here.
struct Shape {
    name: &'static str,
    keys: &'static [&'static str],
    build: fn(&mut Picked<'_>) -> Result<TraceEvent, JsonError>,
}

impl Picked<'_> {
    fn u64(&mut self, at: usize) -> Result<u64, JsonError> {
        self.take(at)?.as_u64()
    }

    fn usize(&mut self, at: usize) -> Result<usize, JsonError> {
        self.take(at)?.as_usize()
    }

    fn u32(&mut self, at: usize) -> Result<u32, JsonError> {
        self.take(at)?.as_u32()
    }

    fn string(&mut self, at: usize) -> Result<String, JsonError> {
        self.take(at)?.into_string()
    }
}

/// Every variant's [`Shape`]; the three a query writes lead, so a line
/// finds its shape at the first or second name compared.
const SHAPES: [Shape; 19] = [
    Shape {
        name: "QueryIssued",
        keys: &["query_id", "sample_count", "delay_ns"],
        build: |p| {
            Ok(TraceEvent::QueryIssued {
                query_id: p.u64(0)?,
                sample_count: p.usize(1)?,
                delay_ns: p.u64(2)?,
            })
        },
    },
    Shape {
        name: "QuerySent",
        keys: &["query_id"],
        build: |p| {
            Ok(TraceEvent::QuerySent {
                query_id: p.u64(0)?,
            })
        },
    },
    Shape {
        name: "QueryCompleted",
        keys: &["query_id", "latency_ns"],
        build: |p| {
            Ok(TraceEvent::QueryCompleted {
                query_id: p.u64(0)?,
                latency_ns: p.u64(1)?,
            })
        },
    },
    Shape {
        name: "RunPhase",
        keys: &["phase", "scenario"],
        build: |p| {
            Ok(TraceEvent::RunPhase {
                phase: p.string(0)?,
                scenario: p.string(1)?,
            })
        },
    },
    Shape {
        name: "QueryScheduled",
        keys: &["query_id", "sample_count"],
        build: |p| {
            Ok(TraceEvent::QueryScheduled {
                query_id: p.u64(0)?,
                sample_count: p.usize(1)?,
            })
        },
    },
    Shape {
        name: "BatchFormed",
        keys: &["unit", "batch_size", "service_ns"],
        build: |p| {
            Ok(TraceEvent::BatchFormed {
                unit: p.usize(0)?,
                batch_size: p.usize(1)?,
                service_ns: p.u64(2)?,
            })
        },
    },
    Shape {
        name: "DvfsStateChange",
        keys: &["unit", "multiplier_milli"],
        build: |p| {
            Ok(TraceEvent::DvfsStateChange {
                unit: p.usize(0)?,
                multiplier_milli: p.u32(1)?,
            })
        },
    },
    Shape {
        name: "OverloadDropped",
        keys: &["query_id", "intervals"],
        build: |p| {
            Ok(TraceEvent::OverloadDropped {
                query_id: p.u64(0)?,
                intervals: p.u64(1)?,
            })
        },
    },
    Shape {
        name: "AccuracyLogged",
        keys: &["query_id", "samples"],
        build: |p| {
            Ok(TraceEvent::AccuracyLogged {
                query_id: p.u64(0)?,
                samples: p.usize(1)?,
            })
        },
    },
    Shape {
        name: "ValidityCheckFailed",
        keys: &["issue"],
        build: |p| {
            Ok(TraceEvent::ValidityCheckFailed {
                issue: p.string(0)?,
            })
        },
    },
    Shape {
        name: "PeakSearchStep",
        keys: &["target", "valid"],
        build: |p| {
            Ok(TraceEvent::PeakSearchStep {
                target: p.take(0)?.as_f64()?,
                valid: p.take(1)?.as_bool()?,
            })
        },
    },
    Shape {
        name: "QueryErrored",
        keys: &["query_id", "latency_ns"],
        build: |p| {
            Ok(TraceEvent::QueryErrored {
                query_id: p.u64(0)?,
                latency_ns: p.u64(1)?,
            })
        },
    },
    Shape {
        name: "FaultInjected",
        keys: &["query_id", "fault"],
        build: |p| {
            Ok(TraceEvent::FaultInjected {
                query_id: p.u64(0)?,
                fault: p.string(1)?,
            })
        },
    },
    Shape {
        name: "RecoveryAction",
        keys: &["query_id", "action", "attempt"],
        build: |p| {
            Ok(TraceEvent::RecoveryAction {
                query_id: p.u64(0)?,
                action: p.string(1)?,
                attempt: p.u32(2)?,
            })
        },
    },
    Shape {
        name: "WireEvent",
        keys: &["endpoint", "kind", "query_id", "detail"],
        build: |p| {
            Ok(TraceEvent::WireEvent {
                endpoint: p.string(0)?,
                kind: p.string(1)?,
                query_id: p.u64(2)?,
                detail: p.string(3)?,
            })
        },
    },
    Shape {
        name: "WireFault",
        keys: &["endpoint", "fault", "frame", "detail"],
        build: |p| {
            Ok(TraceEvent::WireFault {
                endpoint: p.string(0)?,
                fault: p.string(1)?,
                frame: p.u64(2)?,
                detail: p.string(3)?,
            })
        },
    },
    Shape {
        name: "SpanEvent",
        keys: &["host", "trace_id", "query_id", "phase", "dur_ns"],
        build: |p| {
            Ok(TraceEvent::SpanEvent {
                host: p.string(0)?,
                trace_id: p.u64(1)?,
                query_id: p.u64(2)?,
                phase: p.string(3)?,
                dur_ns: p.u64(4)?,
            })
        },
    },
    Shape {
        name: "ClockSync",
        keys: &["host", "offset_ns", "rtt_ns"],
        build: |p| {
            Ok(TraceEvent::ClockSync {
                host: p.string(0)?,
                offset_ns: p.take(1)?.as_i64()?,
                rtt_ns: p.u64(2)?,
            })
        },
    },
    Shape {
        name: "ShardEvent",
        keys: &["shard", "kind", "query_id", "detail"],
        build: |p| {
            Ok(TraceEvent::ShardEvent {
                shard: p.string(0)?,
                kind: p.string(1)?,
                query_id: p.u64(2)?,
                detail: p.string(3)?,
            })
        },
    },
];

/// The shape of variant `name`.
fn shape_of(name: &str) -> Result<&'static Shape, JsonError> {
    SHAPES
        .iter()
        .find(|shape| shape.name == name)
        .ok_or_else(|| JsonError::new(format!("unknown trace event {name:?}")))
}

impl ToJson for TraceEvent {
    fn to_json_value(&self) -> JsonValue {
        self.fields(|name, fields| {
            let payload = fields
                .iter()
                .map(|(key, value)| (*key, value.to_json_value()))
                .collect();
            JsonValue::object(vec![(name, JsonValue::object(payload))])
        })
    }
}

impl FromJson for TraceEvent {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        let (name, payload) = value.as_variant()?;
        let shape = shape_of(name)?;
        (shape.build)(&mut Picked::of(shape.keys, payload))
    }
}

/// A timestamped trace event, as stored by sinks and written to detail logs.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Simulated time in nanoseconds since run start.
    pub ts_ns: u64,
    /// The event.
    pub event: TraceEvent,
}

/// Appends `{"ts_ns":N,"event":{"Variant":{...}}}`, the detail-log line
/// of one record without its newline: the bytes
/// `to_json_value().to_compact()` renders, written from the field table
/// without building the tree. Variant names and keys are identifiers with
/// nothing to escape, so they are copied as they are.
fn write_record(out: &mut String, ts_ns: u64, event: &TraceEvent) {
    out.push_str("{\"ts_ns\":");
    write_u64(out, ts_ns);
    out.push_str(",\"event\":{\"");
    event.fields(|name, fields| {
        out.push_str(name);
        out.push_str("\":{");
        for (i, (key, value)) in fields.iter().enumerate() {
            out.push_str(if i > 0 { ",\"" } else { "\"" });
            out.push_str(key);
            out.push_str("\":");
            value.write(out);
        }
    });
    out.push_str("}}}");
}

impl ToJson for TraceRecord {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("ts_ns", self.ts_ns.to_json_value()),
            ("event", self.event.to_json_value()),
        ])
    }

    fn to_json_string(&self) -> String {
        let mut out = String::new();
        write_record(&mut out, self.ts_ns, &self.event);
        out
    }
}

/// Reads the value of an `event` member: the variant's shape, with the
/// payload members it asks for left in `payload`. The outer error is the
/// document's (malformed JSON), the inner one the event's (not a
/// one-member object, or an unknown variant), which the tree path would
/// only raise once the whole line had parsed.
fn pull_event<'a>(
    parser: &mut Parser<'a>,
    payload: &mut Picked<'a>,
) -> Result<Result<&'static Shape, JsonError>, JsonError> {
    if parser.peek() != Some(b'{') {
        let other = parser.token(1)?;
        return Ok(other.wrong_kind("single-variant object"));
    }
    let mut variant = None;
    let mut members = 0;
    let mut more = parser.open(b'{', b'}')?;
    while more {
        let name = parser.key()?;
        if members == 0 {
            let shape = shape_of(&name);
            if let Ok(shape) = shape {
                payload.ask(shape.keys);
            }
            parser.pick(2, payload)?;
            variant = Some(shape);
        } else {
            parser.token(2)?;
        }
        members += 1;
        more = parser.next(b'}')?;
    }
    Ok(match variant {
        Some(shape) if members == 1 => shape,
        _ => Token::Object.wrong_kind("single-variant object"),
    })
}

impl FromJson for TraceRecord {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(TraceRecord {
            ts_ns: value.field("ts_ns")?.as_u64()?,
            event: TraceEvent::from_json_value(value.field("event")?)?,
        })
    }

    /// Reads a detail-log line without building its tree: one walk with
    /// the tokenizer [`JsonValue::parse`] uses, then the checks
    /// [`FromJson::from_json_value`] makes, in its order. A line is
    /// accepted, or rejected with the same error, exactly as
    /// `from_json_value(&JsonValue::parse(line)?)` would: any key order,
    /// the first of a duplicated key, unknown members ignored.
    fn from_json_str(input: &str) -> Result<Self, JsonError> {
        let mut parser = Parser::new(input);
        let (mut ts_ns, mut event) = (None, None);
        let mut payload = Picked::new(&[]);
        if parser.peek() == Some(b'{') {
            let mut more = parser.open(b'{', b'}')?;
            while more {
                let key = parser.key()?;
                match &*key {
                    "ts_ns" if ts_ns.is_none() => ts_ns = Some(parser.token(1)?),
                    "event" if event.is_none() => {
                        event = Some(pull_event(&mut parser, &mut payload)?);
                    }
                    _ => {
                        parser.token(1)?;
                    }
                }
                more = parser.next(b'}')?;
            }
        } else {
            parser.token(0)?;
        }
        parser.finish()?;
        let ts_ns = ts_ns.ok_or_else(|| missing_field("ts_ns"))?.as_u64()?;
        let shape = event.ok_or_else(|| missing_field("event"))??;
        let event = (shape.build)(&mut payload)?;
        Ok(TraceRecord { ts_ns, event })
    }
}

/// Destination for trace events.
///
/// Implementations use interior mutability so a single sink can be shared
/// (e.g. behind `Arc<dyn TraceSink>`) between the LoadGen event loop and a
/// device engine without plumbing `&mut` everywhere.
pub trait TraceSink: Send + Sync {
    /// Whether the sink wants events at all. Callers may skip building
    /// event payloads when this returns `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event at simulated time `ts_ns`.
    fn record(&self, ts_ns: u64, event: &TraceEvent);

    /// Flushes any buffered output.
    fn flush(&self) {}
}

/// A sink that drops everything; the default when tracing is off.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _ts_ns: u64, _event: &TraceEvent) {}
}

/// Events per block of a [`RingBufferSink`].
const RING_BLOCK: usize = 1024;

/// An in-memory sink backed by a bounded ring buffer.
///
/// When full, the oldest events are evicted — the tail of a long run is
/// usually the interesting part. A capacity of `usize::MAX` (see
/// [`RingBufferSink::unbounded`]) keeps everything.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    ring: Mutex<Ring>,
}

/// The retained events and the eviction count, under one lock. Events
/// live in blocks of [`RING_BLOCK`] that are allocated as the ring fills
/// and freed as eviction empties them: a growing ring never copies what
/// it holds, and never holds two copies of it.
#[derive(Debug, Default)]
struct Ring {
    blocks: VecDeque<VecDeque<TraceRecord>>,
    len: usize,
    dropped: u64,
}

impl RingBufferSink {
    /// Creates a sink that retains at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            ring: Mutex::new(Ring::default()),
        }
    }

    /// Creates a sink that retains every event.
    pub fn unbounded() -> Self {
        Self::new(usize::MAX)
    }

    /// Copies out the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let ring = lock(&self.ring);
        let mut events = Vec::with_capacity(ring.len);
        for block in &ring.blocks {
            events.extend(block.iter().cloned());
        }
        events
    }

    /// Number of events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        lock(&self.ring).dropped
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        lock(&self.ring).len
    }

    /// Whether no events have been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for RingBufferSink {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl TraceSink for RingBufferSink {
    fn record(&self, ts_ns: u64, event: &TraceEvent) {
        let record = TraceRecord {
            ts_ns,
            event: event.clone(),
        };
        let mut ring = lock(&self.ring);
        let ring = &mut *ring;
        if ring.len == self.capacity {
            if let Some(oldest) = ring.blocks.front_mut() {
                oldest.pop_front();
                if oldest.is_empty() {
                    ring.blocks.pop_front();
                }
            }
            ring.len -= 1;
            ring.dropped += 1;
        }
        match ring.blocks.back_mut() {
            Some(block) if block.len() < block.capacity() => block.push_back(record),
            _ => {
                let mut block = VecDeque::with_capacity(RING_BLOCK.min(self.capacity));
                block.push_back(record);
                ring.blocks.push_back(block);
            }
        }
        ring.len += 1;
    }
}

/// A sink that broadcasts every event to several downstream sinks — e.g.
/// an unbounded detail-log ring plus a bounded panic-time flight recorder.
///
/// Enabled iff any downstream sink is; disabled downstreams are skipped
/// per event, so a fanout with one live member costs one extra branch.
#[derive(Clone)]
pub struct FanoutSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl FanoutSink {
    /// A fanout over the given downstream sinks.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        Self { sinks }
    }
}

impl std::fmt::Debug for FanoutSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutSink")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl TraceSink for FanoutSink {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn record(&self, ts_ns: u64, event: &TraceEvent) {
        for sink in &self.sinks {
            if sink.enabled() {
                sink.record(ts_ns, event);
            }
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

/// A sink that streams events as JSON Lines — one `TraceRecord` object per
/// line — to any writer. This is the repository's `mlperf_log_detail`
/// analog.
///
/// Lines are rendered into a pending buffer and reach the writer in whole
/// lines once [`JSONL_BATCH`] bytes are pending, at [`TraceSink::flush`]
/// and when the sink is dropped.
pub struct JsonlSink {
    out: Mutex<JsonlOut>,
}

/// How many bytes of lines a [`JsonlSink`] holds before it writes them.
const JSONL_BATCH: usize = 32 * 1024;

/// The writer and the lines not yet handed to it, under one lock.
struct JsonlOut {
    writer: Box<dyn Write + Send>,
    pending: String,
}

impl JsonlOut {
    /// Hands the pending lines to the writer. A sink must not panic the
    /// run on I/O failure, and `TraceSink` has no way to report one: a
    /// failed write is dropped, and the log is short by those lines.
    fn write_pending(&mut self) {
        let _ = self.writer.write_all(self.pending.as_bytes());
        self.pending.clear();
    }
}

impl Drop for JsonlOut {
    fn drop(&mut self) {
        self.write_pending();
    }
}

impl JsonlSink {
    /// Wraps a writer.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        Self {
            out: Mutex::new(JsonlOut {
                writer,
                // Room for a full batch plus the line that tips it over.
                pending: String::with_capacity(2 * JSONL_BATCH),
            }),
        }
    }

    /// Opens (truncating) a detail-log file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(Self::new(Box::new(std::fs::File::create(path)?)))
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, ts_ns: u64, event: &TraceEvent) {
        let mut out = lock(&self.out);
        write_record(&mut out.pending, ts_ns, event);
        out.pending.push('\n');
        if out.pending.len() >= JSONL_BATCH {
            out.write_pending();
        }
    }

    /// Writes the pending lines and flushes the writer. A failure is
    /// dropped as a failed write is; a caller that must know the log is
    /// whole reads it back.
    fn flush(&self) {
        let mut out = lock(&self.out);
        out.write_pending();
        let _ = out.writer.flush();
    }
}

/// The non-blank lines of a detail log, each with its byte offset in
/// `text`, for the parsers that hold the whole text in memory.
pub(crate) fn detail_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut at = 0;
    text.split_inclusive('\n').filter_map(move |line| {
        let start = at;
        at += line.len();
        (!line.trim().is_empty()).then_some((start, line))
    })
}

/// Parses a JSONL detail log back into records.
///
/// # Errors
///
/// Returns [`JsonError`] for the first malformed line.
pub fn parse_detail_log(text: &str) -> Result<Vec<TraceRecord>, JsonError> {
    detail_lines(text)
        .map(|(_, line)| TraceRecord::from_json_str(line))
        .collect()
}

/// Renders records as a JSONL detail log, one line each: the text a
/// [`JsonlSink`] writes for the same events, and the inverse of
/// [`parse_detail_log`].
pub fn render_detail_log(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for record in records {
        write_record(&mut out, record.ts_ns, &record.event);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunPhase {
                phase: "issue".into(),
                scenario: "server".into(),
            },
            TraceEvent::QueryIssued {
                query_id: 7,
                sample_count: 2,
                delay_ns: 15,
            },
            TraceEvent::BatchFormed {
                unit: 1,
                batch_size: 8,
                service_ns: 42_000,
            },
            TraceEvent::QueryCompleted {
                query_id: 7,
                latency_ns: 130_000,
            },
            TraceEvent::DvfsStateChange {
                unit: 0,
                multiplier_milli: 950,
            },
            TraceEvent::OverloadDropped {
                query_id: 9,
                intervals: 3,
            },
            TraceEvent::ValidityCheckFailed {
                issue: "run too short".into(),
            },
            TraceEvent::PeakSearchStep {
                target: 125.5,
                valid: true,
            },
            TraceEvent::QueryErrored {
                query_id: 11,
                latency_ns: 88_000,
            },
            TraceEvent::FaultInjected {
                query_id: 11,
                fault: "transient_error".into(),
            },
            TraceEvent::RecoveryAction {
                query_id: 11,
                action: "retry".into(),
                attempt: 2,
            },
            TraceEvent::WireEvent {
                endpoint: "client".into(),
                kind: "heartbeat_loss".into(),
                query_id: 0,
                detail: "no pong for 250ms".into(),
            },
            TraceEvent::WireFault {
                endpoint: "client".into(),
                fault: "corrupt".into(),
                frame: 4,
                detail: "recv: flipped byte 17".into(),
            },
            TraceEvent::SpanEvent {
                host: "server".into(),
                trace_id: 0xDEAD_BEEF_CAFE_F00D,
                query_id: 7,
                phase: "compute".into(),
                dur_ns: 42_000,
            },
            TraceEvent::ClockSync {
                host: "server".into(),
                offset_ns: -1_250,
                rtt_ns: 18_000,
            },
            TraceEvent::ShardEvent {
                shard: "shard-2".into(),
                kind: "failover".into(),
                query_id: 7,
                detail: "shard-0 vanished".into(),
            },
        ]
    }

    #[test]
    fn events_roundtrip_through_json() {
        for event in sample_events() {
            let text = event.to_json_string();
            let back = TraceEvent::from_json_str(&text).unwrap();
            assert_eq!(back, event, "{text}");
        }
    }

    #[test]
    fn jsonl_sink_roundtrips() {
        let buffer = std::sync::Arc::new(Mutex::new(Vec::<u8>::new()));

        struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let sink = JsonlSink::new(Box::new(Shared(buffer.clone())));
        for (i, event) in sample_events().into_iter().enumerate() {
            sink.record(i as u64 * 10, &event);
        }
        sink.flush();

        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let records = parse_detail_log(&text).unwrap();
        assert_eq!(records.len(), sample_events().len());
        assert_eq!(text, render_detail_log(&records), "sink and renderer agree");
        for (i, (record, event)) in records.iter().zip(sample_events()).enumerate() {
            assert_eq!(record.ts_ns, i as u64 * 10);
            assert_eq!(record.event, event);
        }
    }

    /// One literal line per variant: the detail-log format, pinned.
    fn golden_lines() -> Vec<(TraceRecord, &'static str)> {
        let s = String::from;
        let at = |ts_ns, event| TraceRecord { ts_ns, event };
        vec![
            (
                at(
                    0,
                    TraceEvent::RunPhase {
                        phase: s("is\"sue"),
                        scenario: s("ser\\ver"),
                    },
                ),
                r#"{"ts_ns":0,"event":{"RunPhase":{"phase":"is\"sue","scenario":"ser\\ver"}}}"#,
            ),
            (
                at(
                    u64::MAX,
                    TraceEvent::QueryScheduled {
                        query_id: u64::MAX,
                        sample_count: 2,
                    },
                ),
                r#"{"ts_ns":18446744073709551615,"event":{"QueryScheduled":{"query_id":18446744073709551615,"sample_count":2}}}"#,
            ),
            (
                at(
                    1_000,
                    TraceEvent::QueryIssued {
                        query_id: 7,
                        sample_count: 2,
                        delay_ns: 15,
                    },
                ),
                r#"{"ts_ns":1000,"event":{"QueryIssued":{"query_id":7,"sample_count":2,"delay_ns":15}}}"#,
            ),
            (
                at(1_000, TraceEvent::QuerySent { query_id: 0 }),
                r#"{"ts_ns":1000,"event":{"QuerySent":{"query_id":0}}}"#,
            ),
            (
                at(
                    131_000,
                    TraceEvent::QueryCompleted {
                        query_id: 7,
                        latency_ns: 130_000,
                    },
                ),
                r#"{"ts_ns":131000,"event":{"QueryCompleted":{"query_id":7,"latency_ns":130000}}}"#,
            ),
            (
                at(
                    5,
                    TraceEvent::BatchFormed {
                        unit: 1,
                        batch_size: 8,
                        service_ns: 42_000,
                    },
                ),
                r#"{"ts_ns":5,"event":{"BatchFormed":{"unit":1,"batch_size":8,"service_ns":42000}}}"#,
            ),
            (
                at(
                    6,
                    TraceEvent::DvfsStateChange {
                        unit: 0,
                        multiplier_milli: u32::MAX,
                    },
                ),
                r#"{"ts_ns":6,"event":{"DvfsStateChange":{"unit":0,"multiplier_milli":4294967295}}}"#,
            ),
            (
                at(
                    7,
                    TraceEvent::OverloadDropped {
                        query_id: 9,
                        intervals: 3,
                    },
                ),
                r#"{"ts_ns":7,"event":{"OverloadDropped":{"query_id":9,"intervals":3}}}"#,
            ),
            (
                at(
                    8,
                    TraceEvent::AccuracyLogged {
                        query_id: 9,
                        samples: 4,
                    },
                ),
                r#"{"ts_ns":8,"event":{"AccuracyLogged":{"query_id":9,"samples":4}}}"#,
            ),
            (
                at(
                    9,
                    TraceEvent::ValidityCheckFailed {
                        issue: s("a\nb\r\tc\u{1}\u{1f}é😀/"),
                    },
                ),
                r#"{"ts_ns":9,"event":{"ValidityCheckFailed":{"issue":"a\nb\r\tc\u0001\u001fé😀/"}}}"#,
            ),
            (
                at(
                    10,
                    TraceEvent::PeakSearchStep {
                        target: 3.0,
                        valid: true,
                    },
                ),
                r#"{"ts_ns":10,"event":{"PeakSearchStep":{"target":3.0,"valid":true}}}"#,
            ),
            (
                at(
                    11,
                    TraceEvent::PeakSearchStep {
                        target: f64::NAN,
                        valid: false,
                    },
                ),
                r#"{"ts_ns":11,"event":{"PeakSearchStep":{"target":null,"valid":false}}}"#,
            ),
            (
                at(
                    12,
                    TraceEvent::PeakSearchStep {
                        target: -125.5,
                        valid: false,
                    },
                ),
                r#"{"ts_ns":12,"event":{"PeakSearchStep":{"target":-125.5,"valid":false}}}"#,
            ),
            (
                at(
                    13,
                    TraceEvent::QueryErrored {
                        query_id: 11,
                        latency_ns: 88_000,
                    },
                ),
                r#"{"ts_ns":13,"event":{"QueryErrored":{"query_id":11,"latency_ns":88000}}}"#,
            ),
            (
                at(
                    14,
                    TraceEvent::FaultInjected {
                        query_id: 11,
                        fault: s("transient_error"),
                    },
                ),
                r#"{"ts_ns":14,"event":{"FaultInjected":{"query_id":11,"fault":"transient_error"}}}"#,
            ),
            (
                at(
                    15,
                    TraceEvent::RecoveryAction {
                        query_id: 11,
                        action: s("retry"),
                        attempt: 2,
                    },
                ),
                r#"{"ts_ns":15,"event":{"RecoveryAction":{"query_id":11,"action":"retry","attempt":2}}}"#,
            ),
            (
                at(
                    16,
                    TraceEvent::WireEvent {
                        endpoint: s("client"),
                        kind: s("heartbeat_loss"),
                        query_id: 0,
                        detail: s(""),
                    },
                ),
                r#"{"ts_ns":16,"event":{"WireEvent":{"endpoint":"client","kind":"heartbeat_loss","query_id":0,"detail":""}}}"#,
            ),
            (
                at(
                    17,
                    TraceEvent::WireFault {
                        endpoint: s("server"),
                        fault: s("corrupt"),
                        frame: 4,
                        detail: s("recv: flipped byte 17"),
                    },
                ),
                r#"{"ts_ns":17,"event":{"WireFault":{"endpoint":"server","fault":"corrupt","frame":4,"detail":"recv: flipped byte 17"}}}"#,
            ),
            (
                at(
                    18,
                    TraceEvent::SpanEvent {
                        host: s("server"),
                        trace_id: 0xDEAD_BEEF_CAFE_F00D,
                        query_id: 7,
                        phase: s("compute"),
                        dur_ns: 42_000,
                    },
                ),
                r#"{"ts_ns":18,"event":{"SpanEvent":{"host":"server","trace_id":16045690984503111693,"query_id":7,"phase":"compute","dur_ns":42000}}}"#,
            ),
            (
                at(
                    19,
                    TraceEvent::ClockSync {
                        host: s("server"),
                        offset_ns: i64::MIN,
                        rtt_ns: 18_000,
                    },
                ),
                r#"{"ts_ns":19,"event":{"ClockSync":{"host":"server","offset_ns":-9223372036854775808,"rtt_ns":18000}}}"#,
            ),
            (
                at(
                    20,
                    TraceEvent::ShardEvent {
                        shard: s("shard-2"),
                        kind: s("failover"),
                        query_id: 7,
                        detail: s("shard-0 vanished"),
                    },
                ),
                r#"{"ts_ns":20,"event":{"ShardEvent":{"shard":"shard-2","kind":"failover","query_id":7,"detail":"shard-0 vanished"}}}"#,
            ),
        ]
    }

    #[test]
    fn every_variant_renders_its_golden_line_both_ways() {
        let golden = golden_lines();
        let kinds: std::collections::BTreeSet<_> =
            golden.iter().map(|(r, _)| r.event.kind()).collect();
        assert_eq!(kinds.len(), 19, "a line for every variant");
        for (record, line) in &golden {
            assert_eq!(record.to_json_string(), *line, "streamed");
            assert_eq!(record.to_json_value().to_compact(), *line, "tree");
            // Back through both decoders and out again (NaN is not `==`
            // itself, so the comparison is on the rendered line).
            let pulled = TraceRecord::from_json_str(line).unwrap();
            let tree = TraceRecord::from_json_value(&JsonValue::parse(line).unwrap()).unwrap();
            assert_eq!(pulled.to_json_string(), *line);
            assert_eq!(tree.to_json_string(), *line);
        }
        let records: Vec<_> = golden.iter().map(|(r, _)| r.clone()).collect();
        let lines: Vec<_> = golden.iter().map(|(_, line)| *line).collect();
        assert_eq!(render_detail_log(&records), lines.join("\n") + "\n");
    }

    #[test]
    fn a_bad_escape_in_a_line_is_an_error_not_a_character() {
        // What a peer's `Events` frame can carry: neither may panic or
        // decode to a plausible string.
        for escape in [r"\ud800\ud800", r"\u+041"] {
            let line = format!(
                r#"{{"ts_ns":1,"event":{{"ValidityCheckFailed":{{"issue":"{escape}"}}}}}}"#
            );
            assert!(TraceRecord::from_json_str(&line).is_err(), "{line}");
            assert!(parse_detail_log(&line).is_err(), "{line}");
            // In a member nothing asks for, too: the line is one document.
            let line =
                format!(r#"{{"ts_ns":1,"x":"{escape}","event":{{"QuerySent":{{"query_id":1}}}}}}"#);
            assert!(TraceRecord::from_json_str(&line).is_err(), "{line}");
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let sink = RingBufferSink::new(3);
        for id in 0..5u64 {
            sink.record(id, &TraceEvent::QuerySent { query_id: id });
        }
        let events = sink.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(sink.dropped(), 2);
        assert_eq!(events[0].ts_ns, 2);
        assert_eq!(events[2].ts_ns, 4);
    }

    #[test]
    fn a_bounded_ring_keeps_exactly_the_newest_in_order() {
        // Capacities below, at and across the ring's block size.
        for capacity in [1, 1_000, RING_BLOCK, 2_500] {
            let sink = RingBufferSink::new(capacity);
            let total = 10_000u64;
            for id in 0..total {
                sink.record(id, &TraceEvent::QuerySent { query_id: id });
                let held = (id + 1).min(capacity as u64);
                assert_eq!(sink.len() as u64, held, "capacity {capacity}");
                assert_eq!(sink.dropped(), id + 1 - held, "capacity {capacity}");
            }
            let kept: Vec<u64> = sink.snapshot().iter().map(|r| r.ts_ns).collect();
            let want: Vec<u64> = (total - capacity as u64..total).collect();
            assert_eq!(kept, want, "capacity {capacity}");
        }
    }

    #[test]
    fn noop_sink_reports_disabled() {
        assert!(!NoopSink.enabled());
        assert!(RingBufferSink::unbounded().enabled());
    }
}
