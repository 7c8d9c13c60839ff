//! Typed trace events and the sinks that record them.
//!
//! Events carry **simulated-time** nanosecond timestamps (the `ts_ns`
//! argument to [`TraceSink::record`]), not wall-clock time: a trace taken
//! from a deterministic run is itself deterministic.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Mutex};

use crate::json::{
    write_u64, Canonical, FromJson, JsonError, JsonValue, Picked, Scalar, ToJson, Token, MAX_PICKED,
};
use crate::sync::lock;

/// Declares [`TraceEvent`] once, and generates from that one declaration
/// everything that spells a variant out: the enum, the payload structs of
/// the boxed variants, `kind()`, the field table `fields()` both encoders
/// read, and `SHAPES`, which every decoder reads.
///
/// An entry is a variant's docs, its name, its `kind()` label and its
/// fields in the order a detail-log line writes them. The entries in the
/// enum are struct variants, held inline. Each entry in the `boxed` group
/// becomes a payload struct of the variant's name, with the same fields
/// and docs, the variant `Name(Box<Name>)`, and `From<Name>` for
/// `TraceEvent`. Entry order is `SHAPES` order, the enum's entries first.
/// Each variant gets a compile-time check that a decoder can pick all of
/// its fields out of one object.
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        $vis:vis enum TraceEvent {
            $(
                $(#[$variant_meta:meta])*
                $variant:ident($label:literal) {
                    $( $(#[$field_meta:meta])* $field:ident: $ty:ty, )+
                },
            )+
        }

        boxed {
            $(
                $(#[$boxed_meta:meta])*
                $boxed:ident($boxed_label:literal) {
                    $( $(#[$boxed_field_meta:meta])* $boxed_field:ident: $boxed_ty:ty, )+
                },
            )+
        }

        impl TraceEvent {
            $(#[$kind_meta:meta])*
            $kind_vis:vis fn kind(&self) -> &'static str;
        }
    ) => {
        $(#[$meta])*
        $vis enum TraceEvent {
            $(
                $(#[$variant_meta])*
                $variant { $( $(#[$field_meta])* $field: $ty, )+ },
            )+
            $(
                $(#[$boxed_meta])*
                $boxed(Box<$boxed>),
            )+
        }

        $(
            $(#[$boxed_meta])*
            #[derive(Debug, Clone, PartialEq)]
            $vis struct $boxed {
                $( $(#[$boxed_field_meta])* pub $boxed_field: $boxed_ty, )+
            }

            impl From<$boxed> for TraceEvent {
                fn from(event: $boxed) -> Self {
                    TraceEvent::$boxed(Box::new(event))
                }
            }
        )+

        impl TraceEvent {
            $(#[$kind_meta])*
            $kind_vis fn kind(&self) -> &'static str {
                match self {
                    $( TraceEvent::$variant { .. } => $label, )+
                    $( TraceEvent::$boxed(_) => $boxed_label, )+
                }
            }

            /// The event's JSON shape: the variant name and its fields in
            /// the order they are written. Both encoders — the tree
            /// ([`ToJson::to_json_value`]) and the streamed line
            /// (`write_record`) — read it from here.
            fn fields<R>(
                &self,
                visit: impl FnOnce(&'static str, &[(&'static str, Scalar<'_>)]) -> R,
            ) -> R {
                match self {
                    $(
                        TraceEvent::$variant { $($field),+ } => visit(
                            stringify!($variant),
                            &[$( (stringify!($field), Field::scalar($field)) ),+],
                        ),
                    )+
                    $(
                        TraceEvent::$boxed(event) => {
                            let $boxed { $($boxed_field),+ } = &**event;
                            visit(
                                stringify!($boxed),
                                &[$( (stringify!($boxed_field), Field::scalar($boxed_field)) ),+],
                            )
                        }
                    )+
                }
            }
        }

        /// Every variant's [`Shape`], in declaration order.
        const SHAPES: &[Shape] = &[
            $( trace_events!(@shape $variant, [TraceEvent::$variant], $($field),+), )+
            $( trace_events!(@shape $boxed, [$boxed], $($boxed_field),+), )+
        ];
    };

    // The `Shape` of one variant, whose fields `$($make)+ { .. }` builds: the
    // variant itself, or its boxed payload, which `TraceEvent::from` boxes
    // (for a variant it is the identity).
    (@shape $name:ident, [$($make:tt)+], $($field:ident),+) => {{
        const _: () = assert!(
            [$(stringify!($field)),+].len() <= MAX_PICKED,
            concat!(stringify!($name), " has more fields than a decoder picks"),
        );
        Shape {
            name: stringify!($name),
            keys: &[$(stringify!($field)),+],
            build: |p| {
                let mut at = 0;
                Ok(TraceEvent::from($($make)+ { $( $field: next_field(p, &mut at)?, )+ }))
            },
            canonical: |c| {
                let mut first = true;
                Some(TraceEvent::from($($make)+ {
                    $(
                        $field: canonical_member(
                            c,
                            &mut first,
                            concat!("\"", stringify!($field), "\":"),
                        )?,
                    )+
                }))
            },
        }
    }};
}

trace_events! {
    /// One structured event in a LoadGen run.
    ///
    /// The taxonomy mirrors the lifecycle stages the MLPerf LoadGen detail
    /// log exposes: issue, device-side batching, completion, plus the
    /// exceptional paths (drops, validity failures) and run bookkeeping.
    /// The three a query writes come first, so a line finds its shape at
    /// the first or second name compared.
    #[derive(Debug, Clone, PartialEq)]
    pub enum TraceEvent {
        /// LoadGen issued a query to the SUT.
        QueryIssued("query_issued") {
            /// Query id.
            query_id: u64,
            /// Number of samples in the query.
            sample_count: usize,
            /// Nanoseconds the issue slipped past its scheduled time.
            delay_ns: u64,
        },
        /// The query left LoadGen for the SUT transport (issue path end).
        QuerySent("query_sent") {
            /// Query id.
            query_id: u64,
        },
        /// The SUT completed a query.
        QueryCompleted("query_completed") {
            /// Query id.
            query_id: u64,
            /// Issue-to-completion latency in nanoseconds.
            latency_ns: u64,
        },
        /// A device engine formed a batch and dispatched it.
        BatchFormed("batch_formed") {
            /// Device unit (lane) index the batch ran on.
            unit: usize,
            /// Number of samples in the batch.
            batch_size: usize,
            /// Simulated service time of the batch in nanoseconds.
            service_ns: u64,
        },
        /// The device's effective clock multiplier changed (thermal/DVFS).
        DvfsStateChange("dvfs_state_change") {
            /// Device unit index.
            unit: usize,
            /// Clock multiplier scaled by 1000 (e.g. 1250 = 1.25x).
            multiplier_milli: u32,
        },
        /// A MultiStream interval was skipped because the SUT fell behind.
        OverloadDropped("overload_dropped") {
            /// Query id whose tardiness caused the skip.
            query_id: u64,
            /// Number of intervals skipped.
            intervals: u64,
        },
        /// A sample's response was recorded into the accuracy log.
        AccuracyLogged("accuracy_logged") {
            /// Query id the sample belongs to.
            query_id: u64,
            /// Number of samples logged for the query.
            samples: usize,
        },
        /// One step of a FindPeakPerformance search.
        PeakSearchStep("peak_search_step") {
            /// The load target tried (QPS or stream count).
            target: f64,
            /// Whether the run at that target was valid.
            valid: bool,
        },
        /// The SUT resolved a query as an error/drop instead of an answer.
        QueryErrored("query_errored") {
            /// Query id.
            query_id: u64,
            /// Schedule-to-failure latency in nanoseconds.
            latency_ns: u64,
        },
    }

    // The variants that carry strings. Inline, their `String`s would set
    // the size of every event — 88 bytes where a query's three events
    // need at most 24 — and every ring block, flight-recorder slot and
    // read-back log would be sized by them; boxed, an event is 32 bytes
    // and only these pay an allocation.
    boxed {
        /// A run phase boundary (e.g. "issue", "drain", "report").
        RunPhase("run_phase") {
            /// Phase label.
            phase: String,
            /// Scenario code (e.g. "server").
            scenario: String,
        },
        /// A validity rule failed during result finalization.
        ValidityCheckFailed("validity_check_failed") {
            /// Human-readable description of the failed rule.
            issue: String,
        },
        /// Something happened on the network SUT transport (wire extension).
        WireEvent("wire_event") {
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
        /// extension). It fires per *frame*, not per query.
        WireFault("wire_fault") {
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
        SpanEvent("span") {
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
        ClockSync("clock_sync") {
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
        ShardEvent("shard_event") {
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
        pub fn kind(&self) -> &'static str;
    }
}

/// A type a [`TraceEvent`] field may have: the [`Scalar`] it writes, how
/// it reads back from the [`Token`] at its key, and how it reads from a
/// canonical line when the value is in the form `Scalar::write` gives it
/// (`None` where the type cannot be sure, and the line takes the general
/// path).
trait Field: Sized {
    fn scalar(&self) -> Scalar<'_>;
    fn read(token: Token<'_>) -> Result<Self, JsonError>;
    fn canonical(cursor: &mut Canonical<'_>) -> Option<Self>;
}

/// `impl Field` for each field type, from its `Scalar`, its `Token`
/// accessor and its canonical read.
macro_rules! field_types {
    ($($ty:ty => |$v:ident| $scalar:expr, $read:ident, |$c:pat_param| $canonical:expr;)+) => {
        $(
            impl Field for $ty {
                fn scalar(&self) -> Scalar<'_> {
                    let $v = self;
                    $scalar
                }

                fn read(token: Token<'_>) -> Result<Self, JsonError> {
                    token.$read()
                }

                #[inline]
                fn canonical($c: &mut Canonical<'_>) -> Option<Self> {
                    $canonical
                }
            }
        )+
    };
}

field_types! {
    u64 => |v| Scalar::U64(*v), as_u64, |c| c.digits();
    usize => |v| Scalar::U64(*v as u64), as_usize, |c| usize::try_from(c.digits()?).ok();
    u32 => |v| Scalar::U64(u64::from(*v)), as_u32, |c| u32::try_from(c.digits()?).ok();
    i64 => |v| Scalar::I64(*v), as_i64, |c| i64::try_from(c.signed()?).ok();
    // A float's shortest text is not worth a second reader: the general
    // path takes every line that has one.
    f64 => |v| Scalar::F64(*v), as_f64, |_| None;
    bool => |v| Scalar::Bool(*v), as_bool, |c| c.bool();
    String => |v| Scalar::Str(v), into_string, |c| c.plain_str().map(String::from);
}

/// How one variant is read back: the inverse of [`TraceEvent::fields`].
/// `keys` are the payload keys in the order `fields` writes them, and
/// `build` makes the variant from the payload members at those keys, for
/// the tree decoder ([`FromJson::from_json_value`]). `canonical` reads the
/// payload members straight off a line that holds them exactly as
/// `fields` writes them, and answers `None` for any other line, which
/// [`TraceRecord::from_json_str`] then reads through the tree.
struct Shape {
    name: &'static str,
    keys: &'static [&'static str],
    build: fn(&mut Picked<'_>) -> Result<TraceEvent, JsonError>,
    canonical: fn(&mut Canonical<'_>) -> Option<TraceEvent>,
}

/// Reads the member at the `at`-th key as a `T`, and moves `at` on to the
/// next key.
fn next_field<T: Field>(picked: &mut Picked<'_>, at: &mut usize) -> Result<T, JsonError> {
    *at += 1;
    T::read(picked.take(*at - 1)?)
}

/// Reads `"key":` (after a `,` unless it is the `first` member) and the
/// value behind it as a `T`, in canonical form.
#[inline]
fn canonical_member<T: Field>(
    cursor: &mut Canonical<'_>,
    first: &mut bool,
    key: &str,
) -> Option<T> {
    if !std::mem::take(first) {
        cursor.literal(",")?;
    }
    cursor.literal(key)?;
    T::canonical(cursor)
}

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

// Every ring block, flight-recorder slot and read-back log is sized by
// this: a field that grows it belongs in a `boxed` entry.
const _: () = assert!(std::mem::size_of::<TraceRecord>() <= 40);

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

/// Reads a line in the one form [`write_record`] writes it —
/// `{"ts_ns":N,"event":{"Variant":{"k1":v1,…}}}` with the keys in declared
/// order and only JSON whitespace after — in one forward pass, without
/// the tokenizer. `None` for any other line (a float, `null`, an escape,
/// another key order, a member too many or too few), which then goes
/// through the tree: whatever this accepts, the tree accepts with the same
/// value.
fn canonical_record(line: &str) -> Option<TraceRecord> {
    let mut cursor = Canonical::new(line);
    cursor.literal("{\"ts_ns\":")?;
    let ts_ns = cursor.digits()?;
    cursor.literal(",\"event\":{")?;
    let name = cursor.plain_str()?;
    let shape = SHAPES.iter().find(|shape| shape.name == name)?;
    cursor.literal(":{")?;
    let event = (shape.canonical)(&mut cursor)?;
    cursor.literal("}}}")?;
    cursor.end()?;
    Some(TraceRecord { ts_ns, event })
}

impl FromJson for TraceRecord {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(TraceRecord {
            ts_ns: value.field("ts_ns")?.as_u64()?,
            event: TraceEvent::from_json_value(value.field("event")?)?,
        })
    }

    /// Reads a detail-log line: a line in the form the encoder writes in
    /// one forward pass without a tree, any other (an escape, a float, a
    /// reordered or extra member) as `from_json_value(&JsonValue::parse(line)?)`,
    /// so every line is accepted, or rejected with the same error, exactly
    /// as the tree accepts or rejects it.
    fn from_json_str(input: &str) -> Result<Self, JsonError> {
        match canonical_record(input) {
            Some(record) => Ok(record),
            None => Self::from_json_value(&JsonValue::parse(input)?),
        }
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
/// lines once `JSONL_BATCH` bytes are pending, at [`TraceSink::flush`]
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
    use std::collections::BTreeSet;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::from(RunPhase {
                phase: "issue".into(),
                scenario: "server".into(),
            }),
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
            TraceEvent::from(ValidityCheckFailed {
                issue: "run too short".into(),
            }),
            TraceEvent::PeakSearchStep {
                target: 125.5,
                valid: true,
            },
            TraceEvent::QueryErrored {
                query_id: 11,
                latency_ns: 88_000,
            },
            TraceEvent::from(WireEvent {
                endpoint: "client".into(),
                kind: "heartbeat_loss".into(),
                query_id: 0,
                detail: "no pong for 250ms".into(),
            }),
            TraceEvent::from(WireFault {
                endpoint: "client".into(),
                fault: "corrupt".into(),
                frame: 4,
                detail: "recv: flipped byte 17".into(),
            }),
            TraceEvent::from(SpanEvent {
                host: "server".into(),
                trace_id: 0xDEAD_BEEF_CAFE_F00D,
                query_id: 7,
                phase: "compute".into(),
                dur_ns: 42_000,
            }),
            TraceEvent::from(ClockSync {
                host: "server".into(),
                offset_ns: -1_250,
                rtt_ns: 18_000,
            }),
            TraceEvent::from(ShardEvent {
                shard: "shard-2".into(),
                kind: "failover".into(),
                query_id: 7,
                detail: "shard-0 vanished".into(),
            }),
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
                    TraceEvent::from(RunPhase {
                        phase: s("is\"sue"),
                        scenario: s("ser\\ver"),
                    }),
                ),
                r#"{"ts_ns":0,"event":{"RunPhase":{"phase":"is\"sue","scenario":"ser\\ver"}}}"#,
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
                    TraceEvent::from(ValidityCheckFailed {
                        issue: s("a\nb\r\tc\u{1}\u{1f}é😀/"),
                    }),
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
                    16,
                    TraceEvent::from(WireEvent {
                        endpoint: s("client"),
                        kind: s("heartbeat_loss"),
                        query_id: 0,
                        detail: s(""),
                    }),
                ),
                r#"{"ts_ns":16,"event":{"WireEvent":{"endpoint":"client","kind":"heartbeat_loss","query_id":0,"detail":""}}}"#,
            ),
            (
                at(
                    17,
                    TraceEvent::from(WireFault {
                        endpoint: s("server"),
                        fault: s("corrupt"),
                        frame: 4,
                        detail: s("recv: flipped byte 17"),
                    }),
                ),
                r#"{"ts_ns":17,"event":{"WireFault":{"endpoint":"server","fault":"corrupt","frame":4,"detail":"recv: flipped byte 17"}}}"#,
            ),
            (
                at(
                    18,
                    TraceEvent::from(SpanEvent {
                        host: s("server"),
                        trace_id: 0xDEAD_BEEF_CAFE_F00D,
                        query_id: 7,
                        phase: s("compute"),
                        dur_ns: 42_000,
                    }),
                ),
                r#"{"ts_ns":18,"event":{"SpanEvent":{"host":"server","trace_id":16045690984503111693,"query_id":7,"phase":"compute","dur_ns":42000}}}"#,
            ),
            (
                at(
                    19,
                    TraceEvent::from(ClockSync {
                        host: s("server"),
                        offset_ns: i64::MIN,
                        rtt_ns: 18_000,
                    }),
                ),
                r#"{"ts_ns":19,"event":{"ClockSync":{"host":"server","offset_ns":-9223372036854775808,"rtt_ns":18000}}}"#,
            ),
            (
                at(
                    20,
                    TraceEvent::from(ShardEvent {
                        shard: s("shard-2"),
                        kind: s("failover"),
                        query_id: 7,
                        detail: s("shard-0 vanished"),
                    }),
                ),
                r#"{"ts_ns":20,"event":{"ShardEvent":{"shard":"shard-2","kind":"failover","query_id":7,"detail":"shard-0 vanished"}}}"#,
            ),
        ]
    }

    #[test]
    fn every_variant_renders_its_golden_line_both_ways() {
        let golden = golden_lines();
        let names: BTreeSet<_> = golden
            .iter()
            .map(|(r, _)| r.event.fields(|name, _| name))
            .collect();
        let declared: BTreeSet<_> = SHAPES.iter().map(|shape| shape.name).collect();
        assert_eq!(names, declared, "a golden line for every declared variant");
        let kinds: BTreeSet<_> = golden.iter().map(|(r, _)| r.event.kind()).collect();
        assert_eq!(kinds.len(), SHAPES.len(), "one kind label per variant");
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
    fn the_one_pass_reader_takes_every_line_it_can_and_only_those() {
        let mut taken = 0;
        for (record, line) in golden_lines() {
            let tree = TraceRecord::from_json_value(&JsonValue::parse(line).unwrap()).unwrap();
            let plain = !line.contains('\\')
                && record
                    .event
                    .fields(|_, fields| fields.iter().all(|(_, v)| !matches!(v, Scalar::F64(_))));
            // A 20-digit number is the tree's, too.
            let short = line
                .split(|c: char| !c.is_ascii_digit())
                .all(|digits| digits.len() <= 19);
            match canonical_record(line) {
                Some(fast) => {
                    assert!(plain && short, "taken: {line}");
                    assert_eq!(fast, tree, "{line}");
                    taken += 1;
                }
                None => assert!(!(plain && short), "fell back: {line}"),
            }
            // And with whitespace after it, which a line read from a file
            // carries.
            let ended = format!("{line} \t\r\n");
            assert_eq!(canonical_record(&ended).is_some(), plain && short, "{line}");
            assert_eq!(canonical_record(&format!("{line}\u{c}")), None, "{line}");
        }
        assert_eq!(
            taken, 12,
            "all but two escapes, three floats and a 20-digit id"
        );
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
