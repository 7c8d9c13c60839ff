//! Spans recorded by the benchmark's own decorators.
//!
//! A span is one call across a layer boundary: name, start, end, the span
//! that caused it, and the query it belongs to. Spans stay in memory
//! while a repeat runs; [`self_times`] turns them into per-layer self
//! time (a span's duration minus the part its child spans cover), and
//! [`write_json`] dumps them when the benchmark ends.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// `parent` of a span nothing caused.
pub const NO_PARENT: u64 = u64::MAX;
/// `query` of a span that belongs to no single query.
pub const NO_QUERY: u64 = u64::MAX;

/// One recorded span. Times are nanoseconds since the log's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within one log.
    pub id: u64,
    /// Id of the causing span, or [`NO_PARENT`].
    pub parent: u64,
    /// Layer-qualified name, e.g. `sut.on_query`.
    pub name: &'static str,
    /// Query id shared by every span of one request, or [`NO_QUERY`].
    pub query: u64,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Id of the per-query span a decorator at nesting `level` records for
/// `query`. Deriving it lets a decorator on another thread (or the far
/// side of a socket) name its parent without any shared lookup. Counter
/// ids ([`SpanLog::next_id`]) stay below `1 << 48`.
pub fn query_span_id(level: u8, query: u64) -> u64 {
    ((u64::from(level) + 1) << 48) | (query & ((1 << 48) - 1))
}

/// A thread-safe, append-only span store with one clock origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next: std::sync::atomic::AtomicU64,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// `instant` on this log's clock (0 if it precedes the origin).
    pub fn ns_at(&self, instant: Instant) -> u64 {
        u64::try_from(instant.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh id for a span that is not tied to one query.
    pub fn next_id(&self) -> u64 {
        self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Stores a finished span.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Times `work` as a span named `name` under `parent`, with a fresh id
    /// that the closure receives so it can parent further spans.
    pub fn time<T>(&self, name: &'static str, parent: u64, work: impl FnOnce(u64) -> T) -> T {
        let id = self.next_id();
        let start_ns = self.now_ns();
        let out = work(id);
        let end_ns = self.now_ns();
        self.record(Span {
            id,
            parent,
            name,
            query: NO_QUERY,
            start_ns,
            end_ns,
        });
        out
    }

    /// Hands everything recorded so far to `read`, then forgets it. The
    /// buffer keeps its capacity: a span costs about as much to store as
    /// the layers it measures cost to run, and most of that is first-touch
    /// page faults that only the first run of a repeat should pay.
    pub fn drain<T>(&self, read: impl FnOnce(&[Span]) -> T) -> T {
        let mut spans = self.spans.lock().expect("span log poisoned");
        let out = read(&spans);
        spans.clear();
        out
    }
}

/// What one layer (span name) cost across a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times: duration minus direct children.
    pub self_ns: u64,
}

/// Per-name totals with self time = duration − Σ direct children.
///
/// A child on another thread still lies inside its parent's interval
/// (the daemon serves while the client waits), so the same subtraction
/// splits a round trip into "on the wire" and "in the service". Children
/// are clamped to their parent: clock reads on two threads may disagree
/// by a few nanoseconds and self time must not go negative.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: HashMap<u64, u64> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != NO_PARENT) {
        *children.entry(span.parent).or_default() += span.duration_ns();
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for span in spans {
        let covered = children.get(&span.id).copied().unwrap_or(0);
        let layer = layers.entry(span.name).or_default();
        layer.calls += 1;
        layer.total_ns += span.duration_ns();
        layer.self_ns += span.duration_ns().saturating_sub(covered);
    }
    layers
}

/// Writes spans as one JSON array of objects, one span per line.
///
/// # Errors
///
/// Returns the writer's I/O error.
pub fn write_json<W: Write>(mut out: W, spans: &[Span]) -> std::io::Result<()> {
    let field = |v: u64| if v == u64::MAX { -1 } else { v as i128 };
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"query\":{},\"start_ns\":{},\"end_ns\":{}}}{comma}",
            s.id,
            field(s.parent),
            s.name,
            field(s.query),
            s.start_ns,
            s.end_ns
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            query: NO_QUERY,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_parent_minus_direct_children() {
        // root [0,100) ── a [10,40) ── a.inner [15,25)
        //              └─ b [50,70)          (sibling of a)
        //              └─ a [80,90)          (second call of a)
        let spans = [
            span(0, NO_PARENT, "root", 0, 100),
            span(1, 0, "a", 10, 40),
            span(2, 1, "a.inner", 15, 25),
            span(3, 0, "b", 50, 70),
            span(4, 0, "a", 80, 90),
        ];
        let layers = self_times(&spans);
        // Grandchildren are charged to their parent, not to the root.
        assert_eq!(layers["root"].self_ns, 100 - 30 - 20 - 10);
        assert_eq!(layers["a"].calls, 2);
        assert_eq!(layers["a"].total_ns, 40);
        assert_eq!(layers["a"].self_ns, 20 + 10);
        assert_eq!(layers["a.inner"].self_ns, 10);
        assert_eq!(layers["b"].self_ns, 20);
        // Self times of a tree sum to the root's duration.
        let sum: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn children_never_drive_self_time_negative() {
        let spans = [span(0, NO_PARENT, "p", 10, 20), span(1, 0, "c", 5, 30)];
        assert_eq!(self_times(&spans)["p"].self_ns, 0);
    }

    #[test]
    fn derived_ids_nest_by_level_and_never_collide_with_counters() {
        let log = SpanLog::new();
        assert!(log.next_id() < 1 << 48);
        assert_ne!(query_span_id(0, 7), query_span_id(1, 7));
        assert_ne!(query_span_id(0, 7), query_span_id(0, 8));
        assert!(query_span_id(0, 0) >= 1 << 48);
    }

    #[test]
    fn time_nests_through_the_id_it_hands_out() {
        let log = SpanLog::new();
        log.time("outer", NO_PARENT, |outer| {
            log.time("inner", outer, |_| ());
        });
        log.drain(|spans| {
            assert_eq!(spans.len(), 2);
            let (inner, outer) = (&spans[0], &spans[1]);
            assert_eq!((inner.name, outer.name), ("inner", "outer"));
            assert_eq!(inner.parent, outer.id);
            assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        });
        assert!(log.drain(<[Span]>::is_empty));
    }

    #[test]
    fn json_dump_is_one_object_per_span() {
        let mut out = Vec::new();
        write_json(
            &mut out,
            &[span(0, NO_PARENT, "root", 1, 2), span(1, 0, "a", 1, 2)],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("[\n{\"id\":0,\"parent\":-1,\"name\":\"root\",\"query\":-1,"));
        assert_eq!(text.lines().count(), 4);
        assert!(mlperf_trace::JsonValue::parse(&text).is_ok());
    }
}
