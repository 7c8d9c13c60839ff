//! Simulated-time series sampling of run metrics.
//!
//! The [`MetricsRegistry`](crate::metrics::MetricsRegistry) accumulates over
//! a whole run, so the end-of-run snapshot answers "how did the run do" but
//! not "when did it degrade". This module adds the missing axis: a
//! [`TimeSeriesSampler`] snapshots the registry at a fixed simulated-time
//! interval while the discrete-event loop advances, turning the run into
//! per-interval rows — cumulative and delta counters, in-flight queue
//! depth, interval latency quantiles, and every live gauge (DVFS state
//! included) — exportable as JSONL or CSV for plotting degradation curves
//! over the run rather than just its endpoint.
//!
//! Timestamps are exact interval boundaries (`k * interval`), so a run of
//! duration `D` produces `floor(D / interval)` rows with strictly
//! increasing `t_ns` regardless of how events cluster.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json::{JsonValue, ToJson};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::sync::lock;

/// One sampled interval of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesRow {
    /// Simulated time of the sample (an exact interval boundary).
    pub t_ns: u64,
    /// Cumulative queries issued by this time.
    pub queries_issued: u64,
    /// Cumulative queries completed by this time.
    pub queries_completed: u64,
    /// Cumulative samples completed by this time.
    pub samples_completed: u64,
    /// Queries issued but not yet completed at this time.
    pub in_flight: u64,
    /// Queries completed within this interval alone.
    pub interval_completed: u64,
    /// Completed-query throughput of this interval, in queries/second of
    /// simulated time.
    pub throughput_qps: f64,
    /// p50 of query latencies completed within this interval (ns); 0 when
    /// the interval completed nothing.
    pub p50_ns: u64,
    /// p90 of this interval's query latencies (ns).
    pub p90_ns: u64,
    /// p99 of this interval's query latencies (ns).
    pub p99_ns: u64,
    /// Every gauge in the registry at sample time (e.g. DVFS multiplier,
    /// device queue depth).
    pub gauges: BTreeMap<String, f64>,
}

impl ToJson for TimeSeriesRow {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("t_ns", self.t_ns.to_json_value()),
            ("queries_issued", self.queries_issued.to_json_value()),
            ("queries_completed", self.queries_completed.to_json_value()),
            ("samples_completed", self.samples_completed.to_json_value()),
            ("in_flight", self.in_flight.to_json_value()),
            (
                "interval_completed",
                self.interval_completed.to_json_value(),
            ),
            ("throughput_qps", self.throughput_qps.to_json_value()),
            ("p50_ns", self.p50_ns.to_json_value()),
            ("p90_ns", self.p90_ns.to_json_value()),
            ("p99_ns", self.p99_ns.to_json_value()),
            ("gauges", self.gauges.to_json_value()),
        ])
    }
}

/// The fixed CSV column set (gauges are flattened into one well-known
/// column; the JSONL export carries all of them).
const CSV_HEADER: &str = "t_ns,queries_issued,queries_completed,samples_completed,in_flight,\
interval_completed,throughput_qps,p50_ns,p90_ns,p99_ns,dvfs_multiplier_milli";

/// Samples a [`MetricsRegistry`] on a fixed simulated-time grid.
///
/// The event loop calls [`advance_to`](Self::advance_to) with each event's
/// timestamp; the sampler emits one row per crossed interval boundary. All
/// methods take `&self` so one sampler can be shared with device engines.
#[derive(Debug)]
pub struct TimeSeriesSampler {
    interval_ns: u64,
    inner: Mutex<SamplerInner>,
}

#[derive(Debug)]
struct SamplerInner {
    next_at: u64,
    prev: MetricsSnapshot,
    rows: Vec<TimeSeriesRow>,
}

impl TimeSeriesSampler {
    /// Creates a sampler emitting one row per `interval_ns` of simulated
    /// time (clamped to at least 1 ns).
    pub fn new(interval_ns: u64) -> Self {
        let interval_ns = interval_ns.max(1);
        Self {
            interval_ns,
            inner: Mutex::new(SamplerInner {
                next_at: interval_ns,
                prev: MetricsSnapshot::default(),
                rows: Vec::new(),
            }),
        }
    }

    /// The sampling interval in simulated nanoseconds.
    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }

    /// Advances simulated time to `now_ns`, emitting one row for every
    /// interval boundary at or before it. Cheap when no boundary was
    /// crossed (one lock, one compare).
    pub fn advance_to(&self, now_ns: u64, registry: &MetricsRegistry) {
        let mut inner = lock(&self.inner);
        if now_ns < inner.next_at {
            return;
        }
        // One registry snapshot serves every boundary this event jumps
        // over; quiet gaps repeat the cumulative state with empty deltas.
        let snapshot = registry.snapshot();
        while inner.next_at <= now_ns {
            let t_ns = inner.next_at;
            let row = make_row(t_ns, self.interval_ns, &inner.prev, &snapshot);
            inner.rows.push(row);
            inner.prev = snapshot.clone();
            inner.next_at += self.interval_ns;
        }
    }

    /// Flushes every boundary up to and including `end_ns` (the run's
    /// final duration), so a run of duration `D` always yields
    /// `floor(D / interval)` rows even if no event landed near the end.
    pub fn finish(&self, end_ns: u64, registry: &MetricsRegistry) {
        self.advance_to(end_ns, registry);
    }

    /// Copies out the rows sampled so far.
    pub fn rows(&self) -> Vec<TimeSeriesRow> {
        lock(&self.inner).rows.clone()
    }

    /// Renders the rows as JSON Lines, one row object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &lock(&self.inner).rows {
            out.push_str(&row.to_json_string());
            out.push('\n');
        }
        out
    }

    /// Renders the rows as CSV with a fixed header. Gauges other than
    /// `dvfs_multiplier_milli` are omitted; use JSONL for the full set.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(CSV_HEADER);
        out.push('\n');
        for row in &lock(&self.inner).rows {
            let dvfs = row
                .gauges
                .get("dvfs_multiplier_milli")
                .map(|v| format!("{v}"))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{}",
                row.t_ns,
                row.queries_issued,
                row.queries_completed,
                row.samples_completed,
                row.in_flight,
                row.interval_completed,
                row.throughput_qps,
                row.p50_ns,
                row.p90_ns,
                row.p99_ns,
                dvfs,
            );
        }
        out
    }
}

fn make_row(
    t_ns: u64,
    interval_ns: u64,
    prev: &MetricsSnapshot,
    now: &MetricsSnapshot,
) -> TimeSeriesRow {
    let issued = now.counter("queries_issued");
    let completed = now.counter("queries_completed");
    let interval_completed = completed.saturating_sub(prev.counter("queries_completed"));
    let (p50, p90, p99) = match now.histogram("query_latency_ns") {
        Some(h) => {
            let delta = match prev.histogram("query_latency_ns") {
                Some(earlier) => h.delta_since(earlier),
                None => h.clone(),
            };
            if delta.count() == 0 {
                (0, 0, 0)
            } else {
                (
                    delta.quantile(0.50),
                    delta.quantile(0.90),
                    delta.quantile(0.99),
                )
            }
        }
        None => (0, 0, 0),
    };
    TimeSeriesRow {
        t_ns,
        queries_issued: issued,
        queries_completed: completed,
        samples_completed: now.counter("samples_completed"),
        in_flight: issued.saturating_sub(completed),
        interval_completed,
        throughput_qps: interval_completed as f64 / (interval_ns as f64 / 1e9),
        p50_ns: p50,
        p90_ns: p90,
        p99_ns: p99,
        gauges: now.gauges.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_one_row_per_boundary() {
        let registry = MetricsRegistry::new();
        let sampler = TimeSeriesSampler::new(1_000);
        for k in 0..10u64 {
            registry.incr("queries_issued", 1);
            registry.incr("queries_completed", 1);
            registry.observe("query_latency_ns", 100 * (k + 1));
            sampler.advance_to(k * 700, &registry);
        }
        sampler.finish(6_300, &registry);
        let rows = sampler.rows();
        assert_eq!(rows.len(), 6, "floor(6300 / 1000) boundaries");
        let ts: Vec<u64> = rows.iter().map(|r| r.t_ns).collect();
        assert_eq!(ts, vec![1_000, 2_000, 3_000, 4_000, 5_000, 6_000]);
    }

    #[test]
    fn quiet_gaps_repeat_cumulative_state_with_empty_deltas() {
        let registry = MetricsRegistry::new();
        let sampler = TimeSeriesSampler::new(100);
        registry.incr("queries_issued", 5);
        registry.incr("queries_completed", 3);
        registry.observe("query_latency_ns", 777);
        // One event far in the future crosses many boundaries at once.
        sampler.advance_to(450, &registry);
        let rows = sampler.rows();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].interval_completed, 3);
        assert!(rows[0].p50_ns >= 777);
        for row in &rows[1..] {
            assert_eq!(row.interval_completed, 0);
            assert_eq!(row.p50_ns, 0, "quiet interval has no latency sample");
            assert_eq!(row.queries_completed, 3, "cumulative state persists");
        }
        assert_eq!(rows[0].in_flight, 2);
    }

    #[test]
    fn interval_quantiles_use_delta_histogram() {
        let registry = MetricsRegistry::new();
        let sampler = TimeSeriesSampler::new(1_000);
        // Interval 1: fast completions.
        for _ in 0..100 {
            registry.incr("queries_completed", 1);
            registry.observe("query_latency_ns", 1_000);
        }
        sampler.advance_to(1_000, &registry);
        // Interval 2: 100x slower.
        for _ in 0..100 {
            registry.incr("queries_completed", 1);
            registry.observe("query_latency_ns", 100_000);
        }
        sampler.advance_to(2_000, &registry);
        let rows = sampler.rows();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].p50_ns <= 1_100, "first interval is fast");
        assert!(
            rows[1].p50_ns >= 90_000,
            "second interval must not be diluted by the first: {}",
            rows[1].p50_ns
        );
    }

    #[test]
    fn exports_parse_and_align() {
        let registry = MetricsRegistry::new();
        registry.set_gauge("dvfs_multiplier_milli", 1250.0);
        registry.incr("queries_issued", 2);
        let sampler = TimeSeriesSampler::new(50);
        sampler.advance_to(100, &registry);

        let jsonl = sampler.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            let row = JsonValue::parse(line).expect("valid JSON row");
            assert_eq!(row.field("queries_issued").unwrap().as_u64().unwrap(), 2);
            assert_eq!(
                row.field("gauges")
                    .unwrap()
                    .field("dvfs_multiplier_milli")
                    .unwrap()
                    .as_f64()
                    .unwrap(),
                1250.0
            );
        }

        let csv = sampler.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("t_ns,"));
        let first = lines.next().unwrap();
        assert_eq!(
            first.split(',').count(),
            header.split(',').count(),
            "row/header column mismatch: {first}"
        );
        assert!(first.ends_with("1250"), "{first}");
    }

    #[test]
    fn zero_interval_clamps() {
        let sampler = TimeSeriesSampler::new(0);
        assert_eq!(sampler.interval_ns(), 1);
    }
}
