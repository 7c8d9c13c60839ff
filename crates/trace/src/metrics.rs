//! Run metrics: counters, gauges, and a log-bucketed latency histogram.
//!
//! The histogram is hdr-histogram-flavoured but hand-rolled (the build
//! environment is offline): values are bucketed by octave with
//! `2^SUB_BITS` linear sub-buckets per octave, giving a worst-case
//! relative error of `2^-SUB_BITS` (~3% at the default of 5 bits) while
//! staying O(1) to record into.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::{FromJson, JsonError, JsonValue, ToJson};
use crate::sync::lock;

/// Linear sub-buckets per octave = `2^SUB_BITS`.
const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// The bucket `u64::MAX` lands in: no value maps past it.
const LAST_BUCKET: u32 = LogHistogram::bucket_index(u64::MAX);

/// A latency histogram with logarithmic buckets.
///
/// Values below `2^SUB_BITS` are stored exactly; larger values land in the
/// sub-bucket `[lower, upper)` whose width is `upper / 2^SUB_BITS`, so any
/// reported quantile is within one bucket width (~3% relative) of the true
/// value.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LogHistogram {
    /// Count per bucket index, dense up to the highest non-empty bucket
    /// (never a trailing zero, so equal histograms are equal vectors).
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    const fn bucket_index(value: u64) -> u32 {
        if value < SUB_COUNT {
            return value as u32;
        }
        // The octave is indexed by the position of the leading bit; within
        // it, the next SUB_BITS bits select the linear sub-bucket.
        let octave = 63 - value.leading_zeros();
        let sub = (value >> (octave - SUB_BITS)) & (SUB_COUNT - 1);
        ((octave - SUB_BITS + 1) * SUB_COUNT as u32) + sub as u32
    }

    /// Upper bound (inclusive) of the bucket holding `value`s mapped to
    /// `index`.
    fn bucket_upper(index: u32) -> u64 {
        if (index as u64) < SUB_COUNT {
            return index as u64;
        }
        let octave = index / SUB_COUNT as u32 + SUB_BITS - 1;
        let sub = (index % SUB_COUNT as u32) as u64;
        let base = 1u64 << octave;
        let width = base >> SUB_BITS;
        // `base - 1` first: the topmost bucket's bound is exactly u64::MAX,
        // and adding before subtracting would overflow.
        (base - 1) + (sub + 1) * width
    }

    /// Width of the bucket with the given index (1 for exact buckets).
    fn bucket_width(index: u32) -> u64 {
        if (index as u64) < SUB_COUNT {
            return 1;
        }
        let octave = index / SUB_COUNT as u32 + SUB_BITS - 1;
        (1u64 << octave) >> SUB_BITS
    }

    /// The non-empty buckets, lowest index first.
    fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        (0u32..)
            .zip(self.counts.iter().copied())
            .filter(|&(_, count)| count > 0)
    }

    /// `counts[index]`, growing the vector to hold it.
    fn slot(&mut self, index: u32) -> &mut u64 {
        let index = index as usize;
        if index >= self.counts.len() {
            self.counts.resize(index + 1, 0);
        }
        &mut self.counts[index]
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        *self.slot(Self::bucket_index(value)) += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`, reported as the upper bound
    /// of the containing bucket (clamped to the recorded max).
    ///
    /// Uses the nearest-rank definition (`ceil(q * count)`), matching the
    /// percentile selection in the results layer.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (index, count) in self.buckets() {
            seen += count;
            if seen >= rank {
                return Self::bucket_upper(index).min(self.max);
            }
        }
        self.max
    }

    /// The width of the bucket containing quantile `q` — the resolution of
    /// the [`quantile`](Self::quantile) estimate at that point.
    pub fn quantile_resolution(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (index, count) in self.buckets() {
            seen += count;
            if seen >= rank {
                return Self::bucket_width(index);
            }
        }
        1
    }

    /// The values recorded into `self` after `earlier` was snapshotted from
    /// it: per-bucket count difference, used by the time-series sampler to
    /// compute per-interval quantiles from the cumulative run histogram.
    ///
    /// `earlier` must be a previous snapshot of the same histogram;
    /// differences are saturating, so an unrelated histogram degrades to an
    /// empty-ish delta instead of panicking. The delta's `min`/`max` are
    /// the cumulative bounds (the exact interval extrema are not
    /// recoverable from bucket counts), which only widens — never
    /// misplaces — the reported quantile bucket.
    pub fn delta_since(&self, earlier: &LogHistogram) -> LogHistogram {
        let mut counts: Vec<u64> = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, count)| count.saturating_sub(earlier.counts.get(i).copied().unwrap_or(0)))
            .collect();
        trim(&mut counts);
        let total = self.total.saturating_sub(earlier.total);
        LogHistogram {
            counts,
            total,
            sum: self.sum.saturating_sub(earlier.sum),
            min: if total == 0 { u64::MAX } else { self.min },
            max: if total == 0 { 0 } else { self.max },
        }
    }
}

/// Drops trailing empty buckets, the one shape [`LogHistogram`] keeps.
fn trim(counts: &mut Vec<u64>) {
    while counts.last() == Some(&0) {
        counts.pop();
    }
}

impl ToJson for LogHistogram {
    fn to_json_value(&self) -> JsonValue {
        let buckets: Vec<JsonValue> = self
            .buckets()
            .map(|(index, count)| {
                JsonValue::Array(vec![
                    JsonValue::Int(i128::from(index)),
                    JsonValue::Int(i128::from(count)),
                ])
            })
            .collect();
        JsonValue::object(vec![
            ("sub_bits", SUB_BITS.to_json_value()),
            ("buckets", JsonValue::Array(buckets)),
            ("total", self.total.to_json_value()),
            ("sum", JsonValue::Int(self.sum as i128)),
            ("min", self.min().to_json_value()),
            ("max", self.max.to_json_value()),
        ])
    }
}

impl FromJson for LogHistogram {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        let sub_bits = value.field("sub_bits")?.as_u32()?;
        if sub_bits != SUB_BITS {
            return Err(JsonError::new(format!(
                "histogram sub_bits mismatch: file has {sub_bits}, expected {SUB_BITS}"
            )));
        }
        let mut histogram = LogHistogram::new();
        for entry in value.field("buckets")?.as_array()? {
            let pair = entry.as_array()?;
            if pair.len() != 2 {
                return Err(JsonError::new("histogram bucket must be [index, count]"));
            }
            let index = pair[0].as_u32()?;
            if index > LAST_BUCKET {
                return Err(JsonError::new(format!(
                    "histogram bucket {index} past the last, {LAST_BUCKET}"
                )));
            }
            *histogram.slot(index) = pair[1].as_u64()?;
        }
        trim(&mut histogram.counts);
        let total = value.field("total")?.as_u64()?;
        let sum = match value.field("sum")? {
            JsonValue::Int(i) => {
                u128::try_from(*i).map_err(|_| JsonError::new("histogram sum out of range"))?
            }
            other => {
                return Err(JsonError::new(format!(
                    "expected integer sum, found {}",
                    other.to_compact()
                )))
            }
        };
        let min = value.field("min")?.as_u64()?;
        Ok(LogHistogram {
            total,
            sum,
            min: if total == 0 { u64::MAX } else { min },
            max: value.field("max")?.as_u64()?,
            ..histogram
        })
    }
}

/// A point-in-time, serializable view of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Latency histograms by name.
    pub histograms: BTreeMap<String, LogHistogram>,
}

impl MetricsSnapshot {
    /// Convenience accessor: a counter's value, defaulting to 0.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Convenience accessor: a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }
}

impl ToJson for MetricsSnapshot {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("counters", self.counters.to_json_value()),
            ("gauges", self.gauges.to_json_value()),
            ("histograms", self.histograms.to_json_value()),
        ])
    }
}

impl FromJson for MetricsSnapshot {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        fn map_of<T: FromJson>(value: &JsonValue) -> Result<BTreeMap<String, T>, JsonError> {
            match value {
                JsonValue::Object(fields) => fields
                    .iter()
                    .map(|(k, v)| Ok((k.clone(), T::from_json_value(v)?)))
                    .collect(),
                other => Err(JsonError::new(format!(
                    "expected object, found {}",
                    other.to_compact()
                ))),
            }
        }
        Ok(MetricsSnapshot {
            counters: map_of(value.field("counters")?)?,
            gauges: map_of(value.field("gauges")?)?,
            histograms: map_of(value.field("histograms")?)?,
        })
    }
}

/// One counter's cell: its value, and whether anything was ever added to
/// it. A counter that was only resolved stays out of the snapshot, as one
/// that was never named does; an add of 0 puts it in, as it always has.
/// Both are statistics that publish no other data, so they are `Relaxed`:
/// a snapshot taken after the updating threads are joined sees every add.
#[derive(Debug, Default)]
struct CounterCell {
    value: AtomicU64,
    touched: AtomicBool,
}

/// A counter resolved once from a [`MetricsRegistry`]: an add is an atomic
/// add and a store, with no lookup and no lock.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<CounterCell>);

impl Counter {
    /// Adds `delta` to the counter.
    #[inline]
    pub fn incr(&self, delta: u64) {
        self.0.value.fetch_add(delta, Ordering::Relaxed);
        self.0.touched.store(true, Ordering::Relaxed);
    }
}

/// A histogram resolved once from a [`MetricsRegistry`]: a record takes
/// this histogram's own lock and nothing else.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<Mutex<LogHistogram>>);

impl Histogram {
    /// Records a value into the histogram.
    #[inline]
    pub fn observe(&self, value: u64) {
        lock(&self.0).record(value);
    }
}

/// The registry's cells by name. A name is looked up, and allocated, once
/// per registry; after that an update touches only its own cell.
#[derive(Debug, Default)]
struct Cells {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Cells {
    fn counter(&mut self, name: &str) -> &Counter {
        if !self.counters.contains_key(name) {
            self.counters.insert(name.to_string(), Counter::default());
        }
        &self.counters[name]
    }

    fn histogram(&mut self, name: &str) -> &Histogram {
        if !self.histograms.contains_key(name) {
            self.histograms
                .insert(name.to_string(), Histogram::default());
        }
        &self.histograms[name]
    }
}

/// A shareable registry of run metrics.
///
/// All methods take `&self`; the registry is safe to share behind an `Arc`
/// between the LoadGen loop and device engines. A hot path resolves its
/// [`Counter`] and [`Histogram`] handles once; [`incr`](Self::incr) and
/// [`observe`](Self::observe) find the same cells by name, holding the
/// registry's lock for the lookup and the update.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    cells: Mutex<Cells>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The named counter's handle, creating its cell if needed. The
    /// counter enters [`snapshot`](Self::snapshot) at its first add.
    pub fn counter(&self, name: &str) -> Counter {
        lock(&self.cells).counter(name).clone()
    }

    /// The named histogram's handle, creating its cell if needed. The
    /// histogram enters [`snapshot`](Self::snapshot) at its first record.
    pub fn histogram(&self, name: &str) -> Histogram {
        lock(&self.cells).histogram(name).clone()
    }

    /// Adds `delta` to the named counter.
    pub fn incr(&self, name: &str, delta: u64) {
        lock(&self.cells).counter(name).incr(delta);
    }

    /// Sets the named gauge.
    pub fn set_gauge(&self, name: &str, value: f64) {
        lock(&self.cells).gauges.insert(name.to_string(), value);
    }

    /// Records a value into the named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        lock(&self.cells).histogram(name).observe(value);
    }

    /// Merges the cells into a point-in-time view: every counter that was
    /// added to, every gauge, and every histogram that recorded a value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let cells = lock(&self.cells);
        let counters = cells
            .counters
            .iter()
            .filter(|(_, c)| c.0.touched.load(Ordering::Relaxed))
            .map(|(name, c)| (name.clone(), c.0.value.load(Ordering::Relaxed)))
            .collect();
        let histograms = cells
            .histograms
            .iter()
            .filter_map(|(name, h)| {
                let h = lock(&h.0);
                (h.count() > 0).then(|| (name.clone(), h.clone()))
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: cells.gauges.clone(),
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..SUB_COUNT {
            h.record(v);
        }
        for v in 0..SUB_COUNT {
            let q = (v + 1) as f64 / SUB_COUNT as f64;
            assert_eq!(h.quantile(q), v);
        }
    }

    #[test]
    fn quantile_error_bounded_by_bucket_width() {
        let mut h = LogHistogram::new();
        let mut values: Vec<u64> = (0..10_000u64).map(|i| i * i % 900_001 + 37).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.97, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let approx = h.quantile(q);
            let width = h.quantile_resolution(q);
            assert!(
                approx >= exact && approx - exact <= width,
                "q={q}: exact {exact}, approx {approx}, width {width}"
            );
        }
    }

    #[test]
    fn an_empty_histogram_reports_zeros() {
        let ee = LogHistogram::new();
        assert_eq!(ee.count(), 0);
        assert_eq!(ee.min(), 0);
        assert_eq!(ee.max(), 0);
        assert_eq!(ee.quantile(0.99), 0);
        assert_eq!(ee.quantile_resolution(0.99), 0);
    }

    #[test]
    fn quantile_resolution_bounds_error_at_bucket_boundaries() {
        // Values sitting exactly on and adjacent to bucket edges: powers of
        // two open a new octave, so off-by-one errors in the index math
        // would show up precisely here.
        let mut h = LogHistogram::new();
        let mut values = Vec::new();
        for octave in SUB_BITS..40 {
            let base = 1u64 << octave;
            for v in [base - 1, base, base + 1] {
                h.record(v);
                values.push(v);
            }
        }
        values.sort_unstable();
        let n = values.len();
        for rank in 1..=n {
            let q = rank as f64 / n as f64;
            let exact = values[rank - 1];
            let approx = h.quantile(q);
            let width = h.quantile_resolution(q);
            assert!(
                approx >= exact && approx - exact <= width,
                "q={q}: exact {exact}, approx {approx}, width {width}"
            );
        }
    }

    #[test]
    fn quantile_resolution_exact_below_sub_count() {
        let mut h = LogHistogram::new();
        for v in 0..SUB_COUNT {
            h.record(v);
        }
        // Every value below 2^SUB_BITS is stored exactly: width 1.
        for q in [0.01, 0.5, 1.0] {
            assert_eq!(h.quantile_resolution(q), 1);
        }
    }

    #[test]
    fn delta_since_matches_late_recordings() {
        let mut h = LogHistogram::new();
        for v in [10u64, 20, 300] {
            h.record(v);
        }
        let snapshot = h.clone();
        let mut late_only = LogHistogram::new();
        for v in [400u64, 5_000, 20, 1 << 20] {
            h.record(v);
            late_only.record(v);
        }
        let delta = h.delta_since(&snapshot);
        assert_eq!(delta.count(), 4);
        assert_eq!(delta.counts, late_only.counts);
        assert_eq!(delta.sum, late_only.sum);
        // Quantiles over the delta agree with the late-only histogram.
        for q in [0.25, 0.5, 0.75, 1.0] {
            assert_eq!(delta.quantile(q), late_only.quantile(q));
        }
    }

    #[test]
    fn delta_since_self_is_empty() {
        let mut h = LogHistogram::new();
        h.record(42);
        let delta = h.delta_since(&h.clone());
        assert_eq!(delta.count(), 0);
        assert_eq!(delta.quantile(0.5), 0);
        assert_eq!(delta, LogHistogram::new());
    }

    #[test]
    fn histogram_json_roundtrip() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 31, 32, 1000, 123_456_789, u64::MAX / 2, u64::MAX] {
            h.record(v);
        }
        let text = h.to_json_string();
        assert_eq!(LogHistogram::from_json_str(&text).unwrap(), h);
        // No value lands past the last bucket, so no document may name one.
        let past = text.replace(
            &format!("[{LAST_BUCKET},1]"),
            &format!("[{},1]", LAST_BUCKET + 1),
        );
        assert_ne!(past, text);
        assert!(LogHistogram::from_json_str(&past).is_err());

        let empty = LogHistogram::new();
        let text = empty.to_json_string();
        assert_eq!(LogHistogram::from_json_str(&text).unwrap(), empty);
    }

    #[test]
    fn registry_snapshot_roundtrip() {
        let registry = MetricsRegistry::new();
        registry.incr("queries_issued", 3);
        registry.incr("queries_issued", 2);
        registry.set_gauge("target_qps", 120.5);
        for v in [10u64, 20, 30_000] {
            registry.observe("latency_ns", v);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("queries_issued"), 5);
        assert_eq!(snap.gauges["target_qps"], 120.5);
        assert_eq!(snap.histogram("latency_ns").unwrap().count(), 3);

        let text = snap.to_json_string();
        assert_eq!(MetricsSnapshot::from_json_str(&text).unwrap(), snap);
    }

    #[test]
    fn a_resolved_handle_enters_the_snapshot_at_its_first_update() {
        let registry = MetricsRegistry::new();
        let (counter, histogram) = (registry.counter("c"), registry.histogram("h"));
        assert_eq!(registry.snapshot(), MetricsSnapshot::default());
        // An add of 0 is an update, as it was when every add named its key.
        counter.incr(0);
        let snap = registry.snapshot();
        assert_eq!(snap.counters.get("c"), Some(&0));
        assert!(snap.histograms.is_empty());
        histogram.observe(7);
        assert_eq!(
            registry.snapshot().histogram("h").map(LogHistogram::count),
            Some(1)
        );
    }

    #[test]
    fn concurrent_adds_to_one_counter_sum_exactly() {
        let registry = MetricsRegistry::new();
        let handle = registry.counter("queries_completed");
        std::thread::scope(|scope| {
            scope.spawn(|| (0..100_000).for_each(|_| handle.incr(1)));
            (0..100_000).for_each(|_| registry.incr("queries_completed", 1));
        });
        assert_eq!(registry.snapshot().counter("queries_completed"), 200_000);
    }

    #[test]
    fn max_value_does_not_overflow() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }
}
