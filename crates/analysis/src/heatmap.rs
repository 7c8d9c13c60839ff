//! Per-window latency heatmap rows.
//!
//! Reuses the timeseries sampler's interval convention: windows end at the
//! boundaries `k · interval`, each row covering `[(k-1)·interval,
//! k·interval)` of *completion* time, with `t_ns` stamped at the window's
//! end boundary and rows strictly increasing in `t_ns`. Latencies inside a
//! window are summarized by count, error count, nearest-rank p50/p99, the
//! max, and log2-bucketed counts (bucket `b` holds latencies in
//! `[2^(b-1), 2^b)`) so a renderer can paint intensity without re-reading
//! the log.

use std::collections::BTreeMap;

use mlperf_stats::Percentile;
use mlperf_trace::json::{JsonValue, ToJson};

use crate::segment::QueryPath;

/// One heatmap row: the latency profile of one completion-time window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeatmapRow {
    /// End boundary of the window (ns); the row covers
    /// `[t_ns - interval, t_ns)`.
    pub(crate) t_ns: u64,
    /// Queries that finished in the window.
    pub(crate) count: u64,
    /// Of those, how many resolved as errors.
    pub(crate) errors: u64,
    /// Nearest-rank median latency in the window (0 when empty).
    pub(crate) p50_ns: u64,
    /// Nearest-rank p99 latency in the window (0 when empty).
    pub(crate) p99_ns: u64,
    /// Largest latency in the window (0 when empty).
    pub(crate) max_ns: u64,
    /// Completions per log2 latency bucket: key `b` counts latencies in
    /// `[2^(b-1), 2^b)` ns (key 0 counts zero-latency completions).
    pub(crate) buckets: BTreeMap<u32, u64>,
}

impl ToJson for HeatmapRow {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("t_ns", self.t_ns.to_json_value()),
            ("count", self.count.to_json_value()),
            ("errors", self.errors.to_json_value()),
            ("p50_ns", self.p50_ns.to_json_value()),
            ("p99_ns", self.p99_ns.to_json_value()),
            ("max_ns", self.max_ns.to_json_value()),
            ("buckets", self.buckets.to_json_value()),
        ])
    }
}

/// log2 bucket index: 0 for 0ns, otherwise `floor(log2(ns)) + 1`.
fn bucket_of(ns: u64) -> u32 {
    if ns == 0 {
        0
    } else {
        64 - ns.leading_zeros()
    }
}

/// Buckets finished queries into completion-time windows of `interval_ns`.
///
/// Every window from the run start to the last completion is emitted —
/// including empty ones — so consecutive runs line up row-for-row.
/// Returns no rows when nothing finished. `interval_ns` is clamped to at
/// least 1.
pub fn heatmap(paths: &[QueryPath], interval_ns: u64) -> Vec<HeatmapRow> {
    let interval_ns = interval_ns.max(1);
    let mut windows: BTreeMap<u64, Vec<(u64, bool)>> = BTreeMap::new();
    let mut last = 0u64;
    for p in paths {
        let Some(completed_ns) = p.completed_ns else {
            continue;
        };
        let Some(e2e) = p.e2e_ns() else { continue };
        let index = completed_ns / interval_ns;
        windows.entry(index).or_default().push((e2e, p.error));
        last = last.max(index);
    }
    if windows.is_empty() {
        return Vec::new();
    }

    let mut rows = Vec::with_capacity(last as usize + 1);
    for index in 0..=last {
        let t_ns = (index + 1).saturating_mul(interval_ns);
        let Some(entries) = windows.get(&index) else {
            rows.push(HeatmapRow {
                t_ns,
                count: 0,
                errors: 0,
                p50_ns: 0,
                p99_ns: 0,
                max_ns: 0,
                buckets: BTreeMap::new(),
            });
            continue;
        };
        let mut latencies: Vec<u64> = entries.iter().map(|(e2e, _)| *e2e).collect();
        latencies.sort_unstable();
        let mut buckets = BTreeMap::new();
        for &ns in &latencies {
            *buckets.entry(bucket_of(ns)).or_insert(0u64) += 1;
        }
        rows.push(HeatmapRow {
            t_ns,
            count: entries.len() as u64,
            errors: entries.iter().filter(|(_, error)| *error).count() as u64,
            p50_ns: Percentile::new(50.0)
                .expect("50 in range")
                .of_sorted(&latencies),
            p99_ns: Percentile::P99.of_sorted(&latencies),
            max_ns: *latencies.last().expect("non-empty window"),
            buckets,
        });
    }
    rows
}

/// Renders heatmap rows as JSON Lines, one row per line.
pub fn heatmap_jsonl(rows: &[HeatmapRow]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&row.to_json_string());
        out.push('\n');
    }
    out
}

/// A default window width for a run spanning `span_ns`: the span split
/// into ~16 windows, rounded up to a 1/2/5 · 10^k "nice" width.
pub(crate) fn auto_interval(span_ns: u64) -> u64 {
    let target = span_ns / 16 + 1;
    let mut width = 1u64;
    loop {
        for nice in [width, width * 2, width * 5] {
            if nice >= target {
                return nice;
            }
        }
        match width.checked_mul(10) {
            Some(next) => width = next,
            None => return width,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(query_id: u64, completed_ns: u64, e2e: u64, error: bool) -> QueryPath {
        QueryPath {
            query_id,
            trace_id: 0,
            scheduled_ns: completed_ns - e2e,
            issued_ns: completed_ns - e2e,
            completed_ns: Some(completed_ns),
            error,
            server_spans: false,
            client_queue_ns: 0,
            server_queue_ns: 0,
            compute_ns: e2e as i64,
            network_ns: 0,
        }
    }

    #[test]
    fn rows_cover_every_window_and_stamp_end_boundaries() {
        let paths = vec![
            path(1, 500, 100, false),
            path(2, 2_500, 300, true),
            path(3, 2_600, 200, false),
        ];
        let rows = heatmap(&paths, 1_000);
        assert_eq!(rows.len(), 3, "windows 0..=2, empties included");
        assert_eq!(rows[0].t_ns, 1_000);
        assert_eq!(rows[1].count, 0, "window 1 is empty but present");
        assert_eq!(rows[2].t_ns, 3_000);
        assert_eq!(rows[2].count, 2);
        assert_eq!(rows[2].errors, 1);
        assert_eq!(rows[2].max_ns, 300);
        assert!(rows.windows(2).all(|w| w[0].t_ns < w[1].t_ns));
    }

    #[test]
    fn buckets_are_log2_of_latency() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
        let rows = heatmap(&[path(1, 100, 3, false)], 1_000);
        assert_eq!(rows[0].buckets.get(&2), Some(&1));
    }

    #[test]
    fn jsonl_is_one_row_per_line() {
        let rows = heatmap(&[path(1, 100, 50, false)], 1_000);
        let text = heatmap_jsonl(&rows);
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"t_ns\":1000"));
    }

    #[test]
    fn auto_interval_picks_nice_widths() {
        assert_eq!(auto_interval(0), 1);
        assert_eq!(auto_interval(16_000), 2_000, "16k/16 = 1k+1 rounds to 2k");
        assert_eq!(auto_interval(160), 20);
        assert_eq!(auto_interval(15), 1);
    }

    #[test]
    fn incomplete_queries_do_not_land_in_windows() {
        let mut p = path(1, 100, 50, false);
        p.completed_ns = None;
        assert!(heatmap(&[p], 10).is_empty());
    }
}
