//! Per-window rows of a run: its latency heatmap and its time series.
//!
//! Windows end at the boundaries `k · interval`, each row covering
//! `[(k-1)·interval, k·interval)` of *completion* time, with `t_ns` stamped
//! at the window's end boundary and rows strictly increasing in `t_ns`.
//! Latencies inside a window are summarized by count, error count,
//! nearest-rank p50/p99, the max, and log2-bucketed counts (bucket `b`
//! holds latencies in `[2^(b-1), 2^b)`) so a renderer can paint intensity
//! without re-reading the log.
//!
//! The same rows carry the run's load over time, derived from the detail
//! log alone, so every clock and transport that writes one has a series:
//! queries issued before the boundary, queries in flight at it, samples
//! completed in the window, and the device's DVFS state at it. Cumulative
//! completions are a running sum of `count` and throughput is `count`
//! over the interval, so neither is a column.

use std::collections::BTreeMap;

use mlperf_stats::Percentile;
use mlperf_trace::json::{JsonValue, ToJson};
use mlperf_trace::{TraceEvent, TraceRecord};

use crate::segment::QueryPath;

/// One row: the latency profile of one completion-time window and the
/// run's load at its end boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeatmapRow {
    /// End boundary of the window (ns); the row covers
    /// `[t_ns - interval, t_ns)`.
    pub t_ns: u64,
    /// Queries issued before `t_ns`, cumulative.
    pub issued: u64,
    /// Queries issued before `t_ns` and not yet resolved (completed or
    /// errored) before it.
    pub in_flight: u64,
    /// Queries that finished in the window.
    pub count: u64,
    /// Samples those queries carried.
    pub samples: u64,
    /// Of those queries, how many resolved as errors.
    pub(crate) errors: u64,
    /// Nearest-rank median latency in the window (0 when empty).
    pub(crate) p50_ns: u64,
    /// Nearest-rank p99 latency in the window (0 when empty).
    pub(crate) p99_ns: u64,
    /// Largest latency in the window (0 when empty).
    pub(crate) max_ns: u64,
    /// The thermal multiplier (in 1/1000ths) of the last
    /// `DvfsStateChange` at or before `t_ns`; `None` before the first one
    /// and for logs without device events.
    pub dvfs_milli: Option<u32>,
    /// Completions per log2 latency bucket: key `b` counts latencies in
    /// `[2^(b-1), 2^b)` ns (key 0 counts zero-latency completions).
    pub(crate) buckets: BTreeMap<u32, u64>,
}

impl ToJson for HeatmapRow {
    fn to_json_value(&self) -> JsonValue {
        let mut fields = vec![
            ("t_ns", self.t_ns.to_json_value()),
            ("issued", self.issued.to_json_value()),
            ("in_flight", self.in_flight.to_json_value()),
            ("count", self.count.to_json_value()),
            ("samples", self.samples.to_json_value()),
            ("errors", self.errors.to_json_value()),
            ("p50_ns", self.p50_ns.to_json_value()),
            ("p99_ns", self.p99_ns.to_json_value()),
            ("max_ns", self.max_ns.to_json_value()),
        ];
        if let Some(milli) = self.dvfs_milli {
            fields.push(("dvfs_milli", milli.to_json_value()));
        }
        fields.push(("buckets", self.buckets.to_json_value()));
        JsonValue::object(fields)
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

/// Buckets the finished queries of `paths` into completion-time windows of
/// `interval_ns`, and stamps each row with the load at its end boundary;
/// the DVFS column comes from the `DvfsStateChange` events of `records`,
/// the log `paths` was folded from.
///
/// Every window from the run start to the last completion is emitted —
/// including empty ones — so consecutive runs line up row-for-row.
/// Returns no rows when nothing finished. `interval_ns` is clamped to at
/// least 1.
pub fn heatmap(paths: &[QueryPath], records: &[TraceRecord], interval_ns: u64) -> Vec<HeatmapRow> {
    let interval_ns = interval_ns.max(1);
    let mut windows: BTreeMap<u64, Vec<(u64, bool, u64)>> = BTreeMap::new();
    let mut issued = Vec::with_capacity(paths.len());
    let mut resolved = Vec::with_capacity(paths.len());
    let mut last = 0u64;
    for p in paths {
        issued.push(p.issued_ns);
        let (Some(completed_ns), Some(e2e)) = (p.completed_ns, p.e2e_ns()) else {
            continue;
        };
        resolved.push(completed_ns);
        let index = completed_ns / interval_ns;
        windows
            .entry(index)
            .or_default()
            .push((e2e, p.error, p.sample_count));
        last = last.max(index);
    }
    if windows.is_empty() {
        return Vec::new();
    }
    issued.sort_unstable();
    resolved.sort_unstable();
    // Device events are stamped when a batch starts, which can be later
    // than the events logged after them; a stable sort keeps log order
    // among equal stamps, so the later record wins a tie.
    let mut dvfs: Vec<(u64, u32)> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::DvfsStateChange {
                multiplier_milli, ..
            } => Some((r.ts_ns, multiplier_milli)),
            _ => None,
        })
        .collect();
    dvfs.sort_by_key(|&(ts_ns, _)| ts_ns);

    let mut rows = Vec::with_capacity(last as usize + 1);
    for index in 0..=last {
        let t_ns = (index + 1).saturating_mul(interval_ns);
        let issued_by = issued.partition_point(|&ns| ns < t_ns) as u64;
        let resolved_by = resolved.partition_point(|&ns| ns < t_ns) as u64;
        let mut row = HeatmapRow {
            t_ns,
            issued: issued_by,
            in_flight: issued_by.saturating_sub(resolved_by),
            count: 0,
            samples: 0,
            errors: 0,
            p50_ns: 0,
            p99_ns: 0,
            max_ns: 0,
            dvfs_milli: dvfs[..dvfs.partition_point(|&(ns, _)| ns <= t_ns)]
                .last()
                .map(|&(_, milli)| milli),
            buckets: BTreeMap::new(),
        };
        if let Some(entries) = windows.get(&index) {
            let mut latencies: Vec<u64> = entries.iter().map(|(e2e, ..)| *e2e).collect();
            latencies.sort_unstable();
            for &ns in &latencies {
                *row.buckets.entry(bucket_of(ns)).or_insert(0u64) += 1;
            }
            row.count = entries.len() as u64;
            row.samples = entries.iter().map(|(.., samples)| samples).sum();
            row.errors = entries.iter().filter(|(_, error, _)| *error).count() as u64;
            row.p50_ns = Percentile::new(50.0)
                .expect("50 in range")
                .of_sorted(&latencies);
            row.p99_ns = Percentile::P99.of_sorted(&latencies);
            row.max_ns = *latencies.last().expect("non-empty window");
        }
        rows.push(row);
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
            sample_count: 1,
            error,
            server_spans: false,
            client_queue_ns: 0,
            server_queue_ns: 0,
            compute_ns: e2e as i64,
            network_ns: 0,
        }
    }

    fn dvfs(ts_ns: u64, multiplier_milli: u32) -> TraceRecord {
        TraceRecord {
            ts_ns,
            event: TraceEvent::DvfsStateChange {
                unit: 0,
                multiplier_milli,
            },
        }
    }

    #[test]
    fn rows_cover_every_window_and_stamp_end_boundaries() {
        let paths = vec![
            path(1, 500, 100, false),
            path(2, 2_500, 300, true),
            path(3, 2_600, 200, false),
        ];
        let rows = heatmap(&paths, &[], 1_000);
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
    fn load_columns_count_issues_and_resolutions_before_the_boundary() {
        let mut multi = path(3, 2_600, 200, false);
        multi.sample_count = 8;
        let mut open = path(4, 2_900, 1_900, false);
        open.completed_ns = None;
        let paths = vec![
            path(1, 500, 100, false),
            path(2, 2_500, 1_500, true),
            multi,
            open,
        ];
        let rows = heatmap(&paths, &[], 1_000);
        let load: Vec<(u64, u64, u64)> = rows
            .iter()
            .map(|r| (r.issued, r.in_flight, r.samples))
            .collect();
        // Issued at 400, 1_000, 1_000 and 2_400; resolved at 500, 2_500
        // (an error resolves too) and 2_600. A stamp on the boundary
        // belongs to the next window.
        assert_eq!(load, vec![(1, 0, 1), (3, 2, 0), (4, 1, 9)]);
    }

    #[test]
    fn dvfs_is_the_last_change_at_or_before_the_boundary() {
        let paths = vec![path(1, 500, 100, false), path(2, 3_500, 100, false)];
        // Logged out of stamp order, as a batch that starts later is.
        let records = vec![dvfs(3_000, 1_200), dvfs(2_000, 1_300), dvfs(3_000, 1_100)];
        let rows = heatmap(&paths, &records, 1_000);
        let column: Vec<Option<u32>> = rows.iter().map(|r| r.dvfs_milli).collect();
        assert_eq!(column, vec![None, Some(1_300), Some(1_100), Some(1_100)]);
        let text = heatmap_jsonl(&rows);
        assert!(!text.lines().next().unwrap().contains("dvfs_milli"));
        assert!(text.contains("\"dvfs_milli\":1300"));
    }

    #[test]
    fn buckets_are_log2_of_latency() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
        let rows = heatmap(&[path(1, 100, 3, false)], &[], 1_000);
        assert_eq!(rows[0].buckets.get(&2), Some(&1));
    }

    #[test]
    fn jsonl_is_one_row_per_line() {
        let rows = heatmap(&[path(1, 100, 50, false)], &[], 1_000);
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
        assert!(heatmap(&[p], &[], 10).is_empty());
    }
}
