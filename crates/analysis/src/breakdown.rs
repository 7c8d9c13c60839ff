//! Per-percentile attribution: which segment owns each tail percentile.
//!
//! The scenario verdicts hinge on nearest-rank percentiles of the scored
//! latency, so the explanation uses the *same* convention
//! ([`mlperf_stats::Percentile`]'s `ceil(p·n)` rank, 1-indexed): for each
//! reporting percentile the query actually sitting at that rank is named,
//! its segment split shown, and the percentile attributed to the query's
//! dominant segment. Aggregate segment totals over all completed queries
//! round out the table.

use mlperf_trace::json::{JsonValue, ToJson};

use crate::segment::{QueryPath, Segment};

/// The reporting percentiles, as `(label, fraction)` pairs.
pub(crate) const REPORT_PERCENTILES: [(&str, f64); 4] = [
    ("p50", 0.50),
    ("p90", 0.90),
    ("p99", 0.99),
    ("p99.9", 0.999),
];

/// One row of the per-percentile breakdown table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PercentileRow {
    /// Percentile label (`p50` ... `p99.9`).
    pub(crate) label: &'static str,
    /// The percentile as a fraction in `(0, 1)`.
    pub(crate) fraction: f64,
    /// End-to-end latency at this percentile (ns).
    pub(crate) e2e_ns: u64,
    /// The query sitting at the nearest rank.
    pub(crate) query_id: u64,
    /// Its distributed trace id (0 for local runs).
    pub(crate) trace_id: u64,
    /// Its issue slip (ns).
    pub(crate) client_queue_ns: i64,
    /// Its network residual (ns).
    pub(crate) network_ns: i64,
    /// Its server-side queueing (ns).
    pub(crate) server_queue_ns: i64,
    /// Its compute residency (ns).
    pub(crate) compute_ns: i64,
    /// The segment this percentile is attributed to.
    pub(crate) dominant: Segment,
}

impl ToJson for PercentileRow {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("percentile", self.label.to_json_value()),
            ("e2e_ns", self.e2e_ns.to_json_value()),
            ("query_id", self.query_id.to_json_value()),
            ("trace_id", self.trace_id.to_json_value()),
            ("client_queue_ns", self.client_queue_ns.to_json_value()),
            ("network_ns", self.network_ns.to_json_value()),
            ("server_queue_ns", self.server_queue_ns.to_json_value()),
            ("compute_ns", self.compute_ns.to_json_value()),
            ("dominant", self.dominant.label().to_json_value()),
        ])
    }
}

/// Summed segment time over all completed queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SegmentTotals {
    /// Total issue slip (ns).
    pub(crate) client_queue_ns: i64,
    /// Total network residual (ns).
    pub(crate) network_ns: i64,
    /// Total server-side queueing (ns).
    pub(crate) server_queue_ns: i64,
    /// Total compute residency (ns).
    pub(crate) compute_ns: i64,
    /// Total end-to-end latency (ns).
    pub(crate) e2e_ns: i64,
}

impl SegmentTotals {
    /// `(segment, total_ns, share_of_e2e)` rows in reporting order. Shares
    /// are 0 when no latency was recorded.
    pub(crate) fn rows(&self) -> [(Segment, i64, f64); 4] {
        let share = |ns: i64| {
            if self.e2e_ns > 0 {
                ns as f64 / self.e2e_ns as f64
            } else {
                0.0
            }
        };
        [
            (
                Segment::ClientQueue,
                self.client_queue_ns,
                share(self.client_queue_ns),
            ),
            (Segment::Network, self.network_ns, share(self.network_ns)),
            (
                Segment::ServerQueue,
                self.server_queue_ns,
                share(self.server_queue_ns),
            ),
            (Segment::Compute, self.compute_ns, share(self.compute_ns)),
        ]
    }
}

impl ToJson for SegmentTotals {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("client_queue_ns", self.client_queue_ns.to_json_value()),
            ("network_ns", self.network_ns.to_json_value()),
            ("server_queue_ns", self.server_queue_ns.to_json_value()),
            ("compute_ns", self.compute_ns.to_json_value()),
            ("e2e_ns", self.e2e_ns.to_json_value()),
        ])
    }
}

/// The full percentile breakdown of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Queries seen in the log (issued).
    pub queries: usize,
    /// Queries that completed successfully.
    pub(crate) completed: usize,
    /// Queries that resolved as errors/drops.
    pub(crate) errored: usize,
    /// Queries that never finished.
    pub(crate) incomplete: usize,
    /// One row per reporting percentile (empty when nothing finished).
    pub(crate) rows: Vec<PercentileRow>,
    /// Segment sums over every finished query.
    pub(crate) totals: SegmentTotals,
    /// Largest `|e2e - sum(segments)|` across queries — 0 by construction;
    /// `analyze --check` asserts it stayed that way.
    pub max_residual_ns: u64,
}

impl ToJson for Breakdown {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("queries", self.queries.to_json_value()),
            ("completed", self.completed.to_json_value()),
            ("errored", self.errored.to_json_value()),
            ("incomplete", self.incomplete.to_json_value()),
            ("percentiles", self.rows.to_json_value()),
            ("totals", self.totals.to_json_value()),
            ("max_residual_ns", self.max_residual_ns.to_json_value()),
        ])
    }
}

/// Builds the percentile breakdown from reconstructed query paths.
pub(crate) fn breakdown(paths: &[QueryPath]) -> Breakdown {
    let mut finished: Vec<&QueryPath> = paths.iter().filter(|p| p.completed_ns.is_some()).collect();
    // Nearest-rank over the scored latency; ties broken by query id so the
    // named query is deterministic.
    finished.sort_by_key(|p| (p.e2e_ns().unwrap_or(0), p.query_id));

    let errored = paths.iter().filter(|p| p.error).count();
    let incomplete = paths.len() - finished.len();

    let mut totals = SegmentTotals::default();
    let mut max_residual_ns = 0u64;
    for p in &finished {
        totals.client_queue_ns += p.client_queue_ns;
        totals.network_ns += p.network_ns;
        totals.server_queue_ns += p.server_queue_ns;
        totals.compute_ns += p.compute_ns;
        totals.e2e_ns += p.e2e_ns().unwrap_or(0) as i64;
        max_residual_ns = max_residual_ns.max(p.residual_ns().unsigned_abs());
    }

    let mut rows = Vec::new();
    let n = finished.len();
    if n > 0 {
        for (label, fraction) in REPORT_PERCENTILES {
            let rank = ((fraction * n as f64).ceil() as usize).clamp(1, n);
            let p = finished[rank - 1];
            rows.push(PercentileRow {
                label,
                fraction,
                e2e_ns: p.e2e_ns().unwrap_or(0),
                query_id: p.query_id,
                trace_id: p.trace_id,
                client_queue_ns: p.client_queue_ns,
                network_ns: p.network_ns,
                server_queue_ns: p.server_queue_ns,
                compute_ns: p.compute_ns,
                dominant: p.dominant(),
            });
        }
    }

    Breakdown {
        queries: paths.len(),
        completed: finished.len() - errored.min(finished.len()),
        errored,
        incomplete,
        rows,
        totals,
        max_residual_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(query_id: u64, e2e: i64, compute: i64) -> QueryPath {
        QueryPath {
            query_id,
            trace_id: 0,
            scheduled_ns: 0,
            issued_ns: 0,
            completed_ns: Some(e2e as u64),
            sample_count: 1,
            error: false,
            server_spans: false,
            client_queue_ns: e2e - compute,
            server_queue_ns: 0,
            compute_ns: compute,
            network_ns: 0,
        }
    }

    #[test]
    fn percentile_rows_use_nearest_rank_and_name_the_query() {
        // 100 queries with e2e = 1..=100; p99 must land on query 99
        // (rank ceil(0.99*100)=99), p50 on query 50.
        let paths: Vec<QueryPath> = (1..=100).map(|i| path(i, i as i64 * 10, 5)).collect();
        let b = breakdown(&paths);
        assert_eq!(b.queries, 100);
        assert_eq!(b.completed, 100);
        let p50 = &b.rows[0];
        assert_eq!(p50.label, "p50");
        assert_eq!(p50.query_id, 50);
        assert_eq!(p50.e2e_ns, 500);
        let p999 = &b.rows[3];
        assert_eq!(p999.query_id, 100, "p99.9 of 100 clamps to the max");
        assert_eq!(b.max_residual_ns, 0);
    }

    #[test]
    fn dominant_segment_is_attributed_per_row() {
        // Slow tail dominated by client queueing, fast half by compute.
        let mut paths: Vec<QueryPath> = (1..=9).map(|i| path(i, 100, 90)).collect();
        paths.push(path(10, 10_000, 100));
        let b = breakdown(&paths);
        let p50 = &b.rows[0];
        assert_eq!(p50.dominant, Segment::Compute);
        let p999 = &b.rows[3];
        assert_eq!(p999.query_id, 10);
        assert_eq!(p999.dominant, Segment::ClientQueue);
    }

    #[test]
    fn counts_split_completed_errored_incomplete() {
        let mut paths = vec![path(1, 100, 50), path(2, 200, 50)];
        paths[1].error = true;
        paths.push(QueryPath {
            completed_ns: None,
            ..path(3, 0, 0)
        });
        let b = breakdown(&paths);
        assert_eq!(b.queries, 3);
        assert_eq!(b.completed, 1);
        assert_eq!(b.errored, 1);
        assert_eq!(b.incomplete, 1);
    }

    #[test]
    fn empty_logs_produce_no_rows() {
        let b = breakdown(&[]);
        assert!(b.rows.is_empty());
        assert_eq!(b.queries, 0);
    }

    #[test]
    fn totals_sum_segments_and_e2e() {
        let paths = vec![path(1, 100, 40), path(2, 300, 200)];
        let b = breakdown(&paths);
        assert_eq!(b.totals.e2e_ns, 400);
        assert_eq!(b.totals.compute_ns, 240);
        assert_eq!(b.totals.client_queue_ns, 160);
        let rows = b.totals.rows();
        assert!((rows[3].2 - 0.6).abs() < 1e-9);
    }
}
