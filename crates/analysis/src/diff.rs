//! Cross-run diff: which segment regressed between two runs.
//!
//! Two recorded runs (detail logs reduced to [`QueryPath`]s) are compared
//! segment-by-segment at the nearest-rank quantiles from `crates/stats`;
//! the verdict names the segment whose p99 regressed the most. Two
//! metrics-JSON snapshots diff the same way over their shared histograms,
//! so a `netbench --metrics` document compares without a detail log.

use mlperf_stats::Percentile;
use mlperf_trace::json::{JsonValue, ToJson};
use mlperf_trace::MetricsSnapshot;

use crate::segment::{QueryPath, Segment};

/// Nearest-rank p50/p90/p99/p99.9 of one latency population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuantileSet {
    /// Median (ns).
    pub(crate) p50_ns: i64,
    /// 90th percentile (ns).
    pub(crate) p90_ns: i64,
    /// 99th percentile (ns).
    pub p99_ns: i64,
    /// 99.9th percentile (ns).
    pub(crate) p999_ns: i64,
}

impl QuantileSet {
    fn of(values: &mut [i64]) -> QuantileSet {
        if values.is_empty() {
            return QuantileSet::default();
        }
        values.sort_unstable();
        let q = |p: f64| {
            Percentile::new(p)
                .expect("reporting percentile")
                .of_sorted(values)
        };
        QuantileSet {
            p50_ns: q(50.0),
            p90_ns: q(90.0),
            p99_ns: q(99.0),
            p999_ns: q(99.9),
        }
    }
}

impl ToJson for QuantileSet {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("p50_ns", self.p50_ns.to_json_value()),
            ("p90_ns", self.p90_ns.to_json_value()),
            ("p99_ns", self.p99_ns.to_json_value()),
            ("p999_ns", self.p999_ns.to_json_value()),
        ])
    }
}

/// One compared population (a segment, `e2e`, or a metrics histogram).
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Population name.
    pub name: String,
    /// Baseline quantiles.
    pub base: QuantileSet,
    /// Candidate quantiles.
    pub cand: QuantileSet,
    /// `cand.p99 - base.p99` (ns).
    pub delta_p99_ns: i64,
    /// p99 delta relative to the baseline, in percent (0 when the
    /// baseline p99 is 0).
    pub delta_p99_pct: f64,
}

impl DiffRow {
    fn new(name: impl Into<String>, base: QuantileSet, cand: QuantileSet) -> DiffRow {
        let delta_p99_ns = cand.p99_ns - base.p99_ns;
        let delta_p99_pct = if base.p99_ns != 0 {
            delta_p99_ns as f64 * 100.0 / base.p99_ns as f64
        } else {
            0.0
        };
        DiffRow {
            name: name.into(),
            base,
            cand,
            delta_p99_ns,
            delta_p99_pct,
        }
    }
}

impl ToJson for DiffRow {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("name", self.name.to_json_value()),
            ("base", self.base.to_json_value()),
            ("cand", self.cand.to_json_value()),
            ("delta_p99_ns", self.delta_p99_ns.to_json_value()),
            ("delta_p99_pct", self.delta_p99_pct.to_json_value()),
        ])
    }
}

/// The segment-level comparison of two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDiff {
    /// Finished queries in the baseline.
    pub base_queries: usize,
    /// Finished queries in the candidate.
    pub cand_queries: usize,
    /// `e2e` first, then the four segments in reporting order.
    pub rows: Vec<DiffRow>,
    /// Names whose p99 regressed beyond the tolerance, worst first.
    pub regressed: Vec<String>,
    /// One-line explanation of what moved.
    pub verdict: String,
}

fn segment_values(paths: &[QueryPath], segment: Segment) -> Vec<i64> {
    paths
        .iter()
        .filter(|p| p.completed_ns.is_some())
        .map(|p| match segment {
            Segment::ClientQueue => p.client_queue_ns,
            Segment::Network => p.network_ns,
            Segment::ServerQueue => p.server_queue_ns,
            Segment::Compute => p.compute_ns,
        })
        .collect()
}

fn finish_diff(
    base_queries: usize,
    cand_queries: usize,
    rows: Vec<DiffRow>,
    tolerance_pct: f64,
) -> RunDiff {
    let mut regressed: Vec<&DiffRow> = rows
        .iter()
        .filter(|r| r.delta_p99_ns > 0 && r.delta_p99_pct > tolerance_pct)
        .collect();
    regressed.sort_by(|a, b| {
        b.delta_p99_pct
            .partial_cmp(&a.delta_p99_pct)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.name.cmp(&b.name))
    });
    let verdict = match regressed.first() {
        Some(worst) => format!(
            "{} regressed {:.1}% at p99 ({} -> {} ns)",
            worst.name, worst.delta_p99_pct, worst.base.p99_ns, worst.cand.p99_ns
        ),
        None => format!("no population regressed beyond {tolerance_pct}% at p99"),
    };
    RunDiff {
        base_queries,
        cand_queries,
        regressed: regressed.iter().map(|r| r.name.clone()).collect(),
        rows,
        verdict,
    }
}

/// Compares two runs segment-by-segment. `tolerance_pct` is the p99
/// regression (in percent of the baseline) above which a segment is
/// flagged.
pub fn diff_paths(base: &[QueryPath], cand: &[QueryPath], tolerance_pct: f64) -> RunDiff {
    let mut rows = Vec::new();
    let mut base_e2e: Vec<i64> = base
        .iter()
        .filter_map(|p| p.e2e_ns())
        .map(|v| v as i64)
        .collect();
    let mut cand_e2e: Vec<i64> = cand
        .iter()
        .filter_map(|p| p.e2e_ns())
        .map(|v| v as i64)
        .collect();
    let base_queries = base_e2e.len();
    let cand_queries = cand_e2e.len();
    rows.push(DiffRow::new(
        "e2e",
        QuantileSet::of(&mut base_e2e),
        QuantileSet::of(&mut cand_e2e),
    ));
    for segment in Segment::ALL {
        rows.push(DiffRow::new(
            segment.label(),
            QuantileSet::of(&mut segment_values(base, segment)),
            QuantileSet::of(&mut segment_values(cand, segment)),
        ));
    }
    finish_diff(base_queries, cand_queries, rows, tolerance_pct)
}

/// Compares the shared histograms of two metrics snapshots (plus counter
/// deltas folded into the verdict via the row list).
pub fn diff_metrics(base: &MetricsSnapshot, cand: &MetricsSnapshot, tolerance_pct: f64) -> RunDiff {
    let mut rows = Vec::new();
    for (name, base_hist) in &base.histograms {
        let Some(cand_hist) = cand.histograms.get(name) else {
            continue;
        };
        let quantiles = |h: &mlperf_trace::LogHistogram| QuantileSet {
            p50_ns: h.quantile(0.50) as i64,
            p90_ns: h.quantile(0.90) as i64,
            p99_ns: h.quantile(0.99) as i64,
            p999_ns: h.quantile(0.999) as i64,
        };
        rows.push(DiffRow::new(
            name.clone(),
            quantiles(base_hist),
            quantiles(cand_hist),
        ));
    }
    finish_diff(0, 0, rows, tolerance_pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(query_id: u64, compute: i64, network: i64) -> QueryPath {
        let e2e = compute + network;
        QueryPath {
            query_id,
            trace_id: 0,
            scheduled_ns: 0,
            issued_ns: 0,
            completed_ns: Some(e2e as u64),
            sample_count: 1,
            error: false,
            server_spans: true,
            client_queue_ns: 0,
            server_queue_ns: 0,
            compute_ns: compute,
            network_ns: network,
        }
    }

    #[test]
    fn a_network_regression_is_named_in_the_verdict() {
        let base: Vec<QueryPath> = (0..100).map(|i| path(i, 1_000, 100)).collect();
        let cand: Vec<QueryPath> = (0..100).map(|i| path(i, 1_000, 500)).collect();
        let diff = diff_paths(&base, &cand, 10.0);
        assert_eq!(diff.base_queries, 100);
        assert!(diff.regressed.contains(&"network".to_string()));
        assert!(
            diff.verdict.starts_with("network regressed 400.0% at p99"),
            "{}",
            diff.verdict
        );
        assert!(!diff.regressed.contains(&"compute".to_string()));
    }

    #[test]
    fn steady_runs_report_no_regression() {
        let base: Vec<QueryPath> = (0..10).map(|i| path(i, 1_000, 100)).collect();
        let diff = diff_paths(&base, &base, 5.0);
        assert!(diff.regressed.is_empty());
        assert!(diff.verdict.contains("no population regressed"));
    }

    #[test]
    fn improvements_are_never_flagged() {
        let base: Vec<QueryPath> = (0..10).map(|i| path(i, 2_000, 100)).collect();
        let cand: Vec<QueryPath> = (0..10).map(|i| path(i, 1_000, 100)).collect();
        let diff = diff_paths(&base, &cand, 5.0);
        assert!(diff.regressed.is_empty());
    }

    #[test]
    fn empty_populations_quantile_to_zero() {
        let q = QuantileSet::of(&mut Vec::new());
        assert_eq!(q.p99_ns, 0);
        let diff = diff_paths(&[], &[], 5.0);
        assert!(diff.regressed.is_empty());
    }
}
