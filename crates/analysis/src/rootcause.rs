//! INVALID root-cause: name the violated constraint and the evidence.
//!
//! A run that ends INVALID leaves three trails: the `ValidityCheckFailed`
//! events the LoadGen records at finalization, the outcome JSON's
//! structured [`ValidityIssue`](mlperf_loadgen::validate::ValidityIssue)
//! list, and — for crashes and chaos cells — the flight-dump header's
//! reason string. All three reduce to the same stable constraint kinds
//! here, and each constraint is then argued from the log itself: the
//! offending queries, the time window they cluster in, the trace ids on
//! the critical path, and the injected-fault/wire-event evidence that
//! explains *why*.

use std::collections::BTreeMap;

use mlperf_trace::json::{JsonValue, ToJson};
use mlperf_trace::{TraceEvent, TraceRecord};

use crate::segment::{query_paths, QueryPath, Segment};

/// How many offending query ids a root cause lists before truncating.
const MAX_OFFENDERS: usize = 16;
/// How many critical-path culprits a root cause names.
const MAX_CULPRITS: usize = 5;

/// `(constraint kind, text patterns that identify it)` — the patterns
/// cover both the `Display` strings (detail logs, outcome summaries) and
/// the `Debug` variant names (flight-dump reasons).
const CONSTRAINT_PATTERNS: [(&str, [&str; 2]); 7] = [
    (
        "error_fraction_exceeded",
        ["errored-query fraction", "ErrorFractionExceeded"],
    ),
    (
        "incomplete_queries",
        ["never completed", "IncompleteQueries"],
    ),
    (
        "latency_bound_exceeded",
        ["exceeds bound", "LatencyBoundExceeded"],
    ),
    ("too_few_queries", ["too few queries", "TooFewQueries"]),
    ("run_too_short", ["run too short", "RunTooShort"]),
    ("too_few_samples", ["too few samples", "TooFewSamples"]),
    (
        "too_many_skipped_intervals",
        ["skipped-interval fraction", "TooManySkippedIntervals"],
    ),
];

/// Constraint kinds named in `text`, in fixed priority order.
pub fn detect_constraints(text: &str) -> Vec<&'static str> {
    CONSTRAINT_PATTERNS
        .iter()
        .filter(|(_, patterns)| patterns.iter().any(|p| text.contains(p)))
        .map(|(kind, _)| *kind)
        .collect()
}

/// The time window a root cause's offenders cluster in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Window {
    /// Earliest relevant timestamp (ns).
    pub(crate) start_ns: u64,
    /// Latest relevant timestamp (ns).
    pub(crate) end_ns: u64,
    /// Offenders inside the window.
    pub(crate) count: u64,
}

impl ToJson for Window {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("start_ns", self.start_ns.to_json_value()),
            ("end_ns", self.end_ns.to_json_value()),
            ("count", self.count.to_json_value()),
        ])
    }
}

/// One query on the critical path of a violated constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Culprit {
    /// Distributed trace id (0 for local runs).
    pub(crate) trace_id: u64,
    /// Query id.
    pub(crate) query_id: u64,
    /// Schedule-to-finish latency (0 when the query never finished).
    pub(crate) e2e_ns: u64,
    /// Dominant latency segment, when the query finished.
    pub dominant: Option<Segment>,
    /// Why this query is named.
    pub(crate) note: String,
}

impl ToJson for Culprit {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("trace_id", self.trace_id.to_json_value()),
            ("query_id", self.query_id.to_json_value()),
            ("e2e_ns", self.e2e_ns.to_json_value()),
            (
                "dominant",
                match self.dominant {
                    Some(s) => s.label().to_json_value(),
                    None => JsonValue::Null,
                },
            ),
            ("note", self.note.to_json_value()),
        ])
    }
}

/// One violated constraint, argued from the log.
#[derive(Debug, Clone, PartialEq)]
pub struct RootCause {
    /// Stable constraint kind (`error_fraction_exceeded`, ...).
    pub constraint: &'static str,
    /// The source text the constraint was recognized from.
    pub(crate) detail: String,
    /// Where the offenders cluster in run time.
    pub(crate) window: Option<Window>,
    /// Offending query ids (truncated to a fixed cap).
    pub(crate) offending_queries: Vec<u64>,
    /// Top critical-path queries, most significant first.
    pub culprits: Vec<Culprit>,
    /// Wire-fault, wire-event and overload counts that explain the
    /// violation.
    pub(crate) evidence: Vec<String>,
}

impl ToJson for RootCause {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("constraint", self.constraint.to_json_value()),
            ("detail", self.detail.to_json_value()),
            ("window", self.window.to_json_value()),
            ("offending_queries", self.offending_queries.to_json_value()),
            ("culprits", self.culprits.to_json_value()),
            ("evidence", self.evidence.to_json_value()),
        ])
    }
}

/// Pulls the `ValidityCheckFailed` issue texts out of a detail log.
pub fn issue_texts(records: &[TraceRecord]) -> Vec<String> {
    records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::ValidityCheckFailed(failed) => Some(failed.issue.clone()),
            _ => None,
        })
        .collect()
}

/// Counts the injected wire faults, link events and overload drops that
/// explain *why* a constraint broke, as stable one-line strings.
fn collect_evidence(records: &[TraceRecord]) -> Vec<String> {
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for record in records {
        let key = match &record.event {
            TraceEvent::WireFault(fault) => {
                Some(format!("wire_fault {} ({})", fault.fault, fault.endpoint))
            }
            TraceEvent::WireEvent(event)
                if matches!(
                    event.kind.as_str(),
                    "heartbeat_loss" | "disconnect" | "response_timeout" | "reject"
                ) =>
            {
                Some(format!("wire_event {}", event.kind))
            }
            TraceEvent::OverloadDropped { .. } => Some("overload_dropped".to_string()),
            _ => None,
        };
        if let Some(key) = key {
            *counts.entry(key).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .map(|(key, n)| format!("{key} x{n}"))
        .collect()
}

fn window_of(stamps: impl Iterator<Item = u64>) -> Option<Window> {
    let mut start = u64::MAX;
    let mut end = 0u64;
    let mut count = 0u64;
    for ts in stamps {
        start = start.min(ts);
        end = end.max(ts);
        count += 1;
    }
    (count > 0).then_some(Window {
        start_ns: start,
        end_ns: end,
        count,
    })
}

fn culprit(p: &QueryPath, note: impl Into<String>) -> Culprit {
    Culprit {
        trace_id: p.trace_id,
        query_id: p.query_id,
        e2e_ns: p.e2e_ns().unwrap_or(0),
        dominant: p.completed_ns.map(|_| p.dominant()),
        note: note.into(),
    }
}

fn cause_for(
    kind: &'static str,
    detail: String,
    paths: &[QueryPath],
    records: &[TraceRecord],
) -> RootCause {
    let evidence = collect_evidence(records);
    let last_ts = records.iter().map(|r| r.ts_ns).max().unwrap_or(0);
    let (window, offending, culprits) = match kind {
        "error_fraction_exceeded" => {
            let errored: Vec<&QueryPath> = paths.iter().filter(|p| p.error).collect();
            let window = window_of(errored.iter().filter_map(|p| p.completed_ns));
            let offending: Vec<u64> = errored.iter().map(|p| p.query_id).collect();
            let mut ranked = errored;
            ranked.sort_by_key(|p| (std::cmp::Reverse(p.e2e_ns().unwrap_or(0)), p.query_id));
            let culprits = ranked
                .iter()
                .take(MAX_CULPRITS)
                .map(|p| culprit(p, "errored"))
                .collect();
            (window, offending, culprits)
        }
        "incomplete_queries" => {
            let stuck: Vec<&QueryPath> =
                paths.iter().filter(|p| p.completed_ns.is_none()).collect();
            let window = window_of(stuck.iter().map(|p| p.issued_ns)).map(|w| Window {
                // An unfinished query is outstanding until the log ends.
                end_ns: last_ts.max(w.end_ns),
                ..w
            });
            let offending: Vec<u64> = stuck.iter().map(|p| p.query_id).collect();
            let culprits = stuck
                .iter()
                .take(MAX_CULPRITS)
                .map(|p| culprit(p, "never completed"))
                .collect();
            (window, offending, culprits)
        }
        "latency_bound_exceeded" | "run_too_short" => {
            let mut finished: Vec<&QueryPath> =
                paths.iter().filter(|p| p.completed_ns.is_some()).collect();
            finished.sort_by_key(|p| (std::cmp::Reverse(p.e2e_ns().unwrap_or(0)), p.query_id));
            let slowest: Vec<&QueryPath> = finished.into_iter().take(MAX_OFFENDERS).collect();
            let window = window_of(slowest.iter().filter_map(|p| p.completed_ns));
            let offending: Vec<u64> = slowest.iter().map(|p| p.query_id).collect();
            let culprits = slowest
                .iter()
                .take(MAX_CULPRITS)
                .map(|p| {
                    let note = match p.completed_ns {
                        Some(_) => format!("dominant {}", p.dominant()),
                        None => "never completed".to_string(),
                    };
                    culprit(p, note)
                })
                .collect();
            (window, offending, culprits)
        }
        // Count-style constraints (too few queries/samples, skipped
        // intervals): there is no single offending query, only evidence.
        _ => (None, Vec::new(), Vec::new()),
    };
    let mut offending = offending;
    offending.sort_unstable();
    offending.truncate(MAX_OFFENDERS);
    RootCause {
        constraint: kind,
        detail,
        window,
        offending_queries: offending,
        culprits,
        evidence,
    }
}

/// Builds one [`RootCause`] per distinct violated constraint named in
/// `texts` (validity-issue strings, outcome summaries, or a flight-dump
/// reason), argued from `records`. Returns an empty list when no known
/// constraint is named — i.e. the run was VALID.
pub fn root_causes(records: &[TraceRecord], texts: &[String]) -> Vec<RootCause> {
    let paths = query_paths(records);
    let mut details: BTreeMap<&'static str, String> = BTreeMap::new();
    let mut order: Vec<&'static str> = Vec::new();
    for text in texts {
        for kind in detect_constraints(text) {
            if !details.contains_key(kind) {
                details.insert(kind, text.clone());
                order.push(kind);
            }
        }
    }
    order
        .into_iter()
        .map(|kind| cause_for(kind, details[kind].clone(), &paths, records))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_trace::{WireEvent, WireFault};

    fn rec(ts_ns: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { ts_ns, event }
    }

    fn issued(ts_ns: u64, query_id: u64) -> TraceRecord {
        rec(
            ts_ns,
            TraceEvent::QueryIssued {
                query_id,
                sample_count: 1,
                delay_ns: 0,
            },
        )
    }

    #[test]
    fn constraint_detection_reads_display_and_debug_spellings() {
        assert_eq!(
            detect_constraints("errored-query fraction 0.2083 exceeds 0.0200"),
            vec!["error_fraction_exceeded"]
        );
        assert_eq!(
            detect_constraints(
                "wire cell INVALID: scenario=server fault=disconnect resume=false: \
                 [IncompleteQueries { outstanding: 12 }]"
            ),
            vec!["incomplete_queries"]
        );
        assert_eq!(
            detect_constraints("p99 latency 80ms exceeds bound 50ms"),
            vec!["latency_bound_exceeded"]
        );
        assert!(detect_constraints("all good").is_empty());
    }

    #[test]
    fn error_fraction_cause_names_errored_queries_and_their_window() {
        let mut records = vec![issued(0, 1), issued(10, 2), issued(20, 3)];
        records.push(rec(
            100,
            TraceEvent::QueryCompleted {
                query_id: 1,
                latency_ns: 100,
            },
        ));
        for (id, ts) in [(2u64, 500u64), (3, 900)] {
            records.push(rec(
                ts,
                TraceEvent::QueryErrored {
                    query_id: id,
                    latency_ns: ts,
                },
            ));
            records.push(rec(
                ts,
                TraceEvent::from(WireFault {
                    endpoint: "client".into(),
                    fault: "corrupt".into(),
                    frame: id,
                    detail: "recv: flipped byte 17".into(),
                }),
            ));
        }
        let texts = vec!["errored-query fraction 0.6667 exceeds 0.0200".to_string()];
        let causes = root_causes(&records, &texts);
        assert_eq!(causes.len(), 1);
        let c = &causes[0];
        assert_eq!(c.constraint, "error_fraction_exceeded");
        assert_eq!(c.offending_queries, vec![2, 3]);
        assert_eq!(
            c.window,
            Some(Window {
                start_ns: 500,
                end_ns: 900,
                count: 2
            })
        );
        assert_eq!(c.culprits[0].query_id, 3, "slowest failure first");
        assert!(c
            .evidence
            .contains(&"wire_fault corrupt (client) x2".to_string()));
    }

    #[test]
    fn incomplete_cause_lists_stuck_queries_until_log_end() {
        let records = vec![
            issued(0, 1),
            issued(50, 2),
            rec(
                100,
                TraceEvent::QueryCompleted {
                    query_id: 1,
                    latency_ns: 100,
                },
            ),
            rec(
                2_000,
                TraceEvent::from(WireEvent {
                    endpoint: "client".into(),
                    kind: "disconnect".into(),
                    query_id: 0,
                    detail: "peer gone".into(),
                }),
            ),
        ];
        let texts = vec!["1 queries never completed".to_string()];
        let causes = root_causes(&records, &texts);
        let c = &causes[0];
        assert_eq!(c.constraint, "incomplete_queries");
        assert_eq!(c.offending_queries, vec![2]);
        assert_eq!(c.window.unwrap().end_ns, 2_000, "open until log end");
        assert_eq!(c.culprits[0].note, "never completed");
        assert!(c.evidence.contains(&"wire_event disconnect x1".to_string()));
    }

    #[test]
    fn latency_cause_ranks_slowest_and_names_the_dominant_segment() {
        let mut records = Vec::new();
        for id in 1..=4u64 {
            records.push(issued(id * 10, id));
            records.push(rec(
                id * 10 + id * 1_000,
                TraceEvent::QueryCompleted {
                    query_id: id,
                    latency_ns: id * 1_000,
                },
            ));
        }
        let texts = vec!["p99 latency 4us exceeds bound 1us".to_string()];
        let causes = root_causes(&records, &texts);
        let c = &causes[0];
        assert_eq!(c.constraint, "latency_bound_exceeded");
        assert_eq!(c.culprits[0].query_id, 4);
        assert_eq!(c.culprits[0].dominant, Some(Segment::Compute));
    }

    #[test]
    fn one_cause_per_distinct_constraint() {
        let texts = vec![
            "2 queries never completed".to_string(),
            "errored-query fraction 0.5 exceeds 0.02".to_string(),
            "3 queries never completed".to_string(),
        ];
        let causes = root_causes(&[], &texts);
        assert_eq!(causes.len(), 2);
        assert_eq!(causes[0].constraint, "incomplete_queries");
        assert_eq!(causes[1].constraint, "error_fraction_exceeded");
    }

    #[test]
    fn valid_runs_yield_no_causes() {
        assert!(root_causes(&[], &[]).is_empty());
        assert!(root_causes(&[], &["nothing to see".to_string()]).is_empty());
    }
}
