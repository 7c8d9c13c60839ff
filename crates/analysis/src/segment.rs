//! Per-query critical-path decomposition.
//!
//! A merged detail log carries everything needed to explain one query's
//! latency: the `QueryIssued` event pins the schedule and issue stamps on
//! the client clock, re-stamped server `queue`/`compute` spans pin the
//! server-side residency, and `QueryCompleted`/`QueryErrored` pins the
//! end. This module folds those events into a [`QueryPath`] per query and
//! splits the end-to-end latency into four segments:
//!
//! * **client-queue** — issue slip past the scheduled time (`delay_ns`),
//! * **server-queue** — time spent queued on the serving host,
//! * **compute** — device residency on the serving host,
//! * **network** — everything in between, as the *signed* residual.
//!
//! The residual construction makes the decomposition exact by definition:
//! the four segments always sum to the end-to-end latency, and any clock
//! misalignment surfaces as a negative network segment instead of a
//! silently wrong table.

use std::collections::BTreeMap;

use mlperf_trace::{SpanEvent, TraceEvent, TraceRecord};

/// One of the four critical-path segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Segment {
    /// Issue slip: scheduled → issued on the client.
    ClientQueue,
    /// Wire + serialization residual (signed; negative means clock skew).
    Network,
    /// Queued on the serving host awaiting a device lane.
    ServerQueue,
    /// Device residency on the serving host.
    Compute,
}

impl Segment {
    /// Every segment, in reporting order.
    pub(crate) const ALL: [Segment; 4] = [
        Segment::ClientQueue,
        Segment::Network,
        Segment::ServerQueue,
        Segment::Compute,
    ];

    /// Stable snake_case label, used in tables and JSON.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Segment::ClientQueue => "client_queue",
            Segment::Network => "network",
            Segment::ServerQueue => "server_queue",
            Segment::Compute => "compute",
        }
    }
}

impl std::fmt::Display for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The reconstructed critical path of one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPath {
    /// Query id.
    pub query_id: u64,
    /// Distributed trace id shared with the server spans; 0 for local runs.
    pub(crate) trace_id: u64,
    /// Scheduled time on the client clock (ns).
    pub(crate) scheduled_ns: u64,
    /// Issue time on the client clock (ns).
    pub issued_ns: u64,
    /// Completion (or failure) time on the client clock, if the query
    /// finished.
    pub completed_ns: Option<u64>,
    /// Samples the query carried (`QueryIssued.sample_count`).
    pub(crate) sample_count: u64,
    /// Whether the query resolved as an error/drop.
    pub(crate) error: bool,
    /// Whether any server-side span was merged into the log for this query.
    pub(crate) server_spans: bool,
    /// Issue slip past the schedule (ns).
    pub client_queue_ns: i64,
    /// Server-side queueing (ns); 0 without server spans.
    pub server_queue_ns: i64,
    /// Server-side compute (ns); local runs fold device time in here.
    pub compute_ns: i64,
    /// Signed network residual (ns); negative means the clock-offset
    /// estimate overshot.
    pub network_ns: i64,
}

impl QueryPath {
    /// Schedule-to-completion latency (the scored latency), if finished.
    pub(crate) fn e2e_ns(&self) -> Option<u64> {
        self.completed_ns
            .map(|c| c.saturating_sub(self.scheduled_ns))
    }

    /// The four segments in reporting order.
    pub(crate) fn segments(&self) -> [(Segment, i64); 4] {
        [
            (Segment::ClientQueue, self.client_queue_ns),
            (Segment::Network, self.network_ns),
            (Segment::ServerQueue, self.server_queue_ns),
            (Segment::Compute, self.compute_ns),
        ]
    }

    /// The segment with the largest share of this query's latency.
    pub(crate) fn dominant(&self) -> Segment {
        let mut best = Segment::ClientQueue;
        let mut best_ns = i64::MIN;
        for (segment, ns) in self.segments() {
            if ns > best_ns {
                best = segment;
                best_ns = ns;
            }
        }
        best
    }

    /// `e2e - (sum of segments)` — zero by construction; exposed so checks
    /// can assert the invariant instead of trusting it.
    pub fn residual_ns(&self) -> i64 {
        let Some(e2e) = self.e2e_ns() else { return 0 };
        let sum = self.client_queue_ns + self.network_ns + self.server_queue_ns + self.compute_ns;
        e2e as i64 - sum
    }
}

#[derive(Debug, Default)]
struct Partial {
    scheduled_ns: Option<u64>,
    issued_ns: Option<u64>,
    completed_ns: Option<u64>,
    sample_count: u64,
    error: bool,
    trace_id: u64,
    delay_ns: u64,
    server_queue_ns: u64,
    server_compute_ns: u64,
    server_spans: bool,
}

/// Folds a detail log into one [`QueryPath`] per query, sorted by query id.
///
/// Queries without a `QueryIssued` event (e.g. truncated out of a flight
/// dump) are skipped: without the schedule stamp there is no latency to
/// decompose. Queries without a completion are kept (with
/// `completed_ns: None`) so incomplete-query forensics can still name them.
pub fn query_paths(records: &[TraceRecord]) -> Vec<QueryPath> {
    let mut partials: BTreeMap<u64, Partial> = BTreeMap::new();
    for record in records {
        match &record.event {
            TraceEvent::QueryIssued {
                query_id,
                sample_count,
                delay_ns,
            } => {
                let p = partials.entry(*query_id).or_default();
                p.issued_ns = Some(record.ts_ns);
                p.sample_count = *sample_count as u64;
                p.scheduled_ns = Some(record.ts_ns.saturating_sub(*delay_ns));
                p.delay_ns = *delay_ns;
            }
            TraceEvent::QueryCompleted { query_id, .. } => {
                let p = partials.entry(*query_id).or_default();
                p.completed_ns = Some(record.ts_ns);
            }
            TraceEvent::QueryErrored { query_id, .. } => {
                let p = partials.entry(*query_id).or_default();
                p.completed_ns = Some(record.ts_ns);
                p.error = true;
            }
            TraceEvent::SpanEvent(span) => {
                let SpanEvent {
                    host,
                    trace_id,
                    query_id,
                    phase,
                    dur_ns,
                } = &**span;
                let p = partials.entry(*query_id).or_default();
                if *trace_id != 0 {
                    p.trace_id = *trace_id;
                }
                if host != "client" {
                    match phase.as_str() {
                        "queue" => {
                            p.server_queue_ns += dur_ns;
                            p.server_spans = true;
                        }
                        "compute" => {
                            p.server_compute_ns += dur_ns;
                            p.server_spans = true;
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }

    let mut paths = Vec::new();
    for (query_id, p) in partials {
        let Some(issued_ns) = p.issued_ns else {
            continue;
        };
        let scheduled_ns = p.scheduled_ns.unwrap_or(issued_ns);
        let client_queue_ns = p.delay_ns as i64;
        let server_queue_ns = p.server_queue_ns as i64;
        let mut compute_ns = p.server_compute_ns as i64;
        let mut network_ns = 0i64;
        if let Some(completed_ns) = p.completed_ns {
            let e2e = completed_ns.saturating_sub(scheduled_ns) as i64;
            if p.server_spans {
                // Wire run: the residual after the stamped segments is time
                // on the wire (plus any clock-estimate error, kept signed).
                network_ns = e2e - client_queue_ns - server_queue_ns - compute_ns;
            } else {
                // Local run: no wire, no server clock — everything after
                // the issue slip is device residency.
                compute_ns = e2e - client_queue_ns;
            }
        }
        paths.push(QueryPath {
            query_id,
            trace_id: p.trace_id,
            scheduled_ns,
            issued_ns,
            completed_ns: p.completed_ns,
            sample_count: p.sample_count,
            error: p.error,
            server_spans: p.server_spans,
            client_queue_ns,
            server_queue_ns,
            compute_ns,
            network_ns,
        });
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts_ns: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { ts_ns, event }
    }

    fn span(ts_ns: u64, host: &str, query_id: u64, phase: &str, dur_ns: u64) -> TraceRecord {
        rec(
            ts_ns,
            TraceEvent::from(SpanEvent {
                host: host.into(),
                trace_id: 0x77,
                query_id,
                phase: phase.into(),
                dur_ns,
            }),
        )
    }

    #[test]
    fn local_run_splits_into_client_queue_and_compute() {
        let records = vec![
            rec(
                1_100,
                TraceEvent::QueryIssued {
                    query_id: 1,
                    sample_count: 1,
                    delay_ns: 100,
                },
            ),
            rec(
                51_000,
                TraceEvent::QueryCompleted {
                    query_id: 1,
                    latency_ns: 50_000,
                },
            ),
        ];
        let paths = query_paths(&records);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.scheduled_ns, 1_000);
        assert_eq!(p.e2e_ns(), Some(50_000));
        assert_eq!(p.client_queue_ns, 100);
        assert_eq!(p.compute_ns, 49_900);
        assert_eq!(p.network_ns, 0);
        assert_eq!(p.residual_ns(), 0);
        assert_eq!(p.dominant(), Segment::Compute);
    }

    #[test]
    fn wire_run_attributes_the_residual_to_network() {
        let records = vec![
            rec(
                1_000,
                TraceEvent::QueryIssued {
                    query_id: 2,
                    sample_count: 1,
                    delay_ns: 0,
                },
            ),
            span(2_000, "server", 2, "queue", 3_000),
            span(5_000, "server", 2, "compute", 10_000),
            rec(
                21_000,
                TraceEvent::QueryCompleted {
                    query_id: 2,
                    latency_ns: 20_000,
                },
            ),
        ];
        let paths = query_paths(&records);
        let p = &paths[0];
        assert!(p.server_spans);
        assert_eq!(p.trace_id, 0x77);
        assert_eq!(p.e2e_ns(), Some(20_000));
        assert_eq!(p.server_queue_ns, 3_000);
        assert_eq!(p.compute_ns, 10_000);
        assert_eq!(p.network_ns, 20_000 - 3_000 - 10_000);
        assert_eq!(p.residual_ns(), 0);
        assert_eq!(p.dominant(), Segment::Compute);
    }

    #[test]
    fn clock_skew_surfaces_as_negative_network_not_a_bad_sum() {
        // Server spans claim more time than the whole query took: the
        // residual goes negative instead of corrupting the total.
        let records = vec![
            rec(
                0,
                TraceEvent::QueryIssued {
                    query_id: 3,
                    sample_count: 1,
                    delay_ns: 0,
                },
            ),
            span(0, "server", 3, "compute", 9_000),
            rec(
                5_000,
                TraceEvent::QueryCompleted {
                    query_id: 3,
                    latency_ns: 5_000,
                },
            ),
        ];
        let p = &query_paths(&records)[0];
        assert_eq!(p.network_ns, -4_000);
        assert_eq!(p.residual_ns(), 0);
    }

    #[test]
    fn incomplete_and_errored_queries_are_kept_and_flagged() {
        let records = vec![
            rec(
                10,
                TraceEvent::QueryIssued {
                    query_id: 4,
                    sample_count: 1,
                    delay_ns: 0,
                },
            ),
            rec(
                20,
                TraceEvent::QueryIssued {
                    query_id: 5,
                    sample_count: 1,
                    delay_ns: 0,
                },
            ),
            rec(
                900,
                TraceEvent::QueryErrored {
                    query_id: 5,
                    latency_ns: 880,
                },
            ),
        ];
        let paths = query_paths(&records);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].completed_ns, None);
        assert!(!paths[0].error);
        assert!(paths[1].error);
        assert_eq!(paths[1].e2e_ns(), Some(880));
    }

    #[test]
    fn spans_without_an_issue_event_are_skipped() {
        let records = vec![span(0, "server", 9, "compute", 1_000)];
        assert!(query_paths(&records).is_empty());
    }
}
