//! Clock re-stamping invariants for merged detail logs.
//!
//! A merged log claims one aligned time axis: server spans are shipped at
//! drain and re-stamped onto the client clock by the NTP-style offset
//! estimator. These tests build a synthetic client+server run with a
//! *known* server clock offset, re-stamp the server spans exactly as the
//! wire layer does ([`ClockEstimator::align_to_client`]), and assert the
//! invariants the analysis layer leans on:
//!
//! * server timestamps stay monotone per query (queue starts before
//!   compute; alignment shifts all server stamps equally, so it can never
//!   reorder them);
//! * under a symmetric probe the queue+compute spans nest exactly inside
//!   the client's issue→completion envelope;
//! * under an asymmetric probe they may protrude, but by no more than the
//!   estimator's own error bound (half the probe RTT);
//! * the segment decomposition over the re-stamped log sums to the
//!   end-to-end latency exactly, with the network residual absorbing the
//!   (bounded) alignment error.

use mlperf_analysis::query_paths;
use mlperf_trace::{SpanEvent, TraceEvent, TraceRecord};
use mlperf_wire::{ClockEstimator, ClockSample};

/// True one-way delays and service times of the synthetic run (ns).
const NET_OUT: u64 = 150_000;
const NET_BACK: u64 = 150_000;
const QUEUE: u64 = 40_000;
const COMPUTE: u64 = 400_000;
const CLIENT_DELAY: u64 = 25_000;

fn rec(ts_ns: u64, event: TraceEvent) -> TraceRecord {
    TraceRecord { ts_ns, event }
}

fn span(ts_ns: u64, host: &str, phase: &str, query_id: u64, dur_ns: u64) -> TraceRecord {
    rec(
        ts_ns,
        TraceEvent::from(SpanEvent {
            host: host.into(),
            trace_id: 0x1000 + query_id,
            query_id,
            phase: phase.into(),
            dur_ns,
        }),
    )
}

/// One probe whose outbound/return delays are `out`/`back` against a
/// server clock that leads the client clock by `offset` ns.
fn probe(offset: i64, out: u64, back: u64) -> ClockSample {
    let t0 = 100_000_000u64;
    let t1 = ((t0 + out) as i64 + offset) as u64;
    let t2 = t1 + 10_000;
    let t3 = (t2 as i64 - offset) as u64 + back;
    ClockSample { t0, t1, t2, t3 }
}

/// Builds the merged log of `n` queries: client issue/complete events on
/// the client clock, server queue/compute spans stamped on the *server*
/// clock (true client time + `offset`) and then re-stamped through `est`,
/// exactly like the wire drain path does.
fn merged_log(n: u64, offset: i64, est: &ClockEstimator) -> Vec<TraceRecord> {
    let mut records = Vec::new();
    for q in 0..n {
        // Large base so a behind-running server clock stays positive.
        let issued = 100_000_000 + q * 2_000_000;
        let arrive = issued + NET_OUT;
        let compute_start = arrive + QUEUE;
        let completed = compute_start + COMPUTE + NET_BACK;
        records.push(rec(
            issued,
            TraceEvent::QueryIssued {
                query_id: q,
                sample_count: 1,
                delay_ns: CLIENT_DELAY,
            },
        ));
        records.push(span(issued, "client", "issue", q, NET_OUT));
        let server = |true_ts: u64| est.align_to_client(((true_ts as i64) + offset) as u64);
        records.push(span(server(arrive), "server", "queue", q, QUEUE));
        records.push(span(server(compute_start), "server", "compute", q, COMPUTE));
        records.push(rec(
            completed,
            TraceEvent::QueryCompleted {
                query_id: q,
                latency_ns: completed - issued,
            },
        ));
        records.push(span(completed, "client", "complete", q, 0));
    }
    records.sort_by_key(|r| r.ts_ns);
    records
}

/// Per-query (issued, queue_start, compute_start, compute_end, completed)
/// tuples pulled back out of the merged log.
fn envelopes(records: &[TraceRecord]) -> Vec<(u64, u64, u64, u64, u64)> {
    let paths = query_paths(records);
    let mut out = Vec::new();
    for path in &paths {
        let mut queue_start = None;
        let mut compute_span = None;
        for record in records {
            if let TraceEvent::SpanEvent(span) = &record.event {
                if span.query_id != path.query_id || span.host == "client" {
                    continue;
                }
                match span.phase.as_str() {
                    "queue" => queue_start = Some(record.ts_ns),
                    "compute" => compute_span = Some((record.ts_ns, record.ts_ns + span.dur_ns)),
                    _ => {}
                }
            }
        }
        let (compute_start, compute_end) = compute_span.expect("compute span present");
        out.push((
            path.issued_ns,
            queue_start.expect("queue span present"),
            compute_start,
            compute_end,
            path.completed_ns.expect("query completed"),
        ));
    }
    out
}

#[test]
fn symmetric_probe_restamps_server_spans_inside_the_client_envelope() {
    let offset = 7_000_000i64; // server clock 7 ms ahead
    let est = ClockEstimator::new();
    assert!(est.observe(probe(offset, NET_OUT, NET_BACK)));
    assert_eq!(est.offset_ns(), Some(offset), "symmetric probe is exact");

    let records = merged_log(8, offset, &est);
    for (issued, queue_start, compute_start, compute_end, completed) in envelopes(&records) {
        // Monotone per query on the aligned axis...
        assert!(issued <= queue_start, "queue predates issue");
        assert!(
            queue_start + QUEUE <= compute_start + 1,
            "queue overlaps compute"
        );
        assert!(compute_start < compute_end);
        // ... and nested exactly inside the issue→completion envelope.
        assert!(compute_end <= completed, "compute outlives completion");
        assert_eq!(queue_start, issued + NET_OUT);
        assert_eq!(compute_end, completed - NET_BACK);
    }

    // The decomposition recovers the true segments with zero residual.
    let paths = query_paths(&records);
    assert_eq!(paths.len(), 8);
    for path in &paths {
        assert_eq!(path.client_queue_ns, CLIENT_DELAY as i64);
        assert_eq!(path.server_queue_ns, QUEUE as i64);
        assert_eq!(path.compute_ns, COMPUTE as i64);
        assert_eq!(path.network_ns, (NET_OUT + NET_BACK) as i64);
        assert_eq!(path.residual_ns(), 0);
    }
}

#[test]
fn negative_offset_restamps_without_reordering() {
    let offset = -3_500_000i64; // server clock behind the client
    let est = ClockEstimator::new();
    est.observe(probe(offset, NET_OUT, NET_BACK));
    assert_eq!(est.offset_ns(), Some(offset));

    let records = merged_log(4, offset, &est);
    for (issued, queue_start, compute_start, compute_end, completed) in envelopes(&records) {
        assert!(issued <= queue_start);
        assert!(queue_start <= compute_start);
        assert!(compute_end <= completed);
    }
}

#[test]
fn asymmetric_probe_errs_by_no_more_than_the_error_bound() {
    let offset = 2_000_000i64;
    // Outbound path 4x slower than the return: worst case for NTP.
    let sample = probe(offset, 240_000, 60_000);
    let est = ClockEstimator::new();
    est.observe(sample);
    let bound = est.error_bound_ns().expect("probe observed") as i64;
    let estimate_error = (est.offset_ns().unwrap() - offset).abs();
    assert!(estimate_error > 0, "asymmetry should skew the estimate");
    assert!(estimate_error <= bound, "estimate breaks its own bound");

    let records = merged_log(6, offset, &est);
    for (issued, queue_start, compute_start, compute_end, completed) in envelopes(&records) {
        // Server-side ordering is offset-invariant: alignment shifts every
        // server stamp by the same constant.
        assert!(queue_start <= compute_start);
        assert!(compute_start < compute_end);
        // Nesting may protrude, but only within the advertised bound.
        assert!(
            (queue_start as i64) >= (issued as i64) - bound,
            "queue start {queue_start} precedes issue {issued} by more than {bound}"
        );
        assert!(
            (compute_end as i64) <= (completed as i64) + bound,
            "compute end {compute_end} outlives completion {completed} by more than {bound}"
        );
    }

    // The decomposition still sums exactly; the alignment error lands in
    // the network residual, bounded by twice the error bound.
    let true_network = (NET_OUT + NET_BACK) as i64;
    for path in &query_paths(&records) {
        assert_eq!(path.residual_ns(), 0);
        assert_eq!(path.server_queue_ns, QUEUE as i64);
        assert_eq!(path.compute_ns, COMPUTE as i64);
        assert!(
            (path.network_ns - true_network).abs() <= 2 * bound,
            "network {} strays more than {} from {true_network}",
            path.network_ns,
            2 * bound
        );
    }
}
