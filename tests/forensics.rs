//! Integration tests for the tail-latency forensics pipeline: a seeded
//! INVALID run must leave a flight-recorder dump that parses, holds the
//! doomed run's freshest events, and — fed to the analysis layer — yields
//! a root cause naming the constraint the run actually violated.

use std::sync::Arc;

use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::sut::FixedLatencySut;
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::Run;
use mlperf_trace::flight::{parse_flight_dump, render_flight_dump};
use mlperf_trace::RingBufferSink;

/// Events kept in the dump, matching the harness binaries.
const FLIGHT_TAIL: usize = 256;

/// A server run whose SUT is far slower than the latency bound: every
/// query busts the bound, so the run is INVALID by
/// `LatencyBoundExceeded` — deterministically, under any seed.
fn doomed_run(sink: &RingBufferSink) -> mlperf_loadgen::des::RunOutcome {
    let settings = TestSettings::server(2_000.0, Nanos::from_micros(50))
        .with_min_query_count(64)
        .with_min_duration(Nanos::from_millis(10));
    let mut qsl = MemoryQsl::new("forensics-qsl", 64, 64);
    let mut sut = FixedLatencySut::new("forensics-slow", Nanos::from_millis(2));
    Run::simulated(&settings)
        .sink(sink)
        .run(&mut qsl, &mut sut)
        .expect("run completes")
}

#[test]
fn invalid_run_flight_dump_parses_and_analysis_names_the_constraint() {
    let sink = Arc::new(RingBufferSink::unbounded());
    let outcome = doomed_run(&sink);
    assert!(
        !outcome.result.is_valid(),
        "the doomed run was supposed to be INVALID"
    );
    let issue_kinds: Vec<&'static str> = outcome.result.validity.iter().map(|i| i.kind()).collect();
    assert!(
        issue_kinds.contains(&"latency_bound_exceeded"),
        "expected a latency violation, got {issue_kinds:?}"
    );

    // Dump the tail exactly like netbench/chaos do on INVALID.
    let records = sink.snapshot();
    let tail_start = records.len().saturating_sub(FLIGHT_TAIL);
    let reason = format!(
        "forensics run INVALID: {}",
        outcome
            .result
            .validity
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    );
    let dump = render_flight_dump(&reason, &records[tail_start..], tail_start as u64);

    // The dump round-trips and is non-empty.
    let parsed = parse_flight_dump(&dump).expect("dump parses");
    assert_eq!(parsed.reason, reason);
    assert_eq!(parsed.evicted, tail_start as u64);
    assert!(!parsed.records.is_empty(), "dump holds no events");

    // The analysis over the dump names the violated constraint.
    let reasons = vec![parsed.reason.clone()];
    let analysis = mlperf_analysis::analyze_records("flight", &parsed.records, &reasons, None);
    assert!(
        !analysis.root_causes.is_empty(),
        "no root cause for an INVALID run"
    );
    let constraints: Vec<&str> = analysis.root_causes.iter().map(|c| c.constraint).collect();
    for kind in &issue_kinds {
        assert!(
            constraints.contains(kind),
            "run violated `{kind}` but the analysis named {constraints:?}"
        );
    }

    // A latency violation comes with culprits: the slowest queries, each
    // attributed to a dominant segment.
    let cause = analysis
        .root_causes
        .iter()
        .find(|c| c.constraint == "latency_bound_exceeded")
        .expect("latency cause present");
    assert!(!cause.culprits.is_empty(), "no culprit queries named");
    assert!(cause.culprits[0].dominant.is_some());

    // The decomposition over the dumped tail still sums exactly.
    assert_eq!(analysis.breakdown.max_residual_ns, 0);
}

#[test]
fn analysis_recovers_the_constraint_from_the_dump_body_alone() {
    // Even with no reason line (say, a dump renamed or truncated upstream),
    // the `ValidityCheckFailed` events inside the body carry the
    // constraint text — the analysis must find it there too.
    let sink = Arc::new(RingBufferSink::unbounded());
    let outcome = doomed_run(&sink);
    assert!(!outcome.result.is_valid());

    let records = sink.snapshot();
    let analysis = mlperf_analysis::analyze_records("body-only", &records, &[], None);
    let constraints: Vec<&str> = analysis.root_causes.iter().map(|c| c.constraint).collect();
    assert!(
        constraints.contains(&"latency_bound_exceeded"),
        "body-only analysis named {constraints:?}"
    );
}
