//! TEST06 query-completeness auditing across the wire.
//!
//! The network gives a SUT a brand-new way to cheat — swallow a frame and
//! say nothing — and a brand-new way to fail honestly — die mid-run.
//! These tests pin down how each shows up in the detail log: silent drops
//! and unresumed disconnects as issued-but-never-resolved queries
//! (completeness FAIL), a disconnect rescued by reconnect-and-resume as a
//! fully resolved, VALID run that still passes the audit — the server's
//! journal replay must never double-count a query.

use std::sync::Arc;
use std::time::Duration;

use mlperf_audit::tests::{completeness_check_realtime, completeness_report, AuditOutcome};
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::qsl::{MemoryQsl, QuerySampleLibrary};
use mlperf_loadgen::sut::{FixedLatencySut, SleepSut};
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::Run;
use mlperf_trace::RingBufferSink;
use mlperf_wire::{
    loopback, RemoteSut, RemoteSutConfig, ResumePolicy, ServeConfig, SilentDropService, SimHost,
    WireChaosPlan,
};

#[test]
fn honest_wire_sut_passes_completeness() {
    let settings = TestSettings::single_stream()
        .with_min_query_count(15)
        .with_min_duration(Nanos::from_micros(1));
    let mut qsl = MemoryQsl::new("audit-qsl", 8, 8);
    let config = RemoteSutConfig::default();
    let hello = RemoteSut::hello_for(&settings, qsl.total_sample_count() as u64, &config);
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "honest-remote",
        Nanos::from_micros(10),
    )));
    let (client, server) =
        loopback(service, ServeConfig::default(), hello, config).expect("loopback");

    let report = completeness_check_realtime(&settings, &mut qsl, Arc::new(client)).unwrap();
    assert!(report.passed(), "{report}");
    server.shutdown();
}

#[test]
fn silently_dropping_server_fails_completeness() {
    let settings = TestSettings::single_stream()
        .with_min_query_count(12)
        .with_min_duration(Nanos::from_micros(1));
    let mut qsl = MemoryQsl::new("audit-qsl", 8, 8);
    // A dropped frame only surfaces after the response timeout; keep it
    // short so the audit run stays fast.
    let config = RemoteSutConfig::default().with_response_timeout(Duration::from_millis(80));
    let hello = RemoteSut::hello_for(&settings, qsl.total_sample_count() as u64, &config);
    let service = Arc::new(SilentDropService::new(
        SleepSut::new("cheating-remote", Duration::ZERO),
        0.3,
        17,
    ));
    let (client, server) =
        loopback(service, ServeConfig::default(), hello, config).expect("loopback");

    let report = completeness_check_realtime(&settings, &mut qsl, Arc::new(client)).unwrap();
    match &report.outcome {
        AuditOutcome::Fail(reason) => {
            assert!(
                reason.contains("silently vanished"),
                "unexpected failure reason: {reason}"
            );
        }
        AuditOutcome::Pass => panic!("a frame-dropping server must fail TEST06: {report}"),
    }
    server.shutdown();
}

#[test]
fn mid_run_disconnect_without_resume_fails_completeness() {
    let settings = TestSettings::single_stream()
        .with_min_query_count(100)
        .with_min_duration(Nanos::from_millis(30));
    let mut qsl = MemoryQsl::new("audit-qsl", 8, 8);
    let config = RemoteSutConfig::default().with_response_timeout(Duration::from_millis(500));
    let hello = RemoteSut::hello_for(&settings, qsl.total_sample_count() as u64, &config);
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "doomed-remote",
        Nanos::from_micros(200),
    )));
    let (client, server) =
        loopback(service, ServeConfig::default(), hello, config).expect("loopback");
    let server = Arc::new(server);

    let killer = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(8));
            server.kill();
        })
    };

    let sink = RingBufferSink::unbounded();
    let out = Run::wall_clock(&settings)
        .sink(&sink)
        .run(&mut qsl, Arc::new(client))
        .expect("run");
    killer.join().unwrap();

    // The in-flight completions' fate is genuinely unknown: without a
    // resume the queries stay outstanding, so the run is INVALID *and*
    // the completeness audit refuses to sign off on it. Claiming
    // "errored" here would fabricate resolutions the SUT never produced.
    let records = sink.snapshot();
    let report = completeness_report(&records);
    match &report.outcome {
        AuditOutcome::Fail(reason) => {
            assert!(
                reason.contains("silently vanished"),
                "unexpected failure reason: {reason}"
            );
        }
        AuditOutcome::Pass => {
            panic!("an unresumed disconnect must leave unresolved queries: {report}")
        }
    }
    assert!(!out.result.is_valid());
}

#[test]
fn disconnect_rescued_by_resume_passes_completeness() {
    let settings = TestSettings::single_stream()
        .with_min_query_count(12)
        .with_min_duration(Nanos::from_micros(1));
    let mut qsl = MemoryQsl::new("audit-qsl", 8, 8);
    // The chaos layer severs the socket right after the first issue frame
    // (frame 1 is the Hello); the resume policy redials and replays the
    // in-flight window, and the server's journal answers anything that
    // resolved during the outage — exactly once.
    let config = RemoteSutConfig::default()
        .with_response_timeout(Duration::from_secs(5))
        .with_resume(ResumePolicy {
            max_attempts: 5,
            backoff: Duration::from_millis(25),
        })
        .with_chaos(WireChaosPlan::new(0x5E55).with_disconnect_after_send(2));
    let hello = RemoteSut::hello_for(&settings, qsl.total_sample_count() as u64, &config);
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "resilient-remote",
        Nanos::from_micros(100),
    )));
    let (client, server) =
        loopback(service, ServeConfig::default(), hello, config).expect("loopback");

    let report = completeness_check_realtime(&settings, &mut qsl, Arc::new(client)).unwrap();
    assert!(
        report.passed(),
        "a resumed run resolves every query and must pass TEST06: {report}"
    );
    server.shutdown();
}
