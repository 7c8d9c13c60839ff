//! Session-resume integration tests: a mid-run disconnect rescued by
//! reconnect + journal replay, and the same disconnect left unrescued.
//!
//! The contract under test: a resumed run finishes VALID with every query
//! resolved exactly once (the server's completion journal dedups replayed
//! issues), while the identical fault without a resume policy leaves the
//! in-flight window unresolved and the run INVALID with
//! `IncompleteQueries`.

use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use mlperf_audit::tests::completeness_report;
use mlperf_audit::AuditOutcome;
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::qsl::{MemoryQsl, QuerySampleLibrary};
use mlperf_loadgen::query::{Query, QuerySample, SampleCompletion};
use mlperf_loadgen::sut::{FixedLatencySut, IssueOutcome, RealtimeSut};
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::validate::ValidityIssue;
use mlperf_loadgen::Run;
use mlperf_trace::metrics::MetricsRegistry;
use mlperf_trace::{RingBufferSink, TraceEvent, TraceSink};
use mlperf_wire::frame::{read_frame, write_frame};
use mlperf_wire::{
    loopback, loopback_instrumented, Message, RemoteSut, RemoteSutConfig, ResumePolicy,
    ServeConfig, ServedReply, SimHost, WireChaosPlan, WireService,
};

fn settings() -> TestSettings {
    TestSettings::single_stream()
        .with_min_query_count(10)
        .with_min_duration(Nanos::from_micros(1))
}

/// Client chaos: sever the socket right after the third sent frame
/// (frame 1 = Hello, frame 2 = the clock probe, frame 3 = the first
/// issue), one-shot — the reconnected link is healthy.
fn disconnect_plan() -> WireChaosPlan {
    WireChaosPlan::new(0xD15C).with_disconnect_after_send(3)
}

#[test]
fn disconnect_with_resume_finishes_valid_without_double_counting() {
    let settings = settings();
    let mut qsl = MemoryQsl::new("resume-qsl", 8, 8);
    let config = RemoteSutConfig::default()
        .with_response_timeout(Duration::from_secs(5))
        .with_resume(ResumePolicy {
            max_attempts: 5,
            // Long enough that the server has resolved the in-flight
            // query before the redial, so the replay is answered from the
            // journal, not re-run.
            backoff: Duration::from_millis(40),
        })
        .with_chaos(disconnect_plan());
    let hello = RemoteSut::hello_for(&settings, qsl.total_sample_count() as u64, &config);
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "resumable",
        Nanos::from_micros(100),
    )));

    let sink = Arc::new(RingBufferSink::unbounded());
    let metrics = Arc::new(MetricsRegistry::new());
    let (client, server) = loopback_instrumented(
        service,
        ServeConfig::default().with_sink(sink.clone()),
        hello,
        config,
        Some(sink.clone()),
        Some(metrics.clone()),
    )
    .expect("loopback");

    let run_sink = RingBufferSink::unbounded();
    let out = Run::wall_clock(&settings)
        .sink(&run_sink)
        .run(&mut qsl, Arc::new(client))
        .expect("run must not hang");
    assert!(
        out.result.is_valid(),
        "a resumed disconnect must be rescued: {:?}",
        out.result.validity
    );

    // Exactly one resume happened, and it replayed the in-flight window.
    let resumes = metrics
        .snapshot()
        .counters
        .get("wire_resumes")
        .copied()
        .unwrap_or(0);
    assert_eq!(resumes, 1, "expected exactly one resume");
    let wire_events = sink.snapshot();
    assert!(
        wire_events.iter().any(|r| matches!(
            &r.event,
            TraceEvent::WireEvent { endpoint, kind, .. }
                if endpoint == "client" && kind == "resume"
        )),
        "the client must record the resume"
    );
    assert!(
        wire_events.iter().any(|r| matches!(
            &r.event,
            TraceEvent::WireEvent { endpoint, kind, .. }
                if endpoint == "server" && kind == "replay"
        )),
        "the replayed issue must be answered from the server journal"
    );

    // Every query resolved exactly once: journal replay must never
    // double-count.
    let mut resolutions: HashMap<u64, usize> = HashMap::new();
    for record in run_sink.snapshot() {
        match record.event {
            TraceEvent::QueryCompleted { query_id, .. }
            | TraceEvent::QueryErrored { query_id, .. } => {
                *resolutions.entry(query_id).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    assert!(resolutions.len() >= 10);
    for (id, count) in resolutions {
        assert_eq!(count, 1, "query {id} resolved {count} times");
    }
    server.shutdown();
}

/// Tentpole contract under chaos: a resumed session replays its in-flight
/// window under the *same* trace ids, so the merged (client + shipped
/// server) detail log stays exactly-once per trace and passes the TEST06
/// completeness audit.
#[test]
fn resume_replays_under_the_same_trace_ids_exactly_once() {
    let settings = settings();
    let mut qsl = MemoryQsl::new("resume-qsl", 8, 8);
    let config = RemoteSutConfig::default()
        .with_response_timeout(Duration::from_secs(5))
        .with_resume(ResumePolicy {
            max_attempts: 5,
            backoff: Duration::from_millis(40),
        })
        .with_chaos(disconnect_plan());
    let hello = RemoteSut::hello_for(&settings, qsl.total_sample_count() as u64, &config);
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "traced-resume",
        Nanos::from_micros(100),
    )));

    // ONE sink for everything: run events, client wire events and spans,
    // and the server spans shipped back at drain.
    let merged = Arc::new(RingBufferSink::unbounded());
    let metrics = Arc::new(MetricsRegistry::new());
    let (client, server) = loopback_instrumented(
        service,
        ServeConfig::default(),
        hello,
        config,
        Some(merged.clone()),
        Some(metrics.clone()),
    )
    .expect("loopback");

    let origin = client.clock_origin();
    let out = Run::wall_clock(&settings)
        .sink(merged.as_ref())
        .origin(origin)
        .run(&mut qsl, Arc::new(client))
        .expect("run must not hang");
    assert!(out.result.is_valid(), "{:?}", out.result.validity);
    server.shutdown();

    let records = merged.snapshot();
    let resumes = metrics
        .snapshot()
        .counters
        .get("wire_resumes")
        .copied()
        .unwrap_or(0);
    assert_eq!(resumes, 1, "the chaos plan must force exactly one resume");

    // The merged log passes the completeness audit: every issued query
    // resolved exactly once despite the replay.
    let report = completeness_report(&records);
    assert_eq!(
        report.outcome,
        AuditOutcome::Pass,
        "TEST06 on the merged log: {report:?}"
    );

    // Per trace id, each phase appears exactly once — the replayed issue
    // reused its original id and the journal answered without re-running.
    let mut phases: HashMap<(u64, String), usize> = HashMap::new();
    for record in &records {
        if let TraceEvent::SpanEvent {
            trace_id, phase, ..
        } = &record.event
        {
            *phases.entry((*trace_id, phase.clone())).or_insert(0) += 1;
        }
    }
    assert!(!phases.is_empty(), "the merged log must contain spans");
    for ((trace_id, phase), count) in &phases {
        assert_eq!(
            *count, 1,
            "trace {trace_id:#x} phase {phase} appeared {count} times"
        );
    }
    // And at least one trace spans both hosts end to end.
    let complete_traces = phases
        .keys()
        .filter(|(id, phase)| {
            phase == "issue" && {
                phases.contains_key(&(*id, "compute".to_string()))
                    && phases.contains_key(&(*id, "complete".to_string()))
            }
        })
        .count();
    assert!(
        complete_traces > 0,
        "no trace covers client issue -> server compute -> client complete"
    );
}

#[test]
fn same_disconnect_without_resume_ends_incomplete_queries() {
    let settings = settings();
    let mut qsl = MemoryQsl::new("resume-qsl", 8, 8);
    let config = RemoteSutConfig::default()
        .with_response_timeout(Duration::from_secs(5))
        .with_chaos(disconnect_plan());
    let hello = RemoteSut::hello_for(&settings, qsl.total_sample_count() as u64, &config);
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "unrescued",
        Nanos::from_micros(100),
    )));
    let (client, server) =
        loopback_instrumented(service, ServeConfig::default(), hello, config, None, None)
            .expect("loopback");

    let out = Run::wall_clock(&settings)
        .run(&mut qsl, Arc::new(client))
        .expect("run must not hang");
    assert!(!out.result.is_valid());
    assert!(
        out.result
            .validity
            .iter()
            .any(|i| matches!(i, ValidityIssue::IncompleteQueries { .. })),
        "an unresumed disconnect leaves queries outstanding, got {:?}",
        out.result.validity
    );
    server.shutdown();
}

/// A daemon's worker answers on the session's writer the moment a resumed
/// connection installs one, so a `Completion` can reach the client in the
/// same segment as the `HelloAck`. The client's receive buffer takes both
/// in one read; the handle that read the handshake must therefore be the
/// one its reader thread goes on reading, or the completion is stranded
/// and its issuer waits out `response_timeout` for a `Vanished`.
#[test]
fn a_completion_right_behind_the_resume_handshake_reaches_its_issuer() {
    let settings = settings();
    let config = RemoteSutConfig::default()
        .with_response_timeout(Duration::from_secs(2))
        .with_resume(ResumePolicy {
            max_attempts: 5,
            backoff: Duration::from_millis(5),
        });
    let hello = RemoteSut::hello_for(&settings, 8, &config);
    let query = Query {
        id: 1,
        samples: vec![QuerySample { id: 10, index: 0 }],
        scheduled_at: Nanos::ZERO,
        tenant: 0,
    };
    let answer = vec![SampleCompletion {
        sample_id: 10,
        payload: Default::default(),
    }];

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let samples = answer.clone();
    let server = std::thread::spawn(move || {
        let handshake = |stream: &mut TcpStream, epoch: u32| -> Vec<u8> {
            let frame = read_frame(stream).expect("hello frame");
            match Message::from_wire(&frame).expect("hello") {
                Message::Hello(h) => assert_eq!(h.epoch, epoch),
                other => panic!("expected Hello, got {other:?}"),
            }
            let ack = Message::HelloAck {
                version: mlperf_wire::PROTOCOL_VERSION,
                sut_name: "hand-rolled".to_string(),
                max_in_flight: 4,
            };
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &ack.to_wire()).unwrap();
            bytes
        };
        // Epoch 0: handshake, take the issue of query 1, hang up on it.
        let (mut stream, _) = listener.accept().expect("accept");
        let ack = handshake(&mut stream, 0);
        stream.write_all(&ack).expect("ack");
        loop {
            let frame = read_frame(&mut stream).expect("a frame before the issue");
            match Message::from_wire(&frame).expect("message") {
                Message::IssueTraced { query: q, .. } if q.id == 1 => break,
                _ => {} // the handshake's clock probe
            }
        }
        drop(stream);
        // Epoch 1: the answer rides in the same write as the ack, and the
        // replayed issue is never answered.
        let (mut stream, _) = listener.accept().expect("accept the redial");
        let mut bytes = handshake(&mut stream, 1);
        let completion = Message::Completion {
            query_id: 1,
            error: false,
            samples,
        };
        write_frame(&mut bytes, &completion.to_wire()).unwrap();
        stream.write_all(&bytes).expect("ack and completion");
        while read_frame(&mut stream).is_ok() {}
    });

    let client = RemoteSut::connect(addr, hello, config).expect("handshake");
    assert_eq!(
        client.issue_outcome(&query),
        IssueOutcome::Completed(answer)
    );
    client.shutdown();
    server.join().expect("hand-rolled server");
}

/// A service and the daemon's sink in one, which together hold the
/// service inside query 1 until the daemon has logged the replay of that
/// same query as a duplicate — so the replay meets it in progress by
/// construction, whatever the scheduler does.
#[derive(Default)]
struct HeldUntilReplayed {
    events: Mutex<Vec<String>>,
    turn: Condvar,
}

impl WireService for HeldUntilReplayed {
    fn name(&self) -> &str {
        "held-until-replayed"
    }

    fn serve(&self, query: &Query) -> Option<ServedReply> {
        let events = self.events.lock().unwrap();
        let unreplayed = |events: &mut Vec<String>| !events.iter().any(|kind| kind == "dup_issue");
        drop(self.turn.wait_while(events, unreplayed).unwrap());
        Some(ServedReply {
            error: false,
            ..ServedReply::errored(query)
        })
    }
}

impl TraceSink for HeldUntilReplayed {
    fn record(&self, _ts_ns: u64, event: &TraceEvent) {
        if let TraceEvent::WireEvent { kind, .. } = event {
            self.events.lock().unwrap().push(kind.clone());
            self.turn.notify_all();
        }
    }
}

/// The link is severed while a closed-loop session's connection thread is
/// inside the service. That thread is the dead epoch's; the query is still
/// the session's: its replay on the next epoch is skipped as in progress,
/// and its one completion goes out on whichever connection the session
/// has by then — the new one.
#[test]
fn a_link_severed_mid_serve_is_answered_over_the_next_epoch() {
    let settings = settings();
    let config = RemoteSutConfig::default()
        .with_response_timeout(Duration::from_secs(30))
        .with_resume(ResumePolicy {
            max_attempts: 5,
            backoff: Duration::from_millis(5),
        })
        .with_chaos(disconnect_plan());
    let hello = RemoteSut::hello_for(&settings, 8, &config);
    let held = Arc::new(HeldUntilReplayed::default());
    let serve = ServeConfig::default().with_sink(held.clone());
    let (client, server) = loopback(held.clone(), serve, hello, config).expect("loopback");

    let query = Query {
        id: 1,
        samples: vec![QuerySample { id: 10, index: 0 }],
        scheduled_at: Nanos::ZERO,
        tenant: 0,
    };
    let outcome = client.issue_outcome(&query);
    assert!(matches!(outcome, IssueOutcome::Completed(_)), "{outcome:?}");
    client.shutdown();
    server.shutdown();
    // Counted after the send, so read once the serving thread is joined.
    assert_eq!(server.served(), 1);

    let events = held.events.lock().unwrap();
    let count = |kind: &str| events.iter().filter(|k| *k == kind).count();
    assert_eq!(count("handshake"), 2, "{events:?}");
    assert_eq!(count("dup_issue"), 1, "{events:?}");
    assert_eq!(count("replay"), 0, "{events:?}");
}
