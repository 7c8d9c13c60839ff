//! End-to-end loopback tests: LoadGen driving a remote SUT through a real
//! TCP connection on 127.0.0.1, including every failure path the protocol
//! promises to surface as a structured verdict instead of a hang.

use std::io::Write;
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::qsl::{MemoryQsl, QuerySampleLibrary};
use mlperf_loadgen::sut::{
    FixedLatencySut, IssueOutcome, RealtimeSut, SimSut, SleepSut, SutReaction,
};
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::validate::ValidityIssue;
use mlperf_loadgen::{Query, Run};
use mlperf_trace::metrics::MetricsRegistry;
use mlperf_trace::RingBufferSink;
use mlperf_wire::frame::{read_frame, write_frame};
use mlperf_wire::message::{Hello, Message, PROTOCOL_VERSION};
use mlperf_wire::{
    loopback, loopback_instrumented, serve_on, RemoteSut, RemoteSutConfig, ServeConfig,
    ServedReply, SilentDropService, SimHost, WireChaosPlan, WireError, WireService,
};

fn hello_for(settings: &TestSettings, qsl: &MemoryQsl, config: &RemoteSutConfig) -> Hello {
    RemoteSut::hello_for(settings, qsl.total_sample_count() as u64, config)
}

/// A one-sample query.
fn query(id: u64) -> Query {
    Query {
        id,
        samples: vec![mlperf_loadgen::QuerySample {
            id: id * 10,
            index: 0,
        }],
        scheduled_at: Nanos::ZERO,
        tenant: 0,
    }
}

/// What an honest service answers `query` with: every sample, no error.
fn answered(query: &Query) -> Option<ServedReply> {
    Some(ServedReply {
        error: false,
        ..ServedReply::errored(query)
    })
}

#[test]
fn loopback_offline_run_is_valid() {
    let settings = TestSettings::offline()
        .with_min_duration(Nanos::from_micros(1))
        .with_offline_min_sample_count(64);
    let mut qsl = MemoryQsl::new("loop-qsl", 32, 32);
    let config = RemoteSutConfig::default();
    let hello = hello_for(&settings, &qsl, &config);
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "remote-dev",
        Nanos::from_micros(5),
    )));
    let (client, server) =
        loopback(service, ServeConfig::default(), hello, config).expect("loopback");
    assert_eq!(RealtimeSut::name(&client), "remote-dev");

    let out = Run::wall_clock(&settings)
        .run(&mut qsl, Arc::new(client))
        .expect("run");
    assert!(out.result.is_valid(), "{:?}", out.result.validity);
    assert!(out.result.sample_count >= 64);
    assert!(server.served() >= 1);
    server.shutdown();
}

#[test]
fn loopback_single_stream_collects_wire_metrics() {
    let settings = TestSettings::single_stream()
        .with_min_query_count(20)
        .with_min_duration(Nanos::from_micros(1));
    let mut qsl = MemoryQsl::new("loop-qsl", 16, 16);
    let config = RemoteSutConfig::default();
    let hello = hello_for(&settings, &qsl, &config);
    let sink = Arc::new(RingBufferSink::new(4096));
    let metrics = Arc::new(MetricsRegistry::new());
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "remote-dev",
        Nanos::from_micros(10),
    )));
    let (client, server) = loopback_instrumented(
        service,
        ServeConfig::default(),
        hello,
        config,
        Some(sink.clone()),
        Some(metrics.clone()),
    )
    .expect("loopback");

    let out = Run::wall_clock(&settings)
        .run(&mut qsl, Arc::new(client))
        .expect("run");
    assert!(out.result.is_valid(), "{:?}", out.result.validity);

    let snapshot = metrics.snapshot();
    let frames = snapshot
        .counters
        .get("wire_frames_sent")
        .copied()
        .unwrap_or(0);
    assert!(frames >= 20, "expected >=20 frames sent, saw {frames}");
    let rtt = snapshot
        .histograms
        .get("wire_rtt_ns")
        .expect("wire_rtt_ns histogram");
    assert!(rtt.count() >= 20, "expected >=20 RTT observations");
    assert!(snapshot.histograms.contains_key("wire_encode_ns"));
    server.shutdown();
}

#[test]
fn killing_the_server_mid_run_yields_structured_invalid() {
    let settings = TestSettings::single_stream()
        .with_min_query_count(200)
        .with_min_duration(Nanos::from_millis(50));
    let mut qsl = MemoryQsl::new("loop-qsl", 16, 16);
    // Short response timeout so even a query caught mid-flight resolves
    // quickly; the disconnect path itself is immediate.
    let config = RemoteSutConfig::default().with_response_timeout(Duration::from_millis(500));
    let hello = hello_for(&settings, &qsl, &config);
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "doomed",
        Nanos::from_micros(200),
    )));
    let (client, server) =
        loopback(service, ServeConfig::default(), hello, config).expect("loopback");
    let server = Arc::new(server);

    let killer = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            server.kill();
        })
    };

    let out = Run::wall_clock(&settings)
        .run(&mut qsl, Arc::new(client))
        .expect("run must not hang");
    killer.join().unwrap();
    assert!(!out.result.is_valid(), "a killed server cannot yield VALID");
    assert!(
        out.result.validity.iter().any(|i| matches!(
            i,
            ValidityIssue::ErrorFractionExceeded { .. } | ValidityIssue::IncompleteQueries { .. }
        )),
        "expected an error-fraction or incomplete-queries verdict, got {:?}",
        out.result.validity
    );
}

/// One version is spoken: a newer peer and an older one are both refused,
/// with a reason naming what they offered.
#[test]
fn version_mismatch_is_rejected() {
    let settings = TestSettings::single_stream();
    let qsl = MemoryQsl::new("loop-qsl", 4, 4);
    let config = RemoteSutConfig::default();
    for offered in [PROTOCOL_VERSION + 1, PROTOCOL_VERSION - 1] {
        let mut hello = hello_for(&settings, &qsl, &config);
        hello.version = offered;
        let service = Arc::new(SimHost::new(FixedLatencySut::new(
            "strict",
            Nanos::from_micros(1),
        )));
        match loopback(service, ServeConfig::default(), hello, config.clone()) {
            Err(WireError::Rejected(reason)) => assert!(
                reason.contains(&format!("client v{offered}")),
                "v{offered} refused without naming it: {reason}"
            ),
            Err(other) => panic!("v{offered}: expected Rejected, got {other:?}"),
            Ok((_client, server)) => {
                server.shutdown();
                panic!("a v{offered} handshake was accepted");
            }
        }
    }
}

#[test]
fn heartbeat_loss_fails_pending_queries_instead_of_hanging() {
    // A hand-rolled zombie server: completes the handshake, then reads
    // and discards every frame — no completions, no heartbeat acks. The
    // socket stays open, so only the heartbeat monitor can notice.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let zombie = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let _hello = read_frame(&mut stream).expect("hello frame");
        let ack = Message::HelloAck {
            version: PROTOCOL_VERSION,
            sut_name: "zombie".to_string(),
            max_in_flight: 4,
        };
        write_frame(&mut stream, &ack.to_wire()).expect("ack");
        stream.flush().ok();
        while read_frame(&mut stream).is_ok() {}
    });

    let settings = TestSettings::single_stream();
    let qsl = MemoryQsl::new("loop-qsl", 4, 4);
    let config = RemoteSutConfig::default()
        .with_heartbeat(Duration::from_millis(10), Duration::from_millis(80))
        .with_response_timeout(Duration::from_secs(30));
    let hello = hello_for(&settings, &qsl, &config);
    let client = RemoteSut::connect(addr, hello, config).expect("handshake");

    let query = Query {
        id: 1,
        samples: vec![mlperf_loadgen::QuerySample { id: 10, index: 0 }],
        scheduled_at: Nanos::ZERO,
        tenant: 0,
    };
    let started = std::time::Instant::now();
    let outcome = client.issue_outcome(&query);
    assert_eq!(outcome, IssueOutcome::Errored, "heartbeat loss => errored");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "heartbeat loss must beat the 30s response timeout"
    );
    assert!(!client.is_connected());
    client.shutdown();
    zombie.join().unwrap();
}

#[test]
fn heartbeat_loss_run_ends_error_fraction_exceeded_not_a_hang() {
    // Deterministic heartbeat loss: a one-way recv partition after the
    // handshake's HelloAck. The server keeps answering — the client's
    // chaos layer discards every inbound frame, so no completions and no
    // heartbeat acks arrive. The heartbeat monitor must fail the run as
    // *errored* (the socket is provably alive, the peer just isn't
    // answering) well inside the 5 s response timeout.
    let settings = TestSettings::single_stream()
        .with_min_query_count(5)
        .with_min_duration(Nanos::from_micros(1));
    let mut qsl = MemoryQsl::new("loop-qsl", 8, 8);
    let config = RemoteSutConfig::default()
        .with_heartbeat(Duration::from_millis(10), Duration::from_millis(60))
        .with_response_timeout(Duration::from_secs(5))
        .with_chaos(WireChaosPlan::new(0xBEA7).with_partition_recv_after(1));
    let hello = hello_for(&settings, &qsl, &config);
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "muted",
        Nanos::from_micros(50),
    )));
    let (client, server) =
        loopback(service, ServeConfig::default(), hello, config).expect("loopback");

    let started = std::time::Instant::now();
    let out = Run::wall_clock(&settings)
        .run(&mut qsl, Arc::new(client))
        .expect("run must not hang");
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "heartbeat loss must resolve the run well before the response timeout"
    );
    assert!(!out.result.is_valid());
    assert!(
        out.result
            .validity
            .iter()
            .any(|i| matches!(i, ValidityIssue::ErrorFractionExceeded { .. })),
        "heartbeat loss must surface as error fraction, got {:?}",
        out.result.validity
    );
    server.shutdown();
}

#[test]
fn daemon_shutdown_joins_threads_and_releases_the_port() {
    let settings = TestSettings::single_stream()
        .with_min_query_count(5)
        .with_min_duration(Nanos::from_micros(1));
    let mut qsl = MemoryQsl::new("loop-qsl", 8, 8);
    let config = RemoteSutConfig::default();
    let hello = hello_for(&settings, &qsl, &config);
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "short-lived",
        Nanos::from_micros(5),
    )));
    let serve = ServeConfig::default().with_workers_per_conn(2);
    let (client, server) = loopback(service.clone(), serve, hello, config).expect("loopback");
    let addr = server.addr();

    // One session served on its connection thread...
    let out = Run::wall_clock(&settings)
        .run(&mut qsl, Arc::new(client))
        .expect("run");
    assert!(out.result.is_valid(), "{:?}", out.result.validity);
    // ...and one on a worker pool, still connected: its connection thread
    // and both its workers are parked when `shutdown` comes for them.
    let pooled = TestSettings::server(100.0, Nanos::from_millis(50));
    let config = RemoteSutConfig::default();
    let hello = hello_for(&pooled, &qsl, &config);
    let client = RemoteSut::connect(addr, hello, config).expect("second session");
    assert!(matches!(
        client.issue_outcome(&query(1)),
        IssueOutcome::Completed(_)
    ));

    // The first run consumed (and dropped) its client, so its Drain
    // already closed that connection; shutdown must reap every thread —
    // each accept, connection and worker thread holds the service — and
    // the listener, so the exact same port binds again.
    server.shutdown();
    assert_eq!(Arc::strong_count(&service), 1, "a thread outlived shutdown");
    assert_eq!(server.served(), 6);
    drop(client);

    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "second-tenant",
        Nanos::from_micros(5),
    )));
    let second = serve_on(&addr.to_string(), service, ServeConfig::default())
        .expect("the port must be rebindable immediately after shutdown");
    assert_eq!(second.addr(), addr);
    second.shutdown();
}

#[test]
fn silently_dropped_queries_vanish_and_stay_outstanding() {
    let settings = TestSettings::single_stream()
        .with_min_query_count(5)
        .with_min_duration(Nanos::from_micros(1));
    let mut qsl = MemoryQsl::new("loop-qsl", 8, 8);
    let config = RemoteSutConfig::default().with_response_timeout(Duration::from_millis(100));
    let hello = hello_for(&settings, &qsl, &config);
    // Drop everything: every query vanishes, none completes.
    let service = Arc::new(SilentDropService::new(
        SleepSut::new("cheater", Duration::ZERO),
        1.0,
        13,
    ));
    let (client, server) =
        loopback(service, ServeConfig::default(), hello, config).expect("loopback");

    let out = Run::wall_clock(&settings)
        .run(&mut qsl, Arc::new(client))
        .expect("run must not hang");
    assert!(!out.result.is_valid());
    assert!(
        out.result
            .validity
            .iter()
            .any(|i| matches!(i, ValidityIssue::IncompleteQueries { .. })),
        "silent drops must surface as incomplete queries, got {:?}",
        out.result.validity
    );
    server.shutdown();
}

/// `shutdown` wakes the parked heartbeat thread instead of waiting out its
/// interval: closing an idle healthy link takes milliseconds even when the
/// next heartbeat is seconds away.
#[test]
fn shutdown_on_an_idle_link_does_not_wait_for_the_heartbeat_interval() {
    let settings = TestSettings::single_stream();
    let qsl = MemoryQsl::new("loop-qsl", 4, 4);
    let interval = Duration::from_secs(3);
    let config = RemoteSutConfig::default().with_heartbeat(interval, Duration::from_secs(30));
    let hello = hello_for(&settings, &qsl, &config);
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "idle-peer",
        Nanos::from_micros(10),
    )));
    let (client, server) =
        loopback(service, ServeConfig::default(), hello, config).expect("loopback");
    assert!(client.is_connected());

    let started = std::time::Instant::now();
    client.shutdown();
    let took = started.elapsed();
    assert!(
        took < interval / 6,
        "shutdown of an idle link took {took:?} against a {interval:?} heartbeat interval"
    );
    server.shutdown();
}

/// Parking must not change the cadence: heartbeats keep coming, and never
/// sooner than one per interval (an early wake-up re-parks, it does not ping).
#[test]
fn heartbeats_still_fire_on_schedule() {
    let settings = TestSettings::single_stream();
    let qsl = MemoryQsl::new("loop-qsl", 4, 4);
    let interval = Duration::from_millis(20);
    let config = RemoteSutConfig::default().with_heartbeat(interval, Duration::from_secs(30));
    let hello = hello_for(&settings, &qsl, &config);
    let metrics = Arc::new(MetricsRegistry::new());
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "beating-peer",
        Nanos::from_micros(10),
    )));
    let started = std::time::Instant::now();
    let (client, server) = loopback_instrumented(
        service,
        ServeConfig::default(),
        hello,
        config,
        None,
        Some(metrics.clone()),
    )
    .expect("loopback");

    let beats = || {
        let snapshot = metrics.snapshot();
        snapshot
            .counters
            .get("wire_heartbeats")
            .copied()
            .unwrap_or(0)
    };
    while beats() < 5 {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "only {} heartbeats in 10 s at a {interval:?} interval",
            beats()
        );
        std::thread::sleep(interval / 4);
    }
    let seen = beats();
    let most = (started.elapsed().as_nanos() / interval.as_nanos()) as u64;
    assert!(
        seen <= most,
        "{seen} heartbeats where {most} intervals have elapsed"
    );
    assert!(client.is_connected(), "acks kept the link alive");
    client.shutdown();
    server.shutdown();
}

/// The journaled daemon encodes a completion once: the bytes appended to
/// `session_*.mlpj` are the bytes sent on the socket for the same query.
#[test]
fn journaled_completion_bytes_equal_the_bytes_on_the_socket() {
    let dir = std::env::temp_dir().join(format!("mlpj-wire-once-{}", std::process::id()));
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "journaled-peer",
        Nanos::from_micros(10),
    )));
    let server = serve_on(
        "127.0.0.1:0",
        service,
        ServeConfig::default().with_journal_dir(&dir),
    )
    .expect("serve");

    let settings = TestSettings::single_stream();
    let qsl = MemoryQsl::new("loop-qsl", 8, 8);
    let hello = hello_for(&settings, &qsl, &RemoteSutConfig::default());
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut stream, &Message::Hello(hello.clone()).to_wire()).expect("hello");
    let ack = Message::from_wire(&read_frame(&mut stream).expect("ack frame")).expect("ack");
    assert!(matches!(ack, Message::HelloAck { .. }), "{ack:?}");

    let mut on_socket = Vec::new();
    for id in 0..4u64 {
        let samples = (0..=id)
            .map(|i| mlperf_loadgen::QuerySample {
                id: id * 10 + i,
                index: i as usize,
            })
            .collect();
        let issue = Message::IssueTraced {
            trace_id: 0x7AC3 + id,
            query: Query {
                id,
                samples,
                scheduled_at: Nanos::ZERO,
                tenant: 0,
            },
        };
        write_frame(&mut stream, &issue.to_wire()).expect("issue");
        let payload = read_frame(&mut stream).expect("completion frame");
        assert!(matches!(
            Message::from_wire(&payload),
            Ok(Message::Completion { query_id, .. }) if query_id == id
        ));
        on_socket.push(payload);
    }

    // The worker journals before it sends, so every frame read above is
    // already in the file; the undrained session keeps it on disk.
    let journal = dir.join(format!("session_{:016x}.mlpj", hello.session));
    let scan = mlperf_trace::read_journal(&journal).expect("session journal");
    assert!(scan.torn.is_none());
    assert_eq!(scan.records, on_socket);

    drop(stream);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A drained run's reaping must not touch its successor: a client that
/// closes one run and at once opens the next under the same session id
/// keeps its session and its on-disk journal, every round.
#[test]
fn back_to_back_runs_under_one_session_id_keep_their_journal() {
    let dir = std::env::temp_dir().join(format!("mlpj-wire-b2b-{}", std::process::id()));
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "b2b-peer",
        Nanos::from_micros(10),
    )));
    let server = serve_on(
        "127.0.0.1:0",
        service,
        ServeConfig::default().with_journal_dir(&dir),
    )
    .expect("serve");
    let settings = TestSettings::single_stream();
    let qsl = MemoryQsl::new("loop-qsl", 4, 4);
    let config = RemoteSutConfig::default();
    let hello = hello_for(&settings, &qsl, &config);
    let journal = dir.join(format!("session_{:016x}.mlpj", hello.session));
    let query = Query {
        id: 1,
        samples: vec![mlperf_loadgen::QuerySample { id: 10, index: 0 }],
        scheduled_at: Nanos::ZERO,
        tenant: 0,
    };
    for round in 0..25 {
        let client =
            RemoteSut::connect(server.addr(), hello.clone(), config.clone()).expect("connect");
        assert!(
            matches!(client.issue_outcome(&query), IssueOutcome::Completed(_)),
            "round {round}"
        );
        assert!(
            journal.exists(),
            "round {round}: journal reaped by predecessor"
        );
        client.shutdown();
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A daemon serving a closed-loop query answers no heartbeat itself — its
/// connection thread is inside the service — so it vouches for the query
/// in flight, and a query six times the client's grace still completes.
/// (Without the vouching send this is `Errored`: heartbeat loss.)
#[test]
fn a_query_served_longer_than_the_grace_keeps_the_link() {
    let settings = TestSettings::single_stream();
    let qsl = MemoryQsl::new("loop-qsl", 4, 4);
    let config = RemoteSutConfig::default()
        .with_heartbeat(Duration::from_millis(50), Duration::from_millis(400));
    let hello = hello_for(&settings, &qsl, &config);
    let service = Arc::new(SleepSut::new("slow", Duration::from_millis(1_500)));
    let metrics = Arc::new(MetricsRegistry::new());
    let serve = ServeConfig::default().with_metrics(metrics.clone());
    let (client, server) = loopback(service, serve, hello, config).expect("loopback");

    let outcome = client.issue_outcome(&query(1));
    assert!(matches!(outcome, IssueOutcome::Completed(_)), "{outcome:?}");
    assert!(client.is_connected());
    let vouches = metrics.snapshot().counter("wire_liveness_vouches");
    assert!(vouches >= 10, "{vouches} vouches in 1.5 s of 25 ms ticks");
    client.shutdown();
    server.shutdown();
}

/// Records the name of every thread that calls into it.
#[derive(Default)]
struct WhoServes {
    threads: Mutex<Vec<String>>,
}

impl WireService for WhoServes {
    fn name(&self) -> &str {
        "who-serves"
    }

    fn serve(&self, query: &Query) -> Option<ServedReply> {
        let thread = std::thread::current();
        let name = thread.name().unwrap_or("<unnamed>").to_string();
        self.threads.lock().unwrap().push(name);
        answered(query)
    }
}

/// Closed-loop sessions have one query in flight by their own rules and
/// are served where the frame was read; a server session's pipelined
/// backlog waits in the observed work queue, for a pool worker.
#[test]
fn closed_loop_sessions_are_served_on_the_connection_thread() {
    let service = Arc::new(WhoServes::default());
    let server = serve_on("127.0.0.1:0", service.clone(), ServeConfig::default()).expect("serve");
    let qsl = MemoryQsl::new("loop-qsl", 4, 4);
    // The closed-loop three, then the one with a pool.
    for settings in [
        TestSettings::single_stream(),
        TestSettings::multi_stream(2, Nanos::from_millis(50)),
        TestSettings::offline(),
        TestSettings::server(100.0, Nanos::from_millis(50)),
    ] {
        let config = RemoteSutConfig::default();
        let hello = hello_for(&settings, &qsl, &config);
        let client = RemoteSut::connect(server.addr(), hello, config).expect("connect");
        for id in 1..=3 {
            let outcome = client.issue_outcome(&query(id));
            assert!(matches!(outcome, IssueOutcome::Completed(_)), "{outcome:?}");
        }
        client.shutdown();
    }
    server.shutdown();
    let threads = service.threads.lock().unwrap();
    let (closed, pooled) = threads.split_at(9);
    assert!(
        closed.iter().all(|name| name.starts_with("wire-conn-")),
        "{closed:?}"
    );
    assert_eq!(pooled, ["wire-worker-0"; 3], "{pooled:?}");
}

/// Panics on the third query it is handed.
#[derive(Default)]
struct PanicsOnce {
    seen: Mutex<u32>,
}

impl WireService for PanicsOnce {
    fn name(&self) -> &str {
        "panics-once"
    }

    fn serve(&self, query: &Query) -> Option<ServedReply> {
        let nth = {
            let mut seen = self.seen.lock().unwrap();
            *seen += 1;
            *seen
        };
        assert!(
            nth != 3,
            "query {} took the service down (a test)",
            query.id
        );
        answered(query)
    }

    fn reset(&self) {
        *self.seen.lock().unwrap() = 0;
    }
}

/// A simulated device that panics inside the third `on_query` it is
/// handed — under `SimHost`'s own mutex, which the unwind poisons.
struct PanicsInOnQuery {
    inner: FixedLatencySut,
    seen: u32,
}

impl SimSut for PanicsInOnQuery {
    fn name(&self) -> &str {
        "panics-in-on-query"
    }

    fn on_query(&mut self, now: Nanos, query: &Query) -> SutReaction {
        self.seen += 1;
        assert!(
            self.seen != 3,
            "query {} took the device down (a test)",
            query.id
        );
        self.inner.on_query(now, query)
    }
}

/// A service that panics costs the query it panicked on and nothing else,
/// whichever thread was serving: the connection thread (single-stream) or
/// a pool worker (server). One `service_panic` event names that thread.
/// The same when the panic unwinds through a lock the service itself
/// holds: a poisoned `SimHost` answers the next query normally.
#[test]
fn a_panicking_service_errors_one_query_and_the_session_survives() {
    let single = TestSettings::single_stream();
    let server_settings = TestSettings::server(100.0, Nanos::from_millis(50));
    let panics_once = || -> Arc<dyn WireService> { Arc::new(PanicsOnce::default()) };
    let poisons_its_host = || -> Arc<dyn WireService> {
        Arc::new(SimHost::new(PanicsInOnQuery {
            inner: FixedLatencySut::new("device", Nanos::from_micros(10)),
            seen: 0,
        }))
    };
    for (settings, thread, service) in [
        (single.clone(), "wire-conn-", panics_once()),
        (server_settings, "wire-worker-0", panics_once()),
        (single, "wire-conn-", poisons_its_host()),
    ] {
        let sink = Arc::new(RingBufferSink::unbounded());
        let serve = ServeConfig::default().with_sink(sink.clone());
        let qsl = MemoryQsl::new("loop-qsl", 4, 4);
        let config = RemoteSutConfig::default();
        let hello = hello_for(&settings, &qsl, &config);
        let (client, server) = loopback(service.clone(), serve, hello, config).expect("loopback");

        for id in 1..=5 {
            let outcome = client.issue_outcome(&query(id));
            if id == 3 {
                assert_eq!(outcome, IssueOutcome::Errored, "{thread}");
            } else {
                assert!(
                    matches!(outcome, IssueOutcome::Completed(_)),
                    "{thread} query {id}: {outcome:?}"
                );
            }
        }
        assert!(client.is_connected());
        client.shutdown();
        server.shutdown();
        assert_eq!(Arc::strong_count(&service), 1, "a thread outlived shutdown");

        let panics: Vec<_> = sink
            .snapshot()
            .into_iter()
            .filter_map(|record| match record.event {
                mlperf_trace::TraceEvent::WireEvent {
                    kind,
                    query_id,
                    detail,
                    ..
                } if kind == "service_panic" => Some((query_id, detail)),
                _ => None,
            })
            .collect();
        assert_eq!(panics.len(), 1, "{panics:?}");
        let (query_id, detail) = &panics[0];
        assert_eq!(*query_id, 3);
        assert!(detail.starts_with(&format!("thread={thread}")), "{detail}");
        assert!(detail.contains(" session=0x"), "{detail}");
    }
}
