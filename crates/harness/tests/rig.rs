//! The loopback wire rig, tested where it lives: what `Rig::connect`
//! builds for one daemon and for several, the watcher's trigger contract,
//! `respawn`, teardown on every exit, and the flight dump of an INVALID
//! run. `fleet_crash.rs` is the integration test (journaled fleet, kill,
//! successor, resume).

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use mlperf_audit::tests::completeness_report;
use mlperf_harness::rig::{dump_flight, Rebind, Rig, Wired};
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::query::Query;
use mlperf_loadgen::sut::FixedLatencySut;
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::Run;
use mlperf_stats::rng::SeedTriple;
use mlperf_sut::BalancePolicy;
use mlperf_trace::flight::parse_flight_dump;
use mlperf_trace::metrics::MetricsRegistry;
use mlperf_trace::{RingBufferSink, TraceEvent};
use mlperf_wire::{RemoteSutConfig, ServeConfig, ServedReply, WireService};

const QSL: usize = 16;

fn spawn(per_sample_us: &[u64]) -> Rig {
    let per_sample: Vec<Nanos> = per_sample_us
        .iter()
        .map(|&us| Nanos::from_micros(us))
        .collect();
    Rig::spawn("rig-dev", &per_sample, |_| ServeConfig::default()).expect("spawn rig")
}

/// An open-loop run of `queries` queries whose verdict no test depends on.
fn server(queries: u64) -> TestSettings {
    TestSettings::server(500.0, Nanos::from_millis(500))
        .with_min_query_count(queries)
        .with_min_duration(Nanos::from_millis(1))
}

fn connect(
    rig: &Rig,
    settings: &TestSettings,
    policy: BalancePolicy,
    sink: Option<Arc<RingBufferSink>>,
) -> Result<Wired, String> {
    let config = |_| RemoteSutConfig::default();
    rig.connect(
        settings,
        QSL as u64,
        config,
        policy,
        sink.map(|s| s as _),
        None,
    )
}

#[test]
fn a_rig_of_one_has_no_router_and_drives_the_client_itself() {
    let rig = spawn(&[50]);
    assert_eq!(rig.label(0), "server");
    let settings = offline(64);
    let sink = Arc::new(RingBufferSink::unbounded());
    let wired = connect(
        &rig,
        &settings,
        BalancePolicy::RoundRobin,
        Some(sink.clone()),
    )
    .unwrap();
    assert!(wired.router.is_none());
    assert_eq!(wired.sut.name(), "rig-dev", "the lone client is the SUT");

    let mut qsl = MemoryQsl::new("rig-qsl", QSL, QSL);
    let out = wired
        .run(&settings)
        .run(&mut qsl, Arc::clone(&wired.sut))
        .unwrap();
    assert!(out.result.is_valid(), "{:?}", out.result.validity);
    wired.drain();

    // The daemon is unlabelled: the spans it shipped at drain say `server`,
    // and nothing routed, so there is no shard row.
    let mut server_spans = 0;
    for record in sink.snapshot() {
        match &record.event {
            TraceEvent::SpanEvent(span) if span.host != "client" => {
                assert_eq!(span.host, "server");
                server_spans += 1;
            }
            TraceEvent::ShardEvent { .. } => panic!("a rig of one routed: {record:?}"),
            _ => {}
        }
    }
    assert!(server_spans > 0, "the drain shipped no server span");
}

/// An offline run whose one query carries every sample.
fn offline(samples: u64) -> TestSettings {
    TestSettings::offline()
        .with_offline_min_sample_count(samples)
        .with_min_duration(Nanos::from_millis(1))
}

#[test]
fn a_rig_of_three_routes_by_weight_and_labels_every_shard_row() {
    let rig = spawn(&[100, 200, 400]);
    let labels: Vec<String> = (0..3).map(|i| rig.label(i)).collect();
    assert_eq!(labels, ["shard-0", "shard-1", "shard-2"]);
    for settings in [server(70), offline(1_024)] {
        let sink = Arc::new(RingBufferSink::unbounded());
        let policy = BalancePolicy::WeightedThroughput;
        let wired = connect(&rig, &settings, policy, Some(sink.clone())).unwrap();
        assert_eq!(wired.clients.len(), 3);
        assert_eq!(wired.sut.name(), "rig-dev-fleet", "the router is the SUT");

        let mut qsl = MemoryQsl::new("rig-qsl", QSL, QSL);
        let out = wired
            .run(&settings)
            .run(&mut qsl, Arc::clone(&wired.sut))
            .unwrap();
        wired.drain();
        let records = sink.snapshot();

        // Weight is the reciprocal of service time: 4 : 2 : 1, ties to the
        // lowest index.
        let router = wired.router.as_ref().unwrap();
        let routed: Vec<u64> = router.status().iter().map(|s| s.routed).collect();
        assert_eq!(
            routed.iter().sum::<u64>(),
            out.result.query_count,
            "{routed:?}"
        );
        if out.result.query_count == 1 {
            // The offline query goes whole to shard 0, and the fleet's
            // merged log audits complete.
            assert_eq!(routed, [1, 0, 0]);
            assert!(out.result.is_valid(), "{:?}", out.result.validity);
            let audit = completeness_report(&records).outcome;
            assert!(audit.passed(), "{audit:?}");
        } else {
            assert!(
                routed[0] > routed[1] && routed[1] > routed[2] && routed[2] > 0,
                "{routed:?}"
            );
        }

        let mut shard_rows = 0;
        for record in &records {
            if let TraceEvent::ShardEvent(event) = &record.event {
                let shard = &event.shard;
                assert!(labels.contains(shard), "row for unknown shard {shard}");
                shard_rows += 1;
            }
        }
        assert!(
            shard_rows >= out.result.query_count,
            "{shard_rows} shard rows"
        );
    }
}

/// A device that panics inside the third query it is handed, across every
/// session of its daemon, and serves the rest as the device it wraps.
struct PanicsOnce {
    device: Arc<dyn WireService>,
    seen: AtomicU64,
}

impl WireService for PanicsOnce {
    fn name(&self) -> &str {
        self.device.name()
    }

    fn serve(&self, query: &Query) -> Option<ServedReply> {
        let nth = self.seen.fetch_add(1, Ordering::SeqCst) + 1;
        assert!(nth != 3, "query {} took shard 1 down (a test)", query.id);
        self.device.serve(query)
    }
}

/// Shard 1's device panics once while two sessions run through the same
/// rig of three. The daemon answers the query it panicked on as errored,
/// the router fails it over, and nothing else notices: both runs end
/// VALID (or, were the failover to lose it, at an error fraction of 1/n),
/// every link stays up, and dropping the rig still joins every daemon
/// thread.
#[test]
fn a_shard_whose_device_panics_once_costs_one_failover_and_nothing_else() {
    let daemon_log = Arc::new(RingBufferSink::unbounded());
    let panicking = Arc::new(std::sync::Mutex::new(None::<Arc<PanicsOnce>>));
    let rig = {
        let daemon_log = Arc::clone(&daemon_log);
        let serve = move |i: usize| match i {
            1 => ServeConfig::default().with_sink(Arc::clone(&daemon_log) as _),
            _ => ServeConfig::default(),
        };
        let panicking = Arc::clone(&panicking);
        let export = move |i: usize, device: Arc<dyn WireService>| -> Arc<dyn WireService> {
            if i != 1 {
                return device;
            }
            let wrapped = Arc::new(PanicsOnce {
                device,
                seen: AtomicU64::new(0),
            });
            *panicking.lock().unwrap() = Some(Arc::clone(&wrapped));
            wrapped
        };
        let per_sample = [100, 200, 400].map(Nanos::from_micros);
        Rig::spawn_exporting("rig-dev", &per_sample, serve, export).expect("spawn rig")
    };
    let service = panicking
        .lock()
        .unwrap()
        .take()
        .expect("shard 1 is wrapped");

    let metrics = Arc::new(MetricsRegistry::new());
    let session = |seed: u64| {
        let settings = server(70).with_seeds(SeedTriple::from_master(seed));
        let wired = rig
            .connect(
                &settings,
                QSL as u64,
                |_| RemoteSutConfig::default(),
                BalancePolicy::WeightedThroughput,
                None,
                Some(Arc::clone(&metrics)),
            )
            .expect("connect");
        (settings, wired)
    };
    let sessions = [session(11), session(12)];
    let results: Vec<_> = std::thread::scope(|scope| {
        let runs: Vec<_> = sessions
            .iter()
            .map(|(settings, wired)| {
                scope.spawn(move || {
                    let mut qsl = MemoryQsl::new("rig-qsl", QSL, QSL);
                    let out = wired.run(settings).run(&mut qsl, Arc::clone(&wired.sut));
                    out.expect("the run must finish").result
                })
            })
            .collect();
        runs.into_iter().map(|run| run.join().unwrap()).collect()
    });

    assert!(
        service.seen.load(Ordering::SeqCst) >= 3,
        "shard 1 never saw a third query"
    );
    let failovers = metrics.snapshot().counter("shard_failover");
    for result in &results {
        let rescued = result.is_valid() && result.error_count == 0;
        let one_lost = result.error_count == 1;
        assert!(rescued || one_lost, "{:?}", result.validity);
    }
    let errored: u64 = results.iter().map(|r| r.error_count).sum();
    assert_eq!(
        failovers + errored,
        1,
        "one panic, one failover or one error"
    );
    for (_, wired) in &sessions {
        assert!(
            wired.clients.iter().all(|c| c.is_connected()),
            "a link died with the panic"
        );
    }
    let panics = daemon_log
        .snapshot()
        .into_iter()
        .filter(
            |r| matches!(&r.event, TraceEvent::WireEvent(event) if event.kind == "service_panic"),
        )
        .count();
    assert_eq!(panics, 1);

    let addrs: Vec<String> = (0..3).map(|i| rig.addr(i).to_string()).collect();
    for (_, wired) in &sessions {
        wired.drain();
    }
    drop(sessions);
    drop(rig);
    assert_eq!(
        Arc::strong_count(&service),
        1,
        "a daemon thread outlived the rig"
    );
    for addr in &addrs {
        assert!(TcpStream::connect(addr).is_err(), "{addr} still listens");
    }
}

#[test]
fn the_watcher_strikes_once_with_a_query_in_flight_or_not_at_all() {
    // The victim is slow enough (50 ms a query) that the query the watcher
    // saw in flight is still in flight when the strike looks again.
    let rig = spawn(&[100, 50_000]);
    let settings = server(8);
    let wired = connect(&rig, &settings, BalancePolicy::RoundRobin, None).unwrap();
    let victim = 1;

    let strikes = AtomicUsize::new(0);
    let in_flight_at_strike = AtomicUsize::new(0);
    let strike = || {
        strikes.fetch_add(1, Ordering::SeqCst);
        let status = &wired.router.as_ref().unwrap().status()[victim];
        assert!(status.routed >= 1);
        in_flight_at_strike.store(status.outstanding, Ordering::SeqCst);
    };
    let mut qsl = MemoryQsl::new("rig-qsl", QSL, QSL);
    let run = || wired.run(&settings).run(&mut qsl, Arc::clone(&wired.sut));
    let (out, struck) = wired.run_watched(victim, strike, run);
    out.unwrap();
    assert!(struck);
    assert_eq!(strikes.load(Ordering::SeqCst), 1);
    assert!(in_flight_at_strike.load(Ordering::SeqCst) > 0);

    // A victim no query reaches — an offline run is one query, and
    // round-robin hands it to shard 0 — is never struck: the run ends first.
    let settings = offline(64);
    let wired = connect(&rig, &settings, BalancePolicy::RoundRobin, None).unwrap();
    let mut qsl = MemoryQsl::new("rig-qsl", QSL, QSL);
    let run = || wired.run(&settings).run(&mut qsl, Arc::clone(&wired.sut));
    let strike = || {
        strikes.fetch_add(1, Ordering::SeqCst);
    };
    let (out, struck) = wired.run_watched(victim, strike, run);
    out.unwrap();
    assert!(!struck);
    assert_eq!(strikes.load(Ordering::SeqCst), 1);
}

#[test]
fn respawn_rebinds_the_same_address_or_moves_connect_to_a_fresh_port() {
    let mut rig = spawn(&[50]);
    let settings = server(1);
    let first = rig.addr(0).to_string();
    rig.kill(0);
    assert!(connect(&rig, &settings, BalancePolicy::RoundRobin, None).is_err());

    rig.respawn(0, Rebind::SameAddress).unwrap();
    assert_eq!(rig.addr(0), first);
    let wired = connect(&rig, &settings, BalancePolicy::RoundRobin, None).unwrap();
    assert_eq!(wired.clients[0].peer(), first);
    drop(wired);

    rig.respawn(0, Rebind::FreshPort).unwrap();
    let wired = connect(&rig, &settings, BalancePolicy::RoundRobin, None).unwrap();
    assert_eq!(wired.clients[0].peer(), rig.addr(0));
    if rig.addr(0) != first {
        assert!(
            TcpStream::connect(&first).is_err(),
            "the predecessor still listens"
        );
    }
}

#[test]
fn a_failed_connect_and_a_dropped_rig_leave_nothing_listening() {
    let rig = spawn(&[50, 50, 50]);
    let addrs: Vec<String> = (0..3).map(|i| rig.addr(i).to_string()).collect();
    rig.kill(1);
    // Shard 0 connects, shard 1 refuses: the early return drains shard 0's
    // client and the error names the daemon that refused.
    let err = connect(&rig, &server(1), BalancePolicy::RoundRobin, None)
        .err()
        .expect("connect to a killed daemon must fail");
    assert!(err.contains("shard-1") && err.contains(&addrs[1]), "{err}");
    assert!(TcpStream::connect(&addrs[0]).is_ok(), "the rig is still up");

    drop(rig);
    for addr in &addrs {
        assert!(TcpStream::connect(addr).is_err(), "{addr} still listens");
    }
}

#[test]
fn a_flight_dump_always_leaves_its_root_cause_report_beside_it() {
    // Every query of this server run busts the latency bound, so it is
    // INVALID by `latency_bound_exceeded` under any seed.
    let settings = TestSettings::server(2_000.0, Nanos::from_micros(50))
        .with_min_query_count(64)
        .with_min_duration(Nanos::from_millis(10));
    let sink = RingBufferSink::unbounded();
    let mut qsl = MemoryQsl::new("rig-qsl", QSL, QSL);
    let mut sut = FixedLatencySut::new("rig-slow", Nanos::from_millis(2));
    let out = Run::simulated(&settings)
        .sink(&sink)
        .run(&mut qsl, &mut sut)
        .unwrap();
    assert!(!out.result.is_valid());

    let dir = std::env::temp_dir().join(format!("rig-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("flight.jsonl").display().to_string();
    dump_flight(&path, "rig run INVALID", &sink.snapshot());
    let dump = std::fs::read_to_string(&path).map(|d| parse_flight_dump(&d));
    let report = std::fs::read_to_string(format!("{path}.analysis.md"));
    let _ = std::fs::remove_dir_all(&dir);

    let dump = dump
        .expect("the dump was written")
        .expect("the dump parses");
    assert_eq!(dump.reason, "rig run INVALID");
    assert!(!dump.records.is_empty());
    let report = report.expect("the analysis was written beside the dump");
    assert!(report.contains("`latency_bound_exceeded`"), "{report}");
}
