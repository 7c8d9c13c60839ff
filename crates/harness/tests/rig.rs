//! The loopback wire rig, tested where it lives: what `Rig::connect`
//! builds for one daemon and for several, the watcher's trigger contract,
//! `respawn`, and teardown on every exit. `fleet_crash.rs` is the
//! integration test (journaled fleet, kill, successor, resume).

use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mlperf_harness::rig::{Rebind, Rig, Wired};
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::time::Nanos;
use mlperf_sut::BalancePolicy;
use mlperf_trace::{RingBufferSink, TraceEvent};
use mlperf_wire::{RemoteSutConfig, ServeConfig};

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
    assert_eq!((rig.daemon_count(), rig.label(0).as_str()), (1, "server"));
    let settings = TestSettings::offline()
        .with_offline_min_sample_count(64)
        .with_min_duration(Nanos::from_millis(1));
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
            TraceEvent::SpanEvent { host, .. } if host != "client" => {
                assert_eq!(host, "server");
                server_spans += 1;
            }
            TraceEvent::ShardEvent { .. } => panic!("a rig of one routed: {record:?}"),
            _ => {}
        }
    }
    assert!(server_spans > 0, "the drain shipped no server span");
}

#[test]
fn a_rig_of_three_routes_by_weight_and_labels_every_shard_row() {
    let rig = spawn(&[100, 200, 400]);
    let labels: Vec<String> = (0..3).map(|i| rig.label(i)).collect();
    assert_eq!(labels, ["shard-0", "shard-1", "shard-2"]);
    let settings = server(70);
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

    // Weight is the reciprocal of service time: 4 : 2 : 1.
    let router = wired.router.as_ref().unwrap();
    let routed: Vec<u64> = router.status().iter().map(|s| s.routed).collect();
    assert_eq!(
        routed.iter().sum::<u64>(),
        out.result.query_count,
        "{routed:?}"
    );
    assert!(
        routed[0] > routed[1] && routed[1] > routed[2] && routed[2] > 0,
        "{routed:?}"
    );

    let mut shard_rows = 0;
    for record in sink.snapshot() {
        if let TraceEvent::ShardEvent { shard, .. } = &record.event {
            assert!(labels.contains(shard), "row for unknown shard {shard}");
            shard_rows += 1;
        }
    }
    assert!(
        shard_rows >= out.result.query_count,
        "{shard_rows} shard rows"
    );
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
    let (out, struck) = wired.run_watched(victim, 1, strike, run);
    out.unwrap();
    assert!(struck);
    assert_eq!(strikes.load(Ordering::SeqCst), 1);
    assert!(in_flight_at_strike.load(Ordering::SeqCst) > 0);

    // A threshold the run never reaches: the run ends first.
    let wired = connect(&rig, &settings, BalancePolicy::RoundRobin, None).unwrap();
    let mut qsl = MemoryQsl::new("rig-qsl", QSL, QSL);
    let run = || wired.run(&settings).run(&mut qsl, Arc::clone(&wired.sut));
    let strike = || {
        strikes.fetch_add(1, Ordering::SeqCst);
    };
    let (out, struck) = wired.run_watched(victim, u64::MAX, strike, run);
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
