//! The EXPERIMENTS.md fleet-crash walkthrough, pinned as a test: a
//! journaled server run drives a 3-shard wire fleet through the
//! [`ShardedSut`] router, the client and one shard daemon both die at a
//! checkpoint boundary, and the rescued run — restarted daemon re-adopting
//! its session journal from disk, fresh client resuming from the run
//! journal with an epoch bump — finishes VALID with a logical record
//! stream identical to an uninterrupted fleet run's, and its detail log
//! passes the TEST06 completeness audit.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mlperf_audit::tests::completeness_report;
use mlperf_audit::AuditOutcome;
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::journal::{load_run_journal, JournalConfig};
use mlperf_loadgen::qsl::{MemoryQsl, QuerySampleLibrary};
use mlperf_loadgen::record::QueryRecord;
use mlperf_loadgen::sut::FixedLatencySut;
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::{JournaledRun, Run};
use mlperf_sut::{BalancePolicy, ShardEndpoint, ShardedSut};
use mlperf_trace::RingBufferSink;
use mlperf_wire::{serve_on, RemoteSut, RemoteSutConfig, ServeConfig, ServerHandle, SimHost};

const SHARDS: usize = 3;
const HALT_AT: u64 = 1;

fn settings() -> TestSettings {
    TestSettings::server(2_000.0, Nanos::from_millis(50))
        .with_min_query_count(24)
        .with_min_duration(Nanos::from_millis(1))
}

/// Heterogeneous per-shard service time, like netbench's fleet.
fn shard_latency(i: usize) -> Nanos {
    Nanos::from_micros(100 + 50 * i as u64)
}

fn spawn_shard(i: usize, journal_dir: &Path) -> ServerHandle {
    let device = SimHost::new(FixedLatencySut::new("fleet-dev", shard_latency(i)));
    serve_on(
        "127.0.0.1:0",
        Arc::new(device),
        ServeConfig::default()
            .with_shard_label(&format!("shard-{i}"))
            .with_journal_dir(journal_dir),
    )
    .expect("spawn shard daemon")
}

/// Connects a client per shard and wires them into the round-robin
/// router. Returns the clients too: the crash leg severs them directly
/// and the checkpoint reads the first one's epoch.
fn build_fleet(
    addrs: &[String],
    config: &RemoteSutConfig,
) -> (Vec<Arc<RemoteSut>>, Arc<ShardedSut>) {
    let settings = settings();
    let mut clients = Vec::new();
    let mut router = ShardedSut::new("crash-fleet", BalancePolicy::RoundRobin);
    for (i, addr) in addrs.iter().enumerate() {
        let hello = RemoteSut::hello_for(&settings, 16, config);
        let client =
            Arc::new(RemoteSut::connect(addr, hello, config.clone()).expect("connect shard"));
        let probe = Arc::clone(&client);
        router = router.with_endpoint(
            ShardEndpoint::new(&format!("shard-{i}"), Arc::clone(&client) as _)
                .with_probe(Arc::new(move || probe.is_connected())),
        );
        clients.push(client);
    }
    (clients, Arc::new(router))
}

/// The fields a crash + resume must reproduce exactly; latencies
/// legitimately differ between executions.
fn logical(records: &[QueryRecord]) -> Vec<(u64, u64, usize, bool)> {
    records
        .iter()
        .map(|r| (r.id, r.scheduled_at.as_nanos(), r.sample_count, r.error))
        .collect()
}

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlpj-fleet-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

#[test]
fn fleet_survives_daemon_and_client_death() {
    let settings = settings();
    let dir = tmp_dir();
    let mut handles: Vec<ServerHandle> = (0..SHARDS)
        .map(|i| spawn_shard(i, &dir.join(format!("daemon{i}"))))
        .collect();
    let mut addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();

    // Uninterrupted fleet baseline.
    let expected = {
        let mut qsl = MemoryQsl::new("fleet-qsl", 16, 16);
        assert_eq!(qsl.total_sample_count(), 16);
        let (_clients, router) = build_fleet(&addrs, &RemoteSutConfig::default());
        let cfg = JournalConfig::new(dir.join("baseline.mlpj")).with_checkpoint_every(8);
        let out = Run::wall_clock(&settings)
            .journal(&cfg)
            .run(&mut qsl, router)
            .expect("baseline run")
            .finished()
            .expect("no halt armed");
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        logical(&out.records)
    };

    // The doomed leg: halt at a checkpoint boundary, then sever every
    // client without drain (the client's SIGKILL stand-in).
    let journal = dir.join("crash.mlpj");
    {
        let mut qsl = MemoryQsl::new("fleet-qsl", 16, 16);
        let (clients, router) = build_fleet(&addrs, &RemoteSutConfig::default());
        let cfg = JournalConfig::new(&journal)
            .with_checkpoint_every(8)
            .with_halt_after(HALT_AT)
            .with_epoch_source(clients[0].epoch_source());
        let halted = Run::wall_clock(&settings)
            .journal(&cfg)
            .run(&mut qsl, router)
            .expect("halted run");
        match halted {
            JournaledRun::Halted { checkpoint } => assert_eq!(checkpoint, HALT_AT),
            JournaledRun::Finished(_) => panic!("halt_after({HALT_AT}) did not fire"),
        }
        for client in &clients {
            client.abandon();
        }
    }

    // One shard daemon dies hard too, and a successor re-adopts its
    // session journal from disk on a fresh address.
    handles[1].kill();
    handles[1].shutdown();
    handles[1] = spawn_shard(1, &dir.join("daemon1"));
    addrs[1] = handles[1].addr().to_string();

    // Resume: fresh clients reconnect with an epoch bump, the run rolls
    // back to the checkpoint, re-issues the outstanding window, and runs
    // to a VALID finish.
    let rescued = {
        let mut qsl = MemoryQsl::new("fleet-qsl", 16, 16);
        let loaded = load_run_journal(&journal).expect("load journal");
        assert_eq!(loaded.checkpoints, HALT_AT + 1);
        let epoch = loaded.last.as_ref().map_or(0, |cp| cp.epoch);
        let config = RemoteSutConfig::default().with_initial_epoch(epoch + 1);
        let (clients, router) = build_fleet(&addrs, &config);
        let cfg = JournalConfig::new(&journal)
            .with_checkpoint_every(8)
            .with_epoch_source(clients[0].epoch_source());
        let sink = RingBufferSink::unbounded();
        let out = Run::wall_clock(&settings)
            .sink(&sink)
            .resume(&cfg)
            .run(&mut qsl, router)
            .expect("resumed run")
            .finished()
            .expect("resume runs to completion");
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        let report = completeness_report(&sink.snapshot());
        assert_eq!(
            report.outcome,
            AuditOutcome::Pass,
            "TEST06 on the rescued fleet log: {report:?}"
        );
        logical(&out.records)
    };
    assert_eq!(rescued, expected, "rescued fleet run must match baseline");

    for handle in &handles {
        handle.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
