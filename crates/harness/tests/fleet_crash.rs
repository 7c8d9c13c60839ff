//! The EXPERIMENTS.md fleet-crash walkthrough, pinned as a test — and the
//! integration test of the harness's [`Rig`]: a journaled server run drives
//! a 3-shard wire fleet through the rig's round-robin `ShardedSut` router,
//! the client and one shard daemon both die at a
//! checkpoint boundary, and the rescued run — restarted daemon re-adopting
//! its session journal from disk, fresh client resuming from the run
//! journal with an epoch bump — finishes VALID with a logical record
//! stream identical to an uninterrupted fleet run's, and its detail log
//! passes the TEST06 completeness audit.

use std::path::PathBuf;
use std::sync::Arc;

use mlperf_audit::tests::completeness_report;
use mlperf_audit::AuditOutcome;
use mlperf_harness::rig::{Rebind, Rig, Wired};
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::journal::{load_run_journal, JournalConfig};
use mlperf_loadgen::qsl::{MemoryQsl, QuerySampleLibrary};
use mlperf_loadgen::record::QueryRecord;
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::{JournaledRun, Run};
use mlperf_sut::BalancePolicy;
use mlperf_trace::RingBufferSink;
use mlperf_wire::{RemoteSutConfig, ServeConfig};

const HALT_AT: u64 = 1;

fn settings() -> TestSettings {
    TestSettings::server(2_000.0, Nanos::from_millis(50))
        .with_min_query_count(24)
        .with_min_duration(Nanos::from_millis(1))
}

/// Heterogeneous per-shard service times, like the chaos fleet's.
const SHARD_LATENCY: [Nanos; 3] = [
    Nanos::from_micros(100),
    Nanos::from_micros(150),
    Nanos::from_micros(200),
];

/// Connects a client per shard behind the rig's round-robin router. The
/// crash leg severs the clients directly and the checkpoint reads the
/// first one's epoch.
fn connect(rig: &Rig, config: &RemoteSutConfig) -> Wired {
    let policy = BalancePolicy::RoundRobin;
    rig.connect(&settings(), 16, |_| config.clone(), policy, None, None)
        .expect("connect fleet")
}

/// What a crash + resume must reproduce exactly.
fn logical(records: &[QueryRecord]) -> Vec<(u64, u64, usize, bool)> {
    records.iter().map(QueryRecord::logical).collect()
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
    let mut rig = Rig::spawn("fleet-dev", &SHARD_LATENCY, |i| {
        ServeConfig::default().with_journal_dir(dir.join(format!("daemon{i}")))
    })
    .expect("spawn shard daemons");

    // Uninterrupted fleet baseline.
    let expected = {
        let mut qsl = MemoryQsl::new("fleet-qsl", 16, 16);
        assert_eq!(qsl.total_sample_count(), 16);
        let wired = connect(&rig, &RemoteSutConfig::default());
        let cfg = JournalConfig::new(dir.join("baseline.mlpj")).with_checkpoint_every(8);
        let out = Run::wall_clock(&settings)
            .journal(&cfg)
            .run(&mut qsl, Arc::clone(&wired.sut))
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
        let wired = connect(&rig, &RemoteSutConfig::default());
        let cfg = JournalConfig::new(&journal)
            .with_checkpoint_every(8)
            .with_halt_after(HALT_AT)
            .with_epoch_source(wired.clients[0].epoch_source());
        let halted = Run::wall_clock(&settings)
            .journal(&cfg)
            .run(&mut qsl, Arc::clone(&wired.sut))
            .expect("halted run");
        match halted {
            JournaledRun::Halted { checkpoint } => assert_eq!(checkpoint, HALT_AT),
            JournaledRun::Finished(_) => panic!("halt_after({HALT_AT}) did not fire"),
        }
        for client in &wired.clients {
            client.abandon();
        }
    }

    // One shard daemon dies hard too, and a successor re-adopts its
    // session journal from disk on a fresh address.
    rig.kill(1);
    rig.respawn(1, Rebind::FreshPort).expect("respawn shard 1");

    // Resume: fresh clients reconnect with an epoch bump, the run rolls
    // back to the checkpoint, re-issues the outstanding window, and runs
    // to a VALID finish.
    let rescued = {
        let mut qsl = MemoryQsl::new("fleet-qsl", 16, 16);
        let loaded = load_run_journal(&journal).expect("load journal");
        assert_eq!(loaded.checkpoints, HALT_AT + 1);
        let epoch = loaded.last.as_ref().map_or(0, |cp| cp.epoch);
        let config = RemoteSutConfig::default().with_initial_epoch(epoch + 1);
        let wired = connect(&rig, &config);
        let cfg = JournalConfig::new(&journal)
            .with_checkpoint_every(8)
            .with_epoch_source(wired.clients[0].epoch_source());
        let sink = RingBufferSink::unbounded();
        let out = Run::wall_clock(&settings)
            .sink(&sink)
            .resume(&cfg)
            .run(&mut qsl, Arc::clone(&wired.sut))
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

    drop(rig);
    let _ = std::fs::remove_dir_all(&dir);
}
