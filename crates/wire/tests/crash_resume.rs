//! Crash-resume integration tests: a journaled wall-clock run killed at a
//! checkpoint boundary, then rescued by a fresh client process — against
//! the surviving daemon (client crash) and against a restarted daemon
//! re-adopting its session journal from disk (daemon crash, both crash).
//!
//! The contract under test: every rescued run finishes VALID, its logical
//! record stream (ids, schedule, sample counts, error flags) is identical
//! to the uninterrupted baseline's, and its detail log passes the TEST06
//! completeness audit — queries outstanding at the kill are re-issued
//! under their original ids and answered exactly once (from the daemon's
//! completion journal where it survived, by re-execution where it did
//! not).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mlperf_audit::tests::completeness_report;
use mlperf_audit::AuditOutcome;
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::journal::{load_run_journal, JournalConfig};
use mlperf_loadgen::qsl::{MemoryQsl, QuerySampleLibrary};
use mlperf_loadgen::record::QueryRecord;
use mlperf_loadgen::sut::{FixedLatencySut, RealtimeSut};
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::{JournaledRun, Run};
use mlperf_trace::metrics::MetricsRegistry;
use mlperf_trace::RingBufferSink;
use mlperf_wire::{serve_on, RemoteSut, RemoteSutConfig, ServeConfig, ServerHandle, SimHost};

fn settings() -> TestSettings {
    TestSettings::server(2_000.0, Nanos::from_millis(50))
        .with_min_query_count(24)
        .with_min_duration(Nanos::from_millis(1))
}

fn service() -> Arc<SimHost<FixedLatencySut>> {
    Arc::new(SimHost::new(FixedLatencySut::new(
        "crashable",
        Nanos::from_micros(100),
    )))
}

/// What a crash + resume must reproduce exactly.
fn logical(records: &[QueryRecord]) -> Vec<(u64, u64, usize, bool)> {
    records.iter().map(QueryRecord::logical).collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlpj-wire-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

fn connect(server: &ServerHandle, config: RemoteSutConfig) -> Arc<RemoteSut> {
    let settings = settings();
    let hello = RemoteSut::hello_for(&settings, 16, &config);
    Arc::new(RemoteSut::connect(server.addr(), hello, config).expect("connect"))
}

/// An uninterrupted journaled run; its records are the baseline every
/// rescued cell must match.
fn baseline(server: &ServerHandle, journal: &Path) -> Vec<QueryRecord> {
    let settings = settings();
    let mut qsl = MemoryQsl::new("crash-qsl", 16, 16);
    assert_eq!(qsl.total_sample_count(), 16);
    let client = connect(server, RemoteSutConfig::default());
    let sut: Arc<dyn RealtimeSut> = client.clone();
    let cfg = JournalConfig::new(journal).with_checkpoint_every(8);
    let out = Run::wall_clock(&settings)
        .journal(&cfg)
        .run(&mut qsl, sut)
        .expect("baseline run")
        .finished()
        .expect("no halt armed");
    assert!(out.result.is_valid(), "{:?}", out.result.validity);
    out.records
}

/// Halts a journaled run at checkpoint `halt_at`, then severs the client
/// without drain — the in-process stand-in for `SIGKILL`ing the client.
fn crash_client_at(server: &ServerHandle, journal: &Path, halt_at: u64) {
    let settings = settings();
    let mut qsl = MemoryQsl::new("crash-qsl", 16, 16);
    let client = connect(server, RemoteSutConfig::default());
    let sut: Arc<dyn RealtimeSut> = client.clone();
    let cfg = JournalConfig::new(journal)
        .with_checkpoint_every(8)
        .with_halt_after(halt_at)
        .with_epoch_source(client.epoch_source());
    let halted = Run::wall_clock(&settings)
        .journal(&cfg)
        .run(&mut qsl, sut)
        .expect("halted run");
    match halted {
        JournaledRun::Halted { checkpoint } => assert_eq!(checkpoint, halt_at),
        JournaledRun::Finished(_) => panic!("halt_after({halt_at}) did not fire"),
    }
    client.abandon();
}

/// Resumes the journaled run against `server`, asserting validity and
/// TEST06 completeness; returns the rescued records.
fn resume(server: &ServerHandle, journal: &Path) -> Vec<QueryRecord> {
    let settings = settings();
    let mut qsl = MemoryQsl::new("crash-qsl", 16, 16);
    let loaded = load_run_journal(journal).expect("load journal");
    let epoch = loaded.last.as_ref().map_or(0, |cp| cp.epoch);
    let client = connect(
        server,
        RemoteSutConfig::default().with_initial_epoch(epoch + 1),
    );
    let sut: Arc<dyn RealtimeSut> = client.clone();
    let cfg = JournalConfig::new(journal)
        .with_checkpoint_every(8)
        .with_epoch_source(client.epoch_source());
    let sink = RingBufferSink::unbounded();
    let out = Run::wall_clock(&settings)
        .sink(&sink)
        .resume(&cfg)
        .run(&mut qsl, sut)
        .expect("resumed run")
        .finished()
        .expect("resume runs to completion");
    assert!(out.result.is_valid(), "{:?}", out.result.validity);
    let report = completeness_report(&sink.snapshot());
    assert_eq!(
        report.outcome,
        AuditOutcome::Pass,
        "TEST06 on the resumed log: {report:?}"
    );
    out.records
}

/// Client killed at every checkpoint boundary; the daemon survives and its
/// in-memory session answers the replayed window.
#[test]
fn client_crash_at_every_checkpoint_matches_uninterrupted() {
    let dir = tmp_dir("client");
    let server = serve_on(
        "127.0.0.1:0",
        service(),
        ServeConfig::default().with_journal_dir(dir.join("daemon")),
    )
    .expect("serve");
    let expected = logical(&baseline(&server, &dir.join("baseline.mlpj")));
    // 24 queries / checkpoint every 8 = checkpoints seq 0..=2.
    for halt_at in 0..3u64 {
        let journal = dir.join(format!("halt{halt_at}.mlpj"));
        crash_client_at(&server, &journal, halt_at);
        let rescued = logical(&resume(&server, &journal));
        assert_eq!(rescued, expected, "halt_at={halt_at}");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Daemon killed too: a freshly started daemon re-adopts the session's
/// completion journal from disk, so pre-crash completions replay without
/// re-running and the rescued run still matches the baseline.
#[test]
fn daemon_restart_resumes_the_session_from_disk() {
    let dir = tmp_dir("daemon");
    let daemon_dir = dir.join("daemon");
    let first = serve_on(
        "127.0.0.1:0",
        service(),
        ServeConfig::default().with_journal_dir(&daemon_dir),
    )
    .expect("serve");
    let expected = logical(&baseline(&first, &dir.join("baseline.mlpj")));
    let journal = dir.join("crash.mlpj");
    crash_client_at(&first, &journal, 1);
    // Both processes die: the client severed without drain above, and the
    // daemon goes down hard — kill severs the sockets, shutdown reaps the
    // threads so the process can host its successor.
    first.kill();
    first.shutdown();

    let metrics = Arc::new(MetricsRegistry::new());
    let second = serve_on(
        "127.0.0.1:0",
        service(),
        ServeConfig::default()
            .with_journal_dir(&daemon_dir)
            .with_metrics(metrics.clone()),
    )
    .expect("serve again");
    let rescued = logical(&resume(&second, &journal));
    assert_eq!(rescued, expected);
    // The restarted daemon answered at least one replayed query straight
    // from the recovered journal instead of re-running it.
    let replays = metrics
        .snapshot()
        .counters
        .get("wire_replays")
        .copied()
        .unwrap_or(0);
    assert!(
        replays >= 1,
        "expected journal replays from the recovered session, got {replays}"
    );
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
