//! The wall-clock issue loop.
//!
//! Drives a [`RealtimeSut`] exactly the way the reference C++ LoadGen drives
//! a real system: real sleeps between arrivals, a worker pool for open-loop
//! queries (the server scenario, a replayed schedule), and `Instant`-based
//! latency measurement. The rulebook (seeding, scheduling, recording,
//! validation, metrics) is shared with the simulated loop, so the two
//! runners agree wherever timing permits — an integration test asserts
//! that. Entered through [`crate::Run::wall_clock`].
//!
//! Unlike the simulated loop, a realtime SUT can fail *structurally*: the
//! wire extension puts the LoadGen/SUT boundary on a socket, and sockets
//! disconnect. [`RealtimeSut::issue_outcome`] reports those failures and
//! this loop folds them into the PR 3 completion path — an erroring remote
//! becomes errored completions (`ErrorFractionExceeded`), a silently
//! dropped query stays outstanding (`IncompleteQueries`) — so a dying
//! server yields a structured INVALID verdict, never a hang.
//!
//! Official experiments in this repository use the simulated loop; this one
//! exists for fidelity to the original system, for exercising real
//! concurrency in tests and the quickstart example, and as the client-side
//! engine of the network SUT benchmark (`netbench`).

use crate::config::{TestMode, TestSettings};
use crate::des::RunOutcome;
use crate::journal::{JournaledRun, RunJournal};
use crate::qsl::QuerySampleLibrary;
use crate::query::{Query, QueryCompletion, SampleIndex};
use crate::run::{finish_run, phase, start, trace_issue, Arrivals, Lane, Run};
use crate::scenario::Scenario;
use crate::schedule::{build_query, ArrivalSource, PoissonCursor, SampleCursor};
use crate::sut::{IssueOutcome, RealtimeSut};
use crate::time::Nanos;
use crate::LoadGenError;
use mlperf_trace::TraceSink;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// What `perfbench/` imports from this module; see the note on the
// delegations in `des.rs` — same rule, same expiry.
#[doc(hidden)]
pub fn run_realtime_traced_at<Q>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: Arc<dyn RealtimeSut>,
    sink: &dyn TraceSink,
    origin: Instant,
) -> Result<RunOutcome, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
{
    let run = Run::wall_clock(settings).sink(sink).origin(origin);
    run.run(qsl, sut)
}

/// How a query the SUT was handed resolved: a completion to record, or
/// `None` for a query that vanished on a live transport — never recorded,
/// so it stays outstanding and trips the incomplete-queries check.
fn resolve(query: &Query, outcome: IssueOutcome, finished: Nanos) -> Option<QueryCompletion> {
    match outcome {
        IssueOutcome::Completed(samples) => Some(QueryCompletion::ok(query.id, finished, samples)),
        IssueOutcome::Errored => Some(QueryCompletion::errored(query, finished)),
        IssueOutcome::Vanished => None,
    }
}

/// The wall-clock run in progress: the SUT, the run clock and the one
/// [`Lane`] every scenario's loop records into.
struct Wall<'a> {
    sut: &'a Arc<dyn RealtimeSut>,
    sink: &'a dyn TraceSink,
    start: Instant,
    lane: Lane<'a>,
    next_sample_id: u64,
}

impl Wall<'_> {
    fn now(&self) -> Nanos {
        Nanos::from(self.start.elapsed())
    }

    /// Issues one query on this thread and blocks until the SUT resolves
    /// it (the closed-loop scenarios); returns when it finished.
    fn issue_blocking(
        &mut self,
        id: u64,
        indices: &[SampleIndex],
        at: Nanos,
    ) -> Result<Nanos, LoadGenError> {
        let query = build_query(id, &mut self.next_sample_id, indices, at);
        self.lane.issue(&query, at, self.sink, None)?;
        let outcome = self.sut.issue_outcome(&query);
        let finished = self.now();
        if let Some(completion) = resolve(&query, outcome, finished) {
            self.lane.complete(&completion, self.sink, None)?;
        }
        Ok(finished)
    }

    fn run_single_stream(&mut self, mut cursor: SampleCursor<'_>) -> Result<(), LoadGenError> {
        loop {
            let (id, indices) = cursor.draw();
            let finished = self.issue_blocking(id, &indices, self.now())?;
            if !cursor.more(finished) {
                return Ok(());
            }
        }
    }

    fn run_multi_stream(&mut self, mut cursor: SampleCursor<'_>) -> Result<(), LoadGenError> {
        let interval = self.lane.settings.multistream_arrival_interval;
        let mut boundary = Nanos::ZERO;
        loop {
            std::thread::sleep(boundary.saturating_sub(self.now()).to_duration());
            let (id, indices) = cursor.draw();
            let finished = self.issue_blocking(id, &indices, boundary)?;
            let elapsed = finished.saturating_sub(boundary).as_nanos();
            let consumed = elapsed.div_ceil(interval.as_nanos()).max(1);
            if consumed > 1 {
                self.lane.recorder.record_skips(id, (consumed - 1) as u32);
            }
            boundary += interval.mul(consumed);
            if !cursor.more(boundary) {
                return Ok(());
            }
        }
    }

    /// The one open-loop issue loop: a worker pool blocks on the SUT while
    /// this thread sleeps to each arrival of `source`, stamps the query,
    /// hands it over, takes a checkpoint when one is due, and folds in
    /// whatever completed meanwhile. `resend` is a resumed run's
    /// outstanding queries: already recorded, so only re-stamped in the
    /// detail log and handed to the pool (a journaled wire daemon answers
    /// them from its own completion journal). Returns `true` when the
    /// journal's armed halt fired.
    fn run_pool(
        &mut self,
        source: &mut ArrivalSource<'_>,
        resend: Vec<Query>,
        journal: Option<&mut RunJournal<'_>>,
    ) -> Result<bool, LoadGenError> {
        let (work_tx, work_rx) = mpsc::channel::<Query>();
        let (done_tx, done_rx) = mpsc::channel::<QueryCompletion>();
        // std's Receiver is single-consumer; the pool shares it behind a
        // mutex (each worker holds the lock only for the dequeue itself).
        let work_rx = Arc::new(Mutex::new(work_rx));
        let workers: Vec<_> = (0..self.lane.settings.server_workers)
            .map(|_| {
                let (rx, tx) = (Arc::clone(&work_rx), done_tx.clone());
                let (sut, start) = (Arc::clone(self.sut), self.start);
                // A worker blocks on the SUT one query at a time until the
                // queue closes (or the run is gone).
                std::thread::spawn(move || loop {
                    let Ok(query) = rx.lock().expect("work queue poisoned").recv() else {
                        return;
                    };
                    let outcome = sut.issue_outcome(&query);
                    let finished = Nanos::from(start.elapsed());
                    if let Some(completion) = resolve(&query, outcome, finished) {
                        if tx.send(completion).is_err() {
                            return;
                        }
                    }
                })
            })
            .collect();
        drop((work_rx, done_tx));
        let issued = self.issue_all(source, resend, &work_tx, &done_rx, journal);
        // The one way out, for a finished issue phase, a halt and an error
        // alike: close the queue so the workers run dry and exit, take
        // what they still deliver, join them.
        drop(work_tx);
        let drained = issued.and_then(|halted| {
            if !halted {
                phase(self.sink, self.now(), "drain", self.lane.settings);
                for completion in done_rx.iter() {
                    self.lane.complete(&completion, self.sink, None)?;
                }
            }
            Ok(halted)
        });
        // After a halt (simulated process death) in-flight completions are
        // discarded: they were never recorded, so the checkpoint still
        // lists their queries as outstanding.
        done_rx.iter().for_each(drop);
        let panicked = workers.into_iter().filter_map(|w| w.join().err()).count() > 0;
        match drained {
            Ok(_) if panicked => Err(LoadGenError::SutProtocol("server worker panicked".into())),
            other => other,
        }
    }

    /// The issue phase of [`run_pool`](Wall::run_pool).
    fn issue_all(
        &mut self,
        source: &mut ArrivalSource<'_>,
        resend: Vec<Query>,
        work_tx: &Sender<Query>,
        done_rx: &Receiver<QueryCompletion>,
        mut journal: Option<&mut RunJournal<'_>>,
    ) -> Result<bool, LoadGenError> {
        let send = |query| {
            let died = |_| LoadGenError::SutProtocol("server worker pool died".into());
            work_tx.send(query).map_err(died)
        };
        for query in resend {
            trace_issue(self.sink, &query, query.scheduled_at);
            send(query)?;
        }
        while let Some((id, arrival, indices)) = source.next(PoissonCursor::advance_wall) {
            std::thread::sleep(arrival.saturating_sub(self.now()).to_duration());
            let query = build_query(id, &mut self.next_sample_id, &indices, arrival);
            // The honest stamp: when the query actually left, which is the
            // arrival plus however late the sleep woke.
            let issued_at = self.now().max(arrival);
            self.lane.issue(&query, issued_at, self.sink, None)?;
            send(query)?;
            if let (Some(tap), ArrivalSource::Poisson(cursor)) = (journal.as_deref_mut(), &*source)
            {
                if tap.due(id + 1)
                    && tap.capture(cursor.state(), self.next_sample_id, self.now(), &self.lane)?
                {
                    return Ok(true);
                }
            }
            // Fold in what has completed — after the send, so pacing is
            // untouched, and after the checkpoint, so the query just issued
            // is always outstanding in its own checkpoint. Without this
            // every issued query is outstanding at every checkpoint: the
            // stable prefix never advances and the journal is quadratic.
            for completion in done_rx.try_iter() {
                self.lane.complete(&completion, self.sink, None)?;
            }
        }
        Ok(false)
    }
}

/// The one wall-clock run body: prologue, the issue loop `arrivals` and
/// the settings select, epilogue.
///
/// A journaled run shares the checkpoint cadence, resume semantics and
/// journal format of the simulated runner. On resume the restored RNG
/// states re-draw the identical schedule and sample indices, queries
/// outstanding at the checkpoint are re-sent (re-stamped `QueryIssued`
/// events, no duplicate recorder entries, so the TEST06 ledger balances),
/// and the clock origin is shifted into the past by the checkpointed run
/// clock so arrival deadlines stay on the original time axis — queries
/// whose arrivals passed while the process was down issue immediately.
pub(crate) fn run_wall<Q>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: Arc<dyn RealtimeSut>,
    sink: &dyn TraceSink,
    origin: Option<Instant>,
    arrivals: Arrivals<'_>,
) -> Result<JournaledRun, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
{
    let (loaded, mut tap, restored) = start(settings, qsl, sink, arrivals)?;
    let population = loaded.len();
    let origin = origin.unwrap_or_else(Instant::now);
    let mut wall = Wall {
        sut: &sut,
        sink,
        start: origin,
        lane: Lane::new(settings),
        next_sample_id: 0,
    };
    let mut resend = Vec::new();
    if let Some(cp) = &restored {
        // `elapsed()` resumes the interrupted run's time axis.
        wall.start = origin.checked_sub(cp.wall.to_duration()).unwrap_or(origin);
        wall.next_sample_id = cp.next_sample_id;
        resend = wall.lane.restore(cp);
    }
    let mut cursor = SampleCursor::new(settings, population);
    let batch = |wall: &mut Wall<'_>, indices: &[SampleIndex]| {
        wall.issue_blocking(0, indices, Nanos::ZERO).map(|_| false)
    };
    let halted = match (settings.mode, arrivals, settings.scenario) {
        // Accuracy mode goes through the entire data set, once, as one batch.
        (TestMode::AccuracyOnly, ..) => batch(&mut wall, &loaded)?,
        (_, Arrivals::Replay(schedule), _) => {
            let mut source = ArrivalSource::Replay {
                schedule,
                population,
                next: 0,
            };
            wall.run_pool(&mut source, resend, None)?
        }
        (_, _, Scenario::SingleStream) => wall.run_single_stream(cursor).map(|()| false)?,
        (_, _, Scenario::MultiStream) => wall.run_multi_stream(cursor).map(|()| false)?,
        (_, _, Scenario::Server) => {
            let cursor = PoissonCursor::start(settings, population, restored.as_ref())?;
            let mut source = ArrivalSource::Poisson(cursor);
            wall.run_pool(&mut source, resend, tap.as_mut())?
        }
        (_, _, Scenario::Offline) => batch(&mut wall, &cursor.draw().1)?,
    };
    qsl.unload_samples(&loaded);
    if let Some(tap) = tap.as_mut() {
        if halted {
            sink.flush();
            return Ok(tap.halted());
        }
        tap.sync()?;
    }
    let outcome = finish_run(wall.lane, sut.name(), qsl.name(), sink, None);
    Ok(JournaledRun::Finished(Box::new(outcome)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qsl::MemoryQsl;
    use crate::query::SampleCompletion;
    use crate::results::ScenarioMetric;
    use crate::sut::SleepSut;
    use crate::validate::ValidityIssue;
    use mlperf_trace::{RingBufferSink, TraceEvent};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn sleepy(us: u64) -> Arc<dyn RealtimeSut> {
        Arc::new(SleepSut::new("sleepy", Duration::from_micros(us)))
    }

    /// A well-formed answer with empty payloads.
    fn echo(query: &Query) -> Vec<SampleCompletion> {
        let echo = |s: &crate::query::QuerySample| SampleCompletion {
            sample_id: s.id,
            payload: Default::default(),
        };
        query.samples.iter().map(echo).collect()
    }

    /// A SUT whose every `n`-th query errors or vanishes.
    struct FlakySut {
        counter: AtomicU64,
        every: u64,
        vanish: bool,
    }

    impl RealtimeSut for FlakySut {
        fn name(&self) -> &str {
            "flaky"
        }

        fn issue(&self, query: &Query) -> Vec<SampleCompletion> {
            echo(query)
        }

        fn issue_outcome(&self, query: &Query) -> IssueOutcome {
            let n = self.counter.fetch_add(1, Ordering::Relaxed);
            if n % self.every == self.every - 1 {
                if self.vanish {
                    IssueOutcome::Vanished
                } else {
                    IssueOutcome::Errored
                }
            } else {
                IssueOutcome::Completed(self.issue(query))
            }
        }
    }

    #[test]
    fn single_stream_realtime() {
        let settings = TestSettings::single_stream()
            .with_min_query_count(20)
            .with_min_duration(Nanos::from_millis(1));
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let out = Run::wall_clock(&settings)
            .run(&mut qsl, sleepy(200))
            .unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        assert!(out.result.query_count >= 20);
        match out.result.metric {
            ScenarioMetric::SingleStream { p90_latency } => {
                assert!(p90_latency >= Nanos::from_micros(200));
            }
            ref m => panic!("wrong metric {m:?}"),
        }
    }

    #[test]
    fn offline_realtime() {
        let settings = TestSettings::offline()
            .with_min_duration(Nanos::from_millis(1))
            .with_offline_min_sample_count(50);
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let out = Run::wall_clock(&settings)
            .run(&mut qsl, sleepy(50))
            .unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        assert_eq!(out.result.sample_count, 50);
    }

    #[test]
    fn server_realtime_underloaded_is_valid() {
        let settings = TestSettings::server(200.0, Nanos::from_millis(50))
            .with_min_query_count(50)
            .with_min_duration(Nanos::from_millis(10));
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let out = Run::wall_clock(&settings)
            .run(&mut qsl, sleepy(100))
            .unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        assert_eq!(out.result.query_count, out.result.sample_count);
    }

    #[test]
    fn server_worker_pool_is_configurable() {
        let settings = TestSettings::server(500.0, Nanos::from_millis(50))
            .with_min_query_count(40)
            .with_min_duration(Nanos::from_millis(5))
            .with_server_workers(2);
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let out = Run::wall_clock(&settings)
            .run(&mut qsl, sleepy(100))
            .unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
    }

    #[test]
    fn multistream_realtime() {
        // One scheduler stall over the interval is a 12.5 % skip fraction
        // at eight queries, so validity here is a coin the test box flips:
        // assert what the wall-clock loop owns — the metric's shape, every
        // query recorded, skips that match the timestamps — and leave
        // validity under overrun to the deterministic simulated tests.
        let interval = Nanos::from_millis(25);
        let settings = TestSettings::multi_stream(2, interval)
            .with_min_query_count(8)
            .with_min_duration(Nanos::from_millis(1));
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let out = Run::wall_clock(&settings)
            .run(&mut qsl, sleepy(100))
            .unwrap();
        match out.result.metric {
            ScenarioMetric::MultiStream { streams, .. } => assert_eq!(streams, 2),
            ref m => panic!("wrong metric {m:?}"),
        }
        assert_eq!(out.records.len(), 8);
        for r in &out.records {
            let done = r.completed_at.expect("every query completes");
            let took = done.saturating_sub(r.scheduled_at);
            let consumed = took.as_nanos().div_ceil(interval.as_nanos()).max(1);
            assert_eq!(u64::from(r.skipped_intervals), consumed - 1, "{r:?}");
            assert_eq!(r.sample_count, 2);
        }
    }

    #[test]
    fn accuracy_mode_realtime_covers_dataset() {
        let settings = TestSettings::offline().with_mode(TestMode::AccuracyOnly);
        let mut qsl = MemoryQsl::new("q", 40, 8);
        let out = Run::wall_clock(&settings).run(&mut qsl, sleepy(1)).unwrap();
        assert_eq!(out.accuracy_log.len(), 40);
    }

    #[test]
    fn errored_outcomes_fail_the_error_fraction_rule() {
        let settings = TestSettings::single_stream()
            .with_min_query_count(10)
            .with_min_duration(Nanos::from_micros(1));
        let mut qsl = MemoryQsl::new("q", 8, 8);
        let sut = Arc::new(FlakySut {
            counter: AtomicU64::new(0),
            every: 2,
            vanish: false,
        });
        let out = Run::wall_clock(&settings).run(&mut qsl, sut).unwrap();
        assert!(!out.result.is_valid());
        assert!(out.result.error_count > 0);
        assert!(
            out.result
                .validity
                .iter()
                .any(|i| matches!(i, ValidityIssue::ErrorFractionExceeded { .. })),
            "{:?}",
            out.result.validity
        );
    }

    #[test]
    fn vanished_outcomes_stay_outstanding() {
        let settings = TestSettings::single_stream()
            .with_min_query_count(10)
            .with_min_duration(Nanos::from_micros(1));
        let mut qsl = MemoryQsl::new("q", 8, 8);
        let sut = Arc::new(FlakySut {
            counter: AtomicU64::new(0),
            every: 5,
            vanish: true,
        });
        let out = Run::wall_clock(&settings).run(&mut qsl, sut).unwrap();
        assert!(!out.result.is_valid());
        assert!(
            out.result
                .validity
                .iter()
                .any(|i| matches!(i, ValidityIssue::IncompleteQueries { .. })),
            "{:?}",
            out.result.validity
        );
    }

    #[test]
    fn traced_run_logs_issue_and_completion_events() {
        let settings = TestSettings::single_stream()
            .with_min_query_count(5)
            .with_min_duration(Nanos::from_micros(1));
        let mut qsl = MemoryQsl::new("q", 8, 8);
        let sink = RingBufferSink::unbounded();
        let out = Run::wall_clock(&settings)
            .sink(&sink)
            .run(&mut qsl, sleepy(10))
            .unwrap();
        let records = sink.snapshot();
        let issued = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::QueryIssued { .. }))
            .count() as u64;
        let completed = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::QueryCompleted { .. }))
            .count() as u64;
        assert_eq!(issued, out.result.query_count);
        assert_eq!(completed, out.result.query_count);
        assert!(records
            .iter()
            .any(|r| matches!(&r.event, TraceEvent::RunPhase { phase, .. } if phase == "report")));
    }

    /// Logical identity of a run: the fields a crash + resume must
    /// preserve exactly (ids, schedule, sample counts, error flags) —
    /// wall-clock latencies legitimately differ between executions.
    fn logical(records: &[crate::record::QueryRecord]) -> Vec<(u64, u64, usize, bool)> {
        records
            .iter()
            .map(|r| (r.id, r.scheduled_at.as_nanos(), r.sample_count, r.error))
            .collect()
    }

    fn crashy_settings() -> TestSettings {
        TestSettings::server(4_000.0, Nanos::from_millis(50))
            .with_min_query_count(40)
            .with_min_duration(Nanos::from_millis(1))
    }

    #[test]
    fn realtime_journaled_without_halt_matches_plain_run() {
        let settings = crashy_settings();
        let dir = std::env::temp_dir().join(format!("mlpj-rt-plain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.mlpj");
        let _ = std::fs::remove_file(&path);
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let cfg = crate::journal::JournalConfig::new(&path).with_checkpoint_every(8);
        let journaled = Run::wall_clock(&settings)
            .journal(&cfg)
            .run(&mut qsl, sleepy(20))
            .unwrap()
            .finished()
            .expect("no halt armed");
        let plain = Run::wall_clock(&settings)
            .run(&mut qsl, sleepy(20))
            .unwrap();
        assert_eq!(logical(&journaled.records), logical(&plain.records));
        assert!(journaled.result.is_valid());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn realtime_resume_at_every_checkpoint_matches_uninterrupted() {
        let settings = crashy_settings();
        let dir = std::env::temp_dir().join(format!("mlpj-rt-sweep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let baseline = {
            let path = dir.join("baseline.mlpj");
            let _ = std::fs::remove_file(&path);
            let cfg = crate::journal::JournalConfig::new(&path).with_checkpoint_every(8);
            let run = Run::wall_clock(&settings).journal(&cfg);
            let out = run.run(&mut qsl, sleepy(20)).unwrap();
            out.finished().expect("no halt armed")
        };
        // 40 queries / checkpoint every 8 = checkpoints seq 0..=4.
        for halt_at in 0..5u64 {
            for torn in [false, true] {
                let path = dir.join(format!("halt{halt_at}-torn{torn}.mlpj"));
                let _ = std::fs::remove_file(&path);
                let mut cfg = crate::journal::JournalConfig::new(&path)
                    .with_checkpoint_every(8)
                    .with_halt_after(halt_at);
                if torn {
                    cfg = cfg.with_torn_halt();
                }
                let run = Run::wall_clock(&settings).journal(&cfg);
                let halted = run.run(&mut qsl, sleepy(20)).unwrap();
                match halted {
                    JournaledRun::Halted { checkpoint } => assert_eq!(checkpoint, halt_at),
                    JournaledRun::Finished(_) => panic!("halt_after({halt_at}) did not fire"),
                }
                let resume_cfg = crate::journal::JournalConfig::new(&path).with_checkpoint_every(8);
                let sink = RingBufferSink::unbounded();
                let rescued = Run::wall_clock(&settings)
                    .sink(&sink)
                    .resume(&resume_cfg)
                    .run(&mut qsl, sleepy(20))
                    .unwrap()
                    .finished()
                    .expect("resume runs to completion");
                assert_eq!(
                    logical(&rescued.records),
                    logical(&baseline.records),
                    "halt_at={halt_at} torn={torn}"
                );
                assert!(rescued.result.is_valid(), "{:?}", rescued.result.validity);
                // TEST06 shape on the resumed log: every completion has an
                // issue event ahead of it (re-stamped for re-sent queries).
                let records = sink.snapshot();
                let mut open = std::collections::HashSet::new();
                for r in &records {
                    match &r.event {
                        TraceEvent::QueryIssued { query_id, .. } => {
                            assert!(open.insert(*query_id), "duplicate issue {query_id}");
                        }
                        TraceEvent::QueryCompleted { query_id, .. }
                        | TraceEvent::QueryErrored { query_id, .. } => {
                            assert!(open.remove(query_id), "completion without issue");
                        }
                        _ => {}
                    }
                }
                assert!(open.is_empty(), "unresolved issues in resumed log");
                std::fs::remove_file(&path).unwrap();
            }
        }
        let _ = std::fs::remove_file(dir.join("baseline.mlpj"));
    }

    /// A SUT and a sink in one, which together hold the issue thread at
    /// query `k` until the pool's single worker has entered the SUT for
    /// query `k - 1`. The worker sends one completion before it takes the
    /// next query, so by then completions up to `k - 2` are in the channel:
    /// every fold at the end of an issue iteration finds them, and a
    /// checkpoint can only ever see the last three queries outstanding —
    /// by construction, whatever the test box's scheduler does.
    #[derive(Default)]
    struct Lockstep {
        entered: Mutex<u64>,
        turn: std::sync::Condvar,
    }

    impl RealtimeSut for Lockstep {
        fn name(&self) -> &str {
            "lockstep"
        }

        fn issue(&self, query: &Query) -> Vec<SampleCompletion> {
            *self.entered.lock().unwrap() = query.id + 1;
            self.turn.notify_all();
            echo(query)
        }
    }

    impl TraceSink for Lockstep {
        fn record(&self, _ts_ns: u64, event: &TraceEvent) {
            if let TraceEvent::QueryIssued { query_id, .. } = event {
                let entered = self.entered.lock().unwrap();
                drop(self.turn.wait_while(entered, |n| *n < *query_id).unwrap());
            }
        }
    }

    /// Journal bytes per query and the last checkpoint's outstanding count
    /// for a [`Lockstep`] run, checkpointing every 16 queries.
    fn journal_cost(queries: u64) -> (f64, usize) {
        let settings = TestSettings::server(100_000.0, Nanos::from_millis(50))
            .with_min_query_count(queries)
            .with_min_duration(Nanos::from_millis(1))
            .with_server_workers(1);
        let name = format!("mlpj-rt-cost-{}-{queries}.mlpj", std::process::id());
        let path = std::env::temp_dir().join(name);
        let cfg = crate::journal::JournalConfig::new(&path)
            .with_checkpoint_every(16)
            .with_fsync_every(u32::MAX);
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let lockstep = Arc::new(Lockstep::default());
        let run = Run::wall_clock(&settings).sink(&*lockstep).journal(&cfg);
        let sut = Arc::clone(&lockstep);
        let out = run.run(&mut qsl, sut).unwrap().finished().unwrap();
        assert_eq!(out.result.query_count, queries);
        assert_eq!(out.result.sample_count, queries);
        let bytes = std::fs::metadata(&path).unwrap().len();
        let last = crate::journal::load_run_journal(&path)
            .unwrap()
            .last
            .unwrap();
        std::fs::remove_file(&path).unwrap();
        (
            bytes as f64 / queries as f64,
            last.recorder.outstanding.len(),
        )
    }

    /// Completions are folded into the recorder while the run issues, so
    /// a checkpoint's stable prefix advances and each frame carries the
    /// window since the last one. Were they recorded only in the drain
    /// phase, every issued query would be outstanding at every checkpoint
    /// and the journal would grow ×4 per doubling of the run.
    #[test]
    fn a_wall_clock_journal_grows_with_the_run_not_with_its_square() {
        let (short, _) = journal_cost(1_000);
        let (long, outstanding) = journal_cost(4_000);
        assert!(
            outstanding <= 3,
            "{outstanding} outstanding, last checkpoint"
        );
        assert!(
            long <= 1.5 * short,
            "{long:.0} B/query at 4,000 queries, {short:.0} at 1,000"
        );
    }

    /// Answers query 0 with no sample completions — a protocol violation
    /// the issue thread trips over — and is slow enough on the rest that
    /// workers are still inside it when that happens.
    struct Breaks;

    impl RealtimeSut for Breaks {
        fn name(&self) -> &str {
            "breaks"
        }

        fn issue(&self, query: &Query) -> Vec<SampleCompletion> {
            if query.id == 0 {
                return Vec::new();
            }
            std::thread::sleep(Duration::from_millis(2));
            echo(query)
        }
    }

    /// An error inside the pool leaves through the same close-and-join
    /// lines as a finished run: once `run` has returned, no worker is
    /// left holding the SUT, let alone calling into it.
    #[test]
    fn a_failed_pool_run_joins_its_workers() {
        let settings = crashy_settings().with_server_workers(4);
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let sut: Arc<dyn RealtimeSut> = Arc::new(Breaks);
        let run = Run::wall_clock(&settings).run(&mut qsl, Arc::clone(&sut));
        assert!(matches!(run, Err(LoadGenError::SutProtocol(_))), "{run:?}");
        assert_eq!(Arc::strong_count(&sut), 1, "workers outlived the run");
    }

    #[test]
    fn realtime_journaled_rejects_other_scenarios() {
        let settings = TestSettings::single_stream().with_min_query_count(4);
        let dir = std::env::temp_dir();
        let cfg = crate::journal::JournalConfig::new(dir.join("mlpj-rt-reject.mlpj"));
        let mut qsl = MemoryQsl::new("q", 8, 8);
        let run = Run::wall_clock(&settings).journal(&cfg);
        let err = run.run(&mut qsl, sleepy(10)).unwrap_err();
        assert!(matches!(err, LoadGenError::BadSettings(_)));
    }
}
