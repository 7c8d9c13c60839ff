//! The wall-clock issue loop.
//!
//! Drives a [`RealtimeSut`] exactly the way the reference C++ LoadGen drives
//! a real system: real sleeps between arrivals, a worker pool for the server
//! scenario's concurrent queries, and `Instant`-based latency measurement.
//! The rulebook (seeding, scheduling, validation, metrics) is shared with
//! the simulated loop, so the two runners agree wherever timing permits —
//! an integration test asserts that.
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
use crate::des::{finish_run, RunOutcome, ServerCursor};
use crate::journal::{
    settings_digest, Checkpoint, JournalConfig, JournaledRun, RunJournal, RunMeta,
};
use crate::qsl::QuerySampleLibrary;
use crate::query::{Query, QueryCompletion};
use crate::record::Recorder;
use crate::scenario::Scenario;
use crate::schedule::build_query;
use crate::sut::{IssueOutcome, RealtimeSut};
use crate::time::Nanos;
use crate::LoadGenError;
use mlperf_stats::dist::PoissonProcess;
use mlperf_stats::Rng64;
use mlperf_trace::{NoopSink, TraceEvent, TraceSink};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Runs one benchmark against a wall clock.
///
/// # Errors
///
/// Returns [`LoadGenError`] for inconsistent settings, an unusable QSL, or
/// SUT protocol violations.
pub fn run_realtime<Q>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: Arc<dyn RealtimeSut>,
) -> Result<RunOutcome, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
{
    run_realtime_traced(settings, qsl, sut, &NoopSink)
}

/// Runs one wall-clock benchmark with a detail-log sink attached.
///
/// Issue, completion, and error events land in `sink` with wall-clock
/// timestamps (nanoseconds since run start). This is the realtime analog
/// of `run_simulated_traced`, and what the TEST06 completeness audit reads
/// when the SUT lives on the far side of a socket.
///
/// # Errors
///
/// Returns [`LoadGenError`] for inconsistent settings, an unusable QSL, or
/// SUT protocol violations.
pub fn run_realtime_traced<Q>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: Arc<dyn RealtimeSut>,
    sink: &dyn TraceSink,
) -> Result<RunOutcome, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
{
    run_realtime_traced_at(settings, qsl, sut, sink, Instant::now())
}

/// [`run_realtime_traced`] with an explicit clock origin.
///
/// Every timestamp in the detail log is measured from `origin` instead of
/// "now". Pass the instant another instrumented component (e.g. a wire
/// client) started its own clock at, and both event streams land on a
/// single shared time axis — the merged cross-host detail log depends on
/// this.
///
/// # Errors
///
/// Returns [`LoadGenError`] for inconsistent settings, an unusable QSL, or
/// SUT protocol violations.
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
    settings.validate()?;
    if qsl.total_sample_count() == 0 || qsl.performance_sample_count() == 0 {
        return Err(LoadGenError::BadQsl(format!(
            "QSL {} has no samples",
            qsl.name()
        )));
    }
    let loaded: Vec<usize> = match settings.mode {
        TestMode::PerformanceOnly => (0..qsl.performance_sample_count()).collect(),
        TestMode::AccuracyOnly => (0..qsl.total_sample_count()).collect(),
    };
    qsl.load_samples(&loaded);
    if sink.enabled() {
        sink.record(
            0,
            &TraceEvent::RunPhase {
                phase: "issue".into(),
                scenario: settings.scenario.to_string(),
            },
        );
    }
    let mut recorder = Recorder::new();
    match settings.mode {
        TestMode::AccuracyOnly => run_batch(
            settings,
            &loaded,
            sut.as_ref(),
            &mut recorder,
            1.0,
            sink,
            origin,
        )?,
        TestMode::PerformanceOnly => match settings.scenario {
            Scenario::SingleStream => run_single_stream(
                settings,
                loaded.len(),
                sut.as_ref(),
                &mut recorder,
                sink,
                origin,
            )?,
            Scenario::MultiStream => run_multi_stream(
                settings,
                loaded.len(),
                sut.as_ref(),
                &mut recorder,
                sink,
                origin,
            )?,
            Scenario::Server => {
                run_server(settings, loaded.len(), &sut, &mut recorder, sink, origin)?
            }
            Scenario::Offline => {
                let mut rng = Rng64::new(settings.seeds.qsl_seed);
                let indices = rng.sample_with_replacement(
                    loaded.len(),
                    settings.offline_min_sample_count as usize,
                );
                run_batch(
                    settings,
                    &indices,
                    sut.as_ref(),
                    &mut recorder,
                    settings.accuracy_log_probability,
                    sink,
                    origin,
                )?
            }
        },
    }
    qsl.unload_samples(&loaded);
    Ok(finish_run(
        settings,
        sut.name(),
        qsl.name(),
        recorder,
        sink,
        None,
    ))
}

pub(crate) fn log_sampler(settings: &TestSettings, probability: f64) -> impl FnMut(u64) -> bool {
    let mut rng = Rng64::new(settings.seeds.accuracy_seed);
    move |_| probability > 0.0 && rng.next_bool(probability)
}

pub(crate) fn record_issue_event(sink: &dyn TraceSink, query: &Query, issued_at: Nanos) {
    if sink.enabled() {
        sink.record(
            issued_at.as_nanos(),
            &TraceEvent::QueryIssued {
                query_id: query.id,
                sample_count: query.sample_count(),
                delay_ns: issued_at.saturating_sub(query.scheduled_at).as_nanos(),
            },
        );
    }
}

/// Resolves one [`IssueOutcome`] into the recorder and the detail log.
///
/// `Completed` and `Errored` outcomes produce a completion record (and a
/// `QueryCompleted` / `QueryErrored` event); `Vanished` leaves the query
/// outstanding so the incomplete-queries validity rule catches it.
fn record_outcome<F: FnMut(u64) -> bool>(
    recorder: &mut Recorder,
    query: &Query,
    outcome: IssueOutcome,
    finished: Nanos,
    log: F,
    sink: &dyn TraceSink,
) -> Result<(), LoadGenError> {
    let completion = match outcome {
        IssueOutcome::Completed(samples) => QueryCompletion::ok(query.id, finished, samples),
        IssueOutcome::Errored => QueryCompletion::errored(query, finished),
        IssueOutcome::Vanished => return Ok(()),
    };
    record_completion(recorder, &completion, query.scheduled_at, log, sink)
}

/// Records a ready-made completion (server scenario builds them on worker
/// threads) plus its trace event.
pub(crate) fn record_completion<F: FnMut(u64) -> bool>(
    recorder: &mut Recorder,
    completion: &QueryCompletion,
    scheduled_at: Nanos,
    log: F,
    sink: &dyn TraceSink,
) -> Result<(), LoadGenError> {
    recorder.record_completion(completion, log)?;
    if sink.enabled() {
        let latency_ns = completion
            .finished_at
            .saturating_sub(scheduled_at)
            .as_nanos();
        let event = if completion.error {
            TraceEvent::QueryErrored {
                query_id: completion.query_id,
                latency_ns,
            }
        } else {
            TraceEvent::QueryCompleted {
                query_id: completion.query_id,
                latency_ns,
            }
        };
        sink.record(completion.finished_at.as_nanos(), &event);
    }
    Ok(())
}

/// One query over `indices`, issued synchronously (offline + accuracy mode).
fn run_batch(
    settings: &TestSettings,
    indices: &[usize],
    sut: &dyn RealtimeSut,
    recorder: &mut Recorder,
    log_probability: f64,
    sink: &dyn TraceSink,
    start: Instant,
) -> Result<(), LoadGenError> {
    let mut next_sample_id = 0u64;
    let query = build_query(0, &mut next_sample_id, indices, Nanos::ZERO);
    recorder.record_issue(&query, Nanos::ZERO)?;
    record_issue_event(sink, &query, Nanos::ZERO);
    let outcome = sut.issue_outcome(&query);
    let finished = Nanos::from(start.elapsed());
    record_outcome(
        recorder,
        &query,
        outcome,
        finished,
        log_sampler(settings, log_probability),
        sink,
    )
}

fn run_single_stream(
    settings: &TestSettings,
    population: usize,
    sut: &dyn RealtimeSut,
    recorder: &mut Recorder,
    sink: &dyn TraceSink,
    start: Instant,
) -> Result<(), LoadGenError> {
    let mut qsl_rng = Rng64::new(settings.seeds.qsl_seed);
    let mut log = log_sampler(settings, settings.accuracy_log_probability);
    let mut next_sample_id = 0u64;
    let mut issued = 0u64;
    loop {
        let scheduled = Nanos::from(start.elapsed());
        let indices = qsl_rng.sample_with_replacement(population, settings.samples_per_query);
        let query = build_query(issued, &mut next_sample_id, &indices, scheduled);
        issued += 1;
        recorder.record_issue(&query, scheduled)?;
        record_issue_event(sink, &query, scheduled);
        let outcome = sut.issue_outcome(&query);
        let finished = Nanos::from(start.elapsed());
        record_outcome(recorder, &query, outcome, finished, &mut log, sink)?;
        if issued >= settings.min_query_count && finished >= settings.min_duration {
            return Ok(());
        }
    }
}

fn run_multi_stream(
    settings: &TestSettings,
    population: usize,
    sut: &dyn RealtimeSut,
    recorder: &mut Recorder,
    sink: &dyn TraceSink,
    start: Instant,
) -> Result<(), LoadGenError> {
    let interval = settings.multistream_arrival_interval;
    let mut qsl_rng = Rng64::new(settings.seeds.qsl_seed);
    let mut log = log_sampler(settings, settings.accuracy_log_probability);
    let mut next_sample_id = 0u64;
    let mut issued = 0u64;
    let mut boundary = Nanos::ZERO;
    loop {
        // Sleep until the boundary.
        let now = Nanos::from(start.elapsed());
        if boundary > now {
            std::thread::sleep(boundary.saturating_sub(now).to_duration());
        }
        let indices = qsl_rng.sample_with_replacement(population, settings.samples_per_query);
        let query = build_query(issued, &mut next_sample_id, &indices, boundary);
        issued += 1;
        recorder.record_issue(&query, boundary)?;
        record_issue_event(sink, &query, boundary);
        let outcome = sut.issue_outcome(&query);
        let finished = Nanos::from(start.elapsed());
        record_outcome(recorder, &query, outcome, finished, &mut log, sink)?;
        let elapsed = finished.saturating_sub(boundary).as_nanos();
        let consumed = elapsed.div_ceil(interval.as_nanos()).max(1);
        if consumed > 1 {
            recorder.record_skips(query.id, (consumed - 1) as u32);
        }
        boundary += interval.mul(consumed);
        if issued >= settings.min_query_count && boundary >= settings.min_duration {
            return Ok(());
        }
    }
}

fn run_server(
    settings: &TestSettings,
    population: usize,
    sut: &Arc<dyn RealtimeSut>,
    recorder: &mut Recorder,
    sink: &dyn TraceSink,
    start: Instant,
) -> Result<(), LoadGenError> {
    let mut qsl_rng = Rng64::new(settings.seeds.qsl_seed);
    let arrivals = PoissonProcess::new(
        settings.server_target_qps,
        Rng64::new(settings.seeds.schedule_seed),
    )
    .map_err(|e| LoadGenError::BadSettings(e.to_string()))?
    .map(Nanos::from_secs_f64);
    let (work_tx, work_rx) = mpsc::channel::<Query>();
    // Workers report (scheduled_at, completion); `None` completions mark
    // queries that vanished on a live transport — never recorded, so they
    // stay outstanding and trip the incomplete-queries check.
    let (done_tx, done_rx) = mpsc::channel::<(Nanos, Option<QueryCompletion>)>();
    // std's Receiver is single-consumer; the worker pool shares it behind a
    // mutex (each worker holds the lock only for the dequeue itself).
    let work_rx = Arc::new(Mutex::new(work_rx));
    let mut workers = Vec::new();
    for _ in 0..settings.server_workers {
        let rx = Arc::clone(&work_rx);
        let tx = done_tx.clone();
        let sut = Arc::clone(sut);
        workers.push(std::thread::spawn(move || loop {
            let query = match rx.lock().expect("work queue poisoned").recv() {
                Ok(query) => query,
                Err(_) => break,
            };
            let outcome = sut.issue_outcome(&query);
            let finished = Nanos::from(start.elapsed());
            let completion = match outcome {
                IssueOutcome::Completed(samples) => {
                    Some(QueryCompletion::ok(query.id, finished, samples))
                }
                IssueOutcome::Errored => Some(QueryCompletion::errored(&query, finished)),
                IssueOutcome::Vanished => None,
            };
            if tx.send((query.scheduled_at, completion)).is_err() {
                break;
            }
        }));
    }
    drop(work_rx);
    drop(done_tx);
    let mut next_sample_id = 0u64;
    let mut issued = 0u64;
    for arrival in arrivals {
        let now = Nanos::from(start.elapsed());
        if arrival > now {
            std::thread::sleep(arrival.saturating_sub(now).to_duration());
        }
        let indices = qsl_rng.sample_with_replacement(population, settings.samples_per_query);
        let query = build_query(issued, &mut next_sample_id, &indices, arrival);
        issued += 1;
        recorder.record_issue(&query, arrival)?;
        record_issue_event(sink, &query, arrival);
        work_tx
            .send(query)
            .map_err(|_| LoadGenError::SutProtocol("server worker pool died".into()))?;
        if issued >= settings.min_query_count && arrival >= settings.min_duration {
            break;
        }
    }
    drop(work_tx);
    if sink.enabled() {
        sink.record(
            Nanos::from(start.elapsed()).as_nanos(),
            &TraceEvent::RunPhase {
                phase: "drain".into(),
                scenario: settings.scenario.to_string(),
            },
        );
    }
    let mut log = log_sampler(settings, settings.accuracy_log_probability);
    for (scheduled_at, completion) in done_rx.iter() {
        if let Some(completion) = completion {
            record_completion(recorder, &completion, scheduled_at, &mut log, sink)?;
        }
    }
    for worker in workers {
        worker
            .join()
            .map_err(|_| LoadGenError::SutProtocol("server worker panicked".into()))?;
    }
    Ok(())
}

/// Runs a wall-clock server benchmark under a crash-safe run journal.
///
/// The checkpoint cadence, resume semantics, and journal format are shared
/// with the simulated runner (`des::run_journaled`): every
/// `checkpoint_every` issued queries the scenario cursor, RNG states,
/// recorder image, and wire-session epoch are appended to the `MLPJ`
/// journal at `cfg.path`. With `resume = true` the run rolls back to the
/// last complete checkpoint and re-executes from there: the restored RNG
/// states re-draw the identical schedule and sample indices, outstanding
/// queries are re-sent to the SUT (with re-stamped `QueryIssued` events but
/// no duplicate recorder entries, keeping the TEST06 ledger balanced), and
/// the clock origin is shifted into the past by the checkpointed wall time
/// so arrival deadlines stay on the original time axis — queries whose
/// arrivals passed while the process was down issue immediately.
///
/// Only the server scenario in performance mode is supported; the other
/// scenarios are completion-driven and have no mid-run state worth saving
/// (a crashed single-stream run restarts from zero at no cost).
///
/// # Errors
///
/// Returns [`LoadGenError`] for inconsistent settings, an unusable QSL,
/// SUT protocol violations, or a journal that cannot be written — or, on
/// resume, one whose recorded settings digest does not match this run.
pub fn run_realtime_journaled<Q>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: Arc<dyn RealtimeSut>,
    sink: &dyn TraceSink,
    cfg: &JournalConfig,
    resume: bool,
) -> Result<JournaledRun, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
{
    settings.validate()?;
    if settings.mode != TestMode::PerformanceOnly || settings.scenario != Scenario::Server {
        return Err(LoadGenError::BadSettings(
            "journaled realtime runs support the server scenario in performance mode".into(),
        ));
    }
    if qsl.total_sample_count() == 0 || qsl.performance_sample_count() == 0 {
        return Err(LoadGenError::BadQsl(format!(
            "QSL {} has no samples",
            qsl.name()
        )));
    }
    let loaded: Vec<usize> = (0..qsl.performance_sample_count()).collect();
    qsl.load_samples(&loaded);
    let population = loaded.len();
    let meta = RunMeta {
        scenario: settings.scenario.to_string(),
        digest: settings_digest(settings, population as u64),
        qsl_size: population as u64,
    };
    let (mut journal, restored) = RunJournal::attach(cfg, &meta, resume)?;
    if sink.enabled() {
        sink.record(
            0,
            &TraceEvent::RunPhase {
                phase: if restored.is_some() {
                    "resume"
                } else {
                    "issue"
                }
                .into(),
                scenario: settings.scenario.to_string(),
            },
        );
    }
    let (mut recorder, mut cursor, origin) = match &restored {
        Some(cp) => (
            Recorder::restore(cp.recorder.clone()),
            ServerCursor::restore(settings, cp)?,
            // Shift the clock origin into the past so `elapsed()` resumes
            // the interrupted run's time axis instead of restarting at 0.
            Instant::now()
                .checked_sub(cp.wall.to_duration())
                .unwrap_or_else(Instant::now),
        ),
        None => (
            Recorder::new(),
            ServerCursor::fresh(settings)?,
            Instant::now(),
        ),
    };
    let start = origin;
    let (work_tx, work_rx) = mpsc::channel::<Query>();
    let (done_tx, done_rx) = mpsc::channel::<(Nanos, Option<QueryCompletion>)>();
    let work_rx = Arc::new(Mutex::new(work_rx));
    let mut workers = Vec::new();
    for _ in 0..settings.server_workers {
        let rx = Arc::clone(&work_rx);
        let tx = done_tx.clone();
        let sut = Arc::clone(&sut);
        workers.push(std::thread::spawn(move || loop {
            let query = match rx.lock().expect("work queue poisoned").recv() {
                Ok(query) => query,
                Err(_) => break,
            };
            let outcome = sut.issue_outcome(&query);
            let finished = Nanos::from(start.elapsed());
            let completion = match outcome {
                IssueOutcome::Completed(samples) => {
                    Some(QueryCompletion::ok(query.id, finished, samples))
                }
                IssueOutcome::Errored => Some(QueryCompletion::errored(&query, finished)),
                IssueOutcome::Vanished => None,
            };
            if tx.send((query.scheduled_at, completion)).is_err() {
                break;
            }
        }));
    }
    drop(work_rx);
    drop(done_tx);
    // Re-issue the checkpoint's outstanding queries: the recorder already
    // carries their issue records, so only the trace event is re-stamped
    // (TEST06 needs an issue event ahead of each completion in the resumed
    // log). The remote end dedups re-executions via its completion journal.
    if let Some(cp) = &restored {
        for query in cp.recorder.outstanding_queries() {
            record_issue_event(sink, &query, query.scheduled_at);
            work_tx
                .send(query)
                .map_err(|_| LoadGenError::SutProtocol("server worker pool died".into()))?;
        }
    }
    let mut halted = false;
    while let Some(arrival) = cursor.pending_arrival.take() {
        let now = Nanos::from(start.elapsed());
        if arrival > now {
            std::thread::sleep(arrival.saturating_sub(now).to_duration());
        }
        let indices = cursor
            .qsl_rng
            .sample_with_replacement(population, settings.samples_per_query);
        let query = build_query(cursor.issued, &mut cursor.next_sample_id, &indices, arrival);
        cursor.issued += 1;
        recorder.record_issue(&query, arrival)?;
        record_issue_event(sink, &query, arrival);
        work_tx
            .send(query)
            .map_err(|_| LoadGenError::SutProtocol("server worker pool died".into()))?;
        // Draw the next arrival only when the run continues, mirroring the
        // plain loop's lazy iterator so both consume the schedule RNG
        // identically — the settings digest pins the seeds, this pins the
        // draw count.
        if !(cursor.issued >= settings.min_query_count && arrival >= settings.min_duration) {
            cursor.pending_arrival = Some(cursor.next_arrival());
        }
        if cursor.issued.is_multiple_of(cfg.checkpoint_every) {
            let (sched_rng, sched_now) = cursor.arrivals.state();
            let (records_from, accuracy_from) = journal.flushed_marks();
            let cp = Checkpoint {
                seq: journal.checkpoints,
                issued: cursor.issued,
                next_sample_id: cursor.next_sample_id,
                wall: Nanos::from(start.elapsed()),
                pending_arrival: cursor.pending_arrival,
                qsl_rng: cursor.qsl_rng.state(),
                sched_rng,
                sched_now_bits: sched_now.to_bits(),
                // The realtime drain rebuilds its accuracy-log sampler from
                // the seed, so the checkpoint pins the seed-fresh state.
                acc_rng: Rng64::new(settings.seeds.accuracy_seed).state(),
                epoch: cfg.epoch(),
                recorder: recorder.snapshot_suffix(records_from, accuracy_from),
            };
            if journal.append_checkpoint(cfg, &cp)? {
                halted = true;
                break;
            }
        }
    }
    drop(work_tx);
    if halted {
        // Simulated process death: drain and discard in-flight completions
        // (they were never recorded, so the checkpoint still lists their
        // queries as outstanding), then tear the pool down.
        for _ in done_rx.iter() {}
        for worker in workers {
            let _ = worker.join();
        }
        qsl.unload_samples(&loaded);
        sink.flush();
        return Ok(JournaledRun::Halted {
            checkpoint: journal
                .checkpoints
                .saturating_sub(if cfg.torn_halt { 0 } else { 1 }),
        });
    }
    if sink.enabled() {
        sink.record(
            Nanos::from(start.elapsed()).as_nanos(),
            &TraceEvent::RunPhase {
                phase: "drain".into(),
                scenario: settings.scenario.to_string(),
            },
        );
    }
    let mut log = log_sampler(settings, settings.accuracy_log_probability);
    for (scheduled_at, completion) in done_rx.iter() {
        if let Some(completion) = completion {
            record_completion(&mut recorder, &completion, scheduled_at, &mut log, sink)?;
        }
    }
    for worker in workers {
        worker
            .join()
            .map_err(|_| LoadGenError::SutProtocol("server worker panicked".into()))?;
    }
    journal.sync()?;
    qsl.unload_samples(&loaded);
    Ok(JournaledRun::Finished(Box::new(finish_run(
        settings,
        sut.name(),
        qsl.name(),
        recorder,
        sink,
        None,
    ))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qsl::MemoryQsl;
    use crate::query::SampleCompletion;
    use crate::results::ScenarioMetric;
    use crate::sut::SleepSut;
    use crate::validate::ValidityIssue;
    use mlperf_trace::RingBufferSink;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn sleepy(us: u64) -> Arc<dyn RealtimeSut> {
        Arc::new(SleepSut::new("sleepy", Duration::from_micros(us)))
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
            query
                .samples
                .iter()
                .map(|s| SampleCompletion {
                    sample_id: s.id,
                    payload: Default::default(),
                })
                .collect()
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
        let out = run_realtime(&settings, &mut qsl, sleepy(200)).unwrap();
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
        let out = run_realtime(&settings, &mut qsl, sleepy(50)).unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        assert_eq!(out.result.sample_count, 50);
    }

    #[test]
    fn server_realtime_underloaded_is_valid() {
        let settings = TestSettings::server(200.0, Nanos::from_millis(50))
            .with_min_query_count(50)
            .with_min_duration(Nanos::from_millis(10));
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let out = run_realtime(&settings, &mut qsl, sleepy(100)).unwrap();
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
        let out = run_realtime(&settings, &mut qsl, sleepy(100)).unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
    }

    #[test]
    fn multistream_realtime() {
        // Generous interval vs service time: scheduler jitter in loaded CI
        // environments must not overrun an interval.
        let settings = TestSettings::multi_stream(2, Nanos::from_millis(25))
            .with_min_query_count(8)
            .with_min_duration(Nanos::from_millis(1));
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let out = run_realtime(&settings, &mut qsl, sleepy(100)).unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        match out.result.metric {
            ScenarioMetric::MultiStream { streams, .. } => assert_eq!(streams, 2),
            ref m => panic!("wrong metric {m:?}"),
        }
    }

    #[test]
    fn accuracy_mode_realtime_covers_dataset() {
        let settings = TestSettings::offline().with_mode(TestMode::AccuracyOnly);
        let mut qsl = MemoryQsl::new("q", 40, 8);
        let out = run_realtime(&settings, &mut qsl, sleepy(1)).unwrap();
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
        let out = run_realtime(&settings, &mut qsl, sut).unwrap();
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
        let out = run_realtime(&settings, &mut qsl, sut).unwrap();
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
        let out = run_realtime_traced(&settings, &mut qsl, sleepy(10), &sink).unwrap();
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
        let journaled =
            run_realtime_journaled(&settings, &mut qsl, sleepy(20), &NoopSink, &cfg, false)
                .unwrap()
                .finished()
                .expect("no halt armed");
        let plain = run_realtime(&settings, &mut qsl, sleepy(20)).unwrap();
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
            run_realtime_journaled(&settings, &mut qsl, sleepy(20), &NoopSink, &cfg, false)
                .unwrap()
                .finished()
                .expect("no halt armed")
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
                let halted =
                    run_realtime_journaled(&settings, &mut qsl, sleepy(20), &NoopSink, &cfg, false)
                        .unwrap();
                match halted {
                    JournaledRun::Halted { checkpoint } => assert_eq!(checkpoint, halt_at),
                    JournaledRun::Finished(_) => panic!("halt_after({halt_at}) did not fire"),
                }
                let resume_cfg = crate::journal::JournalConfig::new(&path).with_checkpoint_every(8);
                let sink = RingBufferSink::unbounded();
                let rescued = run_realtime_journaled(
                    &settings,
                    &mut qsl,
                    sleepy(20),
                    &sink,
                    &resume_cfg,
                    true,
                )
                .unwrap()
                .finished()
                .expect("resume runs to completion");
                assert_eq!(
                    logical(&rescued.records),
                    logical(&baseline.records),
                    "halt_at={halt_at} torn={torn}"
                );
                assert!(rescued.result.is_valid());
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

    #[test]
    fn realtime_journaled_rejects_other_scenarios() {
        let settings = TestSettings::single_stream().with_min_query_count(4);
        let dir = std::env::temp_dir();
        let cfg = crate::journal::JournalConfig::new(dir.join("mlpj-rt-reject.mlpj"));
        let mut qsl = MemoryQsl::new("q", 8, 8);
        let err = run_realtime_journaled(&settings, &mut qsl, sleepy(10), &NoopSink, &cfg, false)
            .unwrap_err();
        assert!(matches!(err, LoadGenError::BadSettings(_)));
    }
}
