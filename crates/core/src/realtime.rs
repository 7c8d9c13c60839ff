//! The wall-clock issue loop.
//!
//! Drives a [`RealtimeSut`] exactly the way the reference C++ LoadGen drives
//! a real system: a thread paced to each arrival on the real clock, a
//! worker pool for open-loop queries (the server scenario, a replayed
//! schedule), and `Instant`-based latency measurement. The rulebook
//! (seeding, scheduling, recording, validation, metrics) is shared with the
//! simulated loop, so the two runners agree wherever timing permits — an
//! integration test asserts that. Entered through [`crate::Run::wall_clock`].
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
use mlperf_trace::sync::{lock, wait};
use mlperf_trace::TraceSink;
use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Condvar, Mutex};
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

/// What a [`Pacer`] needs of its thread: the run clock and the two ways of
/// giving the CPU away. The wall-clock loops pass the run's origin, the
/// pacer's tests a script.
trait PaceClock {
    fn now(&self) -> Nanos;
    fn sleep(&mut self, span: Nanos);
    fn yield_now(&mut self);
}

impl PaceClock for Instant {
    fn now(&self) -> Nanos {
        Nanos::from(self.elapsed())
    }

    fn sleep(&mut self, span: Nanos) {
        std::thread::sleep(span.to_duration());
    }

    fn yield_now(&mut self) {
        std::thread::yield_now();
    }
}

/// Holds one thread to deadlines on the run clock. A sleep wakes a timer
/// slack and a wake-up late (84 µs here) and a query is timed from its
/// *scheduled* arrival, so that lateness would be charged to the SUT. The
/// pacer sleeps to short of the deadline by a margin, then yields until
/// the clock reads it — yields, not `spin_loop`: on one CPU a woken worker
/// must run at once, and on an idle core a yield is a spin. The margin is
/// measured, not configured: the retransmission-timer estimator (RFC 6298:
/// smoothed mean, gain 1/8, plus four smoothed mean deviations, gain 1/4)
/// over the overshoot of every sleep this thread makes, starting at zero.
#[derive(Debug, Default)]
struct Pacer {
    overshoot_ns: u64,
    deviation_ns: u64,
    /// The last deadline waited for was met without a sleep.
    coasting: bool,
}

impl Pacer {
    fn margin(&self) -> Nanos {
        Nanos::from_nanos(self.overshoot_ns + 4 * self.deviation_ns)
    }

    /// The estimator's decay: what a sample is blended into and, with no
    /// sample, what forgets a margin nothing confirms.
    fn shrink(&mut self) {
        self.deviation_ns -= self.deviation_ns / 4;
        self.overshoot_ns -= self.overshoot_ns / 8;
    }

    /// Returns once `clock` reads `deadline` or later: at once, without a
    /// syscall, when it already does (saturation, a resumed run catching
    /// up).
    fn wait_until(&mut self, deadline: Nanos, clock: &mut impl PaceClock) {
        let mut now = clock.now();
        if now >= deadline {
            return;
        }
        let (left, margin) = (deadline.saturating_sub(now), self.margin());
        if left > margin {
            let asked = left.saturating_sub(margin);
            clock.sleep(asked);
            let woke = clock.now();
            let overshot = woke.saturating_sub(now + asked).as_nanos();
            now = woke;
            let off = self.overshoot_ns.abs_diff(overshot);
            self.shrink();
            self.deviation_ns += off / 4;
            self.overshoot_ns += overshot / 8;
            self.coasting = false;
        } else {
            // Met without a sleep: nothing measured. One host stall lifts
            // the margin above every gap in the schedule, and then no
            // sleep is taken again to correct it and this thread yields
            // to the end of the run; so a run of sleepless deadlines
            // shrinks the estimate until sleeps resume. From the second on:
            // a lone one is a short Poisson gap (a fifth of them at 2,000
            // qps), and shrinking on each put the yield phase at 9 % of
            // such a run against 6 %, the bias on the mean coming back
            // fourfold through the deviation.
            if self.coasting {
                self.shrink();
            }
            self.coasting = true;
        }
        while now < deadline {
            clock.yield_now();
            now = clock.now();
        }
    }
}

/// A work queue for a pool of threads: first in, first out, any number of
/// workers, one wake per hand-off. (`mpsc`'s single-consumer receiver
/// shared behind a mutex parks every idle worker but one on the *mutex*:
/// each item woke a second worker only for it to block again in `recv`.)
/// The wall-clock pool below hands queries to its workers through one; so
/// does the wire daemon's server-scenario session.
pub struct WorkQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
}

struct QueueState<T> {
    items: VecDeque<T>,
    /// Workers parked in [`WorkQueue::pop`]: a push wakes one only when
    /// there is one, so a busy pool costs the pushing thread no syscall.
    idle: usize,
    closed: bool,
}

impl<T> Default for WorkQueue<T> {
    fn default() -> Self {
        WorkQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                idle: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }
}

impl<T> WorkQueue<T> {
    /// Queues `item` for the next free worker, or hands it back when no
    /// worker will ever take it: the queue is closed, or — a worker holds
    /// a handle to the queue until it exits, by return or by panic — this
    /// is the only handle left and the pool is dead.
    ///
    /// # Errors
    ///
    /// Returns `item` when the queue is closed or has no live worker.
    pub fn push(self: &Arc<Self>, item: T) -> Result<(), T> {
        if Arc::strong_count(self) == 1 {
            return Err(item);
        }
        let wake = {
            let mut state = lock(&self.state);
            if state.closed {
                return Err(item);
            }
            state.items.push_back(item);
            state.idle > 0
        };
        if wake {
            self.ready.notify_one();
        }
        Ok(())
    }

    /// The next item, blocking while the queue is empty and open; `None`
    /// once it is closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = lock(&self.state);
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state.idle += 1;
            state = wait(&self.ready, state);
            state.idle -= 1;
        }
    }

    /// Closes the queue: workers drain what is queued, then see `None`.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.ready.notify_all();
    }
}

/// Hands `query` to the pool: a dead pool fails the run here instead of
/// queueing to the end of its schedule.
fn hand_over(queue: &Arc<WorkQueue<Query>>, query: Query) -> Result<(), LoadGenError> {
    queue
        .push(query)
        .map_err(|_| LoadGenError::SutProtocol("server worker pool died".into()))
}

/// The wall-clock run in progress: the SUT, the run clock and its pacer,
/// and the one [`Lane`] every scenario's loop records into.
struct Wall<'a> {
    sut: &'a Arc<dyn RealtimeSut>,
    sink: &'a dyn TraceSink,
    start: Instant,
    pacer: Pacer,
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
        scheduled_at: Nanos,
        issued_at: Nanos,
    ) -> Result<Nanos, LoadGenError> {
        let query = build_query(id, &mut self.next_sample_id, indices, scheduled_at);
        self.lane.issue(&query, issued_at, self.sink)?;
        let outcome = self.sut.issue_outcome(&query);
        let finished = self.now();
        if let Some(completion) = resolve(&query, outcome, finished) {
            self.lane.complete(&completion, self.sink)?;
        }
        Ok(finished)
    }

    fn run_single_stream(&mut self, mut cursor: SampleCursor<'_>) -> Result<(), LoadGenError> {
        loop {
            let (id, indices) = cursor.draw();
            let now = self.now();
            let finished = self.issue_blocking(id, &indices, now, now)?;
            if !cursor.more(finished) {
                return Ok(());
            }
        }
    }

    fn run_multi_stream(&mut self, mut cursor: SampleCursor<'_>) -> Result<(), LoadGenError> {
        let interval = self.lane.settings.multistream_arrival_interval;
        let mut boundary = Nanos::ZERO;
        loop {
            self.pacer.wait_until(boundary, &mut self.start);
            let (id, indices) = cursor.draw();
            // The pool's stamp: the boundary plus however late we met it.
            let issued_at = self.now().max(boundary);
            let finished = self.issue_blocking(id, &indices, boundary, issued_at)?;
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
    /// this thread is paced to each arrival of `source`, stamps the query,
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
        let queue = Arc::new(WorkQueue::<Query>::default());
        let (done_tx, done_rx) = mpsc::channel::<QueryCompletion>();
        let workers: Vec<_> = (0..self.lane.settings.server_workers)
            .map(|_| {
                let (queue, tx) = (Arc::clone(&queue), done_tx.clone());
                let (sut, start) = (Arc::clone(self.sut), self.start);
                // A worker blocks on the SUT one query at a time until the
                // queue closes (or the run is gone).
                std::thread::spawn(move || {
                    while let Some(query) = queue.pop() {
                        let outcome = sut.issue_outcome(&query);
                        let finished = Nanos::from(start.elapsed());
                        if let Some(completion) = resolve(&query, outcome, finished) {
                            if tx.send(completion).is_err() {
                                return;
                            }
                        }
                    }
                })
            })
            .collect();
        drop(done_tx);
        let issued = self.issue_all(source, resend, &queue, &done_rx, journal);
        // The one way out, for a finished issue phase, a halt and an error
        // alike: close the queue so the workers run dry and exit, take
        // what they still deliver, join them.
        queue.close();
        let drained = issued.and_then(|halted| {
            if !halted {
                phase(self.sink, self.now(), "drain", self.lane.settings);
                for completion in done_rx.iter() {
                    self.lane.complete(&completion, self.sink)?;
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
        queue: &Arc<WorkQueue<Query>>,
        done_rx: &Receiver<QueryCompletion>,
        mut journal: Option<&mut RunJournal<'_>>,
    ) -> Result<bool, LoadGenError> {
        for query in resend {
            trace_issue(self.sink, &query, query.scheduled_at);
            hand_over(queue, query)?;
        }
        while let Some((id, arrival, indices)) = source.next(PoissonCursor::advance_wall) {
            self.pacer.wait_until(arrival, &mut self.start);
            let query = build_query(id, &mut self.next_sample_id, &indices, arrival);
            // The honest stamp: when the query actually left, which is the
            // arrival plus however late the pacer let go.
            let issued_at = self.now().max(arrival);
            self.lane.issue(&query, issued_at, self.sink)?;
            hand_over(queue, query)?;
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
                self.lane.complete(&completion, self.sink)?;
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
        pacer: Pacer::default(),
        lane: Lane::new(settings, None),
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
        let at = Nanos::ZERO;
        wall.issue_blocking(0, indices, at, at).map(|_| false)
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
            // Scheduled on the boundary, stamped when it really left.
            assert_eq!(r.scheduled_at.as_nanos() % interval.as_nanos(), 0);
            assert!(r.issued_at >= r.scheduled_at, "{r:?}");
        }
        let late = out.records.iter().any(|r| r.issued_at > r.scheduled_at);
        assert!(late, "issued_at copies the schedule");
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
            .any(|r| matches!(&r.event, TraceEvent::RunPhase(run) if run.phase == "report")));
    }

    /// What a crash + resume must preserve exactly.
    fn logical(records: &[crate::record::QueryRecord]) -> Vec<(u64, u64, usize, bool)> {
        records
            .iter()
            .map(crate::record::QueryRecord::logical)
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

    /// Panics in query 0 and would serve nothing after it.
    struct Dies;

    impl RealtimeSut for Dies {
        fn name(&self) -> &str {
            "dies"
        }

        fn issue(&self, query: &Query) -> Vec<SampleCompletion> {
            panic!("query {} killed its worker (a test of the pool)", query.id);
        }
    }

    /// A push to a pool with no live worker fails the run there and then:
    /// nothing queues up behind a dead pool to the end of the schedule.
    #[test]
    fn a_pool_whose_last_worker_died_fails_the_run_at_once() {
        // 10,000 queries at 500 qps: a twenty-second schedule.
        let settings = TestSettings::server(500.0, Nanos::from_millis(50))
            .with_min_query_count(10_000)
            .with_min_duration(Nanos::from_millis(1))
            .with_server_workers(1);
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let started = Instant::now();
        let run = Run::wall_clock(&settings).run(&mut qsl, Arc::new(Dies));
        assert!(matches!(run, Err(LoadGenError::SutProtocol(_))), "{run:?}");
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    /// `close` after the last push: the workers drain every queued query —
    /// none lost, none served twice, each worker's share in queue order —
    /// and then exit.
    #[test]
    fn a_closed_queue_is_drained_in_order_by_however_many_workers() {
        for workers in [1, 4] {
            let queue = Arc::new(WorkQueue::<Query>::default());
            let go = std::sync::Barrier::new(workers + 1);
            let served: Vec<Vec<u64>> = std::thread::scope(|scope| {
                let pool: Vec<_> = (0..workers)
                    .map(|_| {
                        let (queue, go) = (Arc::clone(&queue), &go);
                        scope.spawn(move || {
                            go.wait();
                            std::iter::from_fn(|| queue.pop().map(|q| q.id)).collect()
                        })
                    })
                    .collect();
                for id in 0..1_000 {
                    let query = build_query(id, &mut 0, &[0], Nanos::ZERO);
                    queue.push(query).expect("live workers hold the queue");
                }
                queue.close();
                go.wait();
                pool.into_iter().map(|w| w.join().unwrap()).collect()
            });
            for share in &served {
                assert!(share.windows(2).all(|w| w[0] < w[1]), "{share:?}");
            }
            let mut all: Vec<u64> = served.concat();
            all.sort_unstable();
            assert!(all.into_iter().eq(0..1_000), "{workers} workers");
            assert_eq!(Arc::strong_count(&queue), 1, "a worker outlived the drain");
        }
    }

    /// A closed queue takes nothing more — the item comes back — and what
    /// it already held is still drained.
    #[test]
    fn a_push_to_a_closed_queue_hands_the_item_back() {
        let queue = Arc::new(WorkQueue::default());
        let _worker = Arc::clone(&queue);
        queue.push(7).expect("open, and a worker holds it");
        queue.close();
        assert_eq!(queue.push(8), Err(8));
        assert_eq!((queue.pop(), queue.pop()), (Some(7), None));
    }

    /// A scripted thread for the [`Pacer`]: the clock moves only when the
    /// pacer sleeps — by what it asked for plus the overshoot scripted for
    /// that sleep — or yields, by 1 µs. No wall time, so nothing to flake.
    struct Script {
        now_ns: u64,
        /// Overshoot of the `n`-th sleep, ns.
        overshoot: fn(usize) -> u64,
        asked: Vec<Nanos>,
        slept_ns: u64,
        yields: u64,
    }

    impl Script {
        fn overshooting(overshoot: fn(usize) -> u64) -> Self {
            Script {
                now_ns: 0,
                overshoot,
                asked: Vec::new(),
                slept_ns: 0,
                yields: 0,
            }
        }
    }

    impl PaceClock for Script {
        fn now(&self) -> Nanos {
            Nanos::from_nanos(self.now_ns)
        }

        fn sleep(&mut self, span: Nanos) {
            let took = span.as_nanos() + (self.overshoot)(self.asked.len());
            self.asked.push(span);
            self.slept_ns += took;
            self.now_ns += took;
        }

        fn yield_now(&mut self) {
            self.yields += 1;
            self.now_ns += 1_000;
        }
    }

    const GAP: Nanos = Nanos::from_micros(500);

    /// 80 ± 10 µs, spread by a multiplicative hash of the sleep's ordinal.
    fn around_80_us(n: usize) -> u64 {
        70_000 + (n as u64).wrapping_mul(0x9E37_79B9) % 20_001
    }

    #[test]
    fn the_pacer_sleeps_to_margin_short_of_the_deadline_and_never_returns_early() {
        let mut clock = Script::overshooting(around_80_us);
        let mut pacer = Pacer::default();
        for arrival in 1..=500 {
            // A little issue-loop work before each wait.
            clock.now_ns += 3_000;
            let deadline = GAP.mul(arrival);
            let left = deadline.saturating_sub(clock.now());
            let (margin, sleeps) = (pacer.margin(), clock.asked.len());
            pacer.wait_until(deadline, &mut clock);
            assert!(clock.now() >= deadline, "arrival {arrival} left early");
            if clock.asked.len() > sleeps {
                assert_eq!(clock.asked.len(), sleeps + 1, "one sleep a deadline");
                assert_eq!(clock.asked[sleeps], left.saturating_sub(margin));
            }
        }
        assert!(clock.asked.len() > 400, "{} sleeps", clock.asked.len());
    }

    /// What deadline pacing buys and what it costs, bounded: at 2,000 qps
    /// under a sleep that wakes 80 ± 10 µs late, arrivals are met to within
    /// the yield's granularity, for a yield phase under a third of the time
    /// slept.
    #[test]
    fn the_pacer_settles_on_time_at_a_bounded_price_in_yields() {
        let mut clock = Script::overshooting(around_80_us);
        let mut pacer = Pacer::default();
        for arrival in 1..=1_000 {
            pacer.wait_until(GAP.mul(arrival), &mut clock);
        }
        let (slept, yields) = (clock.slept_ns, clock.yields);
        for arrival in 1_001..=3_000 {
            let deadline = GAP.mul(arrival);
            pacer.wait_until(deadline, &mut clock);
            let late = clock.now().saturating_sub(deadline);
            assert!(late <= Nanos::from_micros(5), "arrival {arrival}: {late}");
        }
        let (slept, yielded) = (clock.slept_ns - slept, (clock.yields - yields) * 1_000);
        assert!(3 * yielded <= slept, "yielded {yielded} ns, slept {slept}");
    }

    /// One host stall must not ratchet the margin above every gap for
    /// good: arrivals met without a sleep shrink it until sleeps resume.
    #[test]
    fn the_pacer_sleeps_again_soon_after_a_host_stall() {
        fn stalls_once(n: usize) -> u64 {
            if n == 200 {
                150_000_000
            } else {
                around_80_us(n)
            }
        }
        let mut clock = Script::overshooting(stalls_once);
        let mut pacer = Pacer::default();
        let mut arrival = 0;
        while clock.asked.len() <= 200 {
            arrival += 1;
            pacer.wait_until(GAP.mul(arrival), &mut clock);
        }
        assert!(pacer.margin() > GAP.mul(100), "{}", pacer.margin());
        // Three hundred arrivals passed during the stall: caught up on
        // without a sleep, a yield, or a change to the estimate.
        let (sleeps, yields, margin) = (clock.asked.len(), clock.yields, pacer.margin());
        while GAP.mul(arrival + 1) <= clock.now() {
            arrival += 1;
            pacer.wait_until(GAP.mul(arrival), &mut clock);
        }
        assert_eq!((clock.asked.len(), clock.yields), (sleeps, yields));
        assert_eq!(pacer.margin(), margin);
        // Back on schedule with a margin of many gaps: met by yielding
        // alone, but not for long.
        let mut met_without_a_sleep = 0;
        while clock.asked.len() == sleeps {
            arrival += 1;
            pacer.wait_until(GAP.mul(arrival), &mut clock);
            met_without_a_sleep += 1;
            assert!(met_without_a_sleep <= 100, "margin {}", pacer.margin());
        }
        assert!(met_without_a_sleep > 1, "the stall never raised the margin");
    }

    #[test]
    fn a_deadline_already_passed_costs_no_sleep_and_no_yield() {
        let mut clock = Script::overshooting(around_80_us);
        clock.now_ns = 1_000_000;
        let mut pacer = Pacer::default();
        for deadline in [Nanos::ZERO, Nanos::from_micros(999), Nanos::from_millis(1)] {
            pacer.wait_until(deadline, &mut clock);
        }
        assert_eq!(
            (clock.asked.len(), clock.yields, clock.now_ns),
            (0, 0, 1_000_000)
        );
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
