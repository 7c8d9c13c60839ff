//! The discrete-event simulated issue loop.
//!
//! Runs the full LoadGen rulebook against a [`SimSut`] under virtual time:
//! identical scheduling, seeding, recording, and validation logic as a
//! wall-clock run, but a 270,336-query server experiment completes in
//! milliseconds. This is what makes reproducing the paper's evaluation
//! tractable on a laptop (the original submissions ran for hours per result).
//!
//! [`run_simulated`] is the paper-shaped entry, `StartTest(sut, qsl,
//! settings)`; every other simulated run — traced, sampled, replayed,
//! journaled — is spelled with the [`Run`] builder and lands in the one
//! body here, `simulate`.

use crate::config::{TestMode, TestSettings};
use crate::instrument::Instruments;
use crate::journal::{Checkpoint, JournalConfig, JournaledRun, RunJournal};
use crate::multitenant::{query_id, tenant_of};
use crate::qsl::QuerySampleLibrary;
use crate::query::{QueryCompletion, SampleIndex};
use crate::record::{LoggedResponse, QueryRecord};
use crate::results::TestResult;
use crate::run::{finish_run, start, trace_issue, Arrivals, Lane, Run};
use crate::scenario::Scenario;
use crate::schedule::{build_query, ArrivalSource, PoissonCursor, SampleCursor};
use crate::sut::{SimSut, SutReaction};
use crate::time::Nanos;
use crate::LoadGenError;
use mlperf_trace::profile_span;
use mlperf_trace::{MetricsRegistry, MetricsSnapshot, TimeSeriesSampler, TraceEvent, TraceSink};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Hard cap on processed events, guarding against runaway SUTs.
const MAX_EVENTS: u64 = 200_000_000;

/// Everything a run produces: the scored result plus raw logs.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The scored, validity-checked result.
    pub result: TestResult,
    /// Per-query records in issue order.
    pub records: Vec<QueryRecord>,
    /// Logged response payloads (all of them in accuracy mode; a sampled
    /// subset in performance mode when enabled).
    pub accuracy_log: Vec<LoggedResponse>,
    /// Counters and latency histograms gathered while tracing; `None` when
    /// the run used the no-op sink.
    pub metrics: Option<MetricsSnapshot>,
}

#[derive(Debug)]
enum EventKind {
    /// The lane's arrival source is due.
    Arrival(usize),
    Wakeup,
    Completion(QueryCompletion),
}

#[derive(Debug)]
struct Event {
    at: Nanos,
    order: u8,
    seq: u64,
    kind: EventKind,
}

impl Event {
    fn key(&self) -> (Nanos, u8, u64) {
        (self.at, self.order, self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// The simulator: one event heap and one SUT under one or more [`Lane`]s.
/// A single-tenant run is lane 0; the multitenant extension adds a lane
/// per tenant. A query id is (tenant byte, ordinal) and completions route
/// by the byte, so lane 0's ids are the plain ordinals.
pub(crate) struct Sim<'a, 's, S: SimSut + ?Sized> {
    sut: &'s mut S,
    heap: BinaryHeap<Reverse<Event>>,
    pub(crate) lanes: Vec<Lane<'a>>,
    /// Response ids are unique across the SUT, whichever lane issued.
    next_sample_id: u64,
    seq: u64,
    events_processed: u64,
    /// Simulated time of the event being processed.
    pub(crate) now: Nanos,
    sink: &'a dyn TraceSink,
    metrics: Option<&'a MetricsRegistry>,
    sampler: Option<&'a TimeSeriesSampler>,
}

impl<'a, 's, S: SimSut + ?Sized> Sim<'a, 's, S> {
    pub(crate) fn new(
        lanes: Vec<Lane<'a>>,
        sut: &'s mut S,
        instruments: &Instruments<'a>,
        metrics: Option<&'a MetricsRegistry>,
    ) -> Self {
        Self {
            sut,
            heap: BinaryHeap::new(),
            lanes,
            next_sample_id: 0,
            seq: 0,
            events_processed: 0,
            now: Nanos::ZERO,
            sink: instruments.sink,
            metrics,
            sampler: instruments.sampler,
        }
    }

    fn push(&mut self, at: Nanos, order: u8, kind: EventKind) {
        self.seq += 1;
        self.heap.push(Reverse(Event {
            at,
            order,
            seq: self.seq,
            kind,
        }));
    }

    fn schedule_arrival(&mut self, lane: usize, at: Nanos) {
        self.push(at, 0, EventKind::Arrival(lane));
    }

    fn pop(&mut self) -> Result<Option<Event>, LoadGenError> {
        self.events_processed += 1;
        if self.events_processed > MAX_EVENTS {
            return Err(LoadGenError::SutProtocol(format!(
                "event budget of {MAX_EVENTS} exhausted; SUT appears to loop"
            )));
        }
        let event = self.heap.pop().map(|Reverse(e)| e);
        if let Some(event) = event.as_ref() {
            self.now = event.at;
            // Sample *before* the event is processed, so each row reflects
            // the state strictly before its boundary.
            if let (Some(sampler), Some(metrics)) = (self.sampler, self.metrics) {
                sampler.advance_to(event.at.as_nanos(), metrics);
            }
        }
        Ok(event)
    }

    /// Issues query number `ordinal` of `lane` at `at`, exactly on
    /// schedule (simulated issue has no delay); returns its id.
    fn issue(
        &mut self,
        lane: usize,
        ordinal: u64,
        indices: &[SampleIndex],
        at: Nanos,
    ) -> Result<u64, LoadGenError> {
        profile_span!("loadgen/issue");
        let id = query_id(lane, ordinal);
        let mut query = build_query(id, &mut self.next_sample_id, indices, at);
        query.tenant = lane as u32;
        self.lanes[lane].issue(&query, at, self.sink)?;
        let reaction = self.sut.on_query(at, &query);
        if self.sink.enabled() {
            let sent = TraceEvent::QuerySent { query_id: id };
            self.sink.record(at.as_nanos(), &sent);
        }
        self.apply(at, reaction)?;
        Ok(id)
    }

    fn apply(&mut self, now: Nanos, reaction: SutReaction) -> Result<(), LoadGenError> {
        for completion in reaction.completions {
            if completion.finished_at < now {
                return Err(LoadGenError::SutProtocol(format!(
                    "query {} completion stamped {} in the past of {}",
                    completion.query_id, completion.finished_at, now
                )));
            }
            self.push(completion.finished_at, 2, EventKind::Completion(completion));
        }
        if let Some(at) = reaction.wakeup_at {
            if at < now {
                return Err(LoadGenError::SutProtocol(format!(
                    "wakeup requested at {at}, before now {now}"
                )));
            }
            self.push(at, 1, EventKind::Wakeup);
        }
        Ok(())
    }

    fn wakeup(&mut self, now: Nanos) -> Result<(), LoadGenError> {
        profile_span!("loadgen/wakeup");
        let reaction = self.sut.on_wakeup(now);
        self.apply(now, reaction)
    }

    /// Restores a checkpoint into lane 0, then re-sends every query that
    /// was outstanding at it to the (reset) SUT so their completions
    /// re-enter the event heap. The issues already happened before the
    /// crash and are already recorded; only the SUT's side runs again.
    fn restore(&mut self, cp: &Checkpoint) -> Result<(), LoadGenError> {
        self.next_sample_id = cp.next_sample_id;
        for query in self.lanes[0].restore(cp) {
            let now = query.scheduled_at;
            trace_issue(self.sink, &query, now);
            let reaction = self.sut.on_query(now, &query);
            self.apply(now, reaction)?;
        }
        Ok(())
    }

    fn complete(&mut self, completion: &QueryCompletion) -> Result<(), LoadGenError> {
        profile_span!("loadgen/complete");
        let lane = tenant_of(completion.query_id) as usize;
        let lane = self.lanes.get_mut(lane).ok_or_else(|| {
            LoadGenError::SutProtocol(format!("completion routed to unknown tenant {lane}"))
        })?;
        lane.complete(completion, self.sink)
    }

    /// The one arrival-driven loop: every open-loop run — the server
    /// scenario, a replayed schedule, N tenants' Poisson streams — is
    /// `sources[lane]` issued into `lanes[lane]` until all sources end and
    /// the heap is empty. With a journal attached (single lane, the
    /// resumable source), a checkpoint is captured every
    /// `checkpoint_every` issued queries; returns `true` when its armed
    /// halt fired and the run stopped at that boundary.
    pub(crate) fn run_arrivals(
        &mut self,
        sources: &mut [ArrivalSource<'_>],
        mut journal: Option<&mut RunJournal<'_>>,
    ) -> Result<bool, LoadGenError> {
        for (lane, source) in sources.iter().enumerate() {
            if let Some(at) = source.pending() {
                self.schedule_arrival(lane, at);
            }
        }
        while let Some(event) = self.pop()? {
            let lane = match event.kind {
                EventKind::Arrival(lane) => lane,
                EventKind::Wakeup => {
                    self.wakeup(event.at)?;
                    continue;
                }
                EventKind::Completion(c) => {
                    self.complete(&c)?;
                    continue;
                }
            };
            let source = &mut sources[lane];
            let (ordinal, at, indices) = source
                .next(PoissonCursor::advance_simulated)
                .expect("arrival event without pending arrival");
            debug_assert_eq!(at, event.at);
            self.issue(lane, ordinal, &indices, at)?;
            if let Some(next) = source.pending() {
                self.schedule_arrival(lane, next);
            }
            if let (Some(tap), ArrivalSource::Poisson(cursor)) = (journal.as_deref_mut(), &*source)
            {
                if tap.due(ordinal + 1)
                    && tap.capture(cursor.state(), self.next_sample_id, at, &self.lanes[lane])?
                {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    fn run_single_stream(&mut self, mut cursor: SampleCursor<'_>) -> Result<(), LoadGenError> {
        let (ordinal, indices) = cursor.draw();
        self.issue(0, ordinal, &indices, Nanos::ZERO)?;
        while let Some(event) = self.pop()? {
            match event.kind {
                EventKind::Arrival(_) => unreachable!("single-stream issues on completion"),
                EventKind::Wakeup => self.wakeup(event.at)?,
                EventKind::Completion(c) => {
                    self.complete(&c)?;
                    if cursor.more(c.finished_at) {
                        let (ordinal, indices) = cursor.draw();
                        self.issue(0, ordinal, &indices, c.finished_at)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn run_multi_stream(&mut self, mut cursor: SampleCursor<'_>) -> Result<(), LoadGenError> {
        let interval = self.lanes[0].settings.multistream_arrival_interval;
        let (ordinal, indices) = cursor.draw();
        // (query id, issue boundary) of the in-flight query.
        let mut in_flight = Some((self.issue(0, ordinal, &indices, Nanos::ZERO)?, Nanos::ZERO));
        while let Some(event) = self.pop()? {
            let c = match event.kind {
                EventKind::Arrival(_) => {
                    let (ordinal, indices) = cursor.draw();
                    in_flight = Some((self.issue(0, ordinal, &indices, event.at)?, event.at));
                    continue;
                }
                EventKind::Wakeup => {
                    self.wakeup(event.at)?;
                    continue;
                }
                EventKind::Completion(c) => c,
            };
            self.complete(&c)?;
            let Some((id, boundary)) = in_flight.take() else {
                continue;
            };
            if c.query_id != id {
                return Err(LoadGenError::SutProtocol(format!(
                    "multistream completion for query {} while {} in flight",
                    c.query_id, id
                )));
            }
            // Intervals consumed by this query; every one beyond the
            // first was skipped and delays the remaining queries.
            let elapsed = c.finished_at.saturating_sub(boundary).as_nanos();
            let consumed = elapsed.div_ceil(interval.as_nanos()).max(1);
            let skips = (consumed - 1) as u32;
            if skips > 0 {
                self.lanes[0].recorder.record_skips(id, skips);
                if self.sink.enabled() {
                    self.sink.record(
                        c.finished_at.as_nanos(),
                        &TraceEvent::OverloadDropped {
                            query_id: id,
                            intervals: u64::from(skips),
                        },
                    );
                }
                if let Some(m) = self.metrics {
                    m.incr("skipped_intervals", u64::from(skips));
                }
            }
            let next_boundary = boundary + interval.mul(consumed);
            if cursor.more(next_boundary) {
                self.schedule_arrival(0, next_boundary);
            }
        }
        Ok(())
    }

    /// One query, then the completion drain: the offline batch, or in
    /// accuracy mode the entire data set once. A journaled offline run
    /// checkpoints right after the issue; a run resumed from that
    /// checkpoint skips the issue (the query is outstanding and was
    /// re-sent during restore) and goes straight to the drain.
    fn run_batch(
        &mut self,
        cursor: &SampleCursor<'_>,
        indices: &[SampleIndex],
        journal: Option<&mut RunJournal<'_>>,
        resumed: bool,
    ) -> Result<bool, LoadGenError> {
        if !resumed {
            self.issue(0, 0, indices, Nanos::ZERO)?;
            if let Some(tap) = journal {
                if tap.capture(
                    cursor.state(),
                    self.next_sample_id,
                    Nanos::ZERO,
                    &self.lanes[0],
                )? {
                    return Ok(true);
                }
            }
        }
        while let Some(event) = self.pop()? {
            match event.kind {
                EventKind::Arrival(_) => {
                    return Err(LoadGenError::SutProtocol(
                        "arrival event in drain phase".into(),
                    ))
                }
                EventKind::Wakeup => self.wakeup(event.at)?,
                EventKind::Completion(c) => self.complete(&c)?,
            }
        }
        Ok(false)
    }
}

/// Runs one benchmark under simulated time: the paper's `StartTest(sut,
/// qsl, settings)`, and [`Run::simulated`]`(settings).run(qsl, sut)`.
///
/// In performance mode the scenario's arrival rules apply; in accuracy mode
/// the entire data set is processed once and every response payload is
/// logged (Section IV-B).
///
/// # Errors
///
/// Returns [`LoadGenError`] for inconsistent settings, an unusable QSL, or
/// an SUT protocol violation (wrong ids, time travel, missing completions).
pub fn run_simulated<Q, S>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: &mut S,
) -> Result<RunOutcome, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    Run::simulated(settings).run(qsl, sut)
}

// The four names below are what `perfbench/` imports from this module. It
// is frozen for any PR that is not a benchmark PR, so they stay as
// delegations to the builder at their old paths and signatures; nothing
// else in the workspace may call them (ci.sh's engine census checks), and
// the benchmark PR that moves `perfbench` to `Run` deletes them.

#[doc(hidden)]
pub fn run_simulated_traced<Q, S>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: &mut S,
    sink: &dyn TraceSink,
) -> Result<RunOutcome, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    Run::simulated(settings).sink(sink).run(qsl, sut)
}

#[doc(hidden)]
pub fn run_instrumented<Q, S>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: &mut S,
    instruments: &Instruments<'_>,
) -> Result<RunOutcome, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    Run::simulated(settings)
        .instruments(instruments)
        .run(qsl, sut)
}

#[doc(hidden)]
pub fn run_journaled<Q, S>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: &mut S,
    instruments: &Instruments<'_>,
    cfg: &JournalConfig,
) -> Result<JournaledRun, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    let run = Run::simulated(settings).instruments(instruments);
    run.journal(cfg).run(qsl, sut)
}

#[doc(hidden)]
pub fn resume_journaled<Q, S>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: &mut S,
    instruments: &Instruments<'_>,
    cfg: &JournalConfig,
) -> Result<JournaledRun, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    let run = Run::simulated(settings).instruments(instruments);
    run.resume(cfg).run(qsl, sut)
}

/// The one simulated run body: prologue, the issue loop `arrivals` and
/// the settings select, epilogue. Everything but the loop — seeding,
/// recording, validation, scoring — is the same for every run.
///
/// A resumed run's *logical* detail log (ids, schedule, sample counts,
/// error flags) is identical to an uninterrupted run's whenever the SUT's
/// per-query outcome is a function of the query alone; post-crash
/// latencies are re-derived against the reset SUT and may differ for
/// stateful (queueing) SUTs.
pub(crate) fn simulate<Q, S>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: &mut S,
    instruments: &Instruments<'_>,
    arrivals: Arrivals<'_>,
) -> Result<JournaledRun, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    profile_span!("loadgen/run");
    let sink = instruments.sink;
    let (loaded, mut tap, restored) = start(settings, qsl, sink, arrivals)?;
    let population = loaded.len();
    sut.reset();
    let own_registry =
        (instruments.metrics.is_none() && instruments.wants_metrics()).then(MetricsRegistry::new);
    let registry = instruments.metrics.or(own_registry.as_ref());
    let mut sim = Sim::new(
        vec![Lane::new(settings, registry)],
        sut,
        instruments,
        registry,
    );
    if let Some(cp) = &restored {
        sim.restore(cp)?;
    }
    let halted = {
        profile_span!("loadgen/event_loop");
        let mut cursor = SampleCursor::new(settings, population);
        let mut open_loop = |source| sim.run_arrivals(&mut [source], tap.as_mut());
        match (settings.mode, arrivals, settings.scenario) {
            (TestMode::AccuracyOnly, ..) => sim.run_batch(&cursor, &loaded, None, false)?,
            (_, Arrivals::Replay(schedule), _) => open_loop(ArrivalSource::Replay {
                schedule,
                population,
                next: 0,
            })?,
            (_, _, Scenario::SingleStream) => sim.run_single_stream(cursor).map(|()| false)?,
            (_, _, Scenario::MultiStream) => sim.run_multi_stream(cursor).map(|()| false)?,
            (_, _, Scenario::Server) => {
                let poisson = PoissonCursor::start(settings, population, restored.as_ref())?;
                open_loop(ArrivalSource::Poisson(poisson))?
            }
            (_, _, Scenario::Offline) => {
                let (_, indices) = cursor.draw();
                sim.run_batch(&cursor, &indices, tap.as_mut(), restored.is_some())?
            }
        }
    };
    qsl.unload_samples(&loaded);
    let lane = sim.lanes.remove(0);
    if let Some(tap) = tap.as_mut() {
        if halted {
            sink.flush();
            return Ok(tap.halted());
        }
        tap.sync()?;
    }
    let outcome = finish_run(lane, sut.name(), qsl.name(), sink, registry);
    if let (Some(sampler), Some(registry)) = (instruments.sampler, registry) {
        sampler.finish(outcome.result.duration.as_nanos(), registry);
    }
    sink.flush();
    Ok(JournaledRun::Finished(Box::new(outcome)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalConfig;
    use crate::qsl::MemoryQsl;
    use crate::query::Query;
    use crate::results::ScenarioMetric;
    use crate::sut::FixedLatencySut;

    fn small(settings: TestSettings) -> TestSettings {
        settings
            .with_min_duration(Nanos::from_millis(1))
            .with_min_query_count(64)
    }

    #[test]
    fn metrics_histogram_agrees_with_results_percentiles() {
        use mlperf_trace::RingBufferSink;
        // A queueing server run: Poisson arrivals against a serial SUT at
        // ~60% utilization spread completion latencies over a wide range, so
        // the log-bucketed histogram and the exact percentile selection in
        // results.rs are compared on a non-trivial distribution.
        let settings = TestSettings::server(2_000.0, Nanos::from_millis(50))
            .with_min_query_count(2_000)
            .with_min_duration(Nanos::from_millis(1));
        let mut qsl = MemoryQsl::new("q", 64, 64);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(300));
        let sink = RingBufferSink::unbounded();
        let out = Run::simulated(&settings)
            .sink(&sink)
            .run(&mut qsl, &mut sut)
            .unwrap();
        let metrics = out.metrics.expect("traced run snapshots metrics");
        let h = metrics.histogram("query_latency_ns").expect("histogram");
        assert_eq!(h.count(), out.result.query_count);
        let stats = out.result.latency_stats.expect("per-query latencies");
        for (q, exact) in [
            (0.50, stats.p50),
            (0.90, stats.p90),
            (0.97, stats.p97),
            (0.99, stats.p99),
        ] {
            let approx = h.quantile(q);
            let width = h.quantile_resolution(q);
            // Both sides use nearest-rank selection, so the exact percentile
            // falls inside the bucket whose upper bound the histogram
            // reports: within one bucket width.
            assert!(
                approx >= exact.as_nanos() && approx - exact.as_nanos() <= width,
                "q={q}: histogram {approx} vs exact {exact} (bucket width {width})"
            );
        }
    }

    #[test]
    fn single_stream_counts_and_metric() {
        let settings = small(TestSettings::single_stream());
        let mut qsl = MemoryQsl::new("q", 32, 32);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        assert_eq!(out.result.query_count, 64);
        match out.result.metric {
            ScenarioMetric::SingleStream { p90_latency } => {
                assert_eq!(p90_latency, Nanos::from_micros(100));
            }
            ref m => panic!("wrong metric {m:?}"),
        }
        // Sequential: duration = 64 * 100us.
        assert_eq!(out.result.duration, Nanos::from_micros(6_400));
    }

    #[test]
    fn single_stream_runs_until_min_duration() {
        let settings = TestSettings::single_stream()
            .with_min_query_count(1)
            .with_min_duration(Nanos::from_millis(5));
        let mut qsl = MemoryQsl::new("q", 8, 8);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        assert!(out.result.duration >= Nanos::from_millis(5));
        assert_eq!(out.result.query_count, 50);
    }

    #[test]
    fn server_meets_bound_when_fast() {
        let settings =
            small(TestSettings::server(1_000.0, Nanos::from_millis(10))).with_min_query_count(500);
        let mut qsl = MemoryQsl::new("q", 32, 32);
        // Service 50us at 1000 qps: utilization 5%, no queueing to speak of.
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(50));
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        match out.result.metric {
            ScenarioMetric::Server {
                qps,
                overlatency_fraction,
            } => {
                assert_eq!(qps, 1_000.0);
                assert!(overlatency_fraction < 0.01);
            }
            ref m => panic!("wrong metric {m:?}"),
        }
    }

    #[test]
    fn server_overloaded_is_invalid() {
        // Service 2ms at 1000 qps: rho = 2, queue diverges, p99 blows up.
        let settings =
            small(TestSettings::server(1_000.0, Nanos::from_millis(10))).with_min_query_count(500);
        let mut qsl = MemoryQsl::new("q", 32, 32);
        let mut sut = FixedLatencySut::new("s", Nanos::from_millis(2));
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        assert!(!out.result.is_valid());
    }

    #[test]
    fn multistream_no_skips_when_fast() {
        let settings = small(TestSettings::multi_stream(4, Nanos::from_millis(50)));
        let mut qsl = MemoryQsl::new("q", 32, 32);
        // 4 samples * 1ms = 4ms per 50ms interval.
        let mut sut = FixedLatencySut::new("s", Nanos::from_millis(1));
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        match out.result.metric {
            ScenarioMetric::MultiStream {
                streams,
                skip_fraction,
            } => {
                assert_eq!(streams, 4);
                assert_eq!(skip_fraction, 0.0);
            }
            ref m => panic!("wrong metric {m:?}"),
        }
        // Queries pace at exactly one interval.
        assert_eq!(
            out.records[1].scheduled_at,
            Nanos::from_millis(50),
            "second query at the second boundary"
        );
    }

    #[test]
    fn multistream_slow_sut_skips_intervals() {
        let settings = small(TestSettings::multi_stream(4, Nanos::from_millis(50)));
        let mut qsl = MemoryQsl::new("q", 32, 32);
        // 4 * 30ms = 120ms per query: overruns two intervals every time.
        let mut sut = FixedLatencySut::new("s", Nanos::from_millis(30));
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        assert!(!out.result.is_valid());
        assert!(out.records.iter().all(|r| r.skipped_intervals == 2));
        // Next query lands on the delayed boundary: 150ms.
        assert_eq!(out.records[1].scheduled_at, Nanos::from_millis(150));
    }

    #[test]
    fn offline_throughput() {
        let settings = TestSettings::offline()
            .with_min_duration(Nanos::from_millis(1))
            .with_offline_min_sample_count(1_000);
        let mut qsl = MemoryQsl::new("q", 64, 64);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(10));
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        match out.result.metric {
            ScenarioMetric::Offline { samples_per_second } => {
                // 1000 samples * 10us = 10ms -> 100k samples/s.
                assert!((samples_per_second - 100_000.0).abs() < 1.0);
            }
            ref m => panic!("wrong metric {m:?}"),
        }
        assert_eq!(out.result.sample_count, 1_000);
    }

    #[test]
    fn accuracy_mode_covers_dataset_and_logs_everything() {
        let settings = TestSettings::offline().with_mode(TestMode::AccuracyOnly);
        let mut qsl = MemoryQsl::new("q", 200, 16);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(1)).with_class_payloads(7);
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        assert_eq!(out.accuracy_log.len(), 200);
        // Every dataset index present exactly once.
        let mut seen: Vec<usize> = out.accuracy_log.iter().map(|l| l.sample_index).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..200).collect::<Vec<_>>());
        assert!(out.result.is_valid());
        assert!(!out.result.performance_mode);
    }

    #[test]
    fn performance_mode_samples_accuracy_log() {
        let settings = small(TestSettings::single_stream())
            .with_min_query_count(500)
            .with_accuracy_log_probability(0.1);
        let mut qsl = MemoryQsl::new("q", 32, 32);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(10)).with_class_payloads(3);
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        let logged = out.accuracy_log.len();
        assert!((20..120).contains(&logged), "logged={logged}");
    }

    fn journal_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "mlperf_des_journal_{}_{name}.mlpj",
            std::process::id()
        ));
        p
    }

    #[test]
    fn journaled_run_without_halt_matches_plain_run() {
        let settings =
            small(TestSettings::server(2_000.0, Nanos::from_millis(10))).with_min_query_count(60);
        let plain = {
            let mut qsl = MemoryQsl::new("q", 32, 32);
            let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
            run_simulated(&settings, &mut qsl, &mut sut).unwrap()
        };
        let path = journal_path("no_halt");
        let cfg = JournalConfig::new(&path).with_checkpoint_every(8);
        let mut qsl = MemoryQsl::new("q", 32, 32);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
        let out = Run::simulated(&settings)
            .journal(&cfg)
            .run(&mut qsl, &mut sut)
            .unwrap()
            .finished()
            .expect("no halt armed");
        assert_eq!(out.records, plain.records);
        assert_eq!(out.result, plain.result);
        let loaded = crate::journal::load_run_journal(&path).unwrap();
        assert!(
            loaded.checkpoints >= 3,
            "{} checkpoints",
            loaded.checkpoints
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn server_resume_at_every_checkpoint_matches_uninterrupted() {
        let settings =
            small(TestSettings::server(2_000.0, Nanos::from_millis(10))).with_min_query_count(60);
        let baseline = {
            let mut qsl = MemoryQsl::new("q", 32, 32);
            let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
            run_simulated(&settings, &mut qsl, &mut sut).unwrap()
        };
        // Discover how many checkpoints a full run writes.
        let path = journal_path("server_sweep");
        let cfg = JournalConfig::new(&path).with_checkpoint_every(8);
        {
            let mut qsl = MemoryQsl::new("q", 32, 32);
            let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
            Run::simulated(&settings)
                .journal(&cfg)
                .run(&mut qsl, &mut sut)
                .unwrap();
        }
        let total = crate::journal::load_run_journal(&path).unwrap().checkpoints;
        assert!(total >= 3, "need a real sweep, got {total} checkpoints");
        // Kill at every checkpoint boundary, resume, and demand the exact
        // uninterrupted records (the stateless SUT re-derives identical
        // latencies too).
        for kill_at in 0..total {
            let halt_cfg = cfg.clone().with_halt_after(kill_at);
            let mut qsl = MemoryQsl::new("q", 32, 32);
            let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
            match Run::simulated(&settings)
                .journal(&halt_cfg)
                .run(&mut qsl, &mut sut)
                .unwrap()
            {
                JournaledRun::Halted { checkpoint } => assert_eq!(checkpoint, kill_at),
                JournaledRun::Finished(_) => panic!("halt {kill_at} did not fire"),
            }
            let mut qsl = MemoryQsl::new("q", 32, 32);
            let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
            let out = Run::simulated(&settings)
                .resume(&cfg)
                .run(&mut qsl, &mut sut)
                .unwrap()
                .finished()
                .expect("resume runs to completion");
            assert_eq!(
                out.records, baseline.records,
                "kill at checkpoint {kill_at}"
            );
            assert_eq!(out.result, baseline.result, "kill at checkpoint {kill_at}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn server_resume_survives_torn_checkpoint() {
        let settings =
            small(TestSettings::server(2_000.0, Nanos::from_millis(10))).with_min_query_count(60);
        let baseline = {
            let mut qsl = MemoryQsl::new("q", 32, 32);
            let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
            run_simulated(&settings, &mut qsl, &mut sut).unwrap()
        };
        let path = journal_path("torn");
        let cfg = JournalConfig::new(&path).with_checkpoint_every(8);
        // Kill *during* the write of checkpoint 2: the frame tears, resume
        // must roll back to checkpoint 1 and still converge.
        let halt_cfg = cfg.clone().with_halt_after(2).with_torn_halt();
        let mut qsl = MemoryQsl::new("q", 32, 32);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
        Run::simulated(&settings)
            .journal(&halt_cfg)
            .run(&mut qsl, &mut sut)
            .unwrap();
        let loaded = crate::journal::load_run_journal(&path).unwrap();
        assert!(loaded.torn.is_some(), "torn halt must leave a torn tail");
        assert_eq!(loaded.checkpoints, 2);
        let mut qsl = MemoryQsl::new("q", 32, 32);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
        let out = Run::simulated(&settings)
            .resume(&cfg)
            .run(&mut qsl, &mut sut)
            .unwrap()
            .finished()
            .expect("resume after tear");
        assert_eq!(out.records, baseline.records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn offline_resume_after_checkpoint_matches() {
        let settings = TestSettings::offline()
            .with_min_duration(Nanos::from_millis(1))
            .with_offline_min_sample_count(500);
        let baseline = {
            let mut qsl = MemoryQsl::new("q", 64, 64);
            let mut sut = FixedLatencySut::new("s", Nanos::from_micros(10));
            run_simulated(&settings, &mut qsl, &mut sut).unwrap()
        };
        let path = journal_path("offline");
        let cfg = JournalConfig::new(&path);
        let halt_cfg = cfg.clone().with_halt_after(0);
        let mut qsl = MemoryQsl::new("q", 64, 64);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(10));
        match Run::simulated(&settings)
            .journal(&halt_cfg)
            .run(&mut qsl, &mut sut)
            .unwrap()
        {
            JournaledRun::Halted { checkpoint } => assert_eq!(checkpoint, 0),
            JournaledRun::Finished(_) => panic!("halt did not fire"),
        }
        let mut qsl = MemoryQsl::new("q", 64, 64);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(10));
        let out = Run::simulated(&settings)
            .resume(&cfg)
            .run(&mut qsl, &mut sut)
            .unwrap()
            .finished()
            .expect("offline resume");
        assert_eq!(out.records, baseline.records);
        assert_eq!(out.result, baseline.result);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_a_foreign_journal() {
        let settings =
            small(TestSettings::server(2_000.0, Nanos::from_millis(10))).with_min_query_count(40);
        let path = journal_path("foreign");
        let cfg = JournalConfig::new(&path).with_checkpoint_every(8);
        let mut qsl = MemoryQsl::new("q", 32, 32);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
        Run::simulated(&settings)
            .journal(&cfg)
            .run(&mut qsl, &mut sut)
            .unwrap();
        // Same journal, different run parameters: digest mismatch.
        let other = settings.clone().with_min_query_count(41);
        let err = Run::simulated(&other)
            .resume(&cfg)
            .run(&mut qsl, &mut sut)
            .unwrap_err();
        assert!(matches!(err, LoadGenError::Journal(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journaled_rejects_completion_driven_scenarios() {
        let settings = small(TestSettings::single_stream());
        let path = journal_path("reject");
        let cfg = JournalConfig::new(&path);
        let mut qsl = MemoryQsl::new("q", 8, 8);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(10));
        let err = Run::simulated(&settings)
            .journal(&cfg)
            .run(&mut qsl, &mut sut)
            .unwrap_err();
        assert!(matches!(err, LoadGenError::BadSettings(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deterministic_given_seeds() {
        let settings =
            small(TestSettings::server(500.0, Nanos::from_millis(10))).with_min_query_count(200);
        let run = || {
            let mut qsl = MemoryQsl::new("q", 32, 32);
            let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
            run_simulated(&settings, &mut qsl, &mut sut).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.result, b.result);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn rejects_empty_qsl_settings() {
        let settings = TestSettings::server(0.0, Nanos::from_millis(1));
        let mut qsl = MemoryQsl::new("q", 8, 8);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(1));
        assert!(matches!(
            run_simulated(&settings, &mut qsl, &mut sut),
            Err(LoadGenError::BadSettings(_))
        ));
    }

    #[test]
    fn time_traveling_sut_rejected() {
        struct TimeTraveler;
        impl SimSut for TimeTraveler {
            fn name(&self) -> &str {
                "tt"
            }
            fn on_query(&mut self, now: Nanos, query: &Query) -> SutReaction {
                SutReaction::complete(QueryCompletion::ok(
                    query.id,
                    now.saturating_sub(Nanos::from_micros(1)),
                    vec![],
                ))
            }
        }
        let settings = TestSettings::single_stream()
            .with_min_query_count(1)
            .with_min_duration(Nanos::ZERO);
        let mut qsl = MemoryQsl::new("q", 8, 8);
        // scheduled_at 0, so finished_at saturates to 0 == now: use an issue
        // at a later time by running a couple of queries.
        let mut sut = TimeTraveler;
        // First query at t=0 finishes at t=0 with empty samples: that is a
        // sample-count protocol violation.
        let err = run_simulated(&settings, &mut qsl, &mut sut).unwrap_err();
        assert!(matches!(err, LoadGenError::SutProtocol(_)));
    }
}
