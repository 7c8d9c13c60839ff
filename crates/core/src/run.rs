//! One entry to the run engine.
//!
//! A run is a point on three axes: the **clock** (simulated | wall), the
//! **arrival source** (the scenario's own rule | a recorded schedule) and
//! the **taps** (instruments, run journal). [`Run`] names that point: pick
//! the clock first, add what the run needs, call `run`. A method exists
//! only where the engine honours it, so a combination that cannot work
//! does not compile; the few rules that depend on the *values* in the
//! settings are all made by one function (`check`) and stay
//! [`LoadGenError::BadSettings`].
//!
//! ```
//! use mlperf_loadgen::{qsl::MemoryQsl, sut::FixedLatencySut, Nanos, Run, TestSettings};
//! let settings = TestSettings::single_stream()
//!     .with_min_query_count(64)
//!     .with_min_duration(Nanos::from_millis(1));
//! let mut qsl = MemoryQsl::new("toy", 64, 64);
//! let mut sut = FixedLatencySut::new("null-sut", Nanos::from_micros(50));
//! let sink = mlperf_trace::RingBufferSink::unbounded();
//! let outcome = Run::simulated(&settings).sink(&sink).run(&mut qsl, &mut sut)?;
//! assert!(outcome.result.is_valid() && outcome.metrics.is_some());
//! # Ok::<(), mlperf_loadgen::LoadGenError>(())
//! ```
//!
//! A replayed schedule has no resumable cursor, so it cannot be journaled:
//!
//! ```compile_fail
//! # use mlperf_loadgen::{JournalConfig, ReplaySchedule, Run, TestSettings};
//! # fn f(s: &TestSettings, recorded: &ReplaySchedule, cfg: &JournalConfig) {
//! Run::simulated(s).replay(recorded).journal(cfg);
//! # }
//! ```
//!
//! Simulated time starts at zero; only a wall clock has an origin to share:
//!
//! ```compile_fail
//! # use mlperf_loadgen::{Run, TestSettings};
//! # fn f(s: &TestSettings) {
//! Run::simulated(s).origin(std::time::Instant::now());
//! # }
//! ```
//!
//! The sampler and a shared registry ride simulated time; a wall-clock run
//! takes a sink and nothing else:
//!
//! ```compile_fail
//! # use mlperf_loadgen::{Instruments, Run, TestSettings};
//! # fn f(s: &TestSettings, sampler: &mlperf_trace::TimeSeriesSampler) {
//! Run::wall_clock(s).instruments(&Instruments::none().with_sampler(sampler));
//! # }
//! ```

use crate::config::{TestMode, TestSettings};
use crate::des::{self, RunOutcome};
use crate::instrument::Instruments;
use crate::journal::{Checkpoint, JournalConfig, JournaledRun, RunJournal};
use crate::qsl::QuerySampleLibrary;
use crate::query::{Query, QueryCompletion};
use crate::realtime;
use crate::record::{QueryRecord, Recorder};
use crate::replay::ReplaySchedule;
use crate::results::{LatencyStats, ScenarioMetric, TestResult};
use crate::scenario::Scenario;
use crate::sut::{RealtimeSut, SimSut};
use crate::time::Nanos;
use crate::validate::{check_run, overlatency_fraction, percentile_latency};
use crate::LoadGenError;
use mlperf_stats::Rng64;
use mlperf_trace::{profile_span, Counter, Histogram, MetricsRegistry, TraceEvent, TraceSink};
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

/// Where a run's queries come from, and whether it checkpoints: the
/// arrival-source and journal axes as one value, so "replayed *and*
/// journaled" has no representation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Arrivals<'a> {
    /// The scenario's own rule, seeded from the settings.
    Scenario,
    /// A recorded schedule, re-issued open loop.
    Replay(&'a ReplaySchedule),
    /// The scenario's own rule under a crash-safe run journal; `resume`
    /// continues from the journal's last complete checkpoint.
    Journal {
        cfg: &'a JournalConfig,
        resume: bool,
    },
}

mod sealed {
    /// What seals [`Plan`](super::Plan): the outcome a builder state has
    /// and how the engine's return narrows to it. Not nameable outside the
    /// crate, so nothing else implements `Plan` or calls `narrow`.
    pub trait Narrow {
        type Outcome;
        fn narrow(run: crate::journal::JournaledRun) -> Self::Outcome;
    }
}

/// The builder's arrival-source state, which decides what `run` returns
/// (`P::Outcome`): [`RunOutcome`] for [`FromScenario`] and [`Replayed`],
/// [`JournaledRun`] for [`Journaled`], where an armed halt may end the run
/// early. Sealed: those three states are all there are.
pub trait Plan: sealed::Narrow {}
impl<P: sealed::Narrow> Plan for P {}

/// [`Plan`]: the scenario's own arrival rule (the builder's initial state).
#[derive(Debug, Clone, Copy)]
pub struct FromScenario;
/// [`Plan`]: a recorded schedule ([`Run::replay`]).
#[derive(Debug, Clone, Copy)]
pub struct Replayed;
/// [`Plan`]: the scenario's rule under a run journal ([`Run::journal`],
/// [`Run::resume`]).
#[derive(Debug, Clone, Copy)]
pub struct Journaled;

impl sealed::Narrow for FromScenario {
    type Outcome = RunOutcome;
    fn narrow(run: JournaledRun) -> RunOutcome {
        run.finished().expect("only an armed halt ends a run early")
    }
}

impl sealed::Narrow for Replayed {
    type Outcome = RunOutcome;
    fn narrow(run: JournaledRun) -> RunOutcome {
        FromScenario::narrow(run)
    }
}

impl sealed::Narrow for Journaled {
    type Outcome = JournaledRun;
    fn narrow(run: JournaledRun) -> JournaledRun {
        run
    }
}

/// Clock marker: discrete-event simulated time against a [`SimSut`].
#[derive(Debug, Clone, Copy)]
pub struct Simulated;
/// Clock marker: real sleeps and threads against a [`RealtimeSut`].
#[derive(Debug, Clone, Copy)]
pub struct WallClock(Option<Instant>);

/// One benchmark run, described before it starts. See the [module
/// docs](self) for the shape and for what does not compile.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a, C, P = FromScenario> {
    settings: &'a TestSettings,
    instruments: Instruments<'a>,
    clock: C,
    arrivals: Arrivals<'a>,
    plan: PhantomData<P>,
}

impl<'a> Run<'a, Simulated> {
    /// A run under simulated time: what `run` takes is a [`SimSut`].
    pub fn simulated(settings: &'a TestSettings) -> Self {
        Self::new(settings, Simulated)
    }
}

impl<'a> Run<'a, WallClock> {
    /// A run against the wall clock: what `run` takes is a shared
    /// [`RealtimeSut`].
    pub fn wall_clock(settings: &'a TestSettings) -> Self {
        Self::new(settings, WallClock(None))
    }
}

impl<'a, C, P> Run<'a, C, P> {
    /// Sends every lifecycle event of the run to `sink` (the detail log).
    /// On the simulated clock an enabled sink also brings a run-private
    /// [`MetricsRegistry`] whose snapshot lands in [`RunOutcome::metrics`].
    /// The sink is a field of the [`Instruments`] bundle: the later of
    /// `sink` and [`instruments`](Run::instruments) decides it.
    #[must_use]
    pub fn sink(mut self, sink: &'a dyn TraceSink) -> Self {
        self.instruments.sink = sink;
        self
    }
}

impl<'a, P> Run<'a, Simulated, P> {
    /// Attaches the whole observability bundle: sink, simulated-time
    /// sampler, caller-owned registry shared with device engines. It
    /// replaces all three, so an earlier [`sink`](Run::sink) is dropped for
    /// the bundle's own; call `sink` after this to override just that.
    #[must_use]
    pub fn instruments(mut self, instruments: &Instruments<'a>) -> Self {
        self.instruments = *instruments;
        self
    }
}

impl<P> Run<'_, WallClock, P> {
    /// Measures every timestamp from `origin` instead of "now": pass the
    /// instant another instrumented component (a wire client) started its
    /// clock at and both event streams share one time axis. A resumed
    /// journaled run shifts it back by the checkpointed run clock.
    #[must_use]
    pub fn origin(mut self, origin: Instant) -> Self {
        self.clock = WallClock(Some(origin));
        self
    }
}

impl<'a, C> Run<'a, C> {
    fn new(settings: &'a TestSettings, clock: C) -> Self {
        Run {
            settings,
            instruments: Instruments::none(),
            clock,
            arrivals: Arrivals::Scenario,
            plan: PhantomData,
        }
    }

    fn plan<P>(self, arrivals: Arrivals<'a>) -> Run<'a, C, P> {
        Run {
            settings: self.settings,
            instruments: self.instruments,
            clock: self.clock,
            arrivals,
            plan: PhantomData,
        }
    }

    /// Re-issues a recorded schedule instead of the scenario's rule: open
    /// loop for every scenario, recording, validity rules and scoring
    /// unchanged ([`crate::replay`]).
    pub fn replay(self, schedule: &'a ReplaySchedule) -> Run<'a, C, Replayed> {
        self.plan(Arrivals::Replay(schedule))
    }

    /// Starts a crash-safe run: a [`Checkpoint`] lands in the journal at
    /// `cfg.path` every `cfg.checkpoint_every` issued queries
    /// ([`crate::journal`]). Server (both clocks) and offline (simulated)
    /// in performance mode.
    pub fn journal(self, cfg: &'a JournalConfig) -> Run<'a, C, Journaled> {
        self.plan(Arrivals::Journal { cfg, resume: false })
    }

    /// Continues the run journaled at `cfg.path` from its last complete
    /// checkpoint — cursor, RNG streams and recorder restored, queries
    /// outstanding at the checkpoint re-sent, further checkpoints appended
    /// to the same journal. [`LoadGenError::Journal`] when the journal is
    /// unreadable or was written by a run with other settings.
    pub fn resume(self, cfg: &'a JournalConfig) -> Run<'a, C, Journaled> {
        self.plan(Arrivals::Journal { cfg, resume: true })
    }
}

impl<P: Plan> Run<'_, Simulated, P> {
    /// Runs the benchmark under simulated time.
    ///
    /// In performance mode the scenario's arrival rules (or the replayed
    /// schedule) apply; in accuracy mode the entire data set is processed
    /// once and every response payload is logged (Section IV-B).
    ///
    /// # Errors
    ///
    /// [`LoadGenError`] for inconsistent settings or a combination `check`
    /// refuses, an unusable QSL, a journal that cannot be written or
    /// matched, or an SUT protocol violation (wrong ids, time travel).
    pub fn run<Q, S>(self, qsl: &mut Q, sut: &mut S) -> Result<P::Outcome, LoadGenError>
    where
        Q: QuerySampleLibrary + ?Sized,
        S: SimSut + ?Sized,
    {
        let offline_checkpoints = true;
        check(self.settings, &self.arrivals, offline_checkpoints)?;
        des::simulate(self.settings, qsl, sut, &self.instruments, self.arrivals).map(P::narrow)
    }
}

impl<P: Plan> Run<'_, WallClock, P> {
    /// Runs the benchmark against the wall clock: real sleeps between
    /// arrivals, a worker pool for open-loop queries.
    ///
    /// # Errors
    ///
    /// Same contract as the simulated [`run`](Run::run); a failing
    /// transport is not an error but an INVALID verdict
    /// ([`crate::realtime`]).
    pub fn run<Q>(self, qsl: &mut Q, sut: Arc<dyn RealtimeSut>) -> Result<P::Outcome, LoadGenError>
    where
        Q: QuerySampleLibrary + ?Sized,
    {
        let offline_checkpoints = false;
        check(self.settings, &self.arrivals, offline_checkpoints)?;
        let (sink, origin) = (self.instruments.sink, self.clock.0);
        realtime::run_wall(self.settings, qsl, sut, sink, origin, self.arrivals).map(P::narrow)
    }
}

/// The rules about combinations that depend on values in the settings,
/// which no builder type can carry — all of them, for both clocks. The
/// one thing the clocks differ in here is `offline_checkpoints`: simulated
/// time can stop inside the offline batch; the wall clock issues it as one
/// blocking call, which leaves nothing to checkpoint.
pub(crate) fn check(
    settings: &TestSettings,
    arrivals: &Arrivals<'_>,
    offline_checkpoints: bool,
) -> Result<(), LoadGenError> {
    let performance = settings.mode == TestMode::PerformanceOnly;
    let scenario = settings.scenario;
    let refusal = match arrivals {
        Arrivals::Scenario => None,
        Arrivals::Replay(schedule) => {
            schedule.validate()?;
            if !performance {
                Some("replay only runs in performance mode".into())
            } else if scenario != schedule.scenario {
                let recorded = schedule.scenario;
                Some(format!(
                    "settings scenario {scenario} but schedule was recorded under {recorded}"
                ))
            } else {
                None
            }
        }
        // The closed-loop scenarios have no issue boundary independent of
        // the SUT to checkpoint at.
        Arrivals::Journal { .. } if !offline_checkpoints => {
            (!performance || scenario != Scenario::Server).then(|| {
                "journaled realtime runs support the server scenario in performance mode".into()
            })
        }
        Arrivals::Journal { .. } if !performance => {
            Some("journaled runs are performance-mode only".into())
        }
        Arrivals::Journal { .. } => (!matches!(scenario, Scenario::Server | Scenario::Offline))
            .then(|| {
                format!("journaled runs support the server and offline scenarios, not {scenario}")
            }),
    };
    refusal.map_or(Ok(()), |why| Err(LoadGenError::BadSettings(why)))
}

/// What every run does before its first query: validate the settings,
/// refuse an empty QSL, and load the samples the mode needs — untimed
/// (Figure 3, steps 1-4). Returns the loaded indices.
pub(crate) fn prologue<Q>(settings: &TestSettings, qsl: &mut Q) -> Result<Vec<usize>, LoadGenError>
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
    profile_span!("loadgen/load_samples");
    qsl.load_samples(&loaded);
    Ok(loaded)
}

/// What a single-tenant run adds to the [`prologue`]: its journal, when
/// the plan has one — with the checkpoint a resumed run continues from —
/// and the `issue` / `resume` mark that opens the detail log.
#[allow(clippy::type_complexity)]
pub(crate) fn start<'a, Q>(
    settings: &TestSettings,
    qsl: &mut Q,
    sink: &dyn TraceSink,
    arrivals: Arrivals<'a>,
) -> Result<(Vec<usize>, Option<RunJournal<'a>>, Option<Checkpoint>), LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
{
    let loaded = prologue(settings, qsl)?;
    let (journal, restored) = match arrivals {
        Arrivals::Journal { cfg, resume } => {
            let (journal, restored) = RunJournal::attach(cfg, settings, loaded.len(), resume)?;
            (Some(journal), restored)
        }
        _ => (None, None),
    };
    let first = if restored.is_some() {
        "resume"
    } else {
        "issue"
    };
    phase(sink, Nanos::ZERO, first, settings);
    Ok((loaded, journal, restored))
}

/// Marks a run phase (`issue`, `resume`, `drain`, `report`) in the detail log.
pub(crate) fn phase(sink: &dyn TraceSink, at: Nanos, phase: &str, settings: &TestSettings) {
    if sink.enabled() {
        let scenario = settings.scenario.to_string();
        let phase = phase.into();
        sink.record(at.as_nanos(), &TraceEvent::RunPhase { phase, scenario });
    }
}

/// The metrics an issue or a completion updates, resolved from the run's
/// registry once, so a query pays for no name lookup.
struct QueryMetrics {
    queries_issued: Counter,
    samples_issued: Counter,
    queries_errored: Counter,
    queries_completed: Counter,
    samples_completed: Counter,
    query_latency_ns: Histogram,
}

impl QueryMetrics {
    fn resolve(registry: &MetricsRegistry) -> Self {
        Self {
            queries_issued: registry.counter("queries_issued"),
            samples_issued: registry.counter("samples_issued"),
            queries_errored: registry.counter("queries_errored"),
            queries_completed: registry.counter("queries_completed"),
            samples_completed: registry.counter("samples_completed"),
            query_latency_ns: registry.histogram("query_latency_ns"),
        }
    }
}

/// One query stream's bookkeeping, shared by both clocks: its settings,
/// its recorder and its accuracy-log sampler, plus the detail-log events
/// and metrics an issue or a completion produces. A single-tenant run has
/// one; a multitenant run has one per tenant.
pub(crate) struct Lane<'a> {
    pub(crate) settings: &'a TestSettings,
    pub(crate) recorder: Recorder,
    pub(crate) acc_rng: Rng64,
    /// The share of response payloads that land in the accuracy log: all
    /// of them in accuracy mode, a seeded sample in performance mode.
    log_probability: f64,
    metrics: Option<QueryMetrics>,
}

impl<'a> Lane<'a> {
    pub(crate) fn new(settings: &'a TestSettings, metrics: Option<&MetricsRegistry>) -> Self {
        Self {
            settings,
            recorder: Recorder::new(),
            acc_rng: Rng64::new(settings.seeds.accuracy_seed),
            log_probability: match settings.mode {
                TestMode::AccuracyOnly => 1.0,
                TestMode::PerformanceOnly => settings.accuracy_log_probability,
            },
            metrics: metrics.map(QueryMetrics::resolve),
        }
    }

    /// Records `query` as issued at `issued_at`. (`#[inline]`, like the
    /// other per-query helpers here and in `schedule`: the simulator that
    /// calls them is generic over the SUT, so it is instantiated in the
    /// caller's crate, where a plain function would be an out-of-line call.)
    #[inline]
    pub(crate) fn issue(
        &mut self,
        query: &Query,
        issued_at: Nanos,
        sink: &dyn TraceSink,
    ) -> Result<(), LoadGenError> {
        self.recorder.record_issue(query, issued_at)?;
        trace_issue(sink, query, issued_at);
        if let Some(m) = &self.metrics {
            m.queries_issued.incr(1);
            m.samples_issued.incr(query.sample_count() as u64);
        }
        Ok(())
    }

    /// Records a completion, sampling its payloads into the accuracy log
    /// (all of them in accuracy mode).
    #[inline]
    pub(crate) fn complete(
        &mut self,
        completion: &QueryCompletion,
        sink: &dyn TraceSink,
    ) -> Result<(), LoadGenError> {
        let (p, rng) = (self.log_probability, &mut self.acc_rng);
        let logged_before = self.recorder.accuracy_log().len();
        let latency = self
            .recorder
            .record_completion(completion, |_| p > 0.0 && rng.next_bool(p))?;
        if sink.enabled() {
            let (query_id, latency_ns) = (completion.query_id, latency.as_nanos());
            let at = completion.finished_at.as_nanos();
            let event = if completion.error {
                TraceEvent::QueryErrored {
                    query_id,
                    latency_ns,
                }
            } else {
                TraceEvent::QueryCompleted {
                    query_id,
                    latency_ns,
                }
            };
            sink.record(at, &event);
            let samples = self.recorder.accuracy_log().len() - logged_before;
            if samples > 0 {
                sink.record(at, &TraceEvent::AccuracyLogged { query_id, samples });
            }
        }
        if let Some(m) = &self.metrics {
            if completion.error {
                // Errored latencies stay out of the latency histogram: it
                // summarizes service behaviour, not failure timing.
                m.queries_errored.incr(1);
            } else {
                m.queries_completed.incr(1);
                m.samples_completed.incr(completion.samples.len() as u64);
                m.query_latency_ns.observe(latency.as_nanos());
            }
        }
        Ok(())
    }

    /// Restores the checkpointed recorder and accuracy RNG; returns the
    /// queries that were outstanding at the checkpoint (id order), which
    /// the resumed run re-sends to the SUT without re-recording them.
    pub(crate) fn restore(&mut self, cp: &Checkpoint) -> Vec<Query> {
        self.acc_rng = Rng64::from_state(cp.acc_rng);
        self.recorder = Recorder::restore(cp.recorder.clone());
        cp.recorder.outstanding_queries()
    }
}

/// Stamps a `QueryIssued` event. Also used alone when a resumed run
/// re-sends an outstanding query: the resumed process's detail log starts
/// empty, so every completion it will carry needs a matching issue ahead
/// of it for the TEST06 completeness audit.
#[inline]
pub(crate) fn trace_issue(sink: &dyn TraceSink, query: &Query, issued_at: Nanos) {
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

/// What every run does after its last completion: scores the lane —
/// metric, latency stats, validity checks — and reports to the sink.
pub(crate) fn finish_run(
    lane: Lane<'_>,
    sut_name: &str,
    qsl_name: &str,
    sink: &dyn TraceSink,
    metrics: Option<&MetricsRegistry>,
) -> RunOutcome {
    profile_span!("loadgen/score");
    let Lane {
        settings, recorder, ..
    } = lane;
    let outstanding = recorder.outstanding() as u64;
    let duration = recorder.last_completion();
    let (records, accuracy_log) = recorder.into_parts();
    let validity = match settings.mode {
        TestMode::PerformanceOnly => check_run(settings, &records, duration, outstanding),
        TestMode::AccuracyOnly => Vec::new(),
    };
    phase(sink, duration, "report", settings);
    if sink.enabled() {
        for issue in &validity {
            sink.record(
                duration.as_nanos(),
                &TraceEvent::ValidityCheckFailed {
                    issue: issue.to_string(),
                },
            );
        }
    }
    let samples_completed: u64 = records
        .iter()
        .filter(|r| r.completed_at.is_some() && !r.error)
        .map(|r| r.sample_count as u64)
        .sum();
    let error_count = records.iter().filter(|r| r.error).count() as u64;
    let metric = compute_metric(settings, &records, duration, samples_completed);
    let latencies: Vec<Nanos> = records.iter().filter_map(QueryRecord::latency).collect();
    let result = TestResult {
        sut_name: sut_name.to_string(),
        qsl_name: qsl_name.to_string(),
        scenario: settings.scenario,
        performance_mode: matches!(settings.mode, TestMode::PerformanceOnly),
        metric,
        latency_stats: LatencyStats::from_latencies(&latencies),
        query_count: records.len() as u64,
        error_count,
        sample_count: samples_completed,
        duration,
        validity,
    };
    let metrics = metrics.map(|m| {
        m.incr("validity_issues", result.validity.len() as u64);
        m.set_gauge("metric_score", result.metric.score());
        m.set_gauge("duration_secs", duration.as_secs_f64());
        m.snapshot()
    });
    RunOutcome {
        result,
        records,
        accuracy_log,
        metrics,
    }
}

fn compute_metric(
    settings: &TestSettings,
    records: &[QueryRecord],
    duration: Nanos,
    samples_completed: u64,
) -> ScenarioMetric {
    match settings.scenario {
        Scenario::SingleStream => ScenarioMetric::SingleStream {
            p90_latency: percentile_latency(records, 0.90).unwrap_or(Nanos::MAX),
        },
        Scenario::MultiStream => {
            let skippers = records.iter().filter(|r| r.skipped_intervals > 0).count();
            ScenarioMetric::MultiStream {
                streams: settings.samples_per_query,
                skip_fraction: if records.is_empty() {
                    0.0
                } else {
                    skippers as f64 / records.len() as f64
                },
            }
        }
        Scenario::Server => ScenarioMetric::Server {
            qps: settings.server_target_qps,
            overlatency_fraction: overlatency_fraction(records, settings.target_latency),
        },
        Scenario::Offline => ScenarioMetric::Offline {
            samples_per_second: if duration == Nanos::ZERO {
                0.0
            } else {
                samples_completed as f64 / duration.as_secs_f64()
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qsl::MemoryQsl;
    use crate::sut::{FixedLatencySut, SleepSut};

    /// Every rule `check` makes, for both clocks: the refused cells carry
    /// the message their old driver gave, the neighbouring cells pass.
    #[test]
    fn each_value_level_rule_is_refused_with_its_message_on_both_clocks() {
        // `check`'s `offline_checkpoints`, by the clock that passes it.
        const SIMULATED: bool = true;
        const WALL: bool = false;
        let cfg = JournalConfig::new("never-opened.mlpj");
        let journal = Arrivals::Journal {
            cfg: &cfg,
            resume: false,
        };
        let recorded = ReplaySchedule {
            scenario: Scenario::Server,
            arrivals: vec![Nanos::ZERO],
            indices: vec![vec![0]],
        };
        let replay = Arrivals::Replay(&recorded);
        let server = TestSettings::server(100.0, Nanos::from_millis(10));
        let accuracy = server.clone().with_mode(TestMode::AccuracyOnly);
        let (single, offline) = (TestSettings::single_stream(), TestSettings::offline());
        let multi = TestSettings::multi_stream(2, Nanos::from_millis(50));
        let closed = "journaled runs support the server and offline scenarios, not ";
        let wall = "journaled realtime runs support the server scenario in performance mode";
        let table: &[(bool, &TestSettings, Arrivals<'_>, Option<String>)] = &[
            (SIMULATED, &server, journal, None),
            (SIMULATED, &offline, journal, None),
            (
                SIMULATED,
                &single,
                journal,
                Some(format!("{closed}single-stream")),
            ),
            (
                SIMULATED,
                &multi,
                journal,
                Some(format!("{closed}multistream")),
            ),
            (
                SIMULATED,
                &accuracy,
                journal,
                Some("journaled runs are performance-mode only".into()),
            ),
            (WALL, &server, journal, None),
            (WALL, &offline, journal, Some(wall.into())),
            (WALL, &single, journal, Some(wall.into())),
            (WALL, &multi, journal, Some(wall.into())),
            (WALL, &accuracy, journal, Some(wall.into())),
            (SIMULATED, &server, replay, None),
            (WALL, &server, replay, None),
            (
                SIMULATED,
                &accuracy,
                replay,
                Some("replay only runs in performance mode".into()),
            ),
            (
                WALL,
                &accuracy,
                replay,
                Some("replay only runs in performance mode".into()),
            ),
            (
                SIMULATED,
                &offline,
                replay,
                Some("settings scenario offline but schedule was recorded under server".into()),
            ),
            (
                WALL,
                &single,
                replay,
                Some(
                    "settings scenario single-stream but schedule was recorded under server".into(),
                ),
            ),
            (SIMULATED, &accuracy, Arrivals::Scenario, None),
            (WALL, &multi, Arrivals::Scenario, None),
        ];
        for (clock, settings, arrivals, want) in table {
            let got = check(settings, arrivals, *clock);
            let want = want
                .clone()
                .map_or(Ok(()), |why| Err(LoadGenError::BadSettings(why)));
            let clock = if *clock { "simulated" } else { "wall" };
            assert_eq!(got, want, "{clock} {} {arrivals:?}", settings.scenario);
        }
    }

    /// The terminals reach `check` before they touch the QSL, the SUT or
    /// the journal path: a refused combination leaves no file behind.
    #[test]
    fn the_builder_refuses_before_it_opens_anything() {
        let path = std::env::temp_dir().join(format!("mlpj-refused-{}.mlpj", std::process::id()));
        let cfg = JournalConfig::new(&path);
        let settings = TestSettings::single_stream().with_min_query_count(4);
        let mut qsl = MemoryQsl::new("q", 8, 8);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(10));
        let simulated = Run::simulated(&settings).journal(&cfg);
        let err = simulated.run(&mut qsl, &mut sut).unwrap_err();
        assert!(matches!(err, LoadGenError::BadSettings(_)), "{err}");
        let sleepy = Arc::new(SleepSut::new("s", std::time::Duration::ZERO));
        let err = Run::wall_clock(&settings)
            .resume(&cfg)
            .run(&mut qsl, sleepy);
        assert!(matches!(err, Err(LoadGenError::BadSettings(_))), "{err:?}");
        assert!(!path.exists());
        // A run that errors after its prologue leaves its samples loaded.
        assert_eq!(qsl.loaded(), 0, "refused before the QSL was touched");
    }
}
