//! FindPeakPerformance searches.
//!
//! The server metric is "the Poisson parameter that indicates the
//! queries-per-second achievable while meeting the QoS requirement" and the
//! multistream metric is "the integer number of streams that the system
//! supports while meeting the QoS requirement" (Section III-C). Submitters
//! find those maxima by rerunning the LoadGen at different target loads;
//! this module automates the search against simulated SUTs.

use crate::config::TestSettings;
use crate::des::{run_simulated, RunOutcome};
use crate::instrument::Instruments;
use crate::qsl::QuerySampleLibrary;
use crate::scenario::Scenario;
use crate::sut::SimSut;
use crate::LoadGenError;
use mlperf_trace::{profile_span, TraceEvent, TraceSink};

/// Search controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakSearchOptions {
    /// Relative QPS tolerance at which the server bisection stops.
    pub relative_tolerance: f64,
    /// Safety cap on benchmark reruns.
    pub max_runs: u32,
}

impl Default for PeakSearchOptions {
    fn default() -> Self {
        Self {
            relative_tolerance: 0.01,
            max_runs: 64,
        }
    }
}

/// Outcome of a peak search.
#[derive(Debug, Clone)]
pub struct PeakResult {
    /// The highest load that produced a VALID run.
    pub peak: f64,
    /// The outcome of that valid run.
    pub outcome: RunOutcome,
    /// How many LoadGen runs the search consumed.
    pub runs: u32,
}

/// How a peak search ended.
///
/// A search that never finds a valid operating point is not a caller error:
/// a SUT can be genuinely hopeless for the workload, or it can *die* partway
/// through the search (fault injection, a real device falling off the bus).
/// Both must terminate the search with a structured verdict rather than loop
/// or panic, so degraded hardware shows up in reports as an aborted search
/// with a reason, not as a crash.
#[derive(Debug, Clone)]
pub enum PeakSearchOutcome {
    /// The search converged on a valid operating point.
    Converged(Box<PeakResult>),
    /// The search gave up: no probed load ever produced a VALID run.
    Aborted {
        /// Human-readable explanation of why the search stopped.
        reason: String,
        /// How many LoadGen runs the search consumed before giving up.
        runs: u32,
    },
}

impl PeakSearchOutcome {
    /// Consumes the outcome, returning the converged result if any.
    pub fn converged(self) -> Option<PeakResult> {
        match self {
            Self::Converged(result) => Some(*result),
            Self::Aborted { .. } => None,
        }
    }

    /// The peak load, if the search converged.
    pub fn peak(&self) -> Option<f64> {
        match self {
            Self::Converged(result) => Some(result.peak),
            Self::Aborted { .. } => None,
        }
    }
}

/// One probe of a peak search: a plain run at `target`, counted in `runs`
/// and reported to the sink as a [`TraceEvent::PeakSearchStep`].
///
/// Only the search itself is instrumented (step events, a profiler span
/// per probe); the inner LoadGen runs stay uninstrumented because each
/// restarts simulated time at zero, which would scramble a sampler or
/// trace timeline. For the same reason a step is stamped with its ordinal,
/// not a clock.
fn probe<Q, S>(
    settings: &TestSettings,
    target: f64,
    qsl: &mut Q,
    sut: &mut S,
    sink: &dyn TraceSink,
    runs: &mut u32,
) -> Result<RunOutcome, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    profile_span!("loadgen/peak_probe");
    *runs += 1;
    let out = run_simulated(settings, qsl, sut)?;
    if sink.enabled() {
        let valid = out.result.is_valid();
        let step = TraceEvent::PeakSearchStep { target, valid };
        sink.record(u64::from(*runs), &step);
    }
    Ok(out)
}

/// The search both metrics share once `lo` is known valid (`best` is its
/// run): double the load while it stays valid, then bisect between the
/// last valid and the first invalid load, taking midpoints from `mid`
/// until it says the bracket is tight enough. Stops early, keeping the
/// best point so far, when `max_runs` is spent.
fn grow_and_bisect(
    mut lo: f64,
    mut best: RunOutcome,
    max_runs: u32,
    mut runs: u32,
    mut try_at: impl FnMut(f64, &mut u32) -> Result<RunOutcome, LoadGenError>,
    mid: impl Fn(f64, f64) -> Option<f64>,
) -> Result<PeakSearchOutcome, LoadGenError> {
    let mut hi = lo * 2.0;
    while runs < max_runs {
        let out = try_at(hi, &mut runs)?;
        if !out.result.is_valid() {
            break;
        }
        (lo, best) = (hi, out);
        hi *= 2.0;
    }
    while let Some(mid) = mid(lo, hi).filter(|_| runs < max_runs) {
        let out = try_at(mid, &mut runs)?;
        if out.result.is_valid() {
            (lo, best) = (mid, out);
        } else {
            hi = mid;
        }
    }
    Ok(PeakSearchOutcome::Converged(Box::new(PeakResult {
        peak: lo,
        outcome: best,
        runs,
    })))
}

/// Finds the peak valid server QPS by exponential growth + bisection.
///
/// `settings` must be a server-scenario configuration; its
/// `server_target_qps` seeds the search. A SUT with no valid operating
/// point (including one that dies mid-search) yields
/// [`PeakSearchOutcome::Aborted`] — the search always terminates. Each
/// probed operating point emits a [`TraceEvent::PeakSearchStep`] to
/// `instruments.sink`.
///
/// # Errors
///
/// Returns [`LoadGenError::BadSettings`] if the scenario is not server, and
/// propagates any run error.
pub fn find_peak_server_qps<Q, S>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: &mut S,
    options: PeakSearchOptions,
    instruments: &Instruments<'_>,
) -> Result<PeakSearchOutcome, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    profile_span!("loadgen/peak_search_server");
    if settings.scenario != Scenario::Server {
        return Err(LoadGenError::BadSettings(
            "find_peak_server_qps requires the server scenario".into(),
        ));
    }
    let mut runs = 0u32;
    let mut try_qps = |qps: f64, runs: &mut u32| {
        let s = settings.clone().with_server_target_qps(qps);
        probe(&s, qps, qsl, sut, instruments.sink, runs)
    };
    // Shrink until valid.
    let mut lo = settings.server_target_qps.max(1e-6);
    let first = loop {
        if runs >= options.max_runs {
            return Ok(PeakSearchOutcome::Aborted {
                reason: format!(
                    "no valid server operating point found within {} runs",
                    options.max_runs
                ),
                runs,
            });
        }
        let out = try_qps(lo, &mut runs)?;
        if out.result.is_valid() {
            break out;
        }
        lo /= 2.0;
        if lo < 1e-6 {
            return Ok(PeakSearchOutcome::Aborted {
                reason: "SUT cannot sustain any server load; every probed rate \
                         down to 1e-6 qps went INVALID"
                    .into(),
                runs,
            });
        }
    };
    let tolerance = options.relative_tolerance;
    let mid = |lo: f64, hi: f64| ((hi - lo) / lo > tolerance).then(|| (lo + hi) / 2.0);
    grow_and_bisect(lo, first, options.max_runs, runs, try_qps, mid)
}

/// Finds the maximum valid multistream stream count (samples per query).
///
/// Yields [`PeakSearchOutcome::Aborted`] if even one stream is
/// unsustainable; see [`find_peak_server_qps`] for the event contract.
///
/// # Errors
///
/// Returns [`LoadGenError::BadSettings`] if the scenario is not multistream,
/// and propagates run errors.
pub fn find_peak_multistream<Q, S>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: &mut S,
    options: PeakSearchOptions,
    instruments: &Instruments<'_>,
) -> Result<PeakSearchOutcome, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    profile_span!("loadgen/peak_search_multistream");
    if settings.scenario != Scenario::MultiStream {
        return Err(LoadGenError::BadSettings(
            "find_peak_multistream requires the multistream scenario".into(),
        ));
    }
    let mut runs = 0u32;
    let mut try_n = |n: f64, runs: &mut u32| {
        let s = settings.clone().with_samples_per_query(n as usize);
        probe(&s, n, qsl, sut, instruments.sink, runs)
    };
    let first = try_n(1.0, &mut runs)?;
    if !first.result.is_valid() {
        return Ok(PeakSearchOutcome::Aborted {
            reason: "SUT cannot sustain even a single multistream stream".into(),
            runs,
        });
    }
    // Stream counts are whole numbers (exact in an `f64` far beyond any
    // real count): bisect on them until the bracket is two neighbours.
    let mid = |lo: f64, hi: f64| (hi - lo > 1.0).then(|| ((lo + hi) / 2.0).floor());
    grow_and_bisect(1.0, first, options.max_runs, runs, try_n, mid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qsl::MemoryQsl;
    use crate::sut::FixedLatencySut;
    use crate::time::Nanos;

    fn server_settings() -> TestSettings {
        TestSettings::server(100.0, Nanos::from_millis(10))
            .with_min_query_count(2_000)
            .with_min_duration(Nanos::from_millis(1))
    }

    #[test]
    fn server_peak_close_to_service_rate() {
        // A 1 ms serial server saturates at 1000 qps; queueing at the p99
        // bound caps the valid Poisson rate somewhat below that.
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let mut sut = FixedLatencySut::new("s", Nanos::from_millis(1));
        let peak = find_peak_server_qps(
            &server_settings(),
            &mut qsl,
            &mut sut,
            PeakSearchOptions::default(),
            &Instruments::none(),
        )
        .unwrap()
        .converged()
        .expect("search converges");
        assert!(
            (500.0..1_000.0).contains(&peak.peak),
            "peak={} runs={}",
            peak.peak,
            peak.runs
        );
        assert!(peak.outcome.result.is_valid());
    }

    #[test]
    fn faster_sut_higher_peak() {
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let mut fast = FixedLatencySut::new("f", Nanos::from_micros(100));
        let mut slow = FixedLatencySut::new("sl", Nanos::from_millis(2));
        let pf = find_peak_server_qps(
            &server_settings(),
            &mut qsl,
            &mut fast,
            PeakSearchOptions::default(),
            &Instruments::none(),
        )
        .unwrap()
        .converged()
        .unwrap();
        let ps = find_peak_server_qps(
            &server_settings(),
            &mut qsl,
            &mut slow,
            PeakSearchOptions::default(),
            &Instruments::none(),
        )
        .unwrap()
        .converged()
        .unwrap();
        assert!(pf.peak > 3.0 * ps.peak, "fast={} slow={}", pf.peak, ps.peak);
    }

    #[test]
    fn multistream_peak_matches_interval_budget() {
        // 50 ms interval, 2 ms per sample: 25 samples fit exactly; the peak
        // must be 25 (completion at exactly the boundary is legal).
        let settings = TestSettings::multi_stream(1, Nanos::from_millis(50))
            .with_min_query_count(200)
            .with_min_duration(Nanos::from_millis(1));
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let mut sut = FixedLatencySut::new("s", Nanos::from_millis(2));
        let options = PeakSearchOptions::default();
        let peak =
            find_peak_multistream(&settings, &mut qsl, &mut sut, options, &Instruments::none())
                .unwrap()
                .converged()
                .unwrap();
        assert_eq!(peak.peak as usize, 25, "runs={}", peak.runs);
    }

    #[test]
    fn multistream_hopeless_sut_aborts() {
        let settings = TestSettings::multi_stream(1, Nanos::from_millis(10))
            .with_min_query_count(50)
            .with_min_duration(Nanos::from_millis(1));
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let mut sut = FixedLatencySut::new("s", Nanos::from_millis(25));
        let options = PeakSearchOptions::default();
        let outcome =
            find_peak_multistream(&settings, &mut qsl, &mut sut, options, &Instruments::none())
                .unwrap();
        match outcome {
            PeakSearchOutcome::Aborted { reason, runs } => {
                assert!(reason.contains("single multistream stream"), "{reason}");
                assert_eq!(runs, 1);
            }
            PeakSearchOutcome::Converged(p) => panic!("hopeless SUT converged at {}", p.peak),
        }
    }

    #[test]
    fn dead_server_sut_aborts_instead_of_looping() {
        /// Accepts queries and never completes any — the shape of a device
        /// that died before the search started.
        struct DeadSut;
        impl crate::sut::SimSut for DeadSut {
            fn name(&self) -> &str {
                "dead"
            }
            fn on_query(
                &mut self,
                _now: Nanos,
                _query: &crate::query::Query,
            ) -> crate::sut::SutReaction {
                crate::sut::SutReaction::none()
            }
        }
        let settings = TestSettings::server(100.0, Nanos::from_millis(10))
            .with_min_query_count(20)
            .with_min_duration(Nanos::from_millis(1));
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let outcome = find_peak_server_qps(
            &settings,
            &mut qsl,
            &mut DeadSut,
            PeakSearchOptions::default(),
            &Instruments::none(),
        )
        .unwrap();
        match outcome {
            PeakSearchOutcome::Aborted { reason, runs } => {
                assert!(reason.contains("cannot sustain"), "{reason}");
                assert!(runs > 0 && runs <= PeakSearchOptions::default().max_runs);
            }
            PeakSearchOutcome::Converged(p) => panic!("dead SUT converged at {}", p.peak),
        }
    }

    #[test]
    fn traced_search_emits_one_step_per_run() {
        use mlperf_trace::RingBufferSink;
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let mut sut = FixedLatencySut::new("s", Nanos::from_millis(1));
        let sink = RingBufferSink::unbounded();
        let peak = find_peak_server_qps(
            &server_settings(),
            &mut qsl,
            &mut sut,
            PeakSearchOptions::default(),
            &Instruments::traced(&sink),
        )
        .unwrap()
        .converged()
        .unwrap();
        let records = sink.snapshot();
        assert_eq!(records.len() as u32, peak.runs);
        let mut saw_valid = false;
        for r in &records {
            match &r.event {
                mlperf_trace::TraceEvent::PeakSearchStep { target, valid } => {
                    assert!(*target > 0.0);
                    saw_valid |= valid;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert!(saw_valid, "search found a valid operating point");
    }

    #[test]
    fn wrong_scenario_rejected() {
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let mut sut = FixedLatencySut::new("s", Nanos::from_millis(1));
        assert!(find_peak_server_qps(
            &TestSettings::offline(),
            &mut qsl,
            &mut sut,
            PeakSearchOptions::default(),
            &Instruments::none(),
        )
        .is_err());
        assert!(find_peak_multistream(
            &TestSettings::offline(),
            &mut qsl,
            &mut sut,
            PeakSearchOptions::default(),
            &Instruments::none(),
        )
        .is_err());
    }
}
