//! Replay: a recorded schedule as a first-class arrival process.
//!
//! The four scenarios generate their query streams from seeds; replay
//! re-issues a stream that was *recorded* — explicit arrival times and
//! explicit per-query sample indices extracted from a detail log (the
//! `mlperf-replay` crate builds [`ReplaySchedule`]s from recorded traces).
//! Everything downstream of arrival generation is the unchanged LoadGen
//! machinery: the same recorder, the same validity rules for the recorded
//! scenario, the same scoring. That is what makes a replayed run a real
//! benchmark rather than a traffic-shaped smoke test.
//!
//! A schedule is just another arrival source for the one engine:
//! [`Run::replay`] hands it to the discrete-event loop (deterministic
//! audits, simulated SUTs) or to the wall-clock worker pool (any
//! `RealtimeSut`: a local stack, a `RemoteSut` on the wire, a sharded fleet
//! router).
//!
//! Replay is open loop by construction — the schedule *is* the run, so
//! `min_query_count` / `min_duration` never extend it, and closed-loop
//! scenarios (single-stream, multistream) replay on their recorded
//! timeline instead of re-deriving one from completions.

use crate::config::TestSettings;
use crate::des::RunOutcome;
use crate::qsl::QuerySampleLibrary;
use crate::run::Run;
use crate::scenario::Scenario;
use crate::sut::SimSut;
use crate::time::Nanos;
use crate::LoadGenError;

/// A recorded query schedule, ready to re-issue.
///
/// Arrival times are nanoseconds since run start, non-decreasing; each
/// query carries the explicit sample indices it drew when it was
/// recorded. Query ids are assigned sequentially at replay time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplaySchedule {
    /// The scenario whose validity rules and metric apply to the replay.
    pub scenario: Scenario,
    /// Scheduled arrival time of each query, non-decreasing.
    pub arrivals: Vec<Nanos>,
    /// Sample indices of each query (parallel to `arrivals`). Indices are
    /// folded into the replay QSL's population with a modulo, so a trace
    /// recorded against a larger library still replays.
    pub indices: Vec<Vec<usize>>,
}

impl ReplaySchedule {
    /// Checks the schedule's structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`LoadGenError::BadSettings`] when the schedule is empty,
    /// the arrival and index vectors disagree in length, arrivals go
    /// backwards, or a query has no samples.
    pub fn validate(&self) -> Result<(), LoadGenError> {
        if self.arrivals.is_empty() {
            return Err(LoadGenError::BadSettings(
                "replay schedule has no queries".into(),
            ));
        }
        if self.arrivals.len() != self.indices.len() {
            return Err(LoadGenError::BadSettings(format!(
                "replay schedule has {} arrivals but {} index sets",
                self.arrivals.len(),
                self.indices.len()
            )));
        }
        if self.arrivals.windows(2).any(|w| w[1] < w[0]) {
            return Err(LoadGenError::BadSettings(
                "replay schedule arrivals go backwards".into(),
            ));
        }
        if let Some(i) = self.indices.iter().position(Vec::is_empty) {
            return Err(LoadGenError::BadSettings(format!(
                "replay schedule query {i} has no sample indices"
            )));
        }
        Ok(())
    }
}

// What `perfbench/` imports from this module; see the note on the
// delegations in `des.rs` — same rule, same expiry.
#[doc(hidden)]
pub fn run_simulated_replay<Q, S>(
    settings: &TestSettings,
    schedule: &ReplaySchedule,
    qsl: &mut Q,
    sut: &mut S,
) -> Result<RunOutcome, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    Run::simulated(settings).replay(schedule).run(qsl, sut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qsl::MemoryQsl;
    use crate::sut::{FixedLatencySut, SleepSut};
    use std::sync::Arc;
    use std::time::Duration;

    fn schedule(n: usize, gap_us: u64) -> ReplaySchedule {
        ReplaySchedule {
            scenario: Scenario::Server,
            arrivals: (0..n)
                .map(|i| Nanos::from_micros(i as u64 * gap_us))
                .collect(),
            indices: (0..n).map(|i| vec![i % 7]).collect(),
        }
    }

    fn replay_settings(n: usize) -> TestSettings {
        TestSettings::server(1_000.0, Nanos::from_millis(50))
            .with_min_query_count(n as u64)
            .with_min_duration(Nanos::ZERO)
    }

    #[test]
    fn validate_rejects_malformed_schedules() {
        let empty = ReplaySchedule {
            scenario: Scenario::Server,
            arrivals: vec![],
            indices: vec![],
        };
        assert!(empty.validate().is_err());

        let backwards = ReplaySchedule {
            scenario: Scenario::Server,
            arrivals: vec![Nanos::from_micros(5), Nanos::from_micros(1)],
            indices: vec![vec![0], vec![0]],
        };
        assert!(backwards.validate().is_err());

        let no_samples = ReplaySchedule {
            scenario: Scenario::Server,
            arrivals: vec![Nanos::ZERO],
            indices: vec![vec![]],
        };
        assert!(no_samples.validate().is_err());
    }

    #[test]
    fn scenario_mismatch_is_bad_settings() {
        let s = schedule(4, 100);
        let settings = TestSettings::offline().with_min_duration(Nanos::ZERO);
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(10));
        let err = Run::simulated(&settings)
            .replay(&s)
            .run(&mut qsl, &mut sut)
            .unwrap_err();
        assert!(matches!(err, LoadGenError::BadSettings(_)));
    }

    #[test]
    fn simulated_replay_issues_exactly_the_schedule() {
        let n = 256;
        let s = schedule(n, 100);
        let settings = replay_settings(n);
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(20));
        let out = Run::simulated(&settings)
            .replay(&s)
            .run(&mut qsl, &mut sut)
            .unwrap();
        assert_eq!(out.result.query_count, n as u64);
        assert!(out.result.is_valid(), "issues: {:?}", out.result.validity);
        // The recorded schedule is authoritative: scheduled times match.
        for (record, want) in out.records.iter().zip(&s.arrivals) {
            assert_eq!(record.scheduled_at, *want);
        }
    }

    #[test]
    fn simulated_replay_is_deterministic() {
        let n = 128;
        let s = schedule(n, 50);
        let settings = replay_settings(n);
        let run = || {
            let mut qsl = MemoryQsl::new("q", 16, 16);
            let mut sut = FixedLatencySut::new("s", Nanos::from_micros(20));
            Run::simulated(&settings)
                .replay(&s)
                .run(&mut qsl, &mut sut)
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.records, b.records);
        assert_eq!(a.result, b.result);
    }

    #[test]
    fn realtime_replay_completes_and_validates() {
        let n = 24;
        let s = schedule(n, 500);
        let settings = replay_settings(n);
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let sut = Arc::new(SleepSut::new("sleepy", Duration::from_micros(50)));
        let out = Run::wall_clock(&settings)
            .replay(&s)
            .run(&mut qsl, sut)
            .unwrap();
        assert_eq!(out.result.query_count, n as u64);
        assert!(out.result.is_valid(), "issues: {:?}", out.result.validity);
    }

    #[test]
    fn replay_folds_oversized_indices_into_population() {
        let n = 8;
        let mut s = schedule(n, 100);
        // Record-time population was larger than the replay QSL.
        s.indices = (0..n).map(|i| vec![i * 1000 + 999]).collect();
        let settings = replay_settings(n);
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(10));
        let out = Run::simulated(&settings)
            .replay(&s)
            .run(&mut qsl, &mut sut)
            .unwrap();
        assert_eq!(out.result.query_count, n as u64);
        assert!(out.result.is_valid());
    }
}
