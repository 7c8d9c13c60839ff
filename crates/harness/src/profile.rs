//! Experiment profiles.

use mlperf_loadgen::time::Nanos;
use mlperf_submission::round::RoundConfig;

/// How much compute an experiment run spends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Seconds-scale smoke check (CI, tests).
    Smoke,
    /// The calibrated reproduction profile: Table V query counts, with run
    /// durations bounded to keep the whole suite tractable on a laptop
    /// (documented per experiment in EXPERIMENTS.md).
    Paper,
}

impl Profile {
    /// The submission-round configuration for this profile.
    ///
    /// The paper profile runs the *official* rules — Table V query counts
    /// and 60-second minimum durations — under simulated time; the round
    /// takes about a minute of wall time.
    pub fn round_config(&self, seed: u64) -> RoundConfig {
        match self {
            Profile::Smoke => RoundConfig::smoke(seed),
            Profile::Paper => RoundConfig::official(seed),
        }
    }

    /// Query-count scale for the scenario sweeps (figures 6 and 8).
    pub fn sweep_query_scale(&self) -> f64 {
        match self {
            Profile::Smoke => 0.002,
            Profile::Paper => 0.02,
        }
    }

    /// Minimum duration for sweep runs.
    pub fn sweep_duration(&self) -> Nanos {
        match self {
            Profile::Smoke => Nanos::from_millis(5),
            Profile::Paper => Nanos::from_millis(500),
        }
    }

    /// Proxy dataset size for accuracy experiments.
    pub fn accuracy_samples(&self) -> usize {
        match self {
            Profile::Smoke => 60,
            Profile::Paper => 400,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_configs_differ() {
        let smoke = Profile::Smoke.round_config(1);
        let paper = Profile::Paper.round_config(1);
        assert!(paper.min_duration > smoke.min_duration);
        assert!(paper.open_division_count >= smoke.open_division_count);
        assert_eq!(paper.open_division_count, 429);
        assert_eq!(paper.violation_count, 14);
    }

    #[test]
    fn sweep_knobs_ordered() {
        assert!(Profile::Paper.sweep_query_scale() > Profile::Smoke.sweep_query_scale());
        assert!(Profile::Paper.sweep_duration() > Profile::Smoke.sweep_duration());
        assert!(Profile::Paper.accuracy_samples() > Profile::Smoke.accuracy_samples());
    }
}
