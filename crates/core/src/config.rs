//! Test settings — the LoadGen's configuration file, as a typed builder.

use crate::scenario::Scenario;
use crate::time::Nanos;
use crate::LoadGenError;
use mlperf_stats::rng::SeedTriple;
use mlperf_stats::Percentile;

/// The LoadGen's two primary operating modes (Section IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestMode {
    /// Measure performance; responses are not logged (except the sampled
    /// fraction for the accuracy-verification audit).
    PerformanceOnly,
    /// Run the entire data set once and log every response for scoring.
    AccuracyOnly,
}

/// Full configuration of one LoadGen run.
///
/// Construct with a scenario-specific constructor, then chain `with_*`
/// overrides:
///
/// ```
/// use mlperf_loadgen::config::TestSettings;
/// use mlperf_loadgen::time::Nanos;
///
/// let s = TestSettings::server(100.0, Nanos::from_millis(15))
///     .with_min_query_count(1000)
///     .with_min_duration(Nanos::from_secs(1));
/// assert!(s.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TestSettings {
    /// The scenario under test.
    pub scenario: Scenario,
    /// Performance or accuracy mode.
    pub(crate) mode: TestMode,
    /// The three decoupled RNG seeds.
    pub seeds: SeedTriple,
    /// Minimum number of queries (Table V).
    pub min_query_count: u64,
    /// Minimum run duration; the paper mandates 60 s to capture DVFS and
    /// power-management equilibrium (Section III-D).
    pub min_duration: Nanos,
    /// Samples per query (multistream N; 1 for single-stream/server).
    pub(crate) samples_per_query: usize,
    /// Poisson arrival rate for the server scenario, queries/second.
    pub server_target_qps: f64,
    /// Per-query latency bound (server QoS constraint or multistream
    /// interval bound, Table III).
    pub(crate) target_latency: Nanos,
    /// The percentile that must meet `target_latency` (p99 vision, p97
    /// translation) or that is reported (p90 single-stream).
    pub(crate) target_latency_percentile: Percentile,
    /// Fixed arrival interval for the multistream scenario (Table III).
    pub(crate) multistream_arrival_interval: Nanos,
    /// Maximum fraction of multistream queries that may cause one or more
    /// skipped intervals (1% by rule).
    pub(crate) multistream_max_skip_fraction: f64,
    /// Minimum samples in the single offline query (24,576 by rule).
    pub offline_min_sample_count: u64,
    /// Probability of logging a response payload in performance mode, for
    /// the accuracy-verification audit (Section V-B). 0 disables.
    pub(crate) accuracy_log_probability: f64,
    /// Maximum fraction of issued queries that may resolve as errors/drops
    /// before the run is INVALID. The benchmark rules have no tolerance for
    /// failed queries, so the default is 0.0; resilience experiments relax
    /// it deliberately.
    pub max_error_fraction: f64,
    /// Worker threads the realtime server-scenario issue loop keeps in
    /// flight (4 by default, matching the reference LoadGen's thread pool).
    /// Network SUT benchmarks scale this up to fill a remote machine.
    pub(crate) server_workers: usize,
}

impl TestSettings {
    fn base(scenario: Scenario) -> Self {
        Self {
            scenario,
            mode: TestMode::PerformanceOnly,
            seeds: SeedTriple::OFFICIAL,
            min_query_count: 1,
            min_duration: Nanos::from_secs(60),
            samples_per_query: 1,
            server_target_qps: 1.0,
            target_latency: Nanos::from_millis(100),
            target_latency_percentile: Percentile::P99,
            multistream_arrival_interval: Nanos::from_millis(50),
            multistream_max_skip_fraction: 0.01,
            offline_min_sample_count: 24_576,
            accuracy_log_probability: 0.0,
            max_error_fraction: 0.0,
            server_workers: 4,
        }
    }

    /// Single-stream defaults: 1,024 queries, p90 reporting percentile.
    pub fn single_stream() -> Self {
        Self {
            min_query_count: 1_024,
            target_latency_percentile: Percentile::P90,
            ..Self::base(Scenario::SingleStream)
        }
    }

    /// Multistream defaults: 270,336 queries, p99 bound at the given
    /// arrival interval with `n` samples per query.
    pub fn multi_stream(n: usize, arrival_interval: Nanos) -> Self {
        Self {
            min_query_count: 270_336,
            samples_per_query: n,
            multistream_arrival_interval: arrival_interval,
            target_latency: arrival_interval,
            ..Self::base(Scenario::MultiStream)
        }
    }

    /// Server defaults: 270,336 queries, p99 bound, Poisson arrivals at
    /// `target_qps`.
    pub fn server(target_qps: f64, latency_bound: Nanos) -> Self {
        Self {
            min_query_count: 270_336,
            server_target_qps: target_qps,
            target_latency: latency_bound,
            ..Self::base(Scenario::Server)
        }
    }

    /// Offline defaults: one query of at least 24,576 samples.
    pub fn offline() -> Self {
        Self {
            min_query_count: 1,
            ..Self::base(Scenario::Offline)
        }
    }

    /// Switches to accuracy mode.
    pub fn with_mode(mut self, mode: TestMode) -> Self {
        self.mode = mode;
        self
    }

    /// Overrides the seed triple.
    pub fn with_seeds(mut self, seeds: SeedTriple) -> Self {
        self.seeds = seeds;
        self
    }

    /// Overrides the minimum query count (tests use small counts; official
    /// runs use Table V).
    pub fn with_min_query_count(mut self, count: u64) -> Self {
        self.min_query_count = count;
        self
    }

    /// Overrides the minimum duration.
    pub fn with_min_duration(mut self, d: Nanos) -> Self {
        self.min_duration = d;
        self
    }

    /// Overrides the QoS/reporting percentile (p97 for translation).
    pub fn with_latency_percentile(mut self, p: Percentile) -> Self {
        self.target_latency_percentile = p;
        self
    }

    /// Overrides the per-query latency bound.
    pub fn with_target_latency(mut self, bound: Nanos) -> Self {
        self.target_latency = bound;
        self
    }

    /// Overrides the offline minimum sample count.
    pub fn with_offline_min_sample_count(mut self, n: u64) -> Self {
        self.offline_min_sample_count = n;
        self
    }

    /// Overrides the server target QPS.
    pub fn with_server_target_qps(mut self, qps: f64) -> Self {
        self.server_target_qps = qps;
        self
    }

    /// Overrides samples per query (multistream N).
    pub fn with_samples_per_query(mut self, n: usize) -> Self {
        self.samples_per_query = n;
        self
    }

    /// Enables sampled payload logging in performance mode.
    pub fn with_accuracy_log_probability(mut self, p: f64) -> Self {
        self.accuracy_log_probability = p;
        self
    }

    /// Overrides the tolerated errored-query fraction (0 by rule).
    pub fn with_max_error_fraction(mut self, f: f64) -> Self {
        self.max_error_fraction = f;
        self
    }

    /// Overrides the realtime server-scenario worker-pool size.
    pub fn with_server_workers(mut self, workers: usize) -> Self {
        self.server_workers = workers;
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`LoadGenError::BadSettings`] describing the first problem
    /// found.
    pub fn validate(&self) -> Result<(), LoadGenError> {
        if self.min_query_count == 0 {
            return Err(LoadGenError::BadSettings(
                "min_query_count must be at least 1".into(),
            ));
        }
        if self.samples_per_query == 0 {
            return Err(LoadGenError::BadSettings(
                "samples_per_query must be at least 1".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.accuracy_log_probability) {
            return Err(LoadGenError::BadSettings(format!(
                "accuracy_log_probability must be in [0,1], got {}",
                self.accuracy_log_probability
            )));
        }
        if !(0.0..=1.0).contains(&self.max_error_fraction) {
            return Err(LoadGenError::BadSettings(format!(
                "max_error_fraction must be in [0,1], got {}",
                self.max_error_fraction
            )));
        }
        if self.server_workers == 0 {
            return Err(LoadGenError::BadSettings(
                "server_workers must be at least 1".into(),
            ));
        }
        match self.scenario {
            Scenario::Server => {
                if !(self.server_target_qps.is_finite() && self.server_target_qps > 0.0) {
                    return Err(LoadGenError::BadSettings(format!(
                        "server_target_qps must be positive, got {}",
                        self.server_target_qps
                    )));
                }
                if self.target_latency == Nanos::ZERO {
                    return Err(LoadGenError::BadSettings(
                        "server latency bound must be positive".into(),
                    ));
                }
            }
            Scenario::MultiStream => {
                if self.multistream_arrival_interval == Nanos::ZERO {
                    return Err(LoadGenError::BadSettings(
                        "multistream arrival interval must be positive".into(),
                    ));
                }
                if !(0.0..1.0).contains(&self.multistream_max_skip_fraction) {
                    return Err(LoadGenError::BadSettings(format!(
                        "multistream_max_skip_fraction must be in [0,1), got {}",
                        self.multistream_max_skip_fraction
                    )));
                }
            }
            Scenario::Offline => {
                if self.offline_min_sample_count == 0 {
                    return Err(LoadGenError::BadSettings(
                        "offline_min_sample_count must be at least 1".into(),
                    ));
                }
            }
            Scenario::SingleStream => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_rules() {
        let ss = TestSettings::single_stream();
        assert_eq!(ss.min_query_count, 1_024);
        assert_eq!(ss.min_duration, Nanos::from_secs(60));
        assert_eq!(ss.target_latency_percentile, Percentile::P90);

        let ms = TestSettings::multi_stream(8, Nanos::from_millis(50));
        assert_eq!(ms.min_query_count, 270_336);
        assert_eq!(ms.samples_per_query, 8);
        assert!((ms.multistream_max_skip_fraction - 0.01).abs() < 1e-12);

        let sv = TestSettings::server(100.0, Nanos::from_millis(15));
        assert_eq!(sv.min_query_count, 270_336);
        assert_eq!(sv.target_latency, Nanos::from_millis(15));

        let off = TestSettings::offline();
        assert_eq!(off.offline_min_sample_count, 24_576);

        // Zero tolerance for errored queries by default, in every scenario.
        for s in [&ss, &ms, &sv, &off] {
            assert_eq!(s.max_error_fraction, 0.0);
            assert_eq!(s.server_workers, 4);
        }
    }

    #[test]
    fn server_workers_override_and_validation() {
        let s = TestSettings::server(10.0, Nanos::from_millis(10)).with_server_workers(16);
        assert_eq!(s.server_workers, 16);
        assert!(s.validate().is_ok());
        assert!(TestSettings::server(10.0, Nanos::from_millis(10))
            .with_server_workers(0)
            .validate()
            .is_err());
    }

    #[test]
    fn validation_catches_bad_values() {
        assert!(TestSettings::server(0.0, Nanos::from_millis(10))
            .validate()
            .is_err());
        assert!(TestSettings::server(f64::NAN, Nanos::from_millis(10))
            .validate()
            .is_err());
        assert!(TestSettings::server(10.0, Nanos::ZERO).validate().is_err());
        assert!(TestSettings::multi_stream(1, Nanos::ZERO)
            .validate()
            .is_err());
        assert!(TestSettings::single_stream()
            .with_min_query_count(0)
            .validate()
            .is_err());
        assert!(TestSettings::offline()
            .with_offline_min_sample_count(0)
            .validate()
            .is_err());
        assert!(TestSettings::single_stream()
            .with_accuracy_log_probability(1.5)
            .validate()
            .is_err());
        assert!(TestSettings::single_stream()
            .with_max_error_fraction(-0.1)
            .validate()
            .is_err());
        assert!(TestSettings::single_stream()
            .with_max_error_fraction(1.1)
            .validate()
            .is_err());
        let mut ms = TestSettings::multi_stream(1, Nanos::from_millis(50));
        ms.samples_per_query = 0;
        assert!(ms.validate().is_err());
    }

    #[test]
    fn builder_chain() {
        let s = TestSettings::single_stream()
            .with_min_query_count(10)
            .with_min_duration(Nanos::from_millis(5))
            .with_mode(TestMode::AccuracyOnly)
            .with_accuracy_log_probability(0.25);
        assert_eq!(s.min_query_count, 10);
        assert_eq!(s.mode, TestMode::AccuracyOnly);
        assert!(s.validate().is_ok());
    }
}
