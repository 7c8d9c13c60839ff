//! Run-validity rules.
//!
//! A run is VALID only if it satisfies every applicable rule: the Table V
//! minimum query count, the 60-second minimum duration, the scenario's
//! latency constraint at its percentile (Table III), the multistream
//! skipped-interval budget, and the offline minimum sample count. The
//! result-review process (Section V-B) found ~40 rule violations among ~180
//! closed-division results, so the checks are load-bearing.

use crate::config::TestSettings;
use crate::record::QueryRecord;
use crate::scenario::Scenario;
use crate::time::Nanos;
use mlperf_trace::{FromJson, JsonError, JsonValue, ToJson};

/// The one nearest-rank rule, from `mlperf_stats`; callers name it here.
pub use mlperf_stats::percentile::nearest_rank;

/// A specific rule violation.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidityIssue {
    /// Fewer queries than Table V requires.
    TooFewQueries {
        /// Required count.
        required: u64,
        /// Observed count.
        observed: u64,
    },
    /// The run finished before the 60-second minimum.
    RunTooShort {
        /// Required duration.
        required: Nanos,
        /// Observed duration.
        observed: Nanos,
    },
    /// The tail-latency percentile exceeded the scenario bound.
    LatencyBoundExceeded {
        /// The percentile checked (e.g. 99).
        percentile: f64,
        /// The bound (Table III).
        bound: Nanos,
        /// The observed percentile latency.
        observed: Nanos,
    },
    /// Multistream: too many queries caused skipped intervals.
    TooManySkippedIntervals {
        /// Maximum permitted fraction (0.01).
        max_fraction: f64,
        /// Observed fraction.
        observed: f64,
    },
    /// Offline: the single query carried too few samples.
    TooFewSamples {
        /// Required samples (24,576).
        required: u64,
        /// Observed samples.
        observed: u64,
    },
    /// Some queries never completed.
    IncompleteQueries {
        /// Number of unfinished queries.
        outstanding: u64,
    },
    /// Too many queries resolved as errors/drops.
    ErrorFractionExceeded {
        /// Maximum permitted fraction of errored queries.
        max_fraction: f64,
        /// Observed fraction.
        observed: f64,
    },
}

impl ValidityIssue {
    /// Stable snake_case kind label — never the `Display` string, which
    /// carries run-dependent counts and durations. These labels are the
    /// constraint names the analysis subsystem and the chaos matrix key on.
    pub fn kind(&self) -> &'static str {
        match self {
            ValidityIssue::TooFewQueries { .. } => "too_few_queries",
            ValidityIssue::RunTooShort { .. } => "run_too_short",
            ValidityIssue::LatencyBoundExceeded { .. } => "latency_bound_exceeded",
            ValidityIssue::TooManySkippedIntervals { .. } => "too_many_skipped_intervals",
            ValidityIssue::TooFewSamples { .. } => "too_few_samples",
            ValidityIssue::IncompleteQueries { .. } => "incomplete_queries",
            ValidityIssue::ErrorFractionExceeded { .. } => "error_fraction_exceeded",
        }
    }
}

impl ToJson for ValidityIssue {
    fn to_json_value(&self) -> JsonValue {
        let (name, payload) = match self {
            ValidityIssue::TooFewQueries { required, observed } => (
                "TooFewQueries",
                JsonValue::object(vec![
                    ("required", required.to_json_value()),
                    ("observed", observed.to_json_value()),
                ]),
            ),
            ValidityIssue::RunTooShort { required, observed } => (
                "RunTooShort",
                JsonValue::object(vec![
                    ("required", required.to_json_value()),
                    ("observed", observed.to_json_value()),
                ]),
            ),
            ValidityIssue::LatencyBoundExceeded {
                percentile,
                bound,
                observed,
            } => (
                "LatencyBoundExceeded",
                JsonValue::object(vec![
                    ("percentile", percentile.to_json_value()),
                    ("bound", bound.to_json_value()),
                    ("observed", observed.to_json_value()),
                ]),
            ),
            ValidityIssue::TooManySkippedIntervals {
                max_fraction,
                observed,
            } => (
                "TooManySkippedIntervals",
                JsonValue::object(vec![
                    ("max_fraction", max_fraction.to_json_value()),
                    ("observed", observed.to_json_value()),
                ]),
            ),
            ValidityIssue::TooFewSamples { required, observed } => (
                "TooFewSamples",
                JsonValue::object(vec![
                    ("required", required.to_json_value()),
                    ("observed", observed.to_json_value()),
                ]),
            ),
            ValidityIssue::IncompleteQueries { outstanding } => (
                "IncompleteQueries",
                JsonValue::object(vec![("outstanding", outstanding.to_json_value())]),
            ),
            ValidityIssue::ErrorFractionExceeded {
                max_fraction,
                observed,
            } => (
                "ErrorFractionExceeded",
                JsonValue::object(vec![
                    ("max_fraction", max_fraction.to_json_value()),
                    ("observed", observed.to_json_value()),
                ]),
            ),
        };
        JsonValue::object(vec![(name, payload)])
    }
}

impl FromJson for ValidityIssue {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        let (name, p) = value.as_variant()?;
        match name {
            "TooFewQueries" => Ok(ValidityIssue::TooFewQueries {
                required: p.field("required")?.as_u64()?,
                observed: p.field("observed")?.as_u64()?,
            }),
            "RunTooShort" => Ok(ValidityIssue::RunTooShort {
                required: Nanos::from_json_value(p.field("required")?)?,
                observed: Nanos::from_json_value(p.field("observed")?)?,
            }),
            "LatencyBoundExceeded" => Ok(ValidityIssue::LatencyBoundExceeded {
                percentile: p.field("percentile")?.as_f64()?,
                bound: Nanos::from_json_value(p.field("bound")?)?,
                observed: Nanos::from_json_value(p.field("observed")?)?,
            }),
            "TooManySkippedIntervals" => Ok(ValidityIssue::TooManySkippedIntervals {
                max_fraction: p.field("max_fraction")?.as_f64()?,
                observed: p.field("observed")?.as_f64()?,
            }),
            "TooFewSamples" => Ok(ValidityIssue::TooFewSamples {
                required: p.field("required")?.as_u64()?,
                observed: p.field("observed")?.as_u64()?,
            }),
            "IncompleteQueries" => Ok(ValidityIssue::IncompleteQueries {
                outstanding: p.field("outstanding")?.as_u64()?,
            }),
            "ErrorFractionExceeded" => Ok(ValidityIssue::ErrorFractionExceeded {
                max_fraction: p.field("max_fraction")?.as_f64()?,
                observed: p.field("observed")?.as_f64()?,
            }),
            other => Err(JsonError::new(format!("unknown validity issue {other:?}"))),
        }
    }
}

impl std::fmt::Display for ValidityIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidityIssue::TooFewQueries { required, observed } => {
                write!(f, "too few queries: {observed} < {required}")
            }
            ValidityIssue::RunTooShort { required, observed } => {
                write!(f, "run too short: {observed} < {required}")
            }
            ValidityIssue::LatencyBoundExceeded {
                percentile,
                bound,
                observed,
            } => write!(f, "p{percentile} latency {observed} exceeds bound {bound}"),
            ValidityIssue::TooManySkippedIntervals {
                max_fraction,
                observed,
            } => write!(
                f,
                "skipped-interval fraction {observed:.4} exceeds {max_fraction:.4}"
            ),
            ValidityIssue::TooFewSamples { required, observed } => {
                write!(f, "too few samples: {observed} < {required}")
            }
            ValidityIssue::IncompleteQueries { outstanding } => {
                write!(f, "{outstanding} queries never completed")
            }
            ValidityIssue::ErrorFractionExceeded {
                max_fraction,
                observed,
            } => write!(
                f,
                "errored-query fraction {observed:.4} exceeds {max_fraction:.4}"
            ),
        }
    }
}

/// Checks a completed run against every applicable rule.
///
/// `duration` is first-issue → last-completion; `outstanding` counts queries
/// that never completed.
pub fn check_run(
    settings: &TestSettings,
    records: &[QueryRecord],
    duration: Nanos,
    outstanding: u64,
) -> Vec<ValidityIssue> {
    let mut issues = Vec::new();
    let issued = records.len() as u64;
    if outstanding > 0 {
        issues.push(ValidityIssue::IncompleteQueries { outstanding });
    }
    // Error-fraction rule (fault-injection extension, all scenarios): a run
    // whose SUT errored/dropped more than `max_error_fraction` of its
    // queries is INVALID regardless of how fast the surviving queries were.
    if issued > 0 {
        let errored = records.iter().filter(|r| r.error).count();
        let fraction = errored as f64 / issued as f64;
        if fraction > settings.max_error_fraction {
            issues.push(ValidityIssue::ErrorFractionExceeded {
                max_fraction: settings.max_error_fraction,
                observed: fraction,
            });
        }
    }
    if issued < settings.min_query_count {
        issues.push(ValidityIssue::TooFewQueries {
            required: settings.min_query_count,
            observed: issued,
        });
    }
    if duration < settings.min_duration {
        issues.push(ValidityIssue::RunTooShort {
            required: settings.min_duration,
            observed: duration,
        });
    }
    match settings.scenario {
        Scenario::Server => {
            if let Some(observed) =
                percentile_latency(records, settings.target_latency_percentile.fraction())
            {
                if observed > settings.target_latency {
                    issues.push(ValidityIssue::LatencyBoundExceeded {
                        percentile: settings.target_latency_percentile.value(),
                        bound: settings.target_latency,
                        observed,
                    });
                }
            }
        }
        Scenario::MultiStream => {
            let skippers = records.iter().filter(|r| r.skipped_intervals > 0).count();
            if issued > 0 {
                let fraction = skippers as f64 / issued as f64;
                if fraction > settings.multistream_max_skip_fraction {
                    issues.push(ValidityIssue::TooManySkippedIntervals {
                        max_fraction: settings.multistream_max_skip_fraction,
                        observed: fraction,
                    });
                }
            }
        }
        Scenario::Offline => {
            let samples: u64 = records.iter().map(|r| r.sample_count as u64).sum();
            if samples < settings.offline_min_sample_count {
                issues.push(ValidityIssue::TooFewSamples {
                    required: settings.offline_min_sample_count,
                    observed: samples,
                });
            }
        }
        Scenario::SingleStream => {}
    }
    issues
}

/// Nearest-rank percentile over *scored* latencies of completed queries.
///
/// Errored queries count as infinitely late ([`Nanos::MAX`] via
/// [`QueryRecord::scored_latency`]), so enough failures push any percentile
/// past any finite bound — errors cannot hide from the server p99 rule.
pub(crate) fn percentile_latency(records: &[QueryRecord], fraction: f64) -> Option<Nanos> {
    let mut latencies: Vec<Nanos> = records
        .iter()
        .filter_map(QueryRecord::scored_latency)
        .collect();
    latencies.sort_unstable();
    nearest_rank(&latencies, fraction)
}

/// Fraction of completed queries whose *scored* latency exceeds `bound`
/// (errored queries always count as over the bound).
pub(crate) fn overlatency_fraction(records: &[QueryRecord], bound: Nanos) -> f64 {
    let scored: Vec<Nanos> = records
        .iter()
        .filter_map(QueryRecord::scored_latency)
        .collect();
    if scored.is_empty() {
        return 0.0;
    }
    scored.iter().filter(|l| **l > bound).count() as f64 / scored.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TestSettings;

    fn record(id: u64, scheduled_us: u64, completed_us: u64) -> QueryRecord {
        QueryRecord {
            id,
            scheduled_at: Nanos::from_micros(scheduled_us),
            issued_at: Nanos::from_micros(scheduled_us),
            completed_at: Some(Nanos::from_micros(completed_us)),
            sample_count: 1,
            skipped_intervals: 0,
            error: false,
        }
    }

    fn errored(id: u64, scheduled_us: u64, completed_us: u64) -> QueryRecord {
        QueryRecord {
            error: true,
            ..record(id, scheduled_us, completed_us)
        }
    }

    #[test]
    fn clean_run_is_valid() {
        let s = TestSettings::single_stream()
            .with_min_query_count(2)
            .with_min_duration(Nanos::from_micros(10));
        let records = vec![record(0, 0, 10), record(1, 10, 25)];
        assert!(check_run(&s, &records, Nanos::from_micros(25), 0).is_empty());
    }

    #[test]
    fn too_few_queries_detected() {
        let s = TestSettings::single_stream()
            .with_min_query_count(5)
            .with_min_duration(Nanos::ZERO);
        let issues = check_run(&s, &[record(0, 0, 10)], Nanos::from_micros(10), 0);
        assert!(matches!(
            issues[0],
            ValidityIssue::TooFewQueries {
                required: 5,
                observed: 1
            }
        ));
    }

    #[test]
    fn short_run_detected() {
        let s = TestSettings::single_stream()
            .with_min_query_count(1)
            .with_min_duration(Nanos::from_secs(60));
        let issues = check_run(&s, &[record(0, 0, 10)], Nanos::from_micros(10), 0);
        assert!(issues
            .iter()
            .any(|i| matches!(i, ValidityIssue::RunTooShort { .. })));
    }

    #[test]
    fn server_latency_bound_checked_at_percentile() {
        let s = TestSettings::server(10.0, Nanos::from_micros(20))
            .with_min_query_count(1)
            .with_min_duration(Nanos::ZERO);
        // 100 queries, one (the p100) over the bound: p99 is exactly at the
        // 99th rank which is still under the bound.
        let mut records: Vec<QueryRecord> = (0..99).map(|i| record(i, 0, 15)).collect();
        records.push(record(99, 0, 1_000));
        let issues = check_run(&s, &records, Nanos::from_secs(61), 0);
        assert!(issues.is_empty(), "{issues:?}");
        // Two slow queries push the p99 over.
        records.push(record(100, 0, 1_000));
        records.push(record(101, 0, 1_000));
        let issues = check_run(&s, &records, Nanos::from_secs(61), 0);
        assert!(issues
            .iter()
            .any(|i| matches!(i, ValidityIssue::LatencyBoundExceeded { .. })));
    }

    #[test]
    fn multistream_skip_budget() {
        let mut s = TestSettings::multi_stream(2, Nanos::from_millis(50))
            .with_min_query_count(1)
            .with_min_duration(Nanos::ZERO);
        s.multistream_max_skip_fraction = 0.01;
        let mut records: Vec<QueryRecord> = (0..199).map(|i| record(i, 0, 10)).collect();
        let mut bad = record(199, 0, 10);
        bad.skipped_intervals = 2;
        records.push(bad);
        // 1/200 = 0.5% skippers: fine.
        assert!(check_run(&s, &records, Nanos::from_secs(61), 0).is_empty());
        // 5/200 = 2.5%: violation.
        for r in records.iter_mut().take(4) {
            r.skipped_intervals = 1;
        }
        let issues = check_run(&s, &records, Nanos::from_secs(61), 0);
        assert!(issues
            .iter()
            .any(|i| matches!(i, ValidityIssue::TooManySkippedIntervals { .. })));
    }

    #[test]
    fn offline_sample_minimum() {
        let s = TestSettings::offline()
            .with_min_duration(Nanos::ZERO)
            .with_offline_min_sample_count(100);
        let mut r = record(0, 0, 10);
        r.sample_count = 99;
        let issues = check_run(&s, &[r.clone()], Nanos::from_secs(61), 0);
        assert!(matches!(
            issues[0],
            ValidityIssue::TooFewSamples {
                required: 100,
                observed: 99
            }
        ));
        r.sample_count = 100;
        assert!(check_run(&s, &[r], Nanos::from_secs(61), 0).is_empty());
    }

    #[test]
    fn incomplete_queries_detected() {
        let s = TestSettings::single_stream()
            .with_min_query_count(1)
            .with_min_duration(Nanos::ZERO);
        let issues = check_run(&s, &[record(0, 0, 10)], Nanos::from_secs(61), 3);
        assert!(matches!(
            issues[0],
            ValidityIssue::IncompleteQueries { outstanding: 3 }
        ));
    }

    #[test]
    fn helpers() {
        let records = vec![record(0, 0, 10), record(1, 0, 20), record(2, 0, 30)];
        assert_eq!(
            percentile_latency(&records, 0.5),
            Some(Nanos::from_micros(20))
        );
        assert!((overlatency_fraction(&records, Nanos::from_micros(15)) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(percentile_latency(&[], 0.5), None);
        assert_eq!(overlatency_fraction(&[], Nanos::ZERO), 0.0);
    }

    #[test]
    fn errored_queries_count_against_server_bound() {
        let s = TestSettings::server(10.0, Nanos::from_micros(20))
            .with_min_query_count(1)
            .with_min_duration(Nanos::ZERO)
            .with_max_error_fraction(1.0);
        // 98 fast successes + 2 errors: the p99 rank lands on Nanos::MAX.
        let mut records: Vec<QueryRecord> = (0..98).map(|i| record(i, 0, 15)).collect();
        records.push(errored(98, 0, 15));
        records.push(errored(99, 0, 15));
        let issues = check_run(&s, &records, Nanos::from_secs(61), 0);
        assert!(
            issues
                .iter()
                .any(|i| matches!(i, ValidityIssue::LatencyBoundExceeded { .. })),
            "{issues:?}"
        );
        // A single error among 100 hides below the p99 rank.
        let mut records: Vec<QueryRecord> = (0..99).map(|i| record(i, 0, 15)).collect();
        records.push(errored(99, 0, 15));
        assert!(check_run(&s, &records, Nanos::from_secs(61), 0).is_empty());
    }

    #[test]
    fn error_fraction_rule_across_scenarios() {
        // The error-fraction rule applies to every scenario; the
        // latency-bound rule only to Server. Cross them: for each scenario,
        // (a) all-success baseline VALID, (b) errors above the threshold
        // INVALID via ErrorFractionExceeded, (c) errors at/below the
        // threshold tolerated, (d) for Server, errors also interact with
        // the overlatency bound independently of the fraction rule.
        let scenarios = [
            TestSettings::single_stream(),
            TestSettings::multi_stream(1, Nanos::from_millis(50)),
            TestSettings::server(10.0, Nanos::from_micros(20)),
            TestSettings::offline(),
        ];
        for base in scenarios {
            let scenario = base.scenario;
            let s = base
                .with_min_query_count(1)
                .with_min_duration(Nanos::ZERO)
                .with_offline_min_sample_count(1)
                .with_max_error_fraction(0.05);
            // (a) Baseline: 100 fast successes.
            let ok: Vec<QueryRecord> = (0..100).map(|i| record(i, 0, 15)).collect();
            assert!(
                check_run(&s, &ok, Nanos::from_secs(61), 0).is_empty(),
                "{scenario:?} baseline"
            );
            // (b) 10% errors: ErrorFractionExceeded in every scenario.
            let mut bad = ok.clone();
            for r in bad.iter_mut().take(10) {
                r.error = true;
            }
            let issues = check_run(&s, &bad, Nanos::from_secs(61), 0);
            assert!(
                issues.iter().any(|i| matches!(
                    i,
                    ValidityIssue::ErrorFractionExceeded { max_fraction, observed }
                        if *max_fraction == 0.05 && (*observed - 0.10).abs() < 1e-12
                )),
                "{scenario:?}: {issues:?}"
            );
            // (c) 5% errors: within tolerance — but for Server they still
            // push the p99 (rank 100 of 100 scored latencies ... rank 95+
            // are Nanos::MAX) over the bound.
            let mut edge = ok.clone();
            for r in edge.iter_mut().take(5) {
                r.error = true;
            }
            let issues = check_run(&s, &edge, Nanos::from_secs(61), 0);
            assert!(
                !issues
                    .iter()
                    .any(|i| matches!(i, ValidityIssue::ErrorFractionExceeded { .. })),
                "{scenario:?}: 5% errors must pass the fraction rule: {issues:?}"
            );
            if scenario == Scenario::Server {
                assert!(
                    issues
                        .iter()
                        .any(|i| matches!(i, ValidityIssue::LatencyBoundExceeded { .. })),
                    "{scenario:?}: 5% errors must still break the p99 bound: {issues:?}"
                );
            } else {
                assert!(issues.is_empty(), "{scenario:?}: {issues:?}");
            }
        }
    }

    #[test]
    fn issue_json_roundtrip() {
        let issues = [
            ValidityIssue::TooFewQueries {
                required: 1,
                observed: 0,
            },
            ValidityIssue::LatencyBoundExceeded {
                percentile: 99.0,
                bound: Nanos::from_secs(1),
                observed: Nanos::from_secs(2),
            },
            ValidityIssue::IncompleteQueries { outstanding: 4 },
            ValidityIssue::ErrorFractionExceeded {
                max_fraction: 0.0,
                observed: 0.25,
            },
        ];
        for issue in issues {
            let json = issue.to_json_string();
            assert_eq!(
                ValidityIssue::from_json_str(&json).unwrap(),
                issue,
                "{json}"
            );
        }
    }

    #[test]
    fn issue_display_nonempty() {
        let issues = [
            ValidityIssue::TooFewQueries {
                required: 1,
                observed: 0,
            },
            ValidityIssue::RunTooShort {
                required: Nanos::from_secs(1),
                observed: Nanos::ZERO,
            },
            ValidityIssue::LatencyBoundExceeded {
                percentile: 99.0,
                bound: Nanos::from_secs(1),
                observed: Nanos::from_secs(1),
            },
            ValidityIssue::TooManySkippedIntervals {
                max_fraction: 0.01,
                observed: 0.5,
            },
            ValidityIssue::TooFewSamples {
                required: 2,
                observed: 1,
            },
            ValidityIssue::IncompleteQueries { outstanding: 1 },
            ValidityIssue::ErrorFractionExceeded {
                max_fraction: 0.0,
                observed: 1.0,
            },
        ];
        for i in issues {
            assert!(!i.to_string().is_empty());
        }
    }
}
