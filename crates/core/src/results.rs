//! Run results: the scenario metric plus supporting statistics.

use crate::scenario::Scenario;
use crate::time::Nanos;
use crate::validate::ValidityIssue;
use mlperf_trace::{FromJson, JsonError, JsonValue, ToJson};

/// Distribution of per-query latencies over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Fastest query.
    pub min: Nanos,
    /// Arithmetic mean.
    pub mean: Nanos,
    /// Median.
    pub p50: Nanos,
    /// 90th percentile (nearest rank).
    pub p90: Nanos,
    /// 97th percentile.
    pub p97: Nanos,
    /// 99th percentile.
    pub p99: Nanos,
    /// 99.9th percentile — one level deeper into the tail than the Server
    /// scenario's p99 bound, where queueing pathologies first show up.
    pub p999: Nanos,
    /// Slowest query.
    pub max: Nanos,
}

impl LatencyStats {
    /// Computes stats from raw latencies; `None` when empty.
    ///
    /// Percentiles use the same nearest-rank rule as the validity checks —
    /// see [`nearest_rank`](crate::validate::nearest_rank) for the
    /// tie-breaking and rounding documentation.
    pub fn from_latencies(latencies: &[Nanos]) -> Option<Self> {
        if latencies.is_empty() {
            return None;
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable();
        let pick = |p: f64| crate::validate::nearest_rank(&sorted, p).expect("non-empty");
        let sum: u128 = sorted.iter().map(|l| u128::from(l.as_nanos())).sum();
        Some(Self {
            min: sorted[0],
            mean: Nanos::from_nanos((sum / sorted.len() as u128) as u64),
            p50: pick(0.50),
            p90: pick(0.90),
            p97: pick(0.97),
            p99: pick(0.99),
            p999: pick(0.999),
            max: *sorted.last().expect("non-empty"),
        })
    }
}

impl ToJson for LatencyStats {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("min", self.min.to_json_value()),
            ("mean", self.mean.to_json_value()),
            ("p50", self.p50.to_json_value()),
            ("p90", self.p90.to_json_value()),
            ("p97", self.p97.to_json_value()),
            ("p99", self.p99.to_json_value()),
            ("p999", self.p999.to_json_value()),
            ("max", self.max.to_json_value()),
        ])
    }
}

impl FromJson for LatencyStats {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(LatencyStats {
            min: Nanos::from_json_value(value.field("min")?)?,
            mean: Nanos::from_json_value(value.field("mean")?)?,
            p50: Nanos::from_json_value(value.field("p50")?)?,
            p90: Nanos::from_json_value(value.field("p90")?)?,
            p97: Nanos::from_json_value(value.field("p97")?)?,
            p99: Nanos::from_json_value(value.field("p99")?)?,
            p999: Nanos::from_json_value(value.field("p999")?)?,
            max: Nanos::from_json_value(value.field("max")?)?,
        })
    }
}

/// The scenario's headline metric (Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioMetric {
    /// Single-stream: 90th-percentile query latency.
    SingleStream {
        /// p90 latency.
        p90_latency: Nanos,
    },
    /// Multistream: supported streams at the QoS bound.
    MultiStream {
        /// Samples per query the run was performed at.
        streams: usize,
        /// Fraction of queries that caused skipped intervals.
        skip_fraction: f64,
    },
    /// Server: achieved Poisson parameter.
    Server {
        /// Queries per second sustained.
        qps: f64,
        /// Fraction of queries over the latency bound.
        overlatency_fraction: f64,
    },
    /// Offline: batch throughput.
    Offline {
        /// Samples per second.
        samples_per_second: f64,
    },
}

impl ScenarioMetric {
    /// A scalar view of the metric for cross-system comparison plots
    /// (Figure 8 normalizes these per scenario). Latencies invert so that
    /// larger is always better.
    pub fn score(&self) -> f64 {
        match self {
            ScenarioMetric::SingleStream { p90_latency } => {
                1.0 / p90_latency.as_secs_f64().max(1e-12)
            }
            ScenarioMetric::MultiStream { streams, .. } => *streams as f64,
            ScenarioMetric::Server { qps, .. } => *qps,
            ScenarioMetric::Offline { samples_per_second } => *samples_per_second,
        }
    }
}

impl ToJson for ScenarioMetric {
    fn to_json_value(&self) -> JsonValue {
        let (name, payload) = match self {
            ScenarioMetric::SingleStream { p90_latency } => (
                "SingleStream",
                JsonValue::object(vec![("p90_latency", p90_latency.to_json_value())]),
            ),
            ScenarioMetric::MultiStream {
                streams,
                skip_fraction,
            } => (
                "MultiStream",
                JsonValue::object(vec![
                    ("streams", streams.to_json_value()),
                    ("skip_fraction", skip_fraction.to_json_value()),
                ]),
            ),
            ScenarioMetric::Server {
                qps,
                overlatency_fraction,
            } => (
                "Server",
                JsonValue::object(vec![
                    ("qps", qps.to_json_value()),
                    ("overlatency_fraction", overlatency_fraction.to_json_value()),
                ]),
            ),
            ScenarioMetric::Offline { samples_per_second } => (
                "Offline",
                JsonValue::object(vec![(
                    "samples_per_second",
                    samples_per_second.to_json_value(),
                )]),
            ),
        };
        JsonValue::object(vec![(name, payload)])
    }
}

impl FromJson for ScenarioMetric {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        let (name, p) = value.as_variant()?;
        match name {
            "SingleStream" => Ok(ScenarioMetric::SingleStream {
                p90_latency: Nanos::from_json_value(p.field("p90_latency")?)?,
            }),
            "MultiStream" => Ok(ScenarioMetric::MultiStream {
                streams: p.field("streams")?.as_usize()?,
                skip_fraction: p.field("skip_fraction")?.as_f64()?,
            }),
            "Server" => Ok(ScenarioMetric::Server {
                qps: p.field("qps")?.as_f64()?,
                overlatency_fraction: p.field("overlatency_fraction")?.as_f64()?,
            }),
            "Offline" => Ok(ScenarioMetric::Offline {
                samples_per_second: p.field("samples_per_second")?.as_f64()?,
            }),
            other => Err(JsonError::new(format!("unknown metric variant {other:?}"))),
        }
    }
}

impl std::fmt::Display for ScenarioMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioMetric::SingleStream { p90_latency } => {
                write!(f, "p90 latency {p90_latency}")
            }
            ScenarioMetric::MultiStream { streams, .. } => write!(f, "{streams} streams"),
            ScenarioMetric::Server { qps, .. } => write!(f, "{qps:.2} QPS"),
            ScenarioMetric::Offline { samples_per_second } => {
                write!(f, "{samples_per_second:.2} samples/s")
            }
        }
    }
}

/// The outcome of one LoadGen run.
#[derive(Debug, Clone, PartialEq)]
pub struct TestResult {
    /// SUT name (from the SUT trait).
    pub sut_name: String,
    /// QSL name.
    pub qsl_name: String,
    /// Scenario run.
    pub scenario: Scenario,
    /// Whether this was a performance or accuracy run.
    pub performance_mode: bool,
    /// The headline metric.
    pub metric: ScenarioMetric,
    /// Latency distribution (absent if nothing completed).
    pub latency_stats: Option<LatencyStats>,
    /// Queries issued.
    pub query_count: u64,
    /// Queries that resolved as errors/drops.
    pub error_count: u64,
    /// Samples completed.
    pub sample_count: u64,
    /// Time from first issue to last completion.
    pub duration: Nanos,
    /// Rule violations; empty means the run is VALID.
    pub validity: Vec<ValidityIssue>,
}

impl TestResult {
    /// Whether the run satisfied every rule.
    pub fn is_valid(&self) -> bool {
        self.validity.is_empty()
    }

    /// One-line human-readable summary, in the spirit of the LoadGen's
    /// summary log.
    pub fn summary_line(&self) -> String {
        format!(
            "{} | {} | {} | {} | {} | {} queries, {} samples in {} | {}",
            self.sut_name,
            self.qsl_name,
            self.scenario,
            if self.performance_mode {
                "performance"
            } else {
                "accuracy"
            },
            self.metric,
            self.query_count,
            self.sample_count,
            self.duration,
            if self.is_valid() { "VALID" } else { "INVALID" },
        )
    }
}

impl ToJson for TestResult {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("sut_name", self.sut_name.to_json_value()),
            ("qsl_name", self.qsl_name.to_json_value()),
            ("scenario", self.scenario.to_json_value()),
            ("performance_mode", self.performance_mode.to_json_value()),
            ("metric", self.metric.to_json_value()),
            ("latency_stats", self.latency_stats.to_json_value()),
            ("query_count", self.query_count.to_json_value()),
            ("error_count", self.error_count.to_json_value()),
            ("sample_count", self.sample_count.to_json_value()),
            ("duration", self.duration.to_json_value()),
            ("validity", self.validity.to_json_value()),
        ])
    }
}

impl FromJson for TestResult {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(TestResult {
            sut_name: value.field("sut_name")?.as_str()?.to_string(),
            qsl_name: value.field("qsl_name")?.as_str()?.to_string(),
            scenario: Scenario::from_json_value(value.field("scenario")?)?,
            performance_mode: value.field("performance_mode")?.as_bool()?,
            metric: ScenarioMetric::from_json_value(value.field("metric")?)?,
            latency_stats: Option::from_json_value(value.field("latency_stats")?)?,
            query_count: value.field("query_count")?.as_u64()?,
            error_count: value.field("error_count")?.as_u64()?,
            sample_count: value.field("sample_count")?.as_u64()?,
            duration: Nanos::from_json_value(value.field("duration")?)?,
            validity: Vec::from_json_value(value.field("validity")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat(ms: &[u64]) -> Vec<Nanos> {
        ms.iter().map(|m| Nanos::from_millis(*m)).collect()
    }

    #[test]
    fn latency_stats_hand_checked() {
        let stats = LatencyStats::from_latencies(&lat(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10])).unwrap();
        assert_eq!(stats.min, Nanos::from_millis(1));
        assert_eq!(stats.max, Nanos::from_millis(10));
        assert_eq!(stats.p50, Nanos::from_millis(5));
        assert_eq!(stats.p90, Nanos::from_millis(9));
        assert_eq!(stats.p99, Nanos::from_millis(10));
        assert_eq!(stats.p999, Nanos::from_millis(10));
        assert_eq!(stats.mean, Nanos::from_micros(5_500));
    }

    #[test]
    fn latency_stats_empty_is_none() {
        assert!(LatencyStats::from_latencies(&[]).is_none());
    }

    #[test]
    fn scores_larger_is_better() {
        let fast = ScenarioMetric::SingleStream {
            p90_latency: Nanos::from_millis(1),
        };
        let slow = ScenarioMetric::SingleStream {
            p90_latency: Nanos::from_millis(10),
        };
        assert!(fast.score() > slow.score());
        assert_eq!(
            ScenarioMetric::Offline {
                samples_per_second: 5.0
            }
            .score(),
            5.0
        );
        assert_eq!(
            ScenarioMetric::MultiStream {
                streams: 7,
                skip_fraction: 0.0
            }
            .score(),
            7.0
        );
    }

    #[test]
    fn summary_line_reports_validity() {
        let result = TestResult {
            sut_name: "sut".into(),
            qsl_name: "qsl".into(),
            scenario: Scenario::Server,
            performance_mode: true,
            metric: ScenarioMetric::Server {
                qps: 12.5,
                overlatency_fraction: 0.0,
            },
            latency_stats: None,
            query_count: 100,
            error_count: 0,
            sample_count: 400,
            duration: Nanos::from_secs(61),
            validity: vec![],
        };
        let line = result.summary_line();
        assert!(line.contains("VALID"));
        assert!(
            line.contains("| 12.50 QPS | 100 queries, 400 samples in"),
            "{line}"
        );
        assert!(result.is_valid());
    }

    #[test]
    fn result_without_error_count_is_an_error() {
        let result = TestResult {
            sut_name: "sut".into(),
            qsl_name: "qsl".into(),
            scenario: Scenario::Offline,
            performance_mode: true,
            metric: ScenarioMetric::Offline {
                samples_per_second: 10.0,
            },
            latency_stats: None,
            query_count: 1,
            error_count: 3,
            sample_count: 100,
            duration: Nanos::from_secs(61),
            validity: vec![],
        };
        let json = result.to_json_string();
        assert_eq!(TestResult::from_json_str(&json).unwrap(), result);
        let legacy = json.replace("\"error_count\":3,", "");
        assert_ne!(legacy, json, "the field was in the rendering");
        assert!(TestResult::from_json_str(&legacy).is_err());
    }

    #[test]
    fn latency_stats_without_p999_is_an_error() {
        let full = r#"{"min":1,"mean":2,"p50":2,"p90":3,"p97":4,"p99":5,"p999":6,"max":6}"#;
        assert_eq!(
            LatencyStats::from_json_str(full).unwrap().p999,
            Nanos::from_nanos(6)
        );
        let legacy = r#"{"min":1,"mean":2,"p50":2,"p90":3,"p97":4,"p99":5,"max":6}"#;
        assert!(LatencyStats::from_json_str(legacy).is_err());
    }

    #[test]
    fn metric_display() {
        assert!(ScenarioMetric::SingleStream {
            p90_latency: Nanos::from_millis(2)
        }
        .to_string()
        .contains("p90"));
        assert_eq!(
            ScenarioMetric::MultiStream {
                streams: 4,
                skip_fraction: 0.0
            }
            .to_string(),
            "4 streams"
        );
    }
}
