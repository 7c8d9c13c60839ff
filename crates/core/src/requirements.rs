//! Table V: query and sample requirements per task and scenario.
//!
//! The minimum query counts derive from the Table IV confidence math: the
//! scenario's QoS percentile determines the rounded query count. Vision
//! tasks guarantee the 99th percentile (270,336 queries); translation
//! guarantees the 97th (90,112, "90K"); single-stream always runs 1,024
//! queries; offline runs one query of at least 24,576 samples.

use crate::scenario::Scenario;
use mlperf_stats::confidence::{QueryCountPlan, TailLatency};

/// The QoS tail-latency class of a task (vision vs translation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosClass {
    /// Vision tasks: 99th-percentile guarantee, ≤1% overlatency.
    Vision,
    /// Translation: 97th-percentile guarantee, ≤3% overlatency.
    Translation,
}

impl QosClass {
    /// The tail-latency percentile guaranteed for this class.
    pub fn tail_latency(&self) -> TailLatency {
        match self {
            QosClass::Vision => TailLatency::P99,
            QosClass::Translation => TailLatency::P97,
        }
    }
}

/// Minimum queries for a task class in a scenario (Table V, left of "/").
pub fn min_query_count(scenario: Scenario, qos: QosClass) -> u64 {
    match scenario {
        Scenario::SingleStream => 1_024,
        Scenario::MultiStream | Scenario::Server => {
            QueryCountPlan::paper_default(qos.tail_latency()).rounded_queries()
        }
        Scenario::Offline => 1,
    }
}

/// Minimum samples in the single offline query (Table V, right of "/").
pub const OFFLINE_MIN_SAMPLES: u64 = 24_576;

/// Minimum run duration for every benchmark (Section III-D).
pub const MIN_DURATION_SECS: u64 = 60;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_v_vision_row() {
        assert_eq!(
            min_query_count(Scenario::SingleStream, QosClass::Vision),
            1_024
        );
        assert_eq!(
            min_query_count(Scenario::MultiStream, QosClass::Vision),
            270_336
        );
        assert_eq!(min_query_count(Scenario::Server, QosClass::Vision), 270_336);
        assert_eq!(min_query_count(Scenario::Offline, QosClass::Vision), 1);
    }

    #[test]
    fn table_v_translation_row() {
        assert_eq!(
            min_query_count(Scenario::Server, QosClass::Translation),
            90_112
        );
        assert_eq!(
            min_query_count(Scenario::MultiStream, QosClass::Translation),
            90_112
        );
    }

    #[test]
    fn offline_constant() {
        assert_eq!(OFFLINE_MIN_SAMPLES, 24_576);
        assert_eq!(MIN_DURATION_SECS, 60);
    }
}
