//! The four evaluation scenarios (Table II).

use mlperf_trace::{FromJson, JsonError, JsonValue, ToJson};

/// An MLPerf Inference scenario.
///
/// Each one targets a real-world use case surveyed from the consortium's
/// membership: single-stream for latency-critical client apps, multistream
/// for fixed-rate multi-camera pipelines, server for Poisson web traffic,
/// and offline for throughput-oriented batch processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// One query at a time; next issued on completion. Metric: 90th-
    /// percentile latency.
    SingleStream,
    /// Queries of N samples at a fixed arrival interval with skipping.
    /// Metric: number of streams N subject to the latency bound.
    MultiStream,
    /// Poisson arrivals, one sample per query. Metric: achievable QPS
    /// subject to the latency bound.
    Server,
    /// One query with every sample, latency unconstrained. Metric:
    /// throughput in samples/second.
    Offline,
}

impl Scenario {
    /// All scenarios in Table II order.
    pub const ALL: [Scenario; 4] = [
        Scenario::SingleStream,
        Scenario::MultiStream,
        Scenario::Server,
        Scenario::Offline,
    ];

    /// The scenario's byte in binary formats (wire `Hello`, `MLPR`
    /// header): its position in [`Scenario::ALL`].
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The scenario a [`Scenario::tag`] byte names, if any.
    pub fn from_tag(tag: u8) -> Option<Scenario> {
        Self::ALL.get(usize::from(tag)).copied()
    }

    /// The canonical short code used in the paper's figures (SS/MS/S/O).
    pub fn code(&self) -> &'static str {
        match self {
            Scenario::SingleStream => "SS",
            Scenario::MultiStream => "MS",
            Scenario::Server => "S",
            Scenario::Offline => "O",
        }
    }

    /// Table II "query generation" column.
    pub fn query_generation(&self) -> &'static str {
        match self {
            Scenario::SingleStream => "sequential",
            Scenario::MultiStream => "arrival interval with dropping",
            Scenario::Server => "Poisson distribution",
            Scenario::Offline => "batch",
        }
    }

    /// Table II "metric" column.
    pub fn metric_name(&self) -> &'static str {
        match self {
            Scenario::SingleStream => "90th-percentile latency",
            Scenario::MultiStream => "number of streams subject to latency bound",
            Scenario::Server => "queries per second subject to latency bound",
            Scenario::Offline => "throughput",
        }
    }

    /// Table II "samples/query" column.
    pub fn samples_per_query_desc(&self) -> &'static str {
        match self {
            Scenario::SingleStream | Scenario::Server => "1",
            Scenario::MultiStream => "N",
            Scenario::Offline => "at least 24,576",
        }
    }

    /// Table II "examples" column.
    pub fn example_use(&self) -> &'static str {
        match self {
            Scenario::SingleStream => "typing autocomplete, real-time AR",
            Scenario::MultiStream => "multicamera driver assistance, large-scale automation",
            Scenario::Server => "translation website",
            Scenario::Offline => "photo categorization",
        }
    }

    /// Whether the scenario enforces a latency bound on each query.
    pub fn latency_constrained(&self) -> bool {
        matches!(self, Scenario::MultiStream | Scenario::Server)
    }
}

impl ToJson for Scenario {
    fn to_json_value(&self) -> JsonValue {
        let name = match self {
            Scenario::SingleStream => "SingleStream",
            Scenario::MultiStream => "MultiStream",
            Scenario::Server => "Server",
            Scenario::Offline => "Offline",
        };
        JsonValue::Str(name.into())
    }
}

impl FromJson for Scenario {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        match value.as_str()? {
            "SingleStream" => Ok(Scenario::SingleStream),
            "MultiStream" => Ok(Scenario::MultiStream),
            "Server" => Ok(Scenario::Server),
            "Offline" => Ok(Scenario::Offline),
            other => Err(JsonError::new(format!("unknown scenario {other:?}"))),
        }
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Scenario::SingleStream => "single-stream",
            Scenario::MultiStream => "multistream",
            Scenario::Server => "server",
            Scenario::Offline => "offline",
        };
        f.write_str(name)
    }
}

impl std::str::FromStr for Scenario {
    type Err = ParseScenarioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "singlestream" | "single-stream" | "ss" => Ok(Scenario::SingleStream),
            "multistream" | "multi-stream" | "ms" => Ok(Scenario::MultiStream),
            "server" | "s" => Ok(Scenario::Server),
            "offline" | "o" => Ok(Scenario::Offline),
            _ => Err(ParseScenarioError(s.to_string())),
        }
    }
}

/// Error from parsing a scenario name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScenarioError(String);

impl std::fmt::Display for ParseScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown scenario {:?}", self.0)
    }
}

impl std::error::Error for ParseScenarioError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_match_paper_figures() {
        assert_eq!(Scenario::SingleStream.code(), "SS");
        assert_eq!(Scenario::MultiStream.code(), "MS");
        assert_eq!(Scenario::Server.code(), "S");
        assert_eq!(Scenario::Offline.code(), "O");
    }

    /// The tags are bytes on the wire and in committed `MLPR` fixtures.
    #[test]
    fn tags_are_pinned_and_round_trip() {
        let tags: Vec<u8> = Scenario::ALL.iter().map(|s| s.tag()).collect();
        assert_eq!(tags, [0, 1, 2, 3]);
        for scenario in Scenario::ALL {
            assert_eq!(Scenario::from_tag(scenario.tag()), Some(scenario));
        }
        assert_eq!(Scenario::from_tag(4), None);
    }

    #[test]
    fn table_ii_metadata_present() {
        for s in Scenario::ALL {
            assert!(!s.query_generation().is_empty());
            assert!(!s.metric_name().is_empty());
            assert!(!s.samples_per_query_desc().is_empty());
            assert!(!s.example_use().is_empty());
        }
    }

    #[test]
    fn latency_constraints() {
        assert!(!Scenario::SingleStream.latency_constrained());
        assert!(Scenario::MultiStream.latency_constrained());
        assert!(Scenario::Server.latency_constrained());
        assert!(!Scenario::Offline.latency_constrained());
    }

    #[test]
    fn json_roundtrip() {
        for s in Scenario::ALL {
            let json = s.to_json_string();
            assert_eq!(Scenario::from_json_str(&json).unwrap(), s);
        }
        assert_eq!(Scenario::Server.to_json_string(), "\"Server\"");
    }

    #[test]
    fn parse_roundtrip() {
        for s in Scenario::ALL {
            assert_eq!(s.to_string().parse::<Scenario>().unwrap(), s);
            assert_eq!(s.code().parse::<Scenario>().unwrap(), s);
        }
        assert!("bogus".parse::<Scenario>().is_err());
    }
}
