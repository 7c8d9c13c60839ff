//! Record: extract a [`RecordedTrace`] from a detail log.
//!
//! The recorder works on [`TraceRecord`]s — the same stream the detail
//! log, the flight recorder, and the merged/sharded logs all carry — so
//! one extractor covers every log shape the repo produces. It
//! reconstructs the *scheduled* arrival of each query (`ts_ns -
//! delay_ns` of its first `QueryIssued`), pairs it with the first
//! resolution (`QueryCompleted` or `QueryErrored`), and re-derives the
//! sample indices each query drew by replaying the QSL RNG: every
//! scenario draws `Rng64::new(qsl_seed)` sequentially in query-id
//! order, so the draw is reproducible from the seed alone. When the
//! seed is unknown the recorder substitutes a fallback draw and marks
//! the trace `synthetic_indices` so downstream consumers know the index
//! profile is representative, not faithful.

use crate::trace::{RecordedQuery, RecordedTrace};
use mlperf_loadgen::Scenario;
use mlperf_stats::Rng64;
use mlperf_trace::{TraceEvent, TraceRecord};
use std::fmt;

/// Seed for the fallback index draw when the original QSL seed is
/// unknown.
const SYNTHETIC_INDEX_SEED: u64 = 0x4D4C_5052; // "MLPR"

/// What the recorder needs beyond the log itself: context the detail
/// log does not carry.
#[derive(Debug, Clone)]
pub struct RecordOptions {
    /// QSL population the run loaded (bounds the sample indices).
    pub(crate) population: u64,
    /// The run's QSL seed, when known; enables faithful index
    /// reconstruction.
    pub(crate) qsl_seed: Option<u64>,
    /// Latency bound to embed in the trace (the log does not record it).
    pub(crate) target_latency_ns: u64,
    /// Percentile that bound applies to.
    pub(crate) target_percentile: f64,
    /// Free-form provenance label (e.g. the log path).
    pub(crate) source: String,
}

impl Default for RecordOptions {
    fn default() -> Self {
        RecordOptions {
            population: 1,
            qsl_seed: None,
            target_latency_ns: u64::MAX / 2,
            target_percentile: 99.0,
            source: String::new(),
        }
    }
}

impl RecordOptions {
    /// Options for a known population.
    #[must_use]
    pub fn for_population(population: u64) -> Self {
        RecordOptions {
            population,
            ..RecordOptions::default()
        }
    }

    /// Sets the QSL seed for faithful index reconstruction.
    #[must_use]
    pub fn with_qsl_seed(mut self, seed: u64) -> Self {
        self.qsl_seed = Some(seed);
        self
    }

    /// Sets the latency bound and percentile to embed.
    #[must_use]
    pub fn with_latency_target(mut self, bound_ns: u64, percentile: f64) -> Self {
        self.target_latency_ns = bound_ns;
        self.target_percentile = percentile;
        self
    }

    /// Sets the provenance label.
    #[must_use]
    pub fn with_source(mut self, source: impl Into<String>) -> Self {
        self.source = source.into();
        self
    }
}

/// Why a log could not be recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The log contains no issued queries.
    NoQueries,
    /// The options are unusable (zero population).
    BadOptions(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::NoQueries => write!(f, "log contains no issued queries"),
            RecordError::BadOptions(m) => write!(f, "bad record options: {m}"),
        }
    }
}

impl std::error::Error for RecordError {}

/// One issued query on its way to a [`RecordedQuery`].
struct Entry {
    id: u64,
    /// `ts_ns - delay_ns` of its first `QueryIssued`.
    scheduled: u64,
    sample_count: usize,
    /// Its first resolution: the latency, and whether it was an error.
    resolution: Option<(u64, bool)>,
    indices: Vec<u32>,
}

/// Extracts a [`RecordedTrace`] from a stream of trace records.
///
/// Accepts any detail-log content: local runs, merged multi-source logs,
/// sharded fleet logs, and flight-recorder dumps. Only LoadGen-side
/// events are consulted (`RunPhase`, `QueryIssued`, `QueryCompleted`,
/// `QueryErrored`); device- and wire-level events pass through untouched.
///
/// # Errors
///
/// [`RecordError::NoQueries`] when no `QueryIssued` event exists,
/// [`RecordError::BadOptions`] when the options are unusable.
pub fn record_trace(
    records: &[TraceRecord],
    opts: &RecordOptions,
) -> Result<RecordedTrace, RecordError> {
    if opts.population == 0 {
        return Err(RecordError::BadOptions("population is zero".into()));
    }

    let mut scenario = None;
    // `(id, scheduled, samples)` per issue and `(id, latency, errored)`
    // per resolution, in log order. Both are sized before they fill: grown
    // by doubling, they leave freed blocks that the long-lived index
    // vectors below land in, and the heap's resident size creeps up from
    // one recording to the next.
    let (mut issued, mut resolved) = (0, 0);
    for r in records {
        match r.event {
            TraceEvent::QueryIssued { .. } => issued += 1,
            TraceEvent::QueryCompleted { .. } | TraceEvent::QueryErrored { .. } => resolved += 1,
            _ => {}
        }
    }
    let mut issues: Vec<(u64, u64, usize)> = Vec::with_capacity(issued);
    let mut resolutions: Vec<(u64, u64, bool)> = Vec::with_capacity(resolved);
    for r in records {
        match &r.event {
            TraceEvent::RunPhase(run_phase) if run_phase.phase == "issue" && scenario.is_none() => {
                scenario = run_phase.scenario.parse::<Scenario>().ok();
            }
            TraceEvent::QueryIssued {
                query_id,
                sample_count,
                delay_ns,
            } => issues.push((*query_id, r.ts_ns.saturating_sub(*delay_ns), *sample_count)),
            TraceEvent::QueryCompleted {
                query_id,
                latency_ns,
            } => resolutions.push((*query_id, *latency_ns, false)),
            TraceEvent::QueryErrored {
                query_id,
                latency_ns,
            } => resolutions.push((*query_id, *latency_ns, true)),
            _ => {}
        }
    }
    // Each sorted once, stably, into query-id order — the order every
    // scenario consumes the QSL RNG in — so an id's first row is its
    // first in the log, and that is the one kept.
    issues.sort_by_key(|&(id, ..)| id);
    issues.dedup_by_key(|&mut (id, ..)| id);
    resolutions.sort_by_key(|&(id, ..)| id);
    resolutions.dedup_by_key(|&mut (id, ..)| id);
    if issues.is_empty() {
        return Err(RecordError::NoQueries);
    }

    // Re-derive indices in query-id order, each query's drawn straight
    // into its `u32`s, and pair each query with its resolution.
    // Completions without an issue record (merged logs can clip the
    // front) cannot be scheduled; they are passed over.
    let synthetic = opts.qsl_seed.is_none();
    let mut rng = Rng64::new(opts.qsl_seed.unwrap_or(SYNTHETIC_INDEX_SEED));
    let population = opts.population as usize;
    let mut resolutions = resolutions.into_iter().peekable();
    let mut entries: Vec<Entry> = issues
        .into_iter()
        .map(|(id, scheduled, sample_count)| {
            while resolutions.next_if(|&(other, ..)| other < id).is_some() {}
            Entry {
                id,
                scheduled,
                sample_count,
                resolution: resolutions
                    .next_if(|&(other, ..)| other == id)
                    .map(|(_, latency_ns, error)| (latency_ns, error)),
                indices: (0..sample_count.max(1))
                    .map(|_| rng.next_index(population) as u32)
                    .collect(),
            }
        })
        .collect();

    // Arrival order: by scheduled time, query id as the tiebreak.
    entries.sort_by_key(|e| (e.scheduled, e.id));

    let samples_per_query = entries
        .iter()
        .map(|e| e.sample_count)
        .max()
        .unwrap_or(1)
        .max(1) as u32;

    let scheduled: Vec<u64> = entries.iter().map(|e| e.scheduled).collect();
    let first = scheduled[0];
    let span_ns = scheduled.last().unwrap() - first;

    // Mean arrival rate across the recording (n-1 gaps over the span).
    let server_target_qps = if entries.len() > 1 && span_ns > 0 {
        (entries.len() as f64 - 1.0) / (span_ns as f64 / 1e9)
    } else {
        1.0
    };

    // Median positive gap stands in for the multistream interval.
    let mut gaps: Vec<u64> = scheduled
        .windows(2)
        .map(|w| w[1] - w[0])
        .filter(|&g| g > 0)
        .collect();
    gaps.sort_unstable();
    let interval_ns = if gaps.is_empty() {
        0
    } else {
        gaps[gaps.len() / 2]
    };

    let mut prev = first;
    let queries = entries
        .into_iter()
        .map(|e| {
            let delta_ns = e.scheduled - prev;
            prev = e.scheduled;
            RecordedQuery {
                delta_ns,
                // `u64::MAX` is the encoding of "never resolved": a logged
                // latency that large is kept one below it, not lost.
                latency_ns: e.resolution.map(|(ns, _)| ns.min(u64::MAX - 1)),
                error: e.resolution.is_some_and(|(_, error)| error),
                indices: e.indices,
            }
        })
        .collect();

    Ok(RecordedTrace {
        scenario: scenario.unwrap_or(Scenario::Server),
        source: opts.source.clone(),
        population: opts.population,
        samples_per_query,
        target_latency_ns: opts.target_latency_ns,
        target_percentile: opts.target_percentile,
        server_target_qps,
        // The log records no tolerance; a recording embeds none.
        max_error_fraction: 0.0,
        interval_ns,
        synthetic_indices: synthetic,
        queries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_trace::RunPhase;

    fn issue(ts_ns: u64, query_id: u64, delay_ns: u64) -> TraceRecord {
        TraceRecord {
            ts_ns,
            event: TraceEvent::QueryIssued {
                query_id,
                sample_count: 1,
                delay_ns,
            },
        }
    }

    fn complete(ts_ns: u64, query_id: u64, latency_ns: u64) -> TraceRecord {
        TraceRecord {
            ts_ns,
            event: TraceEvent::QueryCompleted {
                query_id,
                latency_ns,
            },
        }
    }

    fn phase(scenario: &str) -> TraceRecord {
        TraceRecord {
            ts_ns: 0,
            event: TraceEvent::from(RunPhase {
                phase: "issue".into(),
                scenario: scenario.into(),
            }),
        }
    }

    #[test]
    fn records_arrivals_latencies_and_scenario() {
        let records = vec![
            phase("server"),
            issue(1_000, 0, 0),
            issue(2_500, 1, 500), // scheduled at 2_000
            complete(1_400, 0, 400),
            complete(3_000, 1, 500),
        ];
        let opts = RecordOptions::for_population(8).with_qsl_seed(7);
        let trace = record_trace(&records, &opts).expect("records");
        assert_eq!(trace.scenario, Scenario::Server);
        assert!(!trace.synthetic_indices);
        assert_eq!(trace.queries.len(), 2);
        assert_eq!(trace.queries[0].delta_ns, 0);
        assert_eq!(trace.queries[1].delta_ns, 1_000); // 2_000 - 1_000
        assert_eq!(trace.queries[0].latency_ns, Some(400));
        assert_eq!(trace.queries[1].latency_ns, Some(500));
        assert!(trace.queries.iter().all(|q| q.indices.len() == 1));
        assert!(trace
            .queries
            .iter()
            .all(|q| q.indices.iter().all(|&i| i < 8)));
    }

    #[test]
    fn index_reconstruction_matches_the_qsl_rng() {
        let records = vec![phase("server"), issue(0, 0, 0), issue(100, 1, 0)];
        let opts = RecordOptions::for_population(32).with_qsl_seed(99);
        let trace = record_trace(&records, &opts).expect("records");

        let mut rng = Rng64::new(99);
        let expect0: Vec<u32> = rng
            .sample_with_replacement(32, 1)
            .into_iter()
            .map(|i| i as u32)
            .collect();
        let expect1: Vec<u32> = rng
            .sample_with_replacement(32, 1)
            .into_iter()
            .map(|i| i as u32)
            .collect();
        assert_eq!(trace.queries[0].indices, expect0);
        assert_eq!(trace.queries[1].indices, expect1);
    }

    #[test]
    fn unresolved_and_errored_queries_survive() {
        let records = vec![
            phase("server"),
            issue(0, 0, 0),
            issue(100, 1, 0),
            issue(200, 2, 0),
            TraceRecord {
                ts_ns: 300,
                event: TraceEvent::QueryErrored {
                    query_id: 1,
                    latency_ns: 200,
                },
            },
            complete(400, 0, 400),
            // Query 2 never resolves.
        ];
        let trace = record_trace(&records, &RecordOptions::for_population(4)).expect("records");
        assert!(trace.synthetic_indices);
        assert_eq!(trace.queries.len(), 3);
        assert!(!trace.queries[0].error);
        assert!(trace.queries[1].error);
        assert_eq!(trace.queries[1].latency_ns, Some(200));
        assert_eq!(trace.queries[2].latency_ns, None);
    }

    #[test]
    fn the_first_issue_and_the_first_resolution_win() {
        let records = vec![
            phase("server"),
            // A resolution may come first in a merged log, and a query
            // resolved twice keeps the first; one never issued is passed
            // over.
            complete(50, 1, 40),
            issue(1_000, 1, 100),
            issue(2_000, 1, 0),
            TraceRecord {
                ts_ns: 1_500,
                event: TraceEvent::QueryErrored {
                    query_id: 1,
                    latency_ns: 7,
                },
            },
            complete(2_100, 9, 1),
            issue(3_000, 0, 0),
            TraceRecord {
                ts_ns: 3_100,
                event: TraceEvent::QueryErrored {
                    query_id: 0,
                    latency_ns: 100,
                },
            },
            complete(3_200, 0, 200),
        ];
        let opts = RecordOptions::for_population(16).with_qsl_seed(5);
        let trace = record_trace(&records, &opts).expect("records");
        assert_eq!(trace.queries.len(), 2);
        // Query 1 was scheduled at 900 by its first issue, query 0 at 3_000.
        assert_eq!(trace.arrivals(), vec![0, 2_100]);
        assert_eq!(trace.queries[0].latency_ns, Some(40));
        assert!(!trace.queries[0].error);
        assert_eq!(trace.queries[1].latency_ns, Some(100));
        assert!(trace.queries[1].error);
        // Indices are drawn in query-id order: query 0's first.
        let mut rng = Rng64::new(5);
        let first = rng.next_index(16) as u32;
        let second = rng.next_index(16) as u32;
        assert_eq!(trace.queries[1].indices, vec![first]);
        assert_eq!(trace.queries[0].indices, vec![second]);
    }

    #[test]
    fn empty_log_is_an_error() {
        assert_eq!(
            record_trace(&[phase("server")], &RecordOptions::for_population(4)),
            Err(RecordError::NoQueries)
        );
        assert_eq!(
            record_trace(&[issue(0, 0, 0)], &RecordOptions::for_population(0)),
            Err(RecordError::BadOptions("population is zero".into()))
        );
    }

    #[test]
    fn out_of_order_merged_logs_sort_by_scheduled_time() {
        // Shard-merged logs interleave; ids arrive out of schedule order.
        let records = vec![
            phase("multistream"),
            issue(5_000, 3, 0),
            issue(1_000, 0, 0),
            issue(3_000, 2, 0),
            issue(2_000, 1, 0),
        ];
        let trace = record_trace(&records, &RecordOptions::for_population(4)).expect("records");
        assert_eq!(trace.scenario, Scenario::MultiStream);
        let arrivals = trace.arrivals();
        assert_eq!(arrivals, vec![0, 1_000, 2_000, 4_000]);
    }
}
