//! System-under-test interfaces.
//!
//! The benchmark deliberately treats the SUT as a black box (Section IV-A):
//! the LoadGen hands it queries and receives completions, nothing more. Two
//! flavours exist here:
//!
//! * [`SimSut`] — event-driven co-simulation. The SUT is called at query
//!   arrival (and at self-requested wakeups) and answers with completions
//!   carrying *future* timestamps plus an optional next wakeup. This is
//!   expressive enough for FIFO devices, timeout-based dynamic batchers, and
//!   multi-accelerator dispatchers, and it lets a 270K-query run finish in
//!   milliseconds of wall time.
//! * [`RealtimeSut`] — a blocking wall-clock interface mirroring how the C++
//!   LoadGen drives real systems; used by the realtime runner and tests.

use crate::query::{Query, QueryCompletion, ResponsePayload, SampleCompletion};
use crate::time::Nanos;

/// What a [`SimSut`] does in response to an event.
#[derive(Debug, Clone, Default)]
pub struct SutReaction {
    /// Completions, each stamped with a finish time `>= now`.
    pub completions: Vec<QueryCompletion>,
    /// If set, the simulator calls [`SimSut::on_wakeup`] at this time
    /// (unless superseded by a later reaction's request).
    pub wakeup_at: Option<Nanos>,
}

impl SutReaction {
    /// A reaction with no completions and no wakeup.
    pub fn none() -> Self {
        Self::default()
    }

    /// A reaction completing one query.
    pub fn complete(completion: QueryCompletion) -> Self {
        Self {
            completions: vec![completion],
            wakeup_at: None,
        }
    }
}

/// An event-driven simulated system under test.
pub trait SimSut {
    /// Name for logs and reports.
    fn name(&self) -> &str;

    /// Called when the LoadGen issues `query` at simulated time `now`.
    fn on_query(&mut self, now: Nanos, query: &Query) -> SutReaction;

    /// Called at a previously requested wakeup time.
    fn on_wakeup(&mut self, _now: Nanos) -> SutReaction {
        SutReaction::none()
    }

    /// Resets internal state between runs (FindPeakPerformance reruns the
    /// same SUT at different target rates).
    fn reset(&mut self) {}
}

/// A deterministic serial SUT that spends a fixed time per sample — the
/// simplest legal device, used throughout the tests.
///
/// # Examples
///
/// ```
/// use mlperf_loadgen::sut::{FixedLatencySut, SimSut};
/// use mlperf_loadgen::query::{Query, QuerySample};
/// use mlperf_loadgen::time::Nanos;
///
/// let mut sut = FixedLatencySut::new("fixed", Nanos::from_micros(100));
/// let q = Query { id: 0, samples: vec![QuerySample { id: 0, index: 3 }],
///                 scheduled_at: Nanos::ZERO, tenant: 0 };
/// let r = sut.on_query(Nanos::ZERO, &q);
/// assert_eq!(r.completions[0].finished_at, Nanos::from_micros(100));
/// ```
#[derive(Debug, Clone)]
pub struct FixedLatencySut {
    name: String,
    per_sample: Nanos,
    busy_until: Nanos,
    classes: Option<usize>,
}

impl FixedLatencySut {
    /// Creates a SUT that takes `per_sample` per sample, serially.
    pub fn new(name: &str, per_sample: Nanos) -> Self {
        Self {
            name: name.to_string(),
            per_sample,
            busy_until: Nanos::ZERO,
            classes: None,
        }
    }

    /// Makes the SUT return `Class(index % classes)` payloads, handy for
    /// accuracy-pipeline tests.
    pub fn with_class_payloads(mut self, classes: usize) -> Self {
        self.classes = Some(classes.max(1));
        self
    }

    fn payload(&self, index: usize) -> ResponsePayload {
        match self.classes {
            Some(c) => ResponsePayload::Class(index % c),
            None => ResponsePayload::Empty,
        }
    }
}

impl SimSut for FixedLatencySut {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_query(&mut self, now: Nanos, query: &Query) -> SutReaction {
        let start = now.max(self.busy_until);
        let finish = start + self.per_sample.mul(query.sample_count() as u64);
        self.busy_until = finish;
        SutReaction::complete(QueryCompletion::ok(
            query.id,
            finish,
            query
                .samples
                .iter()
                .map(|s| SampleCompletion {
                    sample_id: s.id,
                    payload: self.payload(s.index),
                })
                .collect(),
        ))
    }

    fn reset(&mut self) {
        self.busy_until = Nanos::ZERO;
    }
}

/// How a [`RealtimeSut::issue_outcome`] call resolved.
///
/// In-process SUTs always answer; a *network* SUT (the wire extension) can
/// also fail structurally, and the realtime issue loop must tell those
/// failures apart so a broken transport surfaces as an INVALID verdict
/// instead of a hang:
///
/// * [`Completed`](IssueOutcome::Completed) — the normal path.
/// * [`Errored`](IssueOutcome::Errored) — the SUT provably misbehaved on
///   this query (remote error report, corrupt frame, heartbeat loss on a
///   live socket). Recorded as an errored completion, counted against
///   [`max_error_fraction`].
/// * [`Vanished`](IssueOutcome::Vanished) — the query was never resolved
///   at all (a response timeout on a live connection, or a hard
///   disconnect with the query in flight and no resume). Left outstanding
///   in the recorder, so it trips the `IncompleteQueries` validity rule
///   and the TEST06 completeness audit.
///
/// [`max_error_fraction`]: crate::config::TestSettings::max_error_fraction
#[derive(Debug, Clone, PartialEq)]
pub enum IssueOutcome {
    /// Per-sample completions for a successfully answered query.
    Completed(Vec<SampleCompletion>),
    /// The query resolved as an error/drop; no usable payloads.
    Errored,
    /// The query was never resolved; it stays outstanding.
    Vanished,
}

impl IssueOutcome {
    /// What [`RealtimeSut::issue`], which has no failure channel, returns
    /// for this outcome of `query`: the completions, or one empty-payload
    /// completion per sample of an errored or vanished query, so the
    /// recorder's sample-id checks still hold. The wall-clock loop calls
    /// `issue_outcome` and never takes the second branch.
    pub fn into_samples(self, query: &Query) -> Vec<SampleCompletion> {
        match self {
            IssueOutcome::Completed(samples) => samples,
            IssueOutcome::Errored | IssueOutcome::Vanished => query
                .samples
                .iter()
                .map(|s| SampleCompletion {
                    sample_id: s.id,
                    payload: ResponsePayload::Empty,
                })
                .collect(),
        }
    }
}

/// A blocking wall-clock system under test.
///
/// Implementations must be internally synchronized: the server-scenario
/// runner invokes `issue` from multiple worker threads concurrently.
pub trait RealtimeSut: Send + Sync {
    /// Name for logs and reports.
    fn name(&self) -> &str;

    /// Runs inference on the query, blocking until complete, and returns
    /// per-sample completions.
    fn issue(&self, query: &Query) -> Vec<SampleCompletion>;

    /// Like [`issue`](RealtimeSut::issue), but able to report structural
    /// failure. The realtime issue loop calls this; the default wraps
    /// `issue`, which cannot fail, so in-process SUTs need not override it.
    fn issue_outcome(&self, query: &Query) -> IssueOutcome {
        IssueOutcome::Completed(self.issue(query))
    }
}

/// A wall-clock SUT that sleeps a fixed time per sample.
#[derive(Debug, Clone)]
pub struct SleepSut {
    name: String,
    per_sample: std::time::Duration,
}

impl SleepSut {
    /// Creates a SUT that sleeps `per_sample` for each sample of a query.
    pub fn new(name: &str, per_sample: std::time::Duration) -> Self {
        Self {
            name: name.to_string(),
            per_sample,
        }
    }
}

impl RealtimeSut for SleepSut {
    fn name(&self) -> &str {
        &self.name
    }

    fn issue(&self, query: &Query) -> Vec<SampleCompletion> {
        std::thread::sleep(self.per_sample * query.sample_count() as u32);
        query
            .samples
            .iter()
            .map(|s| SampleCompletion {
                sample_id: s.id,
                payload: ResponsePayload::Empty,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QuerySample;

    fn query(id: u64, samples: usize) -> Query {
        Query {
            id,
            samples: (0..samples)
                .map(|i| QuerySample {
                    id: id * 100 + i as u64,
                    index: i,
                })
                .collect(),
            scheduled_at: Nanos::ZERO,
            tenant: 0,
        }
    }

    #[test]
    fn fixed_latency_serializes_queries() {
        let mut sut = FixedLatencySut::new("t", Nanos::from_micros(10));
        let r1 = sut.on_query(Nanos::ZERO, &query(0, 1));
        let r2 = sut.on_query(Nanos::from_micros(2), &query(1, 1));
        assert_eq!(r1.completions[0].finished_at, Nanos::from_micros(10));
        // Second query queues behind the first.
        assert_eq!(r2.completions[0].finished_at, Nanos::from_micros(20));
    }

    #[test]
    fn fixed_latency_scales_with_samples() {
        let mut sut = FixedLatencySut::new("t", Nanos::from_micros(10));
        let r = sut.on_query(Nanos::ZERO, &query(0, 5));
        assert_eq!(r.completions[0].finished_at, Nanos::from_micros(50));
        assert_eq!(r.completions[0].samples.len(), 5);
    }

    #[test]
    fn reset_clears_backlog() {
        let mut sut = FixedLatencySut::new("t", Nanos::from_micros(10));
        sut.on_query(Nanos::ZERO, &query(0, 100));
        sut.reset();
        let r = sut.on_query(Nanos::ZERO, &query(1, 1));
        assert_eq!(r.completions[0].finished_at, Nanos::from_micros(10));
    }

    #[test]
    fn class_payloads() {
        let mut sut = FixedLatencySut::new("t", Nanos::from_micros(1)).with_class_payloads(3);
        let r = sut.on_query(Nanos::ZERO, &query(0, 4));
        assert_eq!(
            r.completions[0].samples[2].payload,
            ResponsePayload::Class(2)
        );
        assert_eq!(
            r.completions[0].samples[3].payload,
            ResponsePayload::Class(0)
        );
    }

    #[test]
    fn default_wakeup_is_none() {
        let mut sut = FixedLatencySut::new("t", Nanos::from_micros(1));
        let r = SimSut::on_wakeup(&mut sut, Nanos::ZERO);
        assert!(r.completions.is_empty());
        assert!(r.wakeup_at.is_none());
    }

    #[test]
    fn sleep_sut_completes_all_samples() {
        let sut = SleepSut::new("s", std::time::Duration::from_micros(1));
        let out = sut.issue(&query(0, 3));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn default_issue_outcome_wraps_issue() {
        let sut = SleepSut::new("s", std::time::Duration::ZERO);
        match sut.issue_outcome(&query(0, 2)) {
            IssueOutcome::Completed(samples) => assert_eq!(samples.len(), 2),
            other => panic!("default must complete, got {other:?}"),
        }
    }
}
