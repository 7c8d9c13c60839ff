//! Queries, samples, and responses.

use crate::time::Nanos;
use mlperf_trace::byte_layout;

/// Identifier of an issued query, unique within one run.
pub type QueryId = u64;

/// Index of a sample within the data set.
pub type SampleIndex = usize;

byte_layout! {
    /// One sample reference inside a query.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct QuerySample {
        /// Response-tracking id, unique per sample per run.
        pub id: u64,
        /// Which data-set sample to run inference on.
        pub index: SampleIndex,
    }
}

byte_layout! {
    /// A query: "a request for inference on one or more samples" (Section IV-B).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Query {
        /// The query id.
        pub id: QueryId,
        /// When the LoadGen scheduled the query (the latency reference point).
        pub scheduled_at: Nanos,
        /// Always 0: a run drives one query stream. The field stays because
        /// the wire's `IssueTraced` frame carries it (the literal-frame pin
        /// holds those bytes) and the benchmark builds `Query` literals with
        /// it.
        pub tenant: u32,
        /// The samples composing the query. Contiguous in memory by rule for
        /// multistream/offline; here that is represented by the samples sharing
        /// one `Vec`.
        pub samples: Vec<QuerySample>,
    }
}

impl Query {
    /// Number of samples in the query.
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }
}

byte_layout! {
    /// Task-specific inference output carried back for accuracy checking.
    ///
    /// The LoadGen does not interpret payloads; it logs them (always in accuracy
    /// mode, randomly sampled in performance mode for the accuracy-verification
    /// audit) and the task's accuracy script scores them. Wire completions and
    /// run-journal accuracy entries share its one layout.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub enum ResponsePayload: "payload" {
        /// No payload (performance mode default).
        #[default]
        Empty = 0,
        /// Classification: predicted class index.
        Class(usize) = 1,
        /// Detection: `(class, score, [x1, y1, x2, y2])` per box.
        Boxes(Vec<(usize, f32, [f32; 4])>) = 2,
        /// Translation: output token ids.
        Tokens(Vec<u32>) = 3,
    }
}

impl ResponsePayload {
    /// Whether the payload carries data.
    pub fn is_empty(&self) -> bool {
        matches!(self, ResponsePayload::Empty)
    }
}

byte_layout! {
    /// Completion of one sample of a query, reported by the SUT.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SampleCompletion {
        /// The sample's response id (must echo [`QuerySample::id`]).
        pub sample_id: u64,
        /// Inference output for accuracy checking.
        pub payload: ResponsePayload,
    }
}

/// Completion of a whole query at a point in simulated/wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCompletion {
    /// The completed query.
    pub query_id: QueryId,
    /// When the SUT finished the query.
    pub finished_at: Nanos,
    /// Per-sample completions (must cover every sample of the query).
    pub samples: Vec<SampleCompletion>,
    /// The query resolved as an error/drop instead of an answer. Errored
    /// completions still echo every sample id (so the protocol checks hold
    /// and every scenario loop terminates), but their payloads are
    /// meaningless and validity scoring treats them as infinitely late.
    pub error: bool,
}

impl QueryCompletion {
    /// A successful completion echoing the query's samples with the given
    /// payloads.
    pub fn ok(query_id: QueryId, finished_at: Nanos, samples: Vec<SampleCompletion>) -> Self {
        QueryCompletion {
            query_id,
            finished_at,
            samples,
            error: false,
        }
    }

    /// An errored completion for `query`: echoes every sample id with an
    /// empty payload so the run can terminate, but marks the query failed.
    pub fn errored(query: &Query, finished_at: Nanos) -> Self {
        QueryCompletion {
            query_id: query.id,
            finished_at,
            samples: query
                .samples
                .iter()
                .map(|s| SampleCompletion {
                    sample_id: s.id,
                    payload: ResponsePayload::Empty,
                })
                .collect(),
            error: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_sample_count() {
        let q = Query {
            id: 1,
            samples: vec![
                QuerySample { id: 10, index: 0 },
                QuerySample { id: 11, index: 5 },
            ],
            scheduled_at: Nanos::ZERO,
            tenant: 0,
        };
        assert_eq!(q.sample_count(), 2);
    }

    #[test]
    fn payload_emptiness() {
        assert!(ResponsePayload::Empty.is_empty());
        assert!(ResponsePayload::default().is_empty());
        assert!(!ResponsePayload::Class(3).is_empty());
        assert!(!ResponsePayload::Tokens(vec![1]).is_empty());
    }

    #[test]
    fn payload_roundtrips_through_bytes() {
        use mlperf_trace::bytes::{ByteError, ByteLayout};
        for payload in [
            ResponsePayload::Empty,
            ResponsePayload::Class(17),
            ResponsePayload::Boxes(vec![(2, 0.9, [0.0, 0.0, 4.0, 4.0])]),
            ResponsePayload::Tokens(vec![1, 2, 3]),
        ] {
            assert_eq!(
                ResponsePayload::from_bytes(&payload.to_bytes()),
                Ok(payload)
            );
        }
        let unknown_tag = ResponsePayload::from_bytes(&[9]);
        assert_eq!(
            unknown_tag,
            Err(ByteError::UnknownTag {
                what: "payload",
                tag: 9
            })
        );
    }

    #[test]
    fn errored_completion_echoes_every_sample() {
        let q = Query {
            id: 7,
            samples: vec![
                QuerySample { id: 70, index: 1 },
                QuerySample { id: 71, index: 2 },
            ],
            scheduled_at: Nanos::ZERO,
            tenant: 0,
        };
        let c = QueryCompletion::errored(&q, Nanos::from_micros(5));
        assert!(c.error);
        assert_eq!(c.samples.len(), 2);
        assert_eq!(c.samples[1].sample_id, 71);
    }
}
