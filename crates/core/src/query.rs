//! Queries, samples, and responses.

use crate::time::Nanos;
use mlperf_trace::bytes::{ByteError, ByteReader, ByteWriter};
use mlperf_trace::{FromJson, JsonError, JsonValue, ToJson};

/// Identifier of an issued query, unique within one run.
pub type QueryId = u64;

/// Index of a sample within the data set.
pub type SampleIndex = usize;

/// One sample reference inside a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuerySample {
    /// Response-tracking id, unique per sample per run.
    pub id: u64,
    /// Which data-set sample to run inference on.
    pub index: SampleIndex,
}

/// A query: "a request for inference on one or more samples" (Section IV-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The query id.
    pub id: QueryId,
    /// The samples composing the query. Contiguous in memory by rule for
    /// multistream/offline; here that is represented by the samples sharing
    /// one `Vec`.
    pub samples: Vec<QuerySample>,
    /// When the LoadGen scheduled the query (the latency reference point).
    pub scheduled_at: Nanos,
    /// Which model/stream this query belongs to — 0 for every standard
    /// scenario; the multitenancy extension (Section IV-B mentions it as a
    /// planned LoadGen mode) tags each tenant's queries.
    pub tenant: u32,
}

impl Query {
    /// Number of samples in the query.
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }
}

/// Task-specific inference output carried back for accuracy checking.
///
/// The LoadGen does not interpret payloads; it logs them (always in accuracy
/// mode, randomly sampled in performance mode for the accuracy-verification
/// audit) and the task's accuracy script scores them.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ResponsePayload {
    /// No payload (performance mode default).
    #[default]
    Empty,
    /// Classification: predicted class index.
    Class(usize),
    /// Detection: `(class, score, [x1, y1, x2, y2])` per box.
    Boxes(Vec<(usize, f32, [f32; 4])>),
    /// Translation: output token ids.
    Tokens(Vec<u32>),
}

impl ResponsePayload {
    /// Whether the payload carries data.
    pub fn is_empty(&self) -> bool {
        matches!(self, ResponsePayload::Empty)
    }

    /// Appends the binary form wire completions and run-journal accuracy
    /// entries share: a tag byte (0 empty, 1 class, 2 boxes, 3 tokens),
    /// then a class `u64`, a list of (class `u64`, score `f32`, 4 × `f32`),
    /// or a list of token `u32`s.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        match self {
            ResponsePayload::Empty => w.put_u8(0),
            ResponsePayload::Class(class) => {
                w.put_u8(1);
                w.put_u64(*class as u64);
            }
            ResponsePayload::Boxes(boxes) => {
                w.put_u8(2);
                w.put_list(boxes, |w, (class, score, rect)| {
                    w.put_u64(*class as u64);
                    w.put_f32(*score);
                    for coord in rect {
                        w.put_f32(*coord);
                    }
                });
            }
            ResponsePayload::Tokens(tokens) => {
                w.put_u8(3);
                w.put_list(tokens, |w, t| w.put_u32(*t));
            }
        }
    }

    /// Reads what [`ResponsePayload::encode_into`] wrote.
    ///
    /// # Errors
    ///
    /// Returns [`ByteError`] on truncation, an unknown tag, or a count the
    /// remaining bytes cannot hold.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, ByteError> {
        match r.get_u8()? {
            0 => Ok(ResponsePayload::Empty),
            1 => Ok(ResponsePayload::Class(r.get_u64()? as usize)),
            2 => Ok(ResponsePayload::Boxes(r.get_list(28, |r| {
                let class = r.get_u64()? as usize;
                let score = r.get_f32()?;
                let rect = [r.get_f32()?, r.get_f32()?, r.get_f32()?, r.get_f32()?];
                Ok((class, score, rect))
            })?)),
            3 => Ok(ResponsePayload::Tokens(r.get_list(4, ByteReader::get_u32)?)),
            other => Err(ByteError::Invalid {
                what: "payload tag",
                value: u64::from(other),
            }),
        }
    }
}

/// Completion of one sample of a query, reported by the SUT.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleCompletion {
    /// The sample's response id (must echo [`QuerySample::id`]).
    pub sample_id: u64,
    /// Inference output for accuracy checking.
    pub payload: ResponsePayload,
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

impl ToJson for ResponsePayload {
    fn to_json_value(&self) -> JsonValue {
        match self {
            ResponsePayload::Empty => JsonValue::Str("Empty".into()),
            ResponsePayload::Class(class) => {
                JsonValue::object(vec![("Class", class.to_json_value())])
            }
            ResponsePayload::Boxes(boxes) => {
                let items = boxes
                    .iter()
                    .map(|(class, score, rect)| {
                        JsonValue::Array(vec![
                            class.to_json_value(),
                            score.to_json_value(),
                            JsonValue::Array(rect.iter().map(|c| c.to_json_value()).collect()),
                        ])
                    })
                    .collect();
                JsonValue::object(vec![("Boxes", JsonValue::Array(items))])
            }
            ResponsePayload::Tokens(tokens) => {
                JsonValue::object(vec![("Tokens", tokens.to_json_value())])
            }
        }
    }
}

impl FromJson for ResponsePayload {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        if let Ok("Empty") = value.as_str() {
            return Ok(ResponsePayload::Empty);
        }
        let (name, payload) = value.as_variant()?;
        match name {
            "Class" => Ok(ResponsePayload::Class(payload.as_usize()?)),
            "Boxes" => {
                let mut boxes = Vec::new();
                for item in payload.as_array()? {
                    let parts = item.as_array()?;
                    if parts.len() != 3 {
                        return Err(JsonError::new("box must be [class, score, rect]"));
                    }
                    let rect_parts = parts[2].as_array()?;
                    if rect_parts.len() != 4 {
                        return Err(JsonError::new("box rect must have 4 coordinates"));
                    }
                    let mut rect = [0.0f32; 4];
                    for (slot, coord) in rect.iter_mut().zip(rect_parts) {
                        *slot = coord.as_f32()?;
                    }
                    boxes.push((parts[0].as_usize()?, parts[1].as_f32()?, rect));
                }
                Ok(ResponsePayload::Boxes(boxes))
            }
            "Tokens" => Ok(ResponsePayload::Tokens(Vec::from_json_value(payload)?)),
            other => Err(JsonError::new(format!("unknown payload variant {other:?}"))),
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
    fn json_roundtrip() {
        for payload in [
            ResponsePayload::Empty,
            ResponsePayload::Class(17),
            ResponsePayload::Boxes(vec![(2, 0.9, [0.0, 0.0, 4.0, 4.0])]),
            ResponsePayload::Tokens(vec![1, 2, 3]),
        ] {
            let json = payload.to_json_string();
            assert_eq!(ResponsePayload::from_json_str(&json).unwrap(), payload);
        }
    }

    #[test]
    fn payload_roundtrips_through_bytes() {
        for payload in [
            ResponsePayload::Empty,
            ResponsePayload::Class(17),
            ResponsePayload::Boxes(vec![(2, 0.9, [0.0, 0.0, 4.0, 4.0])]),
            ResponsePayload::Tokens(vec![1, 2, 3]),
        ] {
            let mut w = ByteWriter::new();
            payload.encode_into(&mut w);
            let mut r = ByteReader::new(w.as_bytes());
            assert_eq!(ResponsePayload::decode_from(&mut r).unwrap(), payload);
            r.finish().unwrap();
        }
        let unknown_tag = ResponsePayload::decode_from(&mut ByteReader::new(&[9]));
        assert!(matches!(
            unknown_tag,
            Err(ByteError::Invalid { value: 9, .. })
        ));
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
