//! The recorded trace: model and on-disk codec.
//!
//! A [`RecordedTrace`] is a standalone benchmark: the arrival process
//! (per-query inter-arrival deltas), the per-query batch shapes and
//! sample indices, the observed outcome (latency or error) as the
//! reference fingerprint, and enough of the original run's settings to
//! rebuild a [`TestSettings`] whose validity rules match the recording.
//!
//! The on-disk format is written with the byte codec the wire and the run
//! journal use (`mlperf_trace::bytes`): a `MLPR` magic, a version,
//! big-endian fixed-width integers, IEEE-754 bit patterns for floats,
//! length-prefixed UTF-8 strings, and a trailing CRC-32 over everything
//! before it. Encoding is a pure function of the
//! struct — byte-reproducibility of the whole record→reduce pipeline
//! rests on that, so nothing here consults clocks, hashes maps, or pads.

use crate::fingerprint::TraceFingerprint;
use mlperf_loadgen::replay::ReplaySchedule;
use mlperf_loadgen::{Nanos, Scenario, TestSettings};
use mlperf_stats::Percentile;
use mlperf_trace::bytes::{ByteError, ByteReader, ByteWriter};
use mlperf_trace::crc::crc32;
use std::fmt;

/// File magic: the first four bytes of every recorded trace.
pub const MAGIC: [u8; 4] = *b"MLPR";
/// Current format version.
pub const VERSION: u16 = 1;
/// Least bytes one encoded query occupies: delta, latency, error flag,
/// index count.
const QUERY_MIN_BYTES: usize = 21;

/// One recorded query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedQuery {
    /// Nanoseconds since the previous query's arrival (0 for the first).
    pub delta_ns: u64,
    /// Observed latency; `None` when the query never resolved. The
    /// encoding spells `None` as `u64::MAX`, so `Some(u64::MAX)` does not
    /// survive a round trip and the recorder never makes one.
    pub latency_ns: Option<u64>,
    /// Whether the query resolved as an error.
    pub error: bool,
    /// The sample indices the query drew.
    pub indices: Vec<u32>,
}

/// A recorded workload, standalone and replayable.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedTrace {
    /// The scenario the run was recorded under.
    pub scenario: Scenario,
    /// Where the trace came from (a path, a run label); free-form.
    pub source: String,
    /// QSL population the sample indices refer to.
    pub population: u64,
    /// Samples per query of the recorded settings (max observed batch).
    pub samples_per_query: u32,
    /// The recorded run's per-query latency bound.
    pub target_latency_ns: u64,
    /// The percentile that bound applies to (e.g. 99.0).
    pub target_percentile: f64,
    /// Mean arrival rate over the recording, queries/second.
    pub server_target_qps: f64,
    /// The recorded run's error-fraction tolerance.
    pub max_error_fraction: f64,
    /// Median inter-arrival gap (the multistream interval analog).
    pub interval_ns: u64,
    /// True when the recorder had no QSL seed and drew indices from a
    /// fallback seed instead of reconstructing the original draw.
    pub synthetic_indices: bool,
    /// The queries, in arrival order.
    pub queries: Vec<RecordedQuery>,
}

/// Why a byte stream is not a recorded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The magic bytes are wrong — not a recorded trace at all.
    BadMagic,
    /// A version this build does not speak.
    BadVersion(u16),
    /// The buffer ended before the structure did.
    Truncated {
        /// Bytes the decoder needed.
        need: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// The trailing checksum does not match the content.
    BadCrc {
        /// Checksum recorded in the file.
        expect: u32,
        /// Checksum of the actual bytes.
        got: u32,
    },
    /// A structurally impossible value (bad scenario code, oversized
    /// count, non-UTF-8 string).
    Malformed(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a recorded trace (bad magic)"),
            CodecError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            CodecError::Truncated { need, have } => {
                write!(f, "truncated trace: needed {need} bytes, {have} left")
            }
            CodecError::BadCrc { expect, got } => {
                write!(
                    f,
                    "trace checksum mismatch: file says {expect:#010x}, content is {got:#010x}"
                )
            }
            CodecError::Malformed(m) => write!(f, "malformed trace: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<ByteError> for CodecError {
    fn from(e: ByteError) -> Self {
        match e {
            ByteError::Truncated {
                wanted, remaining, ..
            } => CodecError::Truncated {
                need: wanted,
                have: remaining,
            },
            other => CodecError::Malformed(other.to_string()),
        }
    }
}

impl RecordedTrace {
    /// Encodes the trace to its canonical byte form.
    ///
    /// The same struct always encodes to the same bytes; the round-trip
    /// audit's byte-reproducibility checks compare these directly.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(64 + self.queries.len() * 25);
        w.put_bytes(&MAGIC);
        w.put_u16(VERSION);
        w.put_u8(self.scenario.tag());
        w.put_bool(self.synthetic_indices);
        w.put_u64(self.population);
        w.put_u32(self.samples_per_query);
        w.put_u64(self.target_latency_ns);
        w.put_f64(self.target_percentile);
        w.put_f64(self.server_target_qps);
        w.put_f64(self.max_error_fraction);
        w.put_u64(self.interval_ns);
        w.put_str(&self.source);
        w.put_list(&self.queries, |w, q| {
            w.put_u64(q.delta_ns);
            w.put_u64(q.latency_ns.unwrap_or(u64::MAX));
            w.put_bool(q.error);
            w.put_list(&q.indices, |w, i| w.put_u32(*i));
        });
        let crc = crc32(w.as_bytes());
        w.put_u32(crc);
        w.into_bytes()
    }

    /// Decodes a trace from bytes, verifying magic, version, structure,
    /// and checksum.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] naming exactly what is wrong; a trace
    /// that decodes is structurally sound.
    pub fn decode(bytes: &[u8]) -> Result<RecordedTrace, CodecError> {
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        if bytes.len() < MAGIC.len() + 2 + 4 {
            return Err(CodecError::Truncated {
                need: MAGIC.len() + 6,
                have: bytes.len(),
            });
        }
        let body = &bytes[..bytes.len() - 4];
        let expect = u32::from_be_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        let got = crc32(body);
        if expect != got {
            return Err(CodecError::BadCrc { expect, got });
        }
        let mut r = ByteReader::new(&body[MAGIC.len()..]);
        let version = r.get_u16()?;
        if version != VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let code = r.get_u8()?;
        let scenario = Scenario::from_tag(code)
            .ok_or_else(|| CodecError::Malformed(format!("scenario code {code}")))?;
        let synthetic_indices = r.get_bool("synthetic-indices flag")?;
        let population = r.get_u64()?;
        let samples_per_query = r.get_u32()?;
        let target_latency_ns = r.get_u64()?;
        let target_percentile = r.get_f64()?;
        let server_target_qps = r.get_f64()?;
        let max_error_fraction = r.get_f64()?;
        let interval_ns = r.get_u64()?;
        let source = r.get_str()?;
        let queries = r.get_list(QUERY_MIN_BYTES, |r| {
            let delta_ns = r.get_u64()?;
            let latency = r.get_u64()?;
            Ok(RecordedQuery {
                delta_ns,
                latency_ns: (latency != u64::MAX).then_some(latency),
                error: r.get_bool("query error flag")?,
                indices: r.get_list(4, ByteReader::get_u32)?,
            })
        })?;
        r.finish()?;
        Ok(RecordedTrace {
            scenario,
            source,
            population,
            samples_per_query,
            target_latency_ns,
            target_percentile,
            server_target_qps,
            max_error_fraction,
            interval_ns,
            synthetic_indices,
            queries,
        })
    }

    /// Arrival times (nanoseconds since the first arrival), the
    /// cumulative sum of the deltas.
    #[must_use]
    pub fn arrivals(&self) -> Vec<u64> {
        let mut at = 0u64;
        self.queries
            .iter()
            .map(|q| {
                at = at.saturating_add(q.delta_ns);
                at
            })
            .collect()
    }

    /// Span from first to last arrival.
    #[must_use]
    pub fn duration(&self) -> Nanos {
        Nanos::from_nanos(self.arrivals().last().copied().unwrap_or(0))
    }

    /// The trace's statistical identity (arrival process + observed
    /// latency distribution + index profile).
    #[must_use]
    pub fn fingerprint(&self) -> TraceFingerprint {
        let arrivals = self.arrivals();
        let ok_latencies: Vec<u64> = self
            .queries
            .iter()
            .filter(|q| !q.error)
            .filter_map(|q| q.latency_ns)
            .collect();
        let errors = self.queries.iter().filter(|q| q.error).count() as u64;
        let indices: Vec<u32> = self
            .queries
            .iter()
            .flat_map(|q| q.indices.iter().copied())
            .collect();
        TraceFingerprint::from_parts(&arrivals, &ok_latencies, errors, &indices, self.population)
    }

    /// The schedule a replay runner re-issues.
    #[must_use]
    pub fn replay_schedule(&self) -> ReplaySchedule {
        ReplaySchedule {
            scenario: self.scenario,
            arrivals: self.arrivals().into_iter().map(Nanos::from_nanos).collect(),
            indices: self
                .queries
                .iter()
                .map(|q| q.indices.iter().map(|&i| i as usize).collect())
                .collect(),
        }
    }

    /// Settings under which a replay of this trace is judged: the
    /// recorded scenario's rules, sized to the trace (a complete replay
    /// is never `TooFewQueries`/`RunTooShort`, an incomplete one is).
    #[must_use]
    pub fn replay_settings(&self) -> TestSettings {
        let qps = if self.server_target_qps.is_finite() && self.server_target_qps > 0.0 {
            self.server_target_qps
        } else {
            1.0
        };
        let interval = if self.interval_ns > 0 {
            Nanos::from_nanos(self.interval_ns)
        } else {
            Nanos::from_millis(50)
        };
        let bound = Nanos::from_nanos(self.target_latency_ns.max(1));
        let base = match self.scenario {
            Scenario::SingleStream => TestSettings::single_stream(),
            Scenario::MultiStream => {
                TestSettings::multi_stream(self.samples_per_query.max(1) as usize, interval)
            }
            Scenario::Server => TestSettings::server(qps, bound),
            Scenario::Offline => {
                let samples: u64 = self.queries.iter().map(|q| q.indices.len() as u64).sum();
                TestSettings::offline().with_offline_min_sample_count(samples.max(1))
            }
        };
        let mut settings = base
            .with_min_query_count(self.queries.len() as u64)
            .with_min_duration(self.duration())
            .with_max_error_fraction(self.max_error_fraction);
        if matches!(self.scenario, Scenario::Server) {
            settings = settings.with_target_latency(bound).with_latency_percentile(
                Percentile::new(self.target_percentile).unwrap_or(Percentile::P99),
            );
        }
        settings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_trace(n: usize) -> RecordedTrace {
        RecordedTrace {
            scenario: Scenario::Server,
            source: "test".into(),
            population: 64,
            samples_per_query: 1,
            target_latency_ns: 50_000_000,
            target_percentile: 99.0,
            server_target_qps: 1_000.0,
            max_error_fraction: 0.0,
            interval_ns: 1_000_000,
            synthetic_indices: false,
            queries: (0..n)
                .map(|i| RecordedQuery {
                    delta_ns: if i == 0 {
                        0
                    } else {
                        1_000_000 + (i as u64 % 7) * 1_000
                    },
                    latency_ns: Some(300_000 + (i as u64 % 13) * 10_000),
                    error: i % 50 == 49,
                    indices: vec![(i % 64) as u32],
                })
                .collect(),
        }
    }

    #[test]
    fn codec_round_trips() {
        let trace = sample_trace(200);
        let bytes = trace.encode();
        let back = RecordedTrace::decode(&bytes).expect("decodes");
        assert_eq!(back, trace);
        // Canonical: re-encoding is byte-identical.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn codec_rejects_corruption() {
        let trace = sample_trace(20);
        let bytes = trace.encode();

        assert_eq!(RecordedTrace::decode(b"nope"), Err(CodecError::BadMagic));

        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() / 2);
        assert!(matches!(
            RecordedTrace::decode(&truncated),
            Err(CodecError::BadCrc { .. }) | Err(CodecError::Truncated { .. })
        ));

        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            RecordedTrace::decode(&flipped),
            Err(CodecError::BadCrc { .. })
        ));

        let mut wrong_version = bytes.clone();
        wrong_version[5] = 99; // version low byte
        let body_len = wrong_version.len() - 4;
        let crc = crc32(&wrong_version[..body_len]).to_be_bytes();
        wrong_version[body_len..].copy_from_slice(&crc);
        assert_eq!(
            RecordedTrace::decode(&wrong_version),
            Err(CodecError::BadVersion(99))
        );
    }

    /// Re-seals `bytes` with a valid CRC, as a corruption the checksum
    /// cannot see would arrive.
    fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_be_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        bytes
    }

    /// A count the bytes cannot hold is refused before anything is
    /// allocated for it: `Truncated` names what the count would need.
    #[test]
    fn absurd_counts_under_a_valid_crc_are_refused_without_allocating() {
        let bytes = sample_trace(2).encode();
        // Header: magic 4, version 2, scenario 1, synthetic 1, population 8,
        // samples/query 4, latency 8, three f64s 24, interval 8, "test" 4+4.
        let query_count_at = 68;
        assert_eq!(bytes[query_count_at..query_count_at + 4], [0, 0, 0, 2]);

        let mut absurd_queries = bytes.clone();
        absurd_queries[query_count_at..query_count_at + 4].copy_from_slice(&[0xff; 4]);
        assert_eq!(
            RecordedTrace::decode(&resealed(absurd_queries)),
            Err(CodecError::Truncated {
                need: u32::MAX as usize * QUERY_MIN_BYTES,
                have: 2 * 25,
            })
        );

        // First query: delta 8, latency 8, error 1, then its index count.
        let index_count_at = query_count_at + 4 + 17;
        let mut absurd_indices = bytes.clone();
        absurd_indices[index_count_at..index_count_at + 4].copy_from_slice(&[0xff; 4]);
        assert_eq!(
            RecordedTrace::decode(&resealed(absurd_indices)),
            Err(CodecError::Truncated {
                need: u32::MAX as usize * 4,
                have: 4 + 25,
            })
        );

        let mut extended = bytes;
        extended.extend_from_slice(&[0; 3]);
        assert!(matches!(
            RecordedTrace::decode(&resealed(extended)),
            Err(CodecError::Malformed(text)) if text.contains("trailing")
        ));
    }

    /// A flag byte other than 0/1 is refused, not read as `true`: one
    /// trace has one encoding, so decode → encode stays byte-identical.
    #[test]
    fn flag_bytes_decode_canonically() {
        let bytes = sample_trace(2).encode();
        // Header: magic 4, version 2, scenario 1, then the synthetic flag.
        let synthetic_at = 7;
        // First query: after the count, delta 8 and latency 8.
        let error_at = 68 + 4 + 16;
        for at in [synthetic_at, error_at] {
            assert_eq!(bytes[at], 0);
            let mut two = bytes.clone();
            two[at] = 2;
            assert!(
                matches!(
                    RecordedTrace::decode(&resealed(two)),
                    Err(CodecError::Malformed(text)) if text.contains("flag")
                ),
                "flag byte 2 at offset {at} decoded"
            );
        }
    }

    #[test]
    fn arrivals_are_cumulative() {
        let trace = sample_trace(5);
        let arrivals = trace.arrivals();
        assert_eq!(arrivals.len(), 5);
        assert_eq!(arrivals[0], 0);
        assert!(arrivals.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(trace.duration().as_nanos(), *arrivals.last().unwrap());
    }

    #[test]
    fn replay_settings_validate_for_every_scenario() {
        for scenario in Scenario::ALL {
            let mut trace = sample_trace(100);
            trace.scenario = scenario;
            if matches!(scenario, Scenario::Offline) {
                // Offline records as one big query.
                trace.queries.truncate(1);
                trace.queries[0].indices = (0..256).collect();
            }
            let settings = trace.replay_settings();
            settings.validate().unwrap_or_else(|e| {
                panic!("replay settings for {scenario:?} do not validate: {e}")
            });
            let schedule = trace.replay_schedule();
            schedule.validate().expect("schedule validates");
            assert_eq!(schedule.scenario, scenario);
        }
    }
}
