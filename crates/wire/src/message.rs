//! The wire message vocabulary and its binary layouts.
//!
//! One [`Message`] per frame. Tags and layouts (all integers big-endian):
//!
//! | tag | message        | payload layout                                              |
//! |-----|----------------|-------------------------------------------------------------|
//! | 1   | `Hello`        | version u16, scenario u8, 3× seed u64, qsl_size u64, max_in_flight u32, session u64, epoch u32, resume u8 |
//! | 2   | `HelloAck`     | version u16, sut_name str, max_in_flight u32                |
//! | 3   | `Reject`       | reason str                                                  |
//! | 4   | —              | retired; rejected as an unknown tag                         |
//! | 5   | `Completion`   | query_id u64, error u8, n u32, n× (sample_id u64, payload)  |
//! | 6   | —              | retired; rejected as an unknown tag                         |
//! | 7   | `HeartbeatAck` | seq u64                                                     |
//! | 8   | `Drain`        | (empty)                                                     |
//! | 9   | `Goodbye`      | served u64                                                  |
//! | 10  | `IssueTraced`  | trace_id u64, query_id u64, scheduled_at u64, tenant u32, n u32, n× (sample_id u64, index u64) |
//! | 11  | `Events`       | jsonl str — server-side detail-log rows                     |
//! | 12  | `StatsRequest` | (empty)                                                     |
//! | 13  | `Stats`        | json str — daemon stats snapshot                            |
//! | 14  | `ClockProbe`   | seq u64, t0 u64                                             |
//! | 15  | `ClockProbeAck`| seq u64, t0 u64, t1 u64, t2 u64                             |
//!
//! Response payloads are themselves tagged: 0 empty, 1 class (u64),
//! 2 boxes (n u32, n× class u64 + score f32 + 4× f32), 3 tokens
//! (n u32, n× u32): `ResponsePayload::{encode_into, decode_from}` in the
//! LoadGen crate, shared with the run journal.
//!
//! On the wire every encoded message travels sealed — prefixed by its
//! CRC32, as [`crate::frame::seal`] would — via [`Message::to_wire`] /
//! [`Message::from_wire`]; see [`crate::frame`] for the frame format.

use crate::frame::{open, ByteReader, ByteWriter, WireError};
use mlperf_loadgen::query::{Query, QuerySample, ResponsePayload, SampleCompletion};
use mlperf_loadgen::scenario::Scenario;
use mlperf_loadgen::time::Nanos;
use mlperf_stats::rng::SeedTriple;

/// The one protocol version this build speaks. A daemon rejects a `Hello`
/// offering any other, and a client refuses an ack at any other: a peer
/// from outside gets a structured refusal, never a guess at what it meant.
pub const PROTOCOL_VERSION: u16 = 3;

/// What the client announces before any query flows: everything the server
/// needs to pre-load its QSL and sanity-check the run (scenario, the three
/// rulebook seeds, QSL size) plus the backpressure window it intends to use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Client protocol version.
    pub version: u16,
    /// Scenario the run will drive.
    pub scenario: Scenario,
    /// The run's seed triple (qsl, schedule, accuracy).
    pub seeds: SeedTriple,
    /// Number of samples in the client's QSL.
    pub qsl_size: u64,
    /// Maximum queries the client will keep in flight.
    pub max_in_flight: u32,
    /// Stable id for the run's session; survives reconnects so the server
    /// can key its completion journal.
    pub session: u64,
    /// 0 for a fresh run; incremented on every reconnect of the same
    /// session. The server resets its service only on epoch 0.
    pub epoch: u32,
    /// Whether the client may reconnect and resume after a disconnect (it
    /// has a resume policy armed).
    pub resume: bool,
}

/// One message on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: handshake open.
    Hello(Hello),
    /// Server → client: handshake accept.
    HelloAck {
        /// Server protocol version.
        version: u16,
        /// Name of the SUT the server exports.
        sut_name: String,
        /// In-flight window the server granted.
        max_in_flight: u32,
    },
    /// Server → client: handshake refusal; the connection closes after.
    Reject {
        /// Why the server refused.
        reason: String,
    },
    /// Server → client: a query resolved. `error` marks a structural
    /// failure (the remote engine errored/dropped); sample ids still echo.
    Completion {
        /// Query id being resolved.
        query_id: u64,
        /// Whether the query resolved as an error.
        error: bool,
        /// Per-sample completions.
        samples: Vec<SampleCompletion>,
    },
    /// Server → client: the daemon vouching for its own liveness, unasked,
    /// while a connection thread is inside the service.
    HeartbeatAck {
        /// Always 0; the client ignores it.
        seq: u64,
    },
    /// Client → server: no more queries; flush outstanding completions.
    Drain,
    /// Server → client: drain finished, connection closing.
    Goodbye {
        /// Queries the server resolved over the connection's lifetime.
        served: u64,
    },
    /// Client → server: run inference on a query, carrying the trace id
    /// the server must tag its side of the work with.
    IssueTraced {
        /// Trace id shared by every span of this query, on both hosts.
        trace_id: u64,
        /// The query.
        query: Query,
    },
    /// Server → client: a batch of server-side detail-log rows,
    /// JSONL-encoded `TraceRecord`s on the *server* clock. Shipped at
    /// drain, before `Goodbye`; the client re-stamps them onto its own
    /// clock via its offset estimate.
    Events {
        /// JSON Lines, one `TraceRecord` per line.
        jsonl: String,
    },
    /// Client → server: one-shot stats query. May open a dedicated
    /// connection: a `StatsRequest` as the first frame (instead of
    /// `Hello`) gets a `Stats` reply and the connection closes.
    StatsRequest,
    /// Server → client: daemon stats snapshot as JSON (see
    /// `DaemonStats` in the stats module).
    Stats {
        /// JSON-encoded `DaemonStats`.
        json: String,
    },
    /// Client → server: NTP-style clock probe, and the client's liveness
    /// ping (the ack refreshes the heartbeat clock).
    ClockProbe {
        /// Monotonic probe sequence number.
        seq: u64,
        /// Client clock at send, in nanoseconds.
        t0: u64,
    },
    /// Reply to a [`Message::ClockProbe`]: echoes `t0` and adds the
    /// server-clock receive (`t1`) and transmit (`t2`) stamps. The client
    /// supplies `t3` (its receive time) to complete the four-timestamp
    /// offset estimate.
    ClockProbeAck {
        /// Echoed sequence number.
        seq: u64,
        /// Echoed client send time.
        t0: u64,
        /// Server clock when the probe arrived.
        t1: u64,
        /// Server clock when the ack left.
        t2: u64,
    },
}

fn get_scenario(r: &mut ByteReader<'_>) -> Result<Scenario, WireError> {
    let tag = r.get_u8()?;
    Scenario::from_tag(tag)
        .ok_or_else(|| WireError::Protocol(format!("unknown scenario tag {tag}")))
}

fn put_query(w: &mut ByteWriter, query: &Query) {
    w.put_u64(query.id);
    w.put_u64(query.scheduled_at.as_nanos());
    w.put_u32(query.tenant);
    w.put_list(&query.samples, |w, s| {
        w.put_u64(s.id);
        w.put_u64(s.index as u64);
    });
}

fn get_query(r: &mut ByteReader<'_>) -> Result<Query, WireError> {
    let id = r.get_u64()?;
    let scheduled_at = Nanos::from_nanos(r.get_u64()?);
    let tenant = r.get_u32()?;
    let samples = r.get_list(16, |r| {
        Ok(QuerySample {
            id: r.get_u64()?,
            index: r.get_u64()? as usize,
        })
    })?;
    Ok(Query {
        id,
        samples,
        scheduled_at,
        tenant,
    })
}

impl Message {
    /// Human-readable message name, for diagnostics.
    pub fn tag_name(&self) -> &'static str {
        match self {
            Message::Hello(_) => "Hello",
            Message::HelloAck { .. } => "HelloAck",
            Message::Reject { .. } => "Reject",
            Message::Completion { .. } => "Completion",
            Message::HeartbeatAck { .. } => "HeartbeatAck",
            Message::Drain => "Drain",
            Message::Goodbye { .. } => "Goodbye",
            Message::IssueTraced { .. } => "IssueTraced",
            Message::Events { .. } => "Events",
            Message::StatsRequest => "StatsRequest",
            Message::Stats { .. } => "Stats",
            Message::ClockProbe { .. } => "ClockProbe",
            Message::ClockProbeAck { .. } => "ClockProbeAck",
        }
    }

    /// Encodes the message as one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    fn encode_into(&self, w: &mut ByteWriter) {
        match self {
            Message::Hello(h) => {
                w.put_u8(1);
                w.put_u16(h.version);
                w.put_u8(h.scenario.tag());
                w.put_u64(h.seeds.qsl_seed);
                w.put_u64(h.seeds.schedule_seed);
                w.put_u64(h.seeds.accuracy_seed);
                w.put_u64(h.qsl_size);
                w.put_u32(h.max_in_flight);
                w.put_u64(h.session);
                w.put_u32(h.epoch);
                w.put_bool(h.resume);
            }
            Message::HelloAck {
                version,
                sut_name,
                max_in_flight,
            } => {
                w.put_u8(2);
                w.put_u16(*version);
                w.put_str(sut_name);
                w.put_u32(*max_in_flight);
            }
            Message::Reject { reason } => {
                w.put_u8(3);
                w.put_str(reason);
            }
            Message::Completion {
                query_id,
                error,
                samples,
            } => {
                w.put_u8(5);
                w.put_u64(*query_id);
                w.put_bool(*error);
                w.put_list(samples, |w, s| {
                    w.put_u64(s.sample_id);
                    s.payload.encode_into(w);
                });
            }
            Message::HeartbeatAck { seq } => {
                w.put_u8(7);
                w.put_u64(*seq);
            }
            Message::Drain => {
                w.put_u8(8);
            }
            Message::Goodbye { served } => {
                w.put_u8(9);
                w.put_u64(*served);
            }
            Message::IssueTraced { trace_id, query } => {
                w.put_u8(10);
                w.put_u64(*trace_id);
                put_query(w, query);
            }
            Message::Events { jsonl } => {
                w.put_u8(11);
                w.put_str(jsonl);
            }
            Message::StatsRequest => {
                w.put_u8(12);
            }
            Message::Stats { json } => {
                w.put_u8(13);
                w.put_str(json);
            }
            Message::ClockProbe { seq, t0 } => {
                w.put_u8(14);
                w.put_u64(*seq);
                w.put_u64(*t0);
            }
            Message::ClockProbeAck { seq, t0, t1, t2 } => {
                w.put_u8(15);
                w.put_u64(*seq);
                w.put_u64(*t0);
                w.put_u64(*t1);
                w.put_u64(*t2);
            }
        }
    }

    /// Encodes the message and seals it for the wire: `crc32 || body`,
    /// byte for byte what `seal(&self.encode())` builds, in one buffer.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut w = ByteWriter::sealed();
        self.encode_into(&mut w);
        w.into_sealed()
    }

    /// Opens a sealed wire payload (verifying the CRC32) and decodes it.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Frame`] when the checksum does not match —
    /// corrupted bytes never decode into a message — plus
    /// [`Message::decode`]'s protocol errors.
    pub fn from_wire(payload: &[u8]) -> Result<Message, WireError> {
        Message::decode(open(payload)?)
    }

    /// Decodes one frame body (already integrity-checked).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Protocol`] for unknown tags, truncation, or
    /// trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Message, WireError> {
        let mut r = ByteReader::new(payload);
        let message = match r.get_u8()? {
            1 => Message::Hello(Hello {
                version: r.get_u16()?,
                scenario: get_scenario(&mut r)?,
                seeds: SeedTriple {
                    qsl_seed: r.get_u64()?,
                    schedule_seed: r.get_u64()?,
                    accuracy_seed: r.get_u64()?,
                },
                qsl_size: r.get_u64()?,
                max_in_flight: r.get_u32()?,
                session: r.get_u64()?,
                epoch: r.get_u32()?,
                resume: r.get_bool("hello resume flag")?,
            }),
            2 => Message::HelloAck {
                version: r.get_u16()?,
                sut_name: r.get_str()?,
                max_in_flight: r.get_u32()?,
            },
            3 => Message::Reject {
                reason: r.get_str()?,
            },
            5 => {
                let query_id = r.get_u64()?;
                let error = r.get_bool("completion error flag")?;
                let samples = r.get_list(9, |r| {
                    Ok(SampleCompletion {
                        sample_id: r.get_u64()?,
                        payload: ResponsePayload::decode_from(r)?,
                    })
                })?;
                Message::Completion {
                    query_id,
                    error,
                    samples,
                }
            }
            7 => Message::HeartbeatAck { seq: r.get_u64()? },
            8 => Message::Drain,
            9 => Message::Goodbye {
                served: r.get_u64()?,
            },
            10 => Message::IssueTraced {
                trace_id: r.get_u64()?,
                query: get_query(&mut r)?,
            },
            11 => Message::Events {
                jsonl: r.get_str()?,
            },
            12 => Message::StatsRequest,
            13 => Message::Stats { json: r.get_str()? },
            14 => Message::ClockProbe {
                seq: r.get_u64()?,
                t0: r.get_u64()?,
            },
            15 => Message::ClockProbeAck {
                seq: r.get_u64()?,
                t0: r.get_u64()?,
                t1: r.get_u64()?,
                t2: r.get_u64()?,
            },
            other => {
                return Err(WireError::Protocol(format!("unknown message tag {other}")));
            }
        };
        r.finish()?;
        Ok(message)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello(Hello {
                version: PROTOCOL_VERSION,
                scenario: Scenario::Server,
                seeds: SeedTriple::OFFICIAL,
                qsl_size: 1_024,
                max_in_flight: 64,
                session: 0xD15C0,
                epoch: 3,
                resume: true,
            }),
            Message::HelloAck {
                version: PROTOCOL_VERSION,
                sut_name: "datacenter-gpu".into(),
                max_in_flight: 64,
            },
            Message::Reject {
                reason: "version mismatch".into(),
            },
            Message::Completion {
                query_id: 17,
                error: false,
                samples: vec![
                    SampleCompletion {
                        sample_id: 170,
                        payload: ResponsePayload::Class(7),
                    },
                    SampleCompletion {
                        sample_id: 171,
                        payload: ResponsePayload::Boxes(vec![(1, 0.75, [0.0, 1.0, 2.0, 3.0])]),
                    },
                ],
            },
            Message::Completion {
                query_id: 18,
                error: true,
                samples: vec![SampleCompletion {
                    sample_id: 180,
                    payload: ResponsePayload::Empty,
                }],
            },
            Message::Completion {
                query_id: 19,
                error: false,
                samples: vec![SampleCompletion {
                    sample_id: 190,
                    payload: ResponsePayload::Tokens(vec![5, 6, 7]),
                }],
            },
            Message::HeartbeatAck { seq: 41 },
            Message::Drain,
            Message::Goodbye { served: 270_336 },
            Message::IssueTraced {
                trace_id: 0x7AC3_1D00_DEAD_BEEF,
                query: Query {
                    id: 18,
                    samples: vec![QuerySample { id: 180, index: 5 }],
                    scheduled_at: Nanos::from_micros(300),
                    tenant: 0,
                },
            },
            Message::Events {
                jsonl: "{\"ts_ns\":1,\"event\":{\"QuerySent\":{\"query_id\":4}}}\n".into(),
            },
            Message::StatsRequest,
            Message::Stats {
                json: "{\"served\":12,\"uptime_ns\":99}".into(),
            },
            Message::ClockProbe {
                seq: 7,
                t0: 1_000_000,
            },
            Message::ClockProbeAck {
                seq: 7,
                t0: 1_000_000,
                t1: 1_000_420,
                t2: 1_000_690,
            },
        ]
    }

    #[test]
    fn messages_roundtrip() {
        for message in sample_messages() {
            let bytes = message.encode();
            let back = Message::decode(&bytes).unwrap();
            assert_eq!(back, message, "{message:?}");
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            Message::decode(&[200]),
            Err(WireError::Protocol(_))
        ));
    }

    #[test]
    fn truncation_rejected_for_every_message() {
        for message in sample_messages() {
            let bytes = message.encode();
            for cut in 0..bytes.len() {
                assert!(
                    Message::decode(&bytes[..cut]).is_err(),
                    "{message:?} decoded from a {cut}-byte prefix"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Message::Drain.encode();
        bytes.push(0);
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::Protocol(_))
        ));
    }

    #[test]
    fn wire_roundtrip_is_sealed() {
        for message in sample_messages() {
            let payload = message.to_wire();
            assert_eq!(Message::from_wire(&payload).unwrap(), message);
        }
    }

    /// Sealing in place changes no byte: every message kind's `to_wire`
    /// is exactly `seal` over its `encode`.
    #[test]
    fn to_wire_equals_seal_of_encode() {
        for message in sample_messages() {
            assert_eq!(
                message.to_wire(),
                crate::frame::seal(&message.encode()),
                "{message:?}"
            );
        }
    }

    /// The byte codec moved crates and the payload codec moved into the
    /// LoadGen; no byte on the wire did. Literal frames for one
    /// `Completion` per payload variant (as built before the move) and for
    /// the `IssueTraced`, and one hash over every sample message's frame
    /// (both as the last build that still had tags 4 and 6 printed them).
    #[test]
    #[rustfmt::skip]
    fn wire_bytes_are_what_they_were_before_the_codec_moved() {
        let messages = sample_messages();
        let pinned: [(usize, &[u8]); 4] = [
            (3, &[104, 94, 136, 103, 5, 0, 0, 0, 0, 0, 0, 0, 17, 0, 0, 0, 0, 2,
                  0, 0, 0, 0, 0, 0, 0, 170, 1, 0, 0, 0, 0, 0, 0, 0, 7,
                  0, 0, 0, 0, 0, 0, 0, 171, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 63, 64, 0, 0,
                  0, 0, 0, 0, 63, 128, 0, 0, 64, 0, 0, 0, 64, 64, 0, 0]),
            (4, &[247, 15, 160, 41, 5, 0, 0, 0, 0, 0, 0, 0, 18, 1, 0, 0, 0, 1,
                  0, 0, 0, 0, 0, 0, 0, 180, 0]),
            (5, &[68, 37, 199, 190, 5, 0, 0, 0, 0, 0, 0, 0, 19, 0, 0, 0, 0, 1,
                  0, 0, 0, 0, 0, 0, 0, 190, 3, 0, 0, 0, 3, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0, 0, 7]),
            (9, &[16, 61, 23, 118, 10, 122, 195, 29, 0, 222, 173, 190, 239,
                  0, 0, 0, 0, 0, 0, 0, 18, 0, 0, 0, 0, 0, 4, 147, 224, 0, 0, 0, 0, 0, 0, 0, 1,
                  0, 0, 0, 0, 0, 0, 0, 180, 0, 0, 0, 0, 0, 0, 0, 5]),
        ];
        for (index, bytes) in pinned {
            assert_eq!(messages[index].to_wire(), bytes, "{:?}", messages[index]);
        }
        let all: Vec<u8> = messages.iter().flat_map(Message::to_wire).collect();
        assert_eq!(all.len(), 499);
        assert_eq!(mlperf_trace::crc::fnv1a64(&all), 0xd428_1cc6_62e3_062b);
    }

    /// A short body still says what the cursor wanted, where, and what
    /// was left — through the shared codec's error, as `Protocol` text.
    #[test]
    fn truncation_error_names_wanted_offset_and_remaining() {
        let bytes = Message::HeartbeatAck { seq: 41 }.encode();
        match Message::decode(&bytes[..5]) {
            Err(WireError::Protocol(m)) => {
                assert_eq!(m, "payload truncated: wanted 8 bytes at offset 1, 4 remain");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    /// The acceptance sweep: any single flipped payload byte — checksum or
    /// body, any message — is rejected as a structured [`FrameError`] and
    /// never decodes into a message, let alone a plausible completion.
    #[test]
    fn seeded_corruption_sweep_never_decodes() {
        use mlperf_stats::rng::Rng64;
        let messages = sample_messages();
        let mut rng = Rng64::new(0x0BAD_F00D);
        let mut corruptions = 0;
        while corruptions < 256 {
            let message = &messages[rng.next_below(messages.len() as u64) as usize];
            let mut payload = message.to_wire();
            let pos = rng.next_below(payload.len() as u64) as usize;
            let bit = rng.next_below(8) as u8;
            payload[pos] ^= 1 << bit;
            match Message::from_wire(&payload) {
                Err(WireError::Frame(e)) => {
                    assert_ne!(e.expected, e.found, "structured mismatch must be real")
                }
                Ok(decoded) => panic!(
                    "corrupted frame decoded into {decoded:?} (byte {pos}, bit {bit}, from {message:?})"
                ),
                Err(other) => panic!("expected FrameError, got {other:?}"),
            }
            corruptions += 1;
        }
    }
}
