//! The wire decoder is total: whatever bytes a peer hands it come back as
//! a structured error or as a message that re-encodes to exactly those
//! bytes — never a panic, never an allocation the input does not justify.
//!
//! The sweep runs seeded mutations of sealed messages of every kind
//! through [`Message::from_wire`], through [`open`] + [`Message::decode`],
//! and through [`FrameReader::next_frame`] with the framed bytes arriving
//! split at every point. Half the mutators edit the body and *re-seal* it,
//! so the sweep gets past the CRC and into the field decoders. What it
//! found is pinned below it, one test per finding.

use std::io::Read;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::qsl::{MemoryQsl, QuerySampleLibrary};
use mlperf_loadgen::query::{Query, QuerySample, ResponsePayload, SampleCompletion};
use mlperf_loadgen::sut::{RealtimeSut, SleepSut};
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::{Run, Scenario};
use mlperf_stats::rng::{Rng64, SeedTriple};
use mlperf_trace::{parse_detail_log, TraceEvent};
use mlperf_wire::frame::{open, read_frame, seal, write_frame, FrameReader, WireError};
use mlperf_wire::message::{Hello, Message, PROTOCOL_VERSION};
use mlperf_wire::{serve_on, RemoteSut, RemoteSutConfig, ServeConfig};

#[path = "../../trace/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::largest_alloc_during;

const MUTATIONS: u32 = 10_000;

/// The most memory one encoded byte may turn into. The widest honest case
/// is the commonest frame there is — a performance-mode `Completion`,
/// every payload `Empty`: nine bytes a sample on the wire, one
/// `SampleCompletion` in memory (pinned by
/// `an_all_empty_completion_is_the_allocation_ceiling`).
const CEILING: usize = std::mem::size_of::<SampleCompletion>().div_ceil(9);

/// What any decode may allocate on top: the text of its error.
const ERROR_TEXT: usize = 256;

fn random_text(rng: &mut Rng64) -> String {
    (0..rng.next_below(40))
        .map(|_| match rng.next_below(16) {
            0 => 'λ',
            1 => '\n',
            _ => char::from(b' ' + rng.next_below(95) as u8),
        })
        .collect()
}

fn random_payload(rng: &mut Rng64) -> ResponsePayload {
    let float = |rng: &mut Rng64| f32::from_bits(rng.next_u64() as u32);
    match rng.next_below(6) {
        0 => ResponsePayload::Class(rng.next_u64() as usize),
        1 => ResponsePayload::Boxes(
            (0..rng.next_below(4))
                .map(|_| {
                    let rect = [float(rng), float(rng), float(rng), float(rng)];
                    (rng.next_u64() as usize, float(rng), rect)
                })
                .collect(),
        ),
        2 => ResponsePayload::Tokens(
            (0..rng.next_below(12))
                .map(|_| rng.next_u64() as u32)
                .collect(),
        ),
        _ => ResponsePayload::Empty,
    }
}

/// One message, every kind equally likely, every field drawn at random.
fn random_message(rng: &mut Rng64) -> Message {
    // Mostly the sizes a paced run sends; now and then an offline batch.
    let batch = |rng: &mut Rng64| match rng.next_below(8) {
        0 => rng.next_below(300),
        _ => rng.next_below(9),
    };
    match rng.next_below(13) {
        0 => Message::Hello(Hello {
            version: rng.next_u64() as u16,
            scenario: [
                Scenario::SingleStream,
                Scenario::MultiStream,
                Scenario::Server,
                Scenario::Offline,
            ][rng.next_below(4) as usize],
            seeds: SeedTriple {
                qsl_seed: rng.next_u64(),
                schedule_seed: rng.next_u64(),
                accuracy_seed: rng.next_u64(),
            },
            qsl_size: rng.next_u64(),
            max_in_flight: rng.next_u64() as u32,
            session: rng.next_u64(),
            epoch: rng.next_u64() as u32,
            resume: rng.next_below(2) == 1,
        }),
        1 => Message::HelloAck {
            version: PROTOCOL_VERSION,
            sut_name: random_text(rng),
            max_in_flight: rng.next_u64() as u32,
        },
        2 => Message::Reject {
            reason: random_text(rng),
        },
        3 => Message::Completion {
            query_id: rng.next_u64(),
            error: rng.next_below(2) == 1,
            samples: (0..batch(rng))
                .map(|_| SampleCompletion {
                    sample_id: rng.next_u64(),
                    payload: random_payload(rng),
                })
                .collect(),
        },
        4 => Message::HeartbeatAck {
            seq: rng.next_u64(),
        },
        5 => Message::Drain,
        6 => Message::Goodbye {
            served: rng.next_u64(),
        },
        7 => Message::IssueTraced {
            trace_id: rng.next_u64(),
            query: Query {
                id: rng.next_u64(),
                samples: (0..batch(rng))
                    .map(|_| QuerySample {
                        id: rng.next_u64(),
                        index: rng.next_u64() as usize,
                    })
                    .collect(),
                scheduled_at: Nanos::from_nanos(rng.next_u64()),
                tenant: rng.next_u64() as u32,
            },
        },
        8 => Message::Events {
            jsonl: random_text(rng),
        },
        9 => Message::StatsRequest,
        10 => Message::Stats {
            json: random_text(rng),
        },
        11 => Message::ClockProbe {
            seq: rng.next_u64(),
            t0: rng.next_u64(),
        },
        _ => Message::ClockProbeAck {
            seq: rng.next_u64(),
            t0: rng.next_u64(),
            t1: rng.next_u64(),
            t2: rng.next_u64(),
        },
    }
}

/// Mutation `i` of a sealed message. Even `i` damages the sealed bytes as
/// a link would (the CRC catches those); odd `i` edits the body and seals
/// it again, as a peer with a bug or a grudge would.
fn mutate(i: u32, sealed: &[u8], rng: &mut Rng64) -> Vec<u8> {
    let grow = |bytes: &mut Vec<u8>, rng: &mut Rng64| {
        bytes.extend((0..=rng.next_below(16)).map(|_| rng.next_u64() as u8));
    };
    if i.is_multiple_of(2) {
        let mut bytes = sealed.to_vec();
        let at = rng.next_below(bytes.len() as u64) as usize;
        match (i / 2) % 3 {
            0 => bytes[at] ^= 1 << rng.next_below(8),
            1 => bytes.truncate(at),
            _ => grow(&mut bytes, rng),
        }
        return bytes;
    }
    let mut body = sealed[4..].to_vec();
    let at = rng.next_below(body.len() as u64) as usize;
    match (i / 2) % 5 {
        0 => body[at] ^= 1 << rng.next_below(8),
        1 => body.truncate(at),
        2 => grow(&mut body, rng),
        // Another kind's tag on this kind's fields, the retired two
        // included.
        3 => body[0] = rng.next_below(18) as u8,
        // Four bytes that may well be a count: huge, or merely wrong.
        _ if body.len() >= 4 => {
            let at = at.min(body.len() - 4);
            let count = match rng.next_below(3) {
                0 => u32::MAX,
                1 => rng.next_below(1 << 12) as u32,
                _ => rng.next_u64() as u32,
            };
            body[at..at + 4].copy_from_slice(&count.to_be_bytes());
        }
        _ => body[at] = rng.next_u64() as u8,
    }
    seal(&body)
}

/// A stream whose first `read` yields `first` bytes and whose next yields
/// the rest.
struct SplitAt<'a> {
    bytes: &'a [u8],
    first: usize,
}

impl Read for SplitAt<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.first.min(buf.len()).min(self.bytes.len());
        self.first = usize::MAX;
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

#[test]
fn mutated_frames_decode_to_an_error_or_to_what_the_bytes_spell() {
    let mut rng = Rng64::new(0x70_7A1);
    let (mut rejected, mut accepted, mut past_the_crc, mut splits) = (0u32, 0u32, 0u32, 0u64);
    let mut worst = (0.0f64, 0usize, 0usize);
    for i in 0..MUTATIONS {
        let message = random_message(&mut rng);
        let sealed = message.to_wire();
        // By bytes, not by value: a random float may be a NaN.
        let honest = Message::from_wire(&sealed).expect("an honest frame");
        assert!(honest.to_wire() == sealed, "sample {i}: {message:?}");
        let bytes = mutate(i, &sealed, &mut rng);

        let (decoded, largest) = largest_alloc_during(|| Message::from_wire(&bytes));
        assert!(
            largest <= CEILING * bytes.len() + ERROR_TEXT,
            "mutation {i}: a {}-byte payload made the decoder allocate {largest} bytes",
            bytes.len()
        );
        let ratio = largest as f64 / bytes.len().max(1) as f64;
        if bytes.len() >= 64 && ratio > worst.0 {
            worst = (ratio, largest, bytes.len());
        }
        // The two-step path is the one-step path.
        let two_step = open(&bytes).and_then(Message::decode);
        assert_eq!(
            format!("{decoded:?}"),
            format!("{two_step:?}"),
            "mutation {i}"
        );
        past_the_crc += u32::from(!matches!(decoded, Err(WireError::Frame(_))));
        match decoded {
            Err(WireError::Frame(_) | WireError::Protocol(_)) => rejected += 1,
            Err(other) => panic!("mutation {i}: a decode failed as {other:?}"),
            Ok(back) => {
                assert!(
                    back.to_wire() == bytes,
                    "mutation {i} decoded non-canonically: {bytes:?} as {back:?}"
                );
                accepted += 1;
            }
        }

        // Framing is transparent however the bytes arrive: the reader hands
        // back the payload it was sent, sized by it and by nothing else.
        let mut stream = Vec::new();
        write_frame(&mut stream, &bytes).unwrap();
        let mut frames = FrameReader::new();
        for first in 1..=stream.len() {
            let mut reader = SplitAt {
                bytes: &stream,
                first,
            };
            let (payload, largest) = largest_alloc_during(|| frames.next_frame(&mut reader));
            assert!(payload.unwrap() == bytes, "mutation {i} split at {first}");
            assert!(largest <= bytes.len(), "mutation {i} split at {first}");
            splits += 1;
        }
    }
    println!(
        "frame totality: {MUTATIONS} mutations ({rejected} rejected, {accepted} accepted, \
{past_the_crc} past the CRC), {splits} split deliveries; largest allocation {:.2}x its input \
({} bytes from {}), ceiling {CEILING}x",
        worst.0, worst.1, worst.2
    );
    // Every arm is exercised: link damage always fails, most re-sealed
    // edits reach a field decoder, and many of those land in a plain
    // integer and decode to another value.
    assert!(
        rejected >= MUTATIONS / 2 && accepted >= MUTATIONS / 10 && past_the_crc >= MUTATIONS / 3,
        "{rejected} / {accepted} / {past_the_crc}"
    );
}

fn protocol_error(body: &[u8]) -> String {
    match Message::from_wire(&seal(body)) {
        Err(WireError::Protocol(text)) => text,
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

/// Tags 4 (the untraced issue) and 6 (the plain heartbeat) left the
/// protocol: their frames, exactly as a peer that still speaks them
/// builds them, are refused by name like any tag never assigned.
#[test]
#[rustfmt::skip]
fn retired_tags_read_as_unknown() {
    let issue = [4, 0, 0, 0, 0, 0, 0, 0, 17, 0, 0, 0, 0, 0, 3, 208, 144, 0, 0, 0, 2,
                 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 170, 0, 0, 0, 0, 0, 0, 0, 3,
                 0, 0, 0, 0, 0, 0, 0, 171, 0, 0, 0, 0, 0, 0, 3, 132];
    let heartbeat = [6, 0, 0, 0, 0, 0, 0, 0, 41];
    assert_eq!(protocol_error(&issue), "unknown message tag 4");
    assert_eq!(protocol_error(&heartbeat), "unknown message tag 6");
    assert_eq!(protocol_error(&[4]), "unknown message tag 4");
    assert_eq!(protocol_error(&[6]), "unknown message tag 6");
}

/// Found by the sweep: a flag byte other than 0 or 1 used to decode as
/// `true` and re-encode as 1 — two byte strings for one message. A flag
/// is 0 or 1.
#[test]
fn a_flag_byte_is_zero_or_one() {
    let completion = Message::Completion {
        query_id: 7,
        error: true,
        samples: Vec::new(),
    };
    let mut body = completion.encode();
    assert_eq!(body[9], 1);
    body[9] = 2;
    assert_eq!(protocol_error(&body), "invalid completion error flag 2");

    let hello = RemoteSut::hello_for(
        &TestSettings::single_stream(),
        8,
        &RemoteSutConfig::default(),
    );
    let mut body = Message::Hello(hello).encode();
    let last = body.len() - 1;
    body[last] = 0x80;
    assert_eq!(protocol_error(&body), "invalid hello resume flag 128");
}

/// Found by the sweep's accounting: the frame the protocol sends most — a
/// completion whose payloads are all `Empty` — is also the one that grows
/// most on decode, one `SampleCompletion` per nine bytes, and its one
/// allocation is exactly that list. Nothing decodes wider.
#[test]
fn an_all_empty_completion_is_the_allocation_ceiling() {
    let samples = 256;
    let sealed = Message::Completion {
        query_id: 1,
        error: false,
        samples: (0..samples)
            .map(|sample_id| SampleCompletion {
                sample_id,
                payload: ResponsePayload::Empty,
            })
            .collect(),
    }
    .to_wire();
    assert_eq!(sealed.len(), 4 + 1 + 8 + 1 + 4 + 9 * samples as usize);
    let (decoded, largest) = largest_alloc_during(|| Message::from_wire(&sealed));
    decoded.unwrap();
    assert_eq!(
        largest,
        samples as usize * std::mem::size_of::<SampleCompletion>()
    );
    assert!(largest > 4 * sealed.len() && largest <= CEILING * sealed.len());
}

/// `to_wire` sizes its buffer from the message: a 256-sample issue, and
/// the class-payload completion that answers it, are each encoded into one
/// allocation exactly the frame's length, never regrown on the way.
#[test]
fn a_256_sample_frame_is_sealed_in_one_allocation_of_its_length() {
    let query = Query {
        id: 7,
        samples: (0..256)
            .map(|i| QuerySample {
                id: 1_000 + i,
                index: i as usize * 3,
            })
            .collect(),
        scheduled_at: Nanos::from_nanos(5_000),
        tenant: 0,
    };
    let completion = Message::Completion {
        query_id: query.id,
        error: false,
        samples: query
            .samples
            .iter()
            .map(|s| SampleCompletion {
                sample_id: s.id,
                payload: ResponsePayload::Class(s.index % 1_000),
            })
            .collect(),
    };
    let issue = Message::IssueTraced { trace_id: 9, query };
    for (message, len) in [(issue, 4_133), (completion, 4_370)] {
        let (sealed, largest) = largest_alloc_during(|| message.to_wire());
        assert_eq!(sealed.len(), len);
        assert_eq!(largest, len);
    }
}

/// A length prefix is believed up to `MAX_FRAME_LEN` (past it, nothing is
/// allocated: `buffered_reader_refuses_an_oversized_prefix_as_read_frame_does`):
/// a prefix that claims more than the stream holds costs the claim and
/// ends as the `Io` error a short read is, at every split.
#[test]
fn a_lying_length_prefix_costs_what_it_claims_and_is_an_io_error() {
    let payload = Message::Drain.to_wire();
    for claimed in [payload.len() + 1, 1 << 10, 1 << 20] {
        let mut stream = (claimed as u32).to_be_bytes().to_vec();
        stream.extend_from_slice(&payload);
        for first in 1..=stream.len() {
            let mut frames = FrameReader::new();
            let mut reader = SplitAt {
                bytes: &stream,
                first,
            };
            let (frame, largest) = largest_alloc_during(|| frames.next_frame(&mut reader));
            match frame {
                Err(WireError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
                other => panic!("claimed {claimed}, split at {first}: {other:?}"),
            }
            assert!(
                largest <= claimed + 64,
                "claimed {claimed}: allocated {largest}"
            );
        }
    }
}

/// The least a LoadGen-side endpoint can be: issues over a bare socket
/// under trace id zero and blocks for the answer.
struct ZeroTraceClient {
    stream: Mutex<TcpStream>,
}

impl RealtimeSut for ZeroTraceClient {
    fn name(&self) -> &str {
        "zero-trace"
    }

    fn issue(&self, query: &Query) -> Vec<SampleCompletion> {
        let mut stream = self.stream.lock().unwrap();
        let issue = Message::IssueTraced {
            trace_id: 0,
            query: query.clone(),
        };
        write_frame(&mut *stream, &issue.to_wire()).expect("issue");
        loop {
            let frame = read_frame(&mut *stream).expect("a frame");
            match Message::from_wire(&frame).expect("a message") {
                Message::Completion {
                    query_id,
                    error: false,
                    samples,
                } if query_id == query.id => return samples,
                Message::HeartbeatAck { .. } => {} // the daemon vouching
                other => panic!("query {}: {other:?}", query.id),
            }
        }
    }
}

/// Zero is a trace id like any other: a run issued under it end to end is
/// VALID, and the daemon ships a queue and a compute span for every one
/// of its queries, tagged 0.
#[test]
fn a_run_issued_under_trace_id_zero_is_served_and_traced() {
    let service = Arc::new(SleepSut::new("echo", std::time::Duration::ZERO));
    let server = serve_on("127.0.0.1:0", service, ServeConfig::default()).expect("serve");
    let settings = TestSettings::single_stream()
        .with_min_query_count(16)
        .with_min_duration(Nanos::from_micros(1));
    let mut qsl = MemoryQsl::new("zero-qsl", 8, 8);
    let hello = RemoteSut::hello_for(
        &settings,
        qsl.total_sample_count() as u64,
        &RemoteSutConfig::default(),
    );
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    write_frame(&mut stream, &Message::Hello(hello).to_wire()).expect("hello");
    let ack = Message::from_wire(&read_frame(&mut stream).expect("ack frame")).expect("ack");
    assert!(matches!(ack, Message::HelloAck { version, .. } if version == PROTOCOL_VERSION));

    let client = Arc::new(ZeroTraceClient {
        stream: Mutex::new(stream),
    });
    let sut: Arc<dyn RealtimeSut> = client.clone();
    let out = Run::wall_clock(&settings).run(&mut qsl, sut).expect("run");
    assert!(out.result.is_valid(), "{:?}", out.result.validity);
    let queries = out.records.len();
    assert!(queries >= 16);

    let mut stream = client.stream.lock().unwrap();
    write_frame(&mut *stream, &Message::Drain.to_wire()).expect("drain");
    let mut spans = Vec::new();
    loop {
        let frame = read_frame(&mut *stream).expect("a frame after drain");
        match Message::from_wire(&frame).expect("a message") {
            Message::Events { jsonl } => spans.extend(parse_detail_log(&jsonl).expect("rows")),
            Message::HeartbeatAck { .. } => {}
            Message::Goodbye { served } => {
                assert_eq!(served, queries as u64);
                break;
            }
            other => panic!("after drain: {other:?}"),
        }
    }
    let phase_count = |wanted: &str| {
        spans
            .iter()
            .filter(|row| {
                matches!(&row.event, TraceEvent::SpanEvent(span) if span.trace_id == 0 && span.phase == wanted)
            })
            .count()
    };
    assert_eq!(spans.len(), 2 * queries);
    assert_eq!(
        (phase_count("queue"), phase_count("compute")),
        (queries, queries)
    );
    drop(stream);
    server.shutdown();
}
