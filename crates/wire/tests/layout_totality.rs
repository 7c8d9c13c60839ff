//! The wire's declared records held to the shared totality check
//! (`trace/tests/support/byte_totality.rs`), and the layout table in
//! `message.rs`'s module docs held to the one the declarations generate.

use mlperf_loadgen::query::{Query, QuerySample, ResponsePayload, SampleCompletion};
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::Scenario;
use mlperf_stats::rng::{Rng64, SeedTriple};
use mlperf_trace::bytes::ByteLayout;
use mlperf_wire::message::{Hello, Message, PROTOCOL_VERSION};

#[path = "../../trace/tests/support/byte_totality.rs"]
mod byte_totality;
use byte_totality::draw;
#[path = "../../trace/tests/support/counting_alloc.rs"]
mod counting_alloc;

fn hello(rng: &mut Rng64) -> Hello {
    Hello {
        version: PROTOCOL_VERSION,
        scenario: Scenario::ALL[rng.next_below(4) as usize],
        seeds: SeedTriple {
            qsl_seed: rng.next_u64(),
            schedule_seed: rng.next_u64(),
            accuracy_seed: rng.next_u64(),
        },
        qsl_size: rng.next_below(1 << 20),
        max_in_flight: rng.next_below(256) as u32,
        session: rng.next_u64(),
        epoch: rng.next_below(4) as u32,
        resume: rng.next_below(2) == 0,
    }
}

fn payload(rng: &mut Rng64) -> ResponsePayload {
    match rng.next_below(4) {
        0 => ResponsePayload::Empty,
        1 => ResponsePayload::Class(rng.next_below(1_000) as usize),
        2 => ResponsePayload::Boxes(vec![(3, 0.25, [0.0, 1.0, 2.0, 3.0])]),
        _ => ResponsePayload::Tokens(vec![5, 6]),
    }
}

/// One message of every tag, in turn, with drawn fields.
fn message(rng: &mut Rng64) -> Message {
    let text = |rng: &mut Rng64| "αβ-frame ".repeat(rng.next_below(3) as usize);
    match rng.next_below(13) {
        0 => Message::Hello(hello(rng)),
        1 => Message::HelloAck {
            version: PROTOCOL_VERSION,
            sut_name: text(rng),
            max_in_flight: rng.next_below(64) as u32,
        },
        2 => Message::Reject { reason: text(rng) },
        3 => Message::Completion {
            query_id: rng.next_u64(),
            error: rng.next_below(2) == 0,
            samples: (0..rng.next_below(4))
                .map(|i| SampleCompletion {
                    sample_id: i,
                    payload: payload(rng),
                })
                .collect(),
        },
        4 => Message::HeartbeatAck { seq: 0 },
        5 => Message::Drain,
        6 => Message::Goodbye {
            served: rng.next_u64(),
        },
        7 => Message::IssueTraced {
            trace_id: rng.next_u64(),
            query: Query {
                id: rng.next_u64(),
                scheduled_at: Nanos::from_nanos(rng.next_u64()),
                tenant: 0,
                samples: (0..rng.next_below(4))
                    .map(|i| QuerySample {
                        id: i,
                        index: rng.next_below(1_000) as usize,
                    })
                    .collect(),
            },
        },
        8 => Message::Events { jsonl: text(rng) },
        9 => Message::StatsRequest,
        10 => Message::Stats { json: text(rng) },
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

layout_totality! {
    hello_is_total: Hello = draw(8, 1, hello);
    message_is_total: Message = draw(64, 2, message);
}

/// The cells of each Markdown table row in `text`, trimmed: lines that
/// start with `|` (after `//! ` in a doc), less the header's rule.
fn rows(text: &str) -> Vec<Vec<String>> {
    text.lines()
        .map(|line| line.trim_start_matches("//!").trim())
        .filter(|line| line.starts_with('|') && !line.starts_with("|-"))
        .map(|line| {
            let cells = line.trim_matches('|').split('|');
            cells.map(|cell| cell.trim().to_string()).collect()
        })
        .collect()
}

/// The module docs' tables are the declarations' own: `Message`'s tags in
/// order (retired ones included), the records its frames carry, and the
/// response payload's tags.
#[test]
fn the_documented_layout_is_the_declared_one() {
    let source = include_str!("../src/message.rs");
    let docs: String = source
        .lines()
        .take_while(|line| line.starts_with("//!"))
        .map(|line| format!("{line}\n"))
        .collect();
    let mut tags = rows(Message::LAYOUT);
    tags.sort_by_key(|row| row[0].parse::<u8>().expect("a tag"));
    let records = [
        Hello::LAYOUT,
        Query::LAYOUT,
        QuerySample::LAYOUT,
        SampleCompletion::LAYOUT,
    ]
    .concat();
    let mut generated = vec![vec!["tag".into(), "message".into(), "fields".into()]];
    generated.extend(tags);
    generated.push(vec!["record".into(), "fields".into()]);
    generated.extend(rows(&records));
    generated.push(vec!["tag".into(), "payload".into(), "fields".into()]);
    generated.extend(rows(ResponsePayload::LAYOUT));
    assert_eq!(rows(&docs), generated);
}
