//! The detail-log line codec: one function, two implementations.
//!
//! `TraceRecord::from_json_str` pulls a record straight out of a line and
//! `TraceRecord::to_json_string` / `JsonlSink` stream one straight into
//! bytes; the `JsonValue` tree path (`JsonValue::parse` +
//! `from_json_value`, `to_json_value` + `to_compact`) is the reference.
//! These tests hold the two to the same verdict, value and error text on
//! whatever a line can be mutated into, under a counting allocator: never
//! a panic (the test profile has overflow checks on), never an allocation
//! the input does not justify, none at all on the three lines a run
//! writes per query.

use mlperf_stats::rng::Rng64;
use mlperf_trace::{
    FromJson, JsonError, JsonValue, JsonlSink, ToJson, TraceEvent, TraceRecord, TraceSink,
};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::largest_alloc_during;

/// The reference decoder: build the tree, then read the record off it.
fn tree(line: &str) -> Result<TraceRecord, JsonError> {
    TraceRecord::from_json_value(&JsonValue::parse(line)?)
}

/// Decodes `line` both ways and holds them to the same result — value or
/// error text — and the pull decoder to an allocation the line's length
/// accounts for. Returns whether the line was accepted.
fn assert_same(line: &str) -> bool {
    let (pulled, largest) = largest_alloc_during(|| TraceRecord::from_json_str(line));
    assert!(
        largest <= 4 * line.len() + 64,
        "a {}-byte line made the decoder allocate {largest} bytes: {line}",
        line.len()
    );
    let tree = tree(line);
    // NaN is not `==` itself; the debug text is.
    if pulled != tree {
        assert_eq!(format!("{pulled:?}"), format!("{tree:?}"), "{line}");
    }
    pulled.is_ok()
}

/// One record per variant, with values that stress the text: escapes,
/// multi-byte characters, the integer extremes, a float, a NaN.
fn one_of_each() -> Vec<TraceRecord> {
    let s = String::from;
    let events = vec![
        TraceEvent::RunPhase {
            phase: s("is\"sue"),
            scenario: s("ser\\ver"),
        },
        TraceEvent::QueryScheduled {
            query_id: u64::MAX,
            sample_count: 2,
        },
        TraceEvent::QueryIssued {
            query_id: 135_167,
            sample_count: 1,
            delay_ns: 0,
        },
        TraceEvent::QuerySent { query_id: 135_167 },
        TraceEvent::QueryCompleted {
            query_id: 135_167,
            latency_ns: 50_000,
        },
        TraceEvent::BatchFormed {
            unit: 1,
            batch_size: 8,
            service_ns: 42_000,
        },
        TraceEvent::DvfsStateChange {
            unit: 0,
            multiplier_milli: u32::MAX,
        },
        TraceEvent::OverloadDropped {
            query_id: 9,
            intervals: 3,
        },
        TraceEvent::AccuracyLogged {
            query_id: 9,
            samples: 4,
        },
        TraceEvent::ValidityCheckFailed {
            issue: s("a\nb\tc\u{1}é😀"),
        },
        TraceEvent::PeakSearchStep {
            target: 125.5,
            valid: true,
        },
        TraceEvent::PeakSearchStep {
            target: f64::NAN,
            valid: false,
        },
        TraceEvent::QueryErrored {
            query_id: 11,
            latency_ns: 88_000,
        },
        TraceEvent::FaultInjected {
            query_id: 11,
            fault: s("transient_error"),
        },
        TraceEvent::RecoveryAction {
            query_id: 11,
            action: s("retry"),
            attempt: 2,
        },
        TraceEvent::WireEvent {
            endpoint: s("client"),
            kind: s("heartbeat_loss"),
            query_id: 0,
            detail: s("no pong for 250ms"),
        },
        TraceEvent::WireFault {
            endpoint: s("client"),
            fault: s("corrupt"),
            frame: 4,
            detail: s("recv: flipped byte 17"),
        },
        TraceEvent::SpanEvent {
            host: s("server"),
            trace_id: 0xDEAD_BEEF_CAFE_F00D,
            query_id: 7,
            phase: s("compute"),
            dur_ns: 42_000,
        },
        TraceEvent::ClockSync {
            host: s("server"),
            offset_ns: i64::MIN,
            rtt_ns: 18_000,
        },
        TraceEvent::ShardEvent {
            shard: s("shard-2"),
            kind: s("failover"),
            query_id: 7,
            detail: s("shard-0 vanished"),
        },
    ];
    events
        .into_iter()
        .enumerate()
        .map(|(i, event)| TraceRecord {
            ts_ns: 1_000_000_007 * i as u64,
            event,
        })
        .collect()
}

fn below(rng: &mut Rng64, n: usize) -> usize {
    rng.next_below(n as u64) as usize
}

/// A value no field of any variant expects in every position: each kind,
/// and the integers just past each range.
fn stray_value(rng: &mut Rng64) -> JsonValue {
    match below(rng, 10) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(true),
        2 => JsonValue::Int(-1),
        3 => JsonValue::Int(i128::from(u64::MAX) + 1),
        4 => JsonValue::Int(i128::from(i64::MIN) - 1),
        5 => JsonValue::Int(i128::from(rng.next_u64())),
        6 => JsonValue::Float(2.5),
        7 => JsonValue::Str("stra\ny".into()),
        8 => JsonValue::Array(vec![JsonValue::Int(1), JsonValue::Array(Vec::new())]),
        _ => JsonValue::object(vec![("query_id", JsonValue::Int(3))]),
    }
}

/// The members of the record object (`level` 0), of its `event` (1), or
/// of the variant's payload (2) — or of the deepest of those an earlier
/// mutation left standing.
fn members(value: &mut JsonValue, level: usize) -> &mut Vec<(String, JsonValue)> {
    let JsonValue::Object(fields) = value else {
        panic!("a record renders as an object");
    };
    let child = fields
        .iter()
        .rposition(|(_, v)| matches!(v, JsonValue::Object(inner) if !inner.is_empty()));
    match child {
        Some(at) if level > 0 => members(&mut fields[at].1, level - 1),
        _ => fields,
    }
}

/// A change the tree can express: reordered, duplicated, unknown, missing
/// or wrong-kind members, at any of the three levels.
fn mutate_structure(rng: &mut Rng64, value: &mut JsonValue) {
    let fields = members(value, below(rng, 3));
    let at = below(rng, fields.len());
    match below(rng, 5) {
        0 => {
            for i in (1..fields.len()).rev() {
                fields.swap(i, below(rng, i + 1));
            }
        }
        1 => {
            let duplicate = (fields[at].0.clone(), stray_value(rng));
            fields.insert(below(rng, fields.len() + 1), duplicate);
        }
        2 => {
            let unknown = (
                ["zz", "", "ts_ns\u{e9}"][below(rng, 3)].to_string(),
                stray_value(rng),
            );
            fields.insert(below(rng, fields.len() + 1), unknown);
        }
        3 => drop(fields.remove(at)),
        _ => fields[at].1 = stray_value(rng),
    }
}

/// A change only bytes can express: overwrite, truncate, insert, delete.
fn mutate_bytes(rng: &mut Rng64, line: &str) -> String {
    const ALPHABET: &[u8] = b",:{}[]\"0-.e\\ ud8+";
    let mut bytes = line.as_bytes().to_vec();
    let at = below(rng, bytes.len());
    let pick = ALPHABET[below(rng, ALPHABET.len())];
    match below(rng, 4) {
        0 => bytes[at] = pick,
        1 => bytes.truncate(at),
        2 => bytes.insert(at, pick),
        _ => drop(bytes.remove(at)),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn pull_and_tree_agree_on_every_mutation_of_every_variant() {
    let mut rng = Rng64::new(0x0DE7_A111);
    let (mut accepted, mut rejected) = (0u32, 0u32);
    for record in one_of_each() {
        assert!(assert_same(&record.to_json_string()));
        for i in 0..10_000 {
            // A third structural, a third on the bytes, a third both; the
            // structural ones rendered with and without whitespace.
            let mut value = record.to_json_value();
            if i % 3 != 1 {
                for _ in 0..=below(&mut rng, 2) {
                    mutate_structure(&mut rng, &mut value);
                }
            }
            let mut line = if i % 2 == 0 {
                value.to_compact()
            } else {
                value.to_pretty()
            };
            if i % 3 != 0 {
                line = mutate_bytes(&mut rng, &line);
            }
            if assert_same(&line) {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
    }
    // Both arms are exercised: reorderings, unknown members and late
    // duplicates decode; most byte edits and every missing field do not.
    assert!(
        accepted >= 25_000 && rejected >= 100_000,
        "accepted {accepted}, rejected {rejected}"
    );
}

#[test]
fn acceptance_is_what_the_tree_path_accepts() {
    let canonical = TraceRecord {
        ts_ns: 5,
        event: TraceEvent::QueryCompleted {
            query_id: 7,
            latency_ns: 9,
        },
    };
    let deep = |n: usize| {
        format!(
            r#"{{"x":{}{},"ts_ns":5,"event":{{"QueryCompleted":{{"query_id":7,"latency_ns":9}}}}}}"#,
            "[".repeat(n),
            "]".repeat(n)
        )
    };
    for line in [
        // Any key order.
        r#"{"event":{"QueryCompleted":{"latency_ns":9,"query_id":7}},"ts_ns":5}"#.to_string(),
        // The first of a duplicated key wins, whatever the later one is.
        r#"{"ts_ns":5,"ts_ns":"x","event":{"QueryCompleted":{"query_id":7,"latency_ns":9,"query_id":{}}},"event":3}"#.to_string(),
        // Unknown members of any kind, anywhere but beside the variant.
        r#"{"a":null,"ts_ns":5,"b":[1,{"c":[]}],"event":{"QueryCompleted":{"d":{"query_id":1},"query_id":7,"e":"😀","latency_ns":9,"f":-2.5e3}}}"#.to_string(),
        // Whitespace, escaped keys, leading zeros.
        " {\t\"ts\\u005fns\" : 05 ,\r\n \"event\" : { \"Query\\u0043ompleted\" : { \"query_id\" : 7 , \"latency_ns\" : 9 } } } \n".to_string(),
        // More members than any variant has fields.
        r#"{"ts_ns":5,"event":{"QueryCompleted":{"a":1,"b":2,"c":3,"d":4,"e":5,"f":6,"g":7,"h":8,"i":9,"j":10,"query_id":7,"k":11,"latency_ns":9}}}"#.to_string(),
        // Nesting up to the limit.
        deep(128),
    ] {
        assert!(assert_same(&line), "{line}");
        assert_eq!(TraceRecord::from_json_str(&line).unwrap(), canonical, "{line}");
    }
    assert!(!assert_same(&deep(129)), "past the depth limit");
    assert!(!assert_same(&deep(100_000)), "and far past it");
}

#[test]
fn rejections_read_as_the_tree_path_words_them() {
    let with_event = |event: &str| format!(r#"{{"ts_ns":1,"event":{event}}}"#);
    for (line, message) in [
        (
            r#"{"ts_ns":"1","event":{"QuerySent":{"query_id":1}}}"#.to_string(),
            "expected unsigned integer, found string",
        ),
        (
            r#"{"ts_ns":-1,"event":{"QuerySent":{"query_id":1}}}"#.to_string(),
            "-1 out of u64 range",
        ),
        (
            with_event(r#"{"QuerySent":{"query_id":18446744073709551616}}"#),
            "18446744073709551616 out of u64 range",
        ),
        (
            with_event(r#"{"QuerySent":{"query_id":1.0}}"#),
            "expected unsigned integer, found float",
        ),
        (
            with_event(r#"{"DvfsStateChange":{"unit":0,"multiplier_milli":4294967296}}"#),
            "out of u32 range",
        ),
        (
            with_event(r#"{"ClockSync":{"host":"h","offset_ns":9223372036854775808,"rtt_ns":1}}"#),
            "9223372036854775808 out of i64 range",
        ),
        (
            with_event(r#"{"ClockSync":{"host":7,"offset_ns":0,"rtt_ns":1}}"#),
            "expected string, found integer",
        ),
        (
            with_event(r#"{"PeakSearchStep":{"target":"3","valid":true}}"#),
            "expected number, found string",
        ),
        (
            with_event(r#"{"PeakSearchStep":{"target":3,"valid":null}}"#),
            "expected bool, found null",
        ),
        (
            with_event(r#"{"QuerySent":{}}"#),
            "missing field \"query_id\"",
        ),
        (
            with_event(r#"{"QuerySent":[1]}"#),
            "missing field \"query_id\"",
        ),
        (
            with_event(r#"{"QueryVanished":{}}"#),
            "unknown trace event \"QueryVanished\"",
        ),
        (
            with_event("[]"),
            "expected single-variant object, found array",
        ),
        (
            with_event("{}"),
            "expected single-variant object, found object",
        ),
        (
            with_event(r#"{"QuerySent":{"query_id":1},"QuerySent":{"query_id":1}}"#),
            "expected single-variant object, found object",
        ),
        (r#"{"ts_ns":1}"#.to_string(), "missing field \"event\""),
        ("[]".to_string(), "missing field \"ts_ns\""),
        (
            // The document's own error comes before any field's.
            r#"{"ts_ns":"1","event":{"QuerySent":{"query_id":1}}} x"#.to_string(),
            "trailing characters at byte 51",
        ),
    ] {
        assert!(!assert_same(&line), "{line}");
        let error = TraceRecord::from_json_str(&line).unwrap_err();
        assert_eq!(
            error.to_string(),
            format!("json error: {message}"),
            "{line}"
        );
    }
}

/// A writer that keeps nothing, so the only allocations a sink could make
/// are its own.
struct Discard;

impl std::io::Write for Discard {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn the_three_lines_of_a_query_cost_no_allocation_either_way() {
    let hot: Vec<TraceRecord> = one_of_each()
        .into_iter()
        .filter(|r| {
            matches!(
                r.event,
                TraceEvent::QueryIssued { .. }
                    | TraceEvent::QuerySent { .. }
                    | TraceEvent::QueryCompleted { .. }
            )
        })
        .collect();
    assert_eq!(hot.len(), 3);

    for record in &hot {
        let line = record.to_json_string();
        let (back, largest) = largest_alloc_during(|| TraceRecord::from_json_str(&line));
        assert_eq!(back.as_ref(), Ok(record));
        assert_eq!(largest, 0, "parsing {line} allocated");
    }

    let sink = JsonlSink::new(Box::new(Discard));
    // Warm-up: the sink's line buffer grows to the longest line once.
    for record in &hot {
        sink.record(record.ts_ns, &record.event);
    }
    let ((), largest) = largest_alloc_during(|| {
        for record in &hot {
            sink.record(record.ts_ns, &record.event);
        }
        sink.flush();
    });
    assert_eq!(largest, 0, "a warm sink allocated");
}
