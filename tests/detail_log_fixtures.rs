//! The committed detail-log fixtures, through the streaming codec.
//!
//! `results/fixtures/*.jsonl` were written by the tree encoder
//! (`to_json_value().to_compact()`) and are what `analyze --check`
//! re-analyzes. The streaming encoder must render every one of their
//! record lines byte for byte, and the one-pass reader must hand back
//! what the tree decoder reads off the same lines: the on-disk format is
//! pinned by artifacts, not only by this codec's own round trip. A log
//! the sink writes reaches the one-pass reader of the lines it writes and
//! the general walk of those it cannot take, and both agree with the tree.
//! Every variant, inline or boxed, comes back whole from every sink.

use mlperf_trace::{
    parse_flight_dump, read_detail_log, render_detail_log, ClockSync, FlightRecorder, FromJson,
    JsonValue, JsonlSink, RingBufferSink, RunPhase, ShardEvent, SpanEvent, ToJson, TraceEvent,
    TraceRecord, TraceSink, ValidityCheckFailed, WireEvent, WireFault,
};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results/fixtures")
        .join(name)
}

#[test]
fn committed_fixtures_re_render_byte_identically_and_read_back_the_same() {
    let mut record_lines = 0;
    for (name, header_lines) in [("netbench_merged.jsonl", 0), ("chaos_flight.jsonl", 1)] {
        let path = fixture(name);
        let text = std::fs::read_to_string(&path).expect("fixture is committed");
        let header: Vec<&str> = text.lines().take(header_lines).collect();
        let body: Vec<&str> = text.lines().skip(header_lines).collect();

        // The reference: every body line through the tree decoder.
        let expected: Vec<TraceRecord> = body
            .iter()
            .map(|line| {
                let tree = JsonValue::parse(line).expect("fixture line parses");
                TraceRecord::from_json_value(&tree).expect("fixture line is a record")
            })
            .collect();
        for (line, record) in body.iter().zip(&expected) {
            assert_eq!(record.to_json_string(), *line, "{name}: streamed encoder");
            assert_eq!(
                TraceRecord::from_json_str(line).as_ref(),
                Ok(record),
                "{name}: pull decoder"
            );
        }
        record_lines += body.len();

        let log = read_detail_log(&path).expect("fixture reads");
        assert_eq!(log.records, expected, "{name}");
        assert_eq!(log.torn, None, "{name}");
        assert_eq!(
            render_detail_log(&log.records),
            body.join("\n") + "\n",
            "{name}"
        );
        // A flight dump's one issue is its header's reason; a plain log
        // has none.
        let reasons: Vec<String> = header
            .iter()
            .map(|line| {
                let header = JsonValue::parse(line).expect("header parses");
                let reason = header.field("flight_dump").and_then(|d| d.field("reason"));
                reason
                    .and_then(JsonValue::as_str)
                    .expect("header carries a reason")
                    .to_string()
            })
            .collect();
        assert_eq!(log.issues, reasons, "{name}");
    }
    assert_eq!(record_lines, 386, "89 flight-dump events + 297 merged");
}

#[test]
fn a_sink_written_log_reads_back_the_same_three_ways() {
    let path = std::env::temp_dir().join(format!("detail-log-{}.jsonl", std::process::id()));
    let s = String::from;
    // The three lines of a query, a phase, and the integer boundaries:
    // 19 digits is the most the one-pass reader takes, 20 go the general
    // way, as do a float and an escape.
    let events = [
        TraceEvent::from(RunPhase {
            phase: s("issue"),
            scenario: s("server"),
        }),
        TraceEvent::QueryIssued {
            query_id: 0,
            sample_count: 1,
            delay_ns: 0,
        },
        TraceEvent::QuerySent { query_id: 0 },
        TraceEvent::QueryCompleted {
            query_id: 0,
            latency_ns: 50_000,
        },
        TraceEvent::QueryIssued {
            query_id: u64::MAX,
            sample_count: usize::MAX,
            delay_ns: 9_999_999_999_999_999_999,
        },
        TraceEvent::QuerySent {
            query_id: 10_000_000_000_000_000_000,
        },
        TraceEvent::QueryCompleted {
            query_id: 1,
            latency_ns: u64::MAX,
        },
        TraceEvent::DvfsStateChange {
            unit: 0,
            multiplier_milli: u32::MAX,
        },
        TraceEvent::from(ClockSync {
            host: s("server"),
            offset_ns: i64::MIN,
            rtt_ns: 0,
        }),
        TraceEvent::from(ClockSync {
            host: s("ser\"ver"),
            offset_ns: i64::MAX,
            rtt_ns: 1,
        }),
        TraceEvent::PeakSearchStep {
            target: 2.5,
            valid: true,
        },
        TraceEvent::from(RunPhase {
            phase: s("report"),
            scenario: s("server"),
        }),
    ];
    let sink = JsonlSink::create(&path).expect("log is created");
    for (i, event) in events.iter().enumerate() {
        let ts_ns = [u64::MAX, 9_999_999_999_999_999_999, 0][i % 3];
        sink.record(ts_ns, event);
    }
    sink.flush();
    drop(sink);

    let text = std::fs::read_to_string(&path).expect("log reads");
    let log = read_detail_log(&path).expect("log parses");
    std::fs::remove_file(&path).expect("log is removed");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), events.len());
    assert_eq!(log.records.len(), events.len());
    assert_eq!(log.torn, None);
    for ((line, read), event) in lines.iter().zip(&log.records).zip(&events) {
        let tree = TraceRecord::from_json_value(&JsonValue::parse(line).expect("line parses"))
            .expect("line is a record");
        assert_eq!(&tree.event, event, "{line}");
        assert_eq!(read, &tree, "reader: {line}");
        assert_eq!(
            TraceRecord::from_json_str(line).as_ref(),
            Ok(&tree),
            "pull decoder: {line}"
        );
    }
}

/// One event of each variant, the boxed ones with strings that need
/// escaping, at the integer extremes.
fn one_of_each() -> Vec<TraceEvent> {
    let s = String::from;
    vec![
        TraceEvent::QueryIssued {
            query_id: u64::MAX,
            sample_count: usize::MAX,
            delay_ns: 15,
        },
        TraceEvent::QuerySent { query_id: 7 },
        TraceEvent::QueryCompleted {
            query_id: 7,
            latency_ns: 130_000,
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
        TraceEvent::PeakSearchStep {
            target: -125.5,
            valid: true,
        },
        TraceEvent::QueryErrored {
            query_id: 11,
            latency_ns: 88_000,
        },
        TraceEvent::from(RunPhase {
            phase: s("is\"sue"),
            scenario: s("ser\\ver"),
        }),
        TraceEvent::from(ValidityCheckFailed {
            issue: s("a\nb\r\tc\u{1}é😀/"),
        }),
        TraceEvent::from(WireEvent {
            endpoint: s("client"),
            kind: s("heartbeat_loss"),
            query_id: 0,
            detail: s(""),
        }),
        TraceEvent::from(WireFault {
            endpoint: s("server"),
            fault: s("corrupt"),
            frame: u64::MAX,
            detail: s("recv: flipped byte 17"),
        }),
        TraceEvent::from(SpanEvent {
            host: s("shard-10"),
            trace_id: 0xDEAD_BEEF_CAFE_F00D,
            query_id: 7,
            phase: s("compute"),
            dur_ns: 42_000,
        }),
        TraceEvent::from(ClockSync {
            host: s("server"),
            offset_ns: i64::MIN,
            rtt_ns: 18_000,
        }),
        TraceEvent::from(ShardEvent {
            shard: s("shard-2"),
            kind: s("failover"),
            query_id: 7,
            detail: s("shard-0 vanished: \"reset\""),
        }),
    ]
}

#[test]
fn every_variant_comes_back_whole_from_every_sink() {
    let events = one_of_each();
    let kinds: BTreeSet<&str> = events.iter().map(TraceEvent::kind).collect();
    assert_eq!(kinds.len(), 16, "one event of each variant");
    let records: Vec<TraceRecord> = events
        .iter()
        .enumerate()
        .map(|(i, event)| TraceRecord {
            ts_ns: i as u64 * 1_000,
            event: event.clone(),
        })
        .collect();

    // A ring of three evicts every event but the last three, boxed
    // payloads among them, and holds the newest three in order after
    // every record.
    let ring = RingBufferSink::new(3);
    for (i, record) in records.iter().enumerate() {
        ring.record(record.ts_ns, &record.event);
        assert_eq!(
            ring.snapshot(),
            records[i.saturating_sub(2)..=i],
            "after {i}"
        );
    }
    assert_eq!(ring.dropped(), 13);

    // A flight recorder, in memory and through its dump.
    let recorder = FlightRecorder::new(records.len());
    for record in &records {
        recorder.record(record.ts_ns, &record.event);
    }
    assert_eq!(recorder.snapshot(), records);
    let dump = std::env::temp_dir().join(format!("flight-{}.jsonl", std::process::id()));
    recorder
        .dump_to(&dump, "every variant")
        .expect("dump is written");
    let text = std::fs::read_to_string(&dump).expect("dump reads");
    std::fs::remove_file(&dump).expect("dump is removed");
    let parsed = parse_flight_dump(&text).expect("dump parses");
    assert_eq!((parsed.evicted, parsed.records), (0, records.clone()));

    // A detail log on disk, read back by the streaming reader.
    let path = std::env::temp_dir().join(format!("every-variant-{}.jsonl", std::process::id()));
    let sink = JsonlSink::create(&path).expect("log is created");
    for record in &records {
        sink.record(record.ts_ns, &record.event);
    }
    drop(sink);
    let log = read_detail_log(&path).expect("log reads");
    std::fs::remove_file(&path).expect("log is removed");
    assert_eq!(log.torn, None);
    assert_eq!(log.records, records);
}
