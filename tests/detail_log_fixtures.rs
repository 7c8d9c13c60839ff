//! The committed detail-log fixtures, through the streaming codec.
//!
//! `results/fixtures/*.jsonl` were written by the tree encoder
//! (`to_json_value().to_compact()`) and are what `analyze --check`
//! re-analyzes. The streaming encoder must render every one of their
//! record lines byte for byte, and the one-pass reader must hand back
//! what the tree decoder reads off the same lines: the on-disk format is
//! pinned by artifacts, not only by this codec's own round trip.

use mlperf_trace::{read_detail_log, render_detail_log, FromJson, JsonValue, ToJson, TraceRecord};
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
