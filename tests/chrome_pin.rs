//! The Chrome trace export, pinned byte for byte.
//!
//! `chrome_trace_json` renders every variant that carries a host, a phase
//! or a reason — wire spans, clock syncs, shard rows, run phases, validity
//! failures — and the structural tests in `crates/trace` only check that
//! its output is well formed. This test renders three inputs and holds
//! each to the document committed under `results/fixtures/`:
//!
//! - the merged client+server wire log (spans, clock syncs, wire events,
//!   run phases);
//! - the chaos flight dump (a wire fault, validity failures);
//! - a small fleet log of shard routing and health rows, written out
//!   below as detail-log lines.
//!
//! On a mismatch the fresh document is written under `target/chrome_pin/`
//! and the failure prints the `cp` that installs it.

use mlperf_trace::{chrome_trace_json, read_detail_log, read_detail_log_str, TraceRecord};
use std::path::{Path, PathBuf};

/// Shard routing, failover and the whole health cycle of one shard, with
/// labels whose natural order (`shard-2` before `shard-10`) differs from
/// their byte order, and a detail that needs escaping.
const SHARD_LOG: &str = r#"{"ts_ns":1000,"event":{"QueryIssued":{"query_id":1,"sample_count":1,"delay_ns":0}}}
{"ts_ns":1000,"event":{"ShardEvent":{"shard":"shard-0","kind":"route","query_id":1,"detail":"round_robin"}}}
{"ts_ns":1500,"event":{"QueryIssued":{"query_id":2,"sample_count":4,"delay_ns":20}}}
{"ts_ns":1500,"event":{"ShardEvent":{"shard":"shard-10","kind":"route","query_id":2,"detail":"round_robin"}}}
{"ts_ns":2000,"event":{"ShardEvent":{"shard":"shard-0","kind":"suspect","query_id":0,"detail":"1 failure"}}}
{"ts_ns":2100,"event":{"ShardEvent":{"shard":"shard-2","kind":"failover","query_id":1,"detail":"shard-0 vanished: \"reset\"\n"}}}
{"ts_ns":2500,"event":{"ShardEvent":{"shard":"shard-0","kind":"down","query_id":0,"detail":"3 failures"}}}
{"ts_ns":3000,"event":{"QueryCompleted":{"query_id":1,"latency_ns":2000}}}
{"ts_ns":4000,"event":{"QueryCompleted":{"query_id":2,"latency_ns":2500}}}
{"ts_ns":9000,"event":{"ShardEvent":{"shard":"shard-0","kind":"rejoin","query_id":0,"detail":"probe ok"}}}
{"ts_ns":9100,"event":{"ShardEvent":{"shard":"shard-0","kind":"drained","query_id":0,"detail":"4"}}}
{"ts_ns":9500,"event":{"ShardEvent":{"shard":"shard-0","kind":"up","query_id":0,"detail":""}}}
"#;

fn repo(path: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(path)
}

/// Renders `records` and compares the document with the committed `pin`.
fn assert_pinned(records: &[TraceRecord], pin: &str) -> Result<(), String> {
    let rendered = chrome_trace_json(records);
    let committed = std::fs::read_to_string(repo(pin)).unwrap_or_default();
    if rendered == committed {
        return Ok(());
    }
    let fresh = repo("target/chrome_pin").join(Path::new(pin).file_name().expect("a file name"));
    std::fs::create_dir_all(fresh.parent().expect("a directory")).expect("target/ is writable");
    std::fs::write(&fresh, &rendered).expect("the fresh document is written");
    let at = rendered
        .bytes()
        .zip(committed.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(rendered.len().min(committed.len()));
    Err(format!(
        "{pin}: the export differs from the pin at byte {at} ({} vs {} bytes); \
         after an intentional change: cp {} {pin}",
        rendered.len(),
        committed.len(),
        fresh.display(),
    ))
}

#[test]
fn the_chrome_export_of_every_committed_log_is_byte_identical() {
    let mut failures = Vec::new();
    for (log, pin) in [
        (
            "results/fixtures/netbench_merged.jsonl",
            "results/fixtures/netbench_merged.chrome.json",
        ),
        (
            "results/fixtures/chaos_flight.jsonl",
            "results/fixtures/chaos_flight.chrome.json",
        ),
    ] {
        let log = read_detail_log(repo(log)).expect("fixture reads");
        assert_eq!(log.torn, None);
        failures.extend(assert_pinned(&log.records, pin).err());
    }
    let shards = read_detail_log_str(SHARD_LOG).expect("shard log reads");
    assert_eq!(shards.records.len(), 12);
    failures
        .extend(assert_pinned(&shards.records, "results/fixtures/shard_events.chrome.json").err());
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
