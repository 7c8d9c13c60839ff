//! The names `BENCHMARK.json` lists, as the binary knows them. A test
//! holds the two together.

/// An end-to-end metric: name, unit, and the share of the parent's median
/// by which it may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

/// Every workload reports every one of these (all lower-is-better).
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "overhead_ns_per_query",
        unit: "ns",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.25,
    },
];

/// The six workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 6] = [
    "sim_plain",
    "sim_journaled",
    "sim_traced",
    "wire_codec",
    "wire_closed",
    "fleet_open",
];

/// The wall-clock workloads, which measure on one CPU (see
/// `rerun_quietly` in `main.rs`).
pub const ONE_CPU: [&str; 2] = ["wire_closed", "fleet_open"];

/// Every per-layer metric a traced run reports, whichever workload was
/// chosen: the chosen one measures its own layers at full size, the
/// others fill theirs in at a tenth.
pub const PER_LAYER: &[&str] = &[
    // sim_plain: stats, core (schedule, des, record, validate), sut::engine, models
    "sim_plain.server_ns_per_query",
    "sim_plain.single_stream_ns_per_query",
    "sim_plain.multi_stream_ns_per_query",
    "sim_plain.offline_ns_per_sample",
    "sim_plain.trace_overhead_pct",
    "sim_plain.span_coverage_pct",
    "stats.rng_next_ns",
    "stats.poisson_draw_ns",
    "stats.percentile_ns_per_sample",
    "core.schedule_ns_per_query",
    "core.record_ns_per_query",
    "core.validate_ns_per_query",
    "core.des_self_ns_per_query.server",
    "core.des_self_ns_per_query.single_stream",
    "core.des_self_ns_per_query.multi_stream",
    "core.des_self_ns_per_sample.offline",
    "sut.sim_busy_ns_per_query.null",
    "sut.sim_busy_ns_per_query.device",
    "sut.sim_wakeups_per_query",
    "models.qsl_load_ns_per_sample",
    // sim_journaled: core::journal, trace::journal
    "sim_journaled.run_ns_per_query",
    "sim_journaled.load_ns_per_query",
    "sim_journaled.trace_overhead_pct",
    "sim_journaled.span_coverage_pct",
    "core.journal_checkpoint_ns_per_query",
    "core.journal_bytes_per_query",
    "core.journal_resume_ns_per_query",
    "trace.journal_append_ns_per_frame",
    "trace.journal_append_mb_per_s",
    "trace.journal_read_mb_per_s",
    // sim_traced: trace (sinks, json, reader, metrics), replay, core::replay
    "sim_traced.run_ns_per_query",
    "sim_traced.r3_ns_per_query",
    "sim_traced.jsonl_run_ns_per_query",
    "sim_traced.trace_overhead_pct",
    "sim_traced.span_coverage_pct",
    "trace.events_per_query",
    "trace.ring_record_ns_per_event",
    "trace.jsonl_write_ns_per_event",
    "trace.jsonl_bytes_per_query",
    "trace.reader_parse_ns_per_event",
    "trace.noop_overhead_pct",
    "trace.metrics_incr_ns",
    "trace.metrics_incr_contended_ns",
    "replay.record_ns_per_query",
    "replay.mlpr_encode_ns_per_query",
    "replay.mlpr_decode_ns_per_query",
    "replay.mlpr_bytes_per_query",
    "replay.reduce_ns_per_query",
    "core.replay_ns_per_query",
    // wire_codec: wire (message, frame)
    "wire_codec.trace_overhead_pct",
    "wire_codec.span_coverage_pct",
    "wire.issue_encode_ns",
    "wire.issue_decode_ns",
    "wire.completion_encode_ns",
    "wire.completion_decode_ns",
    "wire.seal_ns",
    "wire.open_ns",
    "wire.crc32_mb_per_s",
    "wire.frame_io_ns",
    "wire.bytes_per_query",
    // wire_closed: wire (client, server), core::realtime
    "wire_closed.trace_overhead_pct",
    "wire_closed.latency_samples",
    "core.realtime_overhead_p99_us.closed",
    "core.realtime_self_p50_us.closed",
    "wire.client_rtt_p50_us.closed",
    "wire.client_rtt_p99_us.closed",
    "wire.service_p50_ns.closed",
    "wire.connect_ms.closed",
    "wire.ctx_switches_per_query.closed",
    "wire.sat_queries_per_s.closed",
    // fleet_open: the same, plus sut::shard and the realtime worker pool
    "fleet_open.trace_overhead_pct",
    "fleet_open.latency_samples",
    "core.realtime_overhead_p99_us.open",
    "core.realtime_self_p50_us.open",
    "core.realtime_issue_lateness_p50_us",
    "core.realtime_issue_lateness_p99_us",
    "core.realtime_achieved_rate_fraction",
    "wire.client_rtt_p50_us.open",
    "wire.client_rtt_p99_us.open",
    "wire.service_p50_ns.open",
    "wire.connect_ms.open",
    "wire.ctx_switches_per_query.open",
    "wire.sat_queries_per_s.open",
    "sut.shard_self_p50_ns",
    "sut.shard_failovers",
];

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_trace::JsonValue;
    use std::collections::BTreeSet;

    fn names(doc: &JsonValue, key: &str) -> Vec<String> {
        doc.field(key)
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                m.field("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(names(&doc, "workloads"), WORKLOADS);
        assert_eq!(names(&doc, "per_layer"), PER_LAYER);
        let listed = doc
            .field("end_to_end")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (json, ours) in listed.iter().zip(&END_TO_END) {
            assert_eq!(json.field("name").unwrap().as_str().unwrap(), ours.name);
            assert_eq!(json.field("unit").unwrap().as_str().unwrap(), ours.unit);
            assert_eq!(json.field("bound").unwrap().as_f64().unwrap(), ours.bound);
            assert_eq!(json.field("better").unwrap().as_str().unwrap(), "lower");
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<&str> = PER_LAYER
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(WORKLOADS)
            .collect();
        assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len());
        assert!(PER_LAYER.len() <= 128);
        for name in all {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }
}
