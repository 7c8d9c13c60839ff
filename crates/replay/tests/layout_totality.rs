//! The `MLPR` body's declared records held to the shared totality check
//! (`trace/tests/support/byte_totality.rs`). The file's framing (magic,
//! version, CRC) is `mlpr_codec.rs`'s.

use mlperf_loadgen::Scenario;
use mlperf_replay::{RecordedQuery, RecordedTrace};
use mlperf_stats::rng::Rng64;

#[path = "../../trace/tests/support/byte_totality.rs"]
mod byte_totality;
use byte_totality::draw;
#[path = "../../trace/tests/support/counting_alloc.rs"]
mod counting_alloc;

fn query(rng: &mut Rng64) -> RecordedQuery {
    RecordedQuery {
        delta_ns: rng.next_below(5_000_000),
        // `u64::MAX` is the "never resolved" sentinel, not a latency.
        latency_ns: (rng.next_below(5) > 0).then(|| rng.next_below(u64::MAX)),
        error: rng.next_below(7) == 0,
        indices: (0..rng.next_below(4))
            .map(|_| rng.next_u64() as u32)
            .collect(),
    }
}

fn trace(rng: &mut Rng64) -> RecordedTrace {
    RecordedTrace {
        scenario: Scenario::ALL[rng.next_below(4) as usize],
        synthetic_indices: rng.next_below(2) == 1,
        population: rng.next_u64(),
        samples_per_query: rng.next_u64() as u32,
        target_latency_ns: rng.next_u64(),
        target_percentile: rng.next_f64() * 100.0,
        server_target_qps: rng.next_f64() * 1e4,
        max_error_fraction: rng.next_f64(),
        interval_ns: rng.next_u64(),
        source: ["", "perf", "loadgen-µ"][rng.next_below(3) as usize].to_string(),
        queries: (0..rng.next_below(6)).map(|_| query(rng)).collect(),
    }
}

layout_totality! {
    recorded_query_is_total: RecordedQuery = draw(16, 1, query);
    recorded_trace_is_total: RecordedTrace = draw(12, 2, trace);
}
