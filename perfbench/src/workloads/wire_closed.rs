//! `wire_closed`: closed loop, one client. `run_realtime` single-stream →
//! `RemoteSut` → loopback daemon (one worker) → `EchoSut`.
//!
//! The SUT takes no time, so the latency the LoadGen records *is* what
//! the LoadGen and the wire add to every measurement they make. Thread
//! hand-offs and syscalls dominate it; codec CPU is about a hundredth.

use super::wire_run::{read_session, run_session, sustained_qps, Names};
use crate::harness::{Repeat, Sample, Scale, Workload};
use crate::span::SpanLog;
use crate::summary::nearest_rank;
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::time::Nanos;
use mlperf_stats::rng::SeedTriple;
use std::path::Path;
use std::sync::Arc;

/// Queries per session: enough for a p99 with sixty samples beyond it,
/// few enough that a run holds some fifty sessions.
const QUERIES: u64 = 6_000;

const NAMES: Names = Names {
    overhead_p99_us: "core.realtime_overhead_p99_us.closed",
    latency_samples: "wire_closed.latency_samples",
    realtime_self_p50_us: "core.realtime_self_p50_us.closed",
    client_rtt_p50_us: "wire.client_rtt_p50_us.closed",
    client_rtt_p99_us: "wire.client_rtt_p99_us.closed",
    service_p50_ns: "wire.service_p50_ns.closed",
    connect_ms: "wire.connect_ms.closed",
    ctx_switches_per_query: "wire.ctx_switches_per_query.closed",
};

/// The `wire_closed` workload.
pub struct WireClosed {
    settings: TestSettings,
}

impl Workload for WireClosed {
    const NAME: &'static str = "wire_closed";
    const TRACE_OVERHEAD: &'static str = "wire_closed.trace_overhead_pct";

    fn setup(seed: u64, scale: Scale, _scratch: &Path) -> Result<Self, String> {
        Ok(WireClosed {
            settings: TestSettings::single_stream()
                .with_min_query_count(scale.of(QUERIES, 1_000))
                .with_min_duration(Nanos::from_micros(1))
                .with_seeds(SeedTriple::from_master(seed)),
        })
    }

    fn repeat(&mut self, trace: Option<&Arc<SpanLog>>) -> Result<Repeat, String> {
        let session = run_session(&self.settings, 1, false, trace)?;
        let (mut r, _) = read_session(&session, &NAMES, trace)?;
        // A closed loop is always saturated: its rate is its capacity.
        r.samples
            .push(sustained_qps(&session, "wire.sat_queries_per_s.closed"));
        Ok(r)
    }

    fn probes(&mut self) -> Result<Vec<Sample>, String> {
        Ok(Vec::new())
    }

    /// The p50 of the quietest tenth of the sessions, not of the median
    /// one. On a shared host a session's p50 has two values, 16 µs and
    /// 25 µs, and nothing between: whole stretches of seconds, across
    /// processes, run half as fast again (a neighbour on the sibling
    /// hardware thread, most likely). Between a seventh and six sevenths
    /// of a run's sessions land in the fast mode, so their median flips
    /// between the two and the tenth percentile stays in the fast one.
    /// The path is all CPU, so a slower LoadGen moves both modes alike.
    fn headline(session_p50s: &[f64]) -> f64 {
        let mut sorted = session_p50s.to_vec();
        sorted.sort_by(f64::total_cmp);
        nearest_rank(&sorted, 0.1).expect("at least one session ran")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_headline_stays_in_the_fast_mode() {
        // Six sessions in seven ran in the slow mode; one in three did.
        let mostly_slow: Vec<f64> = (0..49)
            .map(|i| if i % 7 == 0 { 16_300.0 } else { 24_800.0 })
            .collect();
        let mostly_fast: Vec<f64> = (0..49)
            .map(|i| if i % 3 == 0 { 24_800.0 } else { 16_300.0 })
            .collect();
        assert_eq!(WireClosed::headline(&mostly_slow), 16_300.0);
        assert_eq!(WireClosed::headline(&mostly_fast), 16_300.0);
        // A slower LoadGen moves every session, and shows.
        assert_eq!(WireClosed::headline(&[20_000.0; 49]), 20_000.0);
    }
}
