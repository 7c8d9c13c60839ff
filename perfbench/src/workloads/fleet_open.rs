//! `fleet_open`: open loop, Poisson arrivals, latency timed from the
//! scheduled arrival. `run_realtime` server (two workers) → `ShardedSut`
//! round-robin → two `RemoteSut`s → two loopback `EchoSut` daemons.
//!
//! The same wire layer as `wire_closed`, used differently: pipelined,
//! paced by `thread::sleep`, routed. Batching or coalescing that helps
//! one and hurts the other shows. It is also the only workload where
//! `core::realtime`'s worker pool and `sut::shard` do any work.

use super::wire_run::{read_session, run_session, sustained_qps, Names};
use crate::harness::{sample, Repeat, Sample, Scale, Workload};
use crate::span::SpanLog;
use crate::summary::nearest_rank;
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::time::Nanos;
use mlperf_stats::rng::SeedTriple;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Arrival rate, queries/s: about a quarter of what the fleet sustains.
const RATE: f64 = 2_000.0;
/// Queries per fleet: a dozen fleets fit in a run.
const QUERIES: u64 = 1_250;
/// Completions must keep up with arrivals this closely, or a backlog grew.
const MIN_RATE_FRACTION: f64 = 0.98;

const NAMES: Names = Names {
    overhead_p99_us: "core.realtime_overhead_p99_us.open",
    latency_samples: "fleet_open.latency_samples",
    realtime_self_p50_us: "core.realtime_self_p50_us.open",
    client_rtt_p50_us: "wire.client_rtt_p50_us.open",
    client_rtt_p99_us: "wire.client_rtt_p99_us.open",
    service_p50_ns: "wire.service_p50_ns.open",
    connect_ms: "wire.connect_ms.open",
    ctx_switches_per_query: "wire.ctx_switches_per_query.open",
};

/// The `fleet_open` workload.
pub struct FleetOpen {
    settings: TestSettings,
}

impl Workload for FleetOpen {
    const NAME: &'static str = "fleet_open";
    const TRACE_OVERHEAD: &'static str = "fleet_open.trace_overhead_pct";

    fn setup(seed: u64, scale: Scale, _scratch: &Path) -> Result<Self, String> {
        // The latency bound is far beyond any overhead: a host stall that
        // delays a hundredth of one fleet's queries must not fail the
        // benchmark. The structural rules (errors, outstanding queries,
        // counts) still apply.
        Ok(FleetOpen {
            settings: TestSettings::server(RATE, Nanos::from_secs(10))
                .with_server_workers(2)
                .with_min_query_count(scale.of(QUERIES, 1_000))
                .with_min_duration(Nanos::from_micros(1))
                .with_seeds(SeedTriple::from_master(seed)),
        })
    }

    fn repeat(&mut self, trace: Option<&Arc<SpanLog>>) -> Result<Repeat, String> {
        let session = run_session(&self.settings, 2, true, trace)?;
        let (mut r, spans) = read_session(&session, &NAMES, trace)?;

        // Completion rate over arrival rate: how closely the last
        // completion follows the last scheduled arrival.
        let records = &session.outcome.records;
        let last_arrival = records.iter().map(|r| r.scheduled_at).max();
        let last_done = records.iter().filter_map(|r| r.completed_at).max();
        let fraction = match (last_arrival, last_done) {
            (Some(a), Some(d)) if d.as_nanos() > 0 => a.as_nanos() as f64 / d.as_nanos() as f64,
            _ => 0.0,
        };
        r.samples.extend([
            sample("core.realtime_achieved_rate_fraction", "ratio", fraction),
            sample("sut.shard_failovers", "count", session.failovers as f64),
        ]);

        if let (Some(outer), Some(inner)) = (spans.get("sut.shard"), spans.get("wire.client_rtt")) {
            let mut own: Vec<u64> = outer
                .iter()
                .filter_map(|(query, (_, d))| Some(d.saturating_sub(inner.get(query)?.1)))
                .collect();
            own.sort_unstable();
            // The loop records `issued_at = scheduled_at`, so how late the
            // generator really ran only shows at the SUT boundary.
            let mut late: Vec<u64> = records
                .iter()
                .filter_map(|rec| {
                    let entered = outer.get(&rec.id)?.0.saturating_sub(session.origin_ns);
                    Some(entered.saturating_sub(rec.scheduled_at.as_nanos()))
                })
                .collect();
            late.sort_unstable();
            let p = |v: &[u64], f| nearest_rank(v, f).unwrap_or(0) as f64;
            r.samples.extend([
                sample("sut.shard_self_p50_ns", "ns", p(&own, 0.5)),
                sample(
                    "core.realtime_issue_lateness_p50_us",
                    "us",
                    p(&late, 0.5) / 1e3,
                ),
                sample(
                    "core.realtime_issue_lateness_p99_us",
                    "us",
                    p(&late, 0.99) / 1e3,
                ),
            ]);
        }
        Ok(r)
    }

    /// No growing backlog. One fleet may end on a host stall, so the rule
    /// is applied to the median fleet; a queue that really grows drags
    /// every fleet's fraction down.
    fn check(layers: &BTreeMap<&'static str, (&'static str, f64)>) -> Result<(), String> {
        match layers.get("core.realtime_achieved_rate_fraction") {
            Some((_, fraction)) if *fraction >= MIN_RATE_FRACTION => Ok(()),
            other => Err(format!(
                "completions kept up with {:.1} % of the arrival rate: a backlog grew",
                other.map_or(0.0, |(_, f)| f * 100.0)
            )),
        }
    }

    fn probes(&mut self) -> Result<Vec<Sample>, String> {
        // One extra fleet at a rate nothing reaches: what it sustains is
        // the capacity the open-loop rate should be read against.
        let mut flat_out = self.settings.clone();
        flat_out.server_target_qps = 1e6;
        let session = run_session(&flat_out, 2, true, None)?;
        let result = &session.outcome.result;
        if result.error_count > 0 || result.query_count != self.settings.min_query_count {
            return Err(format!(
                "saturation fleet: {} of {} queries, {} errored",
                result.query_count, self.settings.min_query_count, result.error_count
            ));
        }
        Ok(vec![sustained_qps(&session, "wire.sat_queries_per_s.open")])
    }
}
