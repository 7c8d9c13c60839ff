//! The six named workloads. PERF.md says why each one exists.

pub mod fleet_open;
pub mod sim_journaled;
pub mod sim_plain;
pub mod sim_traced;
pub mod wire_closed;
pub mod wire_codec;
mod wire_run;

use crate::harness::KEPT_SPANS;
use crate::span::{Span, SpanLog, NO_PARENT};
use crate::summary::Fnv;
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::record::QueryRecord;
use mlperf_loadgen::sut::FixedLatencySut;
use mlperf_loadgen::time::Nanos;
use mlperf_stats::rng::SeedTriple;
use std::time::Instant;

/// Poisson rate of the null-SUT server runs: half of what a serial
/// 50 µs-per-sample SUT sustains, so a queue forms and the run is VALID.
pub const SERVER_QPS: f64 = 10_000.0;
/// Their 99th-percentile latency bound.
pub const SERVER_BOUND: Nanos = Nanos::from_millis(10);

/// Samples in the null stack's `MemoryQsl`.
pub const POPULATION: usize = 1_024;

/// The null-SUT server run every `sim_*` workload shares: `queries`
/// Poisson arrivals, seeds derived from the workload seed.
pub fn null_server_settings(seed: u64, queries: u64) -> TestSettings {
    TestSettings::server(SERVER_QPS, SERVER_BOUND)
        .with_min_query_count(queries)
        .with_min_duration(Nanos::from_micros(1))
        .with_seeds(SeedTriple::from_master(seed))
}

/// The null SUT stack: a serial 50 µs-per-sample SUT behind a `MemoryQsl`.
pub fn null_stack() -> (MemoryQsl, FixedLatencySut) {
    (
        MemoryQsl::new("perf-qsl", POPULATION, POPULATION),
        FixedLatencySut::new("null-sut", Nanos::from_micros(50)),
    )
}

/// Runs `work` and returns its wall time in ns; when traced, also as a
/// span named `name` under `parent`, whose id `work` receives.
pub fn stage<T>(
    trace: Option<&SpanLog>,
    name: &'static str,
    parent: u64,
    work: impl FnOnce(u64) -> T,
) -> (T, f64) {
    let start = Instant::now();
    let out = match trace {
        None => work(NO_PARENT),
        Some(log) => log.time(name, parent, work),
    };
    (out, start.elapsed().as_nanos() as f64)
}

/// Folds a simulated run's logical records into `hash`: id, scheduled and
/// completed time, sample count. Simulated time is a pure function of the
/// seed, so this must not change between repeats — or between commits,
/// unless the run's behaviour changed.
pub fn hash_records(hash: &mut Fnv, records: &[QueryRecord]) {
    for r in records {
        hash.u64(r.id);
        hash.u64(r.scheduled_at.as_nanos());
        hash.u64(r.completed_at.map_or(u64::MAX, |c| c.as_nanos()));
        hash.u64(r.sample_count as u64);
    }
}

/// Appends this run's share of the spans a repeat may keep for the span
/// file, when the repeat is made of `runs` runs.
pub fn keep_spans(kept: &mut Vec<Span>, spans: &[Span], runs: usize) {
    kept.extend(spans.iter().take(KEPT_SPANS / runs.max(1)));
}

/// `total / count` as a float, 0 when nothing was counted.
pub fn ns_per(total: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}
