//! The multitenancy extension.
//!
//! Section IV-B notes the LoadGen "is extensible to support more scenarios,
//! such as a multitenancy mode where the SUT must continuously serve
//! multiple models while maintaining QoS constraints." This module
//! implements that mode for the server scenario: every tenant gets its own
//! Poisson arrival stream, seeds, latency bound, and Table V minimums, all
//! hitting *one* shared SUT; each tenant's run is scored and validated
//! independently.
//!
//! Queries carry [`Query::tenant`](crate::query::Query::tenant), and query
//! ids encode the tenant in the top byte so completions route back without
//! any side channel. The event loop is the simulator's own: a tenant is a
//! lane of [`crate::des`]'s `Sim` fed by its own arrival source.

use crate::config::{TestMode, TestSettings};
use crate::des::{RunOutcome, Sim};
use crate::instrument::Instruments;
use crate::qsl::QuerySampleLibrary;
use crate::run::{finish_run, prologue, Lane};
use crate::scenario::Scenario;
use crate::schedule::{ArrivalSource, PoissonCursor};
use crate::sut::SimSut;
use crate::LoadGenError;
use mlperf_trace::{profile_span, MetricsRegistry};

/// Bits reserved for the per-tenant sequence number inside a query id.
const TENANT_SHIFT: u32 = 56;

/// Extracts the tenant index from a multitenant query id.
pub fn tenant_of(query_id: u64) -> u32 {
    (query_id >> TENANT_SHIFT) as u32
}

/// The id of query number `ordinal` of tenant `lane`; lane 0's ids are
/// the plain ordinals every single-tenant run uses.
pub(crate) fn query_id(lane: usize, ordinal: u64) -> u64 {
    ((lane as u64) << TENANT_SHIFT) | ordinal
}

/// Runs several server-scenario streams concurrently against one SUT.
///
/// Each element of `tenants` pairs that tenant's settings with its QSL;
/// settings must use [`Scenario::Server`] and performance mode. Returns one
/// [`RunOutcome`] per tenant, in input order — a tenant is only as good as
/// its own validity, so a shared SUT that starves one model FAILS that
/// model's run even if the other sails through.
///
/// All tenants' events interleave into `instruments.sink` in simulated-time
/// order, which is exactly what a cross-tenant timeline needs (the tenant
/// is recoverable from the query id via [`tenant_of`]). An attached
/// [`mlperf_trace::TimeSeriesSampler`] and the metrics (a supplied registry
/// or a run-private one) likewise observe the *combined* load, not any
/// single tenant's view.
///
/// # Errors
///
/// Returns [`LoadGenError::BadSettings`] for non-server settings, more than
/// 255 tenants, or an unusable QSL, and [`LoadGenError::SutProtocol`] if
/// the SUT misroutes completions.
pub fn run_multitenant_server<Q, S>(
    tenants: &mut [(&TestSettings, &mut Q)],
    sut: &mut S,
    instruments: &Instruments<'_>,
) -> Result<Vec<RunOutcome>, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    profile_span!("loadgen/multitenant_run");
    if tenants.is_empty() {
        return Err(LoadGenError::BadSettings(
            "multitenant run needs at least one tenant".into(),
        ));
    }
    if tenants.len() > 255 {
        return Err(LoadGenError::BadSettings(
            "query ids encode the tenant in one byte; at most 255 tenants".into(),
        ));
    }
    sut.reset();
    let mut loaded = Vec::with_capacity(tenants.len());
    let mut sources = Vec::with_capacity(tenants.len());
    for (settings, qsl) in tenants.iter_mut() {
        if settings.scenario != Scenario::Server || settings.mode != TestMode::PerformanceOnly {
            return Err(LoadGenError::BadSettings(
                "multitenant mode currently supports performance-mode server streams".into(),
            ));
        }
        let samples = prologue(settings, &mut **qsl)?;
        let cursor = PoissonCursor::start(settings, samples.len(), None)?;
        sources.push(ArrivalSource::Poisson(cursor));
        loaded.push(samples);
    }
    let own_registry =
        (instruments.metrics.is_none() && instruments.wants_metrics()).then(MetricsRegistry::new);
    let registry = instruments.metrics.or(own_registry.as_ref());
    let lanes = tenants
        .iter()
        .map(|(settings, _)| Lane::new(settings, registry));
    let mut sim = Sim::new(lanes.collect(), sut, instruments, registry);
    sim.run_arrivals(&mut sources, None)?;
    if let (Some(sampler), Some(metrics)) = (instruments.sampler, registry) {
        sampler.finish(sim.now.as_nanos(), metrics);
    }
    let lanes = std::mem::take(&mut sim.lanes);
    let mut outcomes = Vec::with_capacity(lanes.len());
    let sink = instruments.sink;
    for ((lane, samples), (_, qsl)) in lanes.into_iter().zip(&loaded).zip(tenants.iter_mut()) {
        qsl.unload_samples(samples);
        outcomes.push(finish_run(lane, sut.name(), qsl.name(), sink, registry));
    }
    sink.flush();
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qsl::MemoryQsl;
    use crate::sut::FixedLatencySut;
    use crate::time::Nanos;

    fn settings(qps: f64, bound_ms: u64, count: u64) -> TestSettings {
        TestSettings::server(qps, Nanos::from_millis(bound_ms))
            .with_min_query_count(count)
            .with_min_duration(Nanos::from_millis(5))
    }

    #[test]
    fn two_light_tenants_both_valid() {
        let a = settings(200.0, 10, 300);
        let b = settings(100.0, 20, 150);
        let mut qa = MemoryQsl::new("tenant-a", 64, 64);
        let mut qb = MemoryQsl::new("tenant-b", 64, 64);
        let mut sut = FixedLatencySut::new("shared", Nanos::from_micros(100));
        let mut tenants: Vec<(&TestSettings, &mut MemoryQsl)> = vec![(&a, &mut qa), (&b, &mut qb)];
        let outcomes =
            run_multitenant_server(&mut tenants, &mut sut, &Instruments::none()).unwrap();
        assert_eq!(outcomes.len(), 2);
        for (i, out) in outcomes.iter().enumerate() {
            assert!(
                out.result.is_valid(),
                "tenant {i}: {:?}",
                out.result.validity
            );
        }
        assert_eq!(outcomes[0].result.query_count, 300);
        assert_eq!(outcomes[1].result.query_count, 150);
        assert_eq!(outcomes[1].result.qsl_name, "tenant-b");
    }

    #[test]
    fn ring_buffer_preserves_order_and_monotonic_time() {
        use mlperf_trace::{RingBufferSink, TraceEvent};
        let a = settings(300.0, 10, 200);
        let b = settings(150.0, 20, 100);
        let mut qa = MemoryQsl::new("tenant-a", 64, 64);
        let mut qb = MemoryQsl::new("tenant-b", 64, 64);
        let mut sut = FixedLatencySut::new("shared", Nanos::from_micros(100));
        let sink = RingBufferSink::unbounded();
        let mut tenants: Vec<(&TestSettings, &mut MemoryQsl)> = vec![(&a, &mut qa), (&b, &mut qb)];
        run_multitenant_server(&mut tenants, &mut sut, &Instruments::traced(&sink)).unwrap();
        let records = sink.snapshot();
        assert_eq!(sink.dropped(), 0);

        // The DES portion (query lifecycle events from both interleaved
        // tenants) must come out of the buffer in simulated-time order;
        // only the per-tenant end-of-run reports, stamped with each
        // tenant's own duration, may rewind.
        let lifecycle: Vec<&mlperf_trace::TraceRecord> = records
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    TraceEvent::QueryIssued { .. }
                        | TraceEvent::QuerySent { .. }
                        | TraceEvent::QueryCompleted { .. }
                )
            })
            .collect();
        assert!(lifecycle.len() >= 3 * 300, "both tenants fully traced");
        assert!(
            lifecycle.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
            "ring buffer must preserve monotonic simulated time"
        );

        // Per query, the issue -> sent -> completed order survives, for
        // queries of both tenants.
        let mut phase: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
        for r in &lifecycle {
            match r.event {
                TraceEvent::QueryIssued { query_id, .. } => {
                    assert_eq!(phase.insert(query_id, 1), None);
                }
                TraceEvent::QuerySent { query_id } => {
                    assert_eq!(phase.insert(query_id, 2), Some(1));
                }
                TraceEvent::QueryCompleted { query_id, .. } => {
                    assert_eq!(phase.insert(query_id, 3), Some(2));
                }
                _ => unreachable!(),
            }
        }
        assert!(phase.keys().any(|id| tenant_of(*id) == 0));
        assert!(phase.keys().any(|id| tenant_of(*id) == 1));
        assert!(phase.values().all(|p| *p == 3), "every query completes");
    }

    #[test]
    fn contention_hurts_the_tight_tenant() {
        // Alone, tenant A (1 ms bound, 1.8k qps, 500 us service) would be
        // marginal; with a heavy co-tenant it must fail its bound.
        let a = settings(900.0, 1, 400);
        let heavy = settings(900.0, 1_000, 400);
        let mut qa = MemoryQsl::new("a", 64, 64);
        let mut qh = MemoryQsl::new("heavy", 64, 64);
        let mut sut = FixedLatencySut::new("shared", Nanos::from_micros(500));
        let mut tenants: Vec<(&TestSettings, &mut MemoryQsl)> =
            vec![(&a, &mut qa), (&heavy, &mut qh)];
        let outcomes =
            run_multitenant_server(&mut tenants, &mut sut, &Instruments::none()).unwrap();
        assert!(
            !outcomes[0].result.is_valid(),
            "shared contention must break the 1 ms tenant"
        );
        // The loose tenant is fine.
        assert!(
            outcomes[1].result.is_valid(),
            "{:?}",
            outcomes[1].result.validity
        );
    }

    #[test]
    fn isolation_baseline_beats_contention() {
        // p90 with a co-tenant must be no better than alone.
        let a = settings(500.0, 50, 400);
        let run_with = |co_qps: Option<f64>| {
            let mut qa = MemoryQsl::new("a", 64, 64);
            let mut sut = FixedLatencySut::new("shared", Nanos::from_micros(400));
            match co_qps {
                None => {
                    let mut tenants: Vec<(&TestSettings, &mut MemoryQsl)> = vec![(&a, &mut qa)];
                    run_multitenant_server(&mut tenants, &mut sut, &Instruments::none())
                        .unwrap()
                        .remove(0)
                }
                Some(qps) => {
                    let b = settings(qps, 1_000, 400);
                    let mut qb = MemoryQsl::new("b", 64, 64);
                    let mut tenants: Vec<(&TestSettings, &mut MemoryQsl)> =
                        vec![(&a, &mut qa), (&b, &mut qb)];
                    run_multitenant_server(&mut tenants, &mut sut, &Instruments::none())
                        .unwrap()
                        .remove(0)
                }
            }
        };
        let alone = run_with(None).result.latency_stats.unwrap().p90;
        let contended = run_with(Some(800.0)).result.latency_stats.unwrap().p90;
        assert!(
            contended > alone,
            "contended p90 {contended} should exceed isolated p90 {alone}"
        );
    }

    #[test]
    fn tenant_id_roundtrip() {
        assert_eq!(tenant_of((7u64 << 56) | 123), 7);
        assert_eq!(tenant_of(99), 0);
    }

    #[test]
    fn rejects_bad_configs() {
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(1));
        let mut empty: Vec<(&TestSettings, &mut MemoryQsl)> = vec![];
        assert!(run_multitenant_server(&mut empty, &mut sut, &Instruments::none()).is_err());
        let offline = TestSettings::offline();
        let mut q = MemoryQsl::new("q", 8, 8);
        let mut tenants: Vec<(&TestSettings, &mut MemoryQsl)> = vec![(&offline, &mut q)];
        assert!(run_multitenant_server(&mut tenants, &mut sut, &Instruments::none()).is_err());
    }
}
