//! The per-query metric updates cost no allocation.
//!
//! A run resolves its counters and its latency histogram once, then updates
//! them five times a query (two on issue, three on completion). Under the
//! counting allocator those five updates, and the by-name `incr`/`observe`
//! of a name already in the registry, allocate nothing once each cell has
//! been touched.

use mlperf_trace::MetricsRegistry;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::largest_alloc_during;

#[test]
fn a_querys_five_updates_allocate_nothing_after_first_touch() {
    let registry = MetricsRegistry::new();
    let issued = registry.counter("queries_issued");
    let samples_issued = registry.counter("samples_issued");
    let completed = registry.counter("queries_completed");
    let samples_completed = registry.counter("samples_completed");
    let latency = registry.histogram("query_latency_ns");
    // First touch: the histogram's buckets grow to the largest latency.
    issued.incr(1);
    latency.observe(10_000_000);

    let ((), largest) = largest_alloc_during(|| {
        for query in 0..10_000u64 {
            issued.incr(1);
            samples_issued.incr(8);
            completed.incr(1);
            samples_completed.incr(8);
            latency.observe(40_000 + query * 97);
        }
    });
    assert_eq!(largest, 0, "a warm handle allocated");

    let ((), largest) = largest_alloc_during(|| {
        registry.incr("queries_issued", 1);
        registry.observe("query_latency_ns", 50_000);
    });
    assert_eq!(largest, 0, "an update by a known name allocated");

    let snap = registry.snapshot();
    assert_eq!(snap.counter("queries_issued"), 10_002);
    assert_eq!(snap.counter("samples_completed"), 80_000);
    assert_eq!(
        snap.histogram("query_latency_ns").map(|h| h.count()),
        Some(10_002)
    );
}
