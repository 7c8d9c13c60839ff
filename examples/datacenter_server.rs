//! Datacenter scenario: find the peak valid server QPS for ResNet-50 v1.5
//! on a simulated datacenter GPU with dynamic batching — the
//! "latency-bounded throughput" metric the paper introduces for
//! datacenter ML accelerators (Section IX).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example datacenter_server
//! ```

use mlperf_inference::loadgen::config::TestSettings;
use mlperf_inference::loadgen::des::run_simulated;
use mlperf_inference::loadgen::find_peak::{find_peak_server_qps, PeakSearchOptions};
use mlperf_inference::loadgen::scenario::Scenario;
use mlperf_inference::loadgen::time::Nanos;
use mlperf_inference::loadgen::Instruments;
use mlperf_inference::models::qsl::TaskQsl;
use mlperf_inference::models::{TaskId, Workload};
use mlperf_inference::sut::fleet::fleet;

fn main() {
    let task = TaskId::ImageClassificationHeavy;
    let spec = task.spec();
    let system = fleet()
        .into_iter()
        .find(|s| s.spec.name == "datacenter-gpu")
        .expect("fleet contains the datacenter GPU");

    println!(
        "searching peak server QPS for {} on {} (QoS: p99 <= {})",
        spec.model_name, system.spec.name, spec.server_latency_bound
    );

    let mut qsl = TaskQsl::for_task(task, 50_000);
    let mut sut = system.sut_for(task, Scenario::Server);
    let workload = Workload::new(task);
    let guess = system
        .spec
        .tuned_for(workload.mean_ops(1_024))
        .peak_throughput(workload.mean_ops(1_024))
        * 0.4;
    // Short search runs, then a full-length validation run at the peak.
    let search_settings = TestSettings::server(guess, spec.server_latency_bound)
        .with_min_query_count(8_192)
        .with_min_duration(Nanos::from_millis(500));
    let peak = find_peak_server_qps(
        &search_settings,
        &mut qsl,
        &mut sut,
        PeakSearchOptions::default(),
        &Instruments::none(),
    )
    .expect("datacenter GPU serves ResNet")
    .converged()
    .expect("a healthy datacenter GPU has a valid operating point");
    println!(
        "search: {:.0} QPS after {} LoadGen runs",
        peak.peak, peak.runs
    );

    // A 60-second run sees a fatter tail than the short search runs, so
    // submitters validate at full length and back the rate off until the
    // p99 bound holds — exactly what we do here.
    let mut qps = peak.peak;
    loop {
        let official = TestSettings::server(qps, spec.server_latency_bound)
            .with_min_query_count(270_336)
            .with_min_duration(Nanos::from_secs(60));
        let outcome = run_simulated(&official, &mut qsl, &mut sut).expect("well-formed run");
        println!(
            "official-length validation at {:.0} QPS: {} ({} queries, {})",
            qps,
            outcome.result.metric,
            outcome.result.query_count,
            if outcome.result.is_valid() {
                "VALID"
            } else {
                "INVALID — backing off 3%"
            }
        );
        if outcome.result.is_valid() {
            if let Some(stats) = outcome.result.latency_stats {
                println!(
                    "latency: p50 {}  p99 {}  max {}  (bound {})",
                    stats.p50, stats.p99, stats.max, spec.server_latency_bound
                );
            }
            break;
        }
        qps *= 0.97;
    }
}
