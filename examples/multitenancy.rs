//! The multitenancy extension (Section IV-B names it as planned LoadGen
//! work): one datacenter GPU serving ResNet-50 *and* GNMT at the same time,
//! each stream holding its own Poisson rate, latency bound, and validity.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example multitenancy
//! ```

use mlperf_inference::loadgen::config::TestSettings;
use mlperf_inference::loadgen::multitenant::run_multitenant_server;
use mlperf_inference::loadgen::scenario::Scenario;
use mlperf_inference::loadgen::time::Nanos;
use mlperf_inference::loadgen::Instruments;
use mlperf_inference::models::qsl::TaskQsl;
use mlperf_inference::models::{TaskId, Workload};
use mlperf_inference::stats::Percentile;
use mlperf_inference::sut::fleet::fleet;

fn main() {
    let gpu = fleet()
        .into_iter()
        .find(|s| s.spec.name == "datacenter-gpu")
        .expect("fleet contains the datacenter GPU");
    let vision = TaskId::ImageClassificationHeavy;
    let translation = TaskId::MachineTranslation;
    println!(
        "co-locating {} and {} on {}",
        vision.spec().model_name,
        translation.spec().model_name,
        gpu.spec.name
    );

    // The shared SUT: the vision engine extended with the translation
    // workload as tenant 1 (the batcher never mixes the two models).
    let mut sut = gpu
        .sut_for(vision, Scenario::Server)
        .with_tenant_workload(Workload::new(translation));

    let vision_settings = TestSettings::server(450.0, vision.spec().server_latency_bound)
        .with_min_query_count(20_000)
        .with_min_duration(Nanos::from_secs(5));
    let translation_settings = TestSettings::server(150.0, translation.spec().server_latency_bound)
        .with_min_query_count(2_000)
        .with_min_duration(Nanos::from_secs(5))
        .with_latency_percentile(Percentile::P97);

    let mut vision_qsl = TaskQsl::for_task(vision, 50_000);
    let mut translation_qsl = TaskQsl::for_task(translation, 3_903);
    let mut tenants: Vec<(&TestSettings, &mut TaskQsl)> = vec![
        (&vision_settings, &mut vision_qsl),
        (&translation_settings, &mut translation_qsl),
    ];
    let outcomes = run_multitenant_server(&mut tenants, &mut sut, &Instruments::none())
        .expect("well-formed run");

    for (task, outcome) in [vision, translation].iter().zip(&outcomes) {
        let stats = outcome.result.latency_stats.expect("queries completed");
        println!(
            "  {:<18} {:>8} queries  p50 {}  p99 {}  bound {}  -> {}",
            task.spec().model_name,
            outcome.result.query_count,
            stats.p50,
            stats.p99,
            task.spec().server_latency_bound,
            if outcome.result.is_valid() {
                "VALID"
            } else {
                "INVALID"
            }
        );
    }
}
