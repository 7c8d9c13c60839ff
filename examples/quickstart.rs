//! Quickstart: benchmark a simulated smartphone NPU on MobileNet-v1 in the
//! single-stream scenario — the paper's "offline voice transcription on a
//! Pixel 4"-style client use case.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mlperf_inference::loadgen::config::TestSettings;
use mlperf_inference::loadgen::des::run_simulated;
use mlperf_inference::loadgen::scenario::Scenario;
use mlperf_inference::loadgen::time::Nanos;
use mlperf_inference::models::qsl::TaskQsl;
use mlperf_inference::models::TaskId;
use mlperf_inference::sut::fleet::fleet;

fn main() {
    let task = TaskId::ImageClassificationLight;
    let system = fleet()
        .into_iter()
        .find(|s| s.spec.name == "mobile-npu")
        .expect("fleet contains the mobile NPU");

    println!(
        "benchmarking {} ({}) on {} / single-stream",
        system.spec.name,
        system.spec.architecture,
        task.spec().model_name
    );

    // Official single-stream rules: 1,024 queries minimum, 60-second
    // minimum duration (all simulated time; this finishes instantly).
    let settings = TestSettings::single_stream().with_min_duration(Nanos::from_secs(60));
    let mut qsl = TaskQsl::for_task(task, 50_000);
    let mut sut = system.sut_for(task, Scenario::SingleStream);

    let result = run_simulated(&settings, &mut qsl, &mut sut)
        .expect("well-formed run")
        .result;
    println!("{}", result.summary_line());
    if let Some(l) = result.latency_stats {
        println!(
            "latency p50 {} | p90 {} | p99 {} | max {}",
            l.p50, l.p90, l.p99, l.max
        );
    }
    for issue in &result.validity {
        println!("  * {issue}");
    }
}
