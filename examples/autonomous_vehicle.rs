//! Automotive scenario: how many camera streams can an edge system sustain
//! running SSD object detection? The multistream scenario models
//! "multicamera driver assistance" — a new query of N samples arrives at a
//! fixed interval, and no more than 1% of queries may overrun it.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example autonomous_vehicle
//! ```

use mlperf_inference::loadgen::config::TestSettings;
use mlperf_inference::loadgen::find_peak::{find_peak_multistream, PeakSearchOptions};
use mlperf_inference::loadgen::results::ScenarioMetric;
use mlperf_inference::loadgen::scenario::Scenario;
use mlperf_inference::loadgen::time::Nanos;
use mlperf_inference::loadgen::Instruments;
use mlperf_inference::models::qsl::TaskQsl;
use mlperf_inference::models::TaskId;
use mlperf_inference::sut::fleet::fleet;

fn main() {
    // The heavy detector at automotive resolution (1.44 MP upscaled COCO).
    let task = TaskId::ObjectDetectionHeavy;
    let spec = task.spec();
    println!(
        "multistream {} @ {} arrival interval (15 Hz per camera)",
        spec.model_name, spec.multistream_interval
    );
    for name in ["edge-gpu", "datacenter-gpu", "multi-gpu-server"] {
        let system = fleet()
            .into_iter()
            .find(|s| s.spec.name == name)
            .expect("fleet system exists");
        let mut qsl = TaskQsl::for_task(task, 5_000);
        let mut sut = system.sut_for(task, Scenario::MultiStream);
        let settings = TestSettings::multi_stream(1, spec.multistream_interval)
            .with_min_query_count(4_096)
            .with_min_duration(Nanos::from_millis(500));
        match find_peak_multistream(
            &settings,
            &mut qsl,
            &mut sut,
            PeakSearchOptions::default(),
            &Instruments::none(),
        )
        .expect("well-formed run")
        .converged()
        {
            Some(peak) => {
                let skip = match peak.outcome.result.metric {
                    ScenarioMetric::MultiStream { skip_fraction, .. } => skip_fraction,
                    _ => unreachable!("multistream settings yield multistream metrics"),
                };
                println!(
                    "  {name:<18} {:>4} concurrent streams (skip fraction {:.3}%, {} runs)",
                    peak.peak as usize,
                    skip * 100.0,
                    peak.runs
                );
            }
            None => println!("  {name:<18} cannot sustain even one stream"),
        }
    }
}
