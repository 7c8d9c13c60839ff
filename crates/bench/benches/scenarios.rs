//! Regeneration benches for the scenario experiments: one Figure 6 cell
//! (server peak search + offline run) and one Figure 8 column entry per
//! scenario, at smoke scale.

use mlperf_bench::runner::Bench;
use mlperf_harness::{fig6, fig8, Profile};
use mlperf_loadgen::scenario::Scenario;
use mlperf_models::TaskId;
use mlperf_sut::fleet::fleet;
use std::hint::black_box;

fn main() {
    let bench = Bench::from_args();
    let systems = fleet();

    let dc = systems
        .iter()
        .find(|s| s.spec.name == "datacenter-gpu")
        .expect("fleet contains the datacenter GPU");
    bench.bench("fig6_cell_resnet_on_datacenter_gpu", || {
        black_box(fig6::measure_cell(
            dc,
            TaskId::ImageClassificationHeavy,
            Profile::Smoke,
        ))
    });

    let sys = systems
        .iter()
        .find(|s| s.spec.name == "edge-asic")
        .expect("fleet contains the edge ASIC");
    for (name, scenario) in [
        ("fig8_single_stream_score", Scenario::SingleStream),
        ("fig8_multistream_score", Scenario::MultiStream),
        ("fig8_server_score", Scenario::Server),
        ("fig8_offline_score", Scenario::Offline),
    ] {
        bench.bench(name, || {
            black_box(fig8::score_combo(
                sys,
                TaskId::ImageClassificationLight,
                scenario,
                Profile::Smoke,
            ))
        });
    }
}
