//! Ablations of the design choices DESIGN.md calls out.
//!
//! Each ablation switches one mechanism off and measures the consequence,
//! documenting *why* the mechanism exists:
//!
//! 1. **Dynamic batching** (server): peak valid QPS with the adaptive
//!    batcher vs immediate per-query execution.
//! 2. **Length sorting** (GNMT offline): throughput with vs without the
//!    sort-by-length "arbitrary data arrangement".
//! 3. **Adaptive batch cap** (server): the latency-budgeted batch cap vs
//!    naively batching to the device's memory limit.
//! 4. **Per-channel weight quantization**: classifier accuracy gap with
//!    per-channel vs per-tensor INT8 weights.

use crate::profile::Profile;
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::des::run_simulated;
use mlperf_loadgen::find_peak::{find_peak_server_qps, PeakSearchOptions};
use mlperf_loadgen::scenario::Scenario;
use mlperf_loadgen::sut::SimSut;
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::Instruments;
use mlperf_models::proxy::{ClassifierProxy, Precision};
use mlperf_models::qsl::TaskQsl;
use mlperf_models::{TaskId, Workload};
use mlperf_sut::engine::{BatchPolicy, DeviceSut};
use mlperf_sut::fleet::fleet;

/// One ablation outcome.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// What was switched.
    pub name: &'static str,
    /// Metric with the mechanism on.
    pub with_mechanism: f64,
    /// Metric with the mechanism off.
    pub without_mechanism: f64,
    /// Unit label for the metric.
    pub unit: &'static str,
}

impl Ablation {
    /// `with / without` ratio.
    pub fn gain(&self) -> f64 {
        self.with_mechanism / self.without_mechanism.max(1e-12)
    }
}

fn peak_qps<S: SimSut>(task: TaskId, sut: &mut S, profile: Profile) -> f64 {
    let spec = task.spec();
    let mut qsl = TaskQsl::for_task(task, 4_096);
    let duration = profile.sweep_duration().max(Nanos::from_secs_f64(
        spec.server_latency_bound.as_secs_f64() * 30.0,
    ));
    let settings = TestSettings::server(100.0, spec.server_latency_bound)
        .with_min_query_count(((270_336.0 * profile.sweep_query_scale()) as u64).max(64))
        .with_min_duration(duration);
    find_peak_server_qps(
        &settings,
        &mut qsl,
        sut,
        PeakSearchOptions {
            relative_tolerance: 0.03,
            max_runs: 32,
        },
        &Instruments::none(),
    )
    .ok()
    .and_then(|o| o.peak())
    .unwrap_or(0.0)
}

/// Ablation 1: dynamic batching vs immediate execution for MobileNet
/// server on the datacenter GPU.
pub fn dynamic_batching(profile: Profile) -> Ablation {
    let system = fleet()
        .into_iter()
        .find(|s| s.spec.name == "datacenter-gpu")
        .expect("fleet contains the datacenter GPU");
    let task = TaskId::ImageClassificationLight;
    let mut batched = system.sut_for(task, Scenario::Server);
    let with_mechanism = peak_qps(task, &mut batched, profile);
    let tuned = system.spec.tuned_for(Workload::new(task).mean_ops(1_024));
    let mut immediate = DeviceSut::new(tuned, Workload::new(task), BatchPolicy::Immediate);
    let without_mechanism = peak_qps(task, &mut immediate, profile);
    Ablation {
        name: "server dynamic batching (MobileNet on datacenter GPU)",
        with_mechanism,
        without_mechanism,
        unit: "QPS",
    }
}

/// Ablation 2: length sorting for GNMT offline on the server CPU.
pub fn length_sorting(profile: Profile) -> Ablation {
    let system = fleet()
        .into_iter()
        .find(|s| s.spec.name == "server-cpu")
        .expect("fleet contains the server CPU");
    let task = TaskId::MachineTranslation;
    let settings = TestSettings::offline()
        .with_offline_min_sample_count(((24_576.0 * profile.sweep_query_scale()) as u64).max(2_048))
        .with_min_duration(profile.sweep_duration());
    let mut qsl = TaskQsl::for_task(task, 3_903);
    let mut sorted = system.sut_for(task, Scenario::Offline);
    let with_mechanism = run_simulated(&settings, &mut qsl, &mut sorted)
        .expect("well-formed run")
        .result
        .metric
        .score();
    let tuned = system.spec.tuned_for(Workload::new(task).mean_ops(1_024));
    let mut unsorted = DeviceSut::new(tuned, Workload::new(task), BatchPolicy::Immediate);
    let without_mechanism = run_simulated(&settings, &mut qsl, &mut unsorted)
        .expect("well-formed run")
        .result
        .metric
        .score();
    Ablation {
        name: "offline length sorting (GNMT on server CPU)",
        with_mechanism,
        without_mechanism,
        unit: "samples/s",
    }
}

/// Ablation 3: latency-budgeted batch cap vs batching to the memory limit
/// for ResNet server on the datacenter GPU.
pub fn adaptive_batch_cap(profile: Profile) -> Ablation {
    let system = fleet()
        .into_iter()
        .find(|s| s.spec.name == "datacenter-gpu")
        .expect("fleet contains the datacenter GPU");
    let task = TaskId::ImageClassificationHeavy;
    let mut adaptive = system.sut_for(task, Scenario::Server);
    let with_mechanism = peak_qps(task, &mut adaptive, profile);
    // Naive policy: batch to the device limit with the same timeout rule.
    let tuned = system.spec.tuned_for(Workload::new(task).mean_ops(1_024));
    let naive_timeout =
        tuned.batch1_latency(Workload::new(task).worst_case_ops() * tuned.max_batch as f64);
    let max_batch = tuned.max_batch;
    let mut naive = DeviceSut::new(
        tuned,
        Workload::new(task),
        BatchPolicy::DynamicBatch {
            timeout: naive_timeout,
            max_batch,
        },
    );
    let without_mechanism = peak_qps(task, &mut naive, profile);
    Ablation {
        name: "latency-budgeted batch cap (ResNet on datacenter GPU)",
        with_mechanism,
        without_mechanism,
        unit: "QPS",
    }
}

/// Ablation 4: per-channel vs per-tensor INT8 weights on the heavy
/// classifier proxy (accuracy, larger is better).
pub fn per_channel_quantization(profile: Profile) -> Ablation {
    use mlperf_nn::QNetwork;
    use mlperf_tensor::QTensor;
    let samples = profile.accuracy_samples().min(200);
    let proxy = ClassifierProxy::new(TaskId::ImageClassificationHeavy, samples, 0xab1a);
    // Per-channel: the shipped quantized path.
    let with_mechanism = proxy.accuracy(Precision::Quantized);
    // Per-tensor: rebuild the teacher and roundtrip weights per tensor.
    // (QNetwork used per-tensor weights before this design choice; the
    // roundtrip emulates that here.)
    let per_tensor = proxy
        .teacher()
        .map_parameters(|w| QTensor::quantize(w).dequantize());
    let _ = QNetwork::quantize; // design note: full-int8 path lives there
    let predictions: Vec<usize> = (0..samples)
        .map(|i| {
            per_tensor
                .forward(&proxy.input(i))
                .expect("shape fixed")
                .argmax()
        })
        .collect();
    let without_mechanism = proxy.score(&predictions);
    Ablation {
        name: "per-channel INT8 weights (heavy classifier accuracy)",
        with_mechanism,
        without_mechanism,
        unit: "top-1",
    }
}

/// Runs every ablation.
pub fn run_all(profile: Profile) -> Vec<Ablation> {
    vec![
        dynamic_batching(profile),
        length_sorting(profile),
        adaptive_batch_cap(profile),
        per_channel_quantization(profile),
    ]
}

/// Renders the ablation table.
pub fn render(ablations: &[Ablation]) -> String {
    let mut out = format!(
        "{:<55} {:>12} {:>12} {:>7}\n",
        "MECHANISM", "WITH", "WITHOUT", "GAIN"
    );
    for a in ablations {
        let gain = if a.without_mechanism <= 1e-9 {
            "inf".to_string()
        } else {
            format!("{:.2}x", a.gain())
        };
        out.push_str(&format!(
            "{:<55} {:>9.2} {} {:>9.2} {} {:>6}\n",
            a.name, a.with_mechanism, a.unit, a.without_mechanism, a.unit, gain
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_sorting_pays_off() {
        let a = length_sorting(Profile::Smoke);
        assert!(a.gain() > 1.3, "sorting gain {:.2}", a.gain());
    }

    #[test]
    fn per_channel_never_worse() {
        let a = per_channel_quantization(Profile::Smoke);
        assert!(
            a.with_mechanism >= a.without_mechanism - 0.02,
            "per-channel {} vs per-tensor {}",
            a.with_mechanism,
            a.without_mechanism
        );
    }
}
