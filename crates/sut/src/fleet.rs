//! The simulated submission fleet.
//!
//! Stands in for the paper's 30+ real systems: named devices spanning four
//! orders of magnitude in peak throughput (Section VI-D), each tagged with
//! the vendor/framework/market-segment metadata the synthetic submission
//! round aggregates into Tables VI–VII and Figures 5–8.

use crate::device::{Architecture, DeviceSpec, ThermalModel};
use crate::engine::{BatchPolicy, DeviceSut};
use mlperf_loadgen::scenario::Scenario;
use mlperf_loadgen::time::Nanos;
use mlperf_models::{TaskId, Workload};
use mlperf_trace::crc::fnv1a64;

/// Deployment segment, which drives which tasks and scenarios a system's
/// vendor cares to submit (Section VI-A: submitters pick subsets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarketSegment {
    /// IoT and deeply embedded devices.
    Embedded,
    /// Smartphones and tablets.
    Mobile,
    /// Edge servers, gateways, vehicles.
    Edge,
    /// Cloud and datacenter systems.
    Datacenter,
}

/// One system of the simulated fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSystem {
    /// The device model.
    pub spec: DeviceSpec,
    /// Submitting organization (fictional).
    pub vendor: &'static str,
    /// Software framework (Table VII rows).
    pub framework: &'static str,
    /// Deployment segment.
    pub segment: MarketSegment,
}

impl FleetSystem {
    /// Whether this system can meet the task's server QoS bound: its
    /// worst-case single-sample latency must fit well inside the bound
    /// (0.35×), or no operating point passes the p99/p97 check.
    pub fn can_serve(&self, task: TaskId) -> bool {
        let workload = Workload::new(task);
        let bound = task.spec().server_latency_bound.as_secs_f64();
        self.spec
            .tuned_for(workload.mean_ops(1_024))
            .batch1_latency(workload.worst_case_ops())
            .as_secs_f64()
            <= bound * 0.35
    }

    /// Whether this system can sustain at least one multistream stream:
    /// worst-case single-sample latency within 80% of the arrival interval.
    pub fn can_multistream(&self, task: TaskId) -> bool {
        let workload = Workload::new(task);
        self.spec
            .tuned_for(workload.mean_ops(1_024))
            .batch1_latency(workload.worst_case_ops())
            .as_secs_f64()
            <= task.spec().multistream_interval.as_secs_f64() * 0.8
    }

    /// Builds the execution engine for one task/scenario combination.
    ///
    /// Server runs get an *adaptive* dynamic batcher: the target batch is
    /// the largest power of two whose service time fits inside 45% of the
    /// task's QoS bound, and models that already saturate the device at
    /// batch 1 (heavy models on small devices, any model on
    /// latency-oriented silicon) skip batching entirely — "dynamically
    /// switching between one or more batch sizes" is an explicitly allowed
    /// technique (Section IV-A). Offline runs get immediate execution with
    /// length sorting (legal "arbitrary data arrangement"); the rest run
    /// immediately, unsorted.
    pub fn sut_for(&self, task: TaskId, scenario: Scenario) -> DeviceSut {
        let workload = Workload::new(task);
        let spec = self.spec.tuned_for(workload.mean_ops(1_024));
        let policy = match scenario {
            Scenario::Server => {
                let bound = task.spec().server_latency_bound;
                // Batches must be sized for the worst-case sample: an RNN
                // batch pads to its longest sequence, and the p99/p97 bound
                // must hold even for unlucky batches.
                let sizing_ops = workload.worst_case_ops();
                // Largest power-of-two batch whose worst-case service time
                // fits in 40% of the QoS bound: big enough to amortize,
                // small enough that wait + service + queueing still meets
                // the bound.
                let budget = bound.as_secs_f64() * 0.4;
                let mut batch = 1usize;
                while batch * 2 <= spec.max_batch
                    && spec
                        .batch1_latency(sizing_ops * (batch * 2) as f64)
                        .as_secs_f64()
                        <= budget
                {
                    batch *= 2;
                }
                if batch == 1 {
                    BatchPolicy::Immediate
                } else {
                    // Waiting longer than the batch's own service time never
                    // pays: at peak rates the batch fills before the timeout,
                    // and at low rates latency stays ~2x the batch service.
                    let service = spec.batch1_latency(sizing_ops * batch as f64);
                    BatchPolicy::DynamicBatch {
                        timeout: service,
                        max_batch: batch,
                    }
                }
            }
            _ => BatchPolicy::Immediate,
        };
        let seed = 0xf1ee_7000 ^ fnv1a64(self.spec.name.as_bytes());
        let sut = DeviceSut::new(spec, workload, policy).with_seed(seed);
        if scenario == Scenario::Offline {
            sut.with_length_sorting()
        } else {
            sut
        }
    }
}

/// The full fleet, ordered roughly from smallest to largest.
pub fn fleet() -> Vec<FleetSystem> {
    let mobile_thermal = ThermalModel {
        boost: 1.35,
        decay_secs: 8.0,
    };
    vec![
        FleetSystem {
            spec: DeviceSpec::new(
                "iot-cpu",
                Architecture::Cpu,
                2.5,
                0.05,
                2,
                1,
                Nanos::from_millis(1),
            )
            .with_jitter(0.10),
            vendor: "Thistle Micro",
            framework: "TensorFlow Lite",
            segment: MarketSegment::Embedded,
        },
        FleetSystem {
            spec: DeviceSpec::new(
                "embedded-dsp",
                Architecture::Dsp,
                9.0,
                0.1,
                4,
                1,
                Nanos::from_micros(800),
            )
            .with_jitter(0.08),
            vendor: "Quarrel Wireless",
            framework: "SNPE",
            segment: MarketSegment::Embedded,
        },
        FleetSystem {
            spec: DeviceSpec::new(
                "mobile-cpu",
                Architecture::Cpu,
                24.0,
                0.1,
                4,
                1,
                Nanos::from_micros(400),
            )
            .with_jitter(0.10)
            .with_thermal(mobile_thermal),
            vendor: "Arbor Designs",
            framework: "Arm NN",
            segment: MarketSegment::Mobile,
        },
        FleetSystem {
            spec: DeviceSpec::new(
                "mobile-npu",
                Architecture::Asic,
                48.0,
                0.2,
                8,
                1,
                Nanos::from_micros(500),
            )
            .with_jitter(0.09)
            .with_thermal(mobile_thermal),
            vendor: "Quarrel Wireless",
            framework: "SNPE",
            segment: MarketSegment::Mobile,
        },
        FleetSystem {
            spec: DeviceSpec::new(
                "smartphone-gpu",
                Architecture::Gpu,
                70.0,
                1.5,
                16,
                1,
                Nanos::from_micros(700),
            )
            .with_jitter(0.10)
            .with_thermal(mobile_thermal),
            vendor: "Arbor Designs",
            framework: "Arm NN",
            segment: MarketSegment::Mobile,
        },
        FleetSystem {
            spec: DeviceSpec::new(
                "nuc-cpu",
                Architecture::Cpu,
                130.0,
                0.2,
                8,
                1,
                Nanos::from_micros(250),
            )
            .with_jitter(0.06),
            vendor: "Gable Systems",
            framework: "ONNX",
            segment: MarketSegment::Edge,
        },
        FleetSystem {
            spec: DeviceSpec::new(
                "laptop-cpu",
                Architecture::Cpu,
                210.0,
                0.2,
                16,
                1,
                Nanos::from_micros(200),
            )
            .with_jitter(0.07),
            vendor: "Gable Systems",
            framework: "PyTorch",
            segment: MarketSegment::Edge,
        },
        FleetSystem {
            spec: DeviceSpec::new(
                "edge-asic",
                Architecture::Asic,
                550.0,
                0.4,
                16,
                1,
                Nanos::from_micros(100),
            )
            .with_jitter(0.05),
            vendor: "Halcyon AI",
            framework: "Hailo SDK",
            segment: MarketSegment::Edge,
        },
        FleetSystem {
            spec: DeviceSpec::new(
                "desktop-cpu",
                Architecture::Cpu,
                420.0,
                0.25,
                32,
                1,
                Nanos::from_micros(150),
            )
            .with_jitter(0.06),
            vendor: "Vantage Compute",
            framework: "OpenVINO",
            segment: MarketSegment::Edge,
        },
        FleetSystem {
            spec: DeviceSpec::new(
                "edge-gpu",
                Architecture::Gpu,
                1_000.0,
                4.0,
                32,
                1,
                Nanos::from_micros(250),
            )
            .with_jitter(0.08),
            vendor: "Nimbus Graphics",
            framework: "TensorRT",
            segment: MarketSegment::Edge,
        },
        FleetSystem {
            spec: DeviceSpec::new(
                "fpga-card",
                Architecture::Fpga,
                1_900.0,
                2.0,
                16,
                1,
                Nanos::from_micros(120),
            )
            .with_jitter(0.04),
            vendor: "Firth Logic",
            framework: "FuriosaAI",
            segment: MarketSegment::Datacenter,
        },
        FleetSystem {
            spec: DeviceSpec::new(
                "server-cpu",
                Architecture::Cpu,
                1_400.0,
                0.3,
                32,
                2,
                Nanos::from_micros(100),
            )
            .with_jitter(0.06),
            vendor: "Vantage Compute",
            framework: "TensorFlow",
            segment: MarketSegment::Datacenter,
        },
        FleetSystem {
            spec: DeviceSpec::new(
                "workstation-gpu",
                Architecture::Gpu,
                4_200.0,
                6.0,
                64,
                1,
                Nanos::from_micros(180),
            )
            .with_jitter(0.08),
            vendor: "Nimbus Graphics",
            framework: "TensorFlow",
            segment: MarketSegment::Datacenter,
        },
        FleetSystem {
            spec: DeviceSpec::new(
                "habana-style-asic",
                Architecture::Asic,
                8_500.0,
                2.0,
                64,
                1,
                Nanos::from_micros(60),
            )
            .with_jitter(0.05),
            vendor: "Sable Labs",
            framework: "Synapse",
            segment: MarketSegment::Datacenter,
        },
        FleetSystem {
            spec: DeviceSpec::new(
                "datacenter-gpu",
                Architecture::Gpu,
                14_000.0,
                8.0,
                128,
                1,
                Nanos::from_micros(150),
            )
            .with_jitter(0.07),
            vendor: "Nimbus Graphics",
            framework: "TensorRT",
            segment: MarketSegment::Datacenter,
        },
        FleetSystem {
            spec: DeviceSpec::new(
                "multi-gpu-server",
                Architecture::Gpu,
                14_000.0,
                8.0,
                128,
                8,
                Nanos::from_micros(200),
            )
            .with_jitter(0.07),
            vendor: "Nimbus Graphics",
            framework: "TensorRT",
            segment: MarketSegment::Datacenter,
        },
        FleetSystem {
            spec: DeviceSpec::new(
                "cloud-asic-pod",
                Architecture::Asic,
                26_000.0,
                3.0,
                64,
                4,
                Nanos::from_micros(80),
            )
            .with_jitter(0.05),
            vendor: "Pagoda Cloud",
            framework: "TensorFlow",
            segment: MarketSegment::Datacenter,
        },
    ]
}

/// The eleven systems plotted in Figure 6 (server-to-offline degradation).
pub fn figure6_systems() -> Vec<FleetSystem> {
    let all = fleet();
    let names = [
        "smartphone-gpu",
        "edge-asic",
        "desktop-cpu",
        "fpga-card",
        "server-cpu",
        "workstation-gpu",
        "habana-style-asic",
        "datacenter-gpu",
        "multi-gpu-server",
        "cloud-asic-pod",
        "edge-gpu",
    ];
    names
        .iter()
        .map(|n| {
            all.iter()
                .find(|s| s.spec.name == *n)
                .expect("figure 6 system exists in fleet")
                .clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_spans_four_orders_of_magnitude() {
        let systems = fleet();
        let totals: Vec<f64> = systems
            .iter()
            .map(|s| s.spec.peak_gops * s.spec.units as f64)
            .collect();
        let min = totals.iter().fold(f64::INFINITY, |a, b| a.min(*b));
        let max = totals.iter().fold(0.0f64, |a, b| a.max(*b));
        assert!(max / min >= 1e4, "spread {} too small", max / min);
    }

    #[test]
    fn names_are_unique() {
        let systems = fleet();
        let names: std::collections::HashSet<&str> =
            systems.iter().map(|s| s.spec.name.as_str()).collect();
        assert_eq!(names.len(), systems.len());
    }

    #[test]
    fn covers_all_architectures_and_segments() {
        let systems = fleet();
        for arch in [
            Architecture::Dsp,
            Architecture::Fpga,
            Architecture::Cpu,
            Architecture::Asic,
            Architecture::Gpu,
        ] {
            assert!(
                systems.iter().any(|s| s.spec.architecture == arch),
                "no {arch} system"
            );
        }
        for segment in [
            MarketSegment::Embedded,
            MarketSegment::Mobile,
            MarketSegment::Edge,
            MarketSegment::Datacenter,
        ] {
            assert!(systems.iter().any(|s| s.segment == segment));
        }
    }

    #[test]
    fn tensorflow_has_most_architectural_variety() {
        // Section VI-C: "TensorFlow has the most architectural variety."
        let systems = fleet();
        let mut variety: std::collections::HashMap<&str, std::collections::HashSet<Architecture>> =
            std::collections::HashMap::new();
        for s in &systems {
            variety
                .entry(s.framework)
                .or_default()
                .insert(s.spec.architecture);
        }
        let tf = variety["TensorFlow"].len();
        assert!(variety.values().all(|v| v.len() <= tf));
        assert!(tf >= 3);
    }

    #[test]
    fn figure6_selection_is_eleven_distinct_systems() {
        let systems = figure6_systems();
        assert_eq!(systems.len(), 11);
        let names: std::collections::HashSet<&str> =
            systems.iter().map(|s| s.spec.name.as_str()).collect();
        assert_eq!(names.len(), 11);
    }

    #[test]
    fn sut_for_applies_scenario_policy() {
        let system = &fleet()[0];
        let server = system.sut_for(TaskId::ImageClassificationLight, Scenario::Server);
        let offline = system.sut_for(TaskId::ImageClassificationLight, Scenario::Offline);
        // Smoke: both run a query through the LoadGen without issue.
        use mlperf_loadgen::config::TestSettings;
        use mlperf_loadgen::des::run_simulated;
        use mlperf_loadgen::qsl::MemoryQsl;
        let mut qsl = MemoryQsl::new("q", 32, 32);
        let settings = TestSettings::offline()
            .with_min_duration(Nanos::from_millis(1))
            .with_offline_min_sample_count(64);
        let mut offline = offline;
        let out = run_simulated(&settings, &mut qsl, &mut offline).unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        drop(server);
    }
}
