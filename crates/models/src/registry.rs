//! Table I + Table III: the five reference workloads and their constraints.

use mlperf_loadgen::requirements::QosClass;
use mlperf_loadgen::time::Nanos;

/// Identifier of an MLPerf Inference v0.5 task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskId {
    /// ResNet-50 v1.5 on ImageNet.
    ImageClassificationHeavy,
    /// MobileNet-v1 224 on ImageNet.
    ImageClassificationLight,
    /// SSD-ResNet-34 on upscaled COCO.
    ObjectDetectionHeavy,
    /// SSD-MobileNet-v1 on COCO.
    ObjectDetectionLight,
    /// GNMT on WMT16 EN-DE.
    MachineTranslation,
}

impl TaskId {
    /// All tasks in Table I order.
    pub const ALL: [TaskId; 5] = [
        TaskId::ImageClassificationHeavy,
        TaskId::ImageClassificationLight,
        TaskId::ObjectDetectionHeavy,
        TaskId::ObjectDetectionLight,
        TaskId::MachineTranslation,
    ];

    /// The workload descriptor for this task.
    pub fn spec(&self) -> &'static ReferenceModel {
        &REGISTRY[*self as usize]
    }

    /// Looks a task up by its Table I model name (e.g. `"GNMT"`).
    pub fn from_model_name(name: &str) -> Option<TaskId> {
        REGISTRY
            .iter()
            .find(|m| m.model_name.eq_ignore_ascii_case(name))
            .map(|m| m.task)
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.spec().model_name)
    }
}

/// One row of Table I, extended with the Table III latency constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceModel {
    /// The task this model serves.
    pub task: TaskId,
    /// Table I "area" column.
    pub area: &'static str,
    /// Table I "task" column.
    pub task_name: &'static str,
    /// Table I "reference model" column.
    pub model_name: &'static str,
    /// Parameters, in millions.
    pub params_millions: f64,
    /// Operations per input, in GOPS (GNMT: nominal, at the mean sentence
    /// length — its true per-sample count varies with sequence length).
    pub gops_per_input: f64,
    /// Table I "data set" column.
    pub dataset: &'static str,
    /// FP32 reference quality (Top-1 %, mAP, or SacreBLEU).
    pub(crate) fp32_quality: f64,
    /// Required fraction of the FP32 quality (0.99, or 0.98 for the
    /// quantization-sensitive MobileNet classifier).
    pub quality_window: f64,
    /// Human-readable quality target, as printed in Table I.
    pub quality_desc: &'static str,
    /// Table III multistream arrival interval.
    pub multistream_interval: Nanos,
    /// Table III server QoS constraint.
    pub server_latency_bound: Nanos,
    /// Vision (p99) or translation (p97) QoS class.
    pub qos: QosClass,
}

/// The five Table I workloads.
static REGISTRY: [ReferenceModel; 5] = [
    ReferenceModel {
        task: TaskId::ImageClassificationHeavy,
        area: "Vision",
        task_name: "Image classification (heavy)",
        model_name: "ResNet-50 v1.5",
        params_millions: 25.6,
        gops_per_input: 8.2,
        dataset: "ImageNet (224x224)",
        fp32_quality: 76.456,
        quality_window: 0.99,
        quality_desc: "99% of FP32 (76.456%) Top-1 accuracy",
        multistream_interval: Nanos::from_millis(50),
        server_latency_bound: Nanos::from_millis(15),
        qos: QosClass::Vision,
    },
    ReferenceModel {
        task: TaskId::ImageClassificationLight,
        area: "Vision",
        task_name: "Image classification (light)",
        model_name: "MobileNet-v1 224",
        params_millions: 4.2,
        gops_per_input: 1.138,
        dataset: "ImageNet (224x224)",
        fp32_quality: 71.676,
        quality_window: 0.98,
        quality_desc: "98% of FP32 (71.676%) Top-1 accuracy",
        multistream_interval: Nanos::from_millis(50),
        server_latency_bound: Nanos::from_millis(10),
        qos: QosClass::Vision,
    },
    ReferenceModel {
        task: TaskId::ObjectDetectionHeavy,
        area: "Vision",
        task_name: "Object detection (heavy)",
        model_name: "SSD-ResNet-34",
        params_millions: 36.3,
        gops_per_input: 433.0,
        dataset: "COCO (1,200x1,200)",
        fp32_quality: 0.20,
        quality_window: 0.99,
        quality_desc: "99% of FP32 (0.20 mAP)",
        multistream_interval: Nanos::from_millis(66),
        server_latency_bound: Nanos::from_millis(100),
        qos: QosClass::Vision,
    },
    ReferenceModel {
        task: TaskId::ObjectDetectionLight,
        area: "Vision",
        task_name: "Object detection (light)",
        model_name: "SSD-MobileNet-v1",
        params_millions: 6.91,
        gops_per_input: 2.47,
        dataset: "COCO (300x300)",
        fp32_quality: 0.22,
        quality_window: 0.99,
        quality_desc: "99% of FP32 (0.22 mAP)",
        multistream_interval: Nanos::from_millis(50),
        server_latency_bound: Nanos::from_millis(10),
        qos: QosClass::Vision,
    },
    ReferenceModel {
        task: TaskId::MachineTranslation,
        area: "Language",
        task_name: "Machine translation",
        model_name: "GNMT",
        params_millions: 210.0,
        // Nominal: ~0.6 GOPS/token at a ~21-token mean sentence.
        gops_per_input: 12.6,
        dataset: "WMT16 EN-DE",
        fp32_quality: 23.9,
        quality_window: 0.99,
        quality_desc: "99% of FP32 (23.9 SacreBLEU)",
        multistream_interval: Nanos::from_millis(100),
        server_latency_bound: Nanos::from_millis(250),
        qos: QosClass::Translation,
    },
];

/// The full Table I registry, in order.
pub fn registry() -> &'static [ReferenceModel; 5] {
    &REGISTRY
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_values() {
        let resnet = TaskId::ImageClassificationHeavy.spec();
        assert_eq!(resnet.model_name, "ResNet-50 v1.5");
        assert_eq!(resnet.params_millions, 25.6);
        assert_eq!(resnet.gops_per_input, 8.2);
        assert_eq!(resnet.fp32_quality, 76.456);

        let mobilenet = TaskId::ImageClassificationLight.spec();
        assert_eq!(mobilenet.params_millions, 4.2);
        assert_eq!(mobilenet.gops_per_input, 1.138);
        assert_eq!(mobilenet.quality_window, 0.98);

        let ssd_large = TaskId::ObjectDetectionHeavy.spec();
        assert_eq!(ssd_large.gops_per_input, 433.0);
        assert_eq!(ssd_large.params_millions, 36.3);

        let ssd_small = TaskId::ObjectDetectionLight.spec();
        assert_eq!(ssd_small.params_millions, 6.91);
        assert_eq!(ssd_small.gops_per_input, 2.47);
        assert_eq!(ssd_small.fp32_quality, 0.22);

        let gnmt = TaskId::MachineTranslation.spec();
        assert_eq!(gnmt.params_millions, 210.0);
        assert_eq!(gnmt.fp32_quality, 23.9);
    }

    #[test]
    fn table_iii_latency_constraints() {
        use TaskId::*;
        let ms_ms = |t: TaskId| t.spec().multistream_interval.as_millis_f64() as u64;
        let sv_ms = |t: TaskId| t.spec().server_latency_bound.as_millis_f64() as u64;
        assert_eq!(ms_ms(ImageClassificationHeavy), 50);
        assert_eq!(sv_ms(ImageClassificationHeavy), 15);
        assert_eq!(ms_ms(ImageClassificationLight), 50);
        assert_eq!(sv_ms(ImageClassificationLight), 10);
        assert_eq!(ms_ms(ObjectDetectionHeavy), 66);
        assert_eq!(sv_ms(ObjectDetectionHeavy), 100);
        assert_eq!(ms_ms(ObjectDetectionLight), 50);
        assert_eq!(sv_ms(ObjectDetectionLight), 10);
        assert_eq!(ms_ms(MachineTranslation), 100);
        assert_eq!(sv_ms(MachineTranslation), 250);
    }

    #[test]
    fn param_and_op_ratios_from_the_paper() {
        // "MobileNet reduces the parameters by 6.1x and the operations by
        // 6.8x compared with ResNet-50 v1.5" (Section III-A).
        let r = TaskId::ImageClassificationHeavy.spec();
        let m = TaskId::ImageClassificationLight.spec();
        assert!((r.params_millions / m.params_millions - 6.1).abs() < 0.05);
        assert!((r.gops_per_input / m.gops_per_input - 6.8).abs() < 0.45);
        // "SSD-ResNet-34 requires 175x more operations per image" than
        // SSD-MobileNet (Section VII-D).
        let dh = TaskId::ObjectDetectionHeavy.spec();
        let dl = TaskId::ObjectDetectionLight.spec();
        assert!((dh.gops_per_input / dl.gops_per_input - 175.0).abs() < 1.0);
    }

    #[test]
    fn qos_classes() {
        use mlperf_loadgen::requirements::QosClass;
        for t in TaskId::ALL {
            let expected = if t == TaskId::MachineTranslation {
                QosClass::Translation
            } else {
                QosClass::Vision
            };
            assert_eq!(t.spec().qos, expected);
        }
    }

    #[test]
    fn display_and_order() {
        assert_eq!(TaskId::MachineTranslation.to_string(), "GNMT");
        let names: Vec<&str> = registry().iter().map(|m| m.model_name).collect();
        assert_eq!(names.len(), 5);
        for (i, t) in TaskId::ALL.iter().enumerate() {
            assert_eq!(registry()[i].task, *t);
        }
    }
}
