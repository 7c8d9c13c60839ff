//! Proxy-backed SUTs: simulated timing, real predictions.
//!
//! Accuracy mode and the audit tests need SUTs whose responses can be
//! scored. These constructors wire a [`DeviceSut`] to a proxy model so each
//! completed sample carries a genuine payload (class or tokens) at the
//! chosen precision.

use crate::device::DeviceSpec;
use crate::engine::{BatchPolicy, DeviceSut};
use mlperf_loadgen::query::ResponsePayload;
use mlperf_models::proxy::{ClassifierProxy, Precision, TranslatorProxy};
use mlperf_models::Workload;
use std::sync::Arc;

/// A device SUT answering with a classifier proxy's predictions.
pub fn classifier_sut(
    spec: DeviceSpec,
    proxy: Arc<ClassifierProxy>,
    precision: Precision,
    policy: BatchPolicy,
) -> DeviceSut {
    let task = proxy.task();
    let len = proxy.len();
    DeviceSut::new(spec, Workload::new(task), policy).with_payloads(Arc::new(move |index| {
        ResponsePayload::Class(proxy.predict(precision, index % len))
    }))
}

/// A device SUT answering with a translator proxy's decodes.
pub fn translator_sut(
    spec: DeviceSpec,
    proxy: Arc<TranslatorProxy>,
    precision: Precision,
    policy: BatchPolicy,
) -> DeviceSut {
    let task = proxy.task();
    let len = proxy.len();
    DeviceSut::new(spec, Workload::new(task), policy).with_payloads(Arc::new(move |index| {
        ResponsePayload::Tokens(proxy.translate(precision, index % len))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Architecture;
    use mlperf_loadgen::config::{TestMode, TestSettings};
    use mlperf_loadgen::des::run_simulated;
    use mlperf_loadgen::qsl::MemoryQsl;
    use mlperf_loadgen::time::Nanos;
    use mlperf_models::TaskId;

    fn spec() -> DeviceSpec {
        DeviceSpec::new(
            "proxy-dev",
            Architecture::Cpu,
            100.0,
            0.5,
            8,
            1,
            Nanos::from_micros(100),
        )
    }

    #[test]
    fn classifier_accuracy_run_scores_close_to_direct_evaluation() {
        let proxy = Arc::new(ClassifierProxy::new(
            TaskId::ImageClassificationLight,
            80,
            11,
        ));
        let mut sut = classifier_sut(
            spec(),
            Arc::clone(&proxy),
            Precision::Fp32,
            BatchPolicy::Immediate,
        );
        let settings = TestSettings::offline().with_mode(TestMode::AccuracyOnly);
        let mut qsl = MemoryQsl::new("imagenet-syn", 80, 80);
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        assert_eq!(out.accuracy_log.len(), 80);
        // Score the logged payloads with the accuracy script path.
        let mut preds = vec![0usize; 80];
        for entry in &out.accuracy_log {
            match entry.payload {
                ResponsePayload::Class(c) => preds[entry.sample_index] = c,
                ref other => panic!("unexpected payload {other:?}"),
            }
        }
        let logged_acc = proxy.score(&preds);
        assert_eq!(logged_acc, proxy.accuracy(Precision::Fp32));
    }

    #[test]
    fn translator_payloads_are_tokens() {
        let proxy = Arc::new(TranslatorProxy::new(16, 13));
        let mut sut = translator_sut(spec(), proxy, Precision::Fp32, BatchPolicy::Immediate);
        let settings = TestSettings::offline().with_mode(TestMode::AccuracyOnly);
        let mut qsl = MemoryQsl::new("wmt-syn", 16, 16);
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        assert!(out
            .accuracy_log
            .iter()
            .all(|l| matches!(l.payload, ResponsePayload::Tokens(_))));
    }
}
