//! Cross-crate integration: fleet systems driven by the LoadGen through
//! all four scenarios, proxy accuracy scored from LoadGen logs, and the
//! quality windows checked end to end.

use mlperf_inference::loadgen::config::{TestMode, TestSettings};
use mlperf_inference::loadgen::des::run_simulated;
use mlperf_inference::loadgen::query::ResponsePayload;
use mlperf_inference::loadgen::results::ScenarioMetric;
use mlperf_inference::loadgen::scenario::Scenario;
use mlperf_inference::loadgen::time::Nanos;
use mlperf_inference::models::proxy::{ClassifierProxy, Precision, TranslatorProxy};
use mlperf_inference::models::qsl::TaskQsl;
use mlperf_inference::models::{QualityTarget, TaskId};
use mlperf_inference::sut::engine::BatchPolicy;
use mlperf_inference::sut::fleet::fleet;
use mlperf_inference::sut::proxy_sut::{classifier_sut, translator_sut};
use std::sync::Arc;

fn system(name: &str) -> mlperf_inference::sut::fleet::FleetSystem {
    fleet()
        .into_iter()
        .find(|s| s.spec.name == name)
        .unwrap_or_else(|| panic!("fleet contains {name}"))
}

#[test]
fn every_fleet_system_completes_a_single_stream_run() {
    let settings = TestSettings::single_stream()
        .with_min_query_count(64)
        .with_min_duration(Nanos::from_millis(1));
    for sys in fleet() {
        let mut qsl = TaskQsl::for_task(TaskId::ImageClassificationLight, 2_048);
        let mut sut = sys.sut_for(TaskId::ImageClassificationLight, Scenario::SingleStream);
        let out = run_simulated(&settings, &mut qsl, &mut sut)
            .unwrap_or_else(|e| panic!("{}: {e}", sys.spec.name));
        assert!(
            out.result.is_valid(),
            "{}: {:?}",
            sys.spec.name,
            out.result.validity
        );
        assert_eq!(out.result.query_count, 64);
    }
}

#[test]
fn all_four_scenarios_run_on_one_system() {
    let sys = system("datacenter-gpu");
    let task = TaskId::ImageClassificationHeavy;
    let spec = task.spec();
    let mut qsl = TaskQsl::for_task(task, 2_048);

    let ss = run_simulated(
        &TestSettings::single_stream()
            .with_min_query_count(128)
            .with_min_duration(Nanos::from_millis(1)),
        &mut qsl,
        &mut sys.sut_for(task, Scenario::SingleStream),
    )
    .expect("single-stream runs");
    assert!(matches!(
        ss.result.metric,
        ScenarioMetric::SingleStream { .. }
    ));
    assert!(ss.result.is_valid());

    let ms = run_simulated(
        &TestSettings::multi_stream(2, spec.multistream_interval)
            .with_min_query_count(64)
            .with_min_duration(Nanos::from_millis(1)),
        &mut qsl,
        &mut sys.sut_for(task, Scenario::MultiStream),
    )
    .expect("multistream runs");
    assert!(matches!(
        ms.result.metric,
        ScenarioMetric::MultiStream { streams: 2, .. }
    ));

    let server = run_simulated(
        &TestSettings::server(200.0, spec.server_latency_bound)
            .with_min_query_count(512)
            .with_min_duration(Nanos::from_millis(5)),
        &mut qsl,
        &mut sys.sut_for(task, Scenario::Server),
    )
    .expect("server runs");
    assert!(server.result.is_valid(), "{:?}", server.result.validity);

    let offline = run_simulated(
        &TestSettings::offline()
            .with_offline_min_sample_count(4_096)
            .with_min_duration(Nanos::from_millis(1)),
        &mut qsl,
        &mut sys.sut_for(task, Scenario::Offline),
    )
    .expect("offline runs");
    match offline.result.metric {
        ScenarioMetric::Offline { samples_per_second } => assert!(samples_per_second > 0.0),
        ref m => panic!("wrong metric {m:?}"),
    }
}

#[test]
fn classifier_quality_window_holds_through_the_loadgen() {
    let task = TaskId::ImageClassificationLight;
    let proxy = Arc::new(ClassifierProxy::new(task, 200, 42));
    let fp32 = proxy.accuracy(Precision::Fp32);
    let sys = system("mobile-npu");
    let mut sut = classifier_sut(
        sys.spec.clone(),
        Arc::clone(&proxy),
        Precision::Quantized,
        BatchPolicy::Immediate,
    );
    let mut qsl = TaskQsl::for_task(task, 200);
    let out = run_simulated(
        &TestSettings::offline().with_mode(TestMode::AccuracyOnly),
        &mut qsl,
        &mut sut,
    )
    .expect("accuracy run");
    assert_eq!(out.accuracy_log.len(), 200);
    let mut preds = vec![0usize; 200];
    for entry in &out.accuracy_log {
        match entry.payload {
            ResponsePayload::Class(c) => preds[entry.sample_index] = c,
            ref p => panic!("unexpected payload {p:?}"),
        }
    }
    let int8 = proxy.score(&preds);
    let target = QualityTarget::for_task_with_reference(task, fp32);
    assert!(
        target.is_met(int8),
        "INT8 accuracy {int8:.4} below the {}-window threshold {:.4} (fp32 {fp32:.4})",
        task.spec().quality_window,
        target.threshold()
    );
}

#[test]
fn translator_bleu_scored_from_loadgen_log() {
    let proxy = Arc::new(TranslatorProxy::new(60, 7));
    let fp32 = proxy.bleu(Precision::Fp32);
    let sys = system("server-cpu");
    let mut sut = translator_sut(
        sys.spec.clone(),
        Arc::clone(&proxy),
        Precision::Fp32,
        BatchPolicy::Immediate,
    );
    let mut qsl = TaskQsl::for_task(TaskId::MachineTranslation, 60);
    let out = run_simulated(
        &TestSettings::offline().with_mode(TestMode::AccuracyOnly),
        &mut qsl,
        &mut sut,
    )
    .expect("accuracy run");
    let mut candidates = vec![Vec::new(); 60];
    for entry in &out.accuracy_log {
        if let ResponsePayload::Tokens(t) = &entry.payload {
            candidates[entry.sample_index] = t.clone();
        }
    }
    let logged = proxy.score(&candidates);
    assert!(
        (logged - fp32).abs() < 1e-9,
        "log path must match direct eval"
    );
}

#[test]
fn realtime_and_simulated_agree_on_fixed_latency() {
    use mlperf_inference::loadgen::qsl::MemoryQsl;
    use mlperf_inference::loadgen::sut::{FixedLatencySut, SleepSut};
    use mlperf_inference::loadgen::Run;

    let settings = TestSettings::single_stream()
        .with_min_query_count(32)
        .with_min_duration(Nanos::from_millis(1));
    let mut qsl = MemoryQsl::new("q", 32, 32);
    let mut sim_sut = FixedLatencySut::new("fixed", Nanos::from_micros(400));
    let sim = run_simulated(&settings, &mut qsl, &mut sim_sut).expect("simulated run");
    let real = Run::wall_clock(&settings)
        .run(
            &mut qsl,
            Arc::new(SleepSut::new(
                "fixed",
                std::time::Duration::from_micros(400),
            )),
        )
        .expect("realtime run");
    // Same rulebook: both valid, same query count, latencies within a
    // scheduler-jitter factor of each other.
    assert!(sim.result.is_valid() && real.result.is_valid());
    let (sp90, rp90) = match (sim.result.metric, real.result.metric) {
        (
            ScenarioMetric::SingleStream { p90_latency: a },
            ScenarioMetric::SingleStream { p90_latency: b },
        ) => (a, b),
        other => panic!("wrong metrics {other:?}"),
    };
    assert_eq!(sp90, Nanos::from_micros(400));
    assert!(
        rp90 >= sp90 && rp90 < Nanos::from_micros(4_000),
        "realtime p90 {rp90} wildly off simulated {sp90}"
    );

    // Third leg: the same device behind a loopback TCP connection. The
    // wire moves the LoadGen/SUT boundary onto the network without moving
    // the rulebook — same verdict, same query count, under the same seed.
    use mlperf_inference::loadgen::qsl::QuerySampleLibrary;
    use mlperf_inference::wire::{loopback, RemoteSut, RemoteSutConfig, ServeConfig, SimHost};

    let config = RemoteSutConfig::default();
    let hello = RemoteSut::hello_for(&settings, qsl.total_sample_count() as u64, &config);
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "fixed",
        Nanos::from_micros(400),
    )));
    let (client, server) =
        loopback(service, ServeConfig::default(), hello, config).expect("loopback");
    let remote = Run::wall_clock(&settings)
        .run(&mut qsl, Arc::new(client))
        .expect("remote run");
    server.shutdown();

    assert!(
        remote.result.is_valid(),
        "loopback remote run must be valid: {:?}",
        remote.result.validity
    );
    assert_eq!(remote.result.query_count, sim.result.query_count);
    assert_eq!(remote.result.query_count, real.result.query_count);
    let wp90 = match remote.result.metric {
        ScenarioMetric::SingleStream { p90_latency } => p90_latency,
        ref m => panic!("wrong metric {m:?}"),
    };
    assert!(
        wp90 >= sp90 && wp90 < Nanos::from_micros(8_000),
        "wire p90 {wp90} wildly off simulated {sp90}"
    );
}
