//! Integration tests for the observability layer: Chrome-trace export of a
//! real device run, time-series sampling of a multitenant run, and the
//! wall-clock span profiler.

use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::multitenant::run_multitenant_server;
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::{Instruments, Run};
use mlperf_models::{TaskId, Workload};
use mlperf_sut::device::{Architecture, DeviceSpec, ThermalModel};
use mlperf_sut::engine::{BatchPolicy, DeviceSut};
use mlperf_trace::{
    chrome_trace_json, profile, JsonValue, MetricsRegistry, RingBufferSink, TimeSeriesSampler,
};

/// The span profiler is process-global, so tests that enable it (or that
/// merely execute instrumented code while another test has it enabled)
/// must not interleave.
fn hold_profiler() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn demo_device(units: usize) -> DeviceSpec {
    DeviceSpec::new(
        "obs-test-gpu",
        Architecture::Gpu,
        2_000.0,
        2.0,
        16,
        units,
        Nanos::from_micros(50),
    )
    .with_thermal(ThermalModel {
        boost: 1.3,
        decay_secs: 0.5,
    })
}

#[test]
fn chrome_export_of_device_run_round_trips() {
    let _guard = hold_profiler();
    let units = 2;
    let settings = TestSettings::server(1_000.0, Nanos::from_millis(15))
        .with_min_query_count(512)
        .with_min_duration(Nanos::from_millis(1));
    let mut qsl = MemoryQsl::new("obs-qsl", 256, 256);
    let sink = Arc::new(RingBufferSink::unbounded());
    let mut sut = DeviceSut::new(
        demo_device(units),
        Workload::new(TaskId::ImageClassificationLight),
        BatchPolicy::DynamicBatch {
            timeout: Nanos::from_millis(2),
            max_batch: 16,
        },
    )
    .with_trace(sink.clone());
    let outcome = Run::simulated(&settings)
        .sink(sink.as_ref())
        .run(&mut qsl, &mut sut)
        .expect("smoke run succeeds");
    assert!(outcome.result.is_valid(), "{:?}", outcome.result.validity);

    // The exported timeline must parse back with the hand-rolled JSON layer.
    let exported = chrome_trace_json(&sink.snapshot());
    let doc = JsonValue::parse(&exported).expect("chrome trace is valid JSON");
    let entries = doc.as_array().expect("top level is an array");
    assert!(!entries.is_empty());

    // One device lane (pid 2 tid) per execution unit, and within each lane
    // (device or query) timestamps never go backwards.
    let mut device_lanes = std::collections::BTreeSet::new();
    let mut last_ts: std::collections::BTreeMap<(i64, i64), f64> =
        std::collections::BTreeMap::new();
    for entry in entries {
        let pid = entry.field("pid").unwrap().as_i64().unwrap();
        let tid = entry.field("tid").unwrap().as_i64().unwrap();
        let ph = entry.field("ph").unwrap().as_str().unwrap();
        if ph == "M" {
            continue; // process_name metadata rows carry no timestamp
        }
        let ts = entry.field("ts").unwrap().as_f64().unwrap();
        if pid == 2 && ph == "X" {
            device_lanes.insert(tid);
        }
        if ph == "X" {
            let prev = last_ts.insert((pid, tid), ts).unwrap_or(f64::MIN);
            assert!(
                prev <= ts,
                "lane (pid {pid}, tid {tid}) went backwards: {prev} -> {ts}"
            );
        }
    }
    let lanes: Vec<i64> = device_lanes.into_iter().collect();
    assert_eq!(
        lanes,
        (0..units as i64).collect::<Vec<_>>(),
        "expected one device lane per execution unit"
    );
}

#[test]
fn multitenant_timeseries_covers_the_run() {
    let _guard = hold_profiler();
    let interval_ns = 50_000_000u64; // 50 ms of simulated time
    let a = TestSettings::server(400.0, Nanos::from_millis(20))
        .with_min_query_count(400)
        .with_min_duration(Nanos::from_millis(5));
    let b = TestSettings::server(200.0, Nanos::from_millis(30))
        .with_min_query_count(200)
        .with_min_duration(Nanos::from_millis(5));
    let mut qa = MemoryQsl::new("tenant-a", 64, 64);
    let mut qb = MemoryQsl::new("tenant-b", 64, 64);
    let registry = Arc::new(MetricsRegistry::new());
    let mut sut = DeviceSut::new(
        demo_device(2),
        Workload::new(TaskId::ImageClassificationLight),
        BatchPolicy::Immediate,
    )
    .with_metrics(registry.clone());

    let sampler = TimeSeriesSampler::new(interval_ns);
    let instruments = Instruments::none()
        .with_metrics(&registry)
        .with_sampler(&sampler);
    let mut tenants: Vec<(&TestSettings, &mut MemoryQsl)> = vec![(&a, &mut qa), (&b, &mut qb)];
    let outcomes = run_multitenant_server(&mut tenants, &mut sut, &instruments)
        .expect("multitenant smoke run succeeds");
    for (i, out) in outcomes.iter().enumerate() {
        assert!(
            out.result.is_valid(),
            "tenant {i}: {:?}",
            out.result.validity
        );
    }

    // At least floor(duration / interval) rows, timestamps on the interval
    // grid and strictly increasing, and the counters must account for both
    // tenants' full query counts by the final row.
    let duration_ns = outcomes
        .iter()
        .map(|o| o.result.duration.as_nanos())
        .max()
        .expect("two outcomes");
    let rows = sampler.rows();
    let expected = (duration_ns / interval_ns) as usize;
    assert!(
        rows.len() >= expected,
        "want >= {expected} rows for a {duration_ns} ns run, got {}",
        rows.len()
    );
    assert!(rows.windows(2).all(|w| w[0].t_ns < w[1].t_ns));
    assert!(rows.iter().all(|r| r.t_ns % interval_ns == 0));
    // The registry holds both tenants' full query counts; the last row is
    // a snapshot at the final interval boundary, so it may miss the tail
    // issued after that boundary but can never overshoot.
    assert_eq!(registry.snapshot().counter("queries_issued"), 400 + 200);
    let last = rows.last().expect("non-empty");
    assert!(last.queries_issued <= 400 + 200);
    assert!(last.queries_issued > 500, "most of the run is sampled");
    assert!(last.queries_completed <= last.queries_issued);
    assert!(rows.iter().any(|r| r.throughput_qps > 0.0));
    // The device shares its DVFS state through the same registry.
    assert!(rows
        .iter()
        .any(|r| r.gauges.contains_key("dvfs_multiplier_milli")));
}

#[test]
fn profiler_root_inclusive_tracks_wall_clock() {
    let _guard = hold_profiler();
    let settings = TestSettings::server(1_000.0, Nanos::from_millis(15))
        .with_min_query_count(2_048)
        .with_min_duration(Nanos::from_millis(1));
    let mut qsl = MemoryQsl::new("obs-qsl", 256, 256);
    let mut sut = DeviceSut::new(
        demo_device(2),
        Workload::new(TaskId::ImageClassificationLight),
        BatchPolicy::DynamicBatch {
            timeout: Nanos::from_millis(2),
            max_batch: 16,
        },
    );

    profile::reset();
    profile::set_enabled(true);
    let wall_start = Instant::now();
    let outcome = Run::simulated(&settings)
        .run(&mut qsl, &mut sut)
        .expect("smoke run succeeds");
    let wall_ns = wall_start.elapsed().as_nanos() as u64;
    profile::set_enabled(false);
    assert!(outcome.result.is_valid(), "{:?}", outcome.result.validity);

    let report = profile::report();
    let root_ns = report.root_inclusive_ns();
    let diff = root_ns.abs_diff(wall_ns);
    assert!(
        diff * 10 <= wall_ns,
        "root inclusive {root_ns} ns must be within 10% of wall {wall_ns} ns"
    );

    // The instrumented hot paths all show up, with sane nesting.
    let run = report.find("loadgen/run").expect("root span present");
    assert_eq!(run.calls, 1);
    let issue = report
        .find("loadgen/run;loadgen/event_loop;loadgen/issue")
        .expect("issue span present");
    assert_eq!(issue.calls, 2_048);
    assert!(issue.inclusive_ns <= run.inclusive_ns);
    assert!(report
        .find("loadgen/run;loadgen/event_loop;loadgen/issue;sut/drain_queue")
        .is_some());

    // Both exporters have content and agree on the root.
    let table = report.table();
    assert!(table.contains("loadgen/run"), "{table}");
    let collapsed = report.collapsed();
    assert!(!collapsed.is_empty());
    assert!(
        collapsed.lines().all(|l| {
            let (stack, weight) = l.rsplit_once(' ').expect("stack <weight>");
            stack.starts_with("loadgen/run") && weight.parse::<u64>().is_ok()
        }),
        "collapsed stacks must be flamegraph.pl compatible:\n{collapsed}"
    );
    profile::reset();
}
