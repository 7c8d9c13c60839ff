//! Property-style tests for the LoadGen core.
//!
//! Seeded `Rng64` case loops stand in for a property-testing framework
//! (the workspace is dependency-free); failure messages carry the case
//! number and derived seed so counterexamples replay exactly.

use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::des::run_simulated;
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::results::ScenarioMetric;
use mlperf_loadgen::schedule::{sample_indices, server_arrivals};
use mlperf_loadgen::sut::FixedLatencySut;
use mlperf_loadgen::time::Nanos;
use mlperf_stats::rng::SeedTriple;
use mlperf_stats::Rng64;

const CASES: u64 = 24;

#[test]
fn server_arrivals_monotone_for_any_seed() {
    let mut rng = Rng64::new(0x434f_0001);
    for case in 0..CASES {
        let seed = rng.next_u64();
        let qps = 1.0 + rng.next_f64() * 9_999.0;
        let settings = TestSettings::server(qps, Nanos::from_millis(10))
            .with_seeds(SeedTriple::from_master(seed));
        let arrivals = server_arrivals(&settings, 500);
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "case {case}: seed={seed} qps={qps}"
        );
        assert!(arrivals[0] > Nanos::ZERO, "case {case}: seed={seed}");
    }
}

#[test]
fn sample_indices_stay_in_population() {
    let mut rng = Rng64::new(0x434f_0002);
    for case in 0..CASES {
        let seed = rng.next_u64();
        let population = 1 + rng.next_index(9_999);
        let spq = 1 + rng.next_index(7);
        let settings = TestSettings::multi_stream(spq, Nanos::from_millis(50))
            .with_seeds(SeedTriple::from_master(seed));
        for query in sample_indices(&settings, population, 64) {
            assert_eq!(query.len(), spq, "case {case}: seed={seed}");
            assert!(
                query.iter().all(|i| *i < population),
                "case {case}: seed={seed} population={population}"
            );
        }
    }
}

#[test]
fn single_stream_query_count_and_duration() {
    let mut rng = Rng64::new(0x434f_0004);
    for case in 0..CASES {
        // With a fixed-latency serial SUT, single-stream runs are exactly
        // predictable: queries = max(min_queries, ceil(duration/latency)),
        // duration = queries * latency.
        let latency_us = 1 + rng.next_below(499);
        let min_queries = 1 + rng.next_below(199);
        let min_duration = Nanos::from_micros(1_000);
        let settings = TestSettings::single_stream()
            .with_min_query_count(min_queries)
            .with_min_duration(min_duration);
        let mut qsl = MemoryQsl::new("q", 64, 64);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(latency_us));
        let out = run_simulated(&settings, &mut qsl, &mut sut).expect("runs");
        let expected = min_queries.max(1_000u64.div_ceil(latency_us));
        let ctx = format!("case {case}: latency_us={latency_us} min_queries={min_queries}");
        assert_eq!(out.result.query_count, expected, "{ctx}");
        assert_eq!(
            out.result.duration,
            Nanos::from_micros(latency_us * expected),
            "{ctx}"
        );
        assert!(out.result.is_valid(), "{ctx}");
        match out.result.metric {
            ScenarioMetric::SingleStream { p90_latency } => {
                assert_eq!(p90_latency, Nanos::from_micros(latency_us), "{ctx}");
            }
            ref m => panic!("{ctx}: wrong metric {m:?}"),
        }
    }
}

#[test]
fn offline_throughput_matches_serial_service() {
    let mut rng = Rng64::new(0x434f_0005);
    for case in 0..CASES {
        let latency_us = 1 + rng.next_below(199);
        let samples = 64 + rng.next_below(1_936);
        let settings = TestSettings::offline()
            .with_offline_min_sample_count(samples)
            .with_min_duration(Nanos::from_micros(1));
        let mut qsl = MemoryQsl::new("q", 64, 64);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(latency_us));
        let out = run_simulated(&settings, &mut qsl, &mut sut).expect("runs");
        assert_eq!(out.result.sample_count, samples, "case {case}");
        match out.result.metric {
            ScenarioMetric::Offline { samples_per_second } => {
                let expected = 1e6 / latency_us as f64;
                assert!(
                    (samples_per_second / expected - 1.0).abs() < 1e-6,
                    "case {case}: latency_us={latency_us} got {samples_per_second} want {expected}"
                );
            }
            ref m => panic!("case {case}: wrong metric {m:?}"),
        }
    }
}

#[test]
fn multistream_never_skips_when_service_fits() {
    let mut rng = Rng64::new(0x434f_0006);
    let mut accepted = 0;
    while accepted < CASES {
        let per_sample_us = 1 + rng.next_below(399);
        let streams = 1 + rng.next_index(7);
        // Service = streams * per_sample <= 10ms interval guaranteed here.
        if per_sample_us * streams as u64 > 9_000 {
            continue;
        }
        accepted += 1;
        let settings = TestSettings::multi_stream(streams, Nanos::from_millis(10))
            .with_min_query_count(50)
            .with_min_duration(Nanos::from_micros(1));
        let mut qsl = MemoryQsl::new("q", 64, 64);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(per_sample_us));
        let out = run_simulated(&settings, &mut qsl, &mut sut).expect("runs");
        let ctx = format!("per_sample_us={per_sample_us} streams={streams}");
        assert!(out.result.is_valid(), "{ctx}: {:?}", out.result.validity);
        assert!(
            out.records.iter().all(|r| r.skipped_intervals == 0),
            "{ctx}"
        );
        // Queries sit on exact interval boundaries.
        for (k, r) in out.records.iter().enumerate() {
            assert_eq!(
                r.scheduled_at,
                Nanos::from_millis(10).mul(k as u64),
                "{ctx}"
            );
        }
    }
}

#[test]
fn multistream_skip_accounting_consistent() {
    let mut rng = Rng64::new(0x434f_0007);
    for case in 0..CASES {
        // Service = 4 * per_sample; interval 10 ms. Whenever service
        // exceeds the interval, every query reports the same skip count:
        // ceil(service/interval) - 1.
        let per_sample_ms = 1 + rng.next_below(39);
        let settings = TestSettings::multi_stream(4, Nanos::from_millis(10))
            .with_min_query_count(20)
            .with_min_duration(Nanos::from_micros(1));
        let mut qsl = MemoryQsl::new("q", 64, 64);
        let mut sut = FixedLatencySut::new("s", Nanos::from_millis(per_sample_ms));
        let out = run_simulated(&settings, &mut qsl, &mut sut).expect("runs");
        let service = 4 * per_sample_ms;
        let expected_skips = service.div_ceil(10) - 1;
        assert!(
            out.records
                .iter()
                .all(|r| u64::from(r.skipped_intervals) == expected_skips),
            "case {case}: per_sample_ms={per_sample_ms}"
        );
        if expected_skips > 0 {
            assert!(
                !out.result.is_valid(),
                "case {case}: per_sample_ms={per_sample_ms}"
            );
        }
    }
}

#[test]
fn runs_are_deterministic_for_any_master_seed() {
    let mut rng = Rng64::new(0x434f_0008);
    for case in 0..8 {
        let seed = rng.next_u64();
        let settings = TestSettings::server(500.0, Nanos::from_millis(10))
            .with_min_query_count(200)
            .with_min_duration(Nanos::from_micros(1))
            .with_seeds(SeedTriple::from_master(seed));
        let run = || {
            let mut qsl = MemoryQsl::new("q", 64, 64);
            let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
            run_simulated(&settings, &mut qsl, &mut sut).expect("runs")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.result, b.result, "case {case}: seed={seed}");
        assert_eq!(a.records, b.records, "case {case}: seed={seed}");
    }
}

#[test]
fn latency_stats_are_ordered() {
    let mut rng = Rng64::new(0x434f_0009);
    for case in 0..8 {
        let seed = rng.next_u64();
        let settings = TestSettings::server(2_000.0, Nanos::from_millis(10))
            .with_min_query_count(300)
            .with_min_duration(Nanos::from_micros(1))
            .with_seeds(SeedTriple::from_master(seed));
        let mut qsl = MemoryQsl::new("q", 64, 64);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(200));
        let out = run_simulated(&settings, &mut qsl, &mut sut).expect("runs");
        let stats = out.result.latency_stats.expect("queries completed");
        let ctx = format!("case {case}: seed={seed}");
        assert!(stats.min <= stats.p50, "{ctx}");
        assert!(stats.p50 <= stats.p90, "{ctx}");
        assert!(stats.p90 <= stats.p97, "{ctx}");
        assert!(stats.p97 <= stats.p99, "{ctx}");
        assert!(stats.p99 <= stats.p999, "{ctx}");
        assert!(stats.p999 <= stats.max, "{ctx}");
        assert!(stats.min <= stats.mean && stats.mean <= stats.max, "{ctx}");
    }
}

#[test]
fn accuracy_mode_covers_any_dataset_once() {
    use mlperf_loadgen::config::TestMode;
    let mut rng = Rng64::new(0x434f_000a);
    for case in 0..CASES {
        let total = 1 + rng.next_index(299);
        let settings = TestSettings::offline().with_mode(TestMode::AccuracyOnly);
        let mut qsl = MemoryQsl::new("q", total, total.min(16));
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(10)).with_class_payloads(5);
        let out = run_simulated(&settings, &mut qsl, &mut sut).expect("runs");
        let mut seen: Vec<usize> = out.accuracy_log.iter().map(|l| l.sample_index).collect();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..total).collect::<Vec<_>>(),
            "case {case}: total={total}"
        );
    }
}
