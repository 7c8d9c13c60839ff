//! Cost of the record–reduce–replay pipeline.
//!
//! Three questions, one bench binary:
//!
//! 1. How fast does `record_trace` turn a 100k-query detail log into a
//!    `RecordedTrace`? (`replay_record_100k`)
//! 2. How fast does `reduce_trace` compress it 100x while checking the
//!    equivalence bound? (`replay_reduce_100k`)
//! 3. What does replaying a recorded schedule through the DES cost
//!    versus generating the same run natively from the seed? The replay
//!    path swaps the Poisson scheduler for a pre-computed arrival list,
//!    so it should be no slower than the native run; with
//!    `MLPERF_REPLAY_OVERHEAD_MAX_PCT` set, a larger gap prints a
//!    warning (warn-only: both sides are full DES runs and shared CI
//!    machines are noisy).

use mlperf_bench::runner::Bench;
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::sut::FixedLatencySut;
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::Run;
use mlperf_replay::{record_trace, reduce_trace, RecordOptions, ReduceOptions};
use mlperf_stats::rng::SeedTriple;
use mlperf_trace::{RingBufferSink, TraceRecord};
use std::hint::black_box;

const POPULATION: usize = 1_024;

/// One traced simulated server run; returns its detail records.
fn traced_run(settings: &TestSettings) -> Vec<TraceRecord> {
    let mut qsl = MemoryQsl::new("q", POPULATION, POPULATION);
    let mut sut = FixedLatencySut::new("s", Nanos::from_micros(50));
    let sink = RingBufferSink::unbounded();
    Run::simulated(settings)
        .sink(&sink)
        .run(&mut qsl, &mut sut)
        .expect("runs");
    sink.snapshot()
}

fn main() {
    let bench = Bench::from_env();
    let seeds = SeedTriple::from_master(0xBE7C);

    // A 100k-query recorded run is the record/reduce corpus; generated
    // once outside the timed region.
    let big_settings = TestSettings::server(10_000.0, Nanos::from_millis(10))
        .with_min_query_count(100_000)
        .with_min_duration(Nanos::from_micros(1))
        .with_seeds(seeds);
    let records = traced_run(&big_settings);
    let opts = RecordOptions::for_population(POPULATION as u64)
        .with_qsl_seed(seeds.qsl_seed)
        .with_latency_target(Nanos::from_millis(10).as_nanos(), 99.0)
        .with_source("bench");

    bench.bench("replay_record_100k", || {
        black_box(record_trace(&records, &opts).expect("records"))
    });

    let trace = record_trace(&records, &opts).expect("records");
    bench.bench("replay_reduce_100k", || {
        black_box(reduce_trace(&trace, &ReduceOptions::new(1_000)).expect("reduces"))
    });

    // Replay-vs-native overhead on a smaller run (both sides are full DES
    // runs; 5k queries keeps the smoke budget honest).
    let small_settings = TestSettings::server(10_000.0, Nanos::from_millis(10))
        .with_min_query_count(5_000)
        .with_min_duration(Nanos::from_micros(1))
        .with_seeds(seeds);
    let small_trace = record_trace(&traced_run(&small_settings), &opts).expect("records");
    let schedule = small_trace.replay_schedule();
    let replay_settings = small_trace.replay_settings();

    let native = bench.bench("des_native_5k", || {
        let mut qsl = MemoryQsl::new("q", POPULATION, POPULATION);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(50));
        black_box(
            Run::simulated(&small_settings)
                .run(&mut qsl, &mut sut)
                .expect("runs"),
        )
    });

    let replayed = bench.bench("des_replay_5k", || {
        let mut qsl = MemoryQsl::new("q", POPULATION, POPULATION);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(50));
        black_box(
            Run::simulated(&replay_settings)
                .replay(&schedule)
                .run(&mut qsl, &mut sut)
                .expect("replays"),
        )
    });

    bench.finish();

    if let (Some(native), Some(replayed)) = (native, replayed) {
        let pct = (replayed as f64 / native.max(1) as f64 - 1.0) * 100.0;
        println!("DES replay overhead vs native run: {pct:+.1}%");
        if let Some(max_pct) = std::env::var("MLPERF_REPLAY_OVERHEAD_MAX_PCT")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
        {
            if pct > max_pct {
                println!(
                    "WARNING: replay overhead gate: {pct:+.1}% exceeds allowance \
                     {max_pct:.1}% (warn-only)"
                );
            } else {
                println!("replay overhead gate: within {max_pct:.1}% allowance");
            }
        }
    }
}
