//! Cost of the tracing hooks when tracing is off.
//!
//! `run_simulated` is the `Run` builder with its default `NoopSink`, so
//! every hot-path event site pays one `sink.enabled()` virtual call. This
//! bench compares the plain entry point against the builder with an
//! explicit `NoopSink` and against a real `RingBufferSink`, so a
//! regression in the disabled-path overhead is visible as a gap between
//! the first two numbers.

use mlperf_bench::runner::Bench;
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::des::run_simulated;
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::sut::FixedLatencySut;
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::Run;
use mlperf_trace::{NoopSink, RingBufferSink};
use std::hint::black_box;

fn main() {
    let bench = Bench::from_env();
    let settings = TestSettings::server(10_000.0, Nanos::from_millis(10))
        .with_min_query_count(5_000)
        .with_min_duration(Nanos::from_micros(1));

    let baseline = bench.bench("run_simulated_no_sink_param", || {
        let mut qsl = MemoryQsl::new("q", 1_024, 1_024);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(50));
        black_box(run_simulated(&settings, &mut qsl, &mut sut).expect("runs"))
    });

    let noop = bench.bench("run_simulated_traced_noop_sink", || {
        let mut qsl = MemoryQsl::new("q", 1_024, 1_024);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(50));
        black_box(
            Run::simulated(&settings)
                .sink(&NoopSink)
                .run(&mut qsl, &mut sut)
                .expect("runs"),
        )
    });

    bench.bench("run_simulated_traced_ring_buffer", || {
        let sink = RingBufferSink::unbounded();
        let mut qsl = MemoryQsl::new("q", 1_024, 1_024);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(50));
        black_box(
            Run::simulated(&settings)
                .sink(&sink)
                .run(&mut qsl, &mut sut)
                .expect("runs"),
        )
    });

    bench.finish();

    if let (Some(base), Some(noop)) = (baseline, noop) {
        let pct = (noop as f64 / base.max(1) as f64 - 1.0) * 100.0;
        println!("noop-sink overhead vs baseline: {pct:+.1}%");
        // Enforce mode for CI: with MLPERF_TRACE_OVERHEAD_MAX_PCT set, a
        // disabled sink costing more than the allowance fails the run.
        if let Some(max_pct) = std::env::var("MLPERF_TRACE_OVERHEAD_MAX_PCT")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
        {
            if pct > max_pct {
                eprintln!(
                    "trace overhead gate: noop-sink overhead {pct:+.1}% exceeds \
                     allowance {max_pct:.1}%"
                );
                std::process::exit(1);
            }
            println!("trace overhead gate: within {max_pct:.1}% allowance");
        }
    }
}
