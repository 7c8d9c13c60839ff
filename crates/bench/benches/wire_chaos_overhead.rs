//! Cost of frame integrity and the chaos decorator on the wire path.
//!
//! Three comparisons. First, the CRC32 seal/open tax per frame: encoding
//! a completion bare versus sealing it and opening it back through the
//! checksum. Second and third, a full loopback run plain versus the same
//! run with a *disarmed* `ChaosTransport` wrapped around both endpoints —
//! the decorator promises to be a pass-through when no fault is armed, so
//! any gap between those two numbers is pure decorator overhead.
//!
//! With `MLPERF_WIRE_CHAOS_OVERHEAD_MAX_PCT` set the gate is warn-only:
//! an overshoot prints a warning but never fails the run, because
//! loopback timings on shared CI machines are too noisy to block on.

use mlperf_bench::runner::Bench;
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::query::{ResponsePayload, SampleCompletion};
use mlperf_loadgen::sut::SleepSut;
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::Run;
use mlperf_wire::frame::{open, seal};
use mlperf_wire::message::Message;
use mlperf_wire::{loopback, RemoteSut, RemoteSutConfig, ServeConfig, WireChaosPlan};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let bench = Bench::from_env();

    // --- CRC tax per frame: bare codec vs seal + open ---
    let completion = Message::Completion {
        query_id: 7,
        error: false,
        samples: (0..32)
            .map(|i| SampleCompletion {
                sample_id: i,
                payload: ResponsePayload::Class(i as usize % 1_000),
            })
            .collect(),
    };
    bench.bench("wire_completion_encode_bare", || {
        black_box(completion.encode())
    });
    bench.bench("wire_completion_seal_open", || {
        let sealed = seal(&completion.encode());
        black_box(open(&sealed).expect("crc must verify").len())
    });

    // --- decorator tax: plain loopback run vs disarmed chaos wrap ---
    let settings = TestSettings::single_stream()
        .with_min_query_count(200)
        .with_min_duration(Nanos::from_micros(1));
    let per_sample = Duration::from_micros(100);

    let run = |config: RemoteSutConfig, serve: ServeConfig| {
        let mut qsl = MemoryQsl::new("q", 64, 64);
        let hello = RemoteSut::hello_for(&settings, 64, &config);
        let service = Arc::new(SleepSut::new("engine", per_sample));
        let (client, server) = loopback(service, serve, hello, config).expect("loopback");
        let out = Run::wall_clock(&settings)
            .run(&mut qsl, Arc::new(client))
            .expect("runs");
        server.shutdown();
        out
    };

    let plain = bench.bench("run_realtime_loopback_plain", || {
        black_box(run(RemoteSutConfig::default(), ServeConfig::default()))
    });

    let disarmed = bench.bench("run_realtime_loopback_disarmed_chaos", || {
        // An empty plan never arms, so both endpoints run the decorator's
        // pass-through path on every frame.
        black_box(run(
            RemoteSutConfig::default().with_chaos(WireChaosPlan::new(1)),
            ServeConfig::default().with_chaos(WireChaosPlan::new(2)),
        ))
    });

    bench.finish();

    if let (Some(plain), Some(disarmed)) = (plain, disarmed) {
        let pct = (disarmed as f64 / plain.max(1) as f64 - 1.0) * 100.0;
        println!("disarmed wire-chaos overhead vs plain loopback: {pct:+.1}%");
        if let Some(max_pct) = std::env::var("MLPERF_WIRE_CHAOS_OVERHEAD_MAX_PCT")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
        {
            if pct > max_pct {
                eprintln!(
                    "wire chaos overhead gate (warn-only): disarmed overhead \
                     {pct:+.1}% exceeds allowance {max_pct:.1}%"
                );
            } else {
                println!("wire chaos overhead gate: within {max_pct:.1}% allowance");
            }
        }
    }
}
