//! Cost of putting the LoadGen/SUT boundary on a loopback TCP connection.
//!
//! Three numbers: the raw frame codec (encode+decode round-trip of a
//! completion message), an in-process realtime run against a sleeping
//! engine, and the same run driven through `RemoteSut` → loopback daemon.
//! The gap between the last two is the full wire tax — framing, syscalls,
//! the in-flight window, and the reader-thread handoff.

use mlperf_bench::runner::Bench;
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::query::{Query, QuerySample, ResponsePayload, SampleCompletion};
use mlperf_loadgen::sut::SleepSut;
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::Run;
use mlperf_wire::message::Message;
use mlperf_wire::{loopback, RemoteSut, RemoteSutConfig, ServeConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let bench = Bench::from_env();

    // --- codec microbench: one completion frame, encode + decode ---
    let completion = Message::Completion {
        query_id: 42,
        error: false,
        samples: (0..32)
            .map(|i| SampleCompletion {
                sample_id: i,
                payload: ResponsePayload::Class(i as usize % 1_000),
            })
            .collect(),
    };
    bench.bench("wire_completion_encode_decode", || {
        let bytes = completion.encode();
        black_box(Message::decode(&bytes).expect("roundtrip"))
    });

    let issue = Message::Issue(Query {
        id: 42,
        samples: (0..32).map(|i| QuerySample { id: i, index: 0 }).collect(),
        scheduled_at: Nanos::from_millis(3),
        tenant: 0,
    });
    bench.bench("wire_issue_encode_decode", || {
        let bytes = issue.encode();
        black_box(Message::decode(&bytes).expect("roundtrip"))
    });

    // --- end-to-end: the same run, direct vs over the loopback wire ---
    let settings = TestSettings::single_stream()
        .with_min_query_count(300)
        .with_min_duration(Nanos::from_micros(1));
    let per_sample = Duration::from_micros(100);

    let direct = bench.bench("run_realtime_direct", || {
        let mut qsl = MemoryQsl::new("q", 64, 64);
        let sut = Arc::new(SleepSut::new("engine", per_sample));
        black_box(Run::wall_clock(&settings).run(&mut qsl, sut).expect("runs"))
    });

    let wired = bench.bench("run_realtime_loopback_wire", || {
        let mut qsl = MemoryQsl::new("q", 64, 64);
        let config = RemoteSutConfig::default();
        let hello = RemoteSut::hello_for(&settings, 64, &config);
        let service = Arc::new(SleepSut::new("engine", per_sample));
        let (client, server) =
            loopback(service, ServeConfig::default(), hello, config).expect("loopback");
        let out = Run::wall_clock(&settings)
            .run(&mut qsl, Arc::new(client))
            .expect("runs");
        server.shutdown();
        black_box(out)
    });

    bench.finish();

    if let (Some(direct), Some(wired)) = (direct, wired) {
        let pct = (wired as f64 / direct.max(1) as f64 - 1.0) * 100.0;
        println!("loopback wire overhead vs in-process realtime: {pct:+.1}%");
        // Warn-only gate: loopback latency is scheduler- and kernel-
        // dependent, so CI reports drift without failing the build.
        if let Some(max_pct) = std::env::var("MLPERF_WIRE_OVERHEAD_MAX_PCT")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
        {
            if pct > max_pct {
                eprintln!(
                    "wire overhead gate (warn-only): loopback overhead {pct:+.1}% \
                     exceeds allowance {max_pct:.1}%"
                );
            } else {
                println!("wire overhead gate: within {max_pct:.1}% allowance");
            }
        }
    }
}
