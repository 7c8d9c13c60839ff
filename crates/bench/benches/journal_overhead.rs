//! Cost of crash-safety: a journaled DES run vs the plain runner.
//!
//! `Run::journal` adds a durable write-ahead journal to the simulated
//! server scenario — one binary checkpoint frame (scenario cursor, RNG
//! states, recorder delta: each record encoded exactly once across the
//! run) per `checkpoint_every` issued queries, CRC-framed and
//! fsync-batched. Two costs matter and they are very different: the CPU
//! tax of snapshotting and encoding checkpoints (steady-state, small),
//! and the wall-clock price of `fsync` durability (dominated by the
//! storage stack — a few ms per sync — and amortized by the batching
//! window). The rows below separate them, and only the second is this
//! bench's to measure: the repo benchmark never fsyncs, so its
//! `sim_journaled` workload prices the encoding and these rows price
//! durability (EXPERIMENTS.md, "what durability costs").

use mlperf_bench::runner::Bench;
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::journal::JournalConfig;
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::sut::FixedLatencySut;
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::{Instruments, Run};
use std::hint::black_box;

fn main() {
    let bench = Bench::from_args();
    let settings = TestSettings::server(10_000.0, Nanos::from_millis(10))
        .with_min_query_count(5_000)
        .with_min_duration(Nanos::from_micros(1));
    let dir = std::env::temp_dir().join(format!("mlpj-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");

    bench.bench("run_server_plain", || {
        let mut qsl = MemoryQsl::new("q", 1_024, 1_024);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(50));
        let instruments = Instruments::none();
        black_box(
            Run::simulated(&settings)
                .instruments(&instruments)
                .run(&mut qsl, &mut sut)
                .expect("runs"),
        )
    });

    // Encoding-only: the fsync batching window never fills, so this row
    // is the CPU tax of checkpointing every 64 queries (plus the two
    // syncs `create` always makes, header and meta frame).
    bench.bench("run_server_journaled_no_fsync", || {
        let mut qsl = MemoryQsl::new("q", 1_024, 1_024);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(50));
        let instruments = Instruments::none();
        let cfg = JournalConfig::new(dir.join("nofsync.mlpj"))
            .with_checkpoint_every(64)
            .with_fsync_every(u32::MAX);
        black_box(
            Run::simulated(&settings)
                .instruments(&instruments)
                .journal(&cfg)
                .run(&mut qsl, &mut sut)
                .expect("runs"),
        )
    });

    // Durability pricing: fsync per checkpoint (the default), and batched
    // by 8 (the daemon's completion-journal window).
    bench.bench("run_server_journaled_fsync_each", || {
        let mut qsl = MemoryQsl::new("q", 1_024, 1_024);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(50));
        let instruments = Instruments::none();
        let cfg = JournalConfig::new(dir.join("each.mlpj")).with_checkpoint_every(64);
        black_box(
            Run::simulated(&settings)
                .instruments(&instruments)
                .journal(&cfg)
                .run(&mut qsl, &mut sut)
                .expect("runs"),
        )
    });

    bench.bench("run_server_journaled_fsync_batch_8", || {
        let mut qsl = MemoryQsl::new("q", 1_024, 1_024);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(50));
        let instruments = Instruments::none();
        let cfg = JournalConfig::new(dir.join("batch8.mlpj"))
            .with_checkpoint_every(64)
            .with_fsync_every(8);
        black_box(
            Run::simulated(&settings)
                .instruments(&instruments)
                .journal(&cfg)
                .run(&mut qsl, &mut sut)
                .expect("runs"),
        )
    });

    let _ = std::fs::remove_dir_all(&dir);
}
