//! Shared fixtures and the mini harness for the benchmark suite.
//!
//! The benches serve two purposes: component microbenchmarks (tensor
//! kernels, LoadGen event-loop overhead, metric scoring) and
//! table/figure regeneration benches — one per artifact of the paper's
//! evaluation, exercising the same code paths as the `mlperf-harness`
//! binaries at smoke scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mlperf_submission::record::ResultRecord;
use mlperf_submission::review::review_round;
use mlperf_submission::round::{generate_round, RoundConfig};

/// Generates and reviews one smoke-profile submission round, for benches
/// that aggregate records (Tables VI–VII, Figures 5 and 7).
pub fn reviewed_smoke_records(seed: u64) -> Vec<ResultRecord> {
    let mut config = RoundConfig::smoke(seed);
    config.open_division_count = 8;
    config.violation_count = 3;
    let mut round = generate_round(&config);
    review_round(&mut round);
    round.records
}

pub mod runner {
    //! A minimal wall-clock benchmark harness.
    //!
    //! The workspace carries no external benchmarking framework, so the
    //! `[[bench]]` targets use this: warm up once, calibrate a batch size
    //! that takes roughly 10 ms, then time batches for a fixed budget and
    //! report the median ns/iter. Good enough for the relative comparisons
    //! these benches exist for (e.g. tracing overhead vs. baseline).
    //!
    //! Besides the printed table, every measurement lands in a
    //! [`BenchReport`]; call [`Bench::finish`] at the end of `main` to
    //! merge it into the JSON file named by `MLPERF_BENCH_JSON` (several
    //! bench binaries appending to one report is the intended use — ci.sh
    //! runs the whole suite into one file and diffs it against the
    //! committed baseline with `bench-compare`).

    use std::hint::black_box;
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    use mlperf_trace::bench::BenchEntry;
    use mlperf_trace::{BenchReport, FromJson, ToJson};

    /// Environment variable naming the JSON report file [`Bench::finish`]
    /// merges into. Unset = no file output.
    pub const ENV_BENCH_JSON: &str = "MLPERF_BENCH_JSON";
    /// Environment variable overriding the per-benchmark budget, in ms.
    pub const ENV_BENCH_BUDGET_MS: &str = "MLPERF_BENCH_BUDGET_MS";
    /// Environment variable supplying the git commit recorded in reports.
    pub const ENV_GIT_COMMIT: &str = "MLPERF_GIT_COMMIT";
    /// Environment variable supplying the free-form report label.
    pub const ENV_BENCH_LABEL: &str = "MLPERF_BENCH_LABEL";

    /// Collects and prints benchmark measurements.
    pub struct Bench {
        filter: Option<String>,
        budget: Duration,
        report: Mutex<BenchReport>,
    }

    impl Bench {
        /// Builds a runner from the process arguments and environment: any
        /// non-flag argument (cargo bench passes `--bench` and friends as
        /// flags) becomes a substring filter on benchmark names, and
        /// `MLPERF_BENCH_BUDGET_MS` overrides the measurement budget (the
        /// CI smoke mode sets it low).
        pub fn from_env() -> Self {
            let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
            let budget = std::env::var(ENV_BENCH_BUDGET_MS)
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .map_or(Duration::from_millis(300), Duration::from_millis);
            let report = BenchReport {
                git_commit: std::env::var(ENV_GIT_COMMIT).unwrap_or_default(),
                label: std::env::var(ENV_BENCH_LABEL).unwrap_or_default(),
                ..BenchReport::default()
            };
            Self {
                filter,
                budget,
                report: Mutex::new(report),
            }
        }

        /// Measures `f`, printing `name`, the median ns/iter, and the
        /// sample spread. Returns the median so callers can compare
        /// benchmarks programmatically (the trace-overhead bench does).
        pub fn bench<T>(&self, name: &str, mut f: impl FnMut() -> T) -> Option<u64> {
            if let Some(filter) = &self.filter {
                if !name.contains(filter.as_str()) {
                    return None;
                }
            }
            // Warm up and calibrate: aim for ~10 ms batches.
            let start = Instant::now();
            black_box(f());
            let once = start.elapsed().max(Duration::from_nanos(1));
            let batch = (10_000_000 / once.as_nanos().max(1)).clamp(1, 1_000_000) as u64;
            let mut samples: Vec<u64> = Vec::new();
            let deadline = Instant::now() + self.budget;
            while samples.len() < 3 || (Instant::now() < deadline && samples.len() < 100) {
                let t = Instant::now();
                for _ in 0..batch {
                    black_box(f());
                }
                samples.push((t.elapsed().as_nanos() as u64) / batch);
            }
            samples.sort_unstable();
            let median = samples[samples.len() / 2];
            println!(
                "{name:<44} {median:>12} ns/iter (min {}, {} samples x {batch})",
                samples[0],
                samples.len()
            );
            self.report.lock().expect("bench report lock").record(
                name,
                BenchEntry {
                    median_ns: median,
                    min_ns: samples[0],
                    max_ns: *samples.last().expect("at least 3 samples"),
                    samples: samples.len() as u64,
                    batch,
                },
            );
            Some(median)
        }

        /// Snapshot of everything measured so far.
        pub fn report(&self) -> BenchReport {
            self.report.lock().expect("bench report lock").clone()
        }

        /// Writes the collected measurements to the file named by
        /// `MLPERF_BENCH_JSON`, merging into it if it already holds a
        /// parseable report (so the six bench binaries accumulate one
        /// file). No-op when the variable is unset; call this last in every
        /// bench `main`.
        pub fn finish(&self) {
            let Ok(path) = std::env::var(ENV_BENCH_JSON) else {
                return;
            };
            let mine = self.report();
            let mut merged = std::fs::read_to_string(&path)
                .ok()
                .and_then(|text| BenchReport::from_json_str(&text).ok())
                .unwrap_or_default();
            merged.merge(&mine);
            let mut text = merged.to_json_value().to_pretty();
            text.push('\n');
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("warning: could not write bench report {path}: {e}");
            }
        }
    }
}
