//! Shared fixtures and the mini harness for the benchmark suite.
//!
//! The benches serve two purposes: component microbenchmarks (tensor
//! kernels, accuracy-metric scoring, what `fsync` durability costs a
//! journaled run) and table/figure regeneration benches — one per
//! artifact of the paper's evaluation, exercising the same code paths as
//! the `paper` binary at smoke scale. What LoadGen itself costs
//! per query — engine, trace, wire, journal encoding, replay — is not
//! here: that is the repo benchmark, `perfbench/`.

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
    //! print the median ns/iter. The output is for reading, not for
    //! comparing: nothing stores it and nothing gates on it. A claim about
    //! this repo's speed is a `perf` run (`perfbench/`), which these
    //! benches do not overlap: they time what it cannot see.

    use std::hint::black_box;
    use std::time::{Duration, Instant};

    /// Measurement budget per benchmark, after warm-up and calibration.
    const BUDGET: Duration = Duration::from_millis(300);

    /// Times and prints benchmarks.
    pub struct Bench {
        filter: Option<String>,
    }

    impl Bench {
        /// Builds a runner from the process arguments: any non-flag
        /// argument (cargo bench passes `--bench` and friends as flags)
        /// becomes a substring filter on benchmark names.
        pub fn from_args() -> Self {
            Self {
                filter: std::env::args().skip(1).find(|a| !a.starts_with('-')),
            }
        }

        /// Measures `f`, printing `name`, the median ns/iter, and the
        /// sample spread.
        pub fn bench<T>(&self, name: &str, mut f: impl FnMut() -> T) {
            if let Some(filter) = &self.filter {
                if !name.contains(filter.as_str()) {
                    return;
                }
            }
            // Warm up and calibrate: aim for ~10 ms batches.
            let start = Instant::now();
            black_box(f());
            let once = start.elapsed().max(Duration::from_nanos(1));
            let batch = (10_000_000 / once.as_nanos().max(1)).clamp(1, 1_000_000) as u64;
            let mut samples: Vec<u64> = Vec::new();
            let deadline = Instant::now() + BUDGET;
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
        }
    }
}
