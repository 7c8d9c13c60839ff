//! Statistical substrate for the MLPerf Inference reproduction.
//!
//! This crate hosts everything the benchmark needs from statistics:
//!
//! * [`rng`] — a small, self-contained, seedable PRNG ([`rng::Rng64`]) plus
//!   seed-derivation helpers, so that every LoadGen run is reproducible from
//!   the `(qsl, schedule, accuracy)` seed triple regardless of external crate
//!   versions.
//! * [`dist`] — sampling for the distributions the benchmark uses: the
//!   exponential inter-arrival times of the server scenario's Poisson
//!   process, log-normal latency jitter, and normal variates.
//! * [`percentile`] — exact percentile estimation over recorded latencies
//!   (nearest-rank, the convention the LoadGen uses) plus a streaming P²
//!   estimator for memory-bounded monitoring.
//! * [`confidence`] — the query-count mathematics of the paper's Table IV:
//!   Equation 1 (margin) and Equation 2 (number of queries), the inverse
//!   normal CDF they require, and the rounding rule to multiples of `2^13`.
//! * [`equiv`] — KS-style distribution-equivalence distances on
//!   nearest-rank quantile grids, the rule the record–reduce–replay
//!   subsystem uses to certify that a reduced trace still *is* the
//!   recorded workload.
//!
//! # Examples
//!
//! Reproducing the paper's Table IV row for the 99th percentile:
//!
//! ```
//! use mlperf_stats::confidence::{QueryCountPlan, TailLatency};
//!
//! let plan = QueryCountPlan::paper_default(TailLatency::P99);
//! assert_eq!(plan.raw_queries(), 262_742);
//! assert_eq!(plan.rounded_queries(), 270_336); // 33 * 2^13
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod confidence;
pub mod dist;
pub mod equiv;
pub mod percentile;
pub mod rng;

pub use equiv::{
    cdf_distance, cv_squared, grid_quantiles, max_rel_gap, quantile_band_distance, QUANTILE_GRID,
};
pub use percentile::Percentile;
pub use rng::Rng64;
