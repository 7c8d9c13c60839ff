//! Experiment harness: the code behind every table and figure.
//!
//! Each `src/bin/` binary regenerates one artifact of the paper; the
//! computations live here so the `mlperf-bench` benches and integration tests
//! can reuse them. See DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured numbers.
//!
//! Every binary accepts `--profile smoke|paper` (default `paper` — the
//! calibrated reproduction profile; `smoke` is a seconds-scale check).
//!
//! [`rig`] is the loopback wire rig the robustness binaries (`chaos`,
//! `netbench`, `replay`) and the fleet-crash test build their daemons,
//! clients and router through (DESIGN.md §3e).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod fig6;
pub mod fig8;
pub mod panic_guard;
pub mod profile;
pub mod rig;
pub mod roundio;
pub mod tables;

pub use profile::Profile;
