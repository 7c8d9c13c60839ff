//! Experiment harness: the code behind every table and figure.
//!
//! The `paper` binary regenerates every artifact of the paper's evaluation
//! and, with `--check`, compares each with its committed `results/` file;
//! the computations live here so the integration tests can reuse them.
//! See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured numbers.
//!
//! `paper` accepts `--profile smoke|paper` (default `paper` — the
//! calibrated reproduction profile; `smoke` is a seconds-scale check).
//!
//! [`rig`] is the loopback wire rig the robustness binaries (`chaos`,
//! `netbench`, `replay`) and the fleet-crash test build their daemons,
//! clients and router through (DESIGN.md §3e).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod cli;
pub mod fig6;
pub mod fig8;
pub mod panic_guard;
pub mod profile;
pub mod rig;
pub mod tables;

pub use profile::Profile;
