//! Record–reduce–replay: turn any detail log into a standalone,
//! statistically-equivalent benchmark.
//!
//! The LoadGen's detail logs already carry everything that makes a run
//! a workload: when each query arrived, what it drew, how the SUT
//! answered. This crate closes the loop — in the style of Wasm-R3's
//! record-reduce-replay — so a production run (local, merged, or an
//! entire sharded fleet's log) becomes an artifact any SUT can be
//! benchmarked against:
//!
//! * [`record`] — extract a [`RecordedTrace`] from trace records: the
//!   arrival process, per-query sample indices, and the observed
//!   latency distribution as the reference fingerprint.
//! * [`trace`] — the trace model and its versioned, checksummed,
//!   byte-deterministic on-disk codec (`MLPR` files).
//! * [`fingerprint`] — the statistical identity of a trace
//!   ([`TraceFingerprint`]) and the [`EquivalenceBound`] that decides
//!   whether two traces are the same workload.
//! * [`reduce`] — deterministic stratified compression to a target
//!   length that provably (under the bound) preserves the fingerprint;
//!   a reduction outside the bound is a structured error.
//!
//! Replay itself lives in the LoadGen
//! ([`mlperf_loadgen::replay`]): [`RecordedTrace::replay_schedule`]
//! produces the schedule and [`RecordedTrace::replay_settings`] the
//! matching validity rules, so a reduced trace drives the simulated or
//! wall-clock loop — against a local SUT or a remote fleet — and is
//! judged exactly like the run it was recorded from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fingerprint;
pub mod record;
pub mod reduce;
pub mod trace;

pub use fingerprint::{
    fingerprint_of_records, BoundViolation, EquivalenceBound, FingerprintDistance, TraceFingerprint,
};
pub use record::{record_trace, RecordError, RecordOptions};
pub use reduce::{reduce_trace, ReduceError, ReduceOptions};
pub use trace::{CodecError, RecordedQuery, RecordedTrace, MAGIC};
