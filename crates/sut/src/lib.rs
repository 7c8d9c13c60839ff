//! Simulated systems under test.
//!
//! The paper's 600+ submissions came from real hardware spanning "four
//! orders of magnitude" of performance (Section VI-D). This crate is that
//! fleet's stand-in: queueing/roofline device models driven by the real
//! per-input operation counts of Table I, exercised through the LoadGen's
//! [`SimSut`](mlperf_loadgen::sut::SimSut) interface.
//!
//! * [`device`] — [`device::DeviceSpec`]: peak throughput,
//!   batching-efficiency curve, per-query overhead, log-normal jitter, and
//!   an optional thermal boost/throttle model (why the 60-second
//!   minimum-duration rule exists).
//! * [`engine`] — [`engine::DeviceSut`]: the execution engine.
//!   `Immediate` runs queries as they arrive (single-stream, multistream,
//!   offline); `DynamicBatch` accumulates server queries up to a batch size
//!   or timeout — the mechanism behind the paper's server-vs-offline
//!   throughput gap (Figure 6).
//! * [`fleet`](mod@fleet) — named device presets from embedded DSPs to multi-GPU
//!   servers, with the vendor/framework metadata the submission round uses
//!   (Tables VI–VII, Figures 5–8).
//! * [`proxy_sut`] — SUTs whose payloads come from the runnable proxy
//!   models, for accuracy mode and the audit tests.
//! * [`cheats`] — deliberately rule-breaking SUTs (result caching, seed
//!   sniffing, accuracy corner-cutting, silent query dropping) that the
//!   audit suite must catch.
//! * [`faults`] — seeded fault injection ([`faults::FaultPlan`] /
//!   [`faults::FaultySut`]): transient errors, latency spikes, stalls,
//!   sustained throttling, and hard device death, layered over any engine.
//! * [`resilience`] — recovery policies ([`resilience::ResilientSut`]):
//!   per-query timeout, bounded retry with backoff, failover to a sibling
//!   device.
//! * [`shard`] — fleet-scale routing ([`shard::ShardedSut`]): one
//!   scenario's traffic fanned across N wall-clock endpoints under
//!   round-robin or throughput-weighted balancing, with per-shard health
//!   tracking (Up → Suspect → Down → Draining) and cross-shard failover.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cheats;
pub mod device;
pub mod engine;
pub mod faults;
pub mod fleet;
pub mod proxy_sut;
pub mod resilience;
pub mod shard;

pub use engine::{BatchPolicy, DeviceSut};
pub use faults::{FaultPlan, FaultySut};
pub use fleet::{fleet, FleetSystem};
pub use shard::{BalancePolicy, ShardEndpoint, ShardProbe, ShardStatus, ShardedSut};
