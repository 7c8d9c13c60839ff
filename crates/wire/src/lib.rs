//! LoadGen over the wire: a network SUT protocol, remote client, and
//! serving daemon.
//!
//! The MLPerf rulebook measures latency at the LoadGen/SUT boundary; this
//! crate moves that boundary onto a TCP connection without moving the
//! rules. A [`RemoteSut`] implements the core `RealtimeSut` trait, so
//! `Run::wall_clock` drives a machine on the other side of the network
//! unchanged, and [`serve`] exports any local SUT — simulated device
//! fleets ([`SimHost`]), fault-injection stacks, anything implementing
//! [`WireService`] — as a daemon.
//!
//! Layering, bottom-up:
//!
//! * [`frame`] — length-prefixed frames, the byte codec, and the per-frame
//!   CRC32 seal that makes corruption a structured [`FrameError`];
//! * [`message`] — the message vocabulary and binary layouts, behind a
//!   handshake that carries the run's identity, a session id and epoch,
//!   and the one protocol version both ends must speak;
//! * [`clock`] — NTP-style four-timestamp offset estimation, so spans
//!   from both hosts merge onto one aligned time axis;
//! * [`stats`] — [`DaemonStats`] and [`fetch_stats`], the one-shot live
//!   telemetry probe a running daemon answers without a handshake;
//! * [`transport`] — the [`Transport`] abstraction over a framed byte
//!   pipe, plus [`WireChaosPlan`] / [`ChaosSession`], the seeded wire
//!   fault injector that decorates either endpoint;
//! * [`client`] — [`RemoteSut`], with bounded in-flight backpressure,
//!   heartbeats, the errored/vanished failure mapping, and
//!   reconnect-and-resume under a [`ResumePolicy`];
//! * [`server`] — [`serve`] / [`ServerHandle`]: closed-loop sessions served
//!   on their connection thread, server sessions on a worker pool, and a
//!   completion journal that makes resume replay exactly-once;
//! * [`host`] — [`SimHost`], bridging event-driven simulated SUTs onto
//!   the wall clock;
//! * [`cheat`] — deliberately misbehaving services for audit tests.
//!
//! Everything runs on `std::net` and threads; the workspace is
//! dependency-free by rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cheat;
pub mod client;
pub mod clock;
pub mod frame;
pub mod host;
pub mod message;
pub mod server;
pub mod service;
pub mod stats;
pub mod transport;

pub use cheat::SilentDropService;
pub use client::{RemoteSut, RemoteSutConfig, ResumePolicy};
pub use clock::{ClockEstimator, ClockSample};
pub use frame::{FrameError, WireError, MAX_FRAME_LEN};
pub use host::SimHost;
pub use message::{Hello, Message, PROTOCOL_VERSION};
pub use server::{serve, serve_on, ServeConfig, ServerHandle};
pub use service::{ServedReply, WireService};
pub use stats::{fetch_stats, DaemonStats};
pub use transport::{ChaosSession, TcpTransport, Transport, WireChaosPlan};

use std::sync::Arc;

/// Spins up a daemon on a loopback port and connects a [`RemoteSut`] to
/// it — the single-process topology CI uses.
///
/// The returned handle keeps the daemon alive; shut the client down (or
/// drop it) before [`ServerHandle::shutdown`].
///
/// # Errors
///
/// Returns [`WireError`] if the bind, connect, or handshake fails.
pub fn loopback(
    service: Arc<dyn WireService>,
    serve_config: ServeConfig,
    hello: Hello,
    client_config: RemoteSutConfig,
) -> Result<(RemoteSut, ServerHandle), WireError> {
    loopback_instrumented(service, serve_config, hello, client_config, None, None)
}

/// [`loopback`] with client-side trace and metrics instrumentation.
///
/// # Errors
///
/// Returns [`WireError`] if the bind, connect, or handshake fails.
pub fn loopback_instrumented(
    service: Arc<dyn WireService>,
    serve_config: ServeConfig,
    hello: Hello,
    client_config: RemoteSutConfig,
    sink: Option<Arc<dyn mlperf_trace::event::TraceSink>>,
    metrics: Option<Arc<mlperf_trace::metrics::MetricsRegistry>>,
) -> Result<(RemoteSut, ServerHandle), WireError> {
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0))?;
    let handle = serve(listener, service, serve_config)?;
    let client =
        RemoteSut::connect_instrumented(handle.addr(), hello, client_config, sink, metrics)?;
    Ok((client, handle))
}
