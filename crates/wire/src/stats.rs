//! Live daemon telemetry: the [`DaemonStats`] snapshot and its one-shot
//! fetch protocol.
//!
//! A running daemon answers a [`Message::StatsRequest`] sent as the
//! *first* frame of a fresh connection (where a `Hello` would normally
//! go) with one [`Message::Stats`] frame carrying a JSON-encoded
//! [`DaemonStats`], then closes. No handshake, no session: the probe is
//! cheap enough to poll (`netbench --watch` does, a few times a second)
//! and safe to point at a daemon mid-run — it never touches the serving
//! path's sessions.
//!
//! [`Message::StatsRequest`]: crate::message::Message::StatsRequest
//! [`Message::Stats`]: crate::message::Message::Stats

use std::net::{TcpStream, ToSocketAddrs};

use mlperf_trace::json::{FromJson, JsonError, JsonValue, ToJson};
use mlperf_trace::metrics::MetricsSnapshot;

use crate::frame::WireError;
use crate::message::Message;
use crate::transport::{TcpTransport, Transport};

/// A point-in-time view of a serving daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonStats {
    /// Name of the SUT the daemon exports.
    pub sut_name: String,
    /// Daemon-assigned shard label (empty when the daemon is not part of
    /// a sharded fleet).
    pub shard: String,
    /// Nanoseconds since the daemon started serving.
    pub uptime_ns: u64,
    /// Queries resolved over the daemon's lifetime.
    pub served: u64,
    /// Live (attached or resumable) sessions.
    pub sessions: u64,
    /// Queries currently being served across all sessions.
    pub in_flight: u64,
    /// Per-session in-flight counts `(session id, outstanding)`, sorted
    /// by session id so the rendering is deterministic.
    pub session_outstanding: Vec<(u64, u64)>,
    /// The daemon's metrics registry: wire counters and latency
    /// histograms (`wire_serve_ns`, `wire_queue_ns`, ...).
    pub snapshot: MetricsSnapshot,
}

impl DaemonStats {
    /// Queries per second over the daemon's lifetime.
    pub fn throughput_qps(&self) -> f64 {
        if self.uptime_ns == 0 {
            return 0.0;
        }
        self.served as f64 / (self.uptime_ns as f64 / 1e9)
    }
}

impl ToJson for DaemonStats {
    fn to_json_value(&self) -> JsonValue {
        let sessions = self
            .session_outstanding
            .iter()
            .map(|(session, outstanding)| {
                JsonValue::object(vec![
                    ("session", session.to_json_value()),
                    ("outstanding", outstanding.to_json_value()),
                ])
            })
            .collect::<Vec<_>>();
        JsonValue::object(vec![
            ("sut_name", self.sut_name.to_json_value()),
            ("shard", self.shard.to_json_value()),
            ("uptime_ns", self.uptime_ns.to_json_value()),
            ("served", self.served.to_json_value()),
            ("sessions", self.sessions.to_json_value()),
            ("in_flight", self.in_flight.to_json_value()),
            ("session_outstanding", JsonValue::Array(sessions)),
            ("snapshot", self.snapshot.to_json_value()),
        ])
    }
}

impl FromJson for DaemonStats {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        let session_outstanding = value
            .field("session_outstanding")?
            .as_array()?
            .iter()
            .map(|row| {
                Ok((
                    row.field("session")?.as_u64()?,
                    row.field("outstanding")?.as_u64()?,
                ))
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(DaemonStats {
            sut_name: value.field("sut_name")?.as_str()?.to_string(),
            shard: value.field("shard")?.as_str()?.to_string(),
            uptime_ns: value.field("uptime_ns")?.as_u64()?,
            served: value.field("served")?.as_u64()?,
            sessions: value.field("sessions")?.as_u64()?,
            in_flight: value.field("in_flight")?.as_u64()?,
            session_outstanding,
            snapshot: MetricsSnapshot::from_json_value(value.field("snapshot")?)?,
        })
    }
}

/// Fetches a [`DaemonStats`] snapshot from a running daemon.
///
/// # Errors
///
/// Returns [`WireError::Io`] if the connect fails, [`WireError::Protocol`]
/// if the daemon answers with anything but `Stats` or the JSON does not
/// parse, plus the usual frame errors.
pub fn fetch_stats<A: ToSocketAddrs>(addr: A) -> Result<DaemonStats, WireError> {
    let mut last_err = WireError::Disconnected("no addresses to dial".to_string());
    for addr in addr.to_socket_addrs()? {
        let stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => {
                last_err = e.into();
                continue;
            }
        };
        stream.set_nodelay(true)?;
        let mut transport = TcpTransport::new(stream);
        transport.send(&Message::StatsRequest.to_wire())?;
        let reply = Message::from_wire(&transport.recv()?)?;
        transport.shutdown();
        return match reply {
            Message::Stats { json } => DaemonStats::from_json_str(&json)
                .map_err(|e| WireError::Protocol(format!("malformed stats json: {e}"))),
            other => Err(WireError::Protocol(format!(
                "expected Stats, got {}",
                other.tag_name()
            ))),
        };
    }
    Err(last_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_roundtrip_through_json() {
        use mlperf_trace::metrics::MetricsRegistry;
        let registry = MetricsRegistry::new();
        registry.incr("wire_replays", 3);
        registry.observe("wire_serve_ns", 42_000);
        let stats = DaemonStats {
            sut_name: "rack-7".into(),
            shard: "shard-3".into(),
            uptime_ns: 2_000_000_000,
            served: 512,
            sessions: 2,
            in_flight: 9,
            session_outstanding: vec![(41, 4), (97, 5)],
            snapshot: registry.snapshot(),
        };
        let back = DaemonStats::from_json_str(&stats.to_json_string()).expect("roundtrip");
        assert_eq!(back, stats);
        assert!((back.throughput_qps() - 256.0).abs() < 1e-9);
    }

    #[test]
    fn zero_uptime_reports_zero_throughput() {
        let stats = DaemonStats {
            sut_name: String::new(),
            shard: String::new(),
            uptime_ns: 0,
            served: 10,
            sessions: 0,
            in_flight: 0,
            session_outstanding: Vec::new(),
            snapshot: MetricsSnapshot::default(),
        };
        assert_eq!(stats.throughput_qps(), 0.0);
    }
}
