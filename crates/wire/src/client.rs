//! The LoadGen-side endpoint: [`RemoteSut`].
//!
//! `RemoteSut` implements [`RealtimeSut`], so `Run::wall_clock` drives a
//! machine on the other end of a TCP connection exactly as it drives an
//! in-process SUT. Internally it keeps a bounded in-flight window
//! (backpressure), a reader thread routing completion frames to blocked
//! issuers, and a heartbeat thread that detects a silently dead peer. With
//! a [`ResumePolicy`] armed, the reader also owns the reconnect loop: on a
//! severed link it redials with bounded backoff, re-handshakes with the
//! same session id at a bumped epoch, and replays every in-flight query —
//! the server's completion journal dedups by wire id, so nothing is
//! double-counted.
//!
//! Failure mapping — this is the contract the validity rules lean on:
//!
//! * corrupt frame (CRC failure), protocol violation, or heartbeat loss →
//!   [`IssueOutcome::Errored`] → errored completions → the
//!   `ErrorFractionExceeded` rule: the link was alive enough to prove the
//!   peer misbehaved;
//! * hard disconnect (EOF/reset) without resume, or resume exhausted →
//!   [`IssueOutcome::Vanished`] → the queries stay outstanding → the
//!   `IncompleteQueries` rule and the TEST06 completeness audit: the
//!   completions' fate is genuinely unknown, and claiming "errored" would
//!   fabricate a resolution;
//! * response timeout on a live connection (the server swallowed the
//!   frame) → [`IssueOutcome::Vanished`], as before.
//!
//! No path can hang the run.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::query::{Query, SampleCompletion};
use mlperf_loadgen::sut::{IssueOutcome, RealtimeSut};
use mlperf_stats::rng::splitmix64;
use mlperf_trace::event::{parse_detail_log, TraceEvent, TraceSink};
use mlperf_trace::metrics::MetricsRegistry;
use mlperf_trace::sync::{lock, wait, wait_timeout, wait_timeout_while};

use crate::clock::{ClockEstimator, ClockSample};
use crate::frame::WireError;
use crate::message::{Hello, Message, PROTOCOL_VERSION};
use crate::transport::{ChaosSession, TcpTransport, Transport, WireChaosPlan};

/// How long [`RemoteSut::shutdown`] waits for the server's drained
/// goodbye (and the event shipment that precedes it) before closing the
/// socket regardless. Only applies with a trace sink attached.
const GOODBYE_WAIT: Duration = Duration::from_secs(2);

/// How a [`RemoteSut`] reconnects after a severed link.
#[derive(Debug, Clone, Copy)]
pub struct ResumePolicy {
    /// Redial attempts per outage before the run is failed.
    pub max_attempts: u32,
    /// Base backoff; attempt `n` sleeps `n × backoff` (bounded linear).
    pub backoff: Duration,
}

/// Tuning knobs for a [`RemoteSut`] connection.
#[derive(Debug, Clone)]
pub struct RemoteSutConfig {
    /// Backpressure window: issuers block once this many queries are on
    /// the wire without a completion.
    pub(crate) max_in_flight: u32,
    /// How long an issuer waits for its completion frame before declaring
    /// the query vanished.
    pub(crate) response_timeout: Duration,
    /// Interval between heartbeat frames.
    pub(crate) heartbeat_interval: Duration,
    /// Silence tolerated (no heartbeat ack, no completion) before the
    /// connection is declared dead. A daemon serving a closed-loop
    /// session's query on its connection thread answers no heartbeat
    /// meanwhile; it vouches for itself instead, at least every two of its
    /// 25 ms liveness ticks — so a client whose queries can outlast its own
    /// grace needs a grace of three ticks (75 ms) or more.
    pub(crate) heartbeat_grace: Duration,
    /// Reconnect-and-resume policy; `None` (the default) fails the link on
    /// the first disconnect.
    pub(crate) resume: Option<ResumePolicy>,
    /// Client-side wire chaos plan, for fault-injection testing. `None`
    /// (or a disarmed plan) leaves the transport untouched.
    pub(crate) chaos: Option<WireChaosPlan>,
    /// Wire epoch to open the session at. `0` (the default) starts a
    /// fresh session; a nonzero value re-adopts the session's server-side
    /// completion journal, exactly as an in-process reconnect would —
    /// this is how a run resumed from a crash-safe journal reclaims its
    /// wire session after the client process died.
    pub(crate) initial_epoch: u32,
}

impl Default for RemoteSutConfig {
    fn default() -> Self {
        RemoteSutConfig {
            max_in_flight: 64,
            response_timeout: Duration::from_secs(10),
            heartbeat_interval: Duration::from_millis(100),
            heartbeat_grace: Duration::from_secs(2),
            resume: None,
            chaos: None,
            initial_epoch: 0,
        }
    }
}

impl RemoteSutConfig {
    /// Overrides the per-query response timeout.
    #[must_use]
    pub fn with_response_timeout(mut self, t: Duration) -> Self {
        self.response_timeout = t;
        self
    }

    /// Overrides the heartbeat interval and grace window.
    #[must_use]
    pub fn with_heartbeat(mut self, interval: Duration, grace: Duration) -> Self {
        self.heartbeat_interval = interval;
        self.heartbeat_grace = grace;
        self
    }

    /// Arms reconnect-and-resume with the given policy.
    #[must_use]
    pub fn with_resume(mut self, policy: ResumePolicy) -> Self {
        self.resume = Some(policy);
        self
    }

    /// Arms a client-side wire chaos plan.
    #[must_use]
    pub fn with_chaos(mut self, plan: WireChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Opens the session at a nonzero epoch, re-adopting its server-side
    /// completion journal (crash-resume handshake).
    #[must_use]
    pub fn with_initial_epoch(mut self, epoch: u32) -> Self {
        self.initial_epoch = epoch;
        self
    }
}

/// How a terminally failed link resolves its queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailKind {
    /// The peer provably misbehaved → errored completions.
    Errored,
    /// The queries' fate is unknown → they stay outstanding.
    Vanished,
}

impl FailKind {
    fn outcome(self) -> IssueOutcome {
        match self {
            FailKind::Errored => IssueOutcome::Errored,
            FailKind::Vanished => IssueOutcome::Vanished,
        }
    }
}

/// Link state. `Down` is transient: the reader thread owns the reconnect
/// and either restores `Up` or settles on `Dead`.
#[derive(Debug, Clone, Copy)]
enum Link {
    Up,
    Down,
    Dead(FailKind),
}

/// What the reader thread hands back to a blocked issuer.
enum Reply {
    Completion {
        error: bool,
        samples: Vec<SampleCompletion>,
    },
    Failed(FailKind),
}

impl Reply {
    fn outcome(self) -> IssueOutcome {
        match self {
            Reply::Completion {
                error: false,
                samples,
            } => IssueOutcome::Completed(samples),
            Reply::Completion { error: true, .. } => IssueOutcome::Errored,
            Reply::Failed(kind) => kind.outcome(),
        }
    }
}

/// One query's reply on its way from the reader thread to the issuer
/// blocked on it: filled once, taken once.
#[derive(Default)]
struct ReplySlot {
    reply: Mutex<Option<Reply>>,
    filled: Condvar,
}

impl ReplySlot {
    fn fill(&self, reply: Reply) {
        *lock(&self.reply) = Some(reply);
        self.filled.notify_one();
    }

    /// The reply, or `None` when `timeout` passes without one.
    fn wait(&self, timeout: Duration) -> Option<Reply> {
        let (mut reply, _timed_out) =
            wait_timeout_while(&self.filled, lock(&self.reply), timeout, |reply| {
                reply.is_none()
            });
        reply.take()
    }
}

struct Pending {
    slot: Arc<ReplySlot>,
    /// When the query was registered — read only to observe the round
    /// trip, so only taken with a metrics registry attached.
    sent_at: Option<Instant>,
    /// Kept for replay: a resumed link re-sends every in-flight query.
    query: Query,
    /// Trace context carried by the issue frame. A replay re-sends the
    /// *same* id, so the merged log stays exactly-once per trace.
    trace_id: u64,
}

struct ClientState {
    link: Link,
    reason: String,
    epoch: u32,
    in_flight: u32,
    /// Issuers parked on [`ClientShared::window`]: a completion wakes one
    /// only when there is one.
    window_waiters: u32,
    pending: HashMap<u64, Pending>,
}

struct ClientShared {
    config: RemoteSutConfig,
    addrs: Vec<SocketAddr>,
    base_hello: Hello,
    writer: Mutex<Box<dyn Transport>>,
    chaos: Option<Arc<ChaosSession>>,
    state: Mutex<ClientState>,
    /// Issuers waiting for a slot in the in-flight window.
    window: Condvar,
    /// `shutdown` waiting for the link to leave `Up` (the drained goodbye).
    settled: Condvar,
    start: Instant,
    last_pong: Mutex<Instant>,
    stopping: AtomicBool,
    sink: Option<Arc<dyn TraceSink>>,
    metrics: Option<Arc<MetricsRegistry>>,
    /// Live wire epoch, mirrored for journal checkpoints: bumped on every
    /// reconnect, read (lock-free) each time a checkpoint is captured.
    epoch_watch: Arc<AtomicU32>,
    /// Client↔server clock offset, tightened by every probe.
    estimator: ClockEstimator,
    /// Sequence numbers for clock probes (handshake + heartbeats).
    probe_seq: AtomicU64,
}

impl ClientShared {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// The link state right now.
    fn link(&self) -> Link {
        lock(&self.state).link
    }

    /// Deterministic trace id for one wire query: a resumed session
    /// replays in-flight queries under the *same* ids, so the merged log
    /// stays exactly-once per trace. Never mints 0, which the analyzer's
    /// report renders as "no trace seen"; the wire itself carries any id.
    fn trace_id_for(&self, query_id: u64) -> u64 {
        let id = splitmix64(self.base_hello.session ^ splitmix64(query_id ^ 0x7261_6365)); // "race"
        if id == 0 {
            1
        } else {
            id
        }
    }

    /// Records one client-side instant span, stamped now, into the trace
    /// sink. With no sink it is a no-op that reads no clock.
    fn span_event(&self, trace_id: u64, query_id: u64, phase: &str) {
        if let Some(sink) = &self.sink {
            if sink.enabled() {
                sink.record(
                    self.now_ns(),
                    &TraceEvent::SpanEvent {
                        host: "client".to_string(),
                        trace_id,
                        query_id,
                        phase: phase.to_string(),
                        dur_ns: 0,
                    },
                );
            }
        }
    }

    /// Fires one clock probe at the server (best-effort).
    fn send_probe(&self) {
        let seq = self.probe_seq.fetch_add(1, Ordering::SeqCst);
        let _ = self.send(&Message::ClockProbe {
            seq,
            t0: self.now_ns(),
        });
    }

    fn wire_event(&self, kind: &str, query_id: u64, detail: &str) {
        if let Some(sink) = &self.sink {
            if sink.enabled() {
                sink.record(
                    self.now_ns(),
                    &TraceEvent::WireEvent {
                        endpoint: "client".to_string(),
                        kind: kind.to_string(),
                        query_id,
                        detail: detail.to_string(),
                    },
                );
            }
        }
    }

    fn incr(&self, name: &str) {
        if let Some(m) = &self.metrics {
            m.incr(name, 1);
        }
    }

    /// The start of an interval [`ClientShared::observe_since`] will
    /// observe: no registry, no clock read.
    fn stamp(&self) -> Option<Instant> {
        self.metrics.as_ref().map(|_| Instant::now())
    }

    fn observe_since(&self, name: &str, started: Option<Instant>) {
        if let (Some(m), Some(started)) = (&self.metrics, started) {
            m.observe(name, started.elapsed().as_nanos() as u64);
        }
    }

    fn observe(&self, name: &str, value: u64) {
        if let Some(m) = &self.metrics {
            m.observe(name, value);
        }
    }

    /// Marks the link terminally dead and wakes every blocked issuer with
    /// [`Reply::Failed`]. Idempotent; the first reason and kind win.
    fn fail(&self, reason: &str, kind: FailKind) {
        let mut st = lock(&self.state);
        if matches!(st.link, Link::Dead(_)) {
            return;
        }
        st.link = Link::Dead(kind);
        st.reason = reason.to_string();
        st.in_flight = 0;
        for (_, pending) in st.pending.drain() {
            pending.slot.fill(Reply::Failed(kind));
        }
        drop(st);
        self.window.notify_all();
        self.settled.notify_all();
        self.incr("wire_disconnects");
        if !self.stopping.load(Ordering::SeqCst) {
            self.wire_event("disconnect", 0, reason);
        }
    }

    /// Marks the link down (resume pending) and severs the current
    /// transport so the reader notices. Pending queries stay registered —
    /// the reconnect replays them. No-op unless the link is up.
    fn sever(&self, reason: &str) {
        {
            let mut st = lock(&self.state);
            if !matches!(st.link, Link::Up) {
                return;
            }
            st.link = Link::Down;
            st.reason = reason.to_string();
        }
        lock(&self.writer).shutdown();
        self.window.notify_all();
        self.incr("wire_severs");
        if !self.stopping.load(Ordering::SeqCst) {
            self.wire_event("sever", 0, reason);
        }
    }

    /// Whether a send/read failure should be handled by reconnecting
    /// rather than failing the run.
    fn resume_armed(&self) -> bool {
        self.config.resume.is_some() && !self.stopping.load(Ordering::SeqCst)
    }

    /// Encodes and sends one frame, timing the encode. A socket failure
    /// severs the link (resume armed) or fails the run; either way the
    /// caller may treat the send as best-effort, because a resumed link
    /// replays every pending query.
    fn send(&self, msg: &Message) -> Result<(), WireError> {
        let encode_started = self.stamp();
        let payload = msg.to_wire();
        self.observe_since("wire_encode_ns", encode_started);
        let result = lock(&self.writer).send(&payload);
        match result {
            Ok(()) => {
                self.incr("wire_frames_sent");
                Ok(())
            }
            Err(e) => {
                if !self.stopping.load(Ordering::SeqCst) {
                    if self.resume_armed() {
                        self.sever(&format!("send failed: {e}"));
                    } else {
                        // The frame never left; its fate (and that of every
                        // in-flight sibling) is unknown.
                        self.fail(&format!("send failed: {e}"), FailKind::Vanished);
                    }
                }
                Err(e)
            }
        }
    }
}

/// A freshly dialed, handshaken link: writer half, reader half, the peer
/// address, and the server's SUT name.
type DialedLink = (Box<dyn Transport>, Box<dyn Transport>, String, String);

/// Dials `addrs` in order and performs the handshake over the
/// (optionally chaos-wrapped) transport.
fn dial(
    addrs: &[SocketAddr],
    hello: &Hello,
    chaos: Option<&Arc<ChaosSession>>,
) -> Result<DialedLink, WireError> {
    let mut last_err = WireError::Disconnected("no addresses to dial".to_string());
    for addr in addrs {
        let stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => {
                last_err = e.into();
                continue;
            }
        };
        stream.set_nodelay(true)?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".to_string());
        let base: Box<dyn Transport> = Box::new(TcpTransport::new(stream));
        let mut transport = match chaos {
            Some(session) => session.wrap(base),
            None => base,
        };
        transport.send(&Message::Hello(hello.clone()).to_wire())?;
        let ack = Message::from_wire(&transport.recv()?)?;
        let (version, sut_name) = match ack {
            Message::HelloAck {
                version, sut_name, ..
            } => (version, sut_name),
            Message::Reject { reason } => return Err(WireError::Rejected(reason)),
            other => {
                return Err(WireError::Protocol(format!(
                    "expected HelloAck, got {}",
                    other.tag_name()
                )))
            }
        };
        if version != PROTOCOL_VERSION {
            return Err(WireError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: version,
            });
        }
        // The handle that read the `HelloAck` stays the reader: on a
        // resumed session a replayed `Completion` can arrive right behind
        // it, already read ahead into this handle and no other.
        let writer = transport.try_clone()?;
        return Ok((writer, transport, peer, sut_name));
    }
    Err(last_err)
}

/// A [`RealtimeSut`] whose machinery lives on the other end of a TCP
/// connection. See the module docs for the failure mapping.
pub struct RemoteSut {
    name: String,
    peer: String,
    shared: Arc<ClientShared>,
    reader: Mutex<Option<JoinHandle<()>>>,
    heartbeat: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for RemoteSut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteSut")
            .field("name", &self.name)
            .field("peer", &self.peer)
            .finish_non_exhaustive()
    }
}

impl RemoteSut {
    /// Connects and performs the handshake.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] if the TCP connect fails,
    /// [`WireError::VersionMismatch`] / [`WireError::Rejected`] if the
    /// server refuses the handshake, and [`WireError::Protocol`] if the
    /// server answers with anything but `HelloAck`/`Reject`.
    pub fn connect<A: ToSocketAddrs>(
        addr: A,
        hello: Hello,
        config: RemoteSutConfig,
    ) -> Result<Self, WireError> {
        Self::connect_instrumented(addr, hello, config, None, None)
    }

    /// [`RemoteSut::connect`], wiring trace events and wire histograms
    /// into the given sink and registry.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`RemoteSut::connect`].
    pub fn connect_instrumented<A: ToSocketAddrs>(
        addr: A,
        hello: Hello,
        config: RemoteSutConfig,
        sink: Option<Arc<dyn TraceSink>>,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> Result<Self, WireError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let mut hello = hello;
        hello.resume = config.resume.is_some() || config.initial_epoch > 0;
        hello.epoch = config.initial_epoch;
        let chaos = config
            .chaos
            .clone()
            .map(|plan| Arc::new(ChaosSession::new(plan, "client", sink.clone())));

        let (writer, reader_transport, peer, sut_name) = dial(&addrs, &hello, chaos.as_ref())?;
        let epoch0 = hello.epoch;

        let shared = Arc::new(ClientShared {
            config,
            addrs,
            base_hello: hello,
            writer: Mutex::new(writer),
            chaos,
            state: Mutex::new(ClientState {
                link: Link::Up,
                reason: String::new(),
                epoch: epoch0,
                in_flight: 0,
                window_waiters: 0,
                pending: HashMap::new(),
            }),
            window: Condvar::new(),
            settled: Condvar::new(),
            epoch_watch: Arc::new(AtomicU32::new(epoch0)),
            start: Instant::now(),
            last_pong: Mutex::new(Instant::now()),
            stopping: AtomicBool::new(false),
            sink,
            metrics,
            estimator: ClockEstimator::new(),
            probe_seq: AtomicU64::new(0),
        });
        shared.wire_event(
            "handshake",
            0,
            &format!("peer={peer} sut={sut_name} v{PROTOCOL_VERSION}"),
        );
        // First clock sample right away, so even a short run gets an
        // aligned axis; heartbeats keep tightening it.
        shared.send_probe();

        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("wire-reader".to_string())
                .spawn(move || reader_loop(&shared, reader_transport))
                .map_err(WireError::Io)?
        };
        let heartbeat = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("wire-heartbeat".to_string())
                .spawn(move || heartbeat_loop(&shared))
                .map_err(WireError::Io)?
        };

        Ok(RemoteSut {
            name: sut_name,
            peer,
            shared,
            reader: Mutex::new(Some(reader)),
            heartbeat: Mutex::new(Some(heartbeat)),
        })
    }

    /// Builds the handshake `Hello` for a run: scenario, seeds, and QSL
    /// size are negotiated up front so both ends agree on what the run is.
    /// The session id is a stable hash of those run parameters, so a
    /// reconnect resumes *this* run's journal and nothing else.
    pub fn hello_for(settings: &TestSettings, qsl_size: u64, config: &RemoteSutConfig) -> Hello {
        let session = splitmix64(
            settings.seeds.qsl_seed
                ^ splitmix64(settings.seeds.schedule_seed)
                ^ splitmix64(qsl_size ^ ((settings.scenario as u64) << 56)),
        );
        Hello {
            version: PROTOCOL_VERSION,
            scenario: settings.scenario,
            seeds: settings.seeds,
            qsl_size,
            max_in_flight: config.max_in_flight,
            session,
            epoch: 0,
            resume: config.resume.is_some(),
        }
    }

    /// The peer address this client connected to.
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// Live view of the wire epoch: starts at the handshake epoch and is
    /// bumped on every reconnect. Hand it to the run journal's
    /// `epoch_source` so each checkpoint records which epoch to resume at.
    pub fn epoch_source(&self) -> Arc<AtomicU32> {
        Arc::clone(&self.shared.epoch_watch)
    }

    /// The instant this client's span clock (and wire-event clock) starts
    /// at. Drive the run loop with the same origin and run events land on
    /// the same axis as the wire spans.
    pub fn clock_origin(&self) -> Instant {
        self.shared.start
    }

    /// Estimated `server_clock - client_clock` in nanoseconds, if at
    /// least one clock probe completed.
    pub fn clock_offset_ns(&self) -> Option<i64> {
        self.shared.estimator.offset_ns()
    }

    /// Worst-case error of [`RemoteSut::clock_offset_ns`] (half the best
    /// probe's RTT). Monotonically non-increasing over a run.
    pub fn clock_error_bound_ns(&self) -> Option<u64> {
        self.shared.estimator.error_bound_ns()
    }

    /// Whether the link is up (not reconnecting, not dead).
    pub fn is_connected(&self) -> bool {
        matches!(self.shared.link(), Link::Up)
    }

    /// Sends `Drain`, closes the socket, and joins the worker threads.
    /// Called by `Drop`; safe to call more than once.
    pub fn shutdown(&self) {
        if self.shared.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        if self.is_connected() {
            let _ = self.shared.send(&Message::Drain);
            self.shared.wire_event("drain", 0, "");
            // With a sink attached, the server ships its spans and a
            // goodbye after draining; wait (bounded) so the merged log
            // actually gets them before the socket closes.
            if self.shared.sink.is_some() {
                let deadline = Instant::now() + GOODBYE_WAIT;
                let mut st = lock(&self.shared.state);
                while matches!(st.link, Link::Up) && Instant::now() < deadline {
                    (st, _) = wait_timeout(&self.shared.settled, st, Duration::from_millis(20));
                }
            }
        }
        self.close("client shutdown", FailKind::Errored);
    }

    /// Severs the transport, fails the link, and joins the reader and
    /// heartbeat threads; `stopping` is already set. The heartbeat thread
    /// is unparked so it sees the flag now rather than at the end of its
    /// interval.
    fn close(&self, reason: &str, kind: FailKind) {
        let sever = || lock(&self.shared.writer).shutdown();
        sever();
        self.shared.fail(reason, kind);
        // A reconnect racing this close may have installed a fresh
        // transport after the sever above; the reconnect path re-checks
        // `stopping`/`Dead` before installing, so at most one extra sever
        // is needed.
        sever();
        if let Some(handle) = lock(&self.reader).take() {
            let _ = handle.join();
        }
        if let Some(handle) = lock(&self.heartbeat).take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }

    /// Severs the link *without* draining — the client-side analog of
    /// [`ServerHandle::kill`](crate::server::ServerHandle::kill),
    /// simulating this process dying mid-run. The server sees a dirty
    /// disconnect and keeps the session (and its durable journal, when
    /// configured) alive for a successor client to resume at a bumped
    /// epoch. Safe to call more than once; a later `Drop` is a no-op.
    pub fn abandon(&self) {
        if self.shared.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared
            .wire_event("abandon", 0, "severed without drain");
        self.close("client abandoned", FailKind::Vanished);
    }
}

impl Drop for RemoteSut {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl RealtimeSut for RemoteSut {
    fn name(&self) -> &str {
        &self.name
    }

    fn issue(&self, query: &Query) -> Vec<SampleCompletion> {
        self.issue_outcome(query).into_samples(query)
    }

    fn issue_outcome(&self, query: &Query) -> IssueOutcome {
        let shared = &self.shared;

        // Backpressure: wait for a slot in the in-flight window, then
        // register ourselves before the frame leaves so a fast reply
        // cannot race past the routing table. A `Down` link still admits
        // registrations — the reconnect replays them.
        let trace_id = shared.trace_id_for(query.id);
        let slot = Arc::new(ReplySlot::default());
        {
            let mut st = lock(&shared.state);
            loop {
                match st.link {
                    Link::Dead(kind) => return kind.outcome(),
                    _ if st.in_flight < shared.config.max_in_flight => break,
                    _ => {
                        st.window_waiters += 1;
                        st = wait(&shared.window, st);
                        st.window_waiters -= 1;
                    }
                }
            }
            st.in_flight += 1;
            st.pending.insert(
                query.id,
                Pending {
                    slot: Arc::clone(&slot),
                    sent_at: shared.stamp(),
                    query: query.clone(),
                    trace_id,
                },
            );
        }

        shared.span_event(trace_id, query.id, "issue");
        // Best-effort: a send failure severs or fails the link. Severed,
        // our pending entry survives and the resume replay re-sends it;
        // failed, `fail` already filled our slot.
        let _ = shared.send(&Message::IssueTraced {
            trace_id,
            query: query.clone(),
        });

        let timeout = shared.config.response_timeout;
        if let Some(reply) = slot.wait(timeout) {
            return reply.outcome();
        }
        let mut st = lock(&shared.state);
        if st.pending.remove(&query.id).is_some() {
            st.in_flight = st.in_flight.saturating_sub(1);
            drop(st);
            shared.window.notify_all();
            shared.incr("wire_timeouts");
            shared.wire_event(
                "response_timeout",
                query.id,
                "no completion frame within the response timeout",
            );
            return IssueOutcome::Vanished;
        }
        // The reply raced in between our timeout and taking the lock: the
        // reader has our entry, and fills the slot next.
        drop(st);
        slot.wait(timeout)
            .map_or(IssueOutcome::Errored, Reply::outcome)
    }
}

/// How a read error resolves the link when resume is off (or exhausted).
fn classify(e: &WireError) -> (String, FailKind) {
    match e {
        // An integrity or protocol failure proves the peer (or the path)
        // is actively garbling the run.
        WireError::Frame(fe) => (format!("corrupt frame: {fe}"), FailKind::Errored),
        WireError::Protocol(msg) => (format!("protocol error: {msg}"), FailKind::Errored),
        // EOF/reset: in-flight completions may or may not have resolved
        // remotely; their fate is unknown.
        other => (format!("read failed: {other}"), FailKind::Vanished),
    }
}

/// Reads frames until the link terminally dies, routing completions to
/// their blocked issuers, acks to the heartbeat monitor, and — with resume
/// armed — owning the reconnect loop.
fn reader_loop(shared: &Arc<ClientShared>, mut transport: Box<dyn Transport>) {
    loop {
        let decode_started = shared.stamp();
        let message = transport.recv().and_then(|payload| {
            let msg = Message::from_wire(&payload);
            shared.observe_since("wire_decode_ns", decode_started);
            msg
        });
        match message {
            Ok(Message::Completion {
                query_id,
                error,
                samples,
            }) => {
                shared.incr("wire_frames_received");
                // A completion is as good as a heartbeat ack for liveness.
                *lock(&shared.last_pong) = Instant::now();
                let (pending, slot_wanted) = {
                    let mut st = lock(&shared.state);
                    let pending = st.pending.remove(&query_id);
                    if pending.is_some() {
                        st.in_flight = st.in_flight.saturating_sub(1);
                    }
                    (pending, st.window_waiters > 0)
                };
                match pending {
                    Some(p) => {
                        // One slot came free: one parked issuer, if any.
                        if slot_wanted {
                            shared.window.notify_one();
                        }
                        shared.observe_since("wire_rtt_ns", p.sent_at);
                        shared.span_event(p.trace_id, query_id, "complete");
                        p.slot.fill(Reply::Completion { error, samples });
                    }
                    None => {
                        // Reply for a query we already resolved: a timeout,
                        // or a journal replay whose original made it
                        // through. Either way it must not count twice.
                        shared.incr("wire_orphan_completions");
                        shared.wire_event("orphan_completion", query_id, "already resolved");
                    }
                }
            }
            Ok(Message::HeartbeatAck { .. }) => {
                *lock(&shared.last_pong) = Instant::now();
            }
            Ok(Message::ClockProbeAck { seq: _, t0, t1, t2 }) => {
                // A probe ack is as good as a heartbeat ack for liveness.
                *lock(&shared.last_pong) = Instant::now();
                let sample = ClockSample {
                    t0,
                    t1,
                    t2,
                    t3: shared.now_ns(),
                };
                shared.incr("wire_clock_probes");
                if shared.estimator.observe(sample) {
                    shared.observe("wire_clock_rtt_ns", sample.rtt_ns());
                    if let Some(sink) = &shared.sink {
                        if sink.enabled() {
                            sink.record(
                                shared.now_ns(),
                                &TraceEvent::ClockSync {
                                    host: "server".to_string(),
                                    offset_ns: sample.offset_ns(),
                                    rtt_ns: sample.rtt_ns(),
                                },
                            );
                        }
                    }
                }
            }
            Ok(Message::Events { jsonl }) => {
                // The server shipping its spans at drain. Re-stamp each
                // record from the server clock onto ours using the offset
                // estimate, then merge into the local sink.
                match parse_detail_log(&jsonl) {
                    Ok(records) => {
                        shared.incr("wire_event_frames");
                        if let Some(sink) = &shared.sink {
                            for record in records {
                                if sink.enabled() {
                                    sink.record(
                                        shared.estimator.align_to_client(record.ts_ns),
                                        &record.event,
                                    );
                                }
                            }
                        }
                    }
                    Err(e) => {
                        shared.wire_event("bad_events_frame", 0, &format!("{e}"));
                    }
                }
            }
            Ok(Message::Goodbye { served }) => {
                shared.wire_event("goodbye", 0, &format!("served={served}"));
                shared.fail("server closed after drain", FailKind::Errored);
                return;
            }
            Ok(other) => {
                shared.fail(
                    &format!("unexpected message from server: {}", other.tag_name()),
                    FailKind::Errored,
                );
                return;
            }
            Err(e) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                let (reason, kind) = classify(&e);
                if let WireError::Frame(_) = e {
                    shared.incr("wire_crc_failures");
                    shared.wire_event("corrupt_frame", 0, &reason);
                }
                if matches!(shared.link(), Link::Dead(_)) {
                    return; // e.g. heartbeat loss already failed the run
                }
                let Some(policy) = shared.config.resume else {
                    shared.fail(&reason, kind);
                    return;
                };
                shared.sever(&reason);
                match reconnect(shared, policy) {
                    Some(new_reader) => {
                        transport = new_reader;
                        continue;
                    }
                    None => {
                        shared.fail(
                            &format!(
                                "resume failed after {} attempts: {reason}",
                                policy.max_attempts.max(1)
                            ),
                            kind,
                        );
                        return;
                    }
                }
            }
        }
        // During a shutdown drain the reader must keep going long enough
        // to absorb the server's shipped events and goodbye — those paths
        // return on their own. Bail here only once the link is settled.
        if shared.stopping.load(Ordering::SeqCst) && matches!(shared.link(), Link::Dead(_)) {
            return;
        }
    }
}

/// Redials with bounded backoff, re-handshakes at a bumped epoch, installs
/// the fresh transport, and replays every in-flight query. Returns the new
/// reader half, or `None` when the attempts are exhausted.
fn reconnect(shared: &Arc<ClientShared>, policy: ResumePolicy) -> Option<Box<dyn Transport>> {
    for attempt in 1..=policy.max_attempts.max(1) {
        if shared.stopping.load(Ordering::SeqCst) {
            return None;
        }
        std::thread::sleep(policy.backoff.saturating_mul(attempt));
        if shared.stopping.load(Ordering::SeqCst) {
            return None;
        }
        let hello = {
            let mut st = lock(&shared.state);
            st.epoch += 1;
            shared.epoch_watch.store(st.epoch, Ordering::SeqCst);
            let mut hello = shared.base_hello.clone();
            hello.epoch = st.epoch;
            hello.resume = true;
            hello
        };
        let (writer, reader, _peer, _name) =
            match dial(&shared.addrs, &hello, shared.chaos.as_ref()) {
                Ok(parts) => parts,
                Err(e) => {
                    shared.wire_event(
                        "resume_attempt_failed",
                        0,
                        &format!("epoch={} attempt={attempt}: {e}", hello.epoch),
                    );
                    continue;
                }
            };

        // Install atomically against shutdown/fail: once the link is Up
        // with the new writer in place, a later sever closes *this*
        // transport and nothing leaks.
        let replay = {
            let mut st = lock(&shared.state);
            if shared.stopping.load(Ordering::SeqCst) || matches!(st.link, Link::Dead(_)) {
                writer.shutdown();
                reader.shutdown();
                return None;
            }
            st.link = Link::Up;
            st.reason.clear();
            let mut queries: Vec<(Query, u64)> = st
                .pending
                .values()
                .map(|p| (p.query.clone(), p.trace_id))
                .collect();
            queries.sort_by_key(|(q, _)| q.id);
            *lock(&shared.writer) = writer;
            queries
        };
        *lock(&shared.last_pong) = Instant::now();
        shared.window.notify_all();
        shared.incr("wire_resumes");
        shared.wire_event(
            "resume",
            0,
            &format!(
                "epoch={} attempt={attempt} replaying {} in-flight",
                hello.epoch,
                replay.len()
            ),
        );
        // A fresh link means a fresh network path: re-probe the clock so
        // the estimate reflects it.
        shared.send_probe();
        // Replay the in-flight window under the *same* trace ids; the
        // server dedups by wire id, so a query that also made it out the
        // first time is served once and traced once.
        for (query, trace_id) in replay {
            if shared
                .send(&Message::IssueTraced { trace_id, query })
                .is_err()
            {
                break; // the new link died already; the reader will retry
            }
        }
        return Some(reader);
    }
    None
}

/// Pings the server every `heartbeat_interval`; a completion or ack
/// refreshes `last_pong`. `heartbeat_grace` of silence severs the link
/// (resume armed — the reader reconnects) or fails the run as errored, so
/// blocked issuers resolve instead of hanging.
fn heartbeat_loop(shared: &Arc<ClientShared>) {
    let mut seq: u64 = 0;
    loop {
        // Parked, not asleep: `RemoteSut::close` unparks this thread once
        // `stopping` is set, so a shutdown never waits out the interval.
        let wake_at = Instant::now() + shared.config.heartbeat_interval;
        loop {
            if shared.stopping.load(Ordering::SeqCst) {
                return;
            }
            let left = wake_at.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            std::thread::park_timeout(left);
        }
        match shared.link() {
            Link::Dead(_) => return,
            // Reconnecting: silence is expected; the resume resets the
            // pong clock.
            Link::Down => continue,
            Link::Up => {}
        }
        seq += 1;
        // Every heartbeat is a clock probe: the ack refreshes liveness
        // *and* can tighten the offset estimate.
        let ping = Message::ClockProbe {
            seq,
            t0: shared.now_ns(),
        };
        if shared.send(&ping).is_err() {
            continue; // sever/fail already handled by `send`
        }
        shared.incr("wire_heartbeats");
        let silence = lock(&shared.last_pong).elapsed();
        if silence > shared.config.heartbeat_grace {
            shared.wire_event(
                "heartbeat_loss",
                0,
                &format!("no ack for {} ms", silence.as_millis()),
            );
            if shared.resume_armed() {
                shared.sever("heartbeat loss");
            } else {
                // The peer is alive enough to hold the socket open but
                // not answering: that is misbehavior, not a vanish.
                shared.fail("heartbeat loss", FailKind::Errored);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};
    use mlperf_loadgen::query::QuerySample;
    use mlperf_loadgen::time::Nanos;
    use std::net::TcpListener;
    use std::sync::Barrier;

    fn query(id: u64) -> Query {
        Query {
            id,
            samples: vec![QuerySample { id, index: 0 }],
            scheduled_at: Nanos::ZERO,
            tenant: 0,
        }
    }

    /// Reads up to the next issue frame (past probes and heartbeats) and
    /// returns the completion that answers it.
    fn answer_to_next_issue(stream: &mut TcpStream) -> Message {
        loop {
            let frame = read_frame(stream).expect("a frame");
            if let Message::IssueTraced { query: q, .. } =
                Message::from_wire(&frame).expect("a message")
            {
                return Message::Completion {
                    query_id: q.id,
                    error: false,
                    samples: vec![SampleCompletion {
                        sample_id: q.id,
                        payload: Default::default(),
                    }],
                };
            }
        }
    }

    /// No lost wake-up between a completion and an issuer parked on a full
    /// window: nothing but that completion's notify can release it (the
    /// wait has no timeout), and the run of two queries finishes.
    #[test]
    fn a_completion_releases_an_issuer_parked_on_the_window() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let step = Arc::new(Barrier::new(2));
        let config = RemoteSutConfig {
            max_in_flight: 1,
            response_timeout: Duration::from_secs(60),
            ..RemoteSutConfig::default()
        };
        let hello = RemoteSut::hello_for(&TestSettings::single_stream(), 8, &config);

        let server = {
            let step = Arc::clone(&step);
            std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().expect("accept");
                let _hello = read_frame(&mut stream).expect("hello frame");
                let ack = Message::HelloAck {
                    version: PROTOCOL_VERSION,
                    sut_name: "hand-rolled".to_string(),
                    max_in_flight: 1,
                };
                write_frame(&mut stream, &ack.to_wire()).expect("ack");
                let first = answer_to_next_issue(&mut stream);
                step.wait(); // query 1 is in flight
                step.wait(); // ...and query 2's issuer is parked behind it
                write_frame(&mut stream, &first.to_wire()).expect("completion 1");
                let second = answer_to_next_issue(&mut stream);
                write_frame(&mut stream, &second.to_wire()).expect("completion 2");
                while read_frame(&mut stream).is_ok() {}
            })
        };

        let client = RemoteSut::connect(addr, hello, config).expect("handshake");
        let issue = |id: u64| {
            let outcome = client.issue_outcome(&query(id));
            assert!(matches!(outcome, IssueOutcome::Completed(_)), "{outcome:?}");
        };
        std::thread::scope(|scope| {
            scope.spawn(|| issue(1));
            step.wait();
            scope.spawn(|| issue(2));
            // Counted under the lock it then waits on: once the count
            // reads 1 the issuer is parked, or will be before the reader
            // thread can take the lock to retire query 1.
            let parked = || client.shared.state.lock().unwrap().window_waiters;
            while parked() == 0 {
                std::thread::yield_now();
            }
            step.wait();
        });
        client.shutdown();
        server.join().expect("hand-rolled server");
    }
}
