//! The LoadGen-side endpoint: [`RemoteSut`].
//!
//! `RemoteSut` implements [`RealtimeSut`], so `Run::wall_clock` drives a
//! machine on the other end of a TCP connection exactly as it drives an
//! in-process SUT. Its link decisions — the bounded in-flight window, the
//! pending table, heartbeat grace, sever or fail, the resume replay — are
//! `protocol::ClientCore`'s. This module is the threads that feed the core
//! and carry out what it decides: issuers blocked on their replies; a
//! reader routing completion frames and, with a [`ResumePolicy`] armed,
//! redialing a severed link at a bumped epoch and replaying the in-flight
//! window (the server's completion journal dedups by wire id); and a
//! heartbeat that probes for a silently dead peer.
//!
//! The failure mapping, which the validity rules lean on: a corrupt frame,
//! a protocol violation or heartbeat loss is [`IssueOutcome::Errored`] —
//! the link was alive enough to prove the peer misbehaved, and
//! `ErrorFractionExceeded` sees it; a disconnect without resume, resume
//! exhausted, or a response timeout is [`IssueOutcome::Vanished`] — the
//! query stays outstanding for `IncompleteQueries` and TEST06, because its
//! fate is unknown and "errored" would fabricate a resolution. No path can
//! hang the run.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
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
use crate::protocol::{classify, Admit, ClientCore, FailKind, Lost, Tick};
use crate::transport::{ChaosSession, TcpTransport, Transport, WireChaosPlan};
use crate::WireLog;

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

/// One query's reply on its way from the reader thread to the issuer
/// blocked on it: filled once, taken once.
#[derive(Default)]
struct ReplySlot {
    outcome: Mutex<Option<IssueOutcome>>,
    filled: Condvar,
}

impl ReplySlot {
    fn fill(&self, outcome: IssueOutcome) {
        *lock(&self.outcome) = Some(outcome);
        self.filled.notify_one();
    }

    /// The outcome, or `None` when `timeout` passes without one.
    fn wait(&self, timeout: Duration) -> Option<IssueOutcome> {
        let (mut outcome, _timed_out) =
            wait_timeout_while(&self.filled, lock(&self.outcome), timeout, |outcome| {
                outcome.is_none()
            });
        outcome.take()
    }
}

struct ClientShared {
    config: RemoteSutConfig,
    addrs: Vec<SocketAddr>,
    base_hello: Hello,
    writer: Mutex<Box<dyn Transport>>,
    chaos: Option<Arc<ChaosSession>>,
    /// Every link decision (`protocol::ClientCore`).
    state: Mutex<ClientCore<Arc<ReplySlot>>>,
    /// Issuers waiting for a slot in the in-flight window.
    window: Condvar,
    /// `shutdown` waiting for the link to leave `Up` (the drained goodbye).
    settled: Condvar,
    log: WireLog,
    stopping: AtomicBool,
    metrics: Option<Arc<MetricsRegistry>>,
    /// Live wire epoch, mirrored for journal checkpoints: bumped on every
    /// reconnect, read (lock-free) each time a checkpoint is captured.
    epoch_watch: Arc<AtomicU32>,
    /// Client↔server clock offset, tightened by every probe.
    estimator: ClockEstimator,
}

impl ClientShared {
    /// Deterministic trace id for one wire query: a resumed session
    /// replays in-flight queries under the *same* ids, so the merged log
    /// stays exactly-once per trace. Never mints 0, which the analyzer's
    /// report renders as "no trace seen"; the wire itself carries any id.
    /// The salt is ASCII "race".
    fn trace_id_for(&self, query_id: u64) -> u64 {
        splitmix64(self.base_hello.session ^ splitmix64(query_id ^ 0x7261_6365)).max(1)
    }

    /// Records one client-side instant span, stamped now, into the trace
    /// sink. With no sink it is a no-op that reads no clock.
    fn span_event(&self, trace_id: u64, query_id: u64, phase: &str) {
        self.log.record(|| TraceEvent::SpanEvent {
            host: "client".to_string(),
            trace_id,
            query_id,
            phase: phase.to_string(),
            dur_ns: 0,
        });
    }

    /// Fires one clock probe at the server (best-effort).
    fn send_probe(&self) {
        let seq = lock(&self.state).probe();
        let _ = self.send(&Message::ClockProbe {
            seq,
            t0: self.log.now_ns(),
        });
    }

    fn incr(&self, name: &str) {
        if let Some(m) = &self.metrics {
            m.incr(name, 1);
        }
    }

    /// Now on the span clock, as the start of an interval the registry
    /// will observe: no registry, no clock read.
    fn stamp(&self) -> Option<u64> {
        self.metrics.as_ref().map(|_| self.log.now_ns())
    }

    fn observe_since(&self, name: &str, started: Option<u64>) {
        if let (Some(m), Some(started)) = (&self.metrics, started) {
            m.observe(name, self.log.now_ns().saturating_sub(started));
        }
    }

    fn observe(&self, name: &str, value: u64) {
        if let Some(m) = &self.metrics {
            m.observe(name, value);
        }
    }

    /// Carries out what losing the link decided: a sever shuts the
    /// transport so the reader notices (pending queries stay registered;
    /// the reconnect replays them), a failure resolves every waiter and
    /// wakes everyone who watches the link.
    fn settle(&self, lost: Lost<Arc<ReplySlot>>, reason: &str) {
        let kind = match lost {
            Lost::Dead | Lost::Down { severed: false } => return,
            Lost::Down { severed: true } => {
                lock(&self.writer).shutdown();
                self.window.notify_all();
                self.incr("wire_severs");
                "sever"
            }
            Lost::Failed(kind, waiters) => {
                for waiter in waiters {
                    waiter.fill(kind.outcome());
                }
                self.window.notify_all();
                self.settled.notify_all();
                self.incr("wire_disconnects");
                "disconnect"
            }
        };
        if !self.stopping.load(Ordering::SeqCst) {
            self.log.wire_event(kind, 0, reason);
        }
    }

    /// Fails the link, whatever resume says. Idempotent; the first reason
    /// and kind win.
    fn fail(&self, reason: &str, kind: FailKind) {
        let lost = lock(&self.state).fail(kind);
        self.settle(lost, reason);
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
                    // The frame never left; its fate (and that of every
                    // in-flight sibling) is unknown.
                    let lost = lock(&self.state).lose(FailKind::Vanished);
                    self.settle(lost, &format!("send failed: {e}"));
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
    let (tcp, peer) = TcpTransport::dial(addrs.iter().copied())?;
    let base: Box<dyn Transport> = Box::new(tcp);
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
    // The handle that read the `HelloAck` stays the reader: on a resumed
    // session a replayed `Completion` can arrive right behind it, already
    // read ahead into this handle and no other.
    let writer = transport.try_clone()?;
    Ok((writer, transport, peer, sut_name))
}

/// A [`RealtimeSut`] whose machinery lives on the other end of a TCP
/// connection. See the module docs for the failure mapping.
pub struct RemoteSut {
    name: String,
    peer: String,
    shared: Arc<ClientShared>,
    /// The reader, then the heartbeat.
    threads: Mutex<Vec<JoinHandle<()>>>,
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
        let shared = Arc::new(ClientShared {
            epoch_watch: Arc::new(AtomicU32::new(hello.epoch)),
            state: Mutex::new(ClientCore::new(hello.epoch, &config)),
            config,
            addrs,
            base_hello: hello,
            writer: Mutex::new(writer),
            chaos,
            window: Condvar::new(),
            settled: Condvar::new(),
            log: WireLog::new("client", sink),
            stopping: AtomicBool::new(false),
            metrics,
            estimator: ClockEstimator::new(),
        });
        shared.log.wire_event(
            "handshake",
            0,
            &format!("peer={peer} sut={sut_name} v{PROTOCOL_VERSION}"),
        );
        // First clock sample right away, so even a short run gets an
        // aligned axis; heartbeats keep tightening it.
        shared.send_probe();

        let reading = Arc::clone(&shared);
        let reader = std::thread::Builder::new()
            .name("wire-reader".to_string())
            .spawn(move || reader_loop(&reading, reader_transport))?;
        let beating = Arc::clone(&shared);
        let heartbeat = std::thread::Builder::new()
            .name("wire-heartbeat".to_string())
            .spawn(move || heartbeat_loop(&beating))?;
        Ok(RemoteSut {
            name: sut_name,
            peer,
            shared,
            threads: Mutex::new(vec![reader, heartbeat]),
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
        self.shared.log.start
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
        lock(&self.shared.state).is_up()
    }

    /// Sends `Drain`, closes the socket, and joins the worker threads.
    /// Called by `Drop`; safe to call more than once.
    pub fn shutdown(&self) {
        if !self.stop() {
            return;
        }
        if self.is_connected() {
            let _ = self.shared.send(&Message::Drain);
            self.shared.log.wire_event("drain", 0, "");
            // With a sink attached, the server ships its spans and a
            // goodbye after draining; wait (bounded) so the merged log
            // actually gets them before the socket closes.
            if self.shared.log.sink.is_some() {
                let deadline = Instant::now() + GOODBYE_WAIT;
                let mut st = lock(&self.shared.state);
                while st.is_up() && Instant::now() < deadline {
                    (st, _) = wait_timeout(&self.shared.settled, st, Duration::from_millis(20));
                }
            }
        }
        self.close("client shutdown", FailKind::Errored);
    }

    /// Marks the client stopping, once (`false` if it already was): from
    /// now on a lost link fails rather than waiting on a redial.
    fn stop(&self) -> bool {
        let first = !self.shared.stopping.swap(true, Ordering::SeqCst);
        if first {
            lock(&self.shared.state).stop();
        }
        first
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
        for handle in std::mem::take(&mut *lock(&self.threads)) {
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
        if !self.stop() {
            return;
        }
        self.shared
            .log
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

        // Backpressure: wait for a slot in the in-flight window; the core
        // registers the query before its frame leaves.
        let trace_id = shared.trace_id_for(query.id);
        let slot = Arc::new(ReplySlot::default());
        {
            let mut st = lock(&shared.state);
            loop {
                match st.issue(shared.stamp(), query, trace_id, &slot) {
                    Admit::Send => break,
                    Admit::Refuse(kind) => return kind.outcome(),
                    Admit::Wait => {
                        st = wait(&shared.window, st);
                        st.unpark_issuer();
                    }
                }
            }
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
        if let Some(outcome) = slot.wait(timeout) {
            return outcome;
        }
        let timed_out = lock(&shared.state).time_out(query.id);
        if let Some(outcome) = timed_out {
            shared.window.notify_all();
            shared.incr("wire_timeouts");
            shared.log.wire_event(
                "response_timeout",
                query.id,
                "no completion frame within the response timeout",
            );
            return outcome;
        }
        // The reply raced in between our timeout and taking the lock: the
        // reader has our entry, and fills the slot next.
        slot.wait(timeout).unwrap_or(IssueOutcome::Errored)
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
                let resolved =
                    lock(&shared.state).complete(shared.log.now_ns(), query_id, error, samples);
                match resolved {
                    Some(r) => {
                        // One slot came free: one parked issuer, if any.
                        if r.wake_issuer {
                            shared.window.notify_one();
                        }
                        if let Some(rtt_ns) = r.rtt_ns {
                            shared.observe("wire_rtt_ns", rtt_ns);
                        }
                        shared.span_event(r.trace_id, query_id, "complete");
                        r.waiter.fill(r.outcome);
                    }
                    None => {
                        shared.incr("wire_orphan_completions");
                        shared
                            .log
                            .wire_event("orphan_completion", query_id, "already resolved");
                    }
                }
            }
            Ok(Message::HeartbeatAck { .. }) => lock(&shared.state).heard(shared.log.now_ns()),
            Ok(Message::ClockProbeAck { seq: _, t0, t1, t2 }) => {
                let t3 = shared.log.now_ns();
                lock(&shared.state).heard(t3);
                let sample = ClockSample { t0, t1, t2, t3 };
                shared.incr("wire_clock_probes");
                if shared.estimator.observe(sample) {
                    shared.observe("wire_clock_rtt_ns", sample.rtt_ns());
                    shared.log.record(|| TraceEvent::ClockSync {
                        host: "server".to_string(),
                        offset_ns: sample.offset_ns(),
                        rtt_ns: sample.rtt_ns(),
                    });
                }
            }
            Ok(Message::Events { jsonl }) => {
                // The server shipping its spans at drain. Re-stamp each
                // record from the server clock onto ours using the offset
                // estimate, then merge into the local sink.
                match parse_detail_log(&jsonl) {
                    Ok(records) => {
                        shared.incr("wire_event_frames");
                        if let Some(sink) = &shared.log.sink {
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
                        shared
                            .log
                            .wire_event("bad_events_frame", 0, &format!("{e}"));
                    }
                }
            }
            Ok(Message::Goodbye { served }) => {
                shared
                    .log
                    .wire_event("goodbye", 0, &format!("served={served}"));
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
                    shared.log.wire_event("corrupt_frame", 0, &reason);
                }
                // Dead already (e.g. heartbeat loss failed the run), dead
                // now (no resume), or down for the redial below.
                let lost = lock(&shared.state).lose(kind);
                let redial = matches!(lost, Lost::Down { .. });
                shared.settle(lost, &reason);
                let Some(policy) = shared.config.resume.filter(|_| redial) else {
                    return;
                };
                match reconnect(shared, policy) {
                    Some(new_reader) => transport = new_reader,
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
        // return on their own. Bail here only once the link is not up (a
        // stopping client redials nothing).
        if shared.stopping.load(Ordering::SeqCst) && !lock(&shared.state).is_up() {
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
        let mut hello = shared.base_hello.clone();
        hello.epoch = lock(&shared.state).redial();
        hello.resume = true;
        shared.epoch_watch.store(hello.epoch, Ordering::SeqCst);
        let (writer, reader, _peer, _name) =
            match dial(&shared.addrs, &hello, shared.chaos.as_ref()) {
                Ok(parts) => parts,
                Err(e) => {
                    shared.log.wire_event(
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
            let replay = if shared.stopping.load(Ordering::SeqCst) {
                None
            } else {
                st.resumed(shared.log.now_ns())
            };
            let Some(replay) = replay else {
                writer.shutdown();
                reader.shutdown();
                return None;
            };
            *lock(&shared.writer) = writer;
            replay
        };
        shared.window.notify_all();
        shared.incr("wire_resumes");
        shared.log.wire_event(
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
/// refreshes the core's last-heard time. `heartbeat_grace` of silence
/// severs the link (resume armed — the reader reconnects) or fails the run
/// as errored, so blocked issuers resolve instead of hanging.
fn heartbeat_loop(shared: &Arc<ClientShared>) {
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
        let seq = match lock(&shared.state).tick() {
            Tick::Stop => return,
            Tick::Skip => continue,
            Tick::Probe(seq) => seq,
        };
        // Every heartbeat is a clock probe: the ack refreshes liveness
        // *and* can tighten the offset estimate.
        let ping = Message::ClockProbe {
            seq,
            t0: shared.log.now_ns(),
        };
        if shared.send(&ping).is_err() {
            continue; // sever/fail already handled by `send`
        }
        shared.incr("wire_heartbeats");
        let judged = lock(&shared.state).judge(shared.log.now_ns());
        if let Some((silence_ns, lost)) = judged {
            shared.log.wire_event(
                "heartbeat_loss",
                0,
                &format!("no ack for {} ms", silence_ns / 1_000_000),
            );
            shared.settle(lost, "heartbeat loss");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};
    use mlperf_loadgen::query::QuerySample;
    use mlperf_loadgen::time::Nanos;
    use std::net::{TcpListener, TcpStream};
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
