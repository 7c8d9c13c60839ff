//! The LoadGen-side endpoint: [`RemoteSut`].
//!
//! `RemoteSut` implements [`RealtimeSut`], so `Run::wall_clock` drives a
//! machine on the other end of a TCP connection exactly as it drives an
//! in-process SUT. Its link decisions — the bounded in-flight window, the
//! pending table, heartbeat grace, sever or fail, the resume replay, and
//! who reads the link — are `protocol::ClientCore`'s. This module is the
//! threads that feed the core and carry out what it decides: the issuers,
//! and one heartbeat that probes for a silently dead peer.
//!
//! Reading is a role, not a thread (leader/follower). An issuer admitted
//! while nobody reads sends its query and reads the socket itself; while it
//! reads it routes every frame — other issuers' completions, acks, shipped
//! events, the goodbye — and, with a [`ResumePolicy`] armed, redials a
//! severed link at a bumped epoch and replays the in-flight window (the
//! server's completion journal dedups by wire id). It gives the role up as
//! soon as its own outcome is known, and the core promotes the lowest
//! still-pending waiter to read next. A closed loop's round trip is thus
//! issuer → daemon → issuer, with no client thread in between. Reads time
//! out every heartbeat interval, so a holder wakes to judge the link and
//! its own response deadline; an idle link is read by the heartbeat after
//! its probe, and `shutdown` reads for the drained goodbye.
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
use crate::protocol::{classify, Admit, ClientCore, FailKind, Lost, Reader, Tick};
use crate::transport::{ChaosSession, TcpTransport, Transport, WireChaosPlan};
use crate::WireLog;

/// How long [`RemoteSut::shutdown`] reads for the server's drained
/// goodbye (and the event shipment that precedes it) before closing the
/// socket regardless — checked between reads, so up to one heartbeat
/// interval more on a silent link. Only applies with a trace sink attached.
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
    /// the query vanished. An issuer reading the link checks it between
    /// reads, so to within one heartbeat interval.
    pub(crate) response_timeout: Duration,
    /// Interval between heartbeat frames, and the read half's timeout:
    /// whoever reads the link wakes at least this often to judge it.
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

/// What a waiting issuer is handed: its query's outcome, or the read role.
enum Reply {
    Outcome(IssueOutcome),
    /// "You read next": the previous holder gave the role up.
    Read,
}

/// One waiting issuer's mailbox, filled by whoever holds the read role (or
/// fails the link) and taken by the issuer.
#[derive(Default)]
struct ReplySlot {
    reply: Mutex<Option<Reply>>,
    filled: Condvar,
}

impl ReplySlot {
    /// An outcome always lands; the role never displaces an outcome, which
    /// a failing link may have delivered first.
    fn fill(&self, reply: Reply) {
        let mut slot = lock(&self.reply);
        if matches!(reply, Reply::Outcome(_)) || slot.is_none() {
            *slot = Some(reply);
            drop(slot);
            self.filled.notify_one();
        }
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

/// What a holder of the read role reads for, and so when it gives it up.
#[derive(Clone, Copy)]
enum Until {
    /// An issuer: its own reply, by its response deadline.
    Reply { query_id: u64, deadline: Instant },
    /// The heartbeat: the ack of its probe (or a later one), or one
    /// interval of silence.
    Ack(u64),
    /// `shutdown`: the drained goodbye taking the link down, or the
    /// deadline.
    Goodbye(Instant),
}

/// A read that found nothing within the heartbeat interval (the read
/// half's timeout): a tick, never a loss by itself.
fn timed_out(e: &WireError) -> bool {
    matches!(e, WireError::Io(io) if matches!(
        io.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    ))
}

struct ClientShared {
    config: RemoteSutConfig,
    addrs: Vec<SocketAddr>,
    base_hello: Hello,
    writer: Mutex<Box<dyn Transport>>,
    /// The read half. Only the read role's holder takes this lock, so it
    /// waits at most for the previous holder to finish returning.
    reader: Mutex<Box<dyn Transport>>,
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
    /// transport so the read role's holder notices (pending queries stay
    /// registered; its reconnect replays them), a failure resolves every
    /// waiter and wakes everyone who watches the link.
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
                    waiter.fill(Reply::Outcome(kind.outcome()));
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

    /// Judges the link's silence now: past the heartbeat grace it is a
    /// `heartbeat_loss`, logged and then settled as the core decided.
    fn judge(&self) {
        let judged = lock(&self.state).judge(self.log.now_ns());
        if let Some((silence_ns, lost)) = judged {
            self.log.wire_event(
                "heartbeat_loss",
                0,
                &format!("no ack for {} ms", silence_ns / 1_000_000),
            );
            self.settle(lost, "heartbeat loss");
        }
    }

    /// An issuer's response timeout passed: the query vanishes unless its
    /// reply was routed meanwhile (`None`). A holder that timed out hands
    /// the role on: the second value is who reads next.
    fn time_out(&self, query_id: u64) -> Option<(IssueOutcome, Option<Arc<ReplySlot>>)> {
        let timed_out = lock(&self.state).time_out(query_id)?;
        self.window.notify_all();
        self.incr("wire_timeouts");
        self.log.wire_event(
            "response_timeout",
            query_id,
            "no completion frame within the response timeout",
        );
        Some(timed_out)
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
/// (optionally chaos-wrapped) transport. Reads on the link time out every
/// `tick` (the heartbeat interval), so whoever holds the read role wakes
/// to judge the link; the handshake reads through those ticks.
fn dial(
    addrs: &[SocketAddr],
    hello: &Hello,
    chaos: Option<&Arc<ChaosSession>>,
    tick: Duration,
) -> Result<DialedLink, WireError> {
    let (tcp, peer) = TcpTransport::dial(addrs.iter().copied())?;
    tcp.set_read_timeout(tick)?;
    let base: Box<dyn Transport> = Box::new(tcp);
    let mut transport = match chaos {
        Some(session) => session.wrap(base),
        None => base,
    };
    transport.send(&Message::Hello(hello.clone()).to_wire())?;
    let ack = loop {
        match transport.recv() {
            Err(e) if timed_out(&e) => {}
            frame => break Message::from_wire(&frame?)?,
        }
    };
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
    // The handle that read the `HelloAck` stays the read half: on a resumed
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
    /// The one thread a client spawns: the heartbeat. Reading is a role
    /// the issuers, the heartbeat and `shutdown` take in turn.
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

        let tick = config.heartbeat_interval;
        let (writer, reader, peer, sut_name) = dial(&addrs, &hello, chaos.as_ref(), tick)?;
        let shared = Arc::new(ClientShared {
            epoch_watch: Arc::new(AtomicU32::new(hello.epoch)),
            state: Mutex::new(ClientCore::new(hello.epoch, &config)),
            config,
            addrs,
            base_hello: hello,
            writer: Mutex::new(writer),
            reader: Mutex::new(reader),
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

        let beating = Arc::clone(&shared);
        let heartbeat = std::thread::Builder::new()
            .name("wire-heartbeat".to_string())
            .spawn(move || heartbeat_loop(&beating))?;
        Ok(RemoteSut {
            name: sut_name,
            peer,
            shared,
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

    /// Sends `Drain`, closes the socket, and joins the heartbeat thread,
    /// the client's one thread.
    /// Called by `Drop`; safe to call more than once.
    pub fn shutdown(&self) {
        if !self.stop() {
            return;
        }
        if self.is_connected() {
            let _ = self.shared.send(&Message::Drain);
            self.shared.log.wire_event("drain", 0, "");
            // With a sink attached, the server ships its spans and a
            // goodbye after draining; read for them (bounded) so the merged
            // log actually gets them before the socket closes. Whoever
            // holds the read role meanwhile routes them instead.
            if self.shared.log.sink.is_some() {
                let deadline = Instant::now() + GOODBYE_WAIT;
                loop {
                    let mut st = lock(&self.shared.state);
                    if !st.is_up() || Instant::now() >= deadline {
                        break;
                    }
                    if st.claim() {
                        drop(st);
                        hold(&self.shared, Until::Goodbye(deadline));
                    } else {
                        let _ = wait_timeout(&self.shared.settled, st, Duration::from_millis(20));
                    }
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

    /// Severs the transport, fails the link, and joins the heartbeat
    /// thread; `stopping` is already set. The heartbeat thread is unparked
    /// so it sees the flag now rather than at the end of its interval, and
    /// the sever wakes whoever is reading.
    fn close(&self, reason: &str, kind: FailKind) {
        let sever = || lock(&self.shared.writer).shutdown();
        sever();
        self.shared.fail(reason, kind);
        // A reconnect racing this close may have installed a fresh
        // transport after the sever above; the reconnect path re-checks
        // `stopping`/`Dead` before installing, so at most one extra sever
        // is needed.
        sever();
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
        // registers the query before its frame leaves, and says whether
        // this issuer now reads the link.
        let trace_id = shared.trace_id_for(query.id);
        let slot = Arc::new(ReplySlot::default());
        let mut read = {
            let mut st = lock(&shared.state);
            loop {
                match st.issue(shared.stamp(), query, trace_id, &slot) {
                    Admit::Send { read } => break read,
                    Admit::Refuse(kind) => return kind.outcome(),
                    Admit::Wait => {
                        st = wait(&shared.window, st);
                        st.unpark_issuer();
                    }
                }
            }
        };

        shared.span_event(trace_id, query.id, "issue");
        // Best-effort: a send failure severs or fails the link. Severed,
        // our pending entry survives and the resume replay re-sends it;
        // failed, `fail` already filled our slot.
        let _ = shared.send(&Message::IssueTraced {
            trace_id,
            query: query.clone(),
        });

        let timeout = shared.config.response_timeout;
        let deadline = Instant::now() + timeout;
        let until = Until::Reply {
            query_id: query.id,
            deadline,
        };
        loop {
            if read {
                if let Some(outcome) = hold(shared, until) {
                    return outcome;
                }
                // The link died under us: `fail` fills our slot.
            }
            let left = deadline.saturating_duration_since(Instant::now());
            match slot.wait(left) {
                Some(Reply::Outcome(outcome)) => return outcome,
                Some(Reply::Read) => read = true,
                None => {
                    if let Some((outcome, promoted)) = shared.time_out(query.id) {
                        if let Some(next) = promoted {
                            next.fill(Reply::Read);
                        }
                        return outcome;
                    }
                    // The reply raced in between our timeout and taking the
                    // lock: the holder has our entry, and fills the slot
                    // next.
                    return match slot.wait(timeout) {
                        Some(Reply::Outcome(outcome)) => outcome,
                        _ => IssueOutcome::Errored,
                    };
                }
            }
        }
    }
}

/// Holds the read role — granted by the core to an issuer, the heartbeat or
/// `shutdown` — and reads the link for `until`. Returns an issuer's own
/// outcome when it read it (or timed out) itself; `None` when the link's
/// death took the role away, or the heartbeat's or `shutdown`'s read
/// ended. The waiter promoted
/// on the way out is woken once the read half is unlocked.
fn hold(shared: &ClientShared, until: Until) -> Option<IssueOutcome> {
    let mut half = lock(&shared.reader);
    let (outcome, promoted) = read_link(shared, &mut half, until);
    drop(half);
    if let Some(next) = promoted {
        next.fill(Reply::Read);
    }
    outcome
}

/// The holder's loop: routes every frame — completions to their waiters
/// (exactly once; a second copy is an orphan), acks to the liveness clock
/// and the clock estimator, shipped events into the sink, the goodbye and
/// any protocol violation into a failed link — and, with resume armed,
/// redials a lost link and reads on at the new epoch. A read that times
/// out is a tick: judge the link, and the holder's own deadline. Returns
/// the holder's own outcome, if it learned it, and who was promoted.
fn read_link(
    shared: &ClientShared,
    half: &mut Box<dyn Transport>,
    until: Until,
) -> (Option<IssueOutcome>, Option<Arc<ReplySlot>>) {
    let me = match until {
        Until::Reply { query_id, .. } => Reader::Issuer(query_id),
        Until::Ack(_) | Until::Goodbye(_) => Reader::Watch,
    };
    loop {
        let decode_started = shared.stamp();
        let message = half.recv().and_then(|payload| {
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
                        if me == Reader::Issuer(query_id) {
                            return (Some(r.outcome), r.promoted);
                        }
                        r.waiter.fill(Reply::Outcome(r.outcome));
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
            Ok(Message::ClockProbeAck { seq, t0, t1, t2 }) => {
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
                if matches!(until, Until::Ack(probe) if seq >= probe) {
                    return (None, lock(&shared.state).release());
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
                return (None, None);
            }
            Ok(other) => {
                shared.fail(
                    &format!("unexpected message from server: {}", other.tag_name()),
                    FailKind::Errored,
                );
                return (None, None);
            }
            Err(e) if timed_out(&e) => {
                shared.judge();
                if let Until::Ack(_) = until {
                    // One interval without the ack: the next tick probes
                    // (and judges) again. A link the judgement just took
                    // down is read on, so its redial starts now.
                    let mut st = lock(&shared.state);
                    if st.is_up() {
                        return (None, st.release());
                    }
                }
            }
            Err(e) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    // `close` severed the link, and fails it as it says.
                    return (None, None);
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
                    return (None, None);
                };
                match reconnect(shared, policy) {
                    Some(new_reader) => *half = new_reader,
                    None => {
                        shared.fail(
                            &format!(
                                "resume failed after {} attempts: {reason}",
                                policy.max_attempts.max(1)
                            ),
                            kind,
                        );
                        return (None, None);
                    }
                }
            }
        }
        // Every frame but the holder's own reply, and every tick, ends
        // here: read on only while the role is still ours and its purpose
        // unmet.
        let mut st = lock(&shared.state);
        if !st.holds(me) {
            return (None, None);
        }
        match until {
            Until::Reply { query_id, deadline } if Instant::now() >= deadline => {
                drop(st);
                return match shared.time_out(query_id) {
                    Some((outcome, promoted)) => (Some(outcome), promoted),
                    None => (None, None),
                };
            }
            Until::Goodbye(deadline) if !st.is_up() || Instant::now() >= deadline => {
                return (None, st.release());
            }
            _ => {}
        }
    }
}

/// Redials with bounded backoff, re-handshakes at a bumped epoch, installs
/// the fresh writer half, and replays every in-flight query. Returns the
/// new read half for the role's holder, or `None` when the attempts are
/// exhausted.
fn reconnect(shared: &ClientShared, policy: ResumePolicy) -> Option<Box<dyn Transport>> {
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
        let (writer, reader, _peer, _name) = match dial(
            &shared.addrs,
            &hello,
            shared.chaos.as_ref(),
            shared.config.heartbeat_interval,
        ) {
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
                break; // the new link died already; the holder will retry
            }
        }
        return Some(reader);
    }
    None
}

/// Pings the server every `heartbeat_interval`; a completion or ack
/// refreshes the core's last-heard time. `heartbeat_grace` of silence
/// severs the link (resume armed — the read role's holder reconnects) or
/// fails the run as errored, so blocked issuers resolve instead of hanging.
/// A link nobody reads is read here, after the probe, until its ack.
fn heartbeat_loop(shared: &ClientShared) {
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
        let (seq, read) = match lock(&shared.state).tick() {
            Tick::Stop => return,
            Tick::Skip => continue,
            Tick::Probe { seq, read } => (seq, read),
        };
        // Every heartbeat is a clock probe: the ack refreshes liveness
        // *and* can tighten the offset estimate.
        let ping = Message::ClockProbe {
            seq,
            t0: shared.log.now_ns(),
        };
        // A failed send severed or failed the link already.
        if shared.send(&ping).is_ok() {
            shared.incr("wire_heartbeats");
            shared.judge();
        }
        if read {
            hold(shared, Until::Ack(seq));
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
            // reads 1 the issuer is parked, or will be before query 1's
            // issuer, reading its own reply, can take the lock to retire it.
            let parked = || client.shared.state.lock().unwrap().window_waiters;
            while parked() == 0 {
                std::thread::yield_now();
            }
            step.wait();
        });
        client.shutdown();
        server.join().expect("hand-rolled server");
    }

    /// Answers every query with its own samples, from a pool of two
    /// workers, so replies to a pipelined window come back in any order.
    struct Echo;

    impl crate::WireService for Echo {
        fn name(&self) -> &str {
            "echo"
        }

        fn serve(&self, query: &Query) -> Option<crate::ServedReply> {
            Some(crate::ServedReply {
                error: false,
                ..crate::ServedReply::errored(query)
            })
        }
    }

    /// The read role under load: eight issuers share one link with a
    /// window of four, so the role changes hands thousands of times, by
    /// own replies and by promotion. Every reply reaches its own issuer
    /// exactly once — nothing is orphaned, nothing is lost to a hand-off
    /// (the response timeout is far beyond the run).
    #[test]
    fn eight_issuers_hand_the_read_role_around_a_window_of_four() {
        const ISSUERS: u64 = 8;
        const EACH: u64 = 1_250;
        let config = RemoteSutConfig {
            max_in_flight: 4,
            response_timeout: Duration::from_secs(60),
            ..RemoteSutConfig::default()
        };
        let settings = TestSettings::server(100.0, mlperf_loadgen::time::Nanos::from_millis(50));
        let hello = RemoteSut::hello_for(&settings, 8, &config);
        let metrics = Arc::new(MetricsRegistry::new());
        let serve = crate::ServeConfig::default().with_workers_per_conn(2);
        let (client, server) = crate::loopback_instrumented(
            Arc::new(Echo),
            serve,
            hello,
            config,
            None,
            Some(Arc::clone(&metrics)),
        )
        .expect("loopback");
        std::thread::scope(|scope| {
            for issuer in 0..ISSUERS {
                let client = &client;
                scope.spawn(move || {
                    for k in 0..EACH {
                        let id = issuer * EACH + k;
                        match client.issue_outcome(&query(id)) {
                            IssueOutcome::Completed(samples) => {
                                let ids: Vec<u64> = samples.iter().map(|s| s.sample_id).collect();
                                assert_eq!(ids, [id], "query {id} got another's reply");
                            }
                            other => panic!("query {id}: {other:?}"),
                        }
                    }
                });
            }
        });
        let counters = metrics.snapshot();
        assert_eq!(counters.counter("wire_orphan_completions"), 0);
        assert_eq!(counters.counter("wire_frames_received"), ISSUERS * EACH);
        assert!(client.is_connected());
        client.shutdown();
        server.shutdown();
    }
}
