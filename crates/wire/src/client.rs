//! The LoadGen-side endpoint: [`RemoteSut`].
//!
//! `RemoteSut` implements [`RealtimeSut`], so `Run::wall_clock` drives a
//! machine on the other end of a TCP connection exactly as it drives an
//! in-process SUT. `protocol::ClientCore` makes every link decision and
//! sequences the protocol: the window, the pending table, who reads the
//! link and for what, where each frame goes, heartbeat grace, sever or
//! fail, and a resume's redial, handshake and replay. This module is the
//! I/O around it: sockets, the issuers (whichever holds the read role
//! reads and redials for everyone), the one heartbeat thread, the clock,
//! the sink and the metrics.
//!
//! The failure mapping, which the validity rules lean on: a corrupt frame,
//! a protocol violation or heartbeat loss is [`IssueOutcome::Errored`] (the
//! peer provably misbehaved); a disconnect without resume, resume exhausted
//! or a response timeout is [`IssueOutcome::Vanished`] (the query's fate is
//! unknown, so it stays outstanding for `IncompleteQueries` and TEST06). No
//! path can hang the run.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::query::{Query, SampleCompletion};
use mlperf_loadgen::sut::{IssueOutcome, RealtimeSut};
use mlperf_stats::rng::splitmix64;
use mlperf_trace::event::{parse_detail_log, ClockSync, SpanEvent, TraceEvent, TraceSink};
use mlperf_trace::metrics::MetricsRegistry;
use mlperf_trace::sync::{lock, wait, wait_timeout, wait_timeout_while};

use crate::clock::ClockEstimator;
use crate::frame::WireError;
use crate::message::{Hello, Message, PROTOCOL_VERSION};
use crate::protocol::{Admit, ClientCore, FailKind, Farewell, Got, Lost, Next, Resume, Tick};
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
    /// How long an issuer waits for its completion frame (or the handshake
    /// for its reply) before declaring the query vanished (the dial failed).
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
        self.log.record(|| {
            TraceEvent::from(SpanEvent {
                host: "client".to_string(),
                trace_id,
                query_id,
                phase: phase.to_string(),
                dur_ns: 0,
            })
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

    /// Carries out what one input to the core brought.
    fn carry_out(&self, got: Got<Arc<ReplySlot>>) {
        match got {
            Got::Nothing => {}
            Got::Resolved(r) => {
                self.incr("wire_frames_received");
                // One slot came free: one parked issuer, if any.
                if r.wake_issuer {
                    self.window.notify_one();
                }
                self.observe("wire_rtt_ns", r.rtt_ns);
                self.span_event(r.trace_id, r.query_id, "complete");
                if let Some((waiter, outcome)) = r.fill {
                    waiter.fill(Reply::Outcome(outcome));
                }
            }
            Got::Orphan(query_id) => {
                self.incr("wire_frames_received");
                self.incr("wire_orphan_completions");
                self.log
                    .wire_event("orphan_completion", query_id, "already resolved");
            }
            Got::Clock(sample) => {
                self.incr("wire_clock_probes");
                if self.estimator.observe(sample) {
                    self.observe("wire_clock_rtt_ns", sample.rtt_ns());
                    self.log.record(|| {
                        TraceEvent::from(ClockSync {
                            host: "server".to_string(),
                            offset_ns: sample.offset_ns(),
                            rtt_ns: sample.rtt_ns(),
                        })
                    });
                }
            }
            // The server shipping its spans at drain: each record re-stamped
            // from the server clock onto ours, then merged into the sink.
            Got::Events(jsonl) => match parse_detail_log(&jsonl) {
                Ok(records) => {
                    self.incr("wire_event_frames");
                    let sink = self.log.sink.as_ref();
                    for record in records {
                        if let Some(sink) = sink.filter(|s| s.enabled()) {
                            let ts_ns = self.estimator.align_to_client(record.ts_ns);
                            sink.record(ts_ns, &record.event);
                        }
                    }
                }
                Err(e) => self.log.wire_event("bad_events_frame", 0, &format!("{e}")),
            },
            Got::Lost(lost, note, reason) => {
                if let Some((kind, detail)) = note {
                    if kind == "corrupt_frame" {
                        self.incr("wire_crc_failures");
                    }
                    self.log.wire_event(kind, 0, &detail);
                }
                self.settle(lost, &reason);
            }
        }
    }

    /// A query's response timeout passed (the core already resolved it):
    /// every parked issuer may now fit, and the timeout is counted.
    fn timed_out(&self, query_id: u64) {
        self.window.notify_all();
        self.incr("wire_timeouts");
        self.log.wire_event(
            "response_timeout",
            query_id,
            "no completion frame within the response timeout",
        );
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
        match &result {
            Ok(()) => self.incr("wire_frames_sent"),
            Err(e) => {
                let lost = lock(&self.state).send_failed();
                self.settle(lost, &format!("send failed: {e}"));
            }
        }
        result
    }
}

/// A freshly dialed, handshaken link: writer half, reader half, the peer
/// address, and the server's SUT name.
type DialedLink = (Box<dyn Transport>, Box<dyn Transport>, String, String);

/// Dials `addrs` in order and handshakes over the (optionally
/// chaos-wrapped) transport, whose reads time out every heartbeat interval
/// so a holder of the read role wakes to judge the link.
fn dial(
    addrs: &[SocketAddr],
    hello: &Hello,
    chaos: Option<&Arc<ChaosSession>>,
    config: &RemoteSutConfig,
) -> Result<DialedLink, WireError> {
    let (tcp, peer) = TcpTransport::dial(addrs.iter().copied())?;
    tcp.set_read_timeout(config.heartbeat_interval)?;
    let base: Box<dyn Transport> = Box::new(tcp);
    let mut transport = match chaos {
        Some(session) => session.wrap(base),
        None => base,
    };
    transport.send(&Message::Hello(hello.clone()).to_wire())?;
    let sent = Instant::now();
    let timeout_ns = config.response_timeout.as_nanos() as u64;
    let sut_name = loop {
        let got = transport.recv().and_then(|p| Message::from_wire(&p));
        let waited_ns = sent.elapsed().as_nanos() as u64;
        if let Some(name) = ClientCore::<()>::handshake(waited_ns, timeout_ns, got)? {
            break name;
        }
    };
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
    /// server refuses the handshake, [`WireError::Protocol`] if the server
    /// answers with anything but `HelloAck`/`Reject`, and
    /// [`WireError::Disconnected`] if it answers nothing within the
    /// response timeout.
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

        let (writer, reader, peer, sut_name) = dial(&addrs, &hello, chaos.as_ref(), &config)?;
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
                let log = &self.shared.log;
                let deadline_ns = log.now_ns() + GOODBYE_WAIT.as_nanos() as u64;
                loop {
                    let mut st = lock(&self.shared.state);
                    match st.farewell(log.now_ns(), deadline_ns) {
                        Farewell::Done => break,
                        Farewell::Read => {
                            drop(st);
                            hold(&self.shared);
                        }
                        Farewell::Wait => {
                            let _ =
                                wait_timeout(&self.shared.settled, st, Duration::from_millis(20));
                        }
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
        let lost = lock(&self.shared.state).fail(kind);
        self.shared.settle(lost, reason);
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
        let (mut read, issued_ns) = {
            let mut st = lock(&shared.state);
            loop {
                let now_ns = shared.log.now_ns();
                match st.issue(now_ns, query, trace_id, &slot) {
                    Admit::Send { read } => break (read, now_ns),
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
        let deadline_ns = issued_ns.saturating_add(timeout.as_nanos() as u64);
        loop {
            if read {
                if let Some(outcome) = hold(shared) {
                    return outcome;
                }
                // The link died under us: `fail` fills our slot.
            }
            let left = deadline_ns.saturating_sub(shared.log.now_ns());
            match slot.wait(Duration::from_nanos(left)) {
                Some(Reply::Outcome(outcome)) => return outcome,
                Some(Reply::Read) => read = true,
                None => {
                    let timed_out = lock(&shared.state).time_out(query.id);
                    if let Some((outcome, promoted)) = timed_out {
                        shared.timed_out(query.id);
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

/// Holds the read role the core granted (to an issuer, the heartbeat or
/// `shutdown`): reads the link, feeds `ClientCore::read` each frame, tick
/// and read error, and does what it decides until the role is given up.
/// Returns an issuer's own outcome, when it learned it; the promoted waiter
/// is woken once the read half is unlocked.
fn hold(shared: &ClientShared) -> Option<IssueOutcome> {
    let mut half = lock(&shared.reader);
    let (own, promoted) = loop {
        let decode_started = shared.stamp();
        let got = half.recv().and_then(|payload| {
            let msg = Message::from_wire(&payload);
            shared.observe_since("wire_decode_ns", decode_started);
            msg
        });
        let (got, next) = lock(&shared.state).read(shared.log.now_ns(), got);
        shared.carry_out(got);
        match next {
            Next::Read => {}
            Next::Leave(own, promoted) => break (own, promoted),
            Next::TimedOut(query_id, promoted) => {
                shared.timed_out(query_id);
                break (Some(IssueOutcome::Vanished), promoted);
            }
            Next::Redial(attempt) => match redial(shared, attempt) {
                Some(fresh) => *half = fresh,
                None => break (None, None),
            },
        }
    };
    drop(half);
    if let Some(next) = promoted {
        next.fill(Reply::Read);
    }
    own
}

/// Redials with bounded backoff at the epoch the core bumps, then does what
/// `ClientCore::dialed` decides: install the link and replay, try again,
/// or give up. Returns the new read half, or `None` when resume failed.
fn redial(shared: &ClientShared, mut attempt: u32) -> Option<Box<dyn Transport>> {
    let backoff = shared.config.resume.map_or(Duration::ZERO, |p| p.backoff);
    let stopping = || shared.stopping.load(Ordering::SeqCst);
    loop {
        let go = !stopping() && {
            std::thread::sleep(backoff.saturating_mul(attempt));
            !stopping()
        };
        let mut hello = shared.base_hello.clone();
        let dialed = go.then(|| {
            hello.epoch = lock(&shared.state).redial();
            hello.resume = true;
            shared.epoch_watch.store(hello.epoch, Ordering::SeqCst);
            let config = &shared.config;
            dial(&shared.addrs, &hello, shared.chaos.as_ref(), config).inspect_err(|e| {
                let detail = format!("epoch={} attempt={attempt}: {e}", hello.epoch);
                shared.log.wire_event("resume_attempt_failed", 0, &detail);
            })
        });
        let ok = matches!(dialed, Some(Ok(_)));
        // Decided and installed under one lock: once the link is Up with
        // the new writer in place, a later sever closes *this* transport.
        let mut st = lock(&shared.state);
        let (replay, reader) = match (st.dialed(shared.log.now_ns(), ok), dialed) {
            (Resume::Replay(replay), Some(Ok((writer, reader, ..)))) => {
                *lock(&shared.writer) = writer;
                drop(st);
                (replay, reader)
            }
            (Resume::Again(next), _) => {
                attempt = next;
                continue;
            }
            (Resume::GiveUp(lost, reason), dialed) => {
                drop(st);
                if let Some(Ok((writer, reader, ..))) = dialed {
                    writer.shutdown();
                    reader.shutdown();
                }
                shared.settle(lost, &reason);
                return None;
            }
            (Resume::Replay(_), _) => unreachable!("replays only a dialed link"),
        };
        shared.window.notify_all();
        shared.incr("wire_resumes");
        let detail = format!(
            "epoch={} attempt={attempt} replaying {} in-flight",
            hello.epoch,
            replay.len()
        );
        shared.log.wire_event("resume", 0, &detail);
        // A fresh link means a fresh network path: re-probe the clock so
        // the estimate reflects it.
        shared.send_probe();
        // Replay the in-flight window under the *same* trace ids (the server
        // dedups by wire id); a failed send means the new link died already,
        // and the holder redials again.
        let _ = replay.into_iter().try_for_each(|(query, trace_id)| {
            shared.send(&Message::IssueTraced { trace_id, query })
        });
        return Some(reader);
    }
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
        let stopping = || shared.stopping.load(Ordering::SeqCst);
        while let Some(left) = wake_at.checked_duration_since(Instant::now()) {
            if stopping() || left.is_zero() {
                break;
            }
            std::thread::park_timeout(left);
        }
        if stopping() {
            return;
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
            let judged = lock(&shared.state).judge(shared.log.now_ns());
            shared.carry_out(judged);
        }
        if read {
            hold(shared);
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

    /// A peer whose kernel completes the connect but that never answers the
    /// handshake (a listener that never accepts) fails `connect` once the
    /// response timeout passes, instead of reading ticks forever. The
    /// channel's own bound turns a regression into a failure, not a hang.
    #[test]
    fn a_handshake_nobody_answers_fails_connect_at_the_response_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let config = RemoteSutConfig::default()
            .with_response_timeout(Duration::from_millis(300))
            .with_heartbeat(Duration::from_millis(50), Duration::from_millis(100));
        let hello = RemoteSut::hello_for(&TestSettings::single_stream(), 8, &config);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(RemoteSut::connect(addr, hello, config).map(|_| ()));
        });
        let connected = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("connect returned rather than hung");
        assert!(
            matches!(&connected, Err(WireError::Disconnected(why)) if why.contains("handshake")),
            "{connected:?}"
        );
        drop(listener);
    }
}
