//! The wire protocol without I/O: [`ClientCore`] sequences
//! [`RemoteSut`](crate::RemoteSut), [`SessionCore`] a daemon's connections.
//!
//! Each core is a plain struct its driver keeps under the one lock it
//! already takes and feeds one input at a time (an issue, a decoded frame
//! or read error, a tick, a handshake reply, a served reply, a drain); each
//! method returns one decision. Nothing here reads a clock, blocks, locks
//! or touches a socket (`tests/census.rs` holds this file to that): time
//! comes in as `now_ns`, so scripted tables test every decision, and the
//! one-thread simulation at the end of this file the whole protocol.

use std::collections::{HashMap, HashSet};

use mlperf_loadgen::query::{Query, SampleCompletion};
use mlperf_loadgen::sut::IssueOutcome;

use crate::client::RemoteSutConfig;
use crate::clock::ClockSample;
use crate::frame::WireError;
use crate::message::{Hello, Message, PROTOCOL_VERSION};

/// How a terminally failed link resolves its queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FailKind {
    /// The peer provably misbehaved → errored completions.
    Errored,
    /// The queries' fate is unknown → they stay outstanding.
    Vanished,
}

impl FailKind {
    pub(crate) fn outcome(self) -> IssueOutcome {
        match self {
            FailKind::Errored => IssueOutcome::Errored,
            FailKind::Vanished => IssueOutcome::Vanished,
        }
    }
}

/// How a read error resolves the link when resume is off (or exhausted):
/// an integrity or protocol failure proves the peer (or the path) is
/// garbling the run; after EOF or a reset the in-flight queries' fate is
/// unknown.
fn classify(e: &WireError) -> (String, FailKind) {
    match e {
        WireError::Frame(fe) => (format!("corrupt frame: {fe}"), FailKind::Errored),
        WireError::Protocol(msg) => (format!("protocol error: {msg}"), FailKind::Errored),
        other => (format!("read failed: {other}"), FailKind::Vanished),
    }
}

/// A read that found nothing within the read half's timeout: a tick, never
/// a loss by itself.
fn timed_out(e: &WireError) -> bool {
    matches!(e, WireError::Io(io) if matches!(
        io.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    ))
}

/// Link state. `Down` is transient: the holder of the read role redials and
/// either restores `Up` or settles on `Dead`, whose kind is the first
/// failure's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Link {
    Up,
    Down,
    Dead(FailKind),
}

/// One query on the wire: its waiter, send time and response deadline, and
/// what a resume replays — the query under the *same* trace id.
struct Pending<W> {
    waiter: W,
    sent_ns: u64,
    deadline_ns: u64,
    query: Query,
    trace_id: u64,
}

/// Who reads the link, and what for, which says when it gives the role up.
/// Reading is a role, not a thread: only the holder touches the read half.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reader {
    /// Nobody: nothing is pending, or the link is dead.
    Nobody,
    /// This query's issuer, until its reply, its deadline or the link's death.
    Issuer(u64),
    /// The heartbeat, until this probe's ack (or a later one), or one
    /// interval of silence on a live link.
    Probe(u64),
    /// `shutdown`, until the goodbye takes the link down, or this deadline.
    Goodbye(u64),
}

/// What an issuer does with its query.
#[derive(Debug)]
pub(crate) enum Admit {
    /// Registered: send the issue frame, then read the link (`read`: the
    /// role was free, now it is the issuer's) or wait on the slot.
    Send { read: bool },
    /// The window is full: park, [`ClientCore::unpark_issuer`], ask again.
    Wait,
    /// The link is dead: the query resolves as this kind says, unsent.
    Refuse(FailKind),
}

/// A completion routed to its query. `wake_issuer`: an issuer is parked on
/// the slot it freed. `fill`: another issuer's outcome to hand over (`None`
/// for the holder's own, which [`Next::Leave`] returns).
pub(crate) struct Resolved<W> {
    pub(crate) query_id: u64,
    pub(crate) trace_id: u64,
    pub(crate) rtt_ns: u64,
    pub(crate) wake_issuer: bool,
    pub(crate) fill: Option<(W, IssueOutcome)>,
}

/// What a heartbeat tick does: stop (the link is dead), skip (the read
/// role's holder is reconnecting, so silence is expected), or send a clock
/// probe — and with `read`, hold the read role, which was free, until its
/// ack.
#[derive(Debug)]
pub(crate) enum Tick {
    Stop,
    Skip,
    Probe { seq: u64, read: bool },
}

/// What losing (or failing) the link did.
pub(crate) enum Lost<W> {
    /// Already dead: nothing changes.
    Dead,
    /// Down with resume armed: the read role's holder redials. `severed`
    /// when this input took it down, so the transport is shut.
    Down { severed: bool },
    /// Dead now: resolve each waiter with the kind's outcome.
    Failed(FailKind, Vec<W>),
}

/// What one input brought, for the driver to carry out.
pub(crate) enum Got<W> {
    /// Nothing: a liveness ack, or a tick on a link that is alive.
    Nothing,
    Resolved(Resolved<W>),
    /// A completion for a query no longer pending, counted once.
    Orphan(u64),
    /// A clock probe's four timestamps; the ack also proved the peer alive.
    Clock(ClockSample),
    /// The server's spans, shipped at drain.
    Events(String),
    /// The link was lost: report the wire event that says how, if any
    /// (`heartbeat_loss`, `corrupt_frame`, `goodbye`), then settle it for
    /// the reason given.
    Lost(Lost<W>, Option<(&'static str, String)>, String),
}

/// What the read role's holder does after a read.
pub(crate) enum Next<W> {
    Read,
    /// Give the role up to the promoted waiter (the lowest pending id); an
    /// issuer returns its own outcome, when it read it.
    Leave(Option<IssueOutcome>, Option<W>),
    /// The holder's own deadline passed: this query vanished; the role went
    /// to the promoted waiter.
    TimedOut(u64, Option<W>),
    /// Redial (attempt 1 of an outage), then read on at the new epoch.
    Redial(u32),
}

/// One read's decision: what it brought, and what the holder does next.
pub(crate) type Step<W> = (Got<W>, Next<W>);

/// What a redial's handshake decided: install the link and send these in
/// id order under their trace ids; try this attempt after `attempt ×
/// backoff`; or drop the new link, if any, and settle the loss.
pub(crate) enum Resume<W> {
    Replay(Vec<(Query, u64)>),
    Again(u32),
    GiveUp(Lost<W>, String),
}

/// What `shutdown`, waiting for the drained goodbye, does next: close (the
/// link left `Up`, or the deadline passed), read for it (it holds the role
/// now), or wait while someone else reads.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Farewell {
    Done,
    Read,
    Wait,
}

/// The client's half of the protocol: the link and its epoch, the window
/// and pending table, liveness, the resume attempts, and who reads for
/// what (leader/follower: an issuer admitted while nobody reads takes the
/// role, and gives it up to the lowest pending id once its own outcome is
/// known, so a pending query on a live link always has a reader). `W` is
/// whatever wakes a waiting issuer.
pub(crate) struct ClientCore<W> {
    link: Link,
    epoch: u32,
    reader: Reader,
    max_in_flight: u32,
    /// Issuers parked on a full window: a completion wakes one only when
    /// there is one. The client's own tests read it to know one is parked.
    pub(crate) window_waiters: u32,
    /// Wire query id → pending query; its size is the in-flight count.
    pending: HashMap<u64, Pending<W>>,
    resume: bool,
    stopping: bool,
    timeout_ns: u64,
    grace_ns: u64,
    last_heard_ns: u64,
    probe_seq: u64,
    max_attempts: u32,
    attempt: u32,
    /// The read error that took the link down for the current redial.
    outage: Option<(String, FailKind)>,
}

impl<W: Clone> ClientCore<W> {
    /// A link just handshaken at `epoch`, heard at the clock's origin.
    pub(crate) fn new(epoch: u32, config: &RemoteSutConfig) -> Self {
        ClientCore {
            link: Link::Up,
            epoch,
            reader: Reader::Nobody,
            max_in_flight: config.max_in_flight,
            window_waiters: 0,
            pending: HashMap::new(),
            resume: config.resume.is_some(),
            stopping: false,
            timeout_ns: config.response_timeout.as_nanos() as u64,
            grace_ns: config.heartbeat_grace.as_nanos() as u64,
            last_heard_ns: 0,
            probe_seq: 0,
            max_attempts: config.resume.map_or(1, |p| p.max_attempts.max(1)),
            attempt: 0,
            outage: None,
        }
    }

    /// A handshake's reply, `waited_ns` after the `Hello` went: the SUT
    /// name, `None` to read on (a tick within the response timeout, which
    /// bounds the wait), or why the dial failed.
    pub(crate) fn handshake(
        waited_ns: u64,
        timeout_ns: u64,
        got: Result<Message, WireError>,
    ) -> Result<Option<String>, WireError> {
        match got {
            Ok(Message::HelloAck {
                version, sut_name, ..
            }) if version == PROTOCOL_VERSION => Ok(Some(sut_name)),
            Ok(Message::HelloAck { version, .. }) => Err(WireError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: version,
            }),
            Ok(Message::Reject { reason }) => Err(WireError::Rejected(reason)),
            Ok(other) => Err(WireError::Protocol(format!(
                "expected HelloAck, got {}",
                other.tag_name()
            ))),
            Err(e) if timed_out(&e) && waited_ns < timeout_ns => Ok(None),
            Err(e) if timed_out(&e) => Err(WireError::Disconnected(format!(
                "no handshake reply within {} ms",
                timeout_ns / 1_000_000
            ))),
            Err(e) => Err(e),
        }
    }

    pub(crate) fn is_up(&self) -> bool {
        self.link == Link::Up
    }

    /// If `from` holds the read role, it passes to the lowest still-pending
    /// id — who is returned, to be woken — or to nobody.
    fn pass_on(&mut self, from: Reader) -> Option<W> {
        if self.reader != from {
            return None;
        }
        let next = self.pending.iter().min_by_key(|(id, _)| **id);
        self.reader = next.map_or(Reader::Nobody, |(&id, _)| Reader::Issuer(id));
        next.map(|(_, p)| p.waiter.clone())
    }

    /// The holder gives the role up, having learned nothing of its own.
    fn leave(&mut self) -> Next<W> {
        Next::Leave(None, self.pass_on(self.reader))
    }

    /// `shutdown`, waiting until `deadline_ns` for the drained goodbye,
    /// bids for the read role: granted only on a live link nobody reads.
    pub(crate) fn farewell(&mut self, now_ns: u64, deadline_ns: u64) -> Farewell {
        if self.link != Link::Up || now_ns >= deadline_ns {
            Farewell::Done
        } else if self.reader == Reader::Nobody {
            self.reader = Reader::Goodbye(deadline_ns);
            Farewell::Read
        } else {
            Farewell::Wait
        }
    }

    /// An issue at `now_ns`, registered before its frame leaves so a fast
    /// reply cannot race past the table. A `Down` link still admits: the
    /// resume replays.
    pub(crate) fn issue(&mut self, now_ns: u64, query: &Query, trace_id: u64, waiter: &W) -> Admit {
        if let Link::Dead(kind) = self.link {
            return Admit::Refuse(kind);
        }
        if self.pending.len() >= self.max_in_flight as usize {
            self.window_waiters += 1;
            return Admit::Wait;
        }
        let pending = Pending {
            waiter: waiter.clone(),
            sent_ns: now_ns,
            deadline_ns: now_ns.saturating_add(self.timeout_ns),
            query: query.clone(),
            trace_id,
        };
        self.pending.insert(query.id, pending);
        let read = self.reader == Reader::Nobody;
        if read {
            self.reader = Reader::Issuer(query.id);
        }
        Admit::Send { read }
    }

    pub(crate) fn unpark_issuer(&mut self) {
        self.window_waiters -= 1;
    }

    /// One read by the role's holder — a decoded frame, a tick (judge the
    /// link) or a read error (sever for a redial, or fail as its kind) —
    /// and what the holder does next.
    pub(crate) fn read(&mut self, now_ns: u64, got: Result<Message, WireError>) -> Step<W> {
        let got = match got {
            Ok(Message::Completion {
                query_id,
                error,
                samples,
            }) => {
                self.last_heard_ns = now_ns;
                let Some(p) = self.pending.remove(&query_id) else {
                    return self.then(now_ns, Got::Orphan(query_id));
                };
                let outcome = if error {
                    IssueOutcome::Errored
                } else {
                    IssueOutcome::Completed(samples)
                };
                let (fill, own) = match self.reader == Reader::Issuer(query_id) {
                    true => (None, Some(outcome)),
                    false => (Some((p.waiter, outcome)), None),
                };
                let promoted = self.pass_on(Reader::Issuer(query_id));
                let got = Got::Resolved(Resolved {
                    query_id,
                    trace_id: p.trace_id,
                    rtt_ns: now_ns.saturating_sub(p.sent_ns),
                    wake_issuer: self.window_waiters > 0,
                    fill,
                });
                if own.is_some() {
                    return (got, Next::Leave(own, promoted));
                }
                got
            }
            Ok(Message::HeartbeatAck { .. }) => {
                self.last_heard_ns = now_ns;
                Got::Nothing
            }
            Ok(Message::ClockProbeAck { seq, t0, t1, t2 }) => {
                self.last_heard_ns = now_ns;
                let got = Got::Clock(ClockSample {
                    t0,
                    t1,
                    t2,
                    t3: now_ns,
                });
                if matches!(self.reader, Reader::Probe(probe) if seq >= probe) {
                    return (got, self.leave());
                }
                got
            }
            Ok(Message::Events { jsonl }) => Got::Events(jsonl),
            Ok(Message::Goodbye { served }) => {
                let note = Some(("goodbye", format!("served={served}")));
                let reason = "server closed after drain".into();
                Got::Lost(self.fail(FailKind::Errored), note, reason)
            }
            Ok(other) => {
                let reason = format!("unexpected message from server: {}", other.tag_name());
                Got::Lost(self.fail(FailKind::Errored), None, reason)
            }
            Err(e) if timed_out(&e) => {
                let judged = self.judge(now_ns);
                // One interval without the heartbeat's ack: the next tick
                // probes again. A link the judgement just took down is read
                // on, so its redial starts now.
                if matches!(self.reader, Reader::Probe(_)) && self.is_up() {
                    return (judged, self.leave());
                }
                judged
            }
            // `close` severed the link, and fails it as it says.
            Err(_) if self.stopping => return (Got::Nothing, Next::Leave(None, None)),
            Err(e) => {
                let (reason, kind) = classify(&e);
                let cause =
                    matches!(e, WireError::Frame(_)).then(|| ("corrupt_frame", reason.clone()));
                let lost = self.lose(kind);
                if let Lost::Down { .. } = lost {
                    self.outage = Some((reason.clone(), kind));
                    self.attempt = 1;
                    return (Got::Lost(lost, cause, reason), Next::Redial(1));
                }
                Got::Lost(lost, cause, reason)
            }
        };
        self.then(now_ns, got)
    }

    /// After a read that left the holder's purpose open: read on while the
    /// role is still its own (the link's death takes it away) and its own
    /// deadline, or `shutdown`'s, has not passed.
    fn then(&mut self, now_ns: u64, got: Got<W>) -> Step<W> {
        let next = match self.reader {
            Reader::Nobody => Next::Leave(None, None),
            Reader::Issuer(query_id)
                if self
                    .pending
                    .get(&query_id)
                    .is_some_and(|p| now_ns >= p.deadline_ns) =>
            {
                self.pending.remove(&query_id);
                Next::TimedOut(query_id, self.pass_on(self.reader))
            }
            Reader::Goodbye(deadline) if !self.is_up() || now_ns >= deadline => self.leave(),
            _ => Next::Read,
        };
        (got, next)
    }

    /// The next clock probe's sequence number; handshake, resume and
    /// heartbeat probes share one sequence.
    pub(crate) fn probe(&mut self) -> u64 {
        self.probe_seq += 1;
        self.probe_seq - 1
    }

    /// A heartbeat interval passed: probe, and read a link nobody reads (an
    /// idle link's acks, or a down link's redial nobody else is making).
    pub(crate) fn tick(&mut self) -> Tick {
        match (self.link, self.reader) {
            (Link::Dead(_), _) => Tick::Stop,
            (Link::Down, Reader::Nobody) | (Link::Up, _) => {
                let seq = self.probe();
                let read = self.reader == Reader::Nobody;
                if read {
                    self.reader = Reader::Probe(seq);
                }
                Tick::Probe { seq, read }
            }
            (Link::Down, _) => Tick::Skip,
        }
    }

    /// After a probe went out, or a holder's read found an interval of
    /// silence: more than the grace of it loses a live link as errored (the
    /// peer holds the socket open but does not answer). A link already down
    /// or dead is not judged again.
    pub(crate) fn judge(&mut self, now_ns: u64) -> Got<W> {
        let silence = now_ns.saturating_sub(self.last_heard_ns);
        if self.link != Link::Up || silence <= self.grace_ns {
            return Got::Nothing;
        }
        let note = Some((
            "heartbeat_loss",
            format!("no ack for {} ms", silence / 1_000_000),
        ));
        Got::Lost(self.lose(FailKind::Errored), note, "heartbeat loss".into())
    }

    /// A failed read, or heartbeat loss: with resume armed the link goes
    /// down for a redial, else it dies as `kind`.
    fn lose(&mut self, kind: FailKind) -> Lost<W> {
        match self.link {
            Link::Up | Link::Down if self.resume => {
                let severed = self.link == Link::Up;
                self.link = Link::Down;
                Lost::Down { severed }
            }
            _ => self.fail(kind),
        }
    }

    /// A frame that never left: its fate, and every in-flight sibling's, is
    /// unknown. Once the client is stopping, `close` decides instead.
    pub(crate) fn send_failed(&mut self) -> Lost<W> {
        if self.stopping {
            return Lost::Dead;
        }
        self.lose(FailKind::Vanished)
    }

    /// The link dies whatever resume says: goodbye, a protocol violation,
    /// resume exhausted, or close. The first kind wins.
    pub(crate) fn fail(&mut self, kind: FailKind) -> Lost<W> {
        if let Link::Dead(_) = self.link {
            return Lost::Dead;
        }
        self.link = Link::Dead(kind);
        self.reader = Reader::Nobody;
        Lost::Failed(kind, self.pending.drain().map(|(_, p)| p.waiter).collect())
    }

    /// An issuer's response timeout passed: the query vanishes, unless its
    /// reply was routed meanwhile (`None`: the waiter is about to get it).
    /// A holder that times out gives the role up; the second value is who
    /// was promoted.
    pub(crate) fn time_out(&mut self, query_id: u64) -> Option<(IssueOutcome, Option<W>)> {
        self.pending.remove(&query_id)?;
        let promoted = self.pass_on(Reader::Issuer(query_id));
        Some((IssueOutcome::Vanished, promoted))
    }

    /// The driver is stopping: no redial will come, so a later loss fails,
    /// and a read or send error is `close`'s to settle.
    pub(crate) fn stop(&mut self) {
        self.resume = false;
        self.stopping = true;
    }

    /// A redial attempt: the epoch to handshake at.
    pub(crate) fn redial(&mut self) -> u32 {
        self.epoch += 1;
        self.epoch
    }

    /// A redial's handshake succeeded (`ok`: up and heard, replay the
    /// window) or failed (the next attempt, until they are spent; then the
    /// link dies as the outage's read error said). A dead link or a
    /// stopping client drops the new one.
    pub(crate) fn dialed(&mut self, now_ns: u64, ok: bool) -> Resume<W> {
        let live = self.resume && !matches!(self.link, Link::Dead(_));
        if live && ok {
            self.link = Link::Up;
            self.last_heard_ns = now_ns;
            let mut replay: Vec<(Query, u64)> = self
                .pending
                .values()
                .map(|p| (p.query.clone(), p.trace_id))
                .collect();
            replay.sort_by_key(|(q, _)| q.id);
            return Resume::Replay(replay);
        }
        if live && self.attempt < self.max_attempts {
            self.attempt += 1;
            return Resume::Again(self.attempt);
        }
        let (reason, kind) = self
            .outage
            .take()
            .unwrap_or_else(|| ("link lost".into(), FailKind::Vanished));
        let reason = format!(
            "resume failed after {} attempts: {reason}",
            self.max_attempts
        );
        Resume::GiveUp(self.fail(kind), reason)
    }
}

/// wire query id → resolved reply `(error, samples)`, kept for journal
/// replay within a session and recovered from disk across daemon restarts.
pub(crate) type CompletionMap = HashMap<u64, (bool, Vec<SampleCompletion>)>;

/// How a handshake attaches to its session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Attach {
    /// Epoch 0, the authoritative start of a run: a stale session with the
    /// same id is retired, the service resets, the journal starts empty.
    Fresh,
    /// A later epoch of a session this daemon holds: reattach.
    Resume,
    /// A later epoch of a session this daemon forgot (it restarted): the
    /// journal is read back from disk, if any; else replays simply re-run.
    Adopt,
}

/// What a connection's first frame opens: a run's handshake at our version;
/// a telemetry poll (answer `Stats`, close); a handshake at another version
/// (log `event`, refuse with `reason`); or nothing (the shutdown poke),
/// with the wire event that says why when the peer sent no first frame
/// before the read half's handshake deadline.
pub(crate) enum Open {
    Hello(Hello),
    Stats,
    Reject { event: String, reason: String },
    Close(Option<(&'static str, String)>),
}

/// What a connection does with one of its client's frames: route an issue
/// (and its trace id) through [`SessionCore::issue`]; answer a clock probe;
/// ignore a duplicated `Hello`; answer `Goodbye` once
/// [`SessionCore::drain`] allows; or close, with the wire event that says
/// why when the client broke the protocol or a frame arrived corrupt.
pub(crate) enum Conn {
    Issue(Query, u64),
    Probe { seq: u64, t0: u64 },
    Ignore,
    Drain,
    Close(Option<(&'static str, String)>),
}

/// How a session routes an issued query: serve it fresh, answer it from
/// the journal (resolved in an earlier epoch; never re-run), or skip it
/// (replayed while the original is being served, whose completion answers
/// both).
#[derive(Debug)]
pub(crate) enum Route {
    Fresh,
    Replay(bool, Vec<SampleCompletion>),
    Skip,
}

/// The daemon's half of the protocol for one session, which outlives its
/// connections: the completion journal, what is in progress, and the
/// outstanding count `Drain` waits on.
#[derive(Default)]
pub(crate) struct SessionCore {
    journal: CompletionMap,
    in_progress: HashSet<u64>,
    outstanding: usize,
    /// Drainers parked on the count: the last settle wakes one only when
    /// there is one.
    drainers: usize,
}

impl SessionCore {
    /// A session whose journal starts as `recovered` (empty unless adopted).
    pub(crate) fn new(recovered: CompletionMap) -> Self {
        SessionCore {
            journal: recovered,
            ..SessionCore::default()
        }
    }

    /// A connection's first frame. One version: any other — older or newer
    /// — is refused with a reason rather than guessed at.
    pub(crate) fn open(got: Result<Message, WireError>) -> Open {
        match got {
            Ok(Message::Hello(hello)) if hello.version == PROTOCOL_VERSION => Open::Hello(hello),
            Ok(Message::Hello(Hello { version, .. })) => Open::Reject {
                event: format!("version mismatch: client v{version}"),
                reason: format!(
                    "protocol version mismatch: server v{PROTOCOL_VERSION}, client v{version}"
                ),
            },
            Ok(Message::StatsRequest) => Open::Stats,
            Err(e) if timed_out(&e) => Open::Close(Some((
                "handshake_timeout",
                "no first frame before the handshake deadline".into(),
            ))),
            _ => Open::Close(None),
        }
    }

    /// Every later frame of a connection: the read error or the frame that
    /// ends it, or what to do with it.
    pub(crate) fn frame(got: Result<Message, WireError>) -> Conn {
        let why = |kind, detail| Conn::Close(Some((kind, detail)));
        match got {
            Ok(Message::IssueTraced { trace_id, query }) => Conn::Issue(query, trace_id),
            Ok(Message::Hello(_)) => Conn::Ignore,
            Ok(Message::ClockProbe { seq, t0 }) => Conn::Probe { seq, t0 },
            Ok(Message::Drain) => Conn::Drain,
            Ok(Message::Goodbye { .. }) => Conn::Close(None),
            Ok(other) => why(
                "protocol_error",
                format!("unexpected message from client: {}", other.tag_name()),
            ),
            Err(WireError::Frame(e)) => why("corrupt_frame", format!("corrupt frame: {e}")),
            Err(WireError::Protocol(msg)) => {
                why("protocol_error", format!("protocol error: {msg}"))
            }
            Err(_) => Conn::Close(None),
        }
    }

    /// One frame of a session's journal, as a restarted daemon reads it
    /// back: a frame that decodes as a `Completion` goes into `journal`,
    /// any other is skipped.
    pub(crate) fn recover(journal: &mut CompletionMap, frame: &[u8]) {
        if let Ok(Message::Completion {
            query_id,
            error,
            samples,
        }) = Message::from_wire(frame)
        {
            journal.insert(query_id, (error, samples));
        }
    }

    /// A handshake at `epoch`, for a session the daemon holds (`live`) or
    /// not.
    pub(crate) fn attach(epoch: u32, live: bool) -> Attach {
        match (epoch, live) {
            (0, _) => Attach::Fresh,
            (_, true) => Attach::Resume,
            (_, false) => Attach::Adopt,
        }
    }

    /// An issue frame. A fresh query is outstanding until settled.
    pub(crate) fn issue(&mut self, query_id: u64) -> Route {
        if let Some((error, samples)) = self.journal.get(&query_id) {
            Route::Replay(*error, samples.clone())
        } else if !self.in_progress.insert(query_id) {
            Route::Skip
        } else {
            self.outstanding += 1;
            Route::Fresh
        }
    }

    /// The service answered (`Some`) or swallowed (`None`) a fresh query.
    /// An answer is journaled before its frame is sent, so a link that dies
    /// in between loses nothing; a swallowed query is not, so a replay is
    /// swallowed again.
    pub(crate) fn served(&mut self, query_id: u64, reply: Option<(bool, Vec<SampleCompletion>)>) {
        self.in_progress.remove(&query_id);
        if let Some(reply) = reply {
            self.journal.insert(query_id, reply);
        }
    }

    /// A fresh query settled: its completion frame written, or its hand-off
    /// refused. Settling only after the write means `Goodbye` never
    /// overtakes a completion. Returns whether to wake a parked drainer.
    pub(crate) fn settled(&mut self) -> bool {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.outstanding == 0 && self.drainers > 0
    }

    /// A `Drain`: whether `Goodbye` may go now. If not, the caller is
    /// counted as parked until [`SessionCore::unpark_drainer`].
    pub(crate) fn drain(&mut self) -> bool {
        if self.outstanding == 0 {
            return true;
        }
        self.drainers += 1;
        false
    }

    pub(crate) fn unpark_drainer(&mut self) {
        self.drainers -= 1;
    }

    pub(crate) fn outstanding(&self) -> usize {
        self.outstanding
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_loadgen::query::QuerySample;
    use mlperf_loadgen::time::Nanos;
    use std::time::Duration;

    /// One scripted client input. Waiters are the query ids themselves.
    enum In {
        Issue(u64),
        Unpark,
        Complete(u64, bool),
        Heard,
        Tick,
        Judge,
        ReadError(WireError),
        SendError,
        Fail(FailKind),
        TimeOut(u64),
        Redial,
        /// A redial's handshake succeeded or failed.
        Dialed(bool),
        Stop,
        /// `shutdown` bids for the read role, for two nanoseconds.
        Claim,
        /// The holder's read finds an interval of silence: the heartbeat
        /// and `shutdown` give the read role up.
        Release,
        /// Who reads the link now.
        Reader,
    }

    fn query(id: u64) -> Query {
        Query {
            id,
            samples: vec![QuerySample { id, index: 0 }],
            scheduled_at: Nanos::ZERO,
            tenant: 0,
        }
    }

    fn show_lost(lost: Lost<u64>) -> String {
        match lost {
            Lost::Dead => "dead".into(),
            Lost::Down { severed } => format!("down severed={severed}"),
            Lost::Failed(kind, mut waiters) => {
                waiters.sort_unstable();
                format!("failed {kind:?} {waiters:?}")
            }
        }
    }

    /// Who a release promoted, when anybody.
    fn show_promoted(promoted: Option<u64>) -> String {
        promoted.map_or_else(String::new, |id| format!(" promote={id}"))
    }

    fn show_outcome(outcome: &IssueOutcome) -> &'static str {
        match outcome {
            IssueOutcome::Completed(_) => "completed",
            IssueOutcome::Errored => "errored",
            IssueOutcome::Vanished => "vanished",
        }
    }

    /// Feeds `script` — `(now_ns, input)` — to a fresh core with a window
    /// of two and renders each decision.
    fn run_client(resume: bool, script: Vec<(u64, In)>) -> Vec<String> {
        run_client_in(2, resume, script)
    }

    /// [`run_client`] with a window of `window`.
    fn run_client_in(window: u32, resume: bool, script: Vec<(u64, In)>) -> Vec<String> {
        run_client_with(1, window, resume, script)
    }

    /// The default response timeout: 10 s.
    const TIMEOUT_NS: u64 = 10_000_000_000;

    /// [`run_client_in`] with a resume policy of `attempts` attempts.
    fn run_client_with(
        attempts: u32,
        window: u32,
        resume: bool,
        script: Vec<(u64, In)>,
    ) -> Vec<String> {
        let policy = crate::client::ResumePolicy {
            max_attempts: attempts,
            backoff: Duration::ZERO,
        };
        let config = RemoteSutConfig {
            max_in_flight: window,
            heartbeat_grace: Duration::from_nanos(2_000),
            resume: resume.then_some(policy),
            ..RemoteSutConfig::default()
        };
        let mut core: ClientCore<u64> = ClientCore::new(0, &config);
        let mut out = Vec::new();
        for (now, input) in script {
            out.push(match input {
                In::Issue(id) => format!("{:?}", core.issue(now, &query(id), id ^ 0xAB, &id)),
                In::Unpark => {
                    core.unpark_issuer();
                    format!("parked={}", core.window_waiters)
                }
                In::Complete(id, error) => {
                    let samples = Vec::new();
                    let frame = Message::Completion {
                        query_id: id,
                        error,
                        samples,
                    };
                    show_step(core.read(now, Ok(frame)))
                }
                In::Heard => {
                    core.read(now, Ok(Message::HeartbeatAck { seq: 0 }));
                    "heard".into()
                }
                In::Tick => format!("{:?}", core.tick()),
                In::Judge => {
                    let silence = now - core.last_heard_ns;
                    match core.judge(now) {
                        Got::Lost(lost, ..) => format!("silent {silence}: {}", show_lost(lost)),
                        _ if core.is_up() => "alive".into(),
                        _ => "not judged".into(),
                    }
                }
                In::ReadError(e) => show_step(core.read(now, Err(e))),
                In::SendError => show_lost(core.send_failed()),
                In::Fail(kind) => show_lost(core.fail(kind)),
                In::TimeOut(id) => match core.time_out(id) {
                    Some((outcome, promoted)) => {
                        format!("{}{}", show_outcome(&outcome), show_promoted(promoted))
                    }
                    None => "racing".into(),
                },
                In::Redial => format!("epoch {}", core.redial()),
                In::Dialed(ok) => match core.dialed(now, ok) {
                    Resume::Replay(replay) => format!(
                        "replay {:?}",
                        replay.iter().map(|(q, t)| (q.id, *t)).collect::<Vec<_>>()
                    ),
                    Resume::Again(attempt) => format!("again {attempt}"),
                    Resume::GiveUp(Lost::Dead, _) => "drop the new link".into(),
                    Resume::GiveUp(lost, reason) => format!("{}: {reason}", show_lost(lost)),
                },
                In::Stop => {
                    core.stop();
                    "stopping".into()
                }
                In::Claim => format!("claim={}", core.farewell(now, now + 2) == Farewell::Read),
                In::Release => show_step(core.read(now, Err(tick()))),
                In::Reader => format!("reader={}", show_reader(core.reader)),
            });
        }
        out
    }

    /// What one read decided, as the tables spell it: a completion routed
    /// (and the role promoted, when it was the holder's own), an orphan, a
    /// lost link, a timeout, or the role given up.
    fn show_step((got, next): Step<u64>) -> String {
        let (own, promoted) = match next {
            Next::Leave(own, promoted) => (own, promoted),
            Next::TimedOut(id, promoted) => {
                return format!("timed out {id}{}", show_promoted(promoted))
            }
            Next::Read | Next::Redial(_) => (None, None),
        };
        match got {
            Got::Resolved(r) => {
                let outcome = r
                    .fill
                    .map(|(_, outcome)| outcome)
                    .or(own)
                    .expect("an outcome");
                format!(
                    "resolved {} {} trace={:#x} rtt=Some({}) wake={}{}",
                    r.query_id,
                    show_outcome(&outcome),
                    r.trace_id,
                    r.rtt_ns,
                    r.wake_issuer,
                    show_promoted(promoted)
                )
            }
            Got::Orphan(_) => "orphan".into(),
            Got::Lost(lost, ..) => show_lost(lost),
            _ => format!("release{}", show_promoted(promoted)),
        }
    }

    /// The heartbeat and `shutdown` both read as a watcher.
    fn show_reader(reader: Reader) -> String {
        match reader {
            Reader::Probe(_) | Reader::Goodbye(_) => "Watch".into(),
            other => format!("{other:?}"),
        }
    }

    /// A read that timed out: one heartbeat interval of silence.
    fn tick() -> WireError {
        WireError::Io(std::io::ErrorKind::WouldBlock.into())
    }

    fn corrupt() -> WireError {
        crate::frame::open(&[0, 0, 0, 0, 1]).expect_err("a CRC mismatch")
    }

    fn eof() -> WireError {
        WireError::Disconnected("eof".into())
    }

    /// DESIGN §3c's failure mapping, one row at a time, plus the window.
    #[test]
    fn client_decisions_follow_the_failure_mapping() {
        type Row = (&'static str, bool, Vec<(u64, In)>, &'static [&'static str]);
        let rows: Vec<Row> = vec![
            (
                "an errored reply resolves its query as errored; the window gates issues",
                false,
                vec![
                    (10, In::Issue(1)),
                    (20, In::Issue(2)),
                    (30, In::Issue(3)),
                    (90, In::Complete(1, true)),
                    (95, In::Unpark),
                    (96, In::Issue(3)),
                ],
                &[
                    "Send { read: true }",
                    "Send { read: false }",
                    "Wait",
                    "resolved 1 errored trace=0xaa rtt=Some(80) wake=true promote=2",
                    "parked=0",
                    "Send { read: false }",
                ],
            ),
            (
                "a corrupt frame fails the link as errored",
                false,
                vec![(0, In::Issue(1)), (5, In::ReadError(corrupt())), (6, In::Issue(2))],
                &["Send { read: true }", "failed Errored [1]", "Refuse(Errored)"],
            ),
            (
                "a protocol error fails the link as errored",
                false,
                vec![
                    (0, In::Issue(1)),
                    (5, In::ReadError(WireError::Protocol("bad tag".into()))),
                ],
                &["Send { read: true }", "failed Errored [1]"],
            ),
            (
                "EOF with no resume: the in-flight window vanishes",
                false,
                vec![(0, In::Issue(1)), (0, In::Issue(2)), (5, In::ReadError(eof()))],
                &["Send { read: true }", "Send { read: false }", "failed Vanished [1, 2]"],
            ),
            (
                "resume armed: sever, redial, replay in id order under the same trace ids",
                true,
                vec![
                    (0, In::Issue(2)),
                    (0, In::Issue(1)),
                    (5, In::ReadError(eof())),
                    (6, In::Issue(3)),
                    (7, In::SendError),
                    (8, In::Tick),
                    (9, In::Redial),
                    (9, In::Redial),
                    (50, In::Dialed(true)),
                    (60, In::Complete(1, false)),
                ],
                &[
                    "Send { read: true }",
                    "Send { read: false }",
                    "down severed=true",
                    "Wait",
                    "down severed=false",
                    "Skip",
                    "epoch 1",
                    "epoch 2",
                    "replay [(1, 170), (2, 169)]",
                    "resolved 1 completed trace=0xaa rtt=Some(60) wake=true",
                ],
            ),
            (
                "resume exhausted: the link dies as the first error said",
                true,
                vec![
                    (0, In::Issue(1)),
                    (5, In::ReadError(corrupt())),
                    (9, In::Redial),
                    (99, In::Fail(FailKind::Errored)),
                    (99, In::Dialed(true)),
                ],
                &[
                    "Send { read: true }",
                    "down severed=true",
                    "epoch 1",
                    "failed Errored [1]",
                    "drop the new link",
                ],
            ),
            (
                "heartbeat: a probe per tick, acks and completions keep it alive, the grace expiring fails it as errored",
                false,
                vec![
                    (0, In::Issue(1)),
                    (1_000, In::Tick),
                    (1_000, In::Judge),
                    (1_500, In::Heard),
                    (3_000, In::Tick),
                    (3_000, In::Judge),
                    (3_600, In::Tick),
                    (3_600, In::Judge),
                    (3_700, In::Tick),
                ],
                &[
                    "Send { read: true }",
                    "Probe { seq: 0, read: false }",
                    "alive",
                    "heard",
                    "Probe { seq: 1, read: false }",
                    "alive",
                    "Probe { seq: 2, read: false }",
                    "silent 2100: failed Errored [1]",
                    "Stop",
                ],
            ),
            (
                "heartbeat grace expiring with resume armed severs the link, once: a down link is not judged",
                true,
                vec![(2_001, In::Judge), (2_002, In::Judge), (2_003, In::Dialed(true))],
                &[
                    "silent 2001: down severed=true",
                    "not judged",
                    "replay []",
                ],
            ),
            (
                "a response timeout vanishes the query; its late reply is an orphan, counted once",
                false,
                vec![
                    (0, In::Issue(1)),
                    (10, In::TimeOut(1)),
                    (20, In::Complete(1, false)),
                    (30, In::Complete(1, false)),
                    (40, In::Issue(2)),
                    (50, In::Complete(2, false)),
                    (60, In::TimeOut(2)),
                ],
                &[
                    "Send { read: true }",
                    "vanished",
                    "orphan",
                    "orphan",
                    "Send { read: true }",
                    "resolved 2 completed trace=0xa9 rtt=Some(10) wake=false",
                    "racing",
                ],
            ),
            (
                "stopping disarms resume: the next loss fails the link",
                true,
                vec![(0, In::Issue(1)), (1, In::Stop), (2_001, In::Judge)],
                &["Send { read: true }", "stopping", "silent 2001: failed Errored [1]"],
            ),
            (
                "the first failure's kind wins",
                false,
                vec![
                    (0, In::Issue(1)),
                    (1, In::Fail(FailKind::Vanished)),
                    (2, In::Fail(FailKind::Errored)),
                    (3, In::ReadError(corrupt())),
                    (4, In::Issue(2)),
                    (5, In::Tick),
                ],
                &[
                    "Send { read: true }",
                    "failed Vanished [1]",
                    "dead",
                    "dead",
                    "Refuse(Vanished)",
                    "Stop",
                ],
            ),
        ];
        for (name, resume, script, want) in rows {
            assert_eq!(run_client(resume, script), want, "{name}");
        }
    }

    /// The read role (leader/follower): who reads the link, how it passes
    /// on, and who redials. Waiters are the query ids, in a window of four.
    #[test]
    fn the_read_role_passes_to_the_lowest_pending_waiter() {
        type Row = (&'static str, bool, Vec<(u64, In)>, &'static [&'static str]);
        let rows: Vec<Row> = vec![
            (
                "a lone issuer reads, and its own reply leaves nobody reading",
                false,
                vec![
                    (0, In::Issue(1)),
                    (1, In::Reader),
                    (5, In::Complete(1, false)),
                    (6, In::Reader),
                ],
                &[
                    "Send { read: true }",
                    "reader=Issuer(1)",
                    "resolved 1 completed trace=0xaa rtt=Some(5) wake=false",
                    "reader=Nobody",
                ],
            ),
            (
                "a second issuer waits; routing another's reply keeps the role; the holder's own promotes the lowest pending id",
                false,
                vec![
                    (0, In::Issue(7)),
                    (1, In::Issue(9)),
                    (2, In::Issue(8)),
                    (3, In::Reader),
                    (4, In::Complete(9, false)),
                    (5, In::Reader),
                    (6, In::Complete(7, false)),
                    (7, In::Reader),
                    (8, In::Complete(8, false)),
                    (9, In::Reader),
                ],
                &[
                    "Send { read: true }",
                    "Send { read: false }",
                    "Send { read: false }",
                    "reader=Issuer(7)",
                    "resolved 9 completed trace=0xa2 rtt=Some(3) wake=false",
                    "reader=Issuer(7)",
                    "resolved 7 completed trace=0xac rtt=Some(6) wake=false promote=8",
                    "reader=Issuer(8)",
                    "resolved 8 completed trace=0xa3 rtt=Some(6) wake=false",
                    "reader=Nobody",
                ],
            ),
            (
                "a holder whose response deadline passes releases the role and promotes; a waiter's does not move it",
                false,
                vec![
                    (0, In::Issue(1)),
                    (0, In::Issue(2)),
                    (0, In::Issue(3)),
                    (9, In::TimeOut(1)),
                    (9, In::Reader),
                    (9, In::TimeOut(3)),
                    (9, In::Reader),
                    (9, In::TimeOut(2)),
                    (9, In::Reader),
                ],
                &[
                    "Send { read: true }",
                    "Send { read: false }",
                    "Send { read: false }",
                    "vanished promote=2",
                    "reader=Issuer(2)",
                    "vanished",
                    "reader=Issuer(2)",
                    "vanished",
                    "reader=Nobody",
                ],
            ),
            (
                "a loss while the role is held hands the redial to the holder",
                true,
                vec![
                    (0, In::Issue(1)),
                    (0, In::Issue(2)),
                    (1, In::SendError),
                    (2, In::Reader),
                    (3, In::Tick),
                    (4, In::ReadError(eof())),
                    (5, In::Redial),
                    (6, In::Dialed(true)),
                    (7, In::Reader),
                ],
                &[
                    "Send { read: true }",
                    "Send { read: false }",
                    "down severed=true",
                    "reader=Issuer(1)",
                    "Skip",
                    "down severed=false",
                    "epoch 1",
                    "replay [(1, 170), (2, 169)]",
                    "reader=Issuer(1)",
                ],
            ),
            (
                "a link lost while nobody reads is read, and redialed, by the heartbeat",
                true,
                vec![
                    (2_001, In::Judge),
                    (2_001, In::Reader),
                    (2_002, In::Tick),
                    (2_002, In::Reader),
                    (2_003, In::Issue(1)),
                ],
                &[
                    "silent 2001: down severed=true",
                    "reader=Nobody",
                    "Probe { seq: 0, read: true }",
                    "reader=Watch",
                    "Send { read: false }",
                ],
            ),
            (
                "a dead link assigns no role",
                false,
                vec![
                    (0, In::Issue(1)),
                    (1, In::Fail(FailKind::Errored)),
                    (2, In::Reader),
                    (3, In::Claim),
                    (4, In::Tick),
                    (5, In::Issue(2)),
                    (6, In::Release),
                    (7, In::Reader),
                ],
                &[
                    "Send { read: true }",
                    "failed Errored [1]",
                    "reader=Nobody",
                    "claim=false",
                    "Stop",
                    "Refuse(Errored)",
                    "release",
                    "reader=Nobody",
                ],
            ),
            (
                "the heartbeat and shutdown get the role only when it is free, and pass it on",
                false,
                vec![
                    (0, In::Tick),
                    (1, In::Reader),
                    (2, In::Issue(1)),
                    (3, In::Tick),
                    (4, In::Claim),
                    (5, In::Release),
                    (6, In::Reader),
                    (7, In::Complete(1, false)),
                    (8, In::Claim),
                    (9, In::Tick),
                    (10, In::Release),
                    (11, In::Reader),
                ],
                &[
                    "Probe { seq: 0, read: true }",
                    "reader=Watch",
                    "Send { read: false }",
                    "Probe { seq: 1, read: false }",
                    "claim=false",
                    "release promote=1",
                    "reader=Issuer(1)",
                    "resolved 1 completed trace=0xaa rtt=Some(5) wake=false",
                    "claim=true",
                    "Probe { seq: 2, read: false }",
                    "release",
                    "reader=Nobody",
                ],
            ),
        ];
        for (name, resume, script, want) in rows {
            assert_eq!(run_client_in(4, resume, script), want, "{name}");
        }
    }

    /// What the read role's holder reads for, and the redial sequence:
    /// its own deadline, the policy's attempts, and a stopping client.
    #[test]
    fn the_holder_reads_until_its_purpose_is_met_and_redials_as_the_policy_allows() {
        type Row = (&'static str, bool, Vec<(u64, In)>, &'static [&'static str]);
        let rows: Vec<Row> = vec![
            (
                "a holder whose own response deadline passes while it reads times its query out",
                false,
                vec![
                    (0, In::Issue(1)),
                    (5, In::Issue(2)),
                    (1_000, In::Heard),
                    (TIMEOUT_NS - 1, In::Complete(2, false)),
                    (TIMEOUT_NS, In::Heard),
                    (TIMEOUT_NS + 1, In::Reader),
                ],
                &[
                    "Send { read: true }",
                    "Send { read: false }",
                    "heard",
                    "resolved 2 completed trace=0xa9 rtt=Some(9999999994) wake=false",
                    "heard",
                    "reader=Nobody",
                ],
            ),
            (
                "a tick past the deadline times out the holder (alive) and promotes the next waiter",
                false,
                vec![
                    (0, In::Issue(1)),
                    (5, In::Issue(2)),
                    (TIMEOUT_NS - 1, In::Heard),
                    (TIMEOUT_NS, In::Release),
                    (TIMEOUT_NS, In::Reader),
                ],
                &[
                    "Send { read: true }",
                    "Send { read: false }",
                    "heard",
                    "timed out 1 promote=2",
                    "reader=Issuer(2)",
                ],
            ),
            (
                "every failed attempt is followed by the next, until the attempts are spent",
                true,
                vec![
                    (0, In::Issue(1)),
                    (5, In::ReadError(eof())),
                    (6, In::Redial),
                    (7, In::Dialed(false)),
                    (8, In::Redial),
                    (9, In::Dialed(false)),
                    (10, In::Redial),
                    (11, In::Dialed(false)),
                    (12, In::Issue(2)),
                ],
                &[
                    "Send { read: true }",
                    "down severed=true",
                    "epoch 1",
                    "again 2",
                    "epoch 2",
                    "again 3",
                    "epoch 3",
                    "failed Vanished [1]: resume failed after 3 attempts: read failed: wire disconnected: eof",
                    "Refuse(Vanished)",
                ],
            ),
            (
                "a stopping client's read error is close's to settle; a redial gives up",
                true,
                vec![
                    (0, In::Issue(1)),
                    (1, In::Stop),
                    (2, In::ReadError(eof())),
                    (3, In::Reader),
                    (4, In::Dialed(true)),
                ],
                &[
                    "Send { read: true }",
                    "stopping",
                    "release",
                    "reader=Issuer(1)",
                    "failed Vanished [1]: resume failed after 3 attempts: link lost",
                ],
            ),
        ];
        for (name, resume, script, want) in rows {
            assert_eq!(run_client_with(3, 4, resume, script), want, "{name}");
        }
    }

    /// The handshake's reply, against a response timeout of 10 ms: a tick
    /// reads on until the timeout, which fails the dial, so a peer that
    /// accepts and never answers cannot hang `connect` or a redial.
    #[test]
    fn the_handshake_takes_its_reply_or_gives_up_at_the_response_timeout() {
        let ms = 1_000_000;
        let ack = |version| Message::HelloAck {
            version,
            sut_name: "sut".into(),
            max_in_flight: 4,
        };
        let rows: Vec<(u64, Result<Message, WireError>, &str)> = vec![
            (ms, Ok(ack(PROTOCOL_VERSION)), "Ok(Some(\"sut\"))"),
            (0, Err(tick()), "Ok(None)"),
            (10 * ms - 1, Err(tick()), "Ok(None)"),
            (
                10 * ms,
                Err(tick()),
                "wire disconnected: no handshake reply within 10 ms",
            ),
            (ms, Ok(ack(2)), "wire version mismatch: ours v3, peer v2"),
            (
                ms,
                Ok(Message::Reject {
                    reason: "full".into(),
                }),
                "handshake rejected: full",
            ),
            (
                ms,
                Ok(Message::Goodbye { served: 0 }),
                "wire protocol error: expected HelloAck, got Goodbye",
            ),
            (ms, Err(eof()), "wire disconnected: eof"),
        ];
        for (waited_ns, got, want) in rows {
            let decided = match ClientCore::<u64>::handshake(waited_ns, 10 * ms, got) {
                Ok(name) => format!("Ok({name:?})"),
                Err(e) => e.to_string(),
            };
            assert_eq!(decided, want, "after {waited_ns} ns");
        }
    }

    /// One scripted session input.
    enum S {
        Issue(u64),
        Served(u64, Option<bool>),
        Settled,
        Drain,
        Unpark,
    }

    fn run_session(core: &mut SessionCore, script: Vec<S>) -> Vec<String> {
        let reply = |error: bool| (error, Vec::new());
        script
            .into_iter()
            .map(|input| match input {
                S::Issue(id) => format!("{:?}", core.issue(id)),
                S::Served(id, answer) => {
                    core.served(id, answer.map(reply));
                    format!("outstanding={}", core.outstanding())
                }
                S::Settled => format!("wake={}", core.settled()),
                S::Drain => format!("goodbye={}", core.drain()),
                S::Unpark => {
                    core.unpark_drainer();
                    format!("drainers={}", core.drainers)
                }
            })
            .collect()
    }

    #[test]
    fn attach_is_fresh_at_epoch_zero_else_resume_or_adopt() {
        assert_eq!(SessionCore::attach(0, false), Attach::Fresh);
        assert_eq!(SessionCore::attach(0, true), Attach::Fresh);
        assert_eq!(SessionCore::attach(3, true), Attach::Resume);
        assert_eq!(SessionCore::attach(3, false), Attach::Adopt);
    }

    #[test]
    fn issues_run_fresh_replay_from_the_journal_or_skip_in_progress() {
        let mut recovered = CompletionMap::new();
        recovered.insert(7, (true, Vec::new()));
        let mut core = SessionCore::new(recovered);
        let decisions = run_session(
            &mut core,
            vec![
                S::Issue(1),
                S::Issue(1),
                S::Issue(7),
                S::Served(1, Some(false)),
                S::Issue(1),
                S::Settled,
                S::Issue(2),
                S::Served(2, None),
                S::Settled,
                S::Issue(2),
            ],
        );
        assert_eq!(
            decisions,
            [
                "Fresh",
                "Skip",
                "Replay(true, [])",
                "outstanding=1",
                "Replay(false, [])",
                "wake=false",
                "Fresh",
                "outstanding=1",
                "wake=false",
                // Swallowed, so not journaled: a replay runs again.
                "Fresh",
            ]
        );
    }

    /// No lost wake-up between the last completion and a parked drainer:
    /// only the settle that brings the count to zero wakes it, and only
    /// because it is parked.
    #[test]
    fn a_drainer_parked_before_the_last_completion_is_woken_by_it() {
        let mut core = SessionCore::default();
        let decisions = run_session(
            &mut core,
            vec![
                S::Issue(1),
                S::Issue(2),
                S::Drain,
                S::Served(1, Some(false)),
                S::Settled,
                S::Served(2, Some(false)),
                S::Settled,
                S::Unpark,
                S::Drain,
            ],
        );
        assert_eq!(
            decisions,
            [
                "Fresh",
                "Fresh",
                "goodbye=false",
                "outstanding=2",
                "wake=false",
                "outstanding=1",
                "wake=true",
                "drainers=0",
                "goodbye=true",
            ]
        );
        assert_eq!(core.outstanding(), 0);
    }

    /// A settle with nobody parked wakes nobody: no futex call for nobody.
    #[test]
    fn a_settle_with_no_drainer_wakes_nobody() {
        let mut core = SessionCore::default();
        let decisions = run_session(&mut core, vec![S::Issue(1), S::Settled, S::Drain]);
        assert_eq!(decisions, ["Fresh", "wake=false", "goodbye=true"]);
    }

    /// A connection's first frame and every later one, as the daemon's core
    /// routes them: the handshake, the probes, the drain, and each way a
    /// connection ends, with the wire event that names a misbehaving client.
    #[test]
    fn a_connection_opens_and_closes_as_the_session_core_says() {
        let hello = |version| {
            let mut hello = match crate::message::tests::sample_messages().remove(0) {
                Message::Hello(hello) => hello,
                other => panic!("{other:?}"),
            };
            hello.version = version;
            Message::Hello(hello)
        };
        let open = |got| match SessionCore::open(got) {
            Open::Hello(h) => format!("hello v{}", h.version),
            Open::Stats => "stats".into(),
            Open::Reject { event, reason } => format!("reject ({event}): {reason}"),
            Open::Close(None) => "close".into(),
            Open::Close(Some((kind, detail))) => format!("close {kind}: {detail}"),
        };
        assert_eq!(open(Ok(hello(PROTOCOL_VERSION))), "hello v3");
        assert_eq!(
            open(Ok(hello(2))),
            "reject (version mismatch: client v2): protocol version mismatch: server v3, client v2"
        );
        assert_eq!(open(Ok(Message::StatsRequest)), "stats");
        assert_eq!(open(Ok(Message::Drain)), "close");
        assert_eq!(open(Err(eof())), "close");
        assert_eq!(
            open(Err(WireError::Io(std::io::ErrorKind::WouldBlock.into()))),
            "close handshake_timeout: no first frame before the handshake deadline"
        );

        let frame = |got| match SessionCore::frame(got) {
            Conn::Issue(q, trace) => format!("issue {} trace={trace}", q.id),
            Conn::Probe { seq, t0 } => format!("probe {seq} {t0}"),
            Conn::Ignore => "ignore".into(),
            Conn::Drain => "drain".into(),
            Conn::Close(None) => "close".into(),
            Conn::Close(Some((kind, detail))) => format!("close {kind}: {detail}"),
        };
        let rows: Vec<(Result<Message, WireError>, &str)> = vec![
            (
                Ok(Message::IssueTraced {
                    trace_id: 9,
                    query: query(4),
                }),
                "issue 4 trace=9",
            ),
            (Ok(Message::ClockProbe { seq: 2, t0: 7 }), "probe 2 7"),
            (Ok(hello(PROTOCOL_VERSION)), "ignore"),
            (Ok(Message::Drain), "drain"),
            (Ok(Message::Goodbye { served: 1 }), "close"),
            (
                Ok(Message::HeartbeatAck { seq: 0 }),
                "close protocol_error: unexpected message from client: HeartbeatAck",
            ),
            (
                Err(WireError::Protocol("unknown tag 99".into())),
                "close protocol_error: protocol error: unknown tag 99",
            ),
            (Err(eof()), "close"),
        ];
        for (got, want) in rows {
            assert_eq!(frame(got), want);
        }
        let corrupt = frame(Err(corrupt()));
        assert!(
            corrupt.starts_with("close corrupt_frame: corrupt frame: "),
            "{corrupt}"
        );
    }

    /// A restarted daemon reads back what its journal's frames say, and
    /// only the completions.
    #[test]
    fn a_journal_is_recovered_from_its_completion_frames() {
        let mut recovered = CompletionMap::new();
        for frame in crate::message::tests::sample_messages()
            .iter()
            .map(Message::to_wire)
            .chain([vec![0, 1, 2]])
        {
            SessionCore::recover(&mut recovered, &frame);
        }
        let want: CompletionMap = crate::message::tests::sample_messages()
            .into_iter()
            .filter_map(|m| match m {
                Message::Completion {
                    query_id,
                    error,
                    samples,
                } => Some((query_id, (error, samples))),
                _ => None,
            })
            .collect();
        assert!(!want.is_empty());
        assert_eq!(recovered, want);
    }
}

/// The whole wire protocol, simulated on one thread in virtual time: one
/// [`ClientCore`] and one [`SessionCore`], driven exactly as `client.rs` and
/// `server.rs` drive them — issuers that read their own replies or wait on
/// a slot, a heartbeat that probes, judges and reads an idle link, a holder
/// that redials and replays, `shutdown`'s drain and goodbye, a daemon
/// connection per dial, a service, and drains — joined by a seeded
/// in-memory link that carries real sealed `frame.rs` bytes and applies a
/// [`WireChaosPlan`]'s six fault kinds (corrupt, truncate, duplicate,
/// delay, partition, disconnect) at either end, plus dials that are
/// refused or answered by a silent listener, and a daemon that dies and
/// restarts from its journal file (less an unsynced tail).
///
/// Each seed draws 1–8 issuers, a window of 1–4, resume on or off, inline
/// or pooled serving, and its faults, and asserts: every query resolves
/// exactly once, with the outcome the failure mapping prescribes (a reply
/// is the service's own answer for that id; a failed link resolves with the
/// first failure's kind, which is the kind its cause maps to; a timeout is
/// `Vanished` and only after the deadline); no replay re-runs a journaled
/// id; while a waiter is pending on a link that is not dead, someone holds
/// the read role, and a promotion goes to the lowest pending id; a silence
/// is judged only on a live link; epochs only grow; a restarted daemon
/// recovers exactly what its journal file holds; and the run ends, with
/// nothing due while a waiter waits, before its horizon. A failing seed is
/// printed with its draw, and becomes a row of [`PINNED`].
#[cfg(test)]
mod sim {
    use super::*;
    use crate::transport::WireChaosPlan;
    use mlperf_loadgen::query::QuerySample;
    use mlperf_loadgen::time::Nanos;
    use mlperf_stats::rng::splitmix64;
    use std::collections::VecDeque;
    use std::time::Duration;

    const MS: u64 = 1_000_000;
    /// The heartbeat interval, and the read half's timeout.
    const INTERVAL: u64 = 10 * MS;
    const GRACE: u64 = 45 * MS;
    const TIMEOUT: u64 = 250 * MS;
    const BACKOFF: u64 = 3 * MS;
    const ATTEMPTS: u32 = 3;
    const GOODBYE_WAIT: u64 = 2_000 * MS;
    /// `shutdown`'s poll while someone else reads for the goodbye.
    const FAREWELL_POLL: u64 = 20 * MS;
    /// A run still going at this virtual time hangs.
    const HORIZON: u64 = 600_000 * MS;
    const SEEDS: u64 = 10_000;

    /// Seeds that caught a deliberately broken core, each with the break
    /// (mutations made in a copy of this file), plus any seed that ever
    /// fails; they run first, every time.
    const PINNED: &[(u64, &str)] = &[
        (
            0,
            "a promotion that skipped the lowest pending id left it unread",
        ),
        (
            0,
            "a judge of a link that was not up reported a second silence",
        ),
        (1, "a later failure's kind overwrote the first one's"),
        (1, "a promotion skipped the lowest pending id"),
        (23, "a replay re-ran a journaled id"),
        (
            83,
            "a restarted daemon recovered only the clean completions",
        ),
    ];

    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = splitmix64(self.0);
            self.0 % n
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }
    }

    /// One seed's draw.
    #[derive(Debug)]
    struct Setup {
        issuers: usize,
        each: u64,
        window: u32,
        resume: bool,
        inline: bool,
        abandon: bool,
        latency: u64,
        /// The client's and the daemon's plans (armed on the first
        /// connection only, as `ChaosSession::wrap` arms them).
        plans: [WireChaosPlan; 2],
        refused_dials: u32,
        silent_dials: u32,
        /// When the daemon dies and restarts, keeping its journal file but
        /// for an unsynced tail of this many frames.
        restart: Option<(u64, usize)>,
    }

    fn plan(seed: u64, r: &mut Rng) -> WireChaosPlan {
        let n = 1 + r.below(12);
        let plan = WireChaosPlan::new(seed);
        match r.below(8) {
            0 => plan.with_corrupt_recv_at(n),
            1 => plan.with_truncate_recv_at(n),
            2 => plan.with_duplicate_send(0.3),
            3 => plan.with_delay_recv(Duration::from_nanos(r.below(4 * MS))),
            4 => plan.with_partition_send_after(n),
            5 => plan.with_disconnect_after_send(n),
            6 => {
                let mut plan = plan;
                plan.partition_recv_after = Some(n);
                plan
            }
            _ => plan,
        }
    }

    fn setup(seed: u64) -> Setup {
        let mut r = Rng(seed ^ 0x5151_7e57);
        let client = plan(seed, &mut r);
        let server = if r.chance(25) {
            plan(seed ^ 1, &mut r)
        } else {
            WireChaosPlan::new(seed)
        };
        let resume = r.chance(50);
        Setup {
            issuers: 1 + r.below(8) as usize,
            each: 1 + r.below(3),
            window: 1 + r.below(4) as u32,
            resume,
            inline: r.chance(50),
            abandon: r.chance(20),
            latency: 50_000 + r.below(400_000),
            plans: [client, server],
            refused_dials: if resume { r.below(3) as u32 } else { 0 },
            silent_dials: if resume && r.chance(20) { 1 } else { 0 },
            restart: r
                .chance(15)
                .then(|| (2 * MS + r.below(60 * MS), r.below(3) as usize)),
        }
    }

    /// The service's answer for a query: swallowed (`None`), errored, or
    /// its own sample back; and how long it takes.
    fn answer(seed: u64, id: u64) -> (Option<bool>, u64) {
        let h = splitmix64(seed ^ splitmix64(id));
        let reply = match h % 20 {
            0 => None,
            1 | 2 => Some(true),
            _ => Some(false),
        };
        (reply, (h >> 8) % (3 * MS))
    }

    fn samples(id: u64) -> Vec<SampleCompletion> {
        vec![SampleCompletion {
            sample_id: id,
            payload: Default::default(),
        }]
    }

    fn query(id: u64) -> Query {
        Query {
            id,
            samples: vec![QuerySample { id, index: 0 }],
            scheduled_at: Nanos::ZERO,
            tenant: 0,
        }
    }

    /// How a query's outcome was decided.
    #[derive(Debug, Clone, Copy)]
    enum How {
        Reply,
        Failed(FailKind),
        TimedOut,
    }

    enum Slot {
        Outcome(IssueOutcome, How),
        Read,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Is {
        Start(u64),
        Parked,
        /// Waiting on its slot until this deadline.
        Waiting(u64),
        Holding,
        Done,
    }

    struct Issuer {
        issued: u64,
        /// The query in flight and when it was issued.
        query: Option<(u64, u64)>,
        state: Is,
        slot: Option<Slot>,
        /// A window notify reached it while parked.
        woken: bool,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Party {
        Issuer(usize),
        Beat,
        Bye,
    }

    #[derive(Debug, Clone, Copy)]
    enum Role {
        Read(u64),
        /// Asleep until the next redial attempt.
        Backoff(u64),
        Handshake {
            pipe: usize,
            sent: u64,
            since: u64,
        },
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Bye {
        Running,
        Farewell { deadline: u64, at: u64 },
        Closed,
    }

    /// One TCP connection, by its ends.
    struct Pipe {
        client_open: bool,
        server_open: bool,
        /// The daemon read its handshake, at this epoch.
        hello: Option<u32>,
        /// A listener that never accepts: the kernel connected, nobody
        /// answers.
        silent: bool,
        /// An inline-served query holds the connection thread until then.
        busy_until: u64,
    }

    struct Frame {
        at: u64,
        pipe: usize,
        bytes: Vec<u8>,
    }

    /// One endpoint's chaos counters (`ChaosState`).
    #[derive(Default)]
    struct Chaos {
        sent: u64,
        recvd: u64,
        send_partitioned: bool,
        recv_partitioned: bool,
        disconnect_fired: bool,
    }

    const CLIENT: usize = 0;
    const SERVER: usize = 1;

    struct World {
        seed: u64,
        s: Setup,
        now: u64,
        core: ClientCore<usize>,
        issuers: Vec<Issuer>,
        holder: Option<(Party, Role)>,
        beat_at: Option<u64>,
        bye: Bye,
        stopping: bool,
        pipes: Vec<Pipe>,
        read_pipe: usize,
        write_pipe: usize,
        /// Frames in flight, by the end that receives them.
        to: [VecDeque<Frame>; 2],
        chaos: [Chaos; 2],
        session: SessionCore,
        /// Whether the daemon holds the session (a restart forgets it).
        live: bool,
        /// The session's journal file: each query id and its sealed
        /// `Completion` frame.
        disk: Vec<(u64, Vec<u8>)>,
        writer: Option<(u32, usize)>,
        serving: Vec<(u64, u64, usize)>,
        drainer: Option<usize>,
        refused: u32,
        silent: u32,
        decided: HashSet<u64>,
        pending: HashSet<u64>,
        journaled: HashSet<u64>,
        first_kind: Option<FailKind>,
        /// The kind the read error that took the link down maps to.
        outage: FailKind,
        client_epoch: u32,
        server_epoch: Option<u32>,
    }

    type Checked = Result<(), String>;

    fn fail_if(bad: bool, what: impl FnOnce() -> String) -> Checked {
        if bad {
            Err(what())
        } else {
            Ok(())
        }
    }

    /// The kind the failure mapping gives a read's input: EOF or a reset
    /// vanishes; a tick's judged silence, a corrupt frame and a protocol
    /// violation are errors.
    fn mapped(got: &Result<Message, WireError>) -> FailKind {
        match got {
            Err(e) if timed_out(e) => FailKind::Errored,
            Err(WireError::Io(_) | WireError::Disconnected(_)) => FailKind::Vanished,
            _ => FailKind::Errored,
        }
    }

    impl World {
        fn new(seed: u64) -> Self {
            let s = setup(seed);
            let config = RemoteSutConfig {
                max_in_flight: s.window,
                response_timeout: Duration::from_nanos(TIMEOUT),
                heartbeat_interval: Duration::from_nanos(INTERVAL),
                heartbeat_grace: Duration::from_nanos(GRACE),
                resume: s.resume.then_some(crate::client::ResumePolicy {
                    max_attempts: ATTEMPTS,
                    backoff: Duration::from_nanos(BACKOFF),
                }),
                ..RemoteSutConfig::default()
            };
            let issuers = (0..s.issuers)
                .map(|i| Issuer {
                    issued: 0,
                    query: None,
                    state: Is::Start(i as u64 * 100_000),
                    slot: None,
                    woken: false,
                })
                .collect();
            let pipe = |hello| Pipe {
                client_open: true,
                server_open: true,
                hello,
                silent: false,
                busy_until: 0,
            };
            World {
                seed,
                now: 0,
                core: ClientCore::new(0, &config),
                issuers,
                holder: None,
                beat_at: Some(INTERVAL),
                bye: Bye::Running,
                stopping: false,
                // Pipe 0 is the dead placeholder; pipe 1, the first dial,
                // handshook at epoch 0 before the run starts.
                pipes: vec![pipe(None), pipe(Some(0))],
                read_pipe: 1,
                write_pipe: 1,
                to: [VecDeque::new(), VecDeque::new()],
                chaos: [Chaos::default(), Chaos::default()],
                session: SessionCore::new(CompletionMap::new()),
                live: true,
                disk: Vec::new(),
                writer: Some((0, 1)),
                serving: Vec::new(),
                drainer: None,
                refused: s.refused_dials,
                silent: s.silent_dials,
                decided: HashSet::new(),
                pending: HashSet::new(),
                journaled: HashSet::new(),
                first_kind: None,
                outage: FailKind::Vanished,
                client_epoch: 0,
                server_epoch: Some(0),
                s,
            }
        }

        // --- the link ---------------------------------------------------

        /// `side` sends `msg` on `pipe`, through its chaos plan.
        fn transmit(&mut self, side: usize, pipe: usize, msg: &Message) {
            let bytes = msg.to_wire();
            let plan = &self.s.plans[side];
            let armed = pipe == 1 && plan.is_armed();
            let c = &mut self.chaos[side];
            c.sent += 1;
            let frame = c.sent;
            if armed && (c.send_partitioned || plan.partition_send_after.is_some_and(|n| frame > n))
            {
                c.send_partitioned = true;
                return;
            }
            let copies = if armed
                && plan.duplicate_send_prob > 0.0
                && splitmix64(self.seed ^ frame ^ 0xD0B) % 10 < 3
            {
                2
            } else {
                1
            };
            let delay = match &self.s.plans[1 - side] {
                p if pipe == 1 && p.is_armed() => p.delay_recv.map_or(0, |d| d.as_nanos() as u64),
                _ => 0,
            };
            for _ in 0..copies {
                let last = self.to[1 - side].back().map_or(0, |f| f.at);
                let at = last.max(self.now + self.s.latency + delay);
                let bytes = bytes.clone();
                self.to[1 - side].push_back(Frame { at, pipe, bytes });
            }
            let c = &mut self.chaos[side];
            if armed
                && plan.disconnect_after_send.is_some_and(|n| frame >= n)
                && !c.disconnect_fired
            {
                c.disconnect_fired = true;
                if side == CLIENT {
                    self.pipes[pipe].client_open = false;
                } else {
                    self.server_close(pipe);
                }
            }
        }

        /// `side` receives one frame of `pipe`'s: `None` when its plan
        /// discards it (a partition), else the decoded message or error.
        fn receive(&mut self, side: usize, at: usize) -> Option<Result<Message, WireError>> {
            let Frame {
                pipe, mut bytes, ..
            } = self.to[side].remove(at).expect("a frame");
            let plan = &self.s.plans[side];
            let c = &mut self.chaos[side];
            c.recvd += 1;
            let frame = c.recvd;
            if pipe == 1 && plan.is_armed() {
                if c.recv_partitioned || plan.partition_recv_after.is_some_and(|n| frame > n) {
                    c.recv_partitioned = true;
                    return None;
                }
                if plan.truncate_recv_at == Some(frame) {
                    bytes.truncate(bytes.len() / 2);
                }
                if plan.corrupt_recv_at == Some(frame) {
                    let at = splitmix64(self.seed ^ frame) as usize % bytes.len();
                    bytes[at] ^= 0x20;
                }
            }
            Some(Message::from_wire(&bytes))
        }

        /// When the client's next read of `pipe`, begun at `since`, ends,
        /// and with which frame (`None`: EOF or a timeout, by the time).
        fn client_read_at(&mut self, pipe: usize, since: u64) -> (u64, Option<usize>) {
            self.to[CLIENT].retain(|f| f.pipe >= pipe);
            if !self.pipes[pipe].client_open {
                return (self.now, None);
            }
            match self.to[CLIENT].iter().position(|f| f.pipe == pipe) {
                Some(i) if self.to[CLIENT][i].at <= since + INTERVAL => {
                    (self.to[CLIENT][i].at.max(self.now), Some(i))
                }
                None if !self.pipes[pipe].server_open => (self.now, None),
                _ => (since + INTERVAL, None),
            }
        }

        /// The client reads `pipe`: a frame, a tick, or EOF; `None` while
        /// a partition discards what arrives.
        fn client_read(&mut self, pipe: usize, since: u64) -> Option<Result<Message, WireError>> {
            match self.client_read_at(pipe, since) {
                (_, Some(i)) => self.receive(CLIENT, i),
                _ if !self.pipes[pipe].client_open || !self.pipes[pipe].server_open => {
                    Some(Err(WireError::Disconnected("eof".into())))
                }
                _ => Some(Err(WireError::Io(std::io::ErrorKind::WouldBlock.into()))),
            }
        }

        // --- the client's driver ------------------------------------------

        fn client_send(&mut self, msg: &Message) -> Checked {
            let pipe = self.write_pipe;
            if !self.pipes[pipe].client_open {
                let lost = self.core.send_failed();
                return self.settle(lost, FailKind::Vanished);
            }
            self.transmit(CLIENT, pipe, msg);
            Ok(())
        }

        /// `ClientShared::settle`, checking the kind against the mapping.
        fn settle(&mut self, lost: Lost<usize>, expect: FailKind) -> Checked {
            match lost {
                Lost::Dead | Lost::Down { severed: false } => Ok(()),
                Lost::Down { severed: true } => {
                    self.pipes[self.write_pipe].client_open = false;
                    self.notify_all();
                    Ok(())
                }
                Lost::Failed(kind, waiters) => {
                    fail_if(kind != expect, || {
                        format!("link failed {kind:?}, mapped {expect:?}")
                    })?;
                    fail_if(self.first_kind.is_some(), || "link failed twice".into())?;
                    self.first_kind = Some(kind);
                    for i in waiters {
                        self.decide(i, kind.outcome(), How::Failed(kind))?;
                    }
                    self.notify_all();
                    Ok(())
                }
            }
        }

        fn notify_all(&mut self) {
            for issuer in &mut self.issuers {
                issuer.woken = true;
            }
        }

        /// The core decided issuer `i`'s query: exactly once, and only a
        /// query that is in flight.
        fn decide(&mut self, i: usize, outcome: IssueOutcome, how: How) -> Checked {
            let Some((id, _)) = self.issuers[i].query else {
                return Err(format!("resolved issuer {i}, which has nothing in flight"));
            };
            fail_if(!self.decided.insert(id), || {
                format!("query {id} resolved twice")
            })?;
            self.pending.remove(&id);
            self.issuers[i].slot = Some(Slot::Outcome(outcome, how));
            Ok(())
        }

        /// The promoted waiter must be the lowest pending id.
        fn promote(&mut self, promoted: Option<usize>) -> Checked {
            let Some(i) = promoted else { return Ok(()) };
            let id = self.issuers[i].query.map(|(id, _)| id);
            let lowest = self.pending.iter().min().copied();
            fail_if(id != lowest, || {
                format!("promoted {id:?}, lowest pending {lowest:?}")
            })?;
            if self.issuers[i].slot.is_none() {
                self.issuers[i].slot = Some(Slot::Read);
            }
            Ok(())
        }

        /// `ClientShared::carry_out`.
        fn carry_out(&mut self, got: Got<usize>, was_up: bool, expect: FailKind) -> Checked {
            match got {
                Got::Resolved(r) => {
                    if r.wake_issuer {
                        if let Some(parked) =
                            self.issuers.iter_mut().find(|i| i.state == Is::Parked)
                        {
                            parked.woken = true;
                        }
                    }
                    match r.fill {
                        Some((i, outcome)) => self.decide(i, outcome, How::Reply),
                        None => Ok(()),
                    }
                }
                Got::Lost(lost, note, _) => {
                    let judged = matches!(note, Some(("heartbeat_loss", _)));
                    fail_if(judged && !was_up, || "judged a link that was not up".into())?;
                    self.settle(lost, expect)
                }
                _ => Ok(()),
            }
        }

        /// Issuer `i` resolves its query as the core decided.
        fn resolve(&mut self, i: usize, outcome: IssueOutcome, how: How) -> Checked {
            let (id, issued) = self.issuers[i].query.take().expect("in flight");
            let (reply, _) = answer(self.seed, id);
            let held = match (how, &outcome) {
                (How::Reply, IssueOutcome::Errored) => reply == Some(true),
                (How::Reply, IssueOutcome::Completed(s)) => {
                    reply == Some(false) && *s == samples(id)
                }
                (How::Failed(kind), outcome) => {
                    Some(kind) == self.first_kind && *outcome == kind.outcome()
                }
                (How::TimedOut, IssueOutcome::Vanished) => self.now >= issued + TIMEOUT,
                _ => false,
            };
            fail_if(!held, || format!("query {id}: {outcome:?} by {how:?}"))?;
            let issuer = &mut self.issuers[i];
            issuer.slot = None;
            issuer.state = if issuer.issued < self.s.each {
                Is::Start(self.now)
            } else {
                Is::Done
            };
            Ok(())
        }

        fn issue(&mut self, i: usize) -> Checked {
            if self.issuers[i].state == Is::Parked {
                self.core.unpark_issuer();
            }
            let issuer = &mut self.issuers[i];
            issuer.woken = false;
            let id = issuer.issued * self.s.issuers as u64 + i as u64;
            let q = query(id);
            match self.core.issue(self.now, &q, id ^ 0xAB, &i) {
                Admit::Wait => issuer.state = Is::Parked,
                Admit::Refuse(kind) => {
                    issuer.issued += 1;
                    issuer.query = Some((id, self.now));
                    fail_if(Some(kind) != self.first_kind, || {
                        format!("refused as {kind:?}")
                    })?;
                    self.decided.insert(id);
                    return self.resolve(i, kind.outcome(), How::Failed(kind));
                }
                Admit::Send { read } => {
                    issuer.issued += 1;
                    issuer.query = Some((id, self.now));
                    issuer.state = Is::Waiting(self.now + TIMEOUT);
                    self.pending.insert(id);
                    if read {
                        issuer.state = Is::Holding;
                        self.holder = Some((Party::Issuer(i), Role::Read(self.now)));
                    }
                    let trace_id = id ^ 0xAB;
                    self.client_send(&Message::IssueTraced { trace_id, query: q })?;
                }
            }
            Ok(())
        }

        /// Issuer `i`, waiting, takes its slot or times out.
        fn wait(&mut self, i: usize) -> Checked {
            match self.issuers[i].slot.take() {
                Some(Slot::Outcome(outcome, how)) => self.resolve(i, outcome, how),
                Some(Slot::Read) => {
                    self.issuers[i].state = Is::Holding;
                    self.holder = Some((Party::Issuer(i), Role::Read(self.now)));
                    Ok(())
                }
                None => {
                    let (id, _) = self.issuers[i].query.expect("in flight");
                    let Some((outcome, promoted)) = self.core.time_out(id) else {
                        return Err(format!("query {id}: no reply coming, yet none routed"));
                    };
                    fail_if(!self.decided.insert(id), || {
                        format!("query {id} resolved twice")
                    })?;
                    self.pending.remove(&id);
                    self.promote(promoted)?;
                    self.notify_all();
                    self.resolve(i, outcome, How::TimedOut)
                }
            }
        }

        /// The holder's party after `hold` returned.
        fn released(&mut self, party: Party, own: Option<(IssueOutcome, How)>) -> Checked {
            self.holder = None;
            match party {
                Party::Issuer(i) => match own {
                    Some((outcome, how)) => self.resolve(i, outcome, how),
                    None => {
                        let (_, issued) = self.issuers[i].query.expect("in flight");
                        self.issuers[i].state = Is::Waiting(issued + TIMEOUT);
                        Ok(())
                    }
                },
                Party::Beat => {
                    self.beat_at = Some(self.now + INTERVAL);
                    Ok(())
                }
                Party::Bye => {
                    if let Bye::Farewell { deadline, .. } = self.bye {
                        self.bye = Bye::Farewell {
                            deadline,
                            at: self.now,
                        };
                    }
                    Ok(())
                }
            }
        }

        /// One step of the holder: a read fed to `ClientCore::read`, or a
        /// step of its redial.
        fn hold(&mut self, party: Party, role: Role) -> Checked {
            match role {
                Role::Read(since) => {
                    let Some(got) = self.client_read(self.read_pipe, since) else {
                        return Ok(()); // discarded: read on
                    };
                    let expect = mapped(&got);
                    let (was_up, own_id) = (
                        self.core.is_up(),
                        match party {
                            Party::Issuer(i) => self.issuers[i].query.map(|(id, _)| id),
                            _ => None,
                        },
                    );
                    let (got, next) = self.core.read(self.now, got);
                    self.carry_out(got, was_up, expect)?;
                    match next {
                        Next::Read => self.holder = Some((party, Role::Read(self.now))),
                        Next::Leave(own, promoted) => {
                            if let (Some(_), Some(id)) = (&own, own_id) {
                                fail_if(!self.decided.insert(id), || format!("query {id} twice"))?;
                                self.pending.remove(&id);
                            }
                            self.promote(promoted)?;
                            self.released(party, own.map(|o| (o, How::Reply)))?;
                        }
                        Next::TimedOut(id, promoted) => {
                            fail_if(own_id != Some(id), || {
                                format!("timed out {id}, not its own")
                            })?;
                            fail_if(!self.decided.insert(id), || format!("query {id} twice"))?;
                            self.pending.remove(&id);
                            self.promote(promoted)?;
                            self.notify_all();
                            self.released(party, Some((IssueOutcome::Vanished, How::TimedOut)))?;
                        }
                        Next::Redial(attempt) => {
                            self.outage = expect;
                            let until = self.now + BACKOFF * u64::from(attempt);
                            self.holder = Some((party, Role::Backoff(until)));
                        }
                    }
                    Ok(())
                }
                Role::Backoff(_) => {
                    if self.stopping {
                        return self.dialed(party, None);
                    }
                    let epoch = self.core.redial();
                    fail_if(epoch <= self.client_epoch, || {
                        format!("epoch {epoch} did not grow")
                    })?;
                    self.client_epoch = epoch;
                    if self.refused > 0 {
                        self.refused -= 1;
                        return self.dialed(party, None);
                    }
                    let silent = self.silent > 0;
                    self.silent -= u32::from(silent);
                    self.pipes.push(Pipe {
                        client_open: true,
                        server_open: true,
                        hello: None,
                        silent,
                        busy_until: 0,
                    });
                    let pipe = self.pipes.len() - 1;
                    let mut hello = crate::message::tests::sample_messages().remove(0);
                    if let Message::Hello(h) = &mut hello {
                        h.epoch = epoch;
                    }
                    self.transmit(CLIENT, pipe, &hello);
                    let (sent, since) = (self.now, self.now);
                    self.holder = Some((party, Role::Handshake { pipe, sent, since }));
                    Ok(())
                }
                Role::Handshake { pipe, sent, since } => {
                    let Some(got) = self.client_read(pipe, since) else {
                        return Ok(());
                    };
                    match ClientCore::<usize>::handshake(self.now - sent, TIMEOUT, got) {
                        Ok(None) => {
                            let since = self.now;
                            self.holder = Some((party, Role::Handshake { pipe, sent, since }));
                            Ok(())
                        }
                        Ok(Some(_)) => self.dialed(party, Some(pipe)),
                        Err(_) => {
                            self.pipes[pipe].client_open = false;
                            self.dialed(party, None)
                        }
                    }
                }
            }
        }

        /// `ClientCore::dialed` and what the driver does with it.
        fn dialed(&mut self, party: Party, pipe: Option<usize>) -> Checked {
            match self.core.dialed(self.now, pipe.is_some()) {
                Resume::Replay(replay) => {
                    let pipe = pipe.expect("dialed");
                    (self.read_pipe, self.write_pipe) = (pipe, pipe);
                    self.notify_all();
                    let seq = self.core.probe();
                    self.client_send(&Message::ClockProbe { seq, t0: self.now })?;
                    for (query, trace_id) in replay {
                        self.client_send(&Message::IssueTraced { trace_id, query })?;
                    }
                    self.holder = Some((party, Role::Read(self.now)));
                    Ok(())
                }
                Resume::Again(attempt) => {
                    let until = self.now + BACKOFF * u64::from(attempt);
                    self.holder = Some((party, Role::Backoff(until)));
                    Ok(())
                }
                Resume::GiveUp(lost, _) => {
                    if let Some(pipe) = pipe {
                        self.pipes[pipe].client_open = false;
                    }
                    self.settle(lost, self.outage)?;
                    self.released(party, None)
                }
            }
        }

        fn beat(&mut self) -> Checked {
            self.beat_at = None;
            if self.stopping {
                return Ok(());
            }
            match self.core.tick() {
                Tick::Stop => Ok(()),
                Tick::Skip => {
                    self.beat_at = Some(self.now + INTERVAL);
                    Ok(())
                }
                Tick::Probe { seq, read } => {
                    let up = self.pipes[self.write_pipe].client_open;
                    self.client_send(&Message::ClockProbe { seq, t0: self.now })?;
                    if up {
                        let was_up = self.core.is_up();
                        let judged = self.core.judge(self.now);
                        self.carry_out(judged, was_up, FailKind::Errored)?;
                    }
                    if read {
                        self.holder = Some((Party::Beat, Role::Read(self.now)));
                    } else {
                        self.beat_at = Some(self.now + INTERVAL);
                    }
                    Ok(())
                }
            }
        }

        /// `RemoteSut::shutdown` (or `abandon`), once every issuer is done.
        fn bye(&mut self) -> Checked {
            match self.bye {
                Bye::Running => {
                    self.stopping = true;
                    self.core.stop();
                    if self.core.is_up() && !self.s.abandon {
                        self.client_send(&Message::Drain)?;
                        let deadline = self.now + GOODBYE_WAIT;
                        self.bye = Bye::Farewell {
                            deadline,
                            at: self.now,
                        };
                        return Ok(());
                    }
                    self.close()
                }
                Bye::Farewell { deadline, .. } => match self.core.farewell(self.now, deadline) {
                    Farewell::Done => self.close(),
                    Farewell::Read => {
                        self.bye = Bye::Farewell {
                            deadline,
                            at: u64::MAX,
                        };
                        self.holder = Some((Party::Bye, Role::Read(self.now)));
                        Ok(())
                    }
                    Farewell::Wait => {
                        let at = self.now + FAREWELL_POLL;
                        self.bye = Bye::Farewell { deadline, at };
                        Ok(())
                    }
                },
                Bye::Closed => Ok(()),
            }
        }

        fn close(&mut self) -> Checked {
            self.bye = Bye::Closed;
            self.pipes[self.write_pipe].client_open = false;
            self.pipes[self.read_pipe].client_open = false;
            let kind = if self.s.abandon {
                FailKind::Vanished
            } else {
                FailKind::Errored
            };
            let lost = self.core.fail(kind);
            self.settle(lost, kind)?;
            // After the close, the link refuses as its first failure said.
            match self.core.issue(self.now, &query(u64::MAX), 0, &0) {
                Admit::Refuse(kind) if Some(kind) == self.first_kind => Ok(()),
                other => Err(format!(
                    "after close: {other:?}, first {:?}",
                    self.first_kind
                )),
            }
        }

        // --- the daemon's driver -------------------------------------------

        fn server_send(&mut self, msg: &Message) {
            if let Some((_, pipe)) = self.writer {
                if self.pipes[pipe].server_open {
                    self.transmit(SERVER, pipe, msg);
                }
            }
        }

        fn server_close(&mut self, pipe: usize) {
            self.pipes[pipe].server_open = false;
            if self.writer.is_some_and(|(_, p)| p == pipe) {
                self.writer = None;
            }
            if self.drainer == Some(pipe) {
                self.drainer = None;
            }
        }

        /// The daemon's next read: the earliest frame on a connection
        /// whose thread is free, or the EOF of one the client closed.
        fn server_read_at(&self) -> Option<(u64, Option<usize>, usize)> {
            let frame = self.to[SERVER]
                .iter()
                .enumerate()
                .filter(|(_, f)| self.pipes[f.pipe].server_open)
                .map(|(i, f)| (f.at.max(self.pipes[f.pipe].busy_until), Some(i), f.pipe))
                .min_by_key(|(at, ..)| *at);
            let eof = self.pipes.iter().enumerate().find(|(p, pipe)| {
                !pipe.client_open
                    && pipe.server_open
                    && !self.to[SERVER].iter().any(|f| f.pipe == *p)
            });
            let eof = eof.map(|(p, pipe)| (pipe.busy_until.max(self.now), None, p));
            frame.into_iter().chain(eof).min_by_key(|(at, ..)| *at)
        }

        fn server_read(&mut self, frame: Option<usize>, pipe: usize) -> Checked {
            let got = match frame {
                Some(i) => match self.receive(SERVER, i) {
                    Some(got) => got,
                    None => return Ok(()),
                },
                None => Err(WireError::Disconnected("eof".into())),
            };
            if self.pipes[pipe].silent {
                if frame.is_none() {
                    self.server_close(pipe);
                }
                return Ok(());
            }
            if self.pipes[pipe].hello.is_none() {
                let Open::Hello(hello) = SessionCore::open(got) else {
                    self.server_close(pipe);
                    return Ok(());
                };
                let attach = SessionCore::attach(hello.epoch, self.live);
                let want = if self.live {
                    Attach::Resume
                } else {
                    Attach::Adopt
                };
                fail_if(attach != want, || format!("attached {attach:?}"))?;
                if attach == Attach::Adopt {
                    // A restarted daemon reads the session back from disk.
                    let mut recovered = CompletionMap::new();
                    for (_, frame) in &self.disk {
                        SessionCore::recover(&mut recovered, frame);
                    }
                    self.journaled = self.disk.iter().map(|(id, _)| *id).collect();
                    let read_back: HashSet<u64> = recovered.keys().copied().collect();
                    fail_if(read_back != self.journaled, || {
                        "recovered another journal".into()
                    })?;
                    self.session = SessionCore::new(recovered);
                    self.live = true;
                }
                let grew = self.server_epoch.is_some_and(|e| hello.epoch > e);
                fail_if(!grew, || {
                    format!(
                        "daemon saw epoch {} after {:?}",
                        hello.epoch, self.server_epoch
                    )
                })?;
                self.server_epoch = Some(hello.epoch);
                self.pipes[pipe].hello = Some(hello.epoch);
                self.writer = Some((hello.epoch, pipe));
                let ack = Message::HelloAck {
                    version: PROTOCOL_VERSION,
                    sut_name: "sim".into(),
                    max_in_flight: hello.max_in_flight,
                };
                self.server_send(&ack);
                return Ok(());
            }
            match SessionCore::frame(got) {
                Conn::Issue(query, _) => match self.session.issue(query.id) {
                    Route::Fresh => {
                        let id = query.id;
                        fail_if(self.journaled.contains(&id), || {
                            format!("re-ran journaled {id}")
                        })?;
                        let done = self.now + answer(self.seed, id).1;
                        if self.s.inline {
                            self.pipes[pipe].busy_until = done;
                        }
                        self.serving.push((done, id, pipe));
                    }
                    Route::Replay(error, samples) => {
                        let query_id = query.id;
                        self.server_send(&Message::Completion {
                            query_id,
                            error,
                            samples,
                        });
                    }
                    Route::Skip => {}
                },
                Conn::Probe { seq, t0 } => {
                    let (t1, t2) = (self.now, self.now);
                    self.server_send(&Message::ClockProbeAck { seq, t0, t1, t2 });
                }
                Conn::Ignore => {}
                Conn::Drain => {
                    if self.session.drain() {
                        self.goodbye(pipe);
                    } else {
                        self.drainer = Some(pipe);
                    }
                }
                Conn::Close(_) => self.server_close(pipe),
            }
            Ok(())
        }

        fn goodbye(&mut self, pipe: usize) {
            let served = self.journaled.len() as u64;
            self.server_send(&Message::Goodbye { served });
            self.server_close(pipe);
        }

        fn served(&mut self, k: usize) {
            let (_, id, _) = self.serving.swap_remove(k);
            match answer(self.seed, id).0 {
                Some(error) => {
                    let samples = samples(id);
                    let completion = Message::Completion {
                        query_id: id,
                        error,
                        samples: samples.clone(),
                    };
                    // Journal first, on disk and in memory, then send.
                    self.disk.push((id, completion.to_wire()));
                    self.session.served(id, Some((error, samples)));
                    self.journaled.insert(id);
                    self.server_send(&completion);
                }
                None => self.session.served(id, None),
            }
            if self.session.settled() {
                if let Some(pipe) = self.drainer {
                    self.session.unpark_drainer();
                    if self.session.drain() {
                        self.drainer = None;
                        self.goodbye(pipe);
                    }
                }
            }
        }

        /// The daemon process dies (every connection with it, and the work
        /// in progress) and a new one listens, with the journal file less
        /// its unsynced tail.
        fn restart(&mut self, unsynced: usize) {
            self.s.restart = None;
            for pipe in 0..self.pipes.len() {
                self.server_close(pipe);
            }
            self.to[SERVER].clear();
            self.serving.clear();
            self.live = false;
            self.disk.truncate(self.disk.len().saturating_sub(unsynced));
        }

        // --- the loop -----------------------------------------------------

        /// The read role's invariant: a waiter pending on a link that is
        /// not dead has a reader.
        fn check_reader(&self) -> Checked {
            let dead = matches!(self.core.link, Link::Dead(_));
            let unread =
                !dead && !self.core.pending.is_empty() && self.core.reader == Reader::Nobody;
            fail_if(unread, || {
                format!("{} pending, nobody reads", self.core.pending.len())
            })
        }

        fn step(&mut self) -> Result<bool, String> {
            #[derive(Clone, Copy)]
            enum Ev {
                Server(Option<usize>, usize),
                Served(usize),
                Restart(usize),
                Hold,
                Issuer(usize),
                Beat,
                Bye,
            }
            let mut next: Option<(u64, Ev)> = None;
            let mut offer = |at: u64, ev: Ev| {
                if next.is_none_or(|(t, _)| at < t) {
                    next = Some((at, ev));
                }
            };
            if let Some((at, frame, pipe)) = self.server_read_at() {
                offer(at, Ev::Server(frame, pipe));
            }
            if let Some((k, (at, ..))) = self.serving.iter().enumerate().min_by_key(|(_, s)| s.0) {
                offer(*at, Ev::Served(k));
            }
            if let Some((at, unsynced)) = self.s.restart {
                offer(at.max(self.now), Ev::Restart(unsynced));
            }
            if let Some((_, role)) = self.holder {
                let at = match role {
                    Role::Read(since) => self.client_read_at(self.read_pipe, since).0,
                    Role::Backoff(until) => until,
                    Role::Handshake { pipe, since, .. } => self.client_read_at(pipe, since).0,
                };
                offer(at, Ev::Hold);
            }
            for (i, issuer) in self.issuers.iter().enumerate() {
                let at = match issuer.state {
                    Is::Start(at) => at,
                    Is::Parked if issuer.woken => self.now,
                    Is::Waiting(_) if issuer.slot.is_some() => self.now,
                    Is::Waiting(deadline) => deadline,
                    _ => continue,
                };
                offer(at.max(self.now), Ev::Issuer(i));
            }
            if let Some(at) = self.beat_at {
                offer(at, Ev::Beat);
            }
            let all_done = self.issuers.iter().all(|i| i.state == Is::Done);
            match self.bye {
                Bye::Running if all_done => offer(self.now, Ev::Bye),
                Bye::Farewell { at, .. } if at != u64::MAX => offer(at.max(self.now), Ev::Bye),
                _ => {}
            }
            let Some((at, ev)) = next else {
                let stuck = self.issuers.iter().filter(|i| i.state != Is::Done).count();
                fail_if(stuck > 0 || self.bye != Bye::Closed, || {
                    format!("nothing due, {stuck} issuers waiting")
                })?;
                return Ok(false);
            };
            self.now = at;
            fail_if(at > HORIZON, || "past the horizon".into())?;
            match ev {
                Ev::Server(frame, pipe) => self.server_read(frame, pipe)?,
                Ev::Served(k) => self.served(k),
                Ev::Restart(unsynced) => self.restart(unsynced),
                Ev::Hold => {
                    let (party, role) = self.holder.expect("a holder");
                    self.hold(party, role)?;
                }
                Ev::Issuer(i) => match self.issuers[i].state {
                    Is::Start(_) | Is::Parked => self.issue(i)?,
                    _ => self.wait(i)?,
                },
                Ev::Beat => self.beat()?,
                Ev::Bye => self.bye()?,
            }
            self.check_reader()?;
            Ok(true)
        }
    }

    /// One seed's run: `Err` names the first invariant it broke.
    fn run(seed: u64) -> Result<(), String> {
        let mut world = World::new(seed);
        let mut steps = 0u32;
        while world
            .step()
            .map_err(|e| format!("t={} ns: {e}", world.now))?
        {
            steps += 1;
            fail_if(steps > 1_000_000, || "a million steps".into())?;
        }
        Ok(())
    }

    #[test]
    fn every_seeded_run_keeps_the_protocol_invariants() {
        let started = std::time::Instant::now();
        let pinned = PINNED.iter().map(|(seed, _)| *seed);
        let failures: Vec<String> = pinned
            .chain(0..SEEDS)
            .filter_map(|seed| {
                run(seed)
                    .err()
                    .map(|e| format!("seed {seed} {:?}: {e}", setup(seed)))
            })
            .take(5)
            .collect();
        eprintln!(
            "wire simulation: {} seeds in {:?}",
            PINNED.len() as u64 + SEEDS,
            started.elapsed()
        );
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }
}
