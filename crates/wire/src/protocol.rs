//! The wire protocol's decisions, without I/O: [`ClientCore`] for
//! [`RemoteSut`](crate::RemoteSut) and [`SessionCore`] for a daemon session.
//!
//! Each core is a plain struct its driver keeps under the one lock it
//! already takes (`RemoteSut`'s link state, a session's book) and feeds one
//! input at a time: an issue, a decoded frame, a read error, a heartbeat
//! tick, a redial, a timeout, a served reply, a drain. A method returns a
//! decision; the driver turns it into frames, wakeups, trace events and
//! metrics. Nothing here reads a clock, blocks, locks or touches a socket
//! (`tests/census.rs` holds this file to that): time comes in as `now_ns`,
//! so every decision is testable from a scripted input sequence.

use std::collections::{HashMap, HashSet};

use mlperf_loadgen::query::{Query, SampleCompletion};
use mlperf_loadgen::sut::IssueOutcome;

use crate::client::RemoteSutConfig;
use crate::frame::WireError;

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
pub(crate) fn classify(e: &WireError) -> (String, FailKind) {
    match e {
        WireError::Frame(fe) => (format!("corrupt frame: {fe}"), FailKind::Errored),
        WireError::Protocol(msg) => (format!("protocol error: {msg}"), FailKind::Errored),
        other => (format!("read failed: {other}"), FailKind::Vanished),
    }
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

/// One query on the wire: its waiter, when it was sent (if anyone times
/// round trips), and what a resume replays — the query under the *same*
/// trace id, so the merged log stays exactly-once.
struct Pending<W> {
    waiter: W,
    sent_ns: Option<u64>,
    query: Query,
    trace_id: u64,
}

/// Who reads the link. Reading is a role, not a thread: one party at a time
/// holds it, and only the holder touches the read half.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reader {
    /// Nobody: nothing is pending, or the link is dead.
    Nobody,
    /// The issuer of this query, until its own outcome is known.
    Issuer(u64),
    /// The heartbeat reading an idle link for its probe's ack, or
    /// `shutdown` reading for the drained goodbye, until it releases.
    Watch,
}

/// What an issuer does with its query.
#[derive(Debug)]
pub(crate) enum Admit {
    /// Registered: send the issue frame, then read the link until the
    /// reply (`read`: nobody was reading, so the issuer holds the role), or
    /// wait for whoever reads to hand over the reply or the role.
    Send { read: bool },
    /// The window is full: park, [`ClientCore::unpark_issuer`], ask again.
    Wait,
    /// The link is dead: the query resolves as this kind says, unsent.
    Refuse(FailKind),
}

/// A completion routed to its waiter. `wake_issuer`: a window slot came
/// free and an issuer is parked on it. `promoted`: the query was the read
/// role's holder's own, so the role passed to this waiter, the lowest
/// still-pending id (or to nobody, when nothing is pending).
pub(crate) struct Resolved<W> {
    pub(crate) waiter: W,
    pub(crate) outcome: IssueOutcome,
    pub(crate) trace_id: u64,
    pub(crate) rtt_ns: Option<u64>,
    pub(crate) wake_issuer: bool,
    pub(crate) promoted: Option<W>,
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

/// The client's half of the protocol: the link and its epoch, the
/// in-flight window and pending table, heartbeat liveness, and who reads.
/// `W` is whatever wakes a waiting issuer.
///
/// The read role follows the leader/follower pattern. An issuer admitted
/// while nobody reads takes it; a holder gives it up as soon as its own
/// outcome is known (its reply, its response timeout, or the link dying),
/// and the lowest still-pending id is promoted to read next. So while the
/// link lives, a pending query always has a reader.
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
    grace_ns: u64,
    last_heard_ns: u64,
    probe_seq: u64,
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
            grace_ns: config.heartbeat_grace.as_nanos() as u64,
            last_heard_ns: 0,
            probe_seq: 0,
        }
    }

    pub(crate) fn is_up(&self) -> bool {
        self.link == Link::Up
    }

    /// Whether `who` holds the read role: a holder reads on only while it
    /// does, and stops once the link's death took the role away.
    pub(crate) fn holds(&self, who: Reader) -> bool {
        self.reader == who
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

    /// `shutdown`'s bid for the read role: granted only on a live link
    /// nobody reads.
    pub(crate) fn claim(&mut self) -> bool {
        let free = self.link == Link::Up && self.reader == Reader::Nobody;
        if free {
            self.reader = Reader::Watch;
        }
        free
    }

    /// The heartbeat or `shutdown` gives the role up, to the lowest id
    /// admitted while it read, if any.
    pub(crate) fn release(&mut self) -> Option<W> {
        self.pass_on(Reader::Watch)
    }

    /// An issue, registered before its frame leaves so a fast reply cannot
    /// race past the table. A `Down` link still admits: the resume replays.
    pub(crate) fn issue(
        &mut self,
        sent_ns: Option<u64>,
        query: &Query,
        trace_id: u64,
        waiter: &W,
    ) -> Admit {
        if let Link::Dead(kind) = self.link {
            return Admit::Refuse(kind);
        }
        if self.pending.len() >= self.max_in_flight as usize {
            self.window_waiters += 1;
            return Admit::Wait;
        }
        let pending = Pending {
            waiter: waiter.clone(),
            sent_ns,
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

    /// A `Completion` frame, which also proves the peer alive. `None` for
    /// an orphan — a query a timeout already resolved, or a replay whose
    /// original made it through — which must not count twice.
    pub(crate) fn complete(
        &mut self,
        now_ns: u64,
        query_id: u64,
        error: bool,
        samples: Vec<SampleCompletion>,
    ) -> Option<Resolved<W>> {
        self.last_heard_ns = now_ns;
        let p = self.pending.remove(&query_id)?;
        let promoted = self.pass_on(Reader::Issuer(query_id));
        Some(Resolved {
            waiter: p.waiter,
            outcome: if error {
                IssueOutcome::Errored
            } else {
                IssueOutcome::Completed(samples)
            },
            trace_id: p.trace_id,
            rtt_ns: p.sent_ns.map(|sent| now_ns.saturating_sub(sent)),
            wake_issuer: self.window_waiters > 0,
            promoted,
        })
    }

    /// A heartbeat or clock-probe ack: the peer is alive.
    pub(crate) fn heard(&mut self, now_ns: u64) {
        self.last_heard_ns = now_ns;
    }

    /// The next clock probe's sequence number; handshake, resume and
    /// heartbeat probes share one sequence.
    pub(crate) fn probe(&mut self) -> u64 {
        self.probe_seq += 1;
        self.probe_seq - 1
    }

    /// A heartbeat interval passed. Every heartbeat is a clock probe, and
    /// a link nobody reads is read by the heartbeat: an idle link's acks,
    /// or a down link's redial, which nobody else is making.
    pub(crate) fn tick(&mut self) -> Tick {
        match (self.link, self.reader) {
            (Link::Dead(_), _) => Tick::Stop,
            (Link::Down, Reader::Issuer(_) | Reader::Watch) => Tick::Skip,
            (Link::Up | Link::Down, reader) => {
                let read = reader == Reader::Nobody;
                if read {
                    self.reader = Reader::Watch;
                }
                Tick::Probe {
                    seq: self.probe(),
                    read,
                }
            }
        }
    }

    /// After a heartbeat's probe went out, or a holder's read found an
    /// interval of silence: on a live link, more than the grace of silence
    /// (no ack, no completion) loses the link as errored, since the peer
    /// holds the socket open but does not answer. Returns the silence too.
    /// A link already down or dead is not judged again.
    pub(crate) fn judge(&mut self, now_ns: u64) -> Option<(u64, Lost<W>)> {
        let silence = now_ns.saturating_sub(self.last_heard_ns);
        (self.link == Link::Up && silence > self.grace_ns)
            .then(|| (silence, self.lose(FailKind::Errored)))
    }

    /// A failed send or read, or heartbeat loss: with resume armed the
    /// link goes down for a redial, else it dies as `kind`.
    pub(crate) fn lose(&mut self, kind: FailKind) -> Lost<W> {
        match self.link {
            Link::Up | Link::Down if self.resume => {
                let severed = self.link == Link::Up;
                self.link = Link::Down;
                Lost::Down { severed }
            }
            _ => self.fail(kind),
        }
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
        Some((
            IssueOutcome::Vanished,
            self.pass_on(Reader::Issuer(query_id)),
        ))
    }

    /// The driver is stopping: no redial will come, so a later loss fails.
    pub(crate) fn stop(&mut self) {
        self.resume = false;
    }

    /// A redial attempt: the epoch to handshake at.
    pub(crate) fn redial(&mut self) -> u32 {
        self.epoch += 1;
        self.epoch
    }

    /// A redial handshook: the link is up and heard again, and every
    /// in-flight query goes out again, in id order, under its trace id.
    /// `None` when the link died meanwhile: drop the new one.
    pub(crate) fn resumed(&mut self, now_ns: u64) -> Option<Vec<(Query, u64)>> {
        if let Link::Dead(_) = self.link {
            return None;
        }
        self.link = Link::Up;
        self.last_heard_ns = now_ns;
        let mut replay: Vec<(Query, u64)> = self
            .pending
            .values()
            .map(|p| (p.query.clone(), p.trace_id))
            .collect();
        replay.sort_by_key(|(q, _)| q.id);
        Some(replay)
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
        Resumed,
        Stop,
        /// `shutdown` bids for the read role.
        Claim,
        /// The heartbeat or `shutdown` gives the read role up.
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
        let policy = crate::client::ResumePolicy {
            max_attempts: 1,
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
                In::Issue(id) => {
                    format!("{:?}", core.issue(Some(now), &query(id), id ^ 0xAB, &id))
                }
                In::Unpark => {
                    core.unpark_issuer();
                    format!("parked={}", core.window_waiters)
                }
                In::Complete(id, error) => match core.complete(now, id, error, Vec::new()) {
                    Some(r) => format!(
                        "resolved {} {} trace={:#x} rtt={:?} wake={}{}",
                        r.waiter,
                        show_outcome(&r.outcome),
                        r.trace_id,
                        r.rtt_ns,
                        r.wake_issuer,
                        show_promoted(r.promoted)
                    ),
                    None => "orphan".into(),
                },
                In::Heard => {
                    core.heard(now);
                    "heard".into()
                }
                In::Tick => format!("{:?}", core.tick()),
                In::Judge => match core.judge(now) {
                    Some((silence, lost)) => format!("silent {silence}: {}", show_lost(lost)),
                    None if core.is_up() => "alive".into(),
                    None => "not judged".into(),
                },
                In::ReadError(e) => {
                    let (_, kind) = classify(&e);
                    show_lost(core.lose(kind))
                }
                In::SendError => show_lost(core.lose(FailKind::Vanished)),
                In::Fail(kind) => show_lost(core.fail(kind)),
                In::TimeOut(id) => match core.time_out(id) {
                    Some((outcome, promoted)) => {
                        format!("{}{}", show_outcome(&outcome), show_promoted(promoted))
                    }
                    None => "racing".into(),
                },
                In::Redial => format!("epoch {}", core.redial()),
                In::Resumed => match core.resumed(now) {
                    Some(replay) => format!(
                        "replay {:?}",
                        replay.iter().map(|(q, t)| (q.id, *t)).collect::<Vec<_>>()
                    ),
                    None => "drop the new link".into(),
                },
                In::Stop => {
                    core.stop();
                    "stopping".into()
                }
                In::Claim => format!("claim={}", core.claim()),
                In::Release => format!("release{}", show_promoted(core.release())),
                In::Reader => format!("reader={:?}", core.reader),
            });
        }
        out
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
                    (50, In::Resumed),
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
                    (99, In::Resumed),
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
                vec![(2_001, In::Judge), (2_002, In::Judge), (2_003, In::Resumed)],
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
                    (6, In::Resumed),
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
}
