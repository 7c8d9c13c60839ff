//! The daemon-side endpoint: [`serve`] and [`ServerHandle`].
//!
//! `serve` exports any [`WireService`] over a TCP listener. Each accepted
//! connection performs the handshake, then pulls issue frames
//! off the socket, resolves them through the service, and writes
//! completion frames back. A server-scenario session resolves them on a
//! worker pool (one worker by default) fed through a work queue, so a
//! pipelined client's backlog waits where it is observed; a closed-loop
//! session (single-stream, multistream, offline: one query in flight by
//! the scenario's own rules) is served on the connection thread itself and
//! has no pool. Clock probes — the client's liveness ping — are answered
//! by the connection thread; while it is inside the service the daemon's
//! one `wire-liveness` thread vouches for it with unasked `HeartbeatAck`s.
//! `Drain` waits for the session's outstanding queries to resolve, then
//! answers `Goodbye` and closes.
//!
//! Connections belong to **sessions** (the `session` id in the `Hello`).
//! A session outlives its connections: it keeps a journal of every
//! resolved query and the set still in progress, so a client that loses
//! its link mid-run can reconnect at a bumped epoch and replay its
//! in-flight window. Replayed queries that already resolved are answered
//! straight from the journal — served exactly once, never re-run and
//! never double-counted. Epoch 0 always starts the session (and the
//! service) fresh.
//!
//! [`ServerHandle::kill`] exists for resilience testing: it severs every
//! live connection abruptly — the moral equivalent of yanking the
//! machine's power cord mid-run — so clients exercise their disconnect
//! path. [`ServerHandle::shutdown`] is the opposite: it stops accepting,
//! severs what remains, and joins the accept, liveness, connection, and
//! worker threads, so the port is immediately rebindable.

use std::collections::{HashMap, HashSet};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mlperf_loadgen::query::{Query, SampleCompletion};
use mlperf_loadgen::realtime::WorkQueue;
use mlperf_loadgen::Scenario;
use mlperf_trace::event::{render_detail_log, RingBufferSink, TraceEvent, TraceSink};
use mlperf_trace::json::ToJson;
use mlperf_trace::metrics::MetricsRegistry;
use mlperf_trace::sync::{lock, wait_timeout};
use mlperf_trace::JournalWriter;

use crate::message::{Message, PROTOCOL_VERSION};
use crate::service::{ServedReply, WireService};
use crate::stats::DaemonStats;
use crate::transport::{ChaosSession, TcpTransport, Transport, WireChaosPlan};

/// Server-side spans retained per session for shipping at drain. Bounded:
/// a pathological run keeps the freshest tail, which is what a post-mortem
/// wants anyway.
const SESSION_EVENT_CAPACITY: usize = 65_536;

/// `TraceRecord` rows per `Events` frame at drain. Keeps every frame far
/// under the 64 MiB frame ceiling.
const EVENTS_CHUNK: usize = 256;

/// `fsync` batching window for session journals. Completions lost in the
/// unsynced tail of a killed daemon simply re-run on resume (the service
/// is deterministic per query), so batching trades a bounded amount of
/// re-execution for not paying an `fsync` per completion.
const JOURNAL_FSYNC_BATCH: u32 = 8;

/// How often the liveness thread looks for connection threads inside the
/// service. A client hears from a daemon serving its query at least every
/// two ticks (the first vouch waits for a whole tick inside `serve`, and
/// that tick may have just begun), so a query may outlast any
/// `heartbeat_grace` of three ticks or more.
const LIVENESS_TICK: Duration = Duration::from_millis(25);

/// How often a `Drain` waiting on outstanding queries looks at the stop
/// flag. Not what releases it: the last completion wakes it.
const DRAIN_POLL: Duration = Duration::from_millis(100);

/// Tuning knobs for a serving daemon.
#[derive(Clone, Default)]
pub struct ServeConfig {
    /// Workers resolving queries per connection. `0` means one. The pool
    /// is a server-scenario session's: a closed-loop session has one query
    /// in flight and is served on its connection thread.
    pub workers_per_conn: usize,
    /// Optional sink receiving server-side `WireEvent`s
    /// (connect, reject, drain, disconnect, replay).
    pub sink: Option<Arc<dyn TraceSink>>,
    /// Server-side wire chaos plan, for fault-injection testing. `None`
    /// (or a disarmed plan) leaves every transport untouched.
    pub chaos: Option<WireChaosPlan>,
    /// Metrics registry backing the daemon's `Stats` snapshots. A default
    /// registry is created when not provided, so stats always work.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Daemon-assigned shard label. When set, server-side spans carry it
    /// as their `host` (so a merged fleet log attributes work per shard)
    /// and `Stats` snapshots report it; when `None` the daemon is a
    /// plain single host named `server`.
    pub shard_label: Option<String>,
    /// Directory for durable per-session completion journals. When set,
    /// every resolved query is appended (wire-codec bytes in an `MLPJ`
    /// frame) to `session_<id>.mlpj` before its completion frame is sent,
    /// and a restarted daemon re-adopts a session's journal when a client
    /// reconnects at a nonzero epoch — completions recorded before the
    /// crash are answered from disk, never re-run. `None` (the default)
    /// keeps session journals in memory only, as before.
    pub journal_dir: Option<PathBuf>,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("workers_per_conn", &self.workers_per_conn)
            .field("sink", &self.sink.is_some())
            .field("chaos", &self.chaos)
            .field("metrics", &self.metrics.is_some())
            .field("shard_label", &self.shard_label)
            .field("journal_dir", &self.journal_dir)
            .finish()
    }
}

impl ServeConfig {
    /// Overrides the per-connection worker count.
    #[must_use]
    pub fn with_workers_per_conn(mut self, n: usize) -> Self {
        self.workers_per_conn = n;
        self
    }

    /// Attaches a trace sink for server-side wire events.
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Arms a server-side wire chaos plan.
    #[must_use]
    pub fn with_chaos(mut self, plan: WireChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Shares a metrics registry with the daemon (exposed via `Stats`).
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Names this daemon's shard within a fleet (span host + `Stats`).
    #[must_use]
    pub fn with_shard_label(mut self, label: &str) -> Self {
        self.shard_label = Some(label.to_string());
        self
    }

    /// Persists per-session completion journals under `dir`, making the
    /// daemon's exactly-once replay guarantee survive a daemon restart.
    #[must_use]
    pub fn with_journal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.journal_dir = Some(dir.into());
        self
    }
}

/// wire query id → resolved reply `(error, samples)`, kept for journal
/// replay within a session and recovered from disk across daemon restarts.
type CompletionMap = HashMap<u64, (bool, Vec<SampleCompletion>)>;

/// Everything a session remembers across connections, under one lock so a
/// completion can never fall between "no longer in progress" and "not yet
/// journaled".
struct SessionBook {
    /// wire query id → resolved reply, kept for journal replay.
    journal: CompletionMap,
    /// Queries handed to workers but not yet resolved.
    in_progress: HashSet<u64>,
    /// Durable mirror of `journal`, when the daemon has a journal dir:
    /// completions are appended (as wire-codec `Completion` frames) under
    /// the same lock that updates the map, so the disk image can never
    /// miss an entry the memory image has acknowledged.
    disk: Option<JournalWriter>,
}

/// Queries a session has accepted but not yet resolved; `Drain` waits for
/// none. A completion wakes a drainer only when one is parked — the count
/// is kept under the same lock — so a query pays for no `futex` call that
/// nobody is waiting on.
#[derive(Default)]
struct Outstanding {
    state: Mutex<OutstandingState>,
    idle: Condvar,
}

#[derive(Default)]
struct OutstandingState {
    queries: usize,
    drainers: usize,
}

impl Outstanding {
    fn begin(&self) {
        lock(&self.state).queries += 1;
    }

    fn end(&self) {
        let wake = {
            let mut state = lock(&self.state);
            state.queries = state.queries.saturating_sub(1);
            state.queries == 0 && state.drainers > 0
        };
        if wake {
            // One live connection a session, so one drainer; a second (a
            // stale epoch's) would leave on its next poll.
            self.idle.notify_one();
        }
    }

    fn count(&self) -> usize {
        lock(&self.state).queries
    }

    /// Blocks until nothing is outstanding or `stop` is set, looking at
    /// `stop` every `poll`. Returns how many polls expired on the way: zero
    /// when the last completion's wake is what ended the wait.
    fn wait_idle(&self, poll: Duration, stop: &AtomicBool) -> u32 {
        let mut polls = 0;
        let mut state = lock(&self.state);
        while state.queries > 0 && !stop.load(Ordering::SeqCst) {
            state.drainers += 1;
            let (guard, timeout) = wait_timeout(&self.idle, state, poll);
            state = guard;
            state.drainers -= 1;
            polls += u32::from(timeout.timed_out());
        }
        polls
    }
}

/// One logical client run. Connections come and go (each at a distinct
/// epoch); the session's journal, worker pool, and outstanding counter
/// persist until the run drains cleanly or the daemon shuts down.
struct Session {
    id: u64,
    book: Mutex<SessionBook>,
    outstanding: Outstanding,
    /// The live connection's writer half, tagged with its epoch so a dead
    /// connection's epilogue cannot clear a successor's writer.
    writer: Mutex<Option<(u32, Box<dyn Transport>)>>,
    /// The worker pool's queue: server-scenario sessions only. A
    /// closed-loop session has no pool; its connection thread serves.
    work: Option<Arc<WorkQueue<WorkItem>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Server-clock instant (never 0) at which this session's connection
    /// thread entered the service, 0 while it is outside: what the
    /// liveness thread reads to vouch for a thread that cannot answer a
    /// heartbeat itself.
    serving_since: AtomicU64,
    /// Server-side queue/compute spans, shipped to the client at drain so
    /// one run yields one merged detail log.
    events: Arc<RingBufferSink>,
    /// The on-disk journal path, kept so a cleanly drained session can
    /// delete its file (the run is over; nothing is left to resume).
    disk_path: Option<PathBuf>,
}

/// One query on its way to the service, with its trace context and the
/// server-clock instant it was accepted.
struct WorkItem {
    query: Query,
    trace_id: u64,
    enqueued_ns: u64,
}

/// Marks a session's connection thread as inside the service until
/// dropped, by return or by unwind.
struct Serving<'a> {
    since: &'a AtomicU64,
    stamp: u64,
}

impl<'a> Serving<'a> {
    fn enter(since: &'a AtomicU64, now_ns: u64) -> Self {
        let stamp = now_ns.max(1);
        since.store(stamp, Ordering::SeqCst);
        Serving { since, stamp }
    }
}

impl Drop for Serving<'_> {
    fn drop(&mut self) {
        // Only our own stamp: after a resume the dead epoch's thread can
        // still be in `serve` when the live one enters, and must not
        // unvouch it on the way out.
        let _ = self
            .since
            .compare_exchange(self.stamp, 0, Ordering::SeqCst, Ordering::SeqCst);
    }
}

impl Session {
    /// Sends one frame on the session's current writer, if any. Errors are
    /// swallowed: the journal preserves the reply for the next epoch.
    fn send(&self, msg: &Message) {
        self.send_sealed(&msg.to_wire());
    }

    /// [`Session::send`] for a message already encoded by `to_wire`.
    fn send_sealed(&self, payload: &[u8]) {
        if let Some((_, transport)) = lock(&self.writer).as_mut() {
            let _ = transport.send(payload);
        }
    }

    /// Closes the work queue, joins the workers, and closes the writer.
    fn retire(&self) {
        if let Some(queue) = &self.work {
            queue.close();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.workers));
        for handle in handles {
            let _ = handle.join();
        }
        if let Some((_, transport)) = lock(&self.writer).take() {
            transport.shutdown();
        }
    }
}

struct ServerShared {
    stop: AtomicBool,
    served: AtomicU64,
    conns: Mutex<Vec<TcpStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    chaos: Option<Arc<ChaosSession>>,
    sink: Option<Arc<dyn TraceSink>>,
    metrics: Arc<MetricsRegistry>,
    start: Instant,
    /// `host` label stamped on server-side spans: the shard label when
    /// this daemon is part of a fleet, else `server`.
    host_label: String,
    /// Daemon-assigned shard label for `Stats` (empty = not sharded).
    shard: String,
    /// Directory for durable session journals (`None` = memory only).
    journal_dir: Option<PathBuf>,
}

impl ServerShared {
    /// Nanoseconds since the daemon started — the server's span clock.
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn wire_event(&self, kind: &str, query_id: u64, detail: &str) {
        if let Some(sink) = &self.sink {
            if sink.enabled() {
                sink.record(
                    self.now_ns(),
                    &TraceEvent::WireEvent {
                        endpoint: "server".to_string(),
                        kind: kind.to_string(),
                        query_id,
                        detail: detail.to_string(),
                    },
                );
            }
        }
    }
}

/// Handle to a running daemon. Dropping the handle does *not* stop the
/// daemon; call [`ServerHandle::shutdown`] (graceful) or
/// [`ServerHandle::kill`] (abrupt).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    /// The daemon's own two threads: accept, then liveness.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The address the daemon is listening on (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Queries resolved across all connections so far.
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::SeqCst)
    }

    /// Severs every live connection abruptly, without drain or goodbye —
    /// simulates the serving machine dying mid-run. The listener also
    /// stops accepting. No threads are joined; pair with
    /// [`ServerHandle::shutdown`] to reap them.
    pub fn kill(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for conn in lock(&self.shared.conns).iter() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        self.shared.wire_event("kill", 0, "all connections severed");
        self.unblock_accept();
    }

    /// Stops accepting, severs any connection still open, and joins the
    /// accept thread, the liveness thread, every connection thread, and
    /// every session's worker pool. When this returns the daemon holds no
    /// threads and no sockets — the port can be rebound immediately.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.unblock_accept();
        let mut threads = std::mem::take(&mut *lock(&self.threads)).into_iter();
        // The accept thread before the sever, so nothing is accepted after
        // it...
        if let Some(accept) = threads.next() {
            let _ = accept.join();
        }
        for conn in lock(&self.shared.conns).iter() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // ...and the liveness thread after it: parked on its tick, or in a
        // vouch to a peer that stopped reading, which the sever ends.
        for liveness in threads {
            liveness.thread().unpark();
            let _ = liveness.join();
        }
        let conn_threads: Vec<JoinHandle<()>> =
            std::mem::take(&mut *lock(&self.shared.conn_threads));
        for handle in conn_threads {
            let _ = handle.join();
        }
        let sessions: Vec<Arc<Session>> = lock(&self.shared.sessions)
            .drain()
            .map(|(_, s)| s)
            .collect();
        for session in sessions {
            session.retire();
        }
        lock(&self.shared.conns).clear();
    }

    /// The accept loop blocks in `accept()`; poke it with a throwaway
    /// connection so it notices the stop flag.
    fn unblock_accept(&self) {
        let _ = TcpStream::connect(self.addr);
    }
}

/// Starts a daemon exporting `service` on `listener`.
///
/// Returns immediately; connections are handled on background threads.
///
/// # Errors
///
/// Returns [`WireError::Io`] if the listener's local address cannot be
/// resolved or the accept or liveness thread cannot spawn.
pub fn serve(
    listener: TcpListener,
    service: Arc<dyn WireService>,
    config: ServeConfig,
) -> Result<ServerHandle, crate::frame::WireError> {
    let addr = listener.local_addr()?;
    let chaos = config
        .chaos
        .clone()
        .map(|plan| Arc::new(ChaosSession::new(plan, "server", config.sink.clone())));
    let shared = Arc::new(ServerShared {
        stop: AtomicBool::new(false),
        served: AtomicU64::new(0),
        conns: Mutex::new(Vec::new()),
        conn_threads: Mutex::new(Vec::new()),
        sessions: Mutex::new(HashMap::new()),
        chaos,
        sink: config.sink.clone(),
        metrics: config
            .metrics
            .clone()
            .unwrap_or_else(|| Arc::new(MetricsRegistry::new())),
        start: Instant::now(),
        host_label: config
            .shard_label
            .clone()
            .unwrap_or_else(|| "server".to_string()),
        shard: config.shard_label.clone().unwrap_or_default(),
        journal_dir: config.journal_dir.clone(),
    });
    let handle = ServerHandle {
        addr,
        shared: Arc::clone(&shared),
        threads: Mutex::new(Vec::with_capacity(2)),
    };
    let workers = config.workers_per_conn.max(1);
    let vouching = Arc::clone(&shared);
    type Body = Box<dyn FnOnce() + Send>;
    let bodies: [(&str, Body); 2] = [
        (
            "wire-accept",
            Box::new(move || accept_loop(&listener, &service, workers, &shared)),
        ),
        ("wire-liveness", Box::new(move || liveness_loop(&vouching))),
    ];
    for (name, body) in bodies {
        match std::thread::Builder::new()
            .name(name.to_string())
            .spawn(body)
        {
            Ok(thread) => lock(&handle.threads).push(thread),
            Err(e) => {
                // Reaps the one that did start.
                handle.shutdown();
                return Err(crate::frame::WireError::Io(e));
            }
        }
    }
    Ok(handle)
}

/// Vouches for connection threads that cannot answer for themselves. A
/// closed-loop session's connection thread reads no heartbeat while it is
/// inside the service, and a query may take longer than the client's
/// `heartbeat_grace`; an in-flight query implies a live daemon, so the
/// daemon says so: every tick, each session whose thread has been inside
/// `serve` for a whole tick is sent `HeartbeatAck { seq: 0 }`, whose `seq`
/// the client ignores and whose arrival refreshes its liveness clock like
/// any other ack.
fn liveness_loop(shared: &ServerShared) {
    let tick_ns = LIVENESS_TICK.as_nanos() as u64;
    while !shared.stop.load(Ordering::SeqCst) {
        // Parked, not asleep: `shutdown` unparks this thread.
        std::thread::park_timeout(LIVENESS_TICK);
        let now = shared.now_ns();
        // Collected first (an empty `Vec` allocates nothing): a send can
        // block on a full socket, and must not hold up a handshake.
        let serving: Vec<Arc<Session>> = lock(&shared.sessions)
            .values()
            .filter(|session| {
                let since = session.serving_since.load(Ordering::SeqCst);
                since != 0 && now.saturating_sub(since) >= tick_ns
            })
            .cloned()
            .collect();
        for session in serving {
            session.send(&Message::HeartbeatAck { seq: 0 });
            shared.metrics.incr("wire_liveness_vouches", 1);
        }
    }
}

/// Binds `addr` and starts a daemon on it. `"127.0.0.1:0"` picks a free
/// port; read it back from [`ServerHandle::addr`].
///
/// # Errors
///
/// Returns [`WireError::Io`] if the bind fails, plus [`serve`]'s failures.
pub fn serve_on(
    addr: &str,
    service: Arc<dyn WireService>,
    config: ServeConfig,
) -> Result<ServerHandle, crate::frame::WireError> {
    serve(TcpListener::bind(addr)?, service, config)
}

fn accept_loop(
    listener: &TcpListener,
    service: &Arc<dyn WireService>,
    workers: usize,
    shared: &Arc<ServerShared>,
) {
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => return,
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        if stream.set_nodelay(true).is_err() {
            continue;
        }
        if let Ok(clone) = stream.try_clone() {
            lock(&shared.conns).push(clone);
        }
        shared.wire_event("connect", 0, &peer.to_string());
        let service = Arc::clone(service);
        let shared_t = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name(format!("wire-conn-{peer}"))
            .spawn(move || {
                handle_conn(stream, &service, workers, &shared_t);
                shared_t.wire_event("disconnect", 0, &peer.to_string());
            });
        if let Ok(handle) = handle {
            lock(&shared.conn_threads).push(handle);
        }
    }
}

/// Opens (or, on resume, re-adopts) a session's durable journal. Returns
/// the writer, the path, and the completion map recovered from disk —
/// empty unless `resume` found a journal left by a previous daemon
/// process. Disk failures degrade to a memory-only session: the run
/// proceeds, it just cannot survive another daemon death.
fn open_session_disk(
    shared: &ServerShared,
    session_id: u64,
    resume: bool,
) -> (Option<JournalWriter>, Option<PathBuf>, CompletionMap) {
    let mut recovered = HashMap::new();
    let Some(dir) = &shared.journal_dir else {
        return (None, None, recovered);
    };
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("session_{session_id:016x}.mlpj"));
    let writer = if resume && path.exists() {
        match JournalWriter::open_append(&path, JOURNAL_FSYNC_BATCH) {
            Ok((writer, scan)) => {
                for frame in &scan.records {
                    if let Ok(Message::Completion {
                        query_id,
                        error,
                        samples,
                    }) = Message::from_wire(frame)
                    {
                        recovered.insert(query_id, (error, samples));
                    }
                }
                if let Some(torn) = &scan.torn {
                    shared.wire_event("journal_salvage", 0, &torn.to_string());
                }
                shared.wire_event(
                    "journal_recover",
                    0,
                    &format!("session={session_id:#x} completions={}", recovered.len()),
                );
                Some(writer)
            }
            Err(e) => {
                shared.wire_event("journal_error", 0, &format!("open: {e}"));
                None
            }
        }
    } else {
        // Epoch 0 (or no surviving file): a fresh run truncates whatever
        // a same-id predecessor left behind.
        JournalWriter::create(&path, JOURNAL_FSYNC_BATCH).ok()
    };
    (writer, Some(path), recovered)
}

/// Starts a fresh session — with a worker pool when `pooled` (the server
/// scenario), with none otherwise. With a journal dir configured, the
/// session's completion book is mirrored to (and, at a nonzero epoch,
/// recovered from) `session_<id>.mlpj` in that dir.
fn spawn_session(
    service: &Arc<dyn WireService>,
    workers: usize,
    pooled: bool,
    shared: &Arc<ServerShared>,
    session_id: u64,
    resume: bool,
) -> Arc<Session> {
    let (disk, disk_path, recovered) = open_session_disk(shared, session_id, resume);
    let session = Arc::new(Session {
        id: session_id,
        book: Mutex::new(SessionBook {
            journal: recovered,
            in_progress: HashSet::new(),
            disk,
        }),
        outstanding: Outstanding::default(),
        writer: Mutex::new(None),
        work: pooled.then(|| Arc::new(WorkQueue::default())),
        workers: Mutex::new(Vec::new()),
        serving_since: AtomicU64::new(0),
        events: Arc::new(RingBufferSink::new(SESSION_EVENT_CAPACITY)),
        disk_path,
    });
    let Some(queue) = &session.work else {
        return session;
    };
    let mut pool = Vec::with_capacity(workers);
    for i in 0..workers {
        let queue = Arc::clone(queue);
        let session_t = Arc::clone(&session);
        let service = Arc::clone(service);
        let shared = Arc::clone(shared);
        let worker = std::thread::Builder::new()
            .name(format!("wire-worker-{i}"))
            .spawn(move || {
                while let Some(item) = queue.pop() {
                    serve_item(&*service, &session_t, &shared, item);
                }
            });
        if let Ok(handle) = worker {
            pool.push(handle);
        }
    }
    *lock(&session.workers) = pool;
    session
}

/// Resolves one accepted query through the service and answers it: the
/// body of a pool worker, and of a closed-loop session's connection
/// thread. A service that panics errors the one query it panicked on;
/// the thread, the session and the daemon carry on.
fn serve_item(service: &dyn WireService, session: &Session, shared: &ServerShared, item: WorkItem) {
    let WorkItem {
        query,
        trace_id,
        enqueued_ns,
    } = item;
    let dequeued_ns = shared.now_ns();
    shared
        .metrics
        .observe("wire_queue_ns", dequeued_ns.saturating_sub(enqueued_ns));
    session.events.record(
        enqueued_ns,
        &TraceEvent::SpanEvent {
            host: shared.host_label.clone(),
            trace_id,
            query_id: query.id,
            phase: "queue".to_string(),
            dur_ns: dequeued_ns.saturating_sub(enqueued_ns),
        },
    );
    let served = catch_unwind(AssertUnwindSafe(|| service.serve(&query)));
    let reply = served.unwrap_or_else(|_| {
        let thread = std::thread::current();
        let detail = format!(
            "thread={} session={:#x}",
            thread.name().unwrap_or("<unnamed>"),
            session.id
        );
        shared.wire_event("service_panic", query.id, &detail);
        shared.metrics.incr("wire_service_panics", 1);
        Some(ServedReply::errored(&query))
    });
    let served_ns = shared.now_ns();
    shared
        .metrics
        .observe("wire_serve_ns", served_ns.saturating_sub(dequeued_ns));
    session.events.record(
        dequeued_ns,
        &TraceEvent::SpanEvent {
            host: shared.host_label.clone(),
            trace_id,
            query_id: query.id,
            phase: "compute".to_string(),
            dur_ns: served_ns.saturating_sub(dequeued_ns),
        },
    );
    match reply {
        Some(reply) => {
            // Journal first, then send: if the connection dies between the
            // two, the reply survives for replay. One critical section
            // retires "in progress" and records the journal entry
            // atomically. Encoded once: the same sealed bytes go to disk
            // and socket.
            let error = reply.error;
            let completion = Message::Completion {
                query_id: query.id,
                error,
                samples: reply.samples,
            };
            let sealed = completion.to_wire();
            let Message::Completion { samples, .. } = completion else {
                unreachable!("constructed above");
            };
            {
                let mut book = lock(&session.book);
                book.in_progress.remove(&query.id);
                if let Some(disk) = book.disk.as_mut() {
                    // Durable mirror first: the wire-codec bytes are the
                    // journal payload, so replay after a daemon restart
                    // parses them back with the same decoder the socket
                    // uses.
                    let _ = disk.append(&sealed);
                }
                book.journal.insert(query.id, (error, samples));
            }
            session.send_sealed(&sealed);
            shared.served.fetch_add(1, Ordering::SeqCst);
            shared.metrics.incr("wire_served", 1);
        }
        None => {
            // The service swallowed the query: no frame goes back, and
            // nothing is journaled — a replay will be swallowed again,
            // which is the point.
            lock(&session.book).in_progress.remove(&query.id);
            shared.wire_event("dropped_reply", query.id, "service returned nothing");
        }
    }
    session.outstanding.end();
}

/// Routes one issued query through the session's journal discipline: fresh queries go to the worker pool — or, in a session that
/// has none, are served here and now — journaled ones are answered by
/// replay, in-progress duplicates are skipped. Returns `false` when the
/// connection must drop (the work queue is gone).
fn handle_issue(
    service: &dyn WireService,
    session: &Session,
    shared: &ServerShared,
    query: Query,
    trace_id: u64,
) -> bool {
    enum IssueAction {
        Fresh,
        Replay(bool, Vec<SampleCompletion>),
        Skip,
    }
    let action = {
        let mut book = lock(&session.book);
        if let Some((error, samples)) = book.journal.get(&query.id) {
            IssueAction::Replay(*error, samples.clone())
        } else if book.in_progress.contains(&query.id) {
            IssueAction::Skip
        } else {
            book.in_progress.insert(query.id);
            IssueAction::Fresh
        }
    };
    match action {
        IssueAction::Fresh => {
            session.outstanding.begin();
            let item = WorkItem {
                query,
                trace_id,
                enqueued_ns: shared.now_ns(),
            };
            match &session.work {
                Some(queue) => {
                    if queue.push(item).is_err() {
                        session.outstanding.end();
                        return false;
                    }
                }
                None => {
                    // One query in flight by the scenario's own rules, so
                    // nothing waits behind this call but heartbeats — and
                    // those the liveness thread answers for us meanwhile.
                    let _serving = Serving::enter(&session.serving_since, item.enqueued_ns);
                    serve_item(service, session, shared, item);
                }
            }
        }
        IssueAction::Replay(error, samples) => {
            // Resolved in a previous epoch (or while the link
            // was down): answer from the journal, do not re-run.
            shared.wire_event("replay", query.id, "journal hit");
            shared.metrics.incr("wire_replays", 1);
            session.send(&Message::Completion {
                query_id: query.id,
                error,
                samples,
            });
        }
        IssueAction::Skip => {
            // Replayed while the original is still in the service: its
            // completion will answer both.
            shared.wire_event("dup_issue", query.id, "already in progress");
            shared.metrics.incr("wire_dup_issues", 1);
        }
    }
    true
}

/// Answers a `StatsRequest` probe connection with one `Stats` frame.
fn answer_stats(
    transport: &mut Box<dyn Transport>,
    service: &Arc<dyn WireService>,
    shared: &Arc<ServerShared>,
) {
    shared.metrics.incr("wire_stats_requests", 1);
    let (sessions, in_flight, session_outstanding) = {
        let sessions = lock(&shared.sessions);
        let mut per_session: Vec<(u64, u64)> = sessions
            .iter()
            .map(|(id, s)| (*id, s.outstanding.count() as u64))
            .collect();
        per_session.sort_unstable();
        let in_flight: u64 = per_session.iter().map(|(_, n)| n).sum();
        (sessions.len() as u64, in_flight, per_session)
    };
    let stats = DaemonStats {
        sut_name: service.name().to_string(),
        shard: shared.shard.clone(),
        uptime_ns: shared.now_ns(),
        served: shared.served.load(Ordering::SeqCst),
        sessions,
        in_flight,
        session_outstanding,
        snapshot: shared.metrics.snapshot(),
    };
    let _ = transport.send(
        &Message::Stats {
            json: stats.to_json_string(),
        }
        .to_wire(),
    );
}

/// Runs one connection: handshake, session attach, then the
/// issue/complete loop until the client drains or the socket dies.
fn handle_conn(
    stream: TcpStream,
    service: &Arc<dyn WireService>,
    workers: usize,
    shared: &Arc<ServerShared>,
) {
    let base: Box<dyn Transport> = Box::new(TcpTransport::new(stream));
    let mut transport = match &shared.chaos {
        Some(session) => session.wrap(base),
        None => base,
    };

    // --- handshake (or a one-shot stats probe) ---
    let hello = match transport.recv().and_then(|p| Message::from_wire(&p)) {
        Ok(Message::Hello(h)) => h,
        Ok(Message::StatsRequest) => {
            // A telemetry poll, not a run: answer and close. It never
            // touches the serving path's sessions.
            answer_stats(&mut transport, service, shared);
            return;
        }
        _ => return, // includes the shutdown poke connection
    };
    // One version: any other — older or newer — is refused with a reason
    // rather than guessed at.
    if hello.version != PROTOCOL_VERSION {
        shared.wire_event(
            "reject",
            0,
            &format!("version mismatch: client v{}", hello.version),
        );
        let reject = Message::Reject {
            reason: format!(
                "protocol version mismatch: server v{PROTOCOL_VERSION}, client v{}",
                hello.version
            ),
        };
        let _ = transport.send(&reject.to_wire());
        return;
    }

    // --- session attach ---
    // Epoch 0 is the authoritative start of a run: any stale session with
    // the same id is retired and the service state cleared. A non-zero
    // epoch resumes the existing session (or, if the daemon restarted and
    // forgot it, starts an empty one — the replayed queries simply re-run).
    let fresh = hello.epoch == 0;
    let found = {
        let mut sessions = lock(&shared.sessions);
        if fresh {
            sessions.remove(&hello.session)
        } else {
            sessions.get(&hello.session).cloned()
        }
    };
    let session = match found {
        Some(session) if !fresh => session,
        stale => {
            if let Some(stale) = stale {
                stale.retire();
            }
            if fresh {
                // A fresh session is a fresh run: let stateful services clear.
                service.reset();
            }
            // On a resume the daemon forgot this session (it restarted).
            // With a journal dir the session book is rebuilt from disk and
            // replayed queries answer without re-running; without one the
            // book starts empty and they simply re-run.
            let pooled = hello.scenario == Scenario::Server;
            let session = spawn_session(service, workers, pooled, shared, hello.session, !fresh);
            lock(&shared.sessions).insert(hello.session, Arc::clone(&session));
            session
        }
    };

    let ack = Message::HelloAck {
        version: hello.version,
        sut_name: service.name().to_string(),
        max_in_flight: hello.max_in_flight,
    };
    if transport.send(&ack.to_wire()).is_err() {
        return;
    }
    // Install this connection's writer; the epoch tag keeps a dead
    // predecessor's epilogue from clearing it.
    {
        let writer = match transport.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        *lock(&session.writer) = Some((hello.epoch, writer));
    }
    shared.wire_event(
        "handshake",
        0,
        &format!(
            "scenario={:?} qsl_size={} window={} session={:#x} epoch={}",
            hello.scenario, hello.qsl_size, hello.max_in_flight, hello.session, hello.epoch
        ),
    );

    // --- read loop ---
    let mut clean = false;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match transport.recv().and_then(|p| Message::from_wire(&p)) {
            Ok(Message::IssueTraced { trace_id, query }) => {
                if !handle_issue(&**service, &session, shared, query, trace_id) {
                    break;
                }
            }
            // A duplicated Hello frame (chaos duplicate-send hits the
            // handshake) is harmless noise, not a protocol violation.
            Ok(Message::Hello(_)) => continue,
            Ok(Message::ClockProbe { seq, t0 }) => {
                // Stamp receive and transmit on the server's clock; the
                // client turns the four timestamps into an offset sample.
                let t1 = shared.now_ns();
                let t2 = shared.now_ns();
                session.send(&Message::ClockProbeAck { seq, t0, t1, t2 });
            }
            Ok(Message::Drain) => {
                session.outstanding.wait_idle(DRAIN_POLL, &shared.stop);
                shared.wire_event("drain", 0, "flushed outstanding queries");
                // The session's server-side spans go back before the
                // goodbye, so the client's detail log covers both hosts.
                // Chunked: each frame stays far below the cap.
                let records = session.events.snapshot();
                for chunk in records.chunks(EVENTS_CHUNK) {
                    let jsonl = render_detail_log(chunk);
                    session.send(&Message::Events { jsonl });
                }
                session.send(&Message::Goodbye {
                    served: shared.served.load(Ordering::SeqCst),
                });
                clean = true;
                break;
            }
            Ok(Message::Goodbye { .. }) => break,
            Ok(_) => break, // protocol violation: drop the connection
            Err(_) => break,
        }
    }

    transport.shutdown();
    if clean {
        // The run drained: the session is complete, reap it — including
        // its on-disk journal, which exists only to rescue unfinished runs.
        // Only if the map still holds *this* session: a client may close
        // and open its next run (same id, epoch 0) before this thread gets
        // here, and that successor's session and journal are not ours to
        // reap. The file goes under the lock, because the successor creates
        // its own only after taking the lock to look for a stale session.
        {
            let mut sessions = lock(&shared.sessions);
            if sessions
                .get(&hello.session)
                .is_some_and(|s| Arc::ptr_eq(s, &session))
            {
                sessions.remove(&hello.session);
                if let Some(path) = &session.disk_path {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        session.retire();
    } else {
        // The link died dirty: the session lives on for a resume. Clear
        // the writer only if it is still ours — a successor epoch may
        // already have installed a new one.
        let mut writer = lock(&session.writer);
        if let Some((epoch, _)) = writer.as_ref() {
            if *epoch == hello.epoch {
                if let Some((_, transport)) = writer.take() {
                    transport.shutdown();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_loadgen::sut::SleepSut;

    /// No lost wake-up between the last completion and a parked drainer:
    /// with the poll a minute away, only the completion's own notify can
    /// end the wait, and it does so without a poll expiring.
    #[test]
    fn a_drainer_parked_before_the_last_completion_is_woken_by_it() {
        let outstanding = Outstanding::default();
        let stop = AtomicBool::new(false);
        outstanding.begin();
        outstanding.begin();
        let polls = std::thread::scope(|scope| {
            let drainer = scope.spawn(|| outstanding.wait_idle(Duration::from_secs(60), &stop));
            // Counted under the lock it then waits on: once the count
            // reads 1 the drainer is parked, or will be before this
            // thread can take the lock again.
            while outstanding.state.lock().unwrap().drainers == 0 {
                std::thread::yield_now();
            }
            outstanding.end();
            outstanding.end();
            drainer.join().unwrap()
        });
        assert_eq!(polls, 0, "the drainer left on a poll, not on the wake");
        assert_eq!(outstanding.count(), 0);
    }

    /// `shutdown` means "holds no threads": every thread the daemon starts
    /// — accept, liveness, connection, worker — holds the shared state.
    #[test]
    fn shutdown_leaves_no_thread_holding_the_daemon() {
        let service = Arc::new(SleepSut::new("idle", Duration::ZERO));
        let handle = serve_on("127.0.0.1:0", service, ServeConfig::default()).expect("serve");
        assert_eq!(handle.threads.lock().unwrap().len(), 2);
        handle.shutdown();
        assert_eq!(Arc::strong_count(&handle.shared), 1);
    }

    /// The guard clears only its own stamp: a dead epoch's thread leaving
    /// the service does not unvouch the live one that entered after it.
    #[test]
    fn leaving_the_service_clears_only_ones_own_stamp() {
        let since = AtomicU64::new(0);
        let dead_epoch = Serving::enter(&since, 0);
        assert_eq!(since.load(Ordering::SeqCst), 1, "0 means outside");
        let live_epoch = Serving::enter(&since, 500);
        drop(dead_epoch);
        assert_eq!(since.load(Ordering::SeqCst), 500);
        drop(live_epoch);
        assert_eq!(since.load(Ordering::SeqCst), 0);
    }
}
