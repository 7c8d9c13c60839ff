//! The frame transport abstraction and its chaos-injecting decorator.
//!
//! [`Transport`] is the seam between the message layer and the raw stream:
//! it moves opaque frame payloads (already [`seal`]ed — checksum included)
//! and nothing else. [`TcpTransport`] is the production implementation;
//! [`ChaosTransport`] decorates any transport with a seeded
//! [`WireChaosPlan`] that corrupts, truncates, duplicates, delays,
//! partitions, or severs frames *below* the CRC check — so every injected
//! fault is caught by the integrity layer or surfaced by the protocol's
//! liveness machinery, never silently absorbed.
//!
//! The plan mirrors the device-side `FaultPlan` design: every injection
//! decision is a pure hash of (plan seed, direction, frame index), so the
//! verdict for frame N is identical however threads interleave, and a
//! disarmed plan is a pure pass-through.
//!
//! [`seal`]: crate::frame::seal

use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mlperf_stats::rng::splitmix64;
use mlperf_trace::event::{TraceEvent, TraceSink};

use crate::frame::{write_frame_via, FrameReader, WireError};

/// Moves whole frame payloads over some byte stream.
///
/// Implementations are used from one thread at a time per handle. Each end
/// receives on the handle it read the handshake on — what that handle has
/// read ahead of the frame it returned stays with it — and sends on a
/// [`Transport::try_clone`] of it, kept behind a mutex.
pub trait Transport: Send {
    /// Sends one frame payload.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] / [`WireError::Disconnected`] when the
    /// stream is gone and [`WireError::Protocol`] for oversized payloads.
    fn send(&mut self, payload: &[u8]) -> Result<(), WireError>;

    /// Receives one frame payload, blocking until a frame or an error.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] on stream failure or EOF and
    /// [`WireError::Protocol`] for an oversized length prefix.
    fn recv(&mut self) -> Result<Vec<u8>, WireError>;

    /// Severs the stream in both directions; pending and future operations
    /// on any clone fail. Best-effort and idempotent.
    fn shutdown(&self);

    /// A second handle to the same stream (shared fault state included,
    /// bytes the first has read ahead not).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] if the underlying handle cannot be cloned.
    fn try_clone(&self) -> Result<Box<dyn Transport>, WireError>;
}

/// The production transport: length-prefixed frames over a [`TcpStream`].
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    /// Where `send` assembles `len ‖ payload` for its one write; kept so
    /// the steady state allocates nothing per frame.
    scratch: Vec<u8>,
    /// Where `recv` takes what the socket has in one read. This handle's,
    /// not the stream's: a [`try_clone`](Transport::try_clone) starts empty.
    inbox: FrameReader,
}

impl TcpTransport {
    /// Wraps a connected stream.
    pub fn new(stream: TcpStream) -> Self {
        TcpTransport {
            stream,
            scratch: Vec::new(),
            inbox: FrameReader::new(),
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, payload: &[u8]) -> Result<(), WireError> {
        write_frame_via(&mut self.stream, payload, &mut self.scratch)
    }

    fn recv(&mut self) -> Result<Vec<u8>, WireError> {
        self.inbox.next_frame(&mut self.stream)
    }

    fn shutdown(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn try_clone(&self) -> Result<Box<dyn Transport>, WireError> {
        Ok(Box::new(TcpTransport::new(self.stream.try_clone()?)))
    }
}

/// Seeded description of the wire faults to inject. Mirrors the device
/// layer's `FaultPlan`: a default plan is disarmed (pure pass-through), and
/// every probabilistic decision is an order-independent hash of the plan
/// seed and the per-direction frame index.
///
/// "Send" and "recv" are from the *armed endpoint's* point of view: a plan
/// armed on the client corrupts client→server frames via `send` knobs and
/// server→client frames via `recv` knobs.
#[derive(Debug, Clone)]
pub struct WireChaosPlan {
    seed: u64,
    /// Probability a received frame has one byte flipped.
    pub corrupt_recv_prob: f64,
    /// Flip one byte in exactly this received frame (1-based index).
    pub corrupt_recv_at: Option<u64>,
    /// Truncate exactly this received frame (1-based index).
    pub truncate_recv_at: Option<u64>,
    /// Probability a sent frame is sent twice.
    pub duplicate_send_prob: f64,
    /// Slow-loris: sleep this long before every frame read.
    pub delay_recv: Option<Duration>,
    /// Sever the stream right after this many frames have been sent.
    pub disconnect_after_send: Option<u64>,
    /// One-way partition outbound: swallow every sent frame after this
    /// many (the stream stays open; only silence flows).
    pub partition_send_after: Option<u64>,
    /// One-way partition inbound: discard every received frame after this
    /// many (reads block until the stream dies).
    pub partition_recv_after: Option<u64>,
}

impl WireChaosPlan {
    /// A disarmed plan: decorating a transport with it changes nothing.
    pub fn new(seed: u64) -> Self {
        WireChaosPlan {
            seed,
            corrupt_recv_prob: 0.0,
            corrupt_recv_at: None,
            truncate_recv_at: None,
            duplicate_send_prob: 0.0,
            delay_recv: None,
            disconnect_after_send: None,
            partition_send_after: None,
            partition_recv_after: None,
        }
    }

    /// Arms per-frame byte corruption on the receive side.
    #[must_use]
    pub fn with_corrupt_recv(mut self, prob: f64) -> Self {
        self.corrupt_recv_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Flips one byte in exactly the `n`-th received frame (1-based).
    #[must_use]
    pub fn with_corrupt_recv_at(mut self, n: u64) -> Self {
        self.corrupt_recv_at = Some(n.max(1));
        self
    }

    /// Truncates exactly the `n`-th received frame (1-based).
    #[must_use]
    pub fn with_truncate_recv_at(mut self, n: u64) -> Self {
        self.truncate_recv_at = Some(n.max(1));
        self
    }

    /// Arms per-frame duplication on the send side.
    #[must_use]
    pub fn with_duplicate_send(mut self, prob: f64) -> Self {
        self.duplicate_send_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Arms a slow-loris read delay before every received frame.
    #[must_use]
    pub fn with_delay_recv(mut self, delay: Duration) -> Self {
        self.delay_recv = Some(delay);
        self
    }

    /// Severs the stream right after the `n`-th sent frame (1-based).
    #[must_use]
    pub fn with_disconnect_after_send(mut self, n: u64) -> Self {
        self.disconnect_after_send = Some(n.max(1));
        self
    }

    /// Swallows every sent frame after the `n`-th (one-way partition out).
    #[must_use]
    pub fn with_partition_send_after(mut self, n: u64) -> Self {
        self.partition_send_after = Some(n.max(1));
        self
    }

    /// Discards every received frame after the `n`-th (one-way partition
    /// in).
    #[must_use]
    pub fn with_partition_recv_after(mut self, n: u64) -> Self {
        self.partition_recv_after = Some(n.max(1));
        self
    }

    /// Whether any fault is armed. A disarmed plan is a pure pass-through.
    pub fn is_armed(&self) -> bool {
        self.corrupt_recv_prob > 0.0
            || self.corrupt_recv_at.is_some()
            || self.truncate_recv_at.is_some()
            || self.duplicate_send_prob > 0.0
            || self.delay_recv.is_some()
            || self.disconnect_after_send.is_some()
            || self.partition_send_after.is_some()
            || self.partition_recv_after.is_some()
    }

    /// Order-independent per-frame draw in `[0, 1)`: a pure hash of the
    /// plan seed, direction salt, and frame index.
    fn draw(&self, salt: u64, frame: u64) -> f64 {
        let h = splitmix64(self.seed ^ splitmix64(salt ^ frame.wrapping_mul(0x9E37)));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Deterministic byte position to flip in a `len`-byte payload.
    fn flip_at(&self, salt: u64, frame: u64, len: usize) -> usize {
        let h = splitmix64(self.seed ^ splitmix64(salt.wrapping_add(1) ^ frame));
        (h as usize) % len.max(1)
    }
}

/// Fault state shared by every [`ChaosTransport`] clone of one endpoint:
/// per-direction frame counters, once-only latches, and the connection
/// counter that disarms one-shot faults after a resume.
#[derive(Debug, Default)]
struct ChaosState {
    sent: AtomicU64,
    recvd: AtomicU64,
    connections: AtomicU64,
    send_partitioned: AtomicBool,
    recv_partitioned: AtomicBool,
    disconnect_fired: AtomicBool,
}

/// Per-endpoint chaos context: holds the plan, the cross-connection fault
/// state, and the trace sink injections are reported to. One session wraps
/// every (re)connection of its endpoint, so one-shot faults fire exactly
/// once.
pub struct ChaosSession {
    plan: WireChaosPlan,
    state: Arc<ChaosState>,
    endpoint: &'static str,
    sink: Option<Arc<dyn TraceSink>>,
    start: Instant,
}

impl std::fmt::Debug for ChaosSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosSession")
            .field("plan", &self.plan)
            .field("endpoint", &self.endpoint)
            .finish_non_exhaustive()
    }
}

impl ChaosSession {
    /// Creates a session for one endpoint (`"client"` or `"server"`).
    pub fn new(
        plan: WireChaosPlan,
        endpoint: &'static str,
        sink: Option<Arc<dyn TraceSink>>,
    ) -> Self {
        ChaosSession {
            plan,
            state: Arc::new(ChaosState::default()),
            endpoint,
            sink,
            start: Instant::now(),
        }
    }

    /// Decorates one (re)connection's transport. The first connection is
    /// armed whenever the plan is; later connections are pass-throughs,
    /// so reconnect+resume can heal the link. Partitions always heal on a
    /// new connection (a reconnect takes a new route).
    pub fn wrap(self: &Arc<Self>, inner: Box<dyn Transport>) -> Box<dyn Transport> {
        let conn = self.state.connections.fetch_add(1, Ordering::SeqCst) + 1;
        self.state.send_partitioned.store(false, Ordering::SeqCst);
        self.state.recv_partitioned.store(false, Ordering::SeqCst);
        let armed = self.plan.is_armed() && conn == 1;
        Box::new(ChaosTransport {
            inner,
            session: Arc::clone(self),
            armed,
        })
    }

    fn emit(&self, fault: &str, frame: u64, detail: String) {
        if let Some(sink) = &self.sink {
            if sink.enabled() {
                sink.record(
                    self.start.elapsed().as_nanos() as u64,
                    &TraceEvent::WireFault {
                        endpoint: self.endpoint.to_string(),
                        fault: fault.to_string(),
                        frame,
                        detail,
                    },
                );
            }
        }
    }
}

const SEND_SALT: u64 = 0x5E4D;
const RECV_SALT: u64 = 0x2ECF;

/// A [`Transport`] decorator injecting the faults its [`ChaosSession`]'s
/// plan describes. Disarmed (or cloned from a disarmed connection) it adds
/// one atomic increment per frame to the hot path.
pub struct ChaosTransport {
    inner: Box<dyn Transport>,
    session: Arc<ChaosSession>,
    armed: bool,
}

impl Transport for ChaosTransport {
    fn send(&mut self, payload: &[u8]) -> Result<(), WireError> {
        let frame = self.session.state.sent.fetch_add(1, Ordering::SeqCst) + 1;
        if !self.armed {
            return self.inner.send(payload);
        }
        let plan = &self.session.plan;
        let state = &self.session.state;

        if state.send_partitioned.load(Ordering::SeqCst) {
            return Ok(()); // swallowed: the peer hears only silence
        }
        if let Some(after) = plan.partition_send_after {
            if frame > after {
                state.send_partitioned.store(true, Ordering::SeqCst);
                self.session
                    .emit("partition", frame, "outbound frames swallowed".to_string());
                return Ok(());
            }
        }

        self.inner.send(payload)?;

        if plan.duplicate_send_prob > 0.0
            && plan.draw(SEND_SALT ^ 0xD0B, frame) < plan.duplicate_send_prob
        {
            self.session
                .emit("duplicate", frame, "send: frame sent twice".to_string());
            self.inner.send(payload)?;
        }

        if let Some(at) = plan.disconnect_after_send {
            if frame >= at && !state.disconnect_fired.swap(true, Ordering::SeqCst) {
                self.session
                    .emit("disconnect", frame, "stream severed mid-run".to_string());
                self.inner.shutdown();
            }
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, WireError> {
        if !self.armed {
            self.session.state.recvd.fetch_add(1, Ordering::SeqCst);
            return self.inner.recv();
        }
        let plan = self.session.plan.clone();
        loop {
            let frame = self.session.state.recvd.fetch_add(1, Ordering::SeqCst) + 1;
            if let Some(delay) = plan.delay_recv {
                std::thread::sleep(delay);
            }
            let partitioned = self.session.state.recv_partitioned.load(Ordering::SeqCst)
                || plan.partition_recv_after.is_some_and(|after| frame > after);
            if partitioned
                && !self
                    .session
                    .state
                    .recv_partitioned
                    .swap(true, Ordering::SeqCst)
            {
                self.session
                    .emit("partition", frame, "inbound frames discarded".to_string());
            }

            let mut payload = self.inner.recv()?;
            if partitioned {
                continue; // discard and keep reading: one-way silence
            }

            if let Some(at) = plan.truncate_recv_at {
                if frame == at && !payload.is_empty() {
                    let keep = payload.len() / 2;
                    payload.truncate(keep);
                    self.session.emit(
                        "truncate",
                        frame,
                        format!("recv: payload cut to {keep} bytes"),
                    );
                }
            }
            let corrupt = plan.corrupt_recv_at == Some(frame)
                || (plan.corrupt_recv_prob > 0.0
                    && plan.draw(RECV_SALT, frame) < plan.corrupt_recv_prob);
            if corrupt && !payload.is_empty() {
                let pos = plan.flip_at(RECV_SALT, frame, payload.len());
                payload[pos] ^= 0x20;
                self.session
                    .emit("corrupt", frame, format!("recv: flipped byte {pos}"));
            }
            return Ok(payload);
        }
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }

    fn try_clone(&self) -> Result<Box<dyn Transport>, WireError> {
        Ok(Box::new(ChaosTransport {
            inner: self.inner.try_clone()?,
            session: Arc::clone(&self.session),
            armed: self.armed,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{open, seal};
    use mlperf_trace::RingBufferSink;
    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// An in-memory transport: sends append to a shared queue, recvs pop
    /// from another. Good enough to exercise the chaos decorator without a
    /// socket.
    #[derive(Default)]
    struct MemPipe {
        out: Arc<Mutex<VecDeque<Vec<u8>>>>,
        inp: Arc<Mutex<VecDeque<Vec<u8>>>>,
    }

    impl Transport for MemPipe {
        fn send(&mut self, payload: &[u8]) -> Result<(), WireError> {
            self.out.lock().unwrap().push_back(payload.to_vec());
            Ok(())
        }
        fn recv(&mut self) -> Result<Vec<u8>, WireError> {
            self.inp
                .lock()
                .unwrap()
                .pop_front()
                .ok_or_else(|| WireError::Disconnected("mem pipe empty".into()))
        }
        fn shutdown(&self) {}
        fn try_clone(&self) -> Result<Box<dyn Transport>, WireError> {
            Ok(Box::new(MemPipe {
                out: Arc::clone(&self.out),
                inp: Arc::clone(&self.inp),
            }))
        }
    }

    type Pipe = Arc<Mutex<VecDeque<Vec<u8>>>>;

    fn wrapped(plan: WireChaosPlan) -> (Box<dyn Transport>, Pipe, Pipe) {
        let pipe = MemPipe::default();
        let out = Arc::clone(&pipe.out);
        let inp = Arc::clone(&pipe.inp);
        let session = Arc::new(ChaosSession::new(plan, "client", None));
        (session.wrap(Box::new(pipe)), out, inp)
    }

    #[test]
    fn disarmed_plan_is_pass_through() {
        let plan = WireChaosPlan::new(7);
        assert!(!plan.is_armed());
        let sink = Arc::new(RingBufferSink::unbounded());
        let pipe = MemPipe::default();
        let (out, inp) = (Arc::clone(&pipe.out), Arc::clone(&pipe.inp));
        let session = Arc::new(ChaosSession::new(plan, "client", Some(sink.clone())));
        let mut t = session.wrap(Box::new(pipe));
        let sealed = seal(b"payload");
        t.send(&sealed).unwrap();
        assert_eq!(out.lock().unwrap().len(), 1);
        assert_eq!(out.lock().unwrap()[0], sealed);
        inp.lock().unwrap().push_back(sealed.clone());
        assert_eq!(t.recv().unwrap(), sealed);
        assert!(sink.snapshot().is_empty(), "nothing injected, no WireFault");

        // A disarmed connection of an armed plan — any after the first —
        // hands its clone (the client's reader half) the same pass-through:
        // every frame would be corrupted if the clone re-armed itself.
        let armed = WireChaosPlan::new(7)
            .with_corrupt_recv(1.0)
            .with_duplicate_send(1.0);
        let pipe = MemPipe::default();
        let (out, inp) = (Arc::clone(&pipe.out), Arc::clone(&pipe.inp));
        let session = Arc::new(ChaosSession::new(armed, "client", Some(sink.clone())));
        let _first = session.wrap(pipe.try_clone().unwrap());
        let mut reader = session.wrap(Box::new(pipe)).try_clone().unwrap();
        reader.send(&sealed).unwrap();
        assert_eq!(*out.lock().unwrap(), std::slice::from_ref(&sealed));
        inp.lock().unwrap().push_back(sealed.clone());
        assert_eq!(reader.recv().unwrap(), sealed);
        assert!(
            sink.snapshot().is_empty(),
            "a disarmed clone injects nothing"
        );
    }

    #[test]
    fn corrupt_recv_is_caught_by_crc() {
        let plan = WireChaosPlan::new(11).with_corrupt_recv(1.0);
        assert!(plan.is_armed());
        let (mut t, _out, inp) = wrapped(plan);
        inp.lock().unwrap().push_back(seal(b"an innocent frame"));
        let payload = t.recv().unwrap();
        assert!(matches!(open(&payload), Err(WireError::Frame(_))));
    }

    #[test]
    fn truncate_recv_is_caught_by_crc() {
        let plan = WireChaosPlan::new(13).with_truncate_recv_at(1);
        let (mut t, _out, inp) = wrapped(plan);
        inp.lock().unwrap().push_back(seal(b"soon to be shorter"));
        let payload = t.recv().unwrap();
        assert!(matches!(open(&payload), Err(WireError::Frame(_))));
    }

    #[test]
    fn duplicate_send_doubles_frames() {
        let plan = WireChaosPlan::new(17).with_duplicate_send(1.0);
        let (mut t, out, _inp) = wrapped(plan);
        t.send(&seal(b"once")).unwrap();
        assert_eq!(out.lock().unwrap().len(), 2);
    }

    #[test]
    fn partition_send_swallows_after_threshold() {
        let plan = WireChaosPlan::new(19).with_partition_send_after(1);
        let (mut t, out, _inp) = wrapped(plan);
        t.send(&seal(b"delivered")).unwrap();
        t.send(&seal(b"swallowed")).unwrap();
        t.send(&seal(b"swallowed too")).unwrap();
        assert_eq!(out.lock().unwrap().len(), 1);
    }

    #[test]
    fn injections_are_order_independent() {
        // Same seed, same frame index => same corrupt decision, whatever
        // happened before.
        let plan = WireChaosPlan::new(23).with_corrupt_recv(0.5);
        let picks: Vec<bool> = (1..=64)
            .map(|frame| plan.draw(RECV_SALT, frame) < plan.corrupt_recv_prob)
            .collect();
        let replay: Vec<bool> = (1..=64)
            .rev()
            .map(|frame| plan.draw(RECV_SALT, frame) < plan.corrupt_recv_prob)
            .rev()
            .collect();
        assert_eq!(picks, replay);
        assert!(picks.iter().any(|&p| p));
        assert!(picks.iter().any(|&p| !p));
    }

    /// The two halves of a link share a socket and nothing else: each has
    /// its own receive buffer, so severing must still reach a reader
    /// parked in the kernel through the *other* handle.
    #[test]
    fn shutdown_from_the_writer_half_unblocks_a_reader_parked_in_recv() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (peer, _) = listener.accept().unwrap();
        let mut peer = TcpTransport::new(peer);
        let mut reader = TcpTransport::new(stream);
        let mut writer = reader.try_clone().unwrap();

        let (parking, parked) = std::sync::mpsc::channel();
        let blocked = std::thread::spawn(move || {
            let first = reader.recv();
            parking.send(()).unwrap();
            (first, reader.recv())
        });
        peer.send(&seal(b"one frame, then silence")).unwrap();
        parked.recv().unwrap();
        // The reader is in (or about to enter) its second `recv`, with the
        // peer holding the socket open and silent. Either way it must
        // return, and with an `Io` error.
        writer.shutdown();
        let (first, second) = blocked.join().unwrap();
        assert_eq!(first.unwrap(), seal(b"one frame, then silence"));
        assert!(matches!(second, Err(WireError::Io(_))), "{second:?}");
        assert!(writer.send(&seal(b"too late")).is_err());
    }

    #[test]
    fn second_connection_disarms_one_shot_faults() {
        let plan = WireChaosPlan::new(29).with_partition_send_after(1);
        let session = Arc::new(ChaosSession::new(plan, "client", None));
        let pipe = MemPipe::default();
        let out = Arc::clone(&pipe.out);
        let mut first = session.wrap(Box::new(pipe));
        first.send(&seal(b"a")).unwrap();
        first.send(&seal(b"swallowed")).unwrap();
        assert_eq!(out.lock().unwrap().len(), 1);

        let pipe2 = MemPipe::default();
        let out2 = Arc::clone(&pipe2.out);
        let mut second = session.wrap(Box::new(pipe2));
        second.send(&seal(b"b")).unwrap();
        second.send(&seal(b"c")).unwrap();
        assert_eq!(out2.lock().unwrap().len(), 2, "reconnect must heal");
    }
}
