//! Length-prefixed binary framing and the byte-level codec primitives.
//!
//! Every message on a wire connection travels as one *frame*:
//!
//! ```text
//! +----------------+----------------+---------------------------------+
//! | length: u32 BE | crc32: u32 BE  | body: `length - 4` bytes        |
//! +----------------+----------------+---------------------------------+
//! ```
//!
//! The CRC32 (IEEE polynomial; the workspace's one implementation,
//! `mlperf_trace::crc`, re-exported here) covers the body; it is sealed in
//! by [`seal`] and checked by [`open`] *above* the raw transport,
//! so a byte flipped anywhere in transit — including by a
//! [`ChaosTransport`](crate::transport::ChaosTransport) — surfaces as a
//! structured [`FrameError`], never as a plausible message. The body is a
//! tagged binary encoding of one [`Message`]; see [`crate::message`] for
//! the per-message layouts, written and read with the workspace's one byte
//! codec (`mlperf_trace::bytes`, re-exported here): integers are
//! big-endian, strings are a `u32` byte length followed by UTF-8, and
//! floats travel as their IEEE-754 bit patterns. Everything is hand-rolled
//! on `std::io` — the workspace is dependency-free by rule.
//!
//! [`Message`]: crate::message::Message

use std::io::{Read, Write};

use mlperf_trace::bytes::ByteError;
pub use mlperf_trace::crc::crc32;

/// Hard ceiling on a frame's payload size. An offline query over a
/// 24,576-sample QSL encodes in ~400 KiB; 64 MiB leaves room for
/// accuracy-mode payloads while still catching a corrupt length prefix
/// before it turns into a multi-gigabyte allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// A frame that failed its integrity check: the length prefix arrived, but
/// the body's CRC32 does not match the checksum sealed in by the sender.
///
/// This is deliberately a *structured* error (not a string): the client
/// maps it to an errored completion feeding `ErrorFractionExceeded`, and
/// tests assert on it directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameError {
    /// Payload length from the frame header (checksum + body).
    pub(crate) len: usize,
    /// CRC32 the sender sealed into the frame.
    pub(crate) expected: u32,
    /// CRC32 computed over the body as received.
    pub(crate) found: u32,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame integrity failure: {}-byte payload, crc {:#010x} != sealed {:#010x}",
            self.len, self.found, self.expected
        )
    }
}

/// Errors raised by the wire layer.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The peer sent bytes that do not decode as a valid message.
    Protocol(String),
    /// A frame's CRC32 check failed: bytes were corrupted in transit.
    Frame(FrameError),
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Our protocol version.
        ours: u16,
        /// The peer's protocol version.
        theirs: u16,
    },
    /// The server refused the handshake.
    Rejected(String),
    /// The connection died (reset, heartbeat loss, or orderly close while
    /// queries were still in flight).
    Disconnected(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Protocol(msg) => write!(f, "wire protocol error: {msg}"),
            WireError::Frame(e) => write!(f, "{e}"),
            WireError::VersionMismatch { ours, theirs } => {
                write!(f, "wire version mismatch: ours v{ours}, peer v{theirs}")
            }
            WireError::Rejected(reason) => write!(f, "handshake rejected: {reason}"),
            WireError::Disconnected(reason) => write!(f, "wire disconnected: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<ByteError> for WireError {
    fn from(e: ByteError) -> Self {
        WireError::Protocol(e.to_string())
    }
}

/// Writes one frame: `u32` big-endian payload length, then the payload,
/// assembled and handed to the writer in a single `write_all`. On a
/// `TCP_NODELAY` socket every write is a TCP send of its own, so a frame
/// written as prefix-then-payload pays for the loopback stack twice.
///
/// # Errors
///
/// Returns [`WireError::Protocol`] for an oversized payload (nothing is
/// written) and [`WireError::Io`] for socket failures.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> Result<(), WireError> {
    write_frame_via(writer, payload, &mut Vec::new())
}

/// [`write_frame`] assembling into a caller-owned buffer, so a long-lived
/// connection allocates nothing per frame.
pub(crate) fn write_frame_via<W: Write>(
    writer: &mut W,
    payload: &[u8],
    scratch: &mut Vec<u8>,
) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::Protocol(format!(
            "frame payload of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
            payload.len()
        )));
    }
    scratch.clear();
    scratch.reserve(4 + payload.len());
    scratch.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    scratch.extend_from_slice(payload);
    writer.write_all(scratch)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame's payload.
///
/// # Errors
///
/// Returns [`WireError::Io`] on socket failure or EOF mid-frame, and
/// [`WireError::Protocol`] for a length prefix beyond [`MAX_FRAME_LEN`].
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Vec<u8>, WireError> {
    let mut len_bytes = [0u8; 4];
    reader.read_exact(&mut len_bytes)?;
    let len = payload_len(len_bytes)?;
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(payload)
}

/// A length prefix's payload size, checked against [`MAX_FRAME_LEN`]
/// before anything is allocated for it: the one rule, and the one error
/// text, of both frame readers.
#[inline]
fn payload_len(prefix: [u8; 4]) -> Result<usize, WireError> {
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Protocol(format!(
            "frame length prefix {len} exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    Ok(len)
}

/// Bytes a [`FrameReader`] takes from its stream at a time: many times a
/// paced run's frames (tens of bytes to a few KiB), so a burst of them
/// still comes in one read.
const READ_AHEAD: usize = 16 << 10;

/// [`read_frame`] for a long-lived connection, the read side of
/// [`write_frame_via`]: a fixed buffer takes whatever the stream has ready
/// in one `read` and hands whole frames out of it, so a frame that arrived
/// in one piece costs one `read`, not one for the prefix and one for the
/// payload, and frames that arrived together cost one between them. What
/// it has read ahead exists only here: the handle that has read from a
/// stream must stay the one that reads from it. A read that fails part way
/// through a frame — a socket read timeout — loses nothing: the next call
/// resumes that frame where it stopped.
pub struct FrameReader {
    buf: Box<[u8]>,
    /// `buf[start..end]` is read and not yet handed out.
    start: usize,
    end: usize,
    /// A frame whose prefix has been read and whose payload has not all
    /// arrived: the payload sized by the prefix, and how much of it is in.
    partial: Option<(Vec<u8>, usize)>,
}

impl std::fmt::Debug for FrameReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameReader")
            .field("buffered", &(self.end - self.start))
            .finish_non_exhaustive()
    }
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameReader {
    /// An empty reader with its buffer allocated.
    pub fn new() -> Self {
        FrameReader {
            buf: vec![0u8; READ_AHEAD].into_boxed_slice(),
            start: 0,
            end: 0,
            partial: None,
        }
    }

    /// The next frame's payload, blocking in `reader` only for bytes the
    /// buffer does not hold yet.
    ///
    /// # Errors
    ///
    /// As [`read_frame`]: [`WireError::Io`] on failure or EOF, between
    /// frames or within one, [`WireError::Protocol`] for a length prefix
    /// beyond [`MAX_FRAME_LEN`].
    pub fn next_frame<R: Read>(&mut self, reader: &mut R) -> Result<Vec<u8>, WireError> {
        if self.partial.is_none() {
            while self.end - self.start < 4 {
                // At most three bytes to move, and then the whole buffer to
                // read into.
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
                match reader.read(&mut self.buf[self.end..]) {
                    Ok(0) => return Err(unexpected_eof()),
                    Ok(n) => self.end += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
            }
            let prefix = &self.buf[self.start..self.start + 4];
            let len = payload_len(prefix.try_into().expect("four bytes"))?;
            self.start += 4;
            let held = len.min(self.end - self.start);
            let mut payload = Vec::with_capacity(len);
            payload.extend_from_slice(&self.buf[self.start..self.start + held]);
            self.start += held;
            if held == len {
                return Ok(payload);
            }
            // The rest has yet to arrive, or never fitted: it goes straight
            // into the payload, and the buffer is empty again.
            payload.resize(len, 0);
            self.partial = Some((payload, held));
        }
        let (payload, filled) = self.partial.as_mut().expect("a frame in progress");
        while *filled < payload.len() {
            match reader.read(&mut payload[*filled..]) {
                Ok(0) => return Err(unexpected_eof()),
                Ok(n) => *filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(self.partial.take().expect("a frame in progress").0)
    }
}

/// What `read_exact` says when the stream ends short, so both frame
/// readers report an EOF alike wherever it falls.
fn unexpected_eof() -> WireError {
    let eof = std::io::ErrorKind::UnexpectedEof;
    std::io::Error::new(eof, "failed to fill whole buffer").into()
}

/// Seals a message body into a frame payload: `crc32(body) || body`.
///
/// The checksum travels *inside* the payload, below the length prefix but
/// above any transport decoration, so corruption injected anywhere between
/// the two [`seal`]/[`open`] calls is caught.
pub fn seal(body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(body.len() + 4);
    payload.extend_from_slice(&crc32(body).to_be_bytes());
    payload.extend_from_slice(body);
    payload
}

/// Opens a sealed frame payload, verifying the CRC32 and returning the
/// message body.
///
/// # Errors
///
/// Returns [`WireError::Frame`] if the payload is too short to carry a
/// checksum or the body's CRC32 does not match the sealed one.
pub fn open(payload: &[u8]) -> Result<&[u8], WireError> {
    if payload.len() < 4 {
        return Err(WireError::Frame(FrameError {
            len: payload.len(),
            expected: 0,
            found: 0,
        }));
    }
    let expected = u32::from_be_bytes(payload[..4].try_into().expect("len 4"));
    let body = &payload[4..];
    let found = crc32(body);
    if found != expected {
        return Err(WireError::Frame(FrameError {
            len: payload.len(),
            expected,
            found,
        }));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert!(read_frame(&mut cursor).is_err()); // EOF
    }

    /// A `Write` that takes at most `accept` bytes per call and counts calls.
    struct CountingWriter {
        accept: usize,
        writes: usize,
        bytes: Vec<u8>,
    }

    impl CountingWriter {
        fn accepting(accept: usize) -> Self {
            CountingWriter {
                accept,
                writes: 0,
                bytes: Vec::new(),
            }
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.accept);
            self.writes += 1;
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn completion(samples: u64) -> crate::message::Message {
        use mlperf_loadgen::query::{ResponsePayload, SampleCompletion};
        crate::message::Message::Completion {
            query_id: 17,
            error: false,
            samples: (0..samples)
                .map(|i| SampleCompletion {
                    sample_id: 170 + i,
                    payload: ResponsePayload::Class(i as usize),
                })
                .collect(),
        }
    }

    #[test]
    fn one_write_call_per_frame() {
        for samples in [1, 256] {
            let payload = completion(samples).to_wire();
            let mut w = CountingWriter::accepting(usize::MAX);
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.writes, 1, "{samples}-sample frame");
            assert_eq!(w.bytes.len(), 4 + payload.len());
            assert_eq!(read_frame(&mut w.bytes.as_slice()).unwrap(), payload);
        }
    }

    #[test]
    fn oversized_payload_rejected_before_any_byte_is_written() {
        let payload = vec![0u8; MAX_FRAME_LEN + 1];
        let mut w = CountingWriter::accepting(usize::MAX);
        assert!(matches!(
            write_frame(&mut w, &payload),
            Err(WireError::Protocol(_))
        ));
        assert_eq!((w.writes, w.bytes.len()), (0, 0));
    }

    #[test]
    fn short_writes_still_deliver_the_frame() {
        let message = completion(8);
        let mut w = CountingWriter::accepting(3);
        write_frame(&mut w, &message.to_wire()).unwrap();
        assert!(w.writes > 1);
        let payload = read_frame(&mut w.bytes.as_slice()).unwrap();
        assert_eq!(
            crate::message::Message::from_wire(&payload).unwrap(),
            message
        );
    }

    /// A `Read` that hands its bytes out in scripted chunk sizes (the last
    /// one repeats) and counts calls: the mirror of [`CountingWriter`].
    struct CountingReader<'a> {
        bytes: &'a [u8],
        chunks: &'a [usize],
        reads: usize,
    }

    impl<'a> CountingReader<'a> {
        fn in_chunks(bytes: &'a [u8], chunks: &'a [usize]) -> Self {
            CountingReader {
                bytes,
                chunks,
                reads: 0,
            }
        }
    }

    impl Read for CountingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let chunk = self.chunks[self.reads.min(self.chunks.len() - 1)];
            let n = chunk.min(buf.len()).min(self.bytes.len());
            self.reads += 1;
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Every frame `reader` yields through a fresh [`FrameReader`], and the
    /// error that ended the stream.
    fn drain_buffered(reader: &mut impl Read) -> (Vec<Vec<u8>>, WireError) {
        let mut frames = FrameReader::new();
        let mut payloads = Vec::new();
        loop {
            match frames.next_frame(reader) {
                Ok(payload) => payloads.push(payload),
                Err(e) => return (payloads, e),
            }
        }
    }

    /// The same through [`read_frame`], the reference.
    fn drain_unbuffered(mut bytes: &[u8]) -> (Vec<Vec<u8>>, WireError) {
        let mut payloads = Vec::new();
        loop {
            match read_frame(&mut bytes) {
                Ok(payload) => payloads.push(payload),
                Err(e) => return (payloads, e),
            }
        }
    }

    /// `count` frames drawn from `sample_messages()` by a seeded hash, as
    /// they would sit in a socket buffer.
    fn seeded_stream(seed: u64, count: u64) -> Vec<u8> {
        let messages = crate::message::tests::sample_messages();
        let mut stream = Vec::new();
        for i in 0..count {
            let pick = mlperf_stats::rng::splitmix64(seed ^ i) as usize % messages.len();
            write_frame(&mut stream, &messages[pick].to_wire()).unwrap();
        }
        stream
    }

    #[test]
    fn buffered_reader_agrees_with_read_frame_however_the_bytes_arrive() {
        let stream = seeded_stream(0xF4A3E, 48);
        let (expected, _) = drain_unbuffered(&stream);
        assert_eq!(expected.len(), 48);
        let mut deliveries: Vec<Vec<usize>> = vec![vec![usize::MAX]];
        deliveries.extend([1, 2, 3, 5, 7, 64, 1_000].map(|k| vec![k]));
        deliveries.extend((1..stream.len()).map(|split| vec![split, usize::MAX]));
        for chunks in &deliveries {
            let mut reader = CountingReader::in_chunks(&stream, chunks);
            let (payloads, end) = drain_buffered(&mut reader);
            assert!(payloads == expected, "delivered as {chunks:?}");
            assert!(matches!(end, WireError::Io(_)), "{chunks:?}: {end:?}");
        }
    }

    #[test]
    fn one_read_call_per_frame() {
        for samples in [1, 256] {
            let payload = completion(samples).to_wire();
            let mut stream = Vec::new();
            write_frame(&mut stream, &payload).unwrap();
            let mut reader = CountingReader::in_chunks(&stream, &[usize::MAX]);
            let mut frames = FrameReader::new();
            assert_eq!(frames.next_frame(&mut reader).unwrap(), payload);
            assert_eq!(reader.reads, 1, "{samples}-sample frame");
        }
        // Two frames that arrived together: one read between them.
        let stream = seeded_stream(7, 2);
        let mut reader = CountingReader::in_chunks(&stream, &[usize::MAX]);
        let mut frames = FrameReader::new();
        frames.next_frame(&mut reader).unwrap();
        frames.next_frame(&mut reader).unwrap();
        assert_eq!(reader.reads, 1);
    }

    #[test]
    fn a_frame_larger_than_the_buffer_is_read_whole() {
        let big: Vec<u8> = (0..3 * READ_AHEAD + 5).map(|i| (i % 251) as u8).collect();
        let mut stream = Vec::new();
        write_frame(&mut stream, b"before").unwrap();
        write_frame(&mut stream, &big).unwrap();
        write_frame(&mut stream, b"after").unwrap();
        for chunks in [&[usize::MAX][..], &[1_000], &[READ_AHEAD, 1]] {
            let mut reader = CountingReader::in_chunks(&stream, chunks);
            let (payloads, _) = drain_buffered(&mut reader);
            assert!(
                payloads == [&b"before"[..], &big, b"after"],
                "delivered as {chunks:?}"
            );
        }
        // All there at once: the buffer's fill, then the remainder in one
        // read straight into the payload, then the frame behind it.
        let mut reader = CountingReader::in_chunks(&stream, &[usize::MAX]);
        let mut frames = FrameReader::new();
        for _ in 0..3 {
            frames.next_frame(&mut reader).unwrap();
        }
        assert_eq!(reader.reads, 3);
    }

    /// `bytes` in reads of `chunk` bytes, each preceded by one read that
    /// times out, as a socket with a read timeout does on a slow link.
    struct Stalling<'a> {
        bytes: &'a [u8],
        chunk: usize,
        stalled: bool,
    }

    impl Read for Stalling<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.stalled && !self.bytes.is_empty() {
                self.stalled = true;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.stalled = false;
            let n = self.chunk.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// A read that times out anywhere in a frame — in the prefix, between
    /// prefix and payload, inside a payload larger than the buffer — is
    /// an error that loses nothing: the next call resumes the frame.
    #[test]
    fn a_read_timeout_mid_frame_resumes_the_frame() {
        let mut stream = seeded_stream(0x71CC, 24);
        let big: Vec<u8> = (0..2 * READ_AHEAD + 3).map(|i| (i % 241) as u8).collect();
        write_frame(&mut stream, &big).unwrap();
        write_frame(&mut stream, b"after").unwrap();
        let (expected, _) = drain_unbuffered(&stream);
        for chunk in [1, 3, 5, 64, 1_000, READ_AHEAD + 7] {
            let mut reader = Stalling {
                bytes: &stream,
                chunk,
                stalled: false,
            };
            let mut frames = FrameReader::new();
            let (mut payloads, mut stalls) = (Vec::new(), 0);
            let end = loop {
                match frames.next_frame(&mut reader) {
                    Ok(payload) => payloads.push(payload),
                    Err(WireError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        stalls += 1;
                    }
                    Err(e) => break e,
                }
            };
            assert!(payloads == expected, "delivered in {chunk}-byte reads");
            assert!(stalls > 0, "no stall in {chunk}-byte reads");
            assert!(matches!(end, WireError::Io(_)), "{end:?}");
        }
    }

    #[test]
    fn buffered_reader_refuses_an_oversized_prefix_as_read_frame_does() {
        let prefix = (MAX_FRAME_LEN as u32 + 1).to_be_bytes();
        let reference = read_frame(&mut &prefix[..]).unwrap_err();
        let mut reader = CountingReader::in_chunks(&prefix, &[usize::MAX]);
        let refused = FrameReader::new().next_frame(&mut reader).unwrap_err();
        assert!(matches!(refused, WireError::Protocol(_)), "{refused:?}");
        assert_eq!(refused.to_string(), reference.to_string());
        // Refused on the prefix alone: nothing was sized by it, and no
        // read was made for a payload.
        assert_eq!(reader.reads, 1);
    }

    /// The client's `classify` resolves any `Io` as `Vanished` (the
    /// queries' fate is unknown) and anything else as `Errored`; an EOF
    /// must stay on the `Io` side wherever it falls.
    #[test]
    fn eof_between_frames_and_within_one_are_both_io_errors() {
        let stream = seeded_stream(11, 3);
        for cut in 0..stream.len() {
            let mut reader = CountingReader::in_chunks(&stream[..cut], &[usize::MAX]);
            let (payloads, end) = drain_buffered(&mut reader);
            let (expected, reference) = drain_unbuffered(&stream[..cut]);
            assert!(payloads == expected, "cut at {cut}");
            match (&end, &reference) {
                (WireError::Io(e), WireError::Io(r)) => {
                    assert_eq!(e.kind(), r.kind(), "cut at {cut}");
                    assert_eq!(e.to_string(), r.to_string(), "cut at {cut}");
                }
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Protocol(_))
        ));
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_be_bytes());
        buf.extend_from_slice(b"only4");
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Io(_))));
    }

    #[test]
    fn seal_open_roundtrip() {
        for body in [&b""[..], b"x", b"a longer message body \x00\xff"] {
            let payload = seal(body);
            assert_eq!(payload.len(), body.len() + 4);
            assert_eq!(open(&payload).unwrap(), body);
        }
    }

    #[test]
    fn undersized_payload_is_frame_error() {
        for len in 0..4 {
            let payload = vec![0u8; len];
            assert!(matches!(open(&payload), Err(WireError::Frame(_))));
        }
    }

    #[test]
    fn every_single_byte_flip_is_caught() {
        let body = b"completion: query 17, 2 samples, no error";
        let sealed = seal(body);
        for pos in 0..sealed.len() {
            for bit in 0..8u8 {
                let mut corrupted = sealed.clone();
                corrupted[pos] ^= 1 << bit;
                let err = open(&corrupted).expect_err("flip must be caught");
                assert!(
                    matches!(err, WireError::Frame(_)),
                    "byte {pos} bit {bit}: {err:?}"
                );
            }
        }
    }
}
