//! Length-prefixed binary framing and the byte-level codec primitives.
//!
//! Every message on a wire connection travels as one *frame* (format v2):
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

pub use mlperf_trace::bytes::{ByteError, ByteReader, ByteWriter};
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
    pub len: usize,
    /// CRC32 the sender sealed into the frame.
    pub expected: u32,
    /// CRC32 computed over the body as received.
    pub found: u32,
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
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Protocol(format!(
            "frame length prefix {len} exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(payload)
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
