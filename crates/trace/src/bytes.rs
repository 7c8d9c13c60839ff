//! The workspace's one byte codec: an append-only big-endian writer and a
//! bounds-checked cursor.
//!
//! Wire messages, run-journal checkpoints and the `MLPR` recorded trace
//! are written and read through these two types: fixed-width big-endian
//! integers, floats as IEEE-754 bit patterns, strings and lists behind a
//! `u32` length. Like [`crate::crc`] it lives in the leaf crate so every
//! codec can reach it (`mlperf_wire::frame` re-exports it). Accessors are
//! `#[inline]`: the workspace builds without LTO, and a call per field
//! across the crate boundary would cost more than the field.

use crate::crc::crc32;

/// Why a [`ByteReader`] refused a buffer. Each codec converts this into
/// its own error type (`WireError::Protocol`, `CodecError`, the run
/// journal's `LoadGenError::Journal`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteError {
    /// The buffer ended before the value (or the counted items) did.
    Truncated {
        /// Bytes the decoder needed.
        wanted: usize,
        /// Cursor position the need arose at.
        offset: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// A string field is not UTF-8.
    Utf8,
    /// Bytes remain after the last field.
    Trailing(usize),
    /// A tag or flag holds a value the format gives no meaning.
    Invalid {
        /// Which field.
        what: &'static str,
        /// What it held.
        value: u64,
    },
}

impl std::fmt::Display for ByteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ByteError::Truncated {
                wanted,
                offset,
                remaining,
            } => write!(
                f,
                "payload truncated: wanted {wanted} bytes at offset {offset}, {remaining} remain"
            ),
            ByteError::Utf8 => write!(f, "invalid UTF-8 in string field"),
            ByteError::Trailing(n) => write!(f, "{n} trailing bytes after message"),
            ByteError::Invalid { what, value } => write!(f, "invalid {what} {value}"),
        }
    }
}

impl std::error::Error for ByteError {}

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty encoder with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// An encoder whose first four bytes are reserved for the checksum
    /// [`ByteWriter::into_sealed`] patches in, with room for a sealed
    /// frame of `capacity` bytes (the checksum included), so a caller
    /// that knows the frame's size never regrows the buffer.
    pub fn sealed(capacity: usize) -> Self {
        let mut w = Self::with_capacity(capacity);
        w.put_bytes(&[0; 4]);
        w
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Consumes an encoder made by [`ByteWriter::sealed`], returning
    /// `crc32(body) || body` with no second buffer.
    pub fn into_sealed(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf[4..]);
        self.buf[..4].copy_from_slice(&crc.to_be_bytes());
        self.buf
    }

    /// Appends raw bytes.
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a flag as one byte, 0 or 1.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a big-endian `u16`.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.put_bytes(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_be_bytes());
    }

    /// Appends an `f32` as its IEEE-754 bit pattern.
    #[inline]
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.put_bytes(v.as_bytes());
    }

    /// Appends a `u32` item count, then each item through `put`.
    pub fn put_list<T>(&mut self, items: &[T], mut put: impl FnMut(&mut Self, &T)) {
        self.put_u32(items.len() as u32);
        for item in items {
            put(self, item);
        }
    }
}

/// Cursor-based decoder. Every accessor checks bounds; nothing here
/// panics or allocates ahead of the bytes that justify it.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn truncated(&self, wanted: usize) -> ByteError {
        ByteError::Truncated {
            wanted,
            offset: self.pos,
            remaining: self.remaining(),
        }
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ByteError::Truncated`] when fewer remain (as do all
    /// readers below).
    #[inline]
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], ByteError> {
        if self.remaining() < n {
            return Err(self.truncated(n));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    #[inline]
    fn get_array<const N: usize>(&mut self) -> Result<[u8; N], ByteError> {
        Ok(self
            .get_bytes(N)?
            .try_into()
            .expect("get_bytes(N) is N long"))
    }

    /// Reads one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, ByteError> {
        Ok(self.get_bytes(1)?[0])
    }

    /// Reads a flag written by [`ByteWriter::put_bool`].
    ///
    /// # Errors
    ///
    /// Returns [`ByteError::Invalid`] naming `what` for any byte but 0/1.
    #[inline]
    pub fn get_bool(&mut self, what: &'static str) -> Result<bool, ByteError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ByteError::Invalid {
                what,
                value: u64::from(other),
            }),
        }
    }

    /// Reads a big-endian `u16`.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, ByteError> {
        Ok(u16::from_be_bytes(self.get_array()?))
    }

    /// Reads a big-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, ByteError> {
        Ok(u32::from_be_bytes(self.get_array()?))
    }

    /// Reads a big-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, ByteError> {
        Ok(u64::from_be_bytes(self.get_array()?))
    }

    /// Reads an `f32` from its bit pattern.
    #[inline]
    pub fn get_f32(&mut self) -> Result<f32, ByteError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads an `f64` from its bit pattern.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, ByteError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `u32` item count, then that many items through `get`.
    /// `item_bytes` is the least one item occupies: the list is allocated
    /// only once `count × item_bytes` is known to fit in what remains.
    ///
    /// # Errors
    ///
    /// Returns [`ByteError::Truncated`] for a count the remaining bytes
    /// cannot hold, and whatever `get` returns.
    pub fn get_list<T>(
        &mut self,
        item_bytes: usize,
        mut get: impl FnMut(&mut Self) -> Result<T, ByteError>,
    ) -> Result<Vec<T>, ByteError> {
        let count = self.get_u32()? as usize;
        let wanted = count.saturating_mul(item_bytes);
        if wanted > self.remaining() {
            return Err(self.truncated(wanted));
        }
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(get(self)?);
        }
        Ok(items)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`ByteError::Utf8`] for bytes that are not UTF-8.
    pub fn get_str(&mut self) -> Result<String, ByteError> {
        let len = self.get_u32()? as usize;
        std::str::from_utf8(self.get_bytes(len)?)
            .map(str::to_owned)
            .map_err(|_| ByteError::Utf8)
    }

    /// Asserts the buffer was fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`ByteError::Trailing`] if bytes remain.
    pub fn finish(self) -> Result<(), ByteError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(ByteError::Trailing(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(1_000);
        w.put_u32(70_000);
        w.put_u64(u64::MAX - 3);
        w.put_f32(0.25);
        w.put_f64(-0.125);
        w.put_str("schnell");
        w.put_bytes(b"raw");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool("flag").unwrap());
        assert_eq!(r.get_u16().unwrap(), 1_000);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f32().unwrap(), 0.25);
        assert_eq!(r.get_f64().unwrap(), -0.125);
        assert_eq!(r.get_str().unwrap(), "schnell");
        assert_eq!(r.get_bytes(3).unwrap(), b"raw");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_names_wanted_offset_and_remaining() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        r.get_u8().unwrap();
        let err = r.get_u64().unwrap_err();
        assert_eq!(
            err,
            ByteError::Truncated {
                wanted: 8,
                offset: 1,
                remaining: 4
            }
        );
        assert_eq!(
            err.to_string(),
            "payload truncated: wanted 8 bytes at offset 1, 4 remain"
        );
        // A failed read consumes nothing.
        assert_eq!(r.remaining(), 4);
    }

    #[test]
    fn trailing_bytes_bad_flags_and_bad_utf8_rejected() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(r.get_bool("flag").unwrap());
        assert_eq!(
            r.get_bool("error flag"),
            Err(ByteError::Invalid {
                what: "error flag",
                value: 2
            })
        );
        assert_eq!(ByteReader::new(&[9]).finish(), Err(ByteError::Trailing(1)));
        assert_eq!(
            ByteReader::new(&[0, 0, 0, 2, 0xff, 0xfe]).get_str(),
            Err(ByteError::Utf8)
        );
    }

    #[test]
    fn a_count_is_checked_against_the_bytes_that_remain() {
        // Claims 2^32-1 sixteen-byte items with four bytes behind it.
        let bytes = [0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4];
        assert_eq!(
            ByteReader::new(&bytes).get_list(16, ByteReader::get_u64),
            Err(ByteError::Truncated {
                wanted: (u32::MAX as usize) * 16,
                offset: 4,
                remaining: 4
            })
        );
        let mut w = ByteWriter::new();
        w.put_list(&[258u16, 3], |w, v| w.put_u16(*v));
        assert_eq!(w.as_bytes(), [0, 0, 0, 2, 1, 2, 0, 3]);
        let mut r = ByteReader::new(w.as_bytes());
        assert_eq!(r.get_list(2, ByteReader::get_u16), Ok(vec![258, 3]));
        r.finish().unwrap();
    }

    #[test]
    fn sealed_writer_prefixes_the_crc_of_the_body() {
        let mut w = ByteWriter::sealed(64);
        w.put_str("body");
        let body = {
            let mut b = ByteWriter::new();
            b.put_str("body");
            b.into_bytes()
        };
        let sealed = w.into_sealed();
        assert_eq!(sealed[..4], crc32(&body).to_be_bytes());
        assert_eq!(sealed[4..], body[..]);
    }
}
