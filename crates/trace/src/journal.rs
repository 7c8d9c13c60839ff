//! The durable run journal: an append-only write-ahead log.
//!
//! A crash-safe run needs two artifacts a plain detail log cannot give it:
//! a byte-canonical record of the LoadGen's own state (checkpoints it can
//! be rebuilt from) and a daemon-side completion journal that survives the
//! daemon process. Both are streams of opaque records appended under
//! arbitrary kill timing, so both share this one format — `MLPJ`, the
//! journal sibling of the `MLPR` recorded-trace codec: a 4-byte magic and
//! big-endian `u16` version header, then frames of
//! `u32 length ‖ u32 CRC-32(payload) ‖ payload`.
//!
//! The durability contract is the classic WAL one:
//!
//! * **Appends are atomic at the frame level.** A frame is valid only when
//!   its full payload is present and its CRC matches; a crash mid-append
//!   leaves a *torn tail* that [`read_journal`] detects, reports as a
//!   structured [`TornTail`], and drops — every frame before it is intact.
//! * **`fsync` is batched.** Every `fsync_every`-th append syncs the file
//!   (and [`JournalWriter::sync`] forces it), so the window of journaled-
//!   but-unsynced records is bounded and configurable; a crash can lose at
//!   most that window, never corrupt what came before.
//! * **Reopen resumes cleanly.** [`JournalWriter::open_append`] scans the
//!   existing file, truncates any torn tail, and appends after the last
//!   valid frame, so a restarted process continues the same journal.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::crc::crc32;

/// File magic: the first four bytes of every run journal.
pub const MAGIC: [u8; 4] = *b"MLPJ";
/// Current journal format version.
pub const VERSION: u16 = 1;
/// Bytes of magic + version before the first frame.
const HEADER_LEN: u64 = 6;
/// Bytes of length + CRC before each frame payload.
const FRAME_HEADER_LEN: usize = 8;
/// Sanity cap on a decoded frame length (a checkpoint is kilobytes; 256 MiB
/// is a corrupt length field, not a record).
const MAX_FRAME_LEN: u32 = 256 * 1024 * 1024;

/// A payload's length as the frame header carries it, or `InvalidInput`
/// for one the reader's [`MAX_FRAME_LEN`] cap would report as a torn tail —
/// dropping it and every frame after it.
fn frame_len(payload_len: usize) -> std::io::Result<u32> {
    match u32::try_from(payload_len) {
        Ok(len) if len <= MAX_FRAME_LEN => Ok(len),
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("journal frame of {payload_len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"),
        )),
    }
}

/// A journal (or detail log) whose final record was cut mid-write.
///
/// Not an error: everything before the tear is intact and usable. Readers
/// salvage the valid prefix and surface this alongside it so the operator
/// knows a crash landed here and how much the tear cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Records recovered before the tear.
    pub valid_records: usize,
    /// Byte offset of the first torn byte (= bytes salvaged).
    pub byte_offset: u64,
    /// What the reader found at the tear (truncated frame, CRC mismatch,
    /// unparseable line).
    pub reason: String,
}

impl std::fmt::Display for TornTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "torn tail at byte {}: {} ({} records salvaged)",
            self.byte_offset, self.reason, self.valid_records
        )
    }
}

/// Why a journal file could not be read at all (a torn tail is *not* one
/// of these — that is salvaged, not rejected).
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be opened or read.
    Io(std::io::Error),
    /// The magic bytes are wrong — not a run journal.
    BadMagic,
    /// A journal version this build does not speak.
    BadVersion(u16),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadMagic => write!(f, "not a run journal (bad magic)"),
            JournalError::BadVersion(v) => write!(f, "unsupported journal version {v}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Everything a journal scan recovers: the valid frames in append order
/// plus the torn tail, if the file ends mid-frame.
#[derive(Debug)]
pub struct JournalScan {
    /// Frame payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// Present when the file ends in a torn or corrupt frame; everything
    /// from [`TornTail::byte_offset`] on was dropped.
    pub torn: Option<TornTail>,
}

/// Scans the bytes of a journal (past the caller-verified header).
fn scan_frames(bytes: &[u8]) -> (Vec<Vec<u8>>, Option<TornTail>) {
    let mut records = Vec::new();
    let mut at = 0usize;
    loop {
        if at == bytes.len() {
            return (records, None);
        }
        let torn = |records: &Vec<Vec<u8>>, reason: String| TornTail {
            valid_records: records.len(),
            byte_offset: HEADER_LEN + at as u64,
            reason,
        };
        if bytes.len() - at < FRAME_HEADER_LEN {
            let reason = format!(
                "frame header cut after {} of {FRAME_HEADER_LEN} bytes",
                bytes.len() - at
            );
            let t = torn(&records, reason);
            return (records, Some(t));
        }
        let len = u32::from_be_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let expect = u32::from_be_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        if len > MAX_FRAME_LEN {
            let t = torn(&records, format!("implausible frame length {len}"));
            return (records, Some(t));
        }
        let body_start = at + FRAME_HEADER_LEN;
        let body_end = body_start + len as usize;
        if body_end > bytes.len() {
            let reason = format!(
                "frame payload cut after {} of {len} bytes",
                bytes.len() - body_start
            );
            let t = torn(&records, reason);
            return (records, Some(t));
        }
        let body = &bytes[body_start..body_end];
        let got = crc32(body);
        if got != expect {
            let t = torn(
                &records,
                format!("frame CRC mismatch (expect {expect:08x}, got {got:08x})"),
            );
            return (records, Some(t));
        }
        records.push(body.to_vec());
        at = body_end;
    }
}

/// Reads a whole journal: header check, then every valid frame.
///
/// A torn tail (crash mid-append) is salvaged, not rejected: the valid
/// prefix comes back in [`JournalScan::records`] with the tear described
/// in [`JournalScan::torn`].
///
/// # Errors
///
/// Returns [`JournalError`] only when the file cannot be read or its
/// header is not a journal's.
pub fn read_journal(path: impl AsRef<Path>) -> Result<JournalScan, JournalError> {
    let mut file = File::open(path.as_ref())?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    if bytes.len() < HEADER_LEN as usize || bytes[..4] != MAGIC {
        return Err(JournalError::BadMagic);
    }
    let version = u16::from_be_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != VERSION {
        return Err(JournalError::BadVersion(version));
    }
    let (records, torn) = scan_frames(&bytes[HEADER_LEN as usize..]);
    Ok(JournalScan { records, torn })
}

/// An append-only journal writer with batched `fsync`.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    /// Appends since the last sync.
    unsynced: u32,
    /// Sync after this many appends (0 = sync on every append).
    fsync_every: u32,
}

impl JournalWriter {
    /// Creates (or truncates) a journal file and writes the header.
    ///
    /// `fsync_every` batches durability: the file is synced after every
    /// `fsync_every` appends (0 syncs on each append). The header itself
    /// is synced immediately.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn create(path: impl AsRef<Path>, fsync_every: u32) -> std::io::Result<Self> {
        let mut file = File::create(path)?;
        file.write_all(&MAGIC)?;
        file.write_all(&VERSION.to_be_bytes())?;
        file.sync_all()?;
        Ok(Self {
            file,
            unsynced: 0,
            fsync_every,
        })
    }

    /// Reopens an existing journal for appending: scans it, truncates any
    /// torn tail, and positions after the last valid frame. Returns the
    /// writer plus what the scan recovered (so a restarted process reads
    /// its own history and continues in one step).
    ///
    /// # Errors
    ///
    /// Returns [`JournalError`] when the file cannot be read or is not a
    /// journal.
    pub fn open_append(
        path: impl AsRef<Path>,
        fsync_every: u32,
    ) -> Result<(Self, JournalScan), JournalError> {
        let scan = read_journal(&path)?;
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        if let Some(torn) = &scan.torn {
            file.set_len(torn.byte_offset)?;
        }
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        Ok((
            Self {
                file,
                unsynced: 0,
                fsync_every,
            },
            scan,
        ))
    }

    /// Appends one frame, syncing if the batch window filled.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` for a payload over the frame cap (nothing is
    /// written), otherwise the underlying I/O error.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<()> {
        let len = frame_len(payload.len())?;
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.extend_from_slice(&len.to_be_bytes());
        frame.extend_from_slice(&crc32(payload).to_be_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.unsynced += 1;
        if self.unsynced > self.fsync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Deliberately writes only a prefix of a frame — the chaos hook that
    /// manufactures a kill-during-append tear with real bytes on disk. The
    /// payload's declared length and CRC are written intact; `keep` bytes
    /// of the payload follow; the rest never lands.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn append_torn(&mut self, payload: &[u8], keep: usize) -> std::io::Result<()> {
        let keep = keep.min(payload.len().saturating_sub(1));
        self.file
            .write_all(&frame_len(payload.len())?.to_be_bytes())?;
        self.file.write_all(&crc32(payload).to_be_bytes())?;
        self.file.write_all(&payload[..keep])?;
        self.file.sync_all()
    }

    /// Forces everything appended so far onto disk.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_all()?;
        self.unsynced = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mlpj_test_{}_{name}.mlpj", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_and_append_order() {
        let path = tmp("roundtrip");
        let mut w = JournalWriter::create(&path, 4).unwrap();
        for i in 0..10u8 {
            w.append(&[i; 5]).unwrap();
        }
        w.sync().unwrap();
        let scan = read_journal(&path).unwrap();
        assert!(scan.torn.is_none());
        assert_eq!(scan.records.len(), 10);
        for (i, r) in scan.records.iter().enumerate() {
            assert_eq!(r, &vec![i as u8; 5]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_payload_is_salvaged_with_offset() {
        let path = tmp("torn_payload");
        let mut w = JournalWriter::create(&path, 0).unwrap();
        w.append(b"first").unwrap();
        w.append(b"second").unwrap();
        w.append_torn(b"a-longer-third-record", 7).unwrap();
        let scan = read_journal(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        let torn = scan.torn.expect("tear detected");
        assert_eq!(torn.valid_records, 2);
        // header (6) + two complete frames (8+5, 8+6) = 33.
        assert_eq!(torn.byte_offset, 33);
        assert!(torn.reason.contains("cut"), "{}", torn.reason);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_truncation_point_salvages_the_valid_prefix() {
        let path = tmp("sweep");
        let mut w = JournalWriter::create(&path, 0).unwrap();
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 3 + i as usize]).collect();
        for p in &payloads {
            w.append(p).unwrap();
        }
        drop(w);
        let full = std::fs::read(&path).unwrap();
        for cut in HEADER_LEN as usize..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = read_journal(&path).unwrap();
            for (i, r) in scan.records.iter().enumerate() {
                assert_eq!(r, &payloads[i], "cut={cut}");
            }
            // The tear never invents records and never loses a synced one
            // that fits entirely before the cut.
            let mut intact = 0;
            let mut at = HEADER_LEN as usize;
            let mut on_boundary = cut == HEADER_LEN as usize;
            for p in &payloads {
                at += FRAME_HEADER_LEN + p.len();
                if at <= cut {
                    intact += 1;
                }
                if at == cut {
                    on_boundary = true;
                }
            }
            assert_eq!(scan.records.len(), intact, "cut={cut}");
            // A cut landing exactly on a frame boundary leaves a clean
            // (shorter) journal; anywhere else must report a tear.
            assert_eq!(scan.torn.is_some(), !on_boundary, "cut={cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// `append` sizes the header through `frame_len` before it builds or
    /// writes anything, so the refusal is pinned on lengths alone — no
    /// 256 MiB payload needed.
    #[test]
    fn oversized_payload_is_refused_as_invalid_input() {
        let cap = MAX_FRAME_LEN as usize;
        assert_eq!(frame_len(0).unwrap(), 0);
        assert_eq!(frame_len(cap).unwrap(), MAX_FRAME_LEN);
        for len in [
            cap + 1,
            u32::MAX as usize,
            u32::MAX as usize + 1,
            usize::MAX,
        ] {
            let err = frame_len(len).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{len}");
            assert!(err.to_string().contains(&len.to_string()), "{err}");
        }
    }

    #[test]
    fn corrupt_crc_drops_the_tail() {
        let path = tmp("crc");
        let mut w = JournalWriter::create(&path, 0).unwrap();
        w.append(b"keep-me").unwrap();
        w.append(b"corrupt-me").unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_journal(&path).unwrap();
        assert_eq!(scan.records, vec![b"keep-me".to_vec()]);
        assert!(scan.torn.unwrap().reason.contains("CRC"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_append_truncates_tear_and_continues() {
        let path = tmp("reopen");
        let mut w = JournalWriter::create(&path, 0).unwrap();
        w.append(b"alpha").unwrap();
        w.append_torn(b"beta-torn", 2).unwrap();
        drop(w);
        let (mut w, scan) = JournalWriter::open_append(&path, 0).unwrap();
        assert_eq!(scan.records, vec![b"alpha".to_vec()]);
        assert!(scan.torn.is_some());
        w.append(b"gamma").unwrap();
        drop(w);
        let scan = read_journal(&path).unwrap();
        assert!(scan.torn.is_none());
        assert_eq!(scan.records, vec![b"alpha".to_vec(), b"gamma".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOPE\x00\x01").unwrap();
        assert!(matches!(read_journal(&path), Err(JournalError::BadMagic)));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&99u16.to_be_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_journal(&path),
            Err(JournalError::BadVersion(99))
        ));
        std::fs::remove_file(&path).ok();
    }
}
