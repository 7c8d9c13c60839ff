//! Run checkpoints and the typed run journal.
//!
//! The durable layer under crash-safe runs. `mlperf_trace::journal` owns
//! the *bytes* (the `MLPJ` append-only WAL: CRC-framed records, batched
//! `fsync`, torn-tail salvage); this module owns the *meaning*: what a
//! LoadGen run writes into that WAL so a fresh process can pick the run
//! back up after a `kill -9`.
//!
//! A run journal holds one [`RunMeta`] record (frame 0) followed by
//! [`Checkpoint`] records at deterministic issued-query boundaries. A
//! checkpoint is a complete image of the issue loop at a boundary:
//!
//! * the scenario cursor — queries issued, next sample id, the pending
//!   arrival, elapsed run clock;
//! * every RNG mid-stream state (QSL sampling, Poisson schedule, accuracy
//!   sampling), so the resumed run draws the *same* remaining schedule and
//!   sample indices the uninterrupted run would have;
//! * the recorder snapshot — records, outstanding queries (re-issuable),
//!   accuracy log, counters;
//! * the wire session epoch in force, so a resumed client reconnects with
//!   an epoch bump and the daemon's exactly-once replay machinery engages.
//!
//! Resume semantics are **roll back and re-execute**: the run restarts
//! from the last complete checkpoint; queries issued after it are re-drawn
//! (identically, from the checkpointed RNG states) and re-issued; queries
//! outstanding *at* the checkpoint are re-issued without re-recording.
//! Against a journaled wire daemon, re-issued known queries are answered
//! from the daemon's own journal, keeping execution effects exactly-once.

use crate::config::TestSettings;
use crate::record::{get_opt_nanos, put_opt_nanos, RecorderSnapshot};
use crate::run::Lane;
use crate::time::Nanos;
use crate::LoadGenError;
use mlperf_trace::bytes::{ByteError, ByteReader, ByteWriter};
use mlperf_trace::crc::fnv1a64;
use mlperf_trace::journal::{read_journal, JournalWriter, TornTail};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU32;
use std::sync::Arc;

/// First byte of a run journal's meta frame: which payload encoding every
/// frame in the file uses. This build reads and writes exactly one — the
/// fixed-width binary layout of DESIGN §3g; any other first byte (JSON-era
/// journals start with `{`) is refused on load, never mis-parsed.
pub const PAYLOAD_FORMAT: u8 = 1;

/// Digest of everything about a run's configuration that resume
/// correctness depends on. A journal may only resume a run whose settings
/// and QSL produce the same digest — anything else would silently splice
/// two different schedules together.
pub fn settings_digest(settings: &TestSettings, qsl_size: u64) -> u64 {
    let text = format!(
        "{};{:?};{};{};{};{};{};{};{};{};{}",
        settings.scenario,
        settings.mode,
        settings.seeds.qsl_seed,
        settings.seeds.schedule_seed,
        settings.seeds.accuracy_seed,
        settings.min_query_count,
        settings.min_duration.as_nanos(),
        settings.server_target_qps.to_bits(),
        settings.samples_per_query,
        settings.offline_min_sample_count,
        qsl_size,
    );
    fnv1a64(text.as_bytes())
}

/// Frame 0 of every run journal: what run this is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// The scenario, as its display string.
    pub scenario: String,
    /// [`settings_digest`] of the run's settings + QSL size.
    pub digest: u64,
    /// Performance-sample population the schedule draws from.
    pub qsl_size: u64,
}

impl RunMeta {
    /// The meta frame: [`PAYLOAD_FORMAT`], then the fields.
    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(PAYLOAD_FORMAT);
        w.put_str(&self.scenario);
        w.put_u64(self.digest);
        w.put_u64(self.qsl_size);
        w.into_bytes()
    }

    /// Refuses any frame that does not start with [`PAYLOAD_FORMAT`]
    /// before reading a field, so another encoding is never mis-parsed.
    fn decode(bytes: &[u8]) -> Result<Self, String> {
        match bytes.split_first() {
            Some((&PAYLOAD_FORMAT, fields)) => {
                Self::decode_fields(fields).map_err(|e| e.to_string())
            }
            Some((other, _)) => Err(format!(
                "payload format byte {other:#04x}, this build reads only {PAYLOAD_FORMAT:#04x}: \
                 the journal was written by another build (JSON-era journals start with `{{`) \
                 and can only be resumed by it"
            )),
            None => Err("empty frame".into()),
        }
    }

    fn decode_fields(bytes: &[u8]) -> Result<Self, ByteError> {
        let mut r = ByteReader::new(bytes);
        let meta = RunMeta {
            scenario: r.get_str()?,
            digest: r.get_u64()?,
            qsl_size: r.get_u64()?,
        };
        r.finish()?;
        Ok(meta)
    }
}

fn put_rng_state(w: &mut ByteWriter, s: &[u64; 4]) {
    s.iter().for_each(|word| w.put_u64(*word));
}

fn get_rng_state(r: &mut ByteReader<'_>) -> Result<[u64; 4], ByteError> {
    Ok([r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?])
}

/// A complete image of the issue loop at one issued-query boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Checkpoint index (0-based, in journal order).
    pub seq: u64,
    /// Queries issued so far.
    pub issued: u64,
    /// Next sample (response) id to assign.
    pub next_sample_id: u64,
    /// Elapsed run clock at capture (virtual time in the DES; wall time
    /// since origin in realtime runs).
    pub wall: Nanos,
    /// The already-drawn arrival not yet issued, if any (server scenario).
    pub pending_arrival: Option<Nanos>,
    /// QSL sampling RNG state.
    pub qsl_rng: [u64; 4],
    /// Poisson schedule RNG state (server scenario; zeroes otherwise).
    pub sched_rng: [u64; 4],
    /// The Poisson process clock, as `f64` bits (server scenario).
    pub sched_now_bits: u64,
    /// Accuracy-sampling RNG state.
    pub acc_rng: [u64; 4],
    /// Wire session epoch in force at capture; 0 for purely local runs.
    pub epoch: u32,
    /// The recorder: records, outstanding queries, accuracy log, counters.
    pub recorder: RecorderSnapshot,
}

impl Checkpoint {
    /// The checkpoint as one journal frame payload: fixed-width
    /// big-endian fields in declaration order (layout: DESIGN §3g).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(256 + 48 * self.recorder.records.len());
        w.put_u64(self.seq);
        w.put_u64(self.issued);
        w.put_u64(self.next_sample_id);
        w.put_u64(self.wall.as_nanos());
        put_opt_nanos(&mut w, self.pending_arrival);
        put_rng_state(&mut w, &self.qsl_rng);
        put_rng_state(&mut w, &self.sched_rng);
        w.put_u64(self.sched_now_bits);
        put_rng_state(&mut w, &self.acc_rng);
        w.put_u32(self.epoch);
        self.recorder.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decodes a frame payload written by [`Checkpoint::encode`]. Total:
    /// arbitrary bytes come back as an error, never a panic, and no list
    /// is allocated before its count is checked against the bytes left.
    ///
    /// # Errors
    ///
    /// Returns [`ByteError`] on truncation, a flag other than 0/1, an
    /// unknown payload tag, an impossible count, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, ByteError> {
        let mut r = ByteReader::new(bytes);
        let cp = Checkpoint {
            seq: r.get_u64()?,
            issued: r.get_u64()?,
            next_sample_id: r.get_u64()?,
            wall: Nanos::from_nanos(r.get_u64()?),
            pending_arrival: get_opt_nanos(&mut r, "pending_arrival flag")?,
            qsl_rng: get_rng_state(&mut r)?,
            sched_rng: get_rng_state(&mut r)?,
            sched_now_bits: r.get_u64()?,
            acc_rng: get_rng_state(&mut r)?,
            epoch: r.get_u32()?,
            recorder: RecorderSnapshot::decode_from(&mut r)?,
        };
        r.finish()?;
        Ok(cp)
    }
}

/// How a journaled run checkpoints, and the chaos hooks that halt it.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Where the journal lives.
    pub path: PathBuf,
    /// Checkpoint every this many issued queries.
    pub checkpoint_every: u64,
    /// `fsync` batching window for journal appends (0 = every append).
    pub fsync_every: u32,
    /// Chaos hook: stop the run cleanly right after writing checkpoint
    /// with this `seq`, as if the process died at that boundary.
    pub halt_after: Option<u64>,
    /// Chaos hook: make the `halt_after` checkpoint a *torn* write — only
    /// a prefix of the frame lands on disk, exactly what a kill during the
    /// append leaves behind.
    pub torn_halt: bool,
    /// Live wire-session epoch, mirrored by the remote SUT client; each
    /// checkpoint captures its current value so a resumed run reconnects
    /// one epoch up. `None` for purely local runs.
    pub epoch_source: Option<Arc<AtomicU32>>,
}

impl JournalConfig {
    /// A journal at `path` with the defaults: checkpoint every 16 queries,
    /// `fsync` on every append, no chaos hooks.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            checkpoint_every: 16,
            fsync_every: 0,
            halt_after: None,
            torn_halt: false,
            epoch_source: None,
        }
    }

    /// Overrides the checkpoint interval (issued queries per checkpoint).
    pub fn with_checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = n.max(1);
        self
    }

    /// Overrides the `fsync` batching window.
    pub fn with_fsync_every(mut self, n: u32) -> Self {
        self.fsync_every = n;
        self
    }

    /// Arms the clean-halt chaos hook at checkpoint `seq`.
    pub fn with_halt_after(mut self, seq: u64) -> Self {
        self.halt_after = Some(seq);
        self
    }

    /// Makes the armed halt a torn checkpoint write.
    pub fn with_torn_halt(mut self) -> Self {
        self.torn_halt = true;
        self
    }

    /// Attaches the wire client's live epoch mirror.
    pub fn with_epoch_source(mut self, source: Arc<AtomicU32>) -> Self {
        self.epoch_source = Some(source);
        self
    }

    /// The wire session epoch in force right now; 0 for purely local runs.
    pub(crate) fn epoch(&self) -> u32 {
        let live = self.epoch_source.as_ref();
        live.map_or(0, |e| e.load(std::sync::atomic::Ordering::SeqCst))
    }
}

/// Everything a journal load recovers.
#[derive(Debug)]
pub struct LoadedJournal {
    /// Frame 0.
    pub meta: RunMeta,
    /// The last complete checkpoint, if any was written.
    pub last: Option<Checkpoint>,
    /// Complete checkpoints on disk.
    pub checkpoints: u64,
    /// The torn tail, when the file ends in a partial frame (the resumed
    /// run rolled back to `last`, dropping the torn write).
    pub torn: Option<TornTail>,
}

fn journal_err(context: &str, e: impl std::fmt::Display) -> LoadGenError {
    LoadGenError::Journal(format!("{context}: {e}"))
}

/// Reads and validates a run journal without opening it for writing.
///
/// # Errors
///
/// Returns [`LoadGenError::Journal`] when the file is unreadable, is not a
/// run journal, or its frames do not decode.
pub fn load_run_journal(path: impl AsRef<Path>) -> Result<LoadedJournal, LoadGenError> {
    let path = path.as_ref();
    let scan = read_journal(path).map_err(|e| journal_err(&path.display().to_string(), e))?;
    parse_scan(path, scan.records, scan.torn)
}

fn parse_scan(
    path: &Path,
    records: Vec<Vec<u8>>,
    torn: Option<TornTail>,
) -> Result<LoadedJournal, LoadGenError> {
    let ctx = path.display().to_string();
    let mut frames = records.into_iter();
    let meta_bytes = frames
        .next()
        .ok_or_else(|| journal_err(&ctx, "journal has no meta frame"))?;
    let meta =
        RunMeta::decode(&meta_bytes).map_err(|e| journal_err(&ctx, format!("meta frame: {e}")))?;
    let mut last: Option<Checkpoint> = None;
    let mut checkpoints = 0u64;
    // Checkpoint frames are deltas: each carries only the records past the
    // previous frame's *stable prefix* — records below the lowest
    // outstanding position, which can never be rewritten — plus the
    // accuracy entries appended since (so the journal grows with the run
    // plus the outstanding window, not quadratically). Fold the history
    // back together as we pass it: roll the mutable suffix back to the
    // prior stable mark, then splice in this frame's copy.
    let mut folded_records = Vec::new();
    let mut folded_accuracy = Vec::new();
    let mut stable = 0usize;
    for frame in frames {
        let mut cp = Checkpoint::decode(&frame)
            .map_err(|e| journal_err(&ctx, format!("checkpoint frame {checkpoints}: {e}")))?;
        folded_records.truncate(stable);
        folded_records.append(&mut cp.recorder.records);
        folded_accuracy.append(&mut cp.recorder.accuracy_log);
        stable = stable_prefix(&cp.recorder.outstanding, folded_records.len());
        checkpoints += 1;
        last = Some(cp);
    }
    if let Some(cp) = last.as_mut() {
        cp.recorder.records = folded_records;
        cp.recorder.accuracy_log = folded_accuracy;
    }
    Ok(LoadedJournal {
        meta,
        last,
        checkpoints,
        torn,
    })
}

/// The index below which a snapshot's records can never change again:
/// everything before the lowest outstanding position is completed and
/// immutable, while records at or past it may still be rewritten in place
/// when their query completes. Delta frames must re-send that mutable
/// suffix.
fn stable_prefix(outstanding: &[crate::record::OutstandingEntry], records: usize) -> usize {
    outstanding.iter().map(|e| e.pos).min().unwrap_or(records)
}

/// The issue cursor's share of a [`Checkpoint`]: what the arrival source
/// hands the journal at a boundary.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CursorState {
    pub(crate) issued: u64,
    pub(crate) pending_arrival: Option<Nanos>,
    pub(crate) qsl_rng: [u64; 4],
    pub(crate) sched_rng: [u64; 4],
    pub(crate) sched_now_bits: u64,
}

/// The typed journal a journaled run threads through its issue loop, on
/// either clock.
#[derive(Debug)]
pub struct RunJournal<'a> {
    cfg: &'a JournalConfig,
    writer: JournalWriter,
    /// Complete checkpoints written (including any recovered on reopen).
    pub checkpoints: u64,
    /// Records durably journaled *and immutable* (the stable prefix of
    /// the last frame written). The next frame carries only records past
    /// this mark, so building and serializing a checkpoint costs the delta
    /// — the window since the last frame plus the still-mutable
    /// outstanding suffix — not the whole run so far; [`load_run_journal`]
    /// folds the deltas back together.
    records_flushed: usize,
    /// Same high-water mark for the accuracy log.
    accuracy_flushed: usize,
}

impl<'a> RunJournal<'a> {
    /// Creates a fresh journal for a run: header plus the meta frame,
    /// synced to disk before any query issues.
    ///
    /// # Errors
    ///
    /// Returns [`LoadGenError::Journal`] on I/O failure.
    pub fn create(cfg: &'a JournalConfig, meta: &RunMeta) -> Result<Self, LoadGenError> {
        let ctx = cfg.path.display().to_string();
        let mut writer =
            JournalWriter::create(&cfg.path, cfg.fsync_every).map_err(|e| journal_err(&ctx, e))?;
        writer
            .append(&meta.encode())
            .and_then(|()| writer.sync())
            .map_err(|e| journal_err(&ctx, e))?;
        Ok(Self {
            cfg,
            writer,
            checkpoints: 0,
            records_flushed: 0,
            accuracy_flushed: 0,
        })
    }

    /// Reopens an existing journal for resumption: truncates any torn
    /// tail, parses the history, and returns the writer positioned after
    /// the last complete frame alongside what was recovered.
    ///
    /// # Errors
    ///
    /// Returns [`LoadGenError::Journal`] when the file is unreadable or
    /// its frames do not decode.
    pub fn open_resume(cfg: &'a JournalConfig) -> Result<(Self, LoadedJournal), LoadGenError> {
        let ctx = cfg.path.display().to_string();
        let (writer, scan) = JournalWriter::open_append(&cfg.path, cfg.fsync_every)
            .map_err(|e| journal_err(&ctx, e))?;
        let loaded = parse_scan(&cfg.path, scan.records, scan.torn)?;
        let (records_flushed, accuracy_flushed) = loaded.last.as_ref().map_or((0, 0), |cp| {
            (
                stable_prefix(&cp.recorder.outstanding, cp.recorder.records.len()),
                cp.recorder.accuracy_log.len(),
            )
        });
        Ok((
            Self {
                cfg,
                writer,
                checkpoints: loaded.checkpoints,
                records_flushed,
                accuracy_flushed,
            },
            loaded,
        ))
    }

    /// Creates the run's journal or, with `resume`, reopens it, refusing
    /// one whose meta digest belongs to a different run. Returns the
    /// journal plus the checkpoint to restore from (`None` on a fresh run,
    /// or when a resumed journal holds no complete checkpoint yet — the
    /// run then restarts from the beginning, which is exactly
    /// roll-back-and-re-execute to seq -1).
    pub(crate) fn attach(
        cfg: &'a JournalConfig,
        settings: &TestSettings,
        population: usize,
        resume: bool,
    ) -> Result<(Self, Option<Checkpoint>), LoadGenError> {
        let meta = RunMeta {
            scenario: settings.scenario.to_string(),
            digest: settings_digest(settings, population as u64),
            qsl_size: population as u64,
        };
        if !resume {
            return Ok((Self::create(cfg, &meta)?, None));
        }
        let (journal, history) = Self::open_resume(cfg)?;
        if history.meta.digest != meta.digest {
            return Err(LoadGenError::Journal(format!(
                "journal {} was written by a different run (digest {:016x}, expected {:016x})",
                cfg.path.display(),
                history.meta.digest,
                meta.digest
            )));
        }
        Ok((journal, history.last))
    }

    /// Whether a checkpoint is due once `issued` queries have issued.
    pub(crate) fn due(&self, issued: u64) -> bool {
        issued.is_multiple_of(self.cfg.checkpoint_every)
    }

    /// Captures one checkpoint at run clock `wall`, honouring the config's
    /// armed chaos halt: returns `true` when this boundary is
    /// `cfg.halt_after` (after writing the frame cleanly — or tearing it,
    /// under `torn_halt` — and syncing), meaning the run must stop here as
    /// a killed process would.
    pub(crate) fn capture(
        &mut self,
        cursor: CursorState,
        next_sample_id: u64,
        wall: Nanos,
        lane: &Lane<'_>,
    ) -> Result<bool, LoadGenError> {
        let cp = Checkpoint {
            seq: self.checkpoints,
            issued: cursor.issued,
            next_sample_id,
            wall,
            pending_arrival: cursor.pending_arrival,
            qsl_rng: cursor.qsl_rng,
            sched_rng: cursor.sched_rng,
            sched_now_bits: cursor.sched_now_bits,
            acc_rng: lane.acc_rng.state(),
            epoch: self.cfg.epoch(),
            recorder: lane
                .recorder
                .snapshot_suffix(self.records_flushed, self.accuracy_flushed),
        };
        let halt = self.cfg.halt_after == Some(cp.seq);
        if halt && self.cfg.torn_halt {
            self.checkpoint_torn(&cp)?;
        } else {
            self.checkpoint(&cp)?;
            if halt {
                self.sync()?;
            }
        }
        Ok(halt)
    }

    /// What a run whose halt fired returns. The halt fires at the
    /// checkpoint whose `seq` is `halt_after` and nowhere else, clean or
    /// torn, so that is the boundary the run stopped at.
    pub(crate) fn halted(&self) -> JournaledRun {
        let armed = self.cfg.halt_after;
        JournaledRun::Halted {
            checkpoint: armed.expect("capture reports a halt only when one is armed"),
        }
    }

    /// Appends one checkpoint frame. `cp.recorder` must be a suffix
    /// snapshot taken from this journal's flushed marks; the frame is
    /// written as-is and [`load_run_journal`] folds the deltas back into
    /// a complete image on reload.
    ///
    /// # Errors
    ///
    /// Returns [`LoadGenError::Journal`] on I/O failure.
    pub fn checkpoint(&mut self, cp: &Checkpoint) -> Result<(), LoadGenError> {
        self.writer
            .append(&cp.encode())
            .map_err(|e| journal_err("checkpoint append", e))?;
        let total = self.records_flushed + cp.recorder.records.len();
        self.records_flushed = stable_prefix(&cp.recorder.outstanding, total);
        self.accuracy_flushed += cp.recorder.accuracy_log.len();
        self.checkpoints += 1;
        Ok(())
    }

    /// The torn-halt chaos hook: writes only a prefix of the checkpoint
    /// frame — byte-for-byte what a kill mid-append leaves — and syncs it.
    /// Takes the same suffix snapshot as [`checkpoint`].
    ///
    /// [`checkpoint`]: RunJournal::checkpoint
    ///
    /// # Errors
    ///
    /// Returns [`LoadGenError::Journal`] on I/O failure.
    pub fn checkpoint_torn(&mut self, cp: &Checkpoint) -> Result<(), LoadGenError> {
        let payload = cp.encode();
        self.writer
            .append_torn(&payload, payload.len() / 2)
            .map_err(|e| journal_err("torn checkpoint append", e))
    }

    /// Forces all appended frames onto disk.
    ///
    /// # Errors
    ///
    /// Returns [`LoadGenError::Journal`] on I/O failure.
    pub fn sync(&mut self) -> Result<(), LoadGenError> {
        self.writer
            .sync()
            .map_err(|e| journal_err("journal sync", e))
    }
}

/// What a journaled run returned: either it finished, or a chaos hook
/// halted it at a checkpoint boundary (simulating process death there).
#[derive(Debug)]
pub enum JournaledRun {
    /// The run completed; the outcome is scored as usual.
    Finished(Box<crate::des::RunOutcome>),
    /// The armed halt fired right after the named checkpoint was written.
    Halted {
        /// `seq` of the checkpoint the run halted at.
        checkpoint: u64,
    },
}

impl JournaledRun {
    /// The outcome, when the run finished.
    pub fn finished(self) -> Option<crate::des::RunOutcome> {
        match self {
            JournaledRun::Finished(outcome) => Some(*outcome),
            JournaledRun::Halted { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Recorder;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "mlperf_runjournal_{}_{name}.mlpj",
            std::process::id()
        ));
        p
    }

    fn sample_checkpoint(seq: u64) -> Checkpoint {
        Checkpoint {
            seq,
            issued: 32 * (seq + 1),
            next_sample_id: 64,
            wall: Nanos::from_millis(5),
            pending_arrival: Some(Nanos::from_millis(6)),
            qsl_rng: [1, 2, 3, 4],
            sched_rng: [5, 6, 7, 8],
            sched_now_bits: 0.25f64.to_bits(),
            acc_rng: [9, 10, 11, 12],
            epoch: 2,
            recorder: Recorder::new().snapshot_suffix(0, 0),
        }
    }

    #[test]
    fn checkpoint_roundtrips_through_the_binary_codec() {
        let cp = sample_checkpoint(3);
        let bytes = cp.encode();
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), cp);
        // Strict: a flag other than 0/1 and a trailing byte are errors.
        let mut bad_flag = bytes.clone();
        bad_flag[32] = 2; // pending_arrival's flag follows four u64s
        assert!(Checkpoint::decode(&bad_flag).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(Checkpoint::decode(&trailing).is_err());
    }

    /// Builds before the binary codec wrote each frame as JSON text. Such
    /// a journal must come back as a structured error that says so — not
    /// be parsed as binary, and not look like an empty or torn journal.
    #[test]
    fn a_json_journal_from_an_older_build_is_refused_not_misread() {
        let path = tmp("json_era");
        let mut w = JournalWriter::create(&path, 0).unwrap();
        w.append(br#"{"kind":"meta","scenario":"server","digest":1,"qsl_size":8}"#)
            .unwrap();
        w.append(br#"{"kind":"checkpoint","seq":0,"issued":16}"#)
            .unwrap();
        drop(w);
        for result in [
            load_run_journal(&path).map(|_| ()),
            RunJournal::open_resume(&JournalConfig::new(&path)).map(|_| ()),
        ] {
            match result {
                Err(LoadGenError::Journal(m)) => {
                    assert!(m.contains("payload format byte 0x7b"), "{m}");
                    assert!(m.contains("another build"), "{m}");
                }
                other => panic!("expected a structured refusal, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_checkpoint_load_roundtrip() {
        let path = tmp("roundtrip");
        let cfg = JournalConfig::new(&path);
        let meta = RunMeta {
            scenario: "server".into(),
            digest: 0xDEAD_BEEF,
            qsl_size: 64,
        };
        let mut j = RunJournal::create(&cfg, &meta).unwrap();
        for seq in 0..3 {
            j.checkpoint(&sample_checkpoint(seq)).unwrap();
        }
        j.sync().unwrap();
        let loaded = load_run_journal(&path).unwrap();
        assert_eq!(loaded.meta, meta);
        assert_eq!(loaded.checkpoints, 3);
        assert_eq!(loaded.last.unwrap().seq, 2);
        assert!(loaded.torn.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_checkpoint_rolls_back_to_previous() {
        let path = tmp("torn");
        let cfg = JournalConfig::new(&path);
        let meta = RunMeta {
            scenario: "server".into(),
            digest: 1,
            qsl_size: 8,
        };
        let mut j = RunJournal::create(&cfg, &meta).unwrap();
        j.checkpoint(&sample_checkpoint(0)).unwrap();
        j.checkpoint_torn(&sample_checkpoint(1)).unwrap();
        let loaded = load_run_journal(&path).unwrap();
        assert_eq!(loaded.checkpoints, 1);
        assert_eq!(loaded.last.as_ref().unwrap().seq, 0);
        assert!(loaded.torn.is_some());
        // Reopen-for-resume truncates the tear and continues cleanly.
        let (mut j, _) = RunJournal::open_resume(&cfg).unwrap();
        assert_eq!(j.checkpoints, 1);
        j.checkpoint(&sample_checkpoint(1)).unwrap();
        j.sync().unwrap();
        let loaded = load_run_journal(&path).unwrap();
        assert_eq!(loaded.checkpoints, 2);
        assert!(loaded.torn.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn digest_distinguishes_runs() {
        let a = TestSettings::server(100.0, Nanos::from_millis(10)).with_min_query_count(40);
        let b = a.clone().with_min_query_count(41);
        assert_ne!(settings_digest(&a, 64), settings_digest(&b, 64));
        assert_ne!(settings_digest(&a, 64), settings_digest(&a, 65));
        assert_eq!(settings_digest(&a, 64), settings_digest(&a.clone(), 64));
    }
}
