//! A run journal's typed decode: arbitrary bytes in a CRC-valid frame are
//! refused with `LoadGenError::Journal`, never a panic, and never a
//! checkpoint a resume cannot stand on.
//!
//! `crates/trace/tests/journal_scan.rs` holds the frame scan to exactly the
//! valid prefix; every journal here is re-framed with valid CRCs, so what is
//! under test is `load_run_journal`'s decode and delta folding, and the
//! resume built on it. A bit flip in a timestamp or an RNG word still loads
//! — those bytes spell another value, not a contradiction — but whatever
//! loads must resume without a panic.

use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::journal::{load_run_journal, Checkpoint, JournalConfig, JournaledRun};
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::sut::FixedLatencySut;
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::{LoadGenError, Run};
use mlperf_stats::rng::Rng64;
use mlperf_trace::crc::crc32;
use mlperf_trace::journal::{read_journal, MAGIC, VERSION};
use std::path::{Path, PathBuf};

#[path = "../../trace/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::largest_alloc_during;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mlpj_load_{}_{name}.mlpj", std::process::id()))
}

fn settings() -> TestSettings {
    TestSettings::server(2_000.0, Nanos::from_millis(10))
        .with_min_duration(Nanos::from_millis(1))
        .with_min_query_count(32)
}

fn sut() -> FixedLatencySut {
    // Four inter-arrival gaps long, so every checkpoint has queries in
    // flight.
    FixedLatencySut::new("s", Nanos::from_millis(2))
}

/// A genuine journal's frames: the meta frame, then every checkpoint.
fn genuine_frames(path: &Path) -> Vec<Vec<u8>> {
    let cfg = JournalConfig::new(path).with_checkpoint_every(8);
    let mut qsl = MemoryQsl::new("q", 32, 32);
    Run::simulated(&settings())
        .journal(&cfg)
        .run(&mut qsl, &mut sut())
        .expect("journaled run");
    let scan = read_journal(path).expect("journal reads");
    assert!(scan.torn.is_none() && scan.records.len() >= 4);
    scan.records
}

/// Frames `payloads` as `JournalWriter` does — header, then length, CRC
/// and payload per frame — without its fsyncs.
fn write_frames(path: &Path, payloads: &[Vec<u8>]) {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&VERSION.to_be_bytes());
    for p in payloads {
        bytes.extend_from_slice(&(p.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&crc32(p).to_be_bytes());
        bytes.extend_from_slice(p);
    }
    std::fs::write(path, bytes).expect("temp dir is writable");
}

fn resume(path: &Path) -> Result<JournaledRun, LoadGenError> {
    // Durability is not under test: one fsync per frame would be most of
    // the sweep's time.
    let cfg = JournalConfig::new(path)
        .with_checkpoint_every(8)
        .with_fsync_every(u32::MAX);
    let mut qsl = MemoryQsl::new("q", 32, 32);
    Run::simulated(&settings())
        .resume(&cfg)
        .run(&mut qsl, &mut sut())
}

#[test]
fn arbitrary_bytes_in_a_crc_valid_frame_are_refused_or_resume_cleanly() {
    let path = tmp("sweep");
    let frames = genuine_frames(&path);
    let mut rng = Rng64::new(0x4D4C_504B);
    let (mut refused, mut accepted) = (0u32, 0u32);
    for i in 0..1_000u32 {
        let mut frames = frames.clone();
        let k = rng.next_below(frames.len() as u64) as usize;
        let f = &mut frames[k];
        match i % 4 {
            0 => {
                let at = rng.next_below(f.len() as u64) as usize;
                f[at] ^= 1 << rng.next_below(8);
            }
            1 => {
                let len = rng.next_below(2 * f.len() as u64 + 1) as usize;
                *f = (0..len).map(|_| rng.next_u64() as u8).collect();
            }
            2 => f.truncate(rng.next_below(f.len() as u64) as usize),
            _ => {
                // A word of any magnitude over whatever eight bytes `at`
                // lands on: counts, positions, ids.
                let at = rng.next_below(f.len() as u64 - 7) as usize;
                let word = rng.next_u64() >> rng.next_below(64);
                f[at..at + 8].copy_from_slice(&word.to_be_bytes());
            }
        }
        write_frames(&path, &frames);
        let file = std::fs::metadata(&path).expect("written").len() as usize;
        let (loaded, largest) = largest_alloc_during(|| load_run_journal(&path));
        // The file, its frames, and the folded records at ~3× their
        // encoded size: linear in the input whatever a count claims.
        assert!(
            largest <= 8 * file + 4096,
            "mutation {i}: a {file}-byte journal made the load allocate {largest} bytes"
        );
        match loaded {
            Err(LoadGenError::Journal(_)) => refused += 1,
            Err(other) => panic!("mutation {i}: {other:?} is not a journal error"),
            Ok(_) => {
                accepted += 1;
                // A refusal is fine here (a changed digest belongs to
                // another run); a panic is not.
                let _ = resume(&path);
            }
        }
    }
    std::fs::remove_file(&path).ok();
    assert!(
        refused >= 500 && accepted >= 150,
        "{refused} refused / {accepted} accepted"
    );
}

/// The last checkpoint with its first outstanding entry rewritten.
fn with_outstanding(path: &Path, edit: impl Fn(&mut Checkpoint)) {
    let mut frames = genuine_frames(path);
    let last = frames.last_mut().expect("a checkpoint");
    let mut cp = Checkpoint::decode(last).expect("genuine checkpoint");
    assert!(!cp.recorder.outstanding.is_empty());
    edit(&mut cp);
    *last = cp.encode();
    write_frames(path, &frames);
}

fn assert_refused(path: &Path) {
    for (what, result) in [
        ("load", load_run_journal(path).map(|_| ())),
        ("resume", resume(path).map(|_| ())),
    ] {
        match result {
            Err(LoadGenError::Journal(m)) => {
                assert!(m.contains("outstanding query"), "{what}: {m}")
            }
            other => panic!("{what}: expected a refusal, got {other:?}"),
        }
    }
}

/// Found by the sweep: an outstanding entry whose position lies past the
/// folded records loaded as a checkpoint, and the resume built on it
/// panicked indexing the records (`RecorderSnapshot::outstanding_queries`).
/// The decoder was wrong — it checked each frame's bytes but not that the
/// frame's outstanding list names records the journal holds.
#[test]
fn an_outstanding_entry_past_the_records_is_refused_not_resumed_into_a_panic() {
    let path = tmp("past");
    with_outstanding(&path, |cp| cp.recorder.outstanding[0].pos = 1 << 40);
    assert_refused(&path);
    std::fs::remove_file(&path).ok();
}

/// Found by the sweep: an outstanding entry that names a record of another
/// id, an already completed one, or one of another size loaded and
/// resumed — the resumed recorder would complete the re-sent query into
/// the wrong record. The decoder was wrong, as above.
#[test]
fn an_outstanding_entry_that_disagrees_with_its_record_is_refused() {
    let path = tmp("disagree");
    let edits: [fn(&mut Checkpoint); 3] = [
        |cp| cp.recorder.outstanding[0].id += 1_000,
        |cp| cp.recorder.outstanding[0].pos = 0,
        |cp| cp.recorder.outstanding[0].samples.push((u64::MAX, 0)),
    ];
    for edit in edits {
        with_outstanding(&path, edit);
        assert_refused(&path);
    }
    std::fs::remove_file(&path).ok();
}
