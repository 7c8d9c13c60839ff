//! Every prefix of a run journal: a simulated journaled run's journal cut
//! at each byte offset, mid-frame included, loads as exactly the frames
//! before the cut and resumes to the uninterrupted run.
//!
//! A crash can leave any prefix of the file on disk, so the sweep takes
//! them all, from the empty file to the whole journal. The run is a
//! null-SUT server run of [`QUERIES`] queries checkpointed every
//! [`CHECKPOINT_EVERY`], a journal of 5,215 bytes in ten frames: the sweep
//! loads and resumes each of its 5,216 cuts in ≈ 3.4 s in a debug build on
//! a 2-vCPU host.

use mlperf_inference::loadgen::config::TestSettings;
use mlperf_inference::loadgen::journal::{load_run_journal, JournalConfig};
use mlperf_inference::loadgen::qsl::MemoryQsl;
use mlperf_inference::loadgen::record::QueryRecord;
use mlperf_inference::loadgen::sut::FixedLatencySut;
use mlperf_inference::loadgen::time::Nanos;
use mlperf_inference::loadgen::{LoadGenError, Run};
use mlperf_inference::stats::rng::SeedTriple;
use mlperf_inference::trace::journal::read_journal;
use std::path::Path;

const QUERIES: u64 = 64;
const CHECKPOINT_EVERY: u64 = 8;
/// Magic and version before the first frame.
const HEADER: usize = 6;
/// Length and CRC before each payload.
const FRAME_HEADER: usize = 8;

fn settings() -> TestSettings {
    TestSettings::server(10_000.0, Nanos::from_millis(10))
        .with_min_query_count(QUERIES)
        .with_min_duration(Nanos::from_micros(1))
        .with_seeds(SeedTriple::from_master(7))
}

/// The run's deterministic per-query log: what a resume must reproduce.
fn logical(records: &[QueryRecord]) -> Vec<(u64, u64, usize, bool)> {
    records.iter().map(QueryRecord::logical).collect()
}

/// Runs (or, with `resume`, resumes) the journaled run at `path`. No
/// fsync between appends: durability is not what the sweep checks.
fn run(path: &Path, resume: bool) -> Result<Option<Vec<QueryRecord>>, LoadGenError> {
    let cfg = JournalConfig::new(path)
        .with_checkpoint_every(CHECKPOINT_EVERY)
        .with_fsync_every(u32::MAX);
    let settings = settings();
    let run = Run::simulated(&settings);
    let run = if resume {
        run.resume(&cfg)
    } else {
        run.journal(&cfg)
    };
    let mut qsl = MemoryQsl::new("torn-qsl", 64, 64);
    let mut sut = FixedLatencySut::new("null-sut", Nanos::from_micros(50));
    let outcome = run.run(&mut qsl, &mut sut)?.finished();
    Ok(outcome.map(|o| {
        assert!(o.result.is_valid(), "{:?}", o.result.validity);
        o.records
    }))
}

#[test]
fn every_prefix_of_a_journal_loads_its_whole_frames_and_resumes_to_the_same_run() {
    let path = std::env::temp_dir().join(format!("mlpj_torn_prefix_{}.mlpj", std::process::id()));
    let whole = run(&path, false)
        .expect("the journaled run completes")
        .expect("no halt is armed");
    let want = logical(&whole);
    let full = std::fs::read(&path).expect("journal written");
    // Every frame boundary: the end of the header, then the end of each
    // frame, the meta frame first.
    let mut boundaries = vec![HEADER];
    for frame in read_journal(&path).expect("journal reads").records {
        boundaries.push(boundaries.last().expect("non-empty") + FRAME_HEADER + frame.len());
    }
    assert_eq!(*boundaries.last().expect("non-empty"), full.len());
    let meta_end = boundaries[1];
    assert!(boundaries.len() >= 2 + (QUERIES / CHECKPOINT_EVERY) as usize);

    for cut in 0..=full.len() {
        std::fs::write(&path, &full[..cut]).expect("temp dir is writable");
        let loaded = load_run_journal(&path);
        if cut < meta_end {
            match loaded {
                Err(LoadGenError::Journal(_)) => {}
                other => panic!("cut {cut}: a journal without its meta frame loaded: {other:?}"),
            }
            match run(&path, true) {
                Err(LoadGenError::Journal(_)) => continue,
                other => panic!("cut {cut}: resumed without a meta frame: {other:?}"),
            }
        }
        let loaded = loaded.unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        // Frames wholly before the cut, the meta frame among them.
        let frames = boundaries
            .iter()
            .rposition(|&b| b <= cut)
            .expect("cut ≥ header");
        let previous = boundaries[frames];
        assert_eq!(
            loaded.checkpoints,
            frames as u64 - 1,
            "cut {cut}: checkpoints"
        );
        if cut == previous {
            assert!(loaded.torn.is_none(), "cut {cut}: {:?}", loaded.torn);
        } else {
            let torn = loaded
                .torn
                .unwrap_or_else(|| panic!("cut {cut}: a mid-frame cut reported no tear"));
            assert_eq!(torn.byte_offset, previous as u64, "cut {cut}: {torn}");
            assert_eq!(torn.valid_records, frames, "cut {cut}: {torn}");
        }
        let resumed = run(&path, true)
            .unwrap_or_else(|e| panic!("cut {cut}: resume refused: {e}"))
            .expect("no halt is armed");
        assert!(
            logical(&resumed) == want,
            "cut {cut}: the resumed run's log differs"
        );
    }
    std::fs::remove_file(&path).ok();
}
