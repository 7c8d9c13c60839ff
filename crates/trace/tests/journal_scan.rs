//! The `MLPJ` container: a frame scan that salvages exactly the valid
//! prefix, never panics and never allocates what the file does not hold.
//!
//! A seeded mutation sweep under a counting allocator, over journals of
//! random frames written by `JournalWriter`. Each mutation is placed with
//! respect to the frames the writer laid down, so the expected salvage
//! comes from where the damage landed, not from a second parser: every
//! frame that ends before the damage survives, the first frame it touches
//! is the tear (its `byte_offset` is that frame's start), and nothing after
//! it is read. Half the payload changes are re-sealed with a valid CRC —
//! wrong content the checksum cannot see — and then every frame must come
//! back, the changed one as its bytes spell.

use mlperf_stats::rng::Rng64;
use mlperf_trace::crc::crc32;
use mlperf_trace::journal::{read_journal, JournalError, JournalWriter};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::largest_alloc_during;

/// Magic and version before the first frame.
const HEADER: usize = 6;
/// Length and CRC before each payload.
const FRAME_HEADER: usize = 8;

/// A journal of random frames: its bytes, its payloads, and where each
/// frame starts (plus the end of the file, so frame `k` spans
/// `starts[k]..starts[k + 1]`).
struct Written {
    bytes: Vec<u8>,
    payloads: Vec<Vec<u8>>,
    starts: Vec<usize>,
}

fn write_journal(rng: &mut Rng64, path: &std::path::Path) -> Written {
    let payloads: Vec<Vec<u8>> = (0..rng.next_below(8))
        .map(|_| {
            (0..rng.next_below(64))
                .map(|_| rng.next_u64() as u8)
                .collect()
        })
        .collect();
    let mut writer = JournalWriter::create(path, u32::MAX).expect("temp dir is writable");
    let mut starts = vec![HEADER];
    for p in &payloads {
        writer.append(p).expect("append");
        starts.push(starts.last().expect("non-empty") + FRAME_HEADER + p.len());
    }
    writer.sync().expect("sync");
    let bytes = std::fs::read(path).expect("journal reads back");
    assert_eq!(bytes.len(), *starts.last().expect("non-empty"));
    Written {
        bytes,
        payloads,
        starts,
    }
}

/// The frame whose bytes include `at`.
fn frame_at(w: &Written, at: usize) -> usize {
    w.starts
        .iter()
        .rposition(|&s| s <= at)
        .expect("at is past the header")
}

/// What a scan must recover: the records, and the tear as
/// `(valid_records, byte_offset)`.
type Salvage = (Vec<Vec<u8>>, Option<(usize, u64)>);

/// Every frame before `k` survives and `k` is the tear.
fn torn_at(w: &Written, k: usize) -> Salvage {
    (w.payloads[..k].to_vec(), Some((k, w.starts[k] as u64)))
}

#[test]
fn mutated_journals_salvage_exactly_the_frames_before_the_damage() {
    let path = std::env::temp_dir().join(format!("mlpj_scan_{}.mlpj", std::process::id()));
    let mut rng = Rng64::new(0x4D4C_504A);
    let (mut torn, mut clean, mut refused) = (0u32, 0u32, 0u32);
    for i in 0..4_000u32 {
        let w = write_journal(&mut rng, &path);
        let mut bytes = w.bytes.clone();
        let end = bytes.len();
        let frames = w.payloads.len();
        let expected: Result<Salvage, &str> = match i % 5 {
            // An unsealed bit flip anywhere: the header is refused, a
            // frame fails its CRC (or its length no longer fits).
            0 => {
                let at = rng.next_below(end as u64) as usize;
                bytes[at] ^= 1 << rng.next_below(8);
                match at {
                    0..=3 => Err("magic"),
                    4 | 5 => Err("version"),
                    _ => Ok(torn_at(&w, frame_at(&w, at))),
                }
            }
            // A cut: whole frames before it survive; a cut between
            // frames is a clean, shorter journal.
            1 => {
                let cut = rng.next_below(end as u64 + 1) as usize;
                bytes.truncate(cut);
                if cut < HEADER {
                    Err("magic")
                } else if let Some(k) = w.starts.iter().position(|&s| s == cut) {
                    Ok((w.payloads[..k].to_vec(), None))
                } else {
                    Ok(torn_at(&w, frame_at(&w, cut)))
                }
            }
            // Garbage after the last frame is a tear at the old end.
            2 => {
                bytes.extend((0..=rng.next_below(16)).map(|_| rng.next_u64() as u8));
                Ok((w.payloads.clone(), Some((frames, end as u64))))
            }
            // A payload flip re-sealed with a valid CRC: every frame comes
            // back, the flipped one as its bytes now spell.
            3 => match (0..frames).find(|&k| !w.payloads[k].is_empty()) {
                None => Ok((w.payloads.clone(), None)),
                Some(k) => {
                    let body = w.starts[k] + FRAME_HEADER..w.starts[k + 1];
                    let at = body.start + rng.next_below(body.len() as u64) as usize;
                    bytes[at] ^= 1 << rng.next_below(8);
                    let crc = crc32(&bytes[body.clone()]).to_be_bytes();
                    bytes[w.starts[k] + 4..w.starts[k] + 8].copy_from_slice(&crc);
                    let mut payloads = w.payloads.clone();
                    payloads[k] = bytes[body].to_vec();
                    Ok((payloads, None))
                }
            },
            // A lying length: the frame it heads is the tear.
            _ if frames == 0 => Ok((Vec::new(), None)),
            _ => {
                let k = rng.next_below(frames as u64) as usize;
                let len = if rng.next_below(2) == 0 {
                    u32::MAX
                } else {
                    rng.next_u64() as u32
                };
                if len as usize != w.payloads[k].len() {
                    bytes[w.starts[k]..w.starts[k] + 4].copy_from_slice(&len.to_be_bytes());
                }
                if len as usize == w.payloads[k].len() {
                    Ok((w.payloads.clone(), None))
                } else {
                    Ok(torn_at(&w, k))
                }
            }
        };
        std::fs::write(&path, &bytes).expect("temp dir is writable");
        let (scan, largest) = largest_alloc_during(|| read_journal(&path));
        // The file once, and its frames once more (plus the path and the
        // read buffer's probe): no length field can make the scan allocate
        // what the file does not hold.
        assert!(
            largest <= 2 * bytes.len() + 1024,
            "mutation {i}: a {}-byte journal made the scan allocate {largest} bytes",
            bytes.len()
        );
        match (scan, expected) {
            (Err(JournalError::BadMagic), Err("magic")) => refused += 1,
            (Err(JournalError::BadVersion(_)), Err("version")) => refused += 1,
            (Ok(scan), Ok((records, tear))) => {
                assert_eq!(scan.records, records, "mutation {i}: salvaged frames");
                let got = scan.torn.as_ref().map(|t| (t.valid_records, t.byte_offset));
                assert_eq!(got, tear, "mutation {i}: tear {:?}", scan.torn);
                if tear.is_some() {
                    torn += 1;
                } else {
                    clean += 1;
                }
            }
            (got, want) => panic!("mutation {i}: scanned {got:?}, expected {want:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
    assert!(
        torn >= 2_000 && clean >= 500 && refused >= 20,
        "{torn} torn / {clean} clean / {refused} refused"
    );
}
