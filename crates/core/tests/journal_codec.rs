//! The run journal's checkpoint payload: layout pinned, decoder total.
//!
//! A checkpoint frame is the fixed-width big-endian layout of DESIGN §3g.
//! These tests pin it three ways: a hand-written golden byte vector (so a
//! layout change is deliberate), a seeded round trip over random
//! checkpoints, and a seeded mutation sweep under a counting allocator
//! (arbitrary bytes decode to an error or to exactly the value those bytes
//! spell — never a panic, never an allocation the input does not justify).

use mlperf_loadgen::journal::Checkpoint;
use mlperf_loadgen::query::ResponsePayload;
use mlperf_loadgen::record::{LoggedResponse, OutstandingEntry, QueryRecord, RecorderSnapshot};
use mlperf_loadgen::time::Nanos;
use mlperf_stats::rng::Rng64;

#[path = "../../trace/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::largest_alloc_during;

fn golden_checkpoint() -> Checkpoint {
    let logged = |sample_id, sample_index, payload| LoggedResponse {
        sample_id,
        sample_index,
        payload,
    };
    Checkpoint {
        seq: 1,
        issued: 2,
        next_sample_id: 3,
        wall: Nanos::from_nanos(4),
        pending_arrival: Some(Nanos::from_nanos(5)),
        qsl_rng: [0x10, 0x11, 0x12, 0x13],
        sched_rng: [0x20, 0x21, 0x22, 0x23],
        sched_now_bits: 0.5f64.to_bits(),
        acc_rng: [0x30, 0x31, 0x32, 0x33],
        epoch: 7,
        recorder: RecorderSnapshot {
            records: vec![
                QueryRecord {
                    id: 0,
                    scheduled_at: Nanos::from_nanos(100),
                    issued_at: Nanos::from_nanos(101),
                    completed_at: Some(Nanos::from_nanos(150)),
                    sample_count: 1,
                    skipped_intervals: 0,
                    error: true,
                },
                QueryRecord {
                    id: 1,
                    scheduled_at: Nanos::from_nanos(200),
                    issued_at: Nanos::from_nanos(201),
                    completed_at: None,
                    sample_count: 2,
                    skipped_intervals: 3,
                    error: false,
                },
            ],
            outstanding: vec![OutstandingEntry {
                id: 1,
                pos: 1,
                samples: vec![(10, 5), (11, 6)],
            }],
            accuracy_log: vec![
                logged(20, 1, ResponsePayload::Empty),
                logged(21, 2, ResponsePayload::Class(9)),
                logged(
                    22,
                    3,
                    ResponsePayload::Boxes(vec![(4, 0.5, [0.0, 1.0, 2.0, 3.0])]),
                ),
                logged(23, 4, ResponsePayload::Tokens(vec![7, 8])),
            ],
            samples_completed: 1,
            last_completion: Nanos::from_nanos(150),
            errored: 1,
        },
    }
}

#[rustfmt::skip]
const GOLDEN: &[u8] = &[
    0, 0, 0, 0, 0, 0, 0, 1,                         // seq
    0, 0, 0, 0, 0, 0, 0, 2,                         // issued
    0, 0, 0, 0, 0, 0, 0, 3,                         // next_sample_id
    0, 0, 0, 0, 0, 0, 0, 4,                         // wall
    1, 0, 0, 0, 0, 0, 0, 0, 5,                      // pending_arrival: flag, ns
    0, 0, 0, 0, 0, 0, 0, 0x10, 0, 0, 0, 0, 0, 0, 0, 0x11, // qsl_rng
    0, 0, 0, 0, 0, 0, 0, 0x12, 0, 0, 0, 0, 0, 0, 0, 0x13,
    0, 0, 0, 0, 0, 0, 0, 0x20, 0, 0, 0, 0, 0, 0, 0, 0x21, // sched_rng
    0, 0, 0, 0, 0, 0, 0, 0x22, 0, 0, 0, 0, 0, 0, 0, 0x23,
    0x3f, 0xe0, 0, 0, 0, 0, 0, 0,                   // sched_now_bits (0.5)
    0, 0, 0, 0, 0, 0, 0, 0x30, 0, 0, 0, 0, 0, 0, 0, 0x31, // acc_rng
    0, 0, 0, 0, 0, 0, 0, 0x32, 0, 0, 0, 0, 0, 0, 0, 0x33,
    0, 0, 0, 7,                                     // epoch
    0, 0, 0, 2,                                     // records: count
    0, 0, 0, 0, 0, 0, 0, 0,                         //   [0] id
    0, 0, 0, 0, 0, 0, 0, 100,                       //       scheduled_at
    0, 0, 0, 0, 0, 0, 0, 101,                       //       issued_at
    1, 0, 0, 0, 0, 0, 0, 0, 150,                    //       completed_at: flag, ns
    0, 0, 0, 0, 0, 0, 0, 1,                         //       sample_count
    0, 0, 0, 0,                                     //       skipped_intervals
    1,                                              //       error
    0, 0, 0, 0, 0, 0, 0, 1,                         //   [1] id
    0, 0, 0, 0, 0, 0, 0, 200,                       //       scheduled_at
    0, 0, 0, 0, 0, 0, 0, 201,                       //       issued_at
    0,                                              //       completed_at: none
    0, 0, 0, 0, 0, 0, 0, 2,                         //       sample_count
    0, 0, 0, 3,                                     //       skipped_intervals
    0,                                              //       error
    0, 0, 0, 1,                                     // outstanding: count
    0, 0, 0, 0, 0, 0, 0, 1,                         //   [0] id
    0, 0, 0, 0, 0, 0, 0, 1,                         //       pos
    0, 0, 0, 2,                                     //       samples: count
    0, 0, 0, 0, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0, 5, //      (sample id, index)
    0, 0, 0, 0, 0, 0, 0, 11, 0, 0, 0, 0, 0, 0, 0, 6,
    0, 0, 0, 4,                                     // accuracy_log: count
    0, 0, 0, 0, 0, 0, 0, 20, 0, 0, 0, 0, 0, 0, 0, 1, //  [0] sample id, index
    0,                                              //       payload: empty
    0, 0, 0, 0, 0, 0, 0, 21, 0, 0, 0, 0, 0, 0, 0, 2, //  [1]
    1, 0, 0, 0, 0, 0, 0, 0, 9,                      //       payload: class 9
    0, 0, 0, 0, 0, 0, 0, 22, 0, 0, 0, 0, 0, 0, 0, 3, //  [2]
    2, 0, 0, 0, 1,                                  //       payload: boxes, count
    0, 0, 0, 0, 0, 0, 0, 4, 0x3f, 0, 0, 0,          //         class 4, score 0.5
    0, 0, 0, 0, 0x3f, 0x80, 0, 0,                   //         rect 0.0, 1.0,
    0x40, 0, 0, 0, 0x40, 0x40, 0, 0,                //              2.0, 3.0
    0, 0, 0, 0, 0, 0, 0, 23, 0, 0, 0, 0, 0, 0, 0, 4, //  [3]
    3, 0, 0, 0, 2, 0, 0, 0, 7, 0, 0, 0, 8,          //       payload: tokens 7, 8
    0, 0, 0, 0, 0, 0, 0, 1,                         // samples_completed
    0, 0, 0, 0, 0, 0, 0, 150,                       // last_completion
    0, 0, 0, 0, 0, 0, 0, 1,                         // errored
];

#[test]
fn checkpoint_layout_is_pinned_by_golden_bytes() {
    let cp = golden_checkpoint();
    assert_eq!(cp.encode(), GOLDEN);
    assert_eq!(Checkpoint::decode(GOLDEN).unwrap(), cp);
}

fn random_payload(rng: &mut Rng64) -> ResponsePayload {
    // Any bit pattern but NaN, so `==` can compare what comes back.
    let float = |rng: &mut Rng64| {
        let f = f32::from_bits(rng.next_u64() as u32);
        if f.is_nan() {
            0.5
        } else {
            f
        }
    };
    match rng.next_below(4) {
        0 => ResponsePayload::Empty,
        1 => ResponsePayload::Class(rng.next_u64() as usize),
        2 => ResponsePayload::Boxes(
            (0..rng.next_below(4))
                .map(|_| {
                    let class = rng.next_u64() as usize;
                    let score = float(rng);
                    (
                        class,
                        score,
                        [float(rng), float(rng), float(rng), float(rng)],
                    )
                })
                .collect(),
        ),
        _ => ResponsePayload::Tokens(
            (0..rng.next_below(6))
                .map(|_| rng.next_u64() as u32)
                .collect(),
        ),
    }
}

fn random_checkpoint(rng: &mut Rng64) -> Checkpoint {
    let nanos = |rng: &mut Rng64| Nanos::from_nanos(rng.next_u64());
    let opt_nanos = |rng: &mut Rng64| (rng.next_below(2) == 1).then(|| nanos(rng));
    let words = |rng: &mut Rng64| {
        [
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
        ]
    };
    Checkpoint {
        seq: rng.next_u64(),
        issued: rng.next_u64(),
        next_sample_id: rng.next_u64(),
        wall: nanos(rng),
        pending_arrival: opt_nanos(rng),
        qsl_rng: words(rng),
        sched_rng: words(rng),
        sched_now_bits: rng.next_u64(),
        acc_rng: words(rng),
        epoch: rng.next_u64() as u32,
        recorder: RecorderSnapshot {
            records: (0..rng.next_below(24))
                .map(|_| QueryRecord {
                    id: rng.next_u64(),
                    scheduled_at: nanos(rng),
                    issued_at: nanos(rng),
                    completed_at: opt_nanos(rng),
                    sample_count: rng.next_u64() as usize,
                    skipped_intervals: rng.next_u64() as u32,
                    error: rng.next_below(2) == 1,
                })
                .collect(),
            outstanding: (0..rng.next_below(5))
                .map(|_| OutstandingEntry {
                    id: rng.next_u64(),
                    pos: rng.next_u64() as usize,
                    samples: (0..rng.next_below(6))
                        .map(|_| (rng.next_u64(), rng.next_u64() as usize))
                        .collect(),
                })
                .collect(),
            accuracy_log: (0..rng.next_below(6))
                .map(|_| LoggedResponse {
                    sample_id: rng.next_u64(),
                    sample_index: rng.next_u64() as usize,
                    payload: random_payload(rng),
                })
                .collect(),
            samples_completed: rng.next_u64(),
            last_completion: nanos(rng),
            errored: rng.next_u64(),
        },
    }
}

#[test]
fn random_checkpoints_round_trip() {
    let mut rng = Rng64::new(0x00C0_DEC5);
    for i in 0..1_000 {
        let cp = random_checkpoint(&mut rng);
        let bytes = cp.encode();
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), cp, "checkpoint {i}");
    }
}

/// Offset of the `records` count: the first field whose value sizes an
/// allocation. Everything before it is fixed-width but the optional
/// pending arrival.
fn records_count_offset(cp: &Checkpoint) -> usize {
    4 * 8 + 1 + if cp.pending_arrival.is_some() { 8 } else { 0 } + 13 * 8 + 4
}

#[test]
fn mutated_frames_decode_to_an_error_or_to_what_the_bytes_spell() {
    let mut rng = Rng64::new(0x0BAD_C0DE);
    let (mut rejected, mut accepted) = (0u32, 0u32);
    for i in 0..10_000 {
        let cp = random_checkpoint(&mut rng);
        let mut bytes = cp.encode();
        let at = rng.next_below(bytes.len() as u64) as usize;
        match i % 4 {
            0 => bytes[at] ^= 1 << rng.next_below(8),
            1 => bytes.truncate(at),
            2 => bytes.extend((0..=rng.next_below(16)).map(|_| rng.next_u64() as u8)),
            _ => {
                // Overwrite a count: the records count every other time,
                // else whatever four bytes `at` lands on.
                let at = if i % 8 == 3 {
                    records_count_offset(&cp)
                } else {
                    at.min(bytes.len() - 4)
                };
                let count = if rng.next_below(2) == 0 {
                    u32::MAX
                } else {
                    rng.next_u64() as u32
                };
                bytes[at..at + 4].copy_from_slice(&count.to_be_bytes());
            }
        }
        let (decoded, largest) = largest_alloc_during(|| Checkpoint::decode(&bytes));
        // In memory a list item is at most ~3× its encoded minimum (a
        // 48-byte `LoggedResponse` from 17 bytes), so no honest decode of
        // `n` bytes needs one allocation past 4n.
        assert!(
            largest <= 4 * bytes.len() + 64,
            "mutation {i}: a {}-byte frame made the decoder allocate {largest} bytes",
            bytes.len()
        );
        match decoded {
            Err(_) => rejected += 1,
            Ok(back) => {
                assert_eq!(back.encode(), bytes, "mutation {i} decoded non-canonically");
                accepted += 1;
            }
        }
    }
    // Both arms are exercised: truncations and extensions always fail,
    // most bit flips land in a plain integer and decode to another value.
    assert!(
        rejected >= 5_000 && accepted >= 1_000,
        "{rejected} / {accepted}"
    );
}
