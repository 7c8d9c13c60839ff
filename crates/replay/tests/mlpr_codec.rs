//! The `MLPR` recorded-trace document: decoder total, encoding canonical.
//!
//! A seeded round trip over random traces, then a seeded mutation sweep
//! under a counting allocator. Half the mutations are re-sealed with a
//! valid CRC, as a corruption the checksum cannot see would arrive, so the
//! structural checks behind the CRC are what is under test. Every mutated
//! document decodes to an error or to exactly the trace its bytes spell
//! (re-encoding gives the same bytes) — never a panic, never an allocation
//! the input does not justify.

use mlperf_loadgen::Scenario;
use mlperf_replay::{record_trace, CodecError, RecordOptions, RecordedQuery, RecordedTrace};
use mlperf_stats::rng::Rng64;
use mlperf_trace::crc::crc32;
use mlperf_trace::{TraceEvent, TraceRecord};

#[path = "../../trace/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::largest_alloc_during;

/// Header bytes before the source string's length: magic 4, version 2,
/// scenario 1, synthetic flag 1, population 8, samples per query 4,
/// latency bound 8, three `f64`s 24, interval 8.
const SOURCE_AT: usize = 60;

fn random_trace(rng: &mut Rng64) -> RecordedTrace {
    let sources = ["", "perf", "loadgen-µ", "run/42.jsonl"];
    let queries = (0..rng.next_below(12))
        .map(|_| RecordedQuery {
            delta_ns: rng.next_below(5_000_000),
            // `u64::MAX` is the "never resolved" sentinel, not a latency.
            latency_ns: (rng.next_below(5) > 0).then(|| rng.next_below(u64::MAX)),
            error: rng.next_below(7) == 0,
            indices: (0..rng.next_below(4))
                .map(|_| rng.next_u64() as u32)
                .collect(),
        })
        .collect();
    RecordedTrace {
        scenario: Scenario::ALL[rng.next_below(4) as usize],
        source: sources[rng.next_below(4) as usize].to_string(),
        population: rng.next_u64(),
        samples_per_query: rng.next_u64() as u32,
        target_latency_ns: rng.next_u64(),
        target_percentile: rng.next_f64() * 100.0,
        server_target_qps: rng.next_f64() * 1e4,
        max_error_fraction: rng.next_f64(),
        interval_ns: rng.next_u64(),
        synthetic_indices: rng.next_below(2) == 1,
        queries,
    }
}

/// Rewrites the trailing CRC to match whatever the body now holds.
fn reseal(bytes: &mut [u8]) {
    if bytes.len() >= 4 {
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]).to_be_bytes();
        bytes[body..].copy_from_slice(&crc);
    }
}

#[test]
fn random_traces_round_trip() {
    let mut rng = Rng64::new(0x4D4C_5052);
    for i in 0..1_000 {
        let trace = random_trace(&mut rng);
        let bytes = trace.encode();
        assert_eq!(RecordedTrace::decode(&bytes), Ok(trace), "trace {i}");
    }
}

/// Found by widening the round trip to every `u64` latency: the encoder
/// spells `Some(u64::MAX)` and `None` alike, so a logged latency of
/// `u64::MAX` came back as a query that never resolved. The decoder reads
/// those bytes correctly; the encoder cannot tell the two apart, so the
/// recorder keeps such a latency one below the sentinel.
#[test]
fn a_latency_at_the_sentinel_is_recorded_below_it_and_survives() {
    let mut rng = Rng64::new(7);
    let mut trace = random_trace(&mut rng);
    trace.queries = vec![RecordedQuery {
        delta_ns: 0,
        latency_ns: Some(u64::MAX),
        error: false,
        indices: vec![1],
    }];
    let unresolved = RecordedTrace {
        queries: vec![RecordedQuery {
            latency_ns: None,
            ..trace.queries[0].clone()
        }],
        ..trace.clone()
    };
    assert_eq!(trace.encode(), unresolved.encode());

    let log = [
        TraceRecord {
            ts_ns: 10,
            event: TraceEvent::QueryIssued {
                query_id: 0,
                sample_count: 1,
                delay_ns: 0,
            },
        },
        TraceRecord {
            ts_ns: 20,
            event: TraceEvent::QueryCompleted {
                query_id: 0,
                latency_ns: u64::MAX,
            },
        },
    ];
    let recorded = record_trace(&log, &RecordOptions::for_population(8)).expect("records");
    assert_eq!(recorded.queries[0].latency_ns, Some(u64::MAX - 1));
    assert_eq!(RecordedTrace::decode(&recorded.encode()), Ok(recorded));
}

#[test]
fn mutated_documents_decode_to_an_error_or_to_what_the_bytes_spell() {
    let mut rng = Rng64::new(0x0BAD_4D4C);
    let (mut rejected, mut accepted) = (0u32, 0u32);
    for i in 0..20_000u32 {
        let trace = random_trace(&mut rng);
        let mut bytes = trace.encode();
        let at = rng.next_below(bytes.len() as u64) as usize;
        match i % 4 {
            0 => bytes[at] ^= 1 << rng.next_below(8),
            1 => bytes.truncate(at),
            2 => bytes.extend((0..=rng.next_below(16)).map(|_| rng.next_u64() as u8)),
            _ => {
                // Overwrite a count: the source length every other time,
                // else whatever four bytes `at` lands on.
                let at = if i % 8 == 3 {
                    SOURCE_AT
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
        let sealed = (i / 4) % 2 == 1;
        if sealed {
            reseal(&mut bytes);
        }
        let (decoded, largest) = largest_alloc_during(|| RecordedTrace::decode(&bytes));
        // A query holds at most ~3× its 21-byte encoded minimum in memory.
        assert!(
            largest <= 4 * bytes.len() + 64,
            "mutation {i}: a {}-byte document made the decoder allocate {largest} bytes",
            bytes.len()
        );
        match decoded {
            Err(e) => {
                if !sealed && bytes.len() >= 10 && bytes[..4] == *b"MLPR" {
                    assert!(
                        matches!(e, CodecError::BadCrc { .. }),
                        "mutation {i}: an unsealed change got past the CRC as {e:?}"
                    );
                }
                rejected += 1;
            }
            Ok(back) => {
                assert_eq!(back.encode(), bytes, "mutation {i} decoded non-canonically");
                accepted += 1;
            }
        }
    }
    // Both arms are exercised: truncations, extensions and unsealed changes
    // always fail; a resealed flip in a plain integer decodes to another value.
    assert!(
        rejected >= 10_000 && accepted >= 1_000,
        "{rejected} / {accepted}"
    );
}
