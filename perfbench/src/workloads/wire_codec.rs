//! `wire_codec`: the protocol's CPU cost per query, with no socket and no
//! second thread.
//!
//! Each query goes `IssueTraced.to_wire` → `write_frame` into a buffer →
//! `read_frame` → `from_wire` → echo → `Completion` the same way back.
//! Encode, seal/CRC, copy, open and decode are all of the work, so a
//! cheaper codec shows here at a few percent — and, at about a
//! hundredth of a loopback round trip, nowhere else.

use super::{keep_spans, ns_per};
use crate::decor::EchoSut;
use crate::harness::{sample, time_ns, Repeat, Sample, Scale, Workload};
use crate::span::{query_span_id, self_times, Span, SpanLog, NO_PARENT};
use crate::summary::Fnv;
use mlperf_loadgen::query::{Query, QuerySample};
use mlperf_loadgen::sut::RealtimeSut;
use mlperf_loadgen::time::Nanos;
use mlperf_stats::Rng64;
use mlperf_wire::frame::{crc32, open, read_frame, seal, write_frame};
use mlperf_wire::{Message, WireError};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Distinct seeded queries; a repeat walks the pool [`PASSES`] times.
const POOL: u64 = 100_000;
/// Pool passes per untraced repeat.
const PASSES: u64 = 2;
/// One frame in this many is also delivered with one bit flipped.
const FLIP_EVERY: u64 = 1_000;

/// The seeded query mix: 80 % one sample, 15 % eight, 5 % 256.
pub fn generate(seed: u64, count: u64) -> Vec<Message> {
    let mut rng = Rng64::new(seed).derive("wire_codec");
    let mut next_sample_id = 0u64;
    (0..count)
        .map(|id| {
            let samples = match rng.next_below(100) {
                0..=79 => 1,
                80..=94 => 8,
                _ => 256,
            };
            let samples = (0..samples)
                .map(|_| {
                    next_sample_id += 1;
                    QuerySample {
                        id: next_sample_id,
                        index: rng.next_index(50_000),
                    }
                })
                .collect();
            Message::IssueTraced {
                trace_id: rng.next_u64() | 1,
                query: Query {
                    id,
                    samples,
                    scheduled_at: Nanos::from_nanos(id * 100_000),
                    tenant: 0,
                },
            }
        })
        .collect()
}

/// The `wire_codec` workload.
pub struct WireCodec {
    pool: Vec<Message>,
    passes: u64,
}

/// One frame through a buffer: `write_frame` then `read_frame`.
fn through_frame(buf: &mut Vec<u8>, payload: &[u8]) -> Result<Vec<u8>, WireError> {
    buf.clear();
    write_frame(buf, payload)?;
    read_frame(&mut buf.as_slice())
}

/// `payload` with one bit flipped must not open.
fn flipped_is_rejected(payload: &[u8], bit: u64) -> bool {
    let mut bad = payload.to_vec();
    let bit = (bit % (bad.len() as u64 * 8)) as usize;
    bad[bit / 8] ^= 1 << (bit % 8);
    matches!(Message::from_wire(&bad), Err(WireError::Frame(_)))
}

/// One round trip; returns the bytes that crossed the buffer. Spans each
/// step under a per-query root when traced.
fn round_trip(
    issue: &Message,
    echo: &EchoSut,
    buf: &mut Vec<u8>,
    seq: u64,
    hash: Option<&mut Fnv>,
    trace: Option<&SpanLog>,
) -> Result<u64, String> {
    let Message::IssueTraced { query: sent, .. } = issue else {
        return Err("the pool holds only IssueTraced messages".into());
    };
    let root = query_span_id(0, seq);
    let mut step_start = trace.map(SpanLog::now_ns);
    let mut step = |name: &'static str| {
        if let (Some(log), Some(start)) = (trace, step_start) {
            let end = log.now_ns();
            log.record(Span {
                id: log.next_id(),
                parent: root,
                name,
                query: sent.id,
                start_ns: start,
                end_ns: end,
            });
            step_start = Some(log.now_ns());
        }
    };
    let e = |e: WireError| e.to_string();

    let wire = issue.to_wire();
    step("wire.issue_to_wire");
    let framed = through_frame(buf, &wire).map_err(e)?;
    step("wire.frame_io");
    let arrived = Message::from_wire(&framed).map_err(e)?;
    step("wire.issue_from_wire");
    if arrived != *issue {
        return Err(format!("issue {} did not round-trip equal", sent.id));
    }
    let Message::IssueTraced { query, .. } = &arrived else {
        unreachable!("equal to an IssueTraced");
    };
    let reply = Message::Completion {
        query_id: query.id,
        error: false,
        samples: echo.issue(query),
    };
    step("sut.echo");
    let reply_wire = reply.to_wire();
    step("wire.completion_to_wire");
    let reply_framed = through_frame(buf, &reply_wire).map_err(e)?;
    step("wire.frame_io");
    let completed = Message::from_wire(&reply_framed).map_err(e)?;
    step("wire.completion_from_wire");
    if completed != reply {
        return Err(format!("completion {} did not round-trip equal", sent.id));
    }

    if seq.is_multiple_of(FLIP_EVERY)
        && !(flipped_is_rejected(&framed, seq) && flipped_is_rejected(&reply_framed, seq / 3))
    {
        return Err(format!("a flipped bit in frame {seq} was not a FrameError"));
    }
    if let (
        Some(hash),
        Message::Completion {
            query_id, samples, ..
        },
    ) = (hash, &completed)
    {
        hash.u64(*query_id);
        for s in samples {
            hash.u64(s.sample_id);
        }
    }
    Ok((wire.len() + reply_wire.len() + 8) as u64)
}

impl Workload for WireCodec {
    const NAME: &'static str = "wire_codec";
    const TRACE_OVERHEAD: &'static str = "wire_codec.trace_overhead_pct";

    fn setup(seed: u64, scale: Scale, _scratch: &Path) -> Result<Self, String> {
        Ok(WireCodec {
            pool: generate(seed, POOL),
            passes: scale.of(PASSES, 1),
        })
    }

    fn repeat(&mut self, trace: Option<&Arc<SpanLog>>) -> Result<Repeat, String> {
        let mut r = Repeat::default();
        let log = trace.map(Arc::as_ref);
        // A traced repeat spans seven steps a query; one pass is plenty.
        let passes = if log.is_some() { 1 } else { self.passes };
        let echo = EchoSut::default();
        let mut buf = Vec::with_capacity(8_192);
        let mut hash = Fnv::new();
        let mut bytes = 0u64;
        let mut seq = 0u64;
        let start = Instant::now();
        for pass in 0..passes {
            for issue in &self.pool {
                let begin = log.map(SpanLog::now_ns);
                // Hashing the first pass alone keeps traced (one pass) and
                // untraced repeats comparable.
                let hashed = (pass == 0).then_some(&mut hash);
                bytes += round_trip(issue, &echo, &mut buf, seq, hashed, log)?;
                if let (Some(log), Some(begin)) = (log, begin) {
                    log.record(Span {
                        id: query_span_id(0, seq),
                        parent: NO_PARENT,
                        name: "wire.round_trip",
                        query: seq,
                        start_ns: begin,
                        end_ns: log.now_ns(),
                    });
                }
                seq += 1;
            }
        }
        let wall_ns = start.elapsed().as_nanos() as f64;
        r.ops = seq;
        r.hash = hash.finish();
        r.headline_ns = wall_ns / seq as f64;
        r.samples
            .push(sample("wire.bytes_per_query", "B", ns_per(bytes, seq)));
        if let Some(log) = log {
            let span_ns = log.drain(|spans| {
                keep_spans(&mut r.spans, spans, 1);
                self_times(spans).values().map(|l| l.self_ns).sum::<u64>()
            });
            r.samples.push(sample(
                "wire_codec.span_coverage_pct",
                "%",
                100.0 * span_ns as f64 / wall_ns,
            ));
        }
        Ok(r)
    }

    fn probes(&mut self) -> Result<Vec<Sample>, String> {
        let n = self.pool.len() as f64;
        let echo = EchoSut::default();
        let replies: Vec<Message> = self
            .pool
            .iter()
            .map(|m| match m {
                Message::IssueTraced { query, .. } => Message::Completion {
                    query_id: query.id,
                    error: false,
                    samples: echo.issue(query),
                },
                other => other.clone(),
            })
            .collect();
        let mut out = Vec::new();
        let mut failed = false;
        for (messages, encode, decode) in [
            (&self.pool, "wire.issue_encode_ns", "wire.issue_decode_ns"),
            (
                &replies,
                "wire.completion_encode_ns",
                "wire.completion_decode_ns",
            ),
        ] {
            let t = time_ns(5, || {
                messages.iter().map(|m| m.encode().len()).sum::<usize>()
            });
            out.push(sample(encode, "ns", t / n));
            let bodies: Vec<Vec<u8>> = messages.iter().map(Message::encode).collect();
            let t = time_ns(5, || {
                for body in &bodies {
                    failed |= Message::decode(body).is_err();
                }
            });
            out.push(sample(decode, "ns", t / n));
        }

        let bodies: Vec<Vec<u8>> = self
            .pool
            .iter()
            .chain(&replies)
            .map(Message::encode)
            .collect();
        let frames = bodies.len() as f64;
        let t = time_ns(5, || bodies.iter().map(|b| seal(b).len()).sum::<usize>());
        out.push(sample("wire.seal_ns", "ns", t / frames));
        let sealed: Vec<Vec<u8>> = bodies.iter().map(|b| seal(b)).collect();
        let t = time_ns(5, || {
            for payload in &sealed {
                failed |= open(payload).is_err();
            }
        });
        out.push(sample("wire.open_ns", "ns", t / frames));
        let mut buf = Vec::with_capacity(8_192);
        let t = time_ns(5, || {
            for payload in &sealed {
                failed |= through_frame(&mut buf, payload).is_err();
            }
        });
        out.push(sample("wire.frame_io_ns", "ns", t / frames));

        let block = vec![0xa5u8; 1 << 20];
        let t = time_ns(9, || crc32(&block));
        out.push(sample(
            "wire.crc32_mb_per_s",
            "MB/s",
            block.len() as f64 / 1e6 / (t / 1e9),
        ));
        if failed {
            return Err("a codec probe failed to decode its own bytes".into());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes(messages: &[Message]) -> Vec<usize> {
        messages
            .iter()
            .map(|m| match m {
                Message::IssueTraced { query, .. } => query.samples.len(),
                _ => 0,
            })
            .collect()
    }

    #[test]
    fn generation_is_a_function_of_the_seed() {
        assert_eq!(generate(7, 2_000), generate(7, 2_000));
        assert_ne!(generate(7, 2_000), generate(8, 2_000));
    }

    #[test]
    fn the_mix_is_as_stated() {
        let sizes = sizes(&generate(1, 20_000));
        let share = |n: usize| sizes.iter().filter(|&&s| s == n).count() as f64 / 20_000.0;
        assert!(sizes.iter().all(|s| [1, 8, 256].contains(s)));
        assert!((share(1) - 0.80).abs() < 0.02, "{}", share(1));
        assert!((share(8) - 0.15).abs() < 0.02, "{}", share(8));
        assert!((share(256) - 0.05).abs() < 0.01, "{}", share(256));
    }

    #[test]
    fn a_flipped_bit_never_opens() {
        let wire = generate(3, 1)[0].to_wire();
        for bit in 0..wire.len() as u64 * 8 {
            assert!(flipped_is_rejected(&wire, bit), "bit {bit}");
        }
        assert!(Message::from_wire(&wire).is_ok());
    }
}
