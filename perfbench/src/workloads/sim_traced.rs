//! `sim_traced`: the null-SUT server run with a ring-buffer sink and a
//! metrics registry attached, then record–reduce–replay on a second run
//! logged as JSON Lines: write → read → record → `MLPR` encode/decode →
//! reduce 10× → replay of the full trace.
//!
//! `trace`'s sinks and JSON layer and the `replay` crate do most of the
//! work here and none of it anywhere else.

use super::{
    hash_records, keep_spans, ns_per, null_server_settings, null_stack, stage, POPULATION,
    SERVER_BOUND,
};
use crate::decor::{TimedQsl, TimedSimSut, TimedSink};
use crate::harness::{sample, time_ns, Repeat, Sample, Scale, Workload};
use crate::span::{self_times, SpanLog, NO_PARENT};
use crate::summary::{median, Fnv};
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::des::{run_instrumented, run_simulated, run_simulated_traced};
use mlperf_loadgen::replay::run_simulated_replay;
use mlperf_loadgen::Instruments;
use mlperf_replay::{record_trace, reduce_trace, RecordOptions, RecordedTrace, ReduceOptions};
use mlperf_trace::{
    read_detail_log, JsonlSink, MetricsRegistry, NoopSink, RingBufferSink, TraceSink,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Half of Table IV's count: the pipeline costs some 8 µs a query, and a
/// run must fit enough repeats for a median.
const QUERIES: u64 = 135_168;

/// The `sim_traced` workload.
pub struct SimTraced {
    settings: TestSettings,
    record_opts: RecordOptions,
    path: PathBuf,
}

impl Workload for SimTraced {
    const NAME: &'static str = "sim_traced";
    const TRACE_OVERHEAD: &'static str = "sim_traced.trace_overhead_pct";

    fn setup(seed: u64, scale: Scale, scratch: &Path) -> Result<Self, String> {
        let queries = scale.of(QUERIES, 2_048);
        let settings = null_server_settings(seed, queries);
        let record_opts = RecordOptions::for_population(POPULATION as u64)
            .with_qsl_seed(settings.seeds.qsl_seed)
            .with_latency_target(SERVER_BOUND.as_nanos(), 99.0)
            .with_source("perf");
        Ok(SimTraced {
            settings,
            record_opts,
            path: scratch.join("sim_traced.jsonl"),
        })
    }

    fn repeat(&mut self, trace: Option<&Arc<SpanLog>>) -> Result<Repeat, String> {
        let mut r = Repeat::default();
        let log = trace.map(Arc::as_ref);
        let settings = &self.settings;
        let e = |e: mlperf_loadgen::LoadGenError| e.to_string();

        // Leg 1: ring-buffer sink and metrics registry on the run.
        let ring = RingBufferSink::unbounded();
        let registry = MetricsRegistry::new();
        let (mut qsl, mut sut) = null_stack();
        let (ring_run, ring_ns) = stage(log, "core.des.run", NO_PARENT, |root| match log {
            None => {
                let instruments = Instruments::traced(&ring).with_metrics(&registry);
                run_instrumented(settings, &mut qsl, &mut sut, &instruments)
            }
            Some(log) => {
                let sink = TimedSink::new(&ring, log, root);
                let instruments = Instruments::traced(&sink).with_metrics(&registry);
                run_instrumented(
                    settings,
                    &mut TimedQsl::new(&mut qsl, log, root),
                    &mut TimedSimSut::new(&mut sut, log, root),
                    &instruments,
                )
            }
        });
        let ring_run = ring_run.map_err(e)?;
        let events = ring.len() as u64;
        drop(ring);

        // Leg 2: the R3 pipeline on a second run.
        let (r3, r3_ns) = stage(log, "r3", NO_PARENT, |r3| -> Result<_, String> {
            let jsonl = JsonlSink::create(&self.path).map_err(|e| e.to_string())?;
            let (mut qsl, mut sut) = null_stack();
            let (logged, write_ns) = stage(log, "core.des.run", r3, |root| match log {
                None => run_simulated_traced(settings, &mut qsl, &mut sut, &jsonl),
                Some(log) => run_simulated_traced(
                    settings,
                    &mut TimedQsl::new(&mut qsl, log, root),
                    &mut TimedSimSut::new(&mut sut, log, root),
                    &TimedSink::new(&jsonl, log, root),
                ),
            });
            let logged = logged.map_err(e)?;
            jsonl.flush();
            drop(jsonl);

            let (detail, read_ns) = stage(log, "trace.read_detail_log", r3, |_| {
                read_detail_log(&self.path)
            });
            let detail = detail.map_err(|e| e.to_string())?;
            let (recorded, record_ns) = stage(log, "replay.record_trace", r3, |_| {
                record_trace(&detail.records, &self.record_opts)
            });
            let recorded = recorded.map_err(|e| e.to_string())?;
            let (bytes, encode_ns) = stage(log, "replay.mlpr_encode", r3, |_| recorded.encode());
            let (decoded, decode_ns) = stage(log, "replay.mlpr_decode", r3, |_| {
                RecordedTrace::decode(&bytes)
            });
            let decoded = decoded.map_err(|e| e.to_string())?;
            let target = (recorded.queries.len() / 10).max(2);
            let (reduced, reduce_ns) = stage(log, "replay.reduce_trace", r3, |_| {
                reduce_trace(&recorded, &ReduceOptions::new(target))
            });
            // Outside its `EquivalenceBound` a reduction is an error.
            let reduced = reduced.map_err(|e| format!("reduced trace rejected: {e}"))?;
            let schedule = recorded.replay_schedule();
            let replay_settings = recorded.replay_settings();
            let (mut qsl, mut sut) = null_stack();
            let (replayed, replay_ns) = stage(log, "core.des.replay", r3, |root| match log {
                None => run_simulated_replay(&replay_settings, &schedule, &mut qsl, &mut sut),
                Some(log) => run_simulated_replay(
                    &replay_settings,
                    &schedule,
                    &mut TimedQsl::new(&mut qsl, log, root),
                    &mut TimedSimSut::new(&mut sut, log, root),
                ),
            });
            let replayed = replayed.map_err(e)?;

            if decoded != recorded {
                return Err("MLPR decode(encode(trace)) differs from the trace".into());
            }
            if reduced.queries.len() != target {
                return Err(format!(
                    "reduced to {} queries, asked for {target}",
                    reduced.queries.len()
                ));
            }
            if !replayed.result.is_valid() || replayed.records.len() != logged.records.len() {
                return Err(format!(
                    "replay of {} queries: {} records, validity {:?}",
                    logged.records.len(),
                    replayed.records.len(),
                    replayed.result.validity
                ));
            }
            let file_bytes = std::fs::metadata(&self.path)
                .map_err(|e| e.to_string())?
                .len();
            let n = logged.records.len() as u64;
            let per = |ns: f64| ns / n as f64;
            let samples = vec![
                sample(
                    "trace.reader_parse_ns_per_event",
                    "ns",
                    read_ns / detail.records.len().max(1) as f64,
                ),
                sample("trace.jsonl_bytes_per_query", "B", ns_per(file_bytes, n)),
                sample("replay.record_ns_per_query", "ns", per(record_ns)),
                sample("replay.mlpr_encode_ns_per_query", "ns", per(encode_ns)),
                sample("replay.mlpr_decode_ns_per_query", "ns", per(decode_ns)),
                sample(
                    "replay.mlpr_bytes_per_query",
                    "B",
                    ns_per(bytes.len() as u64, n),
                ),
                sample("replay.reduce_ns_per_query", "ns", per(reduce_ns)),
                sample("core.replay_ns_per_query", "ns", per(replay_ns)),
                sample("sim_traced.jsonl_run_ns_per_query", "ns", per(write_ns)),
            ];
            Ok((logged, samples))
        });
        let (logged, r3_samples) = r3?;

        if !ring_run.result.is_valid() || !logged.result.is_valid() {
            return Err(format!(
                "traced runs INVALID: {:?} / {:?}",
                ring_run.result.validity, logged.result.validity
            ));
        }
        if ring_run.records != logged.records {
            return Err("the ring-buffer run and the JSONL run recorded different runs".into());
        }
        if ring_run.metrics.is_none() {
            return Err("the traced run returned no metrics snapshot".into());
        }

        let n = ring_run.result.query_count;
        let mut hash = Fnv::new();
        hash_records(&mut hash, &ring_run.records);
        r.ops = n;
        r.failed = ring_run.result.error_count + logged.result.error_count;
        r.hash = hash.finish();
        r.headline_ns = (ring_ns + r3_ns) / n as f64;
        r.samples.extend([
            sample("sim_traced.run_ns_per_query", "ns", ring_ns / n as f64),
            sample("sim_traced.r3_ns_per_query", "ns", r3_ns / n as f64),
            sample("trace.events_per_query", "count", ns_per(events, n)),
        ]);
        r.samples.extend(r3_samples);

        if let Some(log) = log {
            // `sink.record` spans of the two legs differ in parent only;
            // tell them apart by the run that owns them.
            let (layers, ring_sink, jsonl_sink) = log.drain(|spans| {
                keep_spans(&mut r.spans, spans, 1);
                let r3_runs: Vec<u64> = spans
                    .iter()
                    .filter(|s| s.name == "core.des.run" && s.parent != NO_PARENT)
                    .map(|s| s.id)
                    .collect();
                let (mut ring, mut jsonl) = ((0u64, 0u64), (0u64, 0u64));
                for s in spans.iter().filter(|s| s.name == "sink.record") {
                    let leg = if r3_runs.contains(&s.parent) {
                        &mut jsonl
                    } else {
                        &mut ring
                    };
                    leg.0 += s.duration_ns();
                    leg.1 += 1;
                }
                (self_times(spans), ring, jsonl)
            });
            let span_ns: u64 = layers.values().map(|l| l.self_ns).sum();
            r.samples.extend([
                sample(
                    "trace.ring_record_ns_per_event",
                    "ns",
                    ns_per(ring_sink.0, ring_sink.1),
                ),
                sample(
                    "trace.jsonl_write_ns_per_event",
                    "ns",
                    ns_per(jsonl_sink.0, jsonl_sink.1),
                ),
                sample(
                    "sim_traced.span_coverage_pct",
                    "%",
                    100.0 * span_ns as f64 / (ring_ns + r3_ns),
                ),
            ]);
        }
        Ok(r)
    }

    fn probes(&mut self) -> Result<Vec<Sample>, String> {
        let mut out = Vec::new();
        let settings = &self.settings;

        // `run_simulated` is `run_simulated_traced(NoopSink)` by another
        // name today; the pair is timed alternately so that stays visible
        // if the two ever part.
        let (mut plain, mut noop) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            let (mut qsl, mut sut) = null_stack();
            plain.push(time_ns(1, || run_simulated(settings, &mut qsl, &mut sut)));
            noop.push(time_ns(1, || {
                run_simulated_traced(settings, &mut qsl, &mut sut, &NoopSink)
            }));
        }
        out.push(sample(
            "trace.noop_overhead_pct",
            "%",
            (median(&noop) / median(&plain) - 1.0) * 100.0,
        ));

        let calls = 1_000_000u64;
        let hammer = |registry: &MetricsRegistry| {
            for i in 0..calls / 2 {
                registry.incr("queries_completed", 1);
                registry.observe("query_latency_ns", 40_000 + i);
            }
        };
        let registry = MetricsRegistry::new();
        let t = time_ns(5, || hammer(&registry));
        out.push(sample("trace.metrics_incr_ns", "ns", t / calls as f64));
        let t = time_ns(5, || {
            std::thread::scope(|scope| {
                scope.spawn(|| hammer(&registry));
                hammer(&registry);
            })
        });
        // Wall time per call per thread: what one of two issuing threads
        // pays for sharing the registry.
        out.push(sample(
            "trace.metrics_incr_contended_ns",
            "ns",
            t / calls as f64,
        ));

        Ok(out)
    }
}
