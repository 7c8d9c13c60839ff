//! Detail-log driver: runs a smoke-scale traced LoadGen run and exports the
//! event stream. Its flags are the `RUN` declaration below.
//!
//! `run` records every LoadGen and device event (issue, batch, DVFS,
//! completion, validity) of one smoke run; `--queries` overrides the
//! scenario's smoke-scale minimum query count (e.g. a 100k-query detail
//! log as a record–reduce–replay corpus). With `--trace-format chrome` the
//! output loads directly into `chrome://tracing` or Perfetto; `jsonl` writes
//! the `mlperf_log_detail` analog that `analyze --log` (and
//! `mlperf_trace::read_detail_log`) read back.
//!
//! `run` can also be made **crash-safe**: `--journal <path>` appends
//! seeded checkpoints (scenario cursor, RNG states, recorder image) to a
//! durable `MLPJ` run journal every `--checkpoint-every` issued queries
//! (server/offline scenarios), `--halt-after <seq>` stops the run right
//! after checkpoint `seq` as if the process died there, and
//! `--resume-from <path>` rolls back to the journal's last complete
//! checkpoint and re-executes the run to completion — the resumed detail
//! log is logically identical to an uninterrupted run's.
//!
//! `--profile` turns on the wall-clock span profiler and prints the
//! self-time table; `--collapsed` additionally writes flamegraph.pl-compatible
//! collapsed stacks. `--metrics` writes the run's full metrics-registry
//! snapshot (counters, gauges, and log-bucketed latency histograms) in
//! `netbench --metrics`'s shape, one entry under `runs`, so
//! `analyze --compare` diffs two of them.
//!
//! A time series of the run is derived from its detail log:
//! `trace run --trace-format jsonl --trace x.jsonl`, then
//! `analyze --log x.jsonl --heatmap rows.jsonl --interval-ms N` writes one
//! row per `N` ms window (issued, in flight, completions, samples, latency
//! quantiles, DVFS state).

use mlperf_harness::cli::{self, Command, Flag};
use mlperf_harness::panic_guard;
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::journal::JournalConfig;
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::{Instruments, JournaledRun, Run};
use mlperf_models::{TaskId, Workload};
use mlperf_sut::device::{Architecture, DeviceSpec, ThermalModel};
use mlperf_sut::engine::{BatchPolicy, DeviceSut};
use mlperf_trace::{
    chrome_trace_json, profile, render_detail_log, FanoutSink, JsonValue, MetricsRegistry,
    RingBufferSink, ToJson,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const RUN: Command = Command::new(
    "trace run",
    "",
    &[
        Flag::value("--scenario", "single-stream|multistream|server|offline"),
        Flag::value("--trace", "<path>"),
        Flag::value("--trace-format", "jsonl|chrome"),
        Flag::value("--queries", "<n>"),
        Flag::switch("--profile"),
        Flag::value("--collapsed", "<path>"),
        Flag::value("--metrics", "<path>"),
        Flag::value("--journal", "<path>"),
        Flag::value("--resume-from", "<path>"),
        Flag::value("--checkpoint-every", "<n>"),
        Flag::value("--halt-after", "<seq>"),
    ],
);

fn main() -> ExitCode {
    let flight = panic_guard::install("trace");
    let argv = cli::args();
    let run = cli::select(&[RUN], &argv).and_then(|(_, rest)| cmd_run(rest, &flight));
    cli::exit(run.map(|()| true))
}

fn settings_for(scenario: &str, queries: Option<u64>) -> Result<TestSettings, String> {
    let settings = match scenario {
        "single-stream" => TestSettings::single_stream().with_min_query_count(256),
        "multistream" => {
            TestSettings::multi_stream(8, Nanos::from_millis(50)).with_min_query_count(64)
        }
        "server" => {
            TestSettings::server(1_000.0, Nanos::from_millis(15)).with_min_query_count(1_024)
        }
        "offline" => TestSettings::offline(),
        other => return Err(format!("unknown scenario `{other}`")),
    };
    let settings = match queries {
        Some(n) => settings.with_min_query_count(n),
        None => settings,
    };
    Ok(settings.with_min_duration(Nanos::from_millis(1)))
}

fn cmd_run(args: &[String], flight: &mlperf_trace::FlightRecorder) -> Result<(), String> {
    let args = RUN.parse(args)?;
    let scenario = args.value("--scenario").unwrap_or("server");
    let path = args.value("--trace").unwrap_or("trace-out.json");
    let format = args.value("--trace-format").unwrap_or("chrome");
    let collapsed_path = args.value("--collapsed");
    let profile_on = args.switch("--profile") || collapsed_path.is_some();
    let metrics_path = args.value("--metrics");
    let queries = args.number("--queries", 1..)?;
    let journal_path = args.value("--journal");
    let resume_path = args.value("--resume-from");
    let checkpoint_every = args.number("--checkpoint-every", 1..)?.unwrap_or(16);
    let halt_after = args.number("--halt-after", ..)?;
    if journal_path.is_some() && resume_path.is_some() {
        return Err("--journal and --resume-from are mutually exclusive".to_string());
    }
    let journaling = journal_path.is_some() || resume_path.is_some();

    let settings = settings_for(scenario, queries)?;
    let sink = Arc::new(RingBufferSink::unbounded());
    // Tee the run's events into the panic guard's flight recorder so a
    // crash dumps the freshest tail next to the artifacts.
    let fan = FanoutSink::new(vec![
        sink.clone() as Arc<dyn mlperf_trace::TraceSink>,
        Arc::new(flight.clone()),
    ]);
    let registry = Arc::new(MetricsRegistry::new());
    let device = DeviceSpec::new(
        "trace-demo-gpu",
        Architecture::Gpu,
        2_000.0,
        2.0,
        16,
        2,
        Nanos::from_micros(50),
    )
    .with_thermal(ThermalModel {
        boost: 1.3,
        decay_secs: 0.5,
    });
    let policy = match scenario {
        "server" => BatchPolicy::DynamicBatch {
            timeout: Nanos::from_millis(2),
            max_batch: 16,
        },
        _ => BatchPolicy::Immediate,
    };
    let mut sut = DeviceSut::new(
        device,
        Workload::new(TaskId::ImageClassificationLight),
        policy,
    )
    .with_trace(Arc::new(fan.clone()))
    .with_metrics(registry.clone());

    let instruments = Instruments::traced(&fan).with_metrics(&registry);

    if profile_on {
        profile::reset();
        profile::set_enabled(true);
    }
    let wall_start = Instant::now();
    let mut qsl = MemoryQsl::new("trace-demo-qsl", 1_024, 1_024);
    let outcome = if journaling {
        let resuming = resume_path.is_some();
        let jpath = journal_path
            .or(resume_path)
            .expect("journaling implies a path");
        let mut cfg = JournalConfig::new(jpath).with_checkpoint_every(checkpoint_every);
        if let Some(seq) = halt_after {
            cfg = cfg.with_halt_after(seq);
        }
        // The panic hook fsyncs this journal before the process unwinds.
        panic_guard::guard_journal(jpath);
        let run = Run::simulated(&settings).instruments(&instruments);
        let run = if resuming {
            run.resume(&cfg)
        } else {
            run.journal(&cfg)
        };
        let run = run
            .run(&mut qsl, &mut sut)
            .map_err(|e| format!("journaled run failed: {e}"))?;
        match run {
            JournaledRun::Halted { checkpoint } => {
                println!(
                    "halted after checkpoint {checkpoint}; journal {jpath} is durable — \
                     continue with `trace run --scenario {scenario} --resume-from {jpath}`"
                );
                return Ok(());
            }
            JournaledRun::Finished(outcome) => {
                let verb = if resuming { "resumed" } else { "journaled" };
                println!("{verb}: {}", outcome.result.summary_line());
                *outcome
            }
        }
    } else {
        let outcome = Run::simulated(&settings)
            .instruments(&instruments)
            .run(&mut qsl, &mut sut)
            .map_err(|e| format!("run failed: {e}"))?;
        println!("{}", outcome.result.summary_line());
        outcome
    };
    let wall = wall_start.elapsed();
    if profile_on {
        profile::set_enabled(false);
    }
    let records = sink.snapshot();

    let rendered = match format {
        "chrome" => chrome_trace_json(&records),
        _ => render_detail_log(&records),
    };
    std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))?;

    if let Some(metrics) = &outcome.metrics {
        if let Some(h) = metrics.histogram("query_latency_ns") {
            println!(
                "metrics: {} queries, latency p50={} p90={} p99={} ns (±{} ns bucket)",
                metrics.counter("queries_completed"),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.quantile_resolution(0.99),
            );
        }
    }
    println!("wrote {} events to {path} ({format})", records.len());
    if format == "chrome" {
        println!("open chrome://tracing or https://ui.perfetto.dev and load the file");
    }

    if let Some(mpath) = metrics_path {
        let run = JsonValue::object(vec![
            ("scenario", scenario.to_json_value()),
            ("metrics", registry.snapshot().to_json_value()),
        ]);
        let doc = JsonValue::object(vec![
            ("tool", "trace".to_json_value()),
            ("runs", JsonValue::Array(vec![run])),
        ]);
        let mut text = doc.to_pretty();
        text.push('\n');
        std::fs::write(mpath, text).map_err(|e| format!("cannot write {mpath}: {e}"))?;
        println!("wrote metrics snapshot to {mpath}");
    }

    if profile_on {
        let report = profile::report();
        println!(
            "\nspan profile (wall time {:.3} ms, root inclusive {:.3} ms):",
            wall.as_secs_f64() * 1e3,
            report.root_inclusive_ns() as f64 / 1e6
        );
        print!("{}", report.table());
        if let Some(cpath) = collapsed_path {
            let collapsed = report.collapsed();
            std::fs::write(cpath, &collapsed).map_err(|e| format!("cannot write {cpath}: {e}"))?;
            println!(
                "wrote {} collapsed stacks to {cpath} (feed to flamegraph.pl)",
                collapsed.lines().count()
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_has_settings() {
        for scenario in ["single-stream", "multistream", "server", "offline"] {
            settings_for(scenario, None).expect("known scenario");
        }
        assert!(settings_for("bogus", None).is_err());
        let bumped = settings_for("server", Some(123_456)).expect("known scenario");
        assert_eq!(bumped.min_query_count, 123_456);
    }

    #[test]
    fn a_journal_the_run_refuses_fails_with_run_checks_words_and_writes_nothing() {
        let dir = std::env::temp_dir();
        let tag = std::process::id();
        let journal = dir.join(format!("trace-refused-{tag}.mlpj"));
        let trace = dir.join(format!("trace-refused-{tag}.jsonl"));
        let args: Vec<String> = [
            "--scenario",
            "single-stream",
            "--journal",
            journal.to_str().expect("UTF-8 temp dir"),
            "--trace",
            trace.to_str().expect("UTF-8 temp dir"),
        ]
        .map(String::from)
        .to_vec();
        let err = cmd_run(&args, &mlperf_trace::FlightRecorder::new(16)).unwrap_err();
        assert_eq!(
            err,
            "journaled run failed: bad test settings: \
             journaled runs support the server and offline scenarios, not single-stream"
        );
        assert!(!journal.exists() && !trace.exists());
    }
}
