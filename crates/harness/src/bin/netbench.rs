//! Network LoadGen harness: drive a remote SUT daemon, export one, or do
//! both in-process over a loopback socket.
//!
//! ```text
//! netbench --serve <addr>               export the benchmark device as a daemon
//! netbench --connect <addr> [opts]      drive a remote daemon (offline + server runs)
//! netbench --loopback [opts]            single-process: daemon + client on 127.0.0.1
//!
//! opts: [--seed <n>] [--out <path>] [--metrics <path>] [--detail <path>]
//!       [--chrome <path>] [--flight-dir <dir>] [--stats] [--watch] [--check]
//! ```
//!
//! Every mode but `--serve` is the same path over a [`Rig`] of one daemon:
//! `--loopback` spawns it in-process, `--connect` wraps an address
//! somebody else serves. A fleet that loses a shard mid-run is `chaos
//! --wire`'s `shard-kill` row.
//!
//! Every run writes a *logical detail log*: the deterministic slice of the
//! per-query records (id, scheduled time, sample count, error flag) that is
//! byte-reproducible under a fixed seed — wall-clock latencies explicitly
//! excluded. Each run also produces a *merged* detail log:
//! client issue/complete spans, server queue/compute spans (shipped back at
//! drain and re-stamped onto the client clock by the NTP-style offset
//! estimator), and wire events, all on one time axis. `--detail` /
//! `--chrome` export the server-scenario run's merged log as JSONL /
//! Chrome trace JSON; `--metrics` writes the per-run wire metrics
//! snapshots; `--stats` asks the daemon for a live [`DaemonStats`]
//! snapshot; `--watch` polls those snapshots into a live console line
//! while the runs execute. A run that ends INVALID automatically leaves a
//! flight-recorder dump of its freshest events under `--flight-dir`, with
//! a `<dump>.analysis.md` root-cause report beside it.
//!
//! `--check` is the CI smoke mode: it repeats the run pair over fresh
//! connections and asserts every run is VALID, the two logical logs render
//! to identical bytes, the merged log passes the TEST06 completeness audit
//! with no accuracy events and at least one end-to-end trace, and the
//! stats snapshot parses (with `--stats`).
//!
//! [`DaemonStats`]: mlperf_wire::DaemonStats

use mlperf_audit::tests::completeness_report;
use mlperf_audit::AuditOutcome;
use mlperf_harness::cli::{self, Args, Command, Flag};
use mlperf_harness::rig::{dump_flight, Rig, DEVICE_PER_SAMPLE};
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::qsl::{MemoryQsl, QuerySampleLibrary};
use mlperf_loadgen::sut::FixedLatencySut;
use mlperf_loadgen::time::Nanos;
use mlperf_stats::rng::SeedTriple;
use mlperf_sut::BalancePolicy;
use mlperf_trace::chrome::chrome_trace_json;
use mlperf_trace::event::TraceRecord;
use mlperf_trace::metrics::MetricsRegistry;
use mlperf_trace::{render_detail_log, JsonValue, RingBufferSink, ToJson, TraceEvent};
use mlperf_wire::{fetch_stats, serve_on, RemoteSutConfig, ServeConfig, SimHost};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

static NETBENCH: Command = Command::new(
    "netbench",
    "",
    &[
        Flag::value("--serve", "<addr>"),
        Flag::value("--connect", "<addr>"),
        Flag::switch("--loopback"),
        cli::SEED,
        cli::OUT,
        Flag::value("--metrics", "<path>"),
        Flag::value("--detail", "<path>"),
        Flag::value("--chrome", "<path>"),
        Flag::value("--flight-dir", "<dir>"),
        Flag::switch("--stats"),
        Flag::switch("--watch"),
        cli::CHECK,
    ],
);

/// Scaled-down run pair. Both scenarios terminate on schedule-derived
/// conditions (an offline run is one batch; the server issue loop stops on
/// seeded arrival times), so the issued query stream — ids, scheduled
/// times, sample counts — is deterministic under a fixed seed.
fn run_pair(seed: u64) -> [(&'static str, TestSettings); 2] {
    let seeds = SeedTriple::from_master(seed);
    [
        (
            "offline",
            TestSettings::offline()
                .with_offline_min_sample_count(1_024)
                .with_min_duration(Nanos::from_millis(1))
                .with_seeds(seeds),
        ),
        (
            "server",
            TestSettings::server(200.0, Nanos::from_millis(50))
                .with_min_query_count(48)
                .with_min_duration(Nanos::from_millis(100))
                .with_seeds(seeds),
        ),
    ]
}

struct RunSummary {
    label: &'static str,
    valid: bool,
    issues: Vec<String>,
    query_count: u64,
    sample_count: u64,
    wire_events: usize,
    /// Trace ids whose client-issue, server-compute, and client-complete
    /// spans all made it into the merged log.
    end_to_end_traces: usize,
    /// `AccuracyLogged` events in the merged log (must be 0 for a
    /// performance run — the detail-log compliance rule).
    accuracy_events: usize,
    /// TEST06 completeness verdict over the merged log.
    completeness: AuditOutcome,
    logical_log: JsonValue,
    /// The merged (client + shipped server) detail log, clock-aligned.
    records: Vec<TraceRecord>,
    metrics: mlperf_trace::metrics::MetricsSnapshot,
}

/// Drives one scenario over a fresh connection to the rig's daemon (a
/// connection is a run: the handshake resets the service).
fn run_one(rig: &Rig, label: &'static str, settings: &TestSettings) -> Result<RunSummary, String> {
    let mut qsl = MemoryQsl::new("netbench-qsl", 64, 64);
    let sink = Arc::new(RingBufferSink::unbounded());
    let metrics = Arc::new(MetricsRegistry::new());

    // One sink, one registry and one clock origin for the client and the
    // run loop: the merged log and the counters share one time axis.
    let wired = rig
        .connect(
            settings,
            qsl.total_sample_count() as u64,
            |_| RemoteSutConfig::default(),
            BalancePolicy::WeightedThroughput,
            Some(sink.clone()),
            Some(metrics.clone()),
        )
        .map_err(|e| format!("{label}: {e}"))?;
    let out = wired
        .run(settings)
        .run(&mut qsl, Arc::clone(&wired.sut))
        .map_err(|e| format!("{label}: run failed: {e}"))?;

    // Drain before snapshotting: it ships the server-side spans into the
    // shared sink.
    wired.drain();
    let snapshot = metrics.snapshot();
    let records = sink.snapshot();
    let rtt = snapshot.histograms.get("wire_rtt_ns");
    println!(
        "{label:<8} {:<8} queries={} samples={} wire: {} frames sent, rtt mean {:.1} us over {} \
obs",
        if out.result.is_valid() {
            "VALID"
        } else {
            "INVALID"
        },
        out.result.query_count,
        out.result.sample_count,
        snapshot.counter("wire_frames_sent"),
        rtt.map_or(0.0, |h| h.mean() / 1_000.0),
        rtt.map_or(0, |h| h.count()),
    );
    Ok(summarize(label, &out, records, snapshot))
}

/// Folds one finished run plus its merged detail log into a
/// [`RunSummary`].
fn summarize(
    label: &'static str,
    out: &mlperf_loadgen::des::RunOutcome,
    records: Vec<TraceRecord>,
    snapshot: mlperf_trace::metrics::MetricsSnapshot,
) -> RunSummary {
    let wire_events = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::WireEvent { .. }))
        .count();
    let accuracy_events = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::AccuracyLogged { .. }))
        .count();
    let completeness = completeness_report(&records).outcome;

    // End-to-end traces: issue (client) + compute (any server-side host —
    // `server`, or the shard label a `--connect`ed daemon was given) +
    // complete (client) sharing one trace id.
    let mut by_phase: std::collections::HashMap<u64, [bool; 3]> = std::collections::HashMap::new();
    for record in &records {
        if let TraceEvent::SpanEvent(span) = &record.event {
            let slot = match (span.host.as_str(), span.phase.as_str()) {
                ("client", "issue") => 0,
                (h, "compute") if h != "client" => 1,
                ("client", "complete") => 2,
                _ => continue,
            };
            by_phase.entry(span.trace_id).or_default()[slot] = true;
        }
    }
    let end_to_end_traces = by_phase.values().filter(|p| p.iter().all(|&b| b)).count();

    // The logical detail log: deterministic fields only, in issue order.
    let queries: Vec<JsonValue> = out
        .records
        .iter()
        .map(|r| {
            let (id, scheduled_at_ns, sample_count, error) = r.logical();
            JsonValue::object(vec![
                ("id", id.to_json_value()),
                ("scheduled_at_ns", scheduled_at_ns.to_json_value()),
                ("sample_count", (sample_count as u64).to_json_value()),
                ("error", error.to_json_value()),
            ])
        })
        .collect();
    let logical_log = JsonValue::object(vec![
        ("scenario", label.to_json_value()),
        ("valid", out.result.is_valid().to_json_value()),
        ("query_count", out.result.query_count.to_json_value()),
        ("sample_count", out.result.sample_count.to_json_value()),
        ("queries", JsonValue::Array(queries)),
    ]);

    RunSummary {
        label,
        valid: out.result.is_valid(),
        issues: out.result.validity.iter().map(|i| i.to_string()).collect(),
        query_count: out.result.query_count,
        sample_count: out.result.sample_count,
        wire_events,
        end_to_end_traces,
        accuracy_events,
        completeness,
        logical_log,
        records,
        metrics: snapshot,
    }
}

/// Runs the offline + server pair over `rig`; returns the summaries and
/// the rendered logical detail log.
fn drive(rig: &Rig, args: &Args, seed: u64) -> Result<(Vec<RunSummary>, String), String> {
    let flight_dir = args.value("--flight-dir").unwrap_or(".");
    let mut summaries = Vec::new();
    for (label, settings) in run_pair(seed) {
        let summary = run_one(rig, label, &settings)?;
        if !summary.valid {
            let path = format!("{flight_dir}/netbench_flight_{label}.jsonl");
            let reason = format!("{label} run INVALID: {}", summary.issues.join("; "));
            dump_flight(&path, &reason, &summary.records);
        }
        summaries.push(summary);
    }
    let runs = summaries.iter().map(|s| s.logical_log.clone()).collect();
    let fields = vec![
        ("seed", seed.to_json_value()),
        ("runs", JsonValue::Array(runs)),
    ];
    let mut rendered = JsonValue::object(fields).to_pretty();
    rendered.push('\n');
    Ok((summaries, rendered))
}

fn check_summaries(summaries: &[RunSummary]) -> Vec<String> {
    let mut failures = Vec::new();
    for s in summaries {
        if !s.valid {
            failures.push(format!(
                "{}: run is INVALID over the wire: {}",
                s.label,
                s.issues.join("; ")
            ));
        }
        if s.query_count == 0 || s.sample_count == 0 {
            failures.push(format!("{}: run resolved no queries", s.label));
        }
        if s.wire_events == 0 {
            failures.push(format!(
                "{}: detail log recorded no wire events (instrumentation broken)",
                s.label
            ));
        }
        if let AuditOutcome::Fail(reason) = &s.completeness {
            failures.push(format!(
                "{}: merged detail log fails the completeness audit: {reason}",
                s.label
            ));
        }
        if s.accuracy_events != 0 {
            failures.push(format!(
                "{}: performance run leaked {} accuracy events into the detail log",
                s.label, s.accuracy_events
            ));
        }
        if s.end_to_end_traces == 0 {
            failures.push(format!(
                "{}: no trace id spans client issue -> server compute -> client complete",
                s.label
            ));
        }
    }
    failures
}

/// One console line for `--watch`: the daemon's live counters.
fn watch_line(rig: &Rig) -> String {
    match fetch_stats(rig.addr(0)) {
        Ok(s) => format!(
            "{} served {} in-flight {}",
            rig.label(0),
            s.served,
            s.in_flight
        ),
        Err(_) => format!("{} dead", rig.label(0)),
    }
}

/// `--stats`: one live snapshot of the daemon after the runs, as a table
/// row; a daemon that does not answer is the failure returned.
fn stats_table(rig: &Rig) -> Option<String> {
    println!("stats:");
    let s = match fetch_stats(rig.addr(0)) {
        Ok(s) => s,
        Err(e) => return Some(format!("stats snapshot failed: {e}")),
    };
    let p99_us = s
        .snapshot
        .histograms
        .get("wire_serve_ns")
        .map_or(0.0, |h| h.quantile(0.99) as f64 / 1_000.0);
    let per_session: Vec<String> = s
        .session_outstanding
        .iter()
        .map(|(sid, n)| format!("{sid}:{n}"))
        .collect();
    println!(
        "  {:<10} sut={} up {:.1}s served {} ({:.0} qps lifetime) in-flight {} sessions {} \
replays {} dups {} p99 serve {p99_us:.0} us per-session [{}]",
        rig.label(0),
        s.sut_name,
        s.uptime_ns as f64 / 1e9,
        s.served,
        s.throughput_qps(),
        s.in_flight,
        s.sessions,
        s.snapshot.counter("wire_replays"),
        s.snapshot.counter("wire_dup_issues"),
        per_session.join(","),
    );
    None
}

/// Writes the requested artifact files (logical log, metrics snapshots,
/// merged detail log, Chrome trace) for a finished run pair.
fn write_artifacts(
    summaries: &[RunSummary],
    rendered: &str,
    args: &Args,
    seed: u64,
) -> Result<(), String> {
    if let Some(path) = args.value("--out") {
        std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote logical detail log to {path}");
    }

    // Machine-readable wire metrics, one snapshot per run.
    if let Some(path) = args.value("--metrics") {
        let doc = JsonValue::object(vec![
            ("seed", seed.to_json_value()),
            ("tool", "netbench".to_json_value()),
            (
                "runs",
                JsonValue::Array(
                    summaries
                        .iter()
                        .map(|s| {
                            JsonValue::object(vec![
                                ("scenario", s.label.to_json_value()),
                                ("metrics", s.metrics.to_json_value()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let mut text = doc.to_pretty();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote metrics snapshot to {path}");
    }

    // The merged, clock-aligned detail log of the server-scenario run (the
    // richer of the pair), as JSONL and/or a Chrome trace.
    let (detail, chrome) = (args.value("--detail"), args.value("--chrome"));
    if detail.is_some() || chrome.is_some() {
        let merged = &summaries.last().expect("run pair is never empty").records;
        if let Some(path) = detail {
            std::fs::write(path, render_detail_log(merged))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote merged detail log to {path}");
        }
        if let Some(path) = chrome {
            std::fs::write(path, chrome_trace_json(merged))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote chrome trace to {path}");
        }
    }
    Ok(())
}

/// The one path behind `--connect` and `--loopback`: drive the run pair
/// over `rig`, write what was asked for, and with `--check` prove the
/// result reproduces. `Ok(false)` is a failed check, already reported.
fn bench(rig: &Rig, args: &Args, seed: u64) -> Result<bool, String> {
    // --watch: poll the daemon's live stats onto one console line while
    // the runs execute.
    let done = AtomicBool::new(false);
    let (summaries, rendered) = std::thread::scope(|scope| {
        if args.switch("--watch") {
            scope.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    print!("\rwatch: {}        ", watch_line(rig));
                    let _ = std::io::stdout().flush();
                    std::thread::sleep(Duration::from_millis(250));
                }
                println!();
            });
        }
        let driven = drive(rig, args, seed);
        done.store(true, Ordering::SeqCst);
        driven
    })?;
    write_artifacts(&summaries, &rendered, args, seed)?;
    let stats_failure = args.switch("--stats").then(|| stats_table(rig)).flatten();
    if !args.switch("--check") {
        return stats_failure.map_or(Ok(true), |f| Err(format!("netbench: {f}")));
    }

    let mut failures = check_summaries(&summaries);
    failures.extend(stats_failure);
    // Reproducibility: the same seed must render a byte-identical logical
    // detail log over fresh connections.
    let (again, rendered_again) = drive(rig, args, seed)?;
    failures.extend(check_summaries(&again));
    if rendered != rendered_again {
        failures.push("logical detail log is not byte-reproducible across connections".into());
    }
    for f in &failures {
        eprintln!("netbench check: {f}");
    }
    if failures.is_empty() {
        println!(
            "netbench check: OK (runs VALID, logical log byte-stable, merged log complete with \
end-to-end traces)"
        );
    }
    Ok(failures.is_empty())
}

fn main() -> ExitCode {
    let _flight = mlperf_harness::panic_guard::install("netbench");
    cli::exit(netbench(&cli::args()))
}

/// Runs the mode `argv` selects: `--serve`, else `--connect`, else
/// `--loopback`. `Ok(false)` is a failed check, already reported.
fn netbench(argv: &[String]) -> Result<bool, String> {
    let args = NETBENCH.parse(argv)?;
    let seed = args.number("--seed", ..)?.unwrap_or(0xBE7C);
    // --serve never returns: export the device and wait for clients.
    if let Some(addr) = args.value("--serve") {
        let device = FixedLatencySut::new("netbench-dev", DEVICE_PER_SAMPLE);
        let handle = serve_on(addr, Arc::new(SimHost::new(device)), ServeConfig::default())
            .map_err(|e| format!("cannot serve on {addr}: {e}"))?;
        println!(
            "serving netbench-dev on {} (one run per connection; ctrl-c to stop)",
            handle.addr()
        );
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    if let Some(addr) = args.value("--connect") {
        return bench(&Rig::over(addr), &args, seed);
    }
    if !args.switch("--loopback") {
        return Err(NETBENCH.usage());
    }
    // The daemon replays the simulated per-sample service time on the
    // wall clock, so a whole run pair stays fast enough for CI.
    let rig = Rig::spawn("netbench-dev", &[DEVICE_PER_SAMPLE], |_| {
        ServeConfig::default()
    })?;
    println!(
        "loopback daemon {} on {} ({} us/sample)",
        rig.label(0),
        rig.addr(0),
        DEVICE_PER_SAMPLE.as_nanos() / 1_000,
    );
    bench(&rig, &args, seed)
}
