//! Tail-latency forensics CLI: explain every percentile and every INVALID.
//!
//! ```text
//! analyze --log <detail.jsonl>          critical-path report for one run
//! analyze --merged <detail.jsonl>       alias for --log (merged cross-host logs)
//! analyze --compare <base> <cand>       cross-run diff: which segment regressed
//! analyze --check                       CI mode: regenerate the committed artifacts
//!
//! opts: [--outcome <result.json>] [--interval-ms <n>] [--report <out.md>]
//!       [--json <out.json>] [--heatmap <out.jsonl>] [--tolerance <pct>] [--bless]
//! ```
//!
//! `--log` accepts a merged detail log (JSONL of trace records) or a
//! flight-recorder dump (same body behind a `{"flight_dump":...}` header —
//! auto-detected); the dump's reason line feeds the root-cause engine, so
//! analyzing an INVALID run's dump names the violated constraint even when
//! the `ValidityCheckFailed` event itself was evicted from the ring.
//! `--outcome` mixes a saved `TestResult` JSON into the root-cause inputs.
//! The default output is the markdown report on stdout; `--report`,
//! `--json`, and `--heatmap` write it (plus the machine-readable analysis
//! and the per-window heatmap rows) to files instead.
//!
//! `--compare` sniffs its two arguments: metrics snapshots (raw or
//! `netbench --metrics` documents) diff their shared latency histograms,
//! recorded `MLPR` traces (alone, together, or against a detail log — the
//! recorded-vs-replayed audit) diff by workload fingerprint against the
//! equivalence bound, and anything else is treated as a pair
//! of detail logs and diffed segment-by-segment at the nearest-rank
//! quantiles (with the fingerprint rows appended for context). A
//! regression beyond `--tolerance` (percent at p99, default 10) exits
//! non-zero with a verdict naming the segment.
//!
//! `--check` is the CI stage: it re-analyzes the committed log fixtures
//! under `results/fixtures/` and asserts the committed
//! `results/analysis.{md,json}` artifacts reproduce byte-identically, the
//! per-query decomposition residual is exactly zero, and the chaos flight
//! dump's root cause names every constraint its reason records. `--bless`
//! rewrites the artifacts instead of diffing them.

use mlperf_analysis::{analyze_records, heatmap_jsonl, render_markdown, Analysis};
use mlperf_loadgen::results::TestResult;
use mlperf_replay::{fingerprint_of_records, EquivalenceBound, RecordedTrace, TraceFingerprint};
use mlperf_trace::flight::parse_flight_dump;
use mlperf_trace::reader::read_detail_log_str;
use mlperf_trace::{FromJson, JsonValue, MetricsSnapshot, ToJson, TraceRecord};
use std::process::ExitCode;

const USAGE: &str =
    "usage: analyze (--log <jsonl> | --merged <jsonl> | --compare <base> <cand> | --check) \
[--outcome <result.json>] [--interval-ms <n>] [--report <out.md>] [--json <out.json>] \
[--heatmap <out.jsonl>] [--tolerance <pct>] [--bless]";

/// Committed fixture: one merged cross-host detail log from a loopback
/// netbench server run (recorded once; see EXPERIMENTS.md).
const MERGED_FIXTURE: &str = "results/fixtures/netbench_merged.jsonl";
/// Committed fixture: a flight-recorder dump of a seeded INVALID chaos
/// wire cell.
const FLIGHT_FIXTURE: &str = "results/fixtures/chaos_flight.jsonl";
/// Committed artifacts regenerated (and byte-compared) by `--check`.
const REPORT_ARTIFACT: &str = "results/analysis.md";
const JSON_ARTIFACT: &str = "results/analysis.json";

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Loads a detail log or flight dump via the shared `mlperf-trace` reader;
/// returns the records plus any extra issue texts recovered from the
/// artifact itself (the dump reason).
fn load_records(path: &str) -> Result<(Vec<TraceRecord>, Vec<String>), String> {
    let text = read(path)?;
    let log = read_detail_log_str(&text).map_err(|e| format!("{path}: bad detail log: {e}"))?;
    Ok((log.records, log.issues))
}

/// Validity issue texts from a saved `TestResult` JSON (`--outcome`).
fn outcome_texts(path: &str) -> Result<Vec<String>, String> {
    let text = read(path)?;
    let result =
        TestResult::from_json_str(&text).map_err(|e| format!("{path}: bad outcome JSON: {e}"))?;
    Ok(result.validity.iter().map(|i| i.to_string()).collect())
}

/// Runs the full pipeline over one artifact.
fn analyze_file(
    path: &str,
    outcome: Option<&str>,
    interval_ns: Option<u64>,
) -> Result<Analysis, String> {
    let (records, mut extra) = load_records(path)?;
    if let Some(outcome_path) = outcome {
        extra.extend(outcome_texts(outcome_path)?);
    }
    Ok(analyze_records(path, &records, &extra, interval_ns))
}

/// What kind of comparable artifact a `--compare` argument is.
enum Comparable {
    Metrics(MetricsSnapshot),
    Log(Vec<TraceRecord>),
    Trace(RecordedTrace),
}

/// Sniffs one `--compare` argument by shape, not extension.
fn load_comparable(path: &str) -> Result<Comparable, String> {
    // Recorded traces are the one binary artifact; sniff the magic before
    // asking for UTF-8.
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if bytes.starts_with(&mlperf_replay::MAGIC) {
        let trace = RecordedTrace::decode(&bytes)
            .map_err(|e| format!("{path}: bad recorded trace: {e}"))?;
        return Ok(Comparable::Trace(trace));
    }
    let text = String::from_utf8(bytes)
        .map_err(|e| format!("{path}: not UTF-8 or a recorded trace: {e}"))?;
    if let Ok(doc) = JsonValue::parse(&text) {
        if doc.get("histograms").is_some() {
            let snapshot = MetricsSnapshot::from_json_value(&doc)
                .map_err(|e| format!("{path}: bad metrics snapshot: {e}"))?;
            return Ok(Comparable::Metrics(snapshot));
        }
        // A `netbench --metrics` document: one snapshot per run, keyed by
        // scenario. Fold them into one snapshot with prefixed names.
        if let Some(JsonValue::Array(runs)) = doc.get("runs") {
            let mut merged = MetricsSnapshot::default();
            for run in runs {
                let scenario = run
                    .field("scenario")
                    .and_then(|s| s.as_str())
                    .map_err(|e| format!("{path}: bad metrics document: {e}"))?;
                let snapshot = MetricsSnapshot::from_json_value(
                    run.field("metrics")
                        .map_err(|e| format!("{path}: bad metrics document: {e}"))?,
                )
                .map_err(|e| format!("{path}: bad metrics document: {e}"))?;
                for (name, hist) in snapshot.histograms {
                    merged.histograms.insert(format!("{scenario}.{name}"), hist);
                }
                for (name, count) in snapshot.counters {
                    merged.counters.insert(format!("{scenario}.{name}"), count);
                }
            }
            return Ok(Comparable::Metrics(merged));
        }
    }
    let (records, _) = load_records(path)?;
    Ok(Comparable::Log(records))
}

/// Prints the workload-fingerprint distance between two artifacts and
/// judges it against the equivalence bound. Returns true when every axis
/// is within bound.
fn fingerprint_diff(base: &TraceFingerprint, cand: &TraceFingerprint) -> bool {
    let d = base.distance(cand);
    println!("workload fingerprint distance:");
    for (name, value) in d.rows() {
        println!("  {name:<18} {value:.4}");
    }
    match EquivalenceBound::default().check(&d) {
        Ok(()) => true,
        Err(violations) => {
            for v in violations {
                println!("  out of bound: {v}");
            }
            false
        }
    }
}

/// Cross-run diff; returns false when a regression beyond the tolerance
/// was flagged.
fn run_compare(base_path: &str, cand_path: &str, tolerance_pct: f64) -> Result<bool, String> {
    let base = load_comparable(base_path)?;
    let cand = load_comparable(cand_path)?;
    let diff = match (&base, &cand) {
        (Comparable::Metrics(old), Comparable::Metrics(new)) => {
            mlperf_analysis::diff_metrics(old, new, tolerance_pct)
        }
        // A recorded trace against a recorded trace (e.g. full vs
        // reduced), or against a detail log (recorded vs replayed): the
        // diff is the workload fingerprint itself.
        (Comparable::Trace(old), Comparable::Trace(new)) => {
            println!(
                "compare: {} vs {} ({} vs {} recorded queries)",
                base_path,
                cand_path,
                old.queries.len(),
                new.queries.len()
            );
            return Ok(fingerprint_diff(&old.fingerprint(), &new.fingerprint()));
        }
        (Comparable::Trace(trace), Comparable::Log(records)) => {
            println!("compare: {base_path} (recorded trace) vs {cand_path} (detail log)");
            let fp = fingerprint_of_records(records)
                .ok_or_else(|| format!("{cand_path}: no issued queries to fingerprint"))?;
            return Ok(fingerprint_diff(&trace.fingerprint(), &fp));
        }
        (Comparable::Log(records), Comparable::Trace(trace)) => {
            println!("compare: {base_path} (detail log) vs {cand_path} (recorded trace)");
            let fp = fingerprint_of_records(records)
                .ok_or_else(|| format!("{base_path}: no issued queries to fingerprint"))?;
            return Ok(fingerprint_diff(&fp, &trace.fingerprint()));
        }
        (Comparable::Log(old), Comparable::Log(new)) => {
            let base_paths = mlperf_analysis::query_paths(old);
            let cand_paths = mlperf_analysis::query_paths(new);
            mlperf_analysis::diff_paths(&base_paths, &cand_paths, tolerance_pct)
        }
        _ => {
            return Err(format!(
                "--compare needs two artifacts of the same kind \
(metrics JSON, recorded trace, or detail log): {base_path} vs {cand_path}"
            ))
        }
    };
    println!(
        "compare: {} vs {} ({} vs {} finished queries)",
        base_path, cand_path, diff.base_queries, diff.cand_queries
    );
    for row in &diff.rows {
        println!(
            "  {:<14} p99 {} -> {} ns ({}{:.1}%)",
            row.name,
            row.base.p99_ns,
            row.cand.p99_ns,
            if row.delta_p99_ns >= 0 { "+" } else { "" },
            row.delta_p99_pct,
        );
    }
    // The segment diff answers "where did the time go"; the fingerprint
    // rows answer "is it even the same workload". Informational here —
    // the verdict stays with the segment tolerance.
    if let (Comparable::Log(old), Comparable::Log(new)) = (&base, &cand) {
        if let (Some(old_fp), Some(new_fp)) =
            (fingerprint_of_records(old), fingerprint_of_records(new))
        {
            fingerprint_diff(&old_fp, &new_fp);
        }
    }
    println!("verdict: {}", diff.verdict);
    Ok(diff.regressed.is_empty())
}

/// Renders the two committed artifacts from the merged-log fixture.
fn render_artifacts(analysis: &Analysis) -> (String, String) {
    let markdown = render_markdown(analysis);
    let mut json = analysis.to_json_pretty();
    json.push('\n');
    (markdown, json)
}

/// Byte-compares (or, under `--bless`, rewrites) one committed artifact.
fn check_artifact(path: &str, want: &str, bless: bool, failures: &mut Vec<String>) {
    if bless {
        match std::fs::write(path, want) {
            Ok(()) => println!("analyze: blessed {path}"),
            Err(e) => failures.push(format!("cannot write {path}: {e}")),
        }
        return;
    }
    match std::fs::read_to_string(path) {
        Ok(have) if have == want => {}
        Ok(_) => failures.push(format!(
            "{path} is stale: rerun `cargo run --release --bin analyze -- --check --bless`"
        )),
        Err(e) => failures.push(format!("cannot read {path}: {e}")),
    }
}

/// The CI stage: committed fixtures must reproduce the committed
/// explanations, byte for byte, and the forensics must hold.
fn run_check(bless: bool) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();

    // 1. The merged-log fixture regenerates results/analysis.{md,json}.
    let analysis = analyze_file(MERGED_FIXTURE, None, None)?;
    if analysis.breakdown.queries == 0 {
        failures.push(format!("{MERGED_FIXTURE}: fixture decodes to zero queries"));
    }
    if analysis.breakdown.max_residual_ns != 0 {
        failures.push(format!(
            "decomposition residual is {}ns (segments must sum to e2e exactly)",
            analysis.breakdown.max_residual_ns
        ));
    }
    let (markdown, json) = render_artifacts(&analysis);
    check_artifact(REPORT_ARTIFACT, &markdown, bless, &mut failures);
    check_artifact(JSON_ARTIFACT, &json, bless, &mut failures);

    // 2. The chaos flight dump yields a root cause for every constraint
    //    its reason line records.
    let text = read(FLIGHT_FIXTURE)?;
    let dump =
        parse_flight_dump(&text).map_err(|e| format!("{FLIGHT_FIXTURE}: bad flight dump: {e}"))?;
    if dump.records.is_empty() {
        failures.push(format!("{FLIGHT_FIXTURE}: dump holds no events"));
    }
    let reasons = vec![dump.reason.clone()];
    let flight = analyze_records(FLIGHT_FIXTURE, &dump.records, &reasons, None);
    if flight.root_causes.is_empty() {
        failures.push(format!(
            "{FLIGHT_FIXTURE}: analysis produced no root cause for an INVALID run"
        ));
    }
    let named: Vec<&str> = flight.root_causes.iter().map(|c| c.constraint).collect();
    for expected in mlperf_analysis::detect_constraints(&dump.reason) {
        if !named.contains(&expected) {
            failures.push(format!(
                "{FLIGHT_FIXTURE}: dump reason records `{expected}` but the analysis named {named:?}"
            ));
        }
    }

    Ok(failures)
}

fn main() -> ExitCode {
    let _flight = mlperf_harness::panic_guard::install("analyze");
    let mut log_path: Option<String> = None;
    let mut compare: Option<(String, String)> = None;
    let mut outcome_path: Option<String> = None;
    let mut interval_ns: Option<u64> = None;
    let mut report_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut heatmap_path: Option<String> = None;
    let mut tolerance_pct = 10.0f64;
    let mut check_mode = false;
    let mut bless = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--log" | "--merged" | "--outcome" | "--report" | "--json" | "--heatmap" => {
                let Some(v) = it.next() else {
                    eprintln!("{arg} needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                match arg.as_str() {
                    "--log" | "--merged" => log_path = Some(v.clone()),
                    "--outcome" => outcome_path = Some(v.clone()),
                    "--report" => report_path = Some(v.clone()),
                    "--json" => json_path = Some(v.clone()),
                    _ => heatmap_path = Some(v.clone()),
                }
            }
            "--compare" => {
                let (Some(base), Some(cand)) = (it.next(), it.next()) else {
                    eprintln!("--compare needs two paths\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                compare = Some((base.clone(), cand.clone()));
            }
            "--interval-ms" => {
                let Some(v) = it.next() else {
                    eprintln!("--interval-ms needs a value\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                match v.parse::<u64>() {
                    Ok(ms) if ms > 0 => interval_ns = Some(ms * 1_000_000),
                    _ => {
                        eprintln!("--interval-ms needs a positive integer, got `{v}`\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--tolerance" => {
                let Some(v) = it.next() else {
                    eprintln!("--tolerance needs a value\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                tolerance_pct = match v.parse() {
                    Ok(pct) => pct,
                    Err(_) => {
                        eprintln!("--tolerance needs a number, got `{v}`\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--check" => check_mode = true,
            "--bless" => bless = true,
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    if check_mode {
        return match run_check(bless) {
            Ok(failures) if failures.is_empty() => {
                println!(
                    "analyze check: OK (artifacts byte-stable, residual 0ns, \
flight dump explains its constraints)"
                );
                ExitCode::SUCCESS
            }
            Ok(failures) => {
                for f in &failures {
                    eprintln!("analyze check: {f}");
                }
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("analyze check: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some((base, cand)) = compare {
        return match run_compare(&base, &cand, tolerance_pct) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }

    let Some(path) = log_path else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let analysis = match analyze_file(&path, outcome_path.as_deref(), interval_ns) {
        Ok(analysis) => analysis,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (markdown, json) = render_artifacts(&analysis);
    let mut wrote_something = false;
    for (target, text) in [
        (&report_path, &markdown),
        (&json_path, &json),
        (&heatmap_path, &heatmap_jsonl(&analysis.heatmap)),
    ] {
        if let Some(out) = target {
            if let Err(e) = std::fs::write(out, text) {
                eprintln!("cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {out}");
            wrote_something = true;
        }
    }
    if !wrote_something {
        print!("{markdown}");
    }
    ExitCode::SUCCESS
}
