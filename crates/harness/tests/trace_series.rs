//! The `trace` binary end to end: a traced server run writes its detail
//! log, and `analyze` derives the run's time series from it.

use std::path::Path;
use std::process::{Command, Output};

fn run(binary: &str, args: &[&str]) -> Output {
    let out = Command::new(binary)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {binary}: {e}"));
    assert!(
        out.status.success(),
        "{binary} {args:?} failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// `field` of a heatmap row rendered as one JSON object per line.
fn field(row: &str, field: &str) -> u64 {
    let key = format!("\"{field}\":");
    let at = row
        .find(&key)
        .unwrap_or_else(|| panic!("no {field} in {row}"))
        + key.len();
    let digits: String = row[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("an integer field")
}

#[test]
fn a_traced_server_run_yields_a_series_that_counts_every_query() {
    let dir = std::env::temp_dir().join(format!("trace-series-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let log = dir.join("detail.jsonl");
    let rows = dir.join("rows.jsonl");
    let path = |p: &Path| p.to_str().expect("UTF-8 temp dir").to_string();

    let out = run(
        env!("CARGO_BIN_EXE_trace"),
        &[
            "run",
            "--scenario",
            "server",
            "--trace-format",
            "jsonl",
            "--trace",
            &path(&log),
        ],
    );
    // The summary line reports the run's query count: `... | N queries, ...`.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary = stdout.lines().next().expect("a summary line");
    let queries: u64 = summary
        .split(" queries,")
        .next()
        .and_then(|head| head.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no query count in {summary:?}"));

    run(
        env!("CARGO_BIN_EXE_analyze"),
        &[
            "--log",
            &path(&log),
            "--heatmap",
            &path(&rows),
            "--interval-ms",
            "100",
        ],
    );
    let text = std::fs::read_to_string(&rows).expect("heatmap rows");
    let _ = std::fs::remove_dir_all(&dir);

    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 1, "a ~1 s run spans several 100 ms windows");
    let stamps: Vec<u64> = lines.iter().map(|r| field(r, "t_ns")).collect();
    assert!(stamps.iter().all(|t| t % 100_000_000 == 0));
    assert!(stamps.windows(2).all(|w| w[0] < w[1]));
    let last = lines.last().expect("rows");
    assert_eq!(field(last, "issued"), queries);
    assert_eq!(field(last, "in_flight"), 0);
    let completed: u64 = lines.iter().map(|r| field(r, "count")).sum();
    assert_eq!(completed, queries);
}

#[test]
fn the_series_flags_are_gone_from_trace_run() {
    for flag in ["--timeseries", "--timeseries-format", "--interval-ms"] {
        let out = Command::new(env!("CARGO_BIN_EXE_trace"))
            .args(["run", flag, "x"])
            .output()
            .expect("spawn trace");
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("unknown flag `{flag}`")),
            "{stderr}"
        );
    }
}
