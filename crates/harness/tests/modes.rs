//! The binaries' modes that no `ci.sh` stage runs, end to end.
//!
//! Each test is a pipeline: a table of rows run in order in a fresh
//! temporary directory, which is every row's working directory, so nothing
//! is written under the checkout. A row names a binary, its arguments and
//! what it must do: exit with a status and print one stable fact (on
//! stdout or stderr), or keep serving and print a status line whose next
//! word later rows read as `{addr}`. Every process a pipeline leaves
//! serving is killed and reaped when it ends, a failed assertion included.
//! No row asserts a wall-clock verdict or a latency. A `--bless` row
//! rewrites its artifacts in the temporary directory, and the pipeline
//! compares them with the committed ones.

use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::sut::FixedLatencySut;
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::Run;
use mlperf_trace::ToJson;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// What a row's process must do.
enum Want {
    /// Exit with this success, printing this.
    Exit(bool, &'static str),
    /// Keep running, its first stdout line starting with this.
    Serve(&'static str),
}

/// `(binary, arguments, what it must do)`.
type Row = (&'static str, &'static [&'static str], Want);

fn exe(binary: &str) -> &'static str {
    match binary {
        "analyze" => env!("CARGO_BIN_EXE_analyze"),
        "chaos" => env!("CARGO_BIN_EXE_chaos"),
        "netbench" => env!("CARGO_BIN_EXE_netbench"),
        "paper" => env!("CARGO_BIN_EXE_paper"),
        "replay" => env!("CARGO_BIN_EXE_replay"),
        "trace" => env!("CARGO_BIN_EXE_trace"),
        other => panic!("no binary `{other}`"),
    }
}

/// A pipeline's temporary directory and the processes it left serving;
/// dropping it kills and reaps them, then removes the directory.
struct Scratch {
    dir: PathBuf,
    serving: Vec<Child>,
}

impl Drop for Scratch {
    fn drop(&mut self) {
        for child in &mut self.serving {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Scratch {
    /// An empty directory holding a copy of each committed `fixtures` file
    /// at the same relative path.
    fn new(name: &str, fixtures: &[&str]) -> Scratch {
        let dir = std::env::temp_dir().join(format!("modes-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for fixture in fixtures {
            let to = dir.join(fixture);
            std::fs::create_dir_all(to.parent().expect("a fixture has a directory"))
                .expect("scratch directory");
            std::fs::copy(checkout().join(fixture), &to).expect("copy a fixture");
        }
        std::fs::create_dir_all(&dir).expect("scratch directory");
        Scratch {
            dir,
            serving: Vec::new(),
        }
    }

    /// Runs `rows` in order, asserting each one's status and fact.
    fn run(&mut self, rows: &[Row]) {
        let mut addr = String::new();
        for (binary, args, want) in rows {
            let args: Vec<String> = args.iter().map(|a| a.replace("{addr}", &addr)).collect();
            let line = format!("{binary} {}", args.join(" "));
            let mut command = Command::new(exe(binary));
            command.args(&args).current_dir(&self.dir);
            match want {
                Want::Exit(success, fact) => {
                    let out = command.output().unwrap_or_else(|e| panic!("{line}: {e}"));
                    let text = format!(
                        "{}{}",
                        String::from_utf8_lossy(&out.stdout),
                        String::from_utf8_lossy(&out.stderr)
                    );
                    assert_eq!(out.status.success(), *success, "{line}:\n{text}");
                    assert!(text.contains(fact), "{line} printed no `{fact}`:\n{text}");
                }
                Want::Serve(prefix) => {
                    let mut child = command
                        .stdin(Stdio::piped())
                        .stdout(Stdio::piped())
                        .spawn()
                        .unwrap_or_else(|e| panic!("{line}: {e}"));
                    let stdout = child.stdout.take().expect("piped stdout");
                    self.serving.push(child);
                    let mut status = String::new();
                    BufReader::new(stdout)
                        .read_line(&mut status)
                        .unwrap_or_else(|e| panic!("{line}: {e}"));
                    let rest = status.strip_prefix(prefix);
                    let rest = rest.unwrap_or_else(|| panic!("{line} printed {status:?}"));
                    addr = rest.split_whitespace().next().unwrap_or("").to_string();
                }
            }
        }
    }

    /// Asserts that each file the rows blessed equals the committed one.
    fn assert_blessed(&self, files: &[&str]) {
        for file in files {
            let blessed = std::fs::read(self.dir.join(file)).expect("a blessed file");
            let committed = std::fs::read(checkout().join(file)).expect("a committed file");
            assert!(blessed == committed, "blessing changed {file}");
        }
    }
}

fn checkout() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn trace_runs_metrics_a_profile_and_a_halted_journal_to_completion() {
    Scratch::new("trace", &[]).run(&[
        (
            "trace",
            &[
                "run",
                "--scenario",
                "server",
                "--queries",
                "256",
                "--metrics",
                "metrics.json",
            ],
            Want::Exit(true, "trace-demo-gpu | trace-demo-qsl | server | "),
        ),
        (
            "analyze",
            &["--compare", "metrics.json", "metrics.json"],
            Want::Exit(true, "compare: metrics.json vs metrics.json"),
        ),
        (
            "trace",
            &["run", "--scenario", "offline", "--profile"],
            Want::Exit(true, "span profile"),
        ),
        (
            "trace",
            &["run", "--collapsed", "stacks.txt"],
            Want::Exit(true, "collapsed stacks to stacks.txt"),
        ),
        (
            "trace",
            &[
                "run",
                "--journal",
                "run.mlpj",
                "--checkpoint-every",
                "64",
                "--halt-after",
                "2",
            ],
            Want::Exit(true, "halted after checkpoint 2"),
        ),
        (
            "trace",
            &["run", "--resume-from", "run.mlpj"],
            Want::Exit(true, "resumed: "),
        ),
    ]);
}

/// A trace run's detail log recorded, reduced and replayed three ways,
/// then the roundtrip audit blessed under its default seed. The recorded
/// trace carries `record`'s default latency bound, which no run can
/// exceed, so the wall-clock replays' exit status reads no latency.
#[test]
fn replay_records_reduces_and_runs_a_trace_and_blesses_its_fixture() {
    let mut scratch = Scratch::new("replay", &[]);
    scratch.run(&[
        (
            "trace",
            &["run", "--trace-format", "jsonl", "--trace", "run.jsonl"],
            Want::Exit(true, "to run.jsonl (jsonl)"),
        ),
        (
            "replay",
            &[
                "record",
                "--detail",
                "run.jsonl",
                "--population",
                "1024",
                "--qsl-seed",
                "5",
                "--source",
                "trace-run",
                "--out",
                "run.mlpr",
            ],
            Want::Exit(true, "recorded run.mlpr: 1024 queries"),
        ),
        (
            "replay",
            &[
                "reduce",
                "--in",
                "run.mlpr",
                "--target",
                "100",
                "--seed",
                "3",
                "--scale",
                "2",
                "--out",
                "small.mlpr",
            ],
            Want::Exit(true, "-> small.mlpr (100 queries)"),
        ),
        (
            "replay",
            &[
                "run",
                "--in",
                "small.mlpr",
                "--seed",
                "7",
                "--detail",
                "replayed.jsonl",
            ],
            Want::Exit(true, "wrote replay detail log to replayed.jsonl"),
        ),
        (
            "replay",
            &["run", "--in", "small.mlpr", "--wire"],
            Want::Exit(true, "replaying small.mlpr: 100 queries"),
        ),
        (
            "replay",
            &["run", "--in", "small.mlpr", "--shards", "2"],
            Want::Exit(true, "replaying small.mlpr: 100 queries"),
        ),
        (
            "analyze",
            &[
                "--compare",
                "run.jsonl",
                "replayed.jsonl",
                "--tolerance",
                "1e9",
            ],
            Want::Exit(true, "compare: run.jsonl vs replayed.jsonl"),
        ),
        (
            "replay",
            &["roundtrip", "--bless", "--seed", "48764"],
            Want::Exit(
                true,
                "des leg: blessed results/fixtures/replay_reduced.mlpr",
            ),
        ),
    ]);
    scratch.assert_blessed(&["results/fixtures/replay_reduced.mlpr"]);
}

/// A daemon served by one `netbench` process and driven by another, its
/// artifacts then read by `analyze`, with a saved outcome mixed in.
#[test]
fn netbench_serves_and_connects_and_analyze_reads_what_it_wrote() {
    let mut scratch = Scratch::new("netbench", &[]);
    write_invalid_outcome(&scratch.dir.join("outcome.json"));
    scratch.run(&[
        (
            "netbench",
            &["--serve", "127.0.0.1:0"],
            Want::Serve("serving netbench-dev on "),
        ),
        (
            "netbench",
            &[
                "--connect",
                "{addr}",
                "--seed",
                "7",
                "--out",
                "logical.json",
                "--metrics",
                "metrics.json",
                "--detail",
                "merged.jsonl",
                "--chrome",
                "merged.json",
                "--flight-dir",
                ".",
                "--watch",
            ],
            Want::Exit(true, "wrote chrome trace to merged.json"),
        ),
        (
            "analyze",
            &["--compare", "metrics.json", "metrics.json"],
            Want::Exit(true, "compare: metrics.json vs metrics.json"),
        ),
        (
            "analyze",
            &[
                "--log",
                "merged.jsonl",
                "--outcome",
                "outcome.json",
                "--report",
                "report.md",
                "--json",
                "analysis.json",
            ],
            Want::Exit(true, "wrote analysis.json"),
        ),
    ]);
    let report = std::fs::read_to_string(scratch.dir.join("report.md")).expect("the report");
    assert!(
        report.contains("latency_bound"),
        "the saved outcome's violation is not in the report:\n{report}"
    );
}

/// What no binary writes: a saved `TestResult`, here of a server run whose
/// every query outlives its bound.
fn write_invalid_outcome(path: &Path) {
    let settings = TestSettings::server(100.0, Nanos::from_millis(10))
        .with_min_query_count(64)
        .with_min_duration(Nanos::from_millis(1));
    let mut qsl = MemoryQsl::new("modes-qsl", 64, 64);
    let mut sut = FixedLatencySut::new("modes-dev", Nanos::from_millis(20));
    let outcome = Run::simulated(&settings)
        .run(&mut qsl, &mut sut)
        .expect("a simulated run");
    assert!(!outcome.result.is_valid());
    std::fs::write(path, outcome.result.to_json_value().to_pretty()).expect("write the outcome");
}

#[test]
fn analyze_blesses_the_committed_artifacts_unchanged() {
    let mut scratch = Scratch::new(
        "analyze",
        &[
            "results/fixtures/netbench_merged.jsonl",
            "results/fixtures/chaos_flight.jsonl",
        ],
    );
    scratch.run(&[(
        "analyze",
        &["--check", "--bless"],
        Want::Exit(true, "analyze: blessed results/analysis.json"),
    )]);
    scratch.assert_blessed(&["results/analysis.md", "results/analysis.json"]);
}

/// The crash quadrant's two children, as `chaos --crash` spawns them, and
/// the local quadrant under another seed.
#[test]
fn chaos_halts_a_crash_client_and_runs_the_matrix_under_a_seed() {
    Scratch::new("chaos", &[]).run(&[
        ("chaos", &["__crash-daemon", "daemon"], Want::Serve("ADDR ")),
        (
            "chaos",
            &["__crash-client", "{addr}", "run.mlpj", "0", "7"],
            Want::Serve("HALTED "),
        ),
        (
            "chaos",
            &["--seed", "7", "--flight-dir", "."],
            Want::Exit(true, "(seed 7)"),
        ),
    ]);
}

#[test]
fn paper_renders_an_artifact_under_the_smoke_profile() {
    Scratch::new("paper", &[]).run(&[(
        "paper",
        &["quality", "--profile", "smoke"],
        Want::Exit(true, "=== Quality targets"),
    )]);
}
