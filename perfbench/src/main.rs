//! `perf`: the repo benchmark.
//!
//! ```text
//! perf --workload <name|all> --seed <u64> [--seconds <n>] [--trace [0|1]]
//!      [--quick] [--aa]
//! ```
//!
//! One workload per process. The last line of standard output is one JSON
//! object — `correct`, `attempted`, `failed`, `metrics` — holding the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. `all` and
//! `--aa` run one child process per workload and read that line back.
//! A workload measures in a child too, started the way its numbers are
//! steadiest (see [`rerun_quietly`]). PERF.md has the tables and how to
//! read them.

mod catalog;
mod decor;
mod harness;
mod procfs;
mod span;
mod summary;
mod workloads;

use catalog::{END_TO_END, ONE_CPU, PER_LAYER, WORKLOADS};
use harness::{measure, Measured, Scale};
use mlperf_trace::JsonValue;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;
use workloads::{
    fleet_open::FleetOpen, sim_journaled::SimJournaled, sim_plain::SimPlain, sim_traced::SimTraced,
    wire_closed::WireClosed, wire_codec::WireCodec,
};

const USAGE: &str = "usage: perf --workload <name|all> --seed <u64> [--seconds <n>] \
[--trace [0|1]] [--quick] [--aa]\nworkloads: sim_plain sim_journaled sim_traced wire_codec \
wire_closed fleet_open";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        aa: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        args.trace = true;
                        continue;
                    }
                };
                it.next();
            }
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

fn measure_named(
    name: &str,
    seed: u64,
    scale: Scale,
    budget: Duration,
    traced: bool,
    scratch: &Path,
) -> Measured {
    match name {
        "sim_plain" => measure::<SimPlain>(seed, scale, budget, traced, scratch),
        "sim_journaled" => measure::<SimJournaled>(seed, scale, budget, traced, scratch),
        "sim_traced" => measure::<SimTraced>(seed, scale, budget, traced, scratch),
        "wire_codec" => measure::<WireCodec>(seed, scale, budget, traced, scratch),
        "wire_closed" => measure::<WireClosed>(seed, scale, budget, traced, scratch),
        "fleet_open" => measure::<FleetOpen>(seed, scale, budget, traced, scratch),
        other => unreachable!("{other} passed parse_args"),
    }
}

/// Where the benchmark may write: `perf/` beside the build's own output
/// (`$CARGO_TARGET_DIR/perf`, or `perfbench/target/perf`), which every
/// checkout ignores.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the executable has no target directory above it")?;
    let dir = target.join("perf");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Runs one workload in this process and prints its report.
fn run_one(args: &Args) -> Result<bool, String> {
    let scratch = scratch_dir()?;
    let scale = if args.quick {
        Scale::Quick
    } else {
        Scale::Full
    };
    let budget = Duration::from_secs_f64(if args.quick { 0.0 } else { args.seconds });
    let chosen = measure_named(
        &args.workload,
        args.seed,
        scale,
        budget,
        args.trace,
        &scratch,
    );
    let mut failures = chosen.failures.clone();
    let peak_rss_mb = procfs::peak_rss_mb();

    println!(
        "perf: workload {}  seed {}  seconds {}  trace {}  scale {}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.quick { "quick" } else { "full" },
        if args.quick {
            "  (NOT FOR COMPARISON: a tenth of the work, two repeats)"
        } else {
            ""
        }
    );
    let end_to_end = [
        chosen.setup_s,
        chosen.headline_ns,
        peak_rss_mb.unwrap_or(0.0),
    ];
    println!("end to end ({} untraced repeats)", chosen.repeats);
    for (metric, value) in END_TO_END.iter().zip(end_to_end) {
        println!("  {:<44} {value:>16.4} {}", metric.name, metric.unit);
        if !(value.is_finite() && value > 0.0) {
            failures.push(format!("{} was not measured", metric.name));
        }
    }

    // Per layer: the chosen workload at full size; in a traced run every
    // other workload fills its own layers in at a tenth.
    let mut layers: BTreeMap<&str, (&str, f64, &str)> = chosen
        .layers
        .iter()
        .map(|(name, (unit, value))| (*name, (*unit, *value, "")))
        .collect();
    if args.trace {
        for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
            let filled = measure_named(
                other,
                args.seed,
                Scale::Quick,
                Duration::ZERO,
                true,
                &scratch,
            );
            failures.extend(filled.failures);
            for (name, (unit, value)) in filled.layers {
                layers
                    .entry(name)
                    .or_insert((unit, value, "  (quick fill-in)"));
            }
        }
        let path = scratch.join(format!("trace_{}.json", args.workload));
        std::fs::File::create(&path)
            .and_then(|f| span::write_json(std::io::BufWriter::new(f), &chosen.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "spans: {} written to {}",
            chosen.spans.len(),
            path.display()
        );
        for name in PER_LAYER.iter().filter(|n| !layers.contains_key(*n)) {
            failures.push(format!("per-layer metric {name} was not measured"));
        }
        for name in layers.keys().filter(|n| !PER_LAYER.contains(n)) {
            failures.push(format!("per-layer metric {name} is not in the catalogue"));
        }
    }
    println!("per layer");
    for (name, (unit, value, note)) in &layers {
        println!("  {name:<44} {value:>16.4} {unit}{note}");
    }

    println!("ops_attempted {}", chosen.attempted);
    println!("ops_failed {}", chosen.failed);
    println!("result_hash {:016x}", chosen.hash);
    for failure in &failures {
        println!("CHECK FAILED: {failure}");
    }
    let correct = failures.is_empty();
    println!("checks: {}", if correct { "PASS" } else { "FAIL" });

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .filter_map(|name| {
                layers
                    .get(name)
                    .map(|(unit, value, _)| (*name, *unit, *value))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end)
            .map(|(m, value)| (m.name, m.unit, value))
            .collect()
    };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        chosen.attempted.max(1),
        chosen.failed,
        json_metrics(&metrics)
    );
    Ok(correct)
}

/// Runs `workload` in a child process with this run's other arguments,
/// echoes its report, and returns the metrics of its last line.
fn run_child(args: &Args, workload: &str) -> Result<(bool, BTreeMap<String, f64>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let last = text.lines().last().unwrap_or("");
    let doc = JsonValue::parse(last).map_err(|e| format!("{workload}: no result line: {e}"))?;
    let read = || -> Result<_, mlperf_trace::JsonError> {
        let mut metrics = BTreeMap::new();
        if let JsonValue::Object(fields) = doc.field("metrics")? {
            for (name, metric) in fields {
                metrics.insert(name.clone(), metric.field("value")?.as_f64()?);
            }
        }
        Ok((doc.field("correct")?.as_bool()?, metrics))
    };
    let (correct, metrics) = read().map_err(|e| format!("{workload}: result line: {e}"))?;
    Ok((correct && out.status.success(), metrics))
}

/// `all` and `--aa`: one child per workload; with `--aa` every workload
/// runs twice, in alternation, and the two sets are compared against the
/// end-to-end bounds.
fn run_many(args: &Args) -> Result<bool, String> {
    let chosen: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let rounds = if args.aa { 2 } else { 1 };
    let mut ok = true;
    let mut sets: Vec<Vec<BTreeMap<String, f64>>> = Vec::new();
    for _ in 0..rounds {
        let mut set = Vec::new();
        for workload in &chosen {
            let (correct, metrics) = run_child(args, workload)?;
            ok &= correct;
            set.push(metrics);
            println!();
        }
        sets.push(set);
    }
    if args.aa && !args.trace {
        println!("A/A: same code, same seed, two sets of runs in alternation");
        println!(
            "  {:<14} {:<24} {:>14} {:>14} {:>8} {:>7}",
            "workload", "metric", "first", "second", "gap", "bound"
        );
        for (i, workload) in chosen.iter().enumerate() {
            for metric in &END_TO_END {
                let (a, b) = (sets[0][i].get(metric.name), sets[1][i].get(metric.name));
                let (Some(a), Some(b)) = (a, b) else {
                    return Err(format!("{workload}: {} missing from a run", metric.name));
                };
                // Lower is better: the second set is worse by this share.
                let gap = b / a - 1.0;
                let pass = gap.abs() <= metric.bound;
                ok &= pass;
                println!(
                    "  {workload:<14} {:<24} {a:>14.4} {b:>14.4} {:>+7.1}% {:>6.0}% {}",
                    metric.name,
                    gap * 100.0,
                    metric.bound * 100.0,
                    if pass { "PASS" } else { "FAIL" }
                );
            }
        }
    }
    println!("all checks: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

/// Set in the child that measures, so that it does not start another.
const QUIET: &str = "PERF_QUIET";

/// Runs this command again in a child that the machine disturbs less, and
/// returns the child's exit code; `None` if no child could be started.
///
/// - One malloc arena. glibc hands each new thread an arena of its own,
///   up to eight per CPU, and which sessions' threads land in a fresh one
///   is a matter of timing: the same `wire_closed` run peaked anywhere
///   from 11 to 16 MB, and always at 8.9 MB with one arena. The
///   single-threaded workloads only ever use one.
/// - One CPU for the wall-clock workloads, by way of `taskset` (`std` has
///   no affinity call and the benchmark no `unsafe`). A wire query is a
///   chain of thread wake-ups. Across the vCPUs of a shared host each is
///   an inter-processor interrupt whose cost is the host's business: the
///   same closed loop read 20 µs a query on one box and anything from 20
///   to 100 µs on another. On one CPU every wake-up is local, and the
///   latency is the software path alone. Without `taskset` the child runs
///   on every CPU, and says so.
fn rerun_quietly(workload: &str) -> Option<ExitCode> {
    let exe = std::env::current_exe().ok()?;
    let run = |cpu: Option<u32>| {
        let mut cmd = match cpu {
            Some(cpu) => {
                let mut taskset = Command::new("taskset");
                taskset.args(["-c", &cpu.to_string()]).arg(&exe);
                taskset
            }
            None => Command::new(&exe),
        };
        cmd.args(std::env::args_os().skip(1))
            .env("MALLOC_ARENA_MAX", "1")
            .env(QUIET, "1")
            .status()
    };
    let cpu = ONE_CPU
        .contains(&workload)
        .then(procfs::last_allowed_cpu)
        .flatten();
    let status = match run(cpu) {
        Err(e) if cpu.is_some() => {
            eprintln!("perf: taskset: {e}; measuring on every CPU");
            run(None)
        }
        other => other,
    };
    let code = status.ok()?.code();
    Some(code.map_or(ExitCode::FAILURE, |code| ExitCode::from(code as u8)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let many = args.aa || args.workload == "all";
    if !many && std::env::var_os(QUIET).is_none() {
        if let Some(code) = rerun_quietly(&args.workload) {
            return code;
        }
    }
    let outcome = if many {
        run_many(&args)
    } else {
        run_one(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}
