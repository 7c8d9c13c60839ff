//! Regenerates the paper's evaluation: Tables I–VII, Figures 1 and 5–8,
//! the quality windows, the compliance audits and the ablations, one row
//! of [`ARTIFACTS`] per committed `results/<name>.txt`.
//!
//! ```text
//! paper <name>…|all [--profile smoke|paper] [--check]
//! ```
//!
//! Without `--check` the artifacts are printed. With it each is compared
//! with `results/<name>.txt` (run from the repository root); a mismatch is
//! written to `target/paper/<name>.txt`, the `cp` that installs it is
//! printed, and the exit status is 1. The committed files are the paper
//! profile's, so `--check` refuses `--profile smoke`. The submission round
//! is generated at most once per process, when an artifact first asks.

use mlperf_audit::tests::{
    accuracy_verification, alternate_seed_test, caching_detection, custom_dataset_test,
    detail_log_compliance,
};
use mlperf_harness::{ablations, fig6, fig8, tables, Profile};
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::query::ResponsePayload;
use mlperf_loadgen::time::Nanos;
use mlperf_models::{QualityTarget, TaskId, Workload};
use mlperf_stats::rng::SeedTriple;
use mlperf_submission::report::{
    figure5_distribution, render_figure7, render_table_vi, render_table_vii,
};
use mlperf_submission::review::{review_round, ReviewStats};
use mlperf_submission::round::{generate_round, measure_task_qualities};
use mlperf_submission::types::Division;
use mlperf_submission::ResultRecord;
use mlperf_sut::cheats::{CachingSut, SeedSniffingSut, SloppyAccuracySut};
use mlperf_sut::device::{Architecture, DeviceSpec};
use mlperf_sut::engine::{BatchPolicy, DeviceSut};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: paper <name>...|all [--profile smoke|paper] [--check]";

/// Seed of the submission round.
const ROUND_SEED: u64 = 0x6d6c_7065_7266;

/// What the renderers share: the profile, and the reviewed round once
/// something has asked for it.
struct Ctx {
    profile: Profile,
    round: Option<(Vec<ResultRecord>, ReviewStats)>,
}

impl Ctx {
    /// The reviewed round's records and statistics.
    fn round(&mut self) -> (&[ResultRecord], ReviewStats) {
        let profile = self.profile;
        let (records, stats) = self.round.get_or_insert_with(|| {
            let mut round = generate_round(&profile.round_config(ROUND_SEED));
            let stats = review_round(&mut round);
            (round.records, stats)
        });
        (records, *stats)
    }
}

/// One artifact: its name under `results/`, and the bytes it holds.
type Artifact = (&'static str, fn(&mut Ctx) -> String);

const ARTIFACTS: &[Artifact] = &[
    ("table1", |_| titled("Table 1", &tables::render_table1())),
    ("table2", |_| titled("Table 2", &tables::render_table2())),
    ("table3", |_| titled("Table 3", &tables::render_table3())),
    ("table4", |_| titled("Table 4", &tables::render_table4())),
    ("table5", |_| titled("Table 5", &tables::render_table5())),
    ("table6", |ctx| {
        let (records, stats) = ctx.round();
        let body = format!("{}\nreview: {stats}", render_table_vi(records));
        titled("Table VI (closed division, released results)", &body)
    }),
    ("table7", |ctx| {
        let body = render_table_vii(ctx.round().0);
        titled("Table VII (framework versus hardware architecture)", &body)
    }),
    ("fig1", |_| titled("Figure 1", &tables::render_fig1())),
    ("fig5", fig5),
    ("fig6", |ctx| {
        let body = fig6::render(&fig6::compute(ctx.profile));
        titled("Figure 6 (server/offline throughput ratio)", &body)
    }),
    ("fig7", |ctx| {
        let body = render_figure7(ctx.round().0);
        titled("Figure 7 (closed-division results per architecture)", &body)
    }),
    ("fig8", |ctx| {
        let body = fig8::render(&fig8::compute(ctx.profile));
        titled(
            "Figure 8 (relative performance per model x scenario)",
            &body,
        )
    }),
    ("quality", quality),
    ("audits", audits),
    ("ablations", |ctx| {
        let body = ablations::render(&ablations::run_all(ctx.profile));
        titled("Ablations", &body)
    }),
];

/// A header line, then the body and a newline.
fn titled(title: &str, body: &str) -> String {
    format!("=== {title} ===\n{body}\n")
}

fn fig5(ctx: &mut Ctx) -> String {
    let mut out = String::from("=== Figure 5 (closed-division results per model) ===\n");
    for (task, count, share) in figure5_distribution(ctx.round().0) {
        let name = task.spec().model_name;
        out += &format!(
            "{name:<20} {count:>4} results {share:>6.1}%  {}\n",
            "#".repeat(count)
        );
    }
    out
}

/// FP32 and INT8 quality for every reference task on the proxy models,
/// against the Table I windows (Section III-B).
fn quality(ctx: &mut Ctx) -> String {
    let qualities = measure_task_qualities(0x7175_616c, ctx.profile.accuracy_samples());
    let mut out = format!(
        "=== Quality targets (Table I windows, measured on proxies) ===\n\
         {:<20} {:>10} {:>10} {:>10} {:>8} {:>8}\n",
        "MODEL", "FP32", "QUANT", "THRESHOLD", "WINDOW", "MET?"
    );
    for task in TaskId::ALL {
        let (fp32, int8) = qualities[&task];
        let target = QualityTarget::for_task_with_reference(task, fp32);
        out += &format!(
            "{:<20} {fp32:>10.4} {int8:>10.4} {:>10.4} {:>7.0}% {:>8}\n",
            task.spec().model_name,
            target.threshold(),
            task.spec().quality_window * 100.0,
            if target.is_met(int8) { "yes" } else { "NO" }
        );
    }
    out
}

fn audit_engine() -> DeviceSut {
    let cpu = DeviceSpec::new(
        "audit-dev",
        Architecture::Cpu,
        100.0,
        0.5,
        8,
        1,
        Nanos::from_micros(100),
    );
    let task = TaskId::ImageClassificationLight;
    DeviceSut::new(cpu, Workload::new(task), BatchPolicy::Immediate)
}

/// The compliance audits (Section V-B) against an honest engine and the
/// three cheating SUTs, then the round's review statistics (Section VII-E:
/// 166 of ~180 closed-division results released).
fn audits(ctx: &mut Ctx) -> String {
    let settings = &TestSettings::single_stream()
        .with_min_query_count(512)
        .with_min_duration(Nanos::from_millis(1));
    let classes = || audit_engine().with_payloads(Arc::new(|i| ResponsePayload::Class(i * 7 % 13)));
    let cacher = || CachingSut::new(audit_engine(), 10);
    let qsl = &mut MemoryQsl::new("audit-qsl", 256, 256);
    let honest = &mut classes();
    let sniffer = &mut SeedSniffingSut::new(
        audit_engine(),
        SeedTriple::OFFICIAL.qsl_seed,
        256,
        1_000_000,
    );
    let sloppy = &mut SloppyAccuracySut::new(classes(), 3);
    let sections = [
        (
            "honest SUT",
            vec![
                caching_detection(honest, 128, 256, 1.5),
                alternate_seed_test(settings, qsl, honest, 2, 1.3),
                accuracy_verification(settings, qsl, honest, 0.2),
                custom_dataset_test(honest, 128, 256, 1.5),
                detail_log_compliance(settings, qsl, honest),
            ],
        ),
        (
            "result-caching SUT",
            vec![
                caching_detection(&mut cacher(), 128, 256, 1.5),
                custom_dataset_test(&mut cacher(), 128, 256, 1.5),
            ],
        ),
        (
            "seed-sniffing SUT",
            vec![alternate_seed_test(settings, qsl, sniffer, 2, 1.3)],
        ),
        (
            "sloppy-accuracy SUT",
            vec![accuracy_verification(settings, qsl, sloppy, 0.2)],
        ),
    ];
    let mut out = String::from("=== Compliance audits ===\n");
    for (sut, reports) in sections {
        out += &format!("-- {sut} --\n");
        for report in reports {
            out += &format!("{}\n", report.expect("audit runs"));
        }
    }
    let (records, stats) = ctx.round();
    let closed: Vec<_> = records
        .iter()
        .filter(|r| r.division == Division::Closed)
        .collect();
    let released = closed.iter().filter(|r| r.is_released()).count();
    out + &format!(
        "\n=== Submission-round review (Section VII-E) ===\n{stats}\n\
         closed division: {} submitted, {released} released (paper: ~180 submitted, 166 released)\n",
        closed.len()
    )
}

/// What the command line asks for.
struct Cli {
    artifacts: Vec<&'static Artifact>,
    profile: Profile,
    check: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        artifacts: Vec::new(),
        profile: Profile::Paper,
        check: false,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => cli.check = true,
            "--profile" => {
                cli.profile = match args.next().map(String::as_str) {
                    Some("smoke") => Profile::Smoke,
                    Some("paper") => Profile::Paper,
                    other => return Err(format!("--profile takes smoke|paper, got {other:?}")),
                }
            }
            "all" => cli.artifacts.extend(ARTIFACTS),
            name => match ARTIFACTS.iter().find(|(n, _)| *n == name) {
                Some(artifact) => cli.artifacts.push(artifact),
                None => return Err(format!("unknown artifact {name:?}")),
            },
        }
    }
    if cli.artifacts.is_empty() {
        return Err("name an artifact, or all".into());
    }
    if cli.check && cli.profile == Profile::Smoke {
        return Err("--check compares with the paper profile's results/, not smoke".into());
    }
    Ok(cli)
}

/// Compares each rendering with its committed file; writes the ones that
/// differ under `target/paper/` and prints the `cp` that installs them.
fn check(ctx: &mut Ctx, artifacts: &[&Artifact]) -> ExitCode {
    let mut changed = Vec::new();
    for (name, render) in artifacts {
        let (fresh, pinned) = (render(ctx), format!("results/{name}.txt"));
        if std::fs::read_to_string(&pinned).is_ok_and(|committed| committed == fresh) {
            continue;
        }
        let out = format!("target/paper/{name}.txt");
        let written =
            std::fs::create_dir_all("target/paper").and_then(|()| std::fs::write(&out, fresh));
        if let Err(e) = written {
            eprintln!("paper: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("paper: {name} differs from {pinned}");
        changed.push(format!("cp {out} {pinned}"));
    }
    if changed.is_empty() {
        println!("paper: {} artifact(s) match results/", artifacts.len());
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "paper: after an intentional change, install them with:\n  {}",
        changed.join("\n  ")
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("paper: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx {
        profile: cli.profile,
        round: None,
    };
    if cli.check {
        return check(&mut ctx, &cli.artifacts);
    }
    for (_, render) in &cli.artifacts {
        print!("{}", render(&mut ctx));
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn every_committed_artifact_has_exactly_one_row() {
        let names: Vec<&str> = ARTIFACTS.iter().map(|(n, _)| *n).collect();
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate name in {names:?}");

        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let committed: BTreeSet<String> = std::fs::read_dir(results)
            .expect("results/ is readable")
            .map(|e| {
                e.expect("a results/ entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter_map(|f| f.strip_suffix(".txt").map(String::from))
            .filter(|n| n != "public_surface")
            .collect();
        let rows: BTreeSet<String> = unique.into_iter().map(String::from).collect();
        assert_eq!(rows, committed);
    }

    #[test]
    fn the_command_line_is_names_all_profile_and_check() {
        let cli = parse(&args("table4 fig1")).expect("two names");
        let names: Vec<&str> = cli.artifacts.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            (names, cli.profile, cli.check),
            (vec!["table4", "fig1"], Profile::Paper, false)
        );
        let cli = parse(&args("all --check")).expect("all");
        assert_eq!((cli.artifacts.len(), cli.check), (ARTIFACTS.len(), true));
        assert_eq!(
            parse(&args("all --profile smoke")).expect("smoke").profile,
            Profile::Smoke
        );
    }

    #[test]
    fn usage_errors_are_errors_not_panics() {
        for line in [
            "",
            "table8",
            "all --profile",
            "all --profile bogus",
            "all --check --profile smoke",
        ] {
            assert!(parse(&args(line)).is_err(), "{line:?} parsed");
        }
    }
}
