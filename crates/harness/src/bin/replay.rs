//! Record–reduce–replay harness: turn a detail log into a standalone
//! benchmark, shrink it, and re-run it against any SUT.
//!
//! ```text
//! replay record    --detail <jsonl> --population <n> [--qsl-seed <n>]
//!                  [--source <label>] --out <mlpr>
//! replay reduce    --in <mlpr> --target <n> [--seed <n>] [--scale <f>] --out <mlpr>
//! replay run       --in <mlpr> [--wire | --shards <n>] [--seed <n>] [--detail <jsonl>]
//! replay roundtrip [--check] [--bless] [--seed <n>]
//! ```
//!
//! `record` extracts a [`RecordedTrace`] (`MLPR` file) from any detail
//! log — local, merged, sharded, or a flight dump. `reduce` compresses
//! it to a target length, refusing (with the violated bounds) any
//! reduction whose fingerprint strays. `run` re-issues the recorded
//! schedule: through the discrete-event loop against the built-in
//! benchmark device by default, over a loopback wire daemon with
//! `--wire`, or through a sharded fleet router with `--shards N`.
//!
//! `roundtrip` is the audit CI runs: three legs proving the pipeline
//! end to end.
//!
//! 1. **Deterministic leg** — a simulated server run is recorded,
//!    reduced 20x, and replayed through the DES. Asserts: identical
//!    verdicts, fingerprint within the default bound, recording and
//!    reduction both byte-reproducible, and the reduced trace
//!    byte-identical to the committed fixture
//!    (`results/fixtures/replay_reduced.mlpr`; `--bless` regenerates it).
//! 2. **Wire leg** — a realtime run against a loopback daemon is
//!    recorded and reduced 10x, then replayed over a fresh connection.
//!    Asserts: identical verdicts and a fingerprint within bound.
//! 3. **Fleet leg** — the same reduced trace drives a 3-shard
//!    `ShardedSut` fleet to a VALID run.

use mlperf_harness::rig::{device_per_sample, Rig, DEVICE_PER_SAMPLE};
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::des::RunOutcome;
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::sut::FixedLatencySut;
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::{ReplaySchedule, Run};
use mlperf_replay::{
    fingerprint_of_records, record_trace, reduce_trace, EquivalenceBound, FingerprintDistance,
    RecordOptions, RecordedTrace, ReduceOptions, TraceFingerprint,
};
use mlperf_stats::rng::SeedTriple;
use mlperf_sut::BalancePolicy;
use mlperf_trace::{read_detail_log, render_detail_log, RingBufferSink, TraceRecord};
use mlperf_wire::{RemoteSutConfig, ServeConfig};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: replay <record|reduce|run|roundtrip> [opts]
  record    --detail <jsonl> --population <n> [--qsl-seed <n>] [--source <label>] --out <mlpr>
  reduce    --in <mlpr> --target <n> [--seed <n>] [--scale <f>] --out <mlpr>
  run       --in <mlpr> [--wire | --shards <n>] [--seed <n>] [--detail <jsonl>]
  roundtrip [--check] [--bless] [--seed <n>]";

/// QSL population for the audit runs.
const POPULATION: usize = 64;

/// The committed reduced-trace fixture the round-trip audit re-derives.
const FIXTURE: &str = "results/fixtures/replay_reduced.mlpr";

/// Wire legs compare latencies across two live wall-clock runs, where a
/// transient load spike legitimately shifts the whole distribution (both
/// projections at once), so the default is 3x the reduction bound. The
/// replayed *arrival* process is deterministic and its axes sit at ~0
/// regardless of the scale, so the audit still catches a broken
/// scheduler.
fn wire_bound() -> EquivalenceBound {
    EquivalenceBound::default().scaled(3.0)
}

fn verdict(out: &RunOutcome) -> String {
    if out.result.is_valid() {
        "VALID".into()
    } else {
        let issues: Vec<String> = out.result.validity.iter().map(|i| i.to_string()).collect();
        format!("INVALID ({})", issues.join("; "))
    }
}

fn print_distance(label: &str, d: &FingerprintDistance) {
    println!("{label}:");
    for (metric, value) in d.rows() {
        println!("  {metric:<18} {value:.4}");
    }
}

/// Prints the two latency quantile grids side by side (µs), so a
/// latency-axis violation is diagnosable from the run output.
fn print_latency_grids(a: &TraceFingerprint, b: &TraceFingerprint) {
    let row = |q: &[u64]| -> String {
        q.iter()
            .map(|&v| format!("{:>9.1}", v as f64 / 1_000.0))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let grid: String = mlperf_stats::QUANTILE_GRID
        .iter()
        .map(|p| format!("{:>9}", format!("p{p}")))
        .collect::<Vec<_>>()
        .join(" ");
    println!("  latency us        {grid}");
    println!("  recorded          {}", row(&a.latency_q));
    println!("  replayed          {}", row(&b.latency_q));
}

fn load_trace(path: &str) -> Result<RecordedTrace, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    RecordedTrace::decode(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn store_trace(path: &str, trace: &RecordedTrace) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, trace.encode()).map_err(|e| format!("cannot write {path}: {e}"))
}

fn describe(trace: &RecordedTrace) -> String {
    format!(
        "{} queries, scenario {}, {:.1} qps over {:.3} s, population {}{}",
        trace.queries.len(),
        trace.scenario,
        trace.server_target_qps,
        trace.duration().as_secs_f64(),
        trace.population,
        if trace.synthetic_indices {
            ", synthetic indices"
        } else {
            ""
        },
    )
}

// ---------------------------------------------------------------------------
// record / reduce / run subcommands
// ---------------------------------------------------------------------------

fn cmd_record(args: &[String]) -> Result<(), String> {
    let mut detail = None;
    let mut population = None;
    let mut qsl_seed = None;
    let mut source = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--detail" => detail = Some(value("--detail")?),
            "--population" => {
                population = Some(parse_u64(&value("--population")?, "--population")?)
            }
            "--qsl-seed" => qsl_seed = Some(parse_u64(&value("--qsl-seed")?, "--qsl-seed")?),
            "--source" => source = Some(value("--source")?),
            "--out" => out = Some(value("--out")?),
            other => return Err(format!("record: unknown flag `{other}`\n{USAGE}")),
        }
    }
    let detail = detail.ok_or(format!("record needs --detail\n{USAGE}"))?;
    let population = population.ok_or(format!("record needs --population\n{USAGE}"))?;
    let out = out.ok_or(format!("record needs --out\n{USAGE}"))?;

    let log = read_detail_log(&detail).map_err(|e| e.to_string())?;
    for issue in &log.issues {
        eprintln!("record: note: {issue}");
    }
    let mut opts = RecordOptions::for_population(population)
        .with_source(source.unwrap_or_else(|| detail.clone()));
    if let Some(seed) = qsl_seed {
        opts = opts.with_qsl_seed(seed);
    }
    let trace = record_trace(&log.records, &opts).map_err(|e| e.to_string())?;
    store_trace(&out, &trace)?;
    println!("recorded {out}: {}", describe(&trace));
    Ok(())
}

fn cmd_reduce(args: &[String]) -> Result<(), String> {
    let mut input = None;
    let mut target = None;
    let mut seed = None;
    let mut scale = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--in" => input = Some(value("--in")?),
            "--target" => target = Some(parse_u64(&value("--target")?, "--target")? as usize),
            "--seed" => seed = Some(parse_u64(&value("--seed")?, "--seed")?),
            "--scale" => {
                let v = value("--scale")?;
                scale = Some(
                    v.parse::<f64>()
                        .map_err(|_| format!("--scale needs a number, got `{v}`\n{USAGE}"))?,
                );
            }
            "--out" => out = Some(value("--out")?),
            other => return Err(format!("reduce: unknown flag `{other}`\n{USAGE}")),
        }
    }
    let input = input.ok_or(format!("reduce needs --in\n{USAGE}"))?;
    let target = target.ok_or(format!("reduce needs --target\n{USAGE}"))?;
    let out = out.ok_or(format!("reduce needs --out\n{USAGE}"))?;

    let trace = load_trace(&input)?;
    let mut opts = ReduceOptions::new(target);
    if let Some(seed) = seed {
        opts = opts.with_seed(seed);
    }
    if let Some(scale) = scale {
        opts = opts.with_bound(EquivalenceBound::default().scaled(scale));
    }
    let reduced = reduce_trace(&trace, &opts).map_err(|e| e.to_string())?;
    let d = trace.fingerprint().distance(&reduced.fingerprint());
    store_trace(&out, &reduced)?;
    println!(
        "reduced {input} ({} queries) -> {out} ({} queries)",
        trace.queries.len(),
        reduced.queries.len()
    );
    print_distance("fingerprint distance (original vs reduced)", &d);
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let mut input = None;
    // How many loopback daemons to replay over: none (the discrete-event
    // loop), one (`--wire`), or a fleet (`--shards N`).
    let mut daemons = None;
    let mut seed = 0xBE7Cu64;
    let mut detail_out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--in" => input = Some(value("--in")?),
            "--wire" => daemons = Some(1),
            "--shards" => {
                let shards = parse_u64(&value("--shards")?, "--shards")? as usize;
                if shards < 2 {
                    return Err("--shards needs at least 2 endpoints".into());
                }
                daemons = Some(shards);
            }
            "--seed" => seed = parse_u64(&value("--seed")?, "--seed")?,
            "--detail" => detail_out = Some(value("--detail")?),
            other => return Err(format!("run: unknown flag `{other}`\n{USAGE}")),
        }
    }
    let input = input.ok_or(format!("run needs --in\n{USAGE}"))?;
    let trace = load_trace(&input)?;
    println!("replaying {input}: {}", describe(&trace));

    let (out, records) = match daemons {
        None => replay_sim(&trace, seed)?,
        Some(daemons) => replay_over(&spawn_rig(daemons)?, &trace, seed)?,
    };

    println!(
        "replay {} ({} queries, {} samples)",
        verdict(&out),
        out.result.query_count,
        out.result.sample_count
    );
    if let Some(replayed) = fingerprint_of_records(&records) {
        print_distance(
            "fingerprint distance (recorded vs replayed)",
            &trace.fingerprint().distance(&replayed),
        );
    }
    if let Some(path) = detail_out {
        std::fs::write(&path, render_detail_log(&records))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote replay detail log to {path}");
    }
    if out.result.is_valid() {
        Ok(())
    } else {
        Err("replayed run is INVALID".into())
    }
}

// ---------------------------------------------------------------------------
// Replay executors
// ---------------------------------------------------------------------------

/// Replays through the discrete-event loop against the benchmark device.
fn replay_sim(trace: &RecordedTrace, seed: u64) -> Result<(RunOutcome, Vec<TraceRecord>), String> {
    let settings = trace
        .replay_settings()
        .with_seeds(SeedTriple::from_master(seed));
    let mut qsl = MemoryQsl::new(
        "replay-qsl",
        trace.population as usize,
        trace.population as usize,
    );
    let mut sut = FixedLatencySut::new("replay-dev", DEVICE_PER_SAMPLE);
    let sink = RingBufferSink::unbounded();
    let out = Run::simulated(&settings)
        .sink(&sink)
        .replay(&trace.replay_schedule())
        .run(&mut qsl, &mut sut)
        .map_err(|e| format!("simulated replay failed: {e}"))?;
    Ok((out, sink.snapshot()))
}

/// The loopback rig replays run over: the built-in benchmark device (the
/// one netbench exports), or a heterogeneous fleet of them.
fn spawn_rig(daemons: usize) -> Result<Rig, String> {
    Rig::spawn("replay-dev", &device_per_sample(daemons), |_| {
        ServeConfig::default()
    })
}

/// Runs `settings` over fresh connections to `rig` — from `schedule` if
/// given one, by the scenario's own arrival rule otherwise — and returns
/// the outcome with the merged detail log.
fn run_over(
    rig: &Rig,
    settings: &TestSettings,
    population: usize,
    schedule: Option<&ReplaySchedule>,
) -> Result<(RunOutcome, Vec<TraceRecord>), String> {
    let mut qsl = MemoryQsl::new("replay-qsl", population, population);
    let sink = Arc::new(RingBufferSink::unbounded());
    let wired = rig.connect(
        settings,
        population as u64,
        |_| RemoteSutConfig::default(),
        BalancePolicy::WeightedThroughput,
        Some(sink.clone()),
        None,
    )?;
    let run = wired.run(settings);
    let sut = Arc::clone(&wired.sut);
    let out = match schedule {
        Some(schedule) => run.replay(schedule).run(&mut qsl, sut),
        None => run.run(&mut qsl, sut),
    }
    .map_err(|e| format!("run failed: {e}"))?;
    wired.drain();
    Ok((out, sink.snapshot()))
}

/// Replays `trace` over `rig`: a lone daemon directly, a fleet through its
/// weighted router.
fn replay_over(
    rig: &Rig,
    trace: &RecordedTrace,
    seed: u64,
) -> Result<(RunOutcome, Vec<TraceRecord>), String> {
    let settings = trace
        .replay_settings()
        .with_seeds(SeedTriple::from_master(seed));
    let schedule = trace.replay_schedule();
    run_over(rig, &settings, trace.population as usize, Some(&schedule))
}

// ---------------------------------------------------------------------------
// roundtrip: the three-leg audit
// ---------------------------------------------------------------------------

/// Compares a reduced trace against the detail log of its replay; returns
/// failure strings under the given bound.
fn audit_replay(
    leg: &str,
    reduced: &RecordedTrace,
    original_out: &RunOutcome,
    replay_out: &RunOutcome,
    replay_records: &[TraceRecord],
    bound: &EquivalenceBound,
) -> (Option<FingerprintDistance>, Vec<String>) {
    let mut failures = Vec::new();
    if original_out.result.is_valid() != replay_out.result.is_valid() {
        failures.push(format!(
            "{leg}: verdict flipped: recorded run {} but replay {}",
            verdict(original_out),
            verdict(replay_out)
        ));
    }
    if replay_out.result.query_count != reduced.queries.len() as u64 {
        failures.push(format!(
            "{leg}: replay resolved {} of {} recorded queries",
            replay_out.result.query_count,
            reduced.queries.len()
        ));
    }
    let Some(replayed) = fingerprint_of_records(replay_records) else {
        failures.push(format!("{leg}: replay detail log has no issued queries"));
        return (None, failures);
    };
    let recorded = reduced.fingerprint();
    let distance = recorded.distance(&replayed);
    if let Err(violations) = bound.check(&distance) {
        print_latency_grids(&recorded, &replayed);
        for v in violations {
            failures.push(format!("{leg}: replay fingerprint out of bound: {v}"));
        }
    }
    (Some(distance), failures)
}

/// The seed the committed fixture was blessed under; the fixture
/// comparison only runs when the roundtrip uses it.
const ROUNDTRIP_SEED: u64 = 0xBE7C;

/// Leg 1: simulated run -> record -> reduce 20x -> DES replay. Everything
/// on this leg is deterministic, so it also carries the byte-identity and
/// fixture assertions.
fn roundtrip_des(seed: u64, check: bool, bless: bool) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    let seeds = SeedTriple::from_master(seed);
    let settings = TestSettings::server(5_000.0, Nanos::from_millis(50))
        .with_min_query_count(4_000)
        .with_min_duration(Nanos::from_millis(100))
        .with_seeds(seeds);

    let record_once = || -> Result<(RunOutcome, RecordedTrace), String> {
        let mut qsl = MemoryQsl::new("replay-qsl", POPULATION, POPULATION);
        let mut sut = FixedLatencySut::new("replay-dev", DEVICE_PER_SAMPLE);
        let sink = RingBufferSink::unbounded();
        let out = Run::simulated(&settings)
            .sink(&sink)
            .run(&mut qsl, &mut sut)
            .map_err(|e| format!("des leg: recorded run failed: {e}"))?;
        let opts = RecordOptions::for_population(POPULATION as u64)
            .with_qsl_seed(seeds.qsl_seed)
            .with_latency_target(Nanos::from_millis(50).as_nanos(), 99.0)
            .with_source("roundtrip-des");
        let trace = record_trace(&sink.snapshot(), &opts)
            .map_err(|e| format!("des leg: record failed: {e}"))?;
        Ok((out, trace))
    };

    let (original_out, trace) = record_once()?;
    println!("des leg: recorded {}", describe(&trace));

    let reduce_opts = ReduceOptions::new(200).with_seed(seed);
    let reduced =
        reduce_trace(&trace, &reduce_opts).map_err(|e| format!("des leg: reduce failed: {e}"))?;
    println!(
        "des leg: reduced {}x to {} queries over {:.3} s",
        trace.queries.len() / reduced.queries.len(),
        reduced.queries.len(),
        reduced.duration().as_secs_f64()
    );

    let (replay_out, replay_records) = replay_sim(&reduced, seed)?;
    println!("des leg: replay {}", verdict(&replay_out));
    // Replaying a 20x-thinner schedule relaxes queue buildup, which can
    // shift the simulated tail latencies a little past the stock bound on
    // some seeds; the audit tolerates that while still rejecting any
    // distribution-level mangling.
    let (distance, replay_failures) = audit_replay(
        "des leg",
        &reduced,
        &original_out,
        &replay_out,
        &replay_records,
        &EquivalenceBound::default().scaled(1.5),
    );
    failures.extend(replay_failures);
    if let Some(d) = distance {
        print_distance("des leg: reduced vs replayed", &d);
    }

    // Byte-reproducibility: recording the same run twice and reducing the
    // same trace twice must both be byte-identical.
    let bytes = reduced.encode();
    let (_, trace_again) = record_once()?;
    if trace_again.encode() != trace.encode() {
        failures.push("des leg: recording the same seeded run twice changed bytes".into());
    }
    let reduced_again = reduce_trace(&trace_again, &reduce_opts)
        .map_err(|e| format!("des leg: second reduce failed: {e}"))?;
    if reduced_again.encode() != bytes {
        failures.push("des leg: reducing the same trace twice changed bytes".into());
    }

    // The committed fixture is this leg's reduced trace. A non-default
    // seed produces a legitimately different reduction, so the comparison
    // only applies under the seed the fixture was blessed with.
    if bless {
        store_trace(FIXTURE, &reduced)?;
        println!("des leg: blessed {FIXTURE} ({} bytes)", bytes.len());
    } else if check && seed != ROUNDTRIP_SEED {
        println!("des leg: fixture comparison skipped (non-default seed {seed:#x})");
    } else if check {
        match std::fs::read(FIXTURE) {
            Ok(committed) if committed == bytes => {
                println!("des leg: fixture {FIXTURE} re-derived byte-identically");
            }
            Ok(committed) => failures.push(format!(
                "des leg: {FIXTURE} diverges from the re-derived reduction \
({} committed bytes vs {} derived); run `replay roundtrip --bless`",
                committed.len(),
                bytes.len()
            )),
            Err(e) => failures.push(format!(
                "des leg: cannot read {FIXTURE}: {e}; run `replay roundtrip --bless`"
            )),
        }
    }
    Ok(failures)
}

/// Legs 2 and 3: wire record/reduce/replay, then the fleet replay.
fn roundtrip_wire(seed: u64) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    let seeds = SeedTriple::from_master(seed ^ 0x77);
    let settings = TestSettings::server(3_000.0, Nanos::from_millis(50))
        .with_min_query_count(3_000)
        .with_min_duration(Nanos::from_millis(100))
        .with_seeds(seeds);

    // Recorded run over the wire.
    let daemon = spawn_rig(1)?;
    let (original_out, recorded) = run_over(&daemon, &settings, POPULATION, None)
        .map_err(|e| format!("wire leg: recorded run: {e}"))?;
    println!("wire leg: recorded run {}", verdict(&original_out));

    let opts = RecordOptions::for_population(POPULATION as u64)
        .with_qsl_seed(seeds.qsl_seed)
        .with_latency_target(Nanos::from_millis(50).as_nanos(), 99.0)
        .with_source("roundtrip-wire");
    let trace =
        record_trace(&recorded, &opts).map_err(|e| format!("wire leg: record failed: {e}"))?;
    println!("wire leg: recorded {}", describe(&trace));

    // 10x reduction. The recording's latencies are wall-clock, so even a
    // faithful subsample can move a tail quantile by rank noise — the
    // joint latency rule in the stock bound absorbs that.
    let reduced = reduce_trace(&trace, &ReduceOptions::new(300).with_seed(seed))
        .map_err(|e| format!("wire leg: reduce failed: {e}"))?;
    println!(
        "wire leg: reduced {}x to {} queries over {:.3} s",
        trace.queries.len() / reduced.queries.len(),
        reduced.queries.len(),
        reduced.duration().as_secs_f64()
    );

    // Replay over a fresh connection to the same daemon.
    let (replay_out, replay_records) =
        replay_over(&daemon, &reduced, seed).map_err(|e| format!("wire leg: replay: {e}"))?;
    drop(daemon);
    println!("wire leg: replay {}", verdict(&replay_out));
    let (distance, replay_failures) = audit_replay(
        "wire leg",
        &reduced,
        &original_out,
        &replay_out,
        &replay_records,
        &wire_bound(),
    );
    failures.extend(replay_failures);
    if let Some(d) = distance {
        print_distance("wire leg: reduced vs replayed", &d);
    }

    // Fleet leg: the same reduced trace drives a 3-shard fleet VALID.
    let (fleet_out, fleet_records) = replay_over(&spawn_rig(3)?, &reduced, seed)
        .map_err(|e| format!("fleet leg: replay: {e}"))?;
    println!("fleet leg: replay {}", verdict(&fleet_out));
    if !fleet_out.result.is_valid() {
        failures.push(format!(
            "fleet leg: replay through 3 shards is {}",
            verdict(&fleet_out)
        ));
    }
    if fleet_out.result.query_count != reduced.queries.len() as u64 {
        failures.push(format!(
            "fleet leg: replay resolved {} of {} recorded queries",
            fleet_out.result.query_count,
            reduced.queries.len()
        ));
    }
    let routed_shards = fleet_shards_touched(&fleet_records);
    if routed_shards < 2 {
        failures.push(format!(
            "fleet leg: replay touched only {routed_shards} shard(s) — routing is not spreading"
        ));
    }
    Ok(failures)
}

/// Distinct shards that appear in `ShardEvent` route rows.
fn fleet_shards_touched(records: &[TraceRecord]) -> usize {
    let mut shards = std::collections::HashSet::new();
    for record in records {
        if let mlperf_trace::TraceEvent::ShardEvent { shard, .. } = &record.event {
            shards.insert(shard.clone());
        }
    }
    shards.len()
}

fn cmd_roundtrip(args: &[String]) -> Result<bool, String> {
    let mut check = false;
    let mut bless = false;
    let mut seed = ROUNDTRIP_SEED;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--bless" => bless = true,
            "--seed" => {
                let Some(v) = it.next() else {
                    return Err(format!("--seed needs a value\n{USAGE}"));
                };
                seed = parse_u64(v, "--seed")?;
            }
            other => return Err(format!("roundtrip: unknown flag `{other}`\n{USAGE}")),
        }
    }

    let mut failures = roundtrip_des(seed, check, bless)?;
    failures.extend(roundtrip_wire(seed)?);

    if failures.is_empty() {
        println!(
            "replay roundtrip: OK (record -> reduce -> replay verdicts match, fingerprints \
within bound, reduction byte-reproducible, fleet replay VALID)"
        );
        Ok(true)
    } else {
        for f in &failures {
            eprintln!("replay roundtrip: {f}");
        }
        Ok(!check)
    }
}

fn parse_u64(v: &str, flag: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{flag} needs an integer, got `{v}`\n{USAGE}"))
}

fn main() -> ExitCode {
    let _flight = mlperf_harness::panic_guard::install("replay");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "record" => cmd_record(rest).map(|()| true),
        "reduce" => cmd_reduce(rest).map(|()| true),
        "run" => cmd_run(rest).map(|()| true),
        "roundtrip" => cmd_roundtrip(rest),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
