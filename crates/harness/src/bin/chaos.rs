//! Chaos harness: one matrix of fault-injection rows, each a scaled-down
//! LoadGen run under one fault, printed beside the outcome [`ROWS`] — the
//! fault taxonomy, stated once — expects of it.
//!
//! ```text
//! chaos [--seed <n>] [--out <path>] [--check] [--wire] [--crash] [--flight-dir <dir>]
//! ```
//!
//! The local quadrant always runs; `--wire` adds the wire and fleet
//! quadrants, `--crash` the crash quadrant. `--out` writes the seeded,
//! byte-reproducible matrix JSON (`results/chaos_matrix.json` is `--wire
//! --crash` at the default seed); `--flight-dir` collects every INVALID
//! wire run's flight dump and root-cause report. `--check` holds two rules:
//! every row observes exactly its expected outcome, and a second build
//! renders identical bytes.

use mlperf_audit::tests::completeness_report;
use mlperf_harness::cli::{self, Flag};
use mlperf_harness::rig::{dump_flight, issue_kinds, logical_hash, Rebind, Rig, Wired};
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::des::{run_simulated, RunOutcome};
use mlperf_loadgen::journal::{load_run_journal, JournalConfig};
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::scenario::Scenario;
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::{JournaledRun, Run};
use mlperf_models::{TaskId, Workload};
use mlperf_stats::rng::SeedTriple;
use mlperf_sut::device::{Architecture, DeviceSpec};
use mlperf_sut::engine::{BatchPolicy, DeviceSut};
use mlperf_sut::faults::FaultPlan;
use mlperf_sut::resilience::{ResiliencePolicy, ResilientSut};
use mlperf_sut::{BalancePolicy, FaultySut};
use mlperf_trace::{JsonValue, RingBufferSink, ToJson, TraceEvent};
use mlperf_wire::{RemoteSutConfig, ResumePolicy, ServeConfig, WireChaosPlan};
use std::fmt;
use std::io::{BufRead, BufReader, Write as _};
use std::path::Path;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Duration;

static COMMANDS: &[cli::Command] = &[
    cli::Command::new(
        "chaos",
        "",
        &[
            cli::SEED,
            cli::OUT,
            cli::CHECK,
            Flag::switch("--wire"),
            Flag::switch("--crash"),
            Flag::value("--flight-dir", "<dir>"),
        ],
    ),
    cli::Command::new("chaos __crash-daemon", "<journal-dir>", &[]),
    cli::Command::new(
        "chaos __crash-client",
        "<addr> <journal> <torn> <seed>",
        &[],
    ),
];

/// The matrix: quadrant, scenario, fault, and the outcome the row must
/// observe. An outcome is each run's verdict — `VALID`, or the run's
/// validity-issue kinds joined by `+` — separated by ` / ` (local: the
/// faulty device bare, then under a [`ResilientSut`]; wire: without, then
/// with session resume), followed by the facts the row observed:
///
/// - `hash=none`: every VALID run's logical-log hash equals its quadrant's
///   `none` row's for the scenario (crash: the uninterrupted run's), so
///   whatever rescued the run lost and duplicated nothing;
/// - `roots=issues`: forensics recovered each run's issue kinds, exactly,
///   from its trace alone;
/// - `down`, `failover`, `rejoin`: the fleet's victim shard went down, had
///   a query failed over off it, came back into the rotation;
/// - `test06`: the fleet's merged detail log passes the TEST06
///   completeness audit;
/// - `ckpt=N`: the crash victim's journal halted at checkpoint `N`;
/// - `torn`: the crash resume rolled back a torn journal frame.
///
/// The faults are [`plan_for`]'s (local), [`wire_plan_for`]'s (wire),
/// [`run_fleet`]'s and [`run_crash`]'s.
const ROWS: &str = "
local  single-stream  none              VALID / VALID
local  single-stream  transient-errors  error_fraction_exceeded / VALID
local  single-stream  latency-spikes    VALID / VALID
local  single-stream  stall             VALID / VALID
local  single-stream  throttle          VALID / VALID
local  single-stream  death             incomplete_queries+too_few_queries / VALID
local  multistream    none              VALID / VALID
local  multistream    transient-errors  error_fraction_exceeded / VALID
local  multistream    latency-spikes    too_many_skipped_intervals / VALID
local  multistream    stall             too_many_skipped_intervals / VALID
local  multistream    throttle          VALID / VALID
local  multistream    death             incomplete_queries+too_few_queries / VALID
local  server         none              VALID / VALID
local  server         transient-errors  error_fraction_exceeded+latency_bound_exceeded / latency_bound_exceeded
local  server         latency-spikes    latency_bound_exceeded / latency_bound_exceeded
local  server         stall             latency_bound_exceeded / error_fraction_exceeded+latency_bound_exceeded
local  server         throttle          latency_bound_exceeded / error_fraction_exceeded+latency_bound_exceeded
local  server         death             incomplete_queries+run_too_short / latency_bound_exceeded
local  offline        none              VALID / VALID
local  offline        transient-errors  error_fraction_exceeded / VALID
local  offline        latency-spikes    VALID / VALID
local  offline        stall             VALID / VALID
local  offline        throttle          VALID / VALID
local  offline        death             incomplete_queries+run_too_short / VALID
wire   offline        none              VALID / VALID hash=none roots=issues
wire   offline        corrupt           error_fraction_exceeded / VALID hash=none roots=issues
wire   offline        truncate          error_fraction_exceeded / VALID hash=none roots=issues
wire   offline        duplicate         VALID / VALID hash=none roots=issues
wire   offline        delay             VALID / VALID hash=none roots=issues
wire   offline        partition         error_fraction_exceeded / VALID hash=none roots=issues
wire   offline        disconnect        incomplete_queries / VALID hash=none roots=issues
wire   server         none              VALID / VALID hash=none roots=issues
wire   server         corrupt           error_fraction_exceeded+latency_bound_exceeded / VALID hash=none roots=issues
wire   server         truncate          error_fraction_exceeded+latency_bound_exceeded / VALID hash=none roots=issues
wire   server         duplicate         VALID / VALID hash=none roots=issues
wire   server         delay             VALID / VALID hash=none roots=issues
wire   server         partition         error_fraction_exceeded+latency_bound_exceeded / VALID hash=none roots=issues
wire   server         disconnect        incomplete_queries+run_too_short / VALID hash=none roots=issues
fleet  server         none              VALID hash=none test06
fleet  server         shard-kill        VALID hash=none down failover test06
fleet  server         shard-degrade     VALID hash=none test06
fleet  server         shard-rejoin      VALID hash=none down rejoin test06
crash  server         none              VALID hash=none
crash  server         client-kill       VALID hash=none ckpt=1
crash  server         daemon-kill       VALID hash=none ckpt=1
crash  server         both-kill         VALID hash=none ckpt=1
crash  server         torn-checkpoint   VALID hash=none ckpt=1 torn
";

/// One line of [`ROWS`].
#[derive(Debug, Clone)]
struct Row {
    quadrant: &'static str,
    scenario: &'static str,
    fault: &'static str,
    expected: String,
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.quadrant, self.scenario, self.fault)
    }
}

fn rows() -> impl Iterator<Item = Row> {
    ROWS.lines().filter(|l| !l.trim().is_empty()).map(|line| {
        let mut words = line.split_whitespace();
        let mut next = || words.next().expect("a row names quadrant, scenario, fault");
        let (quadrant, scenario, fault) = (next(), next(), next());
        let expected = words.collect::<Vec<_>>().join(" ");
        Row {
            quadrant,
            scenario,
            fault,
            expected,
        }
    })
}

/// One LoadGen run of a row: its validity-issue kinds (empty is VALID)
/// and, where the quadrant records one, a VALID run's logical-log hash.
#[derive(Debug, Clone)]
struct RunSeen {
    kinds: Vec<String>,
    hash: Option<String>,
}

impl RunSeen {
    fn of(out: &RunOutcome, hashed: bool) -> RunSeen {
        let kinds = issue_kinds(&out.result);
        let hash = (hashed && kinds.is_empty()).then(|| logical_hash(&out.records));
        RunSeen { kinds, hash }
    }
}

/// A row as one build observed it, whatever its quadrant.
#[derive(Debug, Clone)]
struct Cell {
    row: Row,
    /// Bare run first, then the rescuing policy's where the quadrant has one.
    runs: Vec<RunSeen>,
    /// The quadrant's facts, in [`ROWS`]' notation and order.
    facts: Vec<String>,
    /// The row as `--out` writes it; `None` for the crash quadrant's
    /// uninterrupted run, which the committed matrix does not carry.
    json: Option<JsonValue>,
}

/// The cell's outcome in [`ROWS`]' notation; `cells` holds its quadrant's
/// `none` row.
fn observed(cell: &Cell, cells: &[Cell]) -> String {
    let verdicts: Vec<String> = cell
        .runs
        .iter()
        .map(|r| match r.kinds.is_empty() {
            true => "VALID".to_string(),
            false => r.kinds.join("+"),
        })
        .collect();
    let mut words = vec![verdicts.join(" / ")];
    let hashes: Vec<&String> = cell.runs.iter().filter_map(|r| r.hash.as_ref()).collect();
    if let Some(base) = base_hash(cells, &cell.row) {
        if !hashes.is_empty() && hashes.iter().all(|h| *h == base) {
            words.push("hash=none".to_string());
        }
    }
    words.extend(cell.facts.iter().cloned());
    words.join(" ")
}

/// The logical-log hash of `row`'s quadrant's `none` row for its scenario.
fn base_hash<'a>(cells: &'a [Cell], row: &Row) -> Option<&'a String> {
    cells
        .iter()
        .find(|c| {
            (c.row.quadrant, c.row.scenario, c.row.fault) == (row.quadrant, row.scenario, "none")
        })
        .and_then(|c| c.runs.iter().find_map(|r| r.hash.as_ref()))
}

/// Local fault plans, placed relative to the scenario's fault-free
/// duration so windows land inside the run whatever its simulated length.
fn plan_for(fault: &str, seed: u64, horizon: Nanos) -> FaultPlan {
    let at = |f: f64| Nanos::from_secs_f64(horizon.as_secs_f64() * f);
    let plan = FaultPlan::new(seed);
    match fault {
        "none" => plan,
        "transient-errors" => plan.with_transient_errors(0.10),
        "latency-spikes" => plan.with_latency_spikes(0.05, 25.0),
        "stall" => plan.with_stall(at(0.3), at(0.1)),
        "throttle" => plan.with_throttle(at(0.2), at(0.5), 6.0),
        "death" => plan.with_death_at(at(0.5)),
        other => unreachable!("unknown fault case {other}"),
    }
}

/// Scaled-down local settings per scenario: long enough for fault windows
/// to matter, short enough for a CI smoke stage. `max_error_fraction` arms
/// the error-fraction validity rule everywhere.
fn settings_for(scenario: &str) -> TestSettings {
    let settings = match scenario {
        "single-stream" => TestSettings::single_stream()
            .with_min_query_count(1_024)
            .with_min_duration(Nanos::from_millis(500)),
        "multistream" => TestSettings::multi_stream(8, Nanos::from_millis(50))
            .with_min_query_count(64)
            .with_min_duration(Nanos::from_millis(1)),
        "server" => TestSettings::server(800.0, Nanos::from_millis(15))
            .with_min_query_count(1_024)
            .with_min_duration(Nanos::from_secs(1)),
        "offline" => TestSettings::offline()
            .with_offline_min_sample_count(4_096)
            .with_min_duration(Nanos::from_millis(1)),
        other => unreachable!("unknown scenario {other}"),
    };
    settings.with_max_error_fraction(0.02)
}

fn device_sut(scenario: Scenario) -> DeviceSut {
    let spec = DeviceSpec::new(
        "chaos-dev",
        Architecture::Gpu,
        2_000.0,
        2.0,
        16,
        2,
        Nanos::from_micros(50),
    );
    let policy = match scenario {
        Scenario::Server => BatchPolicy::DynamicBatch {
            timeout: Nanos::from_millis(2),
            max_batch: 16,
        },
        _ => BatchPolicy::Immediate,
    };
    DeviceSut::new(
        spec,
        Workload::new(TaskId::ImageClassificationLight),
        policy,
    )
}

/// Recovery policy per scenario. The offline query's service time dwarfs an
/// interactive timeout, so its deadline scales with the baseline duration;
/// the server timeout sits just under the latency bound so it fires on real
/// stragglers, not on the healthy queueing tail.
fn policy_for(scenario: Scenario, horizon: Nanos) -> ResiliencePolicy {
    let timeout = match scenario {
        Scenario::Offline => horizon.mul(2),
        Scenario::Server => Nanos::from_millis(12),
        _ => Nanos::from_millis(5),
    };
    ResiliencePolicy {
        timeout: Some(timeout),
        max_retries: 3,
        backoff: Nanos::from_micros(200),
    }
}

/// A local row: the scenario's fault-free run measures the horizon, then
/// the faulty device runs bare and under a [`ResilientSut`] (timeout,
/// bounded retry, a fault-free sibling to fail over to).
fn run_local(row: &Row, seed: u64) -> Result<Cell, String> {
    let settings = settings_for(row.scenario);
    let scenario = settings.scenario;
    let qsl = || MemoryQsl::new("chaos-qsl", 1_024, 1_024);

    let baseline = run_simulated(&settings, &mut qsl(), &mut device_sut(scenario))
        .map_err(|e| format!("{row}: baseline run failed: {e}"))?;
    let horizon = baseline.result.duration;
    let plan = plan_for(row.fault, seed, horizon);

    let mut faulty = FaultySut::new(device_sut(scenario), plan.clone());
    let bare = run_simulated(&settings, &mut qsl(), &mut faulty)
        .map_err(|e| format!("{row}: faulty run failed: {e}"))?;
    let spare = FaultySut::new(device_sut(scenario), FaultPlan::new(seed ^ 0x5AFE));
    let mut resilient = ResilientSut::new(
        FaultySut::new(device_sut(scenario), plan),
        policy_for(scenario, horizon),
    )
    .with_sibling(spare);
    let rescued = run_simulated(&settings, &mut qsl(), &mut resilient)
        .map_err(|e| format!("{row}: resilient run failed: {e}"))?;

    let texts = |out: &RunOutcome| {
        let texts: Vec<String> = out.result.validity.iter().map(|i| i.to_string()).collect();
        texts.to_json_value()
    };
    let json = JsonValue::object(vec![
        ("scenario", row.scenario.to_json_value()),
        ("fault", row.fault.to_json_value()),
        ("faulty_valid", bare.result.is_valid().to_json_value()),
        ("faulty_errors", bare.result.error_count.to_json_value()),
        ("faulty_issues", texts(&bare)),
        ("resilient_valid", rescued.result.is_valid().to_json_value()),
        (
            "resilient_errors",
            rescued.result.error_count.to_json_value(),
        ),
        ("resilient_issues", texts(&rescued)),
    ]);
    Ok(Cell {
        row: row.clone(),
        runs: vec![RunSeen::of(&bare, false), RunSeen::of(&rescued, false)],
        facts: Vec::new(),
        json: Some(json),
    })
}

/// Client-side wire chaos per fault. Each hits a deterministic frame index
/// (or every frame), so heartbeat interleaving cannot shift which logical
/// frame is faulted. Frame 1 outbound is the Hello and frame 1 inbound the
/// HelloAck; frame 2 is the post-handshake clock probe (outbound) or its
/// ack (inbound), so a frame-2 fault hits the link before any query
/// traffic and a frame-1 partition blackholes everything after the
/// handshake.
fn wire_plan_for(fault: &str, seed: u64) -> WireChaosPlan {
    let plan = WireChaosPlan::new(seed);
    match fault {
        "none" => plan,
        "corrupt" => plan.with_corrupt_recv_at(2),
        "truncate" => plan.with_truncate_recv_at(2),
        "duplicate" => plan.with_duplicate_send(1.0),
        "delay" => plan.with_delay_recv(Duration::from_millis(3)),
        "partition" => plan.with_partition_send_after(1),
        "disconnect" => plan.with_disconnect_after_send(2),
        other => unreachable!("unknown wire fault case {other}"),
    }
}

/// Scaled-down wire scenarios. Both terminate on schedule-derived
/// conditions (an offline run is one batch; the server issue loop stops on
/// seeded arrival times), so the issued query stream is deterministic
/// under a fixed seed and the logical detail log of a VALID run is
/// byte-reproducible.
fn wire_settings(scenario: &str, seed: u64) -> TestSettings {
    let settings = match scenario {
        "offline" => TestSettings::offline()
            .with_offline_min_sample_count(256)
            .with_min_duration(Nanos::ZERO),
        "server" => TestSettings::server(200.0, Nanos::from_millis(500))
            .with_min_query_count(40)
            .with_min_duration(Nanos::from_millis(100)),
        other => unreachable!("unknown wire scenario {other}"),
    };
    settings
        .with_max_error_fraction(0.02)
        .with_seeds(SeedTriple::from_master(seed))
}

/// Connects a chaos client to every daemon of `rig` (behind a weighted
/// router when there are several), for a 64-sample QSL.
fn connect(
    rig: &Rig,
    settings: &TestSettings,
    config: impl Fn(usize) -> RemoteSutConfig,
    sink: Option<&Arc<RingBufferSink>>,
) -> Result<Wired, String> {
    let sink = sink.map(|s| Arc::clone(s) as _);
    rig.connect(
        settings,
        64,
        config,
        BalancePolicy::WeightedThroughput,
        sink,
        None,
    )
}

/// A wire row: the scenario over a loopback daemon with the fault armed on
/// the client transport, once without and once with session resume.
fn run_wire(row: &Row, seed: u64, flight_dir: Option<&str>) -> Result<Cell, String> {
    let settings = wire_settings(row.scenario, seed);
    let plain = run_wire_once(row, &settings, false, seed, flight_dir)?;
    let resumed = run_wire_once(row, &settings, true, seed, flight_dir)?;
    let json = |(run, roots): &(RunSeen, Vec<String>)| {
        JsonValue::object(vec![
            ("valid", run.kinds.is_empty().to_json_value()),
            ("issues", run.kinds.to_json_value()),
            ("root_constraints", roots.to_json_value()),
            ("log_hash", run.hash.to_json_value()),
        ])
    };
    let rescued = !plain.0.kinds.is_empty() && resumed.0.kinds.is_empty();
    let json = JsonValue::object(vec![
        ("scenario", row.scenario.to_json_value()),
        ("fault", row.fault.to_json_value()),
        ("plain", json(&plain)),
        ("resumed", json(&resumed)),
        ("rescued", rescued.to_json_value()),
    ]);
    let runs = [plain, resumed];
    let roots_match = runs.iter().all(|(run, roots)| *roots == run.kinds);
    Ok(Cell {
        row: row.clone(),
        facts: roots_match
            .then(|| "roots=issues".to_string())
            .into_iter()
            .collect(),
        runs: runs.into_iter().map(|(run, _)| run).collect(),
        json: Some(json),
    })
}

/// One wire run: a fresh loopback daemon, a chaos-armed client, a real
/// LoadGen run over TCP traced into one sink (client spans, wire events,
/// and the server spans a surviving link ships at drain). Returns the run
/// and, for an INVALID one, the constraints forensics recovered from the
/// trace alone; with `flight_dir`, an INVALID run also leaves its flight
/// dump and analysis there.
fn run_wire_once(
    row: &Row,
    settings: &TestSettings,
    resume: bool,
    seed: u64,
    flight_dir: Option<&str>,
) -> Result<(RunSeen, Vec<String>), String> {
    let mut qsl = MemoryQsl::new("wire-chaos-qsl", 64, 64);
    // The partition is one-way outbound: only heartbeat loss can prove the
    // peer unreachable, so that cell runs an aggressive heartbeat. Every
    // other cell spaces heartbeats out past the deterministic fault frames.
    let (interval, grace) = if row.fault == "partition" {
        (Duration::from_millis(15), Duration::from_millis(75))
    } else {
        (Duration::from_millis(200), Duration::from_secs(2))
    };
    let mut config = RemoteSutConfig::default()
        .with_response_timeout(Duration::from_secs(5))
        .with_heartbeat(interval, grace)
        .with_chaos(wire_plan_for(row.fault, seed));
    if resume {
        config = config.with_resume(ResumePolicy {
            max_attempts: 5,
            backoff: Duration::from_millis(30),
        });
    }
    let cell = |e: String| format!("{row}: {e}");
    let serve = |_| ServeConfig::default();
    let rig = Rig::spawn("wire-chaos-dev", &[Nanos::from_micros(200)], serve).map_err(cell)?;
    let sink = Arc::new(RingBufferSink::unbounded());
    let wired = connect(&rig, settings, |_| config.clone(), Some(&sink)).map_err(cell)?;
    let out = wired
        .run(settings)
        .run(&mut qsl, Arc::clone(&wired.sut))
        .map_err(|e| format!("{row}: run failed: {e}"))?;
    wired.drain();

    let run = RunSeen::of(&out, true);
    let mut roots = Vec::new();
    if !run.kinds.is_empty() {
        // The forensics layer must recover the violated constraints from
        // the trace alone (the ValidityCheckFailed events the finalizer
        // recorded), with no peek at the structured outcome.
        let records = sink.snapshot();
        let texts = mlperf_analysis::issue_texts(&records);
        roots = mlperf_analysis::root_causes(&records, &texts)
            .iter()
            .map(|c| c.constraint.to_string())
            .collect();
        roots.sort();
        roots.dedup();
        if let Some(dir) = flight_dir {
            let (scenario, fault) = (row.scenario, row.fault);
            let reason = format!(
                "wire cell INVALID: scenario={scenario} fault={fault} resume={resume}: {:?}",
                out.result.validity
            );
            let suffix = if resume { "_resumed" } else { "" };
            let path = format!("{dir}/chaos_flight_{scenario}_{fault}{suffix}.jsonl");
            dump_flight(&path, &reason, &records);
        }
    }
    Ok((run, roots))
}

/// Heterogeneous per-sample service times for the three fleet shards.
/// The weighted policy balances by the reciprocal, so the fastest shard
/// carries most of the traffic.
const SHARD_PER_SAMPLE: [Nanos; 3] = [
    Nanos::from_micros(100),
    Nanos::from_micros(200),
    Nanos::from_micros(400),
];

/// A fleet row: the wire server scenario over three heterogeneous loopback
/// daemons behind a weighted `ShardedSut` router (one [`Rig`]), with the
/// row's shard fault injected mid-run — `shard-kill` (the victim daemon
/// dies with a query in flight), `shard-degrade` (the victim's wire is
/// delayed, no health transition due) or `shard-rejoin` (the killed daemon
/// rebinds its port and the router drains traffic back in). Every fact is
/// deterministic under a fixed seed: the watcher kills the victim only
/// while it has a query in flight, and the rebind lands well inside the
/// run.
fn run_fleet(row: &Row, seed: u64) -> Result<Cell, String> {
    let fault = row.fault;
    let settings = wire_settings(row.scenario, seed);
    let mut qsl = MemoryQsl::new("shard-chaos-qsl", 64, 64);
    let sink = Arc::new(RingBufferSink::unbounded());
    let victim = seed as usize % SHARD_PER_SAMPLE.len();

    let cell = |e: String| format!("{row}: {e}");
    let serve = |_| ServeConfig::default();
    let mut rig = Rig::spawn("shard-chaos-dev", &SHARD_PER_SAMPLE, serve).map_err(cell)?;

    // The kill cell wants fast link-death detection so in-flight queries
    // vanish and fail over; the rejoin cell instead retries long enough
    // to outlive the victim's down window and resume onto the rebound
    // daemon (which replays the held queries).
    let rejoin = fault == "shard-rejoin";
    let resume = ResumePolicy {
        max_attempts: if rejoin { 8 } else { 2 },
        backoff: Duration::from_millis(if rejoin { 20 } else { 10 }),
    };
    let config = |i: usize| {
        let config = RemoteSutConfig::default().with_resume(resume);
        if fault == "shard-degrade" && i == victim {
            let slow = WireChaosPlan::new(seed).with_delay_recv(Duration::from_millis(3));
            return config.with_chaos(slow);
        }
        config
    };
    let wired = connect(&rig, &settings, config, Some(&sink)).map_err(cell)?;

    let mut run = || wired.run(&settings).run(&mut qsl, Arc::clone(&wired.sut));
    let mut rebound = Ok(());
    let out = match fault {
        // Kill on the victim's first query in flight. A run that ends
        // before the watcher strikes shows up as a row with no `down`.
        "shard-kill" => wired.run_watched(victim, || rig.kill(victim), run).0,
        // Kill, then rebind the same port with a fresh daemon after a down
        // window long enough for the router to notice.
        "shard-rejoin" => {
            let strike = || {
                rig.kill(victim);
                std::thread::sleep(Duration::from_millis(60));
                rebound = rig.respawn(victim, Rebind::SameAddress);
            };
            wired.run_watched(victim, strike, run).0
        }
        "none" | "shard-degrade" => run(),
        other => unreachable!("unknown shard fault case {other}"),
    }
    .map_err(|e| format!("{row}: fleet run failed: {e}"))?;
    rebound.map_err(cell)?;
    wired.drain();

    let victim_label = rig.label(victim);
    let records = sink.snapshot();
    let seen = |kind: &str| {
        records.iter().any(|r| {
            matches!(&r.event, TraceEvent::ShardEvent(event)
                if event.shard == victim_label && event.kind == kind)
        })
    };
    let (down, rejoined) = (seen("down"), seen("rejoin"));
    let mut facts: Vec<String> = ["down", "failover", "rejoin"]
        .into_iter()
        .filter(|kind| seen(kind))
        .map(String::from)
        .collect();
    if completeness_report(&records).passed() {
        facts.push("test06".to_string());
    }
    let run = RunSeen::of(&out, true);
    let json = JsonValue::object(vec![
        ("scenario", row.scenario.to_json_value()),
        ("fault", fault.to_json_value()),
        ("valid", run.kinds.is_empty().to_json_value()),
        ("issues", run.kinds.to_json_value()),
        ("log_hash", run.hash.to_json_value()),
        ("down_seen", down.to_json_value()),
        ("rejoined", rejoined.to_json_value()),
    ]);
    Ok(Cell {
        row: row.clone(),
        runs: vec![run],
        facts,
        json: Some(json),
    })
}

/// Queries per checkpoint frame in the crash quadrant.
const CRASH_CHECKPOINT_EVERY: u64 = 8;

/// Checkpoint seq the victim halts at before the kill: mid-run, with
/// queries both recorded and outstanding.
const CRASH_HALT_AT: u64 = 1;

/// Settings every crash row shares; the issue stream stops on
/// schedule-derived conditions, so the logical detail log is a pure
/// function of the seed.
fn crash_settings(seed: u64) -> TestSettings {
    TestSettings::server(400.0, Nanos::from_millis(250))
        .with_min_query_count(32)
        .with_min_duration(Nanos::from_millis(10))
        .with_max_error_fraction(0.02)
        .with_seeds(SeedTriple::from_master(seed ^ 0xC8A5))
}

/// A rig of one crash-quadrant daemon keeping disk session journals
/// under `journal_dir`.
fn crash_rig(journal_dir: &Path) -> Result<Rig, String> {
    Rig::spawn("crash-dev", &[Nanos::from_micros(200)], |_| {
        ServeConfig::default().with_journal_dir(journal_dir)
    })
}

/// The crash quadrant's run journal at `journal`, stamped with the epochs
/// of `wired`'s client.
fn crash_journal(journal: &Path, wired: &Wired) -> JournalConfig {
    JournalConfig::new(journal)
        .with_checkpoint_every(CRASH_CHECKPOINT_EVERY)
        .with_epoch_source(wired.clients[0].epoch_source())
}

/// Runs a fresh journaled crash run against the daemon at `addr` until it
/// halts at [`CRASH_HALT_AT`] (tearing the final frame when `torn`), and
/// returns the still-connected client with the checkpoint it halted at.
fn halt_crash_run(
    addr: &str,
    journal: &Path,
    seed: u64,
    torn: bool,
) -> Result<(Wired, u64), String> {
    let settings = crash_settings(seed);
    let config = |_| RemoteSutConfig::default();
    let wired = connect(&Rig::over(addr), &settings, config, None)?;
    let mut cfg = crash_journal(journal, &wired).with_halt_after(CRASH_HALT_AT);
    if torn {
        cfg = cfg.with_torn_halt();
    }
    let mut qsl = MemoryQsl::new("crash-qsl", 64, 64);
    match Run::wall_clock(&settings)
        .journal(&cfg)
        .run(&mut qsl, Arc::clone(&wired.sut))
    {
        Ok(JournaledRun::Halted { checkpoint }) => Ok((wired, checkpoint)),
        Ok(JournaledRun::Finished(_)) => Err("crash run finished instead of halting".into()),
        Err(e) => Err(format!("crash run failed: {e}")),
    }
}

/// A crash child's life after its work: print `status` for the parent,
/// then park until the parent closes the stdin pipe — which the parent's
/// death does too, even by `SIGKILL` — and exit at once, running no
/// destructor, as a crash would.
fn park(status: &str) -> ! {
    println!("{status}");
    let _ = std::io::stdout().flush();
    let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
    std::process::exit(0)
}

/// Hidden subcommand: a crash-quadrant daemon child. Serves on an
/// ephemeral port with a disk session journal and parks, reporting
/// `ADDR <addr>`.
fn crash_daemon_child(journal_dir: &str) -> Result<(), String> {
    let rig =
        crash_rig(Path::new(journal_dir)).map_err(|e| format!("crash daemon cannot serve: {e}"))?;
    park(&format!("ADDR {}", rig.addr(0)))
}

/// Hidden subcommand: a crash-quadrant client child. Runs a fresh
/// journaled run halted at [`CRASH_HALT_AT`] (tearing the final frame
/// when `torn` is `1`) and parks — sockets open, no drain — reporting
/// `HALTED <seq>`.
fn crash_client_child(addr: &str, journal: &str, torn: &str, seed: &str) -> Result<(), String> {
    let seed = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
    let (_wired, checkpoint) = halt_crash_run(addr, Path::new(journal), seed, torn == "1")
        .map_err(|e| format!("crash client: {e}"))?;
    park(&format!("HALTED {checkpoint}"))
}

/// A crash child process. Dropping it `SIGKILL`s and reaps it — the
/// unceremonious death the quadrant is about — on every way out of a row,
/// early returns included.
struct CrashChild(Child);

impl Drop for CrashChild {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns a chaos child process running the hidden `subcommand` on a
/// piped stdin, returning it plus the rest of the status line it prints
/// (`ADDR <addr>` / `HALTED <seq>`).
fn spawn_crash_child(
    subcommand: &str,
    args: &[&str],
    expect: &str,
) -> Result<(CrashChild, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .arg(subcommand)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map(CrashChild)
        .map_err(|e| format!("cannot spawn {subcommand}: {e}"))?;
    let stdout = child.0.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("{subcommand} produced no status line: {e}"))?;
    match line.trim().strip_prefix(expect) {
        Some(value) => Ok((child, value.trim().to_string())),
        None => Err(format!(
            "{subcommand}: expected `{expect} ...`, got `{}`",
            line.trim()
        )),
    }
}

/// Runs the journaled crash run at `journal` to its end against the daemon
/// of `rig`: from the start, or resumed from its last checkpoint. Returns
/// whether the journal had a torn tail to roll back, and the run.
fn finish_crash_run(
    rig: &Rig,
    journal: &Path,
    seed: u64,
    resume: bool,
) -> Result<(bool, RunSeen), String> {
    let settings = crash_settings(seed);
    let (mut torn, mut config) = (false, RemoteSutConfig::default());
    if resume {
        let loaded = load_run_journal(journal).map_err(|e| format!("load crash journal: {e}"))?;
        torn = loaded.torn.is_some();
        config = config.with_initial_epoch(loaded.last.map_or(0, |cp| cp.epoch) + 1);
    }
    let wired = connect(rig, &settings, |_| config.clone(), None)?;
    let cfg = crash_journal(journal, &wired);
    let run = Run::wall_clock(&settings);
    let run = if resume {
        run.resume(&cfg)
    } else {
        run.journal(&cfg)
    };
    let out = run
        .run(
            &mut MemoryQsl::new("crash-qsl", 64, 64),
            Arc::clone(&wired.sut),
        )
        .map_err(|e| format!("crash run failed: {e}"))?
        .finished()
        .ok_or("crash run halted instead of finishing")?;
    Ok((torn, RunSeen::of(&out, true)))
}

/// A crash row: a journaled wall-clock run over a loopback daemon halts at
/// checkpoint [`CRASH_HALT_AT`] and the row's victims are `SIGKILL`ed — the
/// client (`client-kill`), the daemon (`daemon-kill`), both (`both-kill`),
/// or the client mid-checkpoint-write, leaving a torn frame
/// (`torn-checkpoint`). What died is restarted, a fresh client resumes from
/// the run journal, and the daemon re-adopts the session's completion
/// journal from disk. The `none` row is the uninterrupted run, `base` its
/// hash.
fn run_crash(row: &Row, seed: u64, dir: &Path, base: Option<&str>) -> Result<Cell, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("crash dir {}: {e}", dir.display()))?;
    if row.fault == "none" {
        let rig = crash_rig(&dir.join("baseline-daemon"))?;
        let (_, run) = finish_crash_run(&rig, &dir.join("baseline.mlpj"), seed, false)?;
        return Ok(Cell {
            row: row.clone(),
            runs: vec![run],
            facts: Vec::new(),
            json: None,
        });
    }
    let fault = row.fault;
    let journal = dir.join(format!("{fault}.mlpj"));
    let journal_text = journal.display().to_string();
    let daemon_dir = dir.join(format!("{fault}-daemon"));
    let daemon_dir_text = daemon_dir.display().to_string();
    let seed_text = seed.to_string();
    // The client child halts, prints where, and dies here.
    let kill_client = |addr: &str, torn: &str| -> Result<u64, String> {
        let args = [addr, &journal_text, torn, &seed_text];
        let (client, halted) = spawn_crash_child("__crash-client", &args, "HALTED")?;
        drop(client);
        halted
            .parse()
            .map_err(|_| format!("{row}: bad HALTED line `{halted}`"))
    };
    let (killed, halt, rig, successor) = match fault {
        // The client dies holding live sockets; the daemon survives with
        // the session in memory.
        "client-kill" => {
            let rig = crash_rig(&daemon_dir)?;
            ("client", kill_client(rig.addr(0), "0")?, rig, None)
        }
        "torn-checkpoint" => {
            let rig = crash_rig(&daemon_dir)?;
            let halt = kill_client(rig.addr(0), "1")?;
            ("client (mid-checkpoint-write)", halt, rig, None)
        }
        // The daemon dies (alone or with the client); its successor
        // re-adopts the session's completion journal from disk.
        "daemon-kill" | "both-kill" => {
            let (daemon, addr) = spawn_crash_child("__crash-daemon", &[&daemon_dir_text], "ADDR")?;
            let (killed, halt) = if fault == "both-kill" {
                ("client + daemon", kill_client(&addr, "0")?)
            } else {
                // The client survives as a process; only its run is cut
                // off, without drain (the daemon keeps the session).
                let (wired, halt) = halt_crash_run(&addr, &journal, seed, false)?;
                wired.clients[0].abandon();
                ("daemon", halt)
            };
            drop(daemon);
            let (successor, addr) =
                spawn_crash_child("__crash-daemon", &[&daemon_dir_text], "ADDR")?;
            (killed, halt, Rig::over(&addr), Some(successor))
        }
        other => unreachable!("unknown crash fault case {other}"),
    };
    let (torn, run) = finish_crash_run(&rig, &journal, seed, true)?;
    drop((rig, successor)); // the rescue is over: stop the successor daemon
    let mut facts = vec![format!("ckpt={halt}")];
    if torn {
        facts.push("torn".to_string());
    }
    let json = JsonValue::object(vec![
        ("cell", fault.to_json_value()),
        ("killed", killed.to_json_value()),
        ("halt_checkpoint", halt.to_json_value()),
        ("torn_detected", torn.to_json_value()),
        ("valid", run.kinds.is_empty().to_json_value()),
        ("log_hash", run.hash.to_json_value()),
        (
            "hash_equal",
            (run.hash.is_some() && run.hash.as_deref() == base).to_json_value(),
        ),
    ]);
    Ok(Cell {
        row: row.clone(),
        runs: vec![run],
        facts,
        json: Some(json),
    })
}

/// One build of every row of the selected quadrants, in [`ROWS`] order.
/// `tag` keeps two builds' crash directories apart.
fn build(
    seed: u64,
    quadrants: &[&str],
    flight_dir: Option<&str>,
    tag: &str,
) -> Result<Vec<Cell>, String> {
    let dir = std::env::temp_dir().join(format!("mlperf-chaos-crash-{}-{tag}", std::process::id()));
    let built = rows()
        .filter(|row| quadrants.contains(&row.quadrant))
        .try_fold(Vec::new(), |mut cells, row| -> Result<Vec<Cell>, String> {
            let cell = match row.quadrant {
                "local" => run_local(&row, seed),
                "wire" => run_wire(&row, seed, flight_dir),
                "fleet" => run_fleet(&row, seed),
                "crash" => {
                    let base = base_hash(&cells, &row).cloned();
                    run_crash(&row, seed, &dir, base.as_deref())
                }
                other => unreachable!("unknown quadrant {other}"),
            }?;
            cells.push(cell);
            Ok(cells)
        });
    let _ = std::fs::remove_dir_all(&dir);
    built
}

fn render_json(seed: u64, cells: &[Cell]) -> String {
    let mut fields = vec![("seed", seed.to_json_value())];
    for (quadrant, key) in [
        ("local", "rows"),
        ("wire", "wire_rows"),
        ("fleet", "shard_rows"),
        ("crash", "crash_rows"),
    ] {
        let of: Vec<&Cell> = cells
            .iter()
            .filter(|c| c.row.quadrant == quadrant)
            .collect();
        if !of.is_empty() {
            let rows = of.iter().filter_map(|c| c.json.clone()).collect();
            fields.push((key, JsonValue::Array(rows)));
        }
    }
    let mut text = JsonValue::object(fields).to_pretty();
    text.push('\n');
    text
}

/// The one stdout table: every row with its expected outcome, and `=`
/// where the observation matches it (the observation where it does not).
fn render_table(seed: u64, cells: &[Cell]) -> String {
    use std::fmt::Write as _;
    let width = cells
        .iter()
        .map(|c| c.row.expected.len())
        .max()
        .unwrap_or(0);
    let mut out = format!(
        "{:<9} {:<14} {:<17} {:<width$} OBSERVED\n",
        "QUADRANT", "SCENARIO", "FAULT", "EXPECTED"
    );
    let mut held = 0;
    for c in cells {
        let seen = observed(c, cells);
        let shown = if seen == c.row.expected {
            held += 1;
            "="
        } else {
            seen.as_str()
        };
        let Row {
            quadrant,
            scenario,
            fault,
            expected,
        } = &c.row;
        let _ = writeln!(
            out,
            "{quadrant:<9} {scenario:<14} {fault:<17} {expected:<width$} {shown}"
        );
    }
    let _ = writeln!(
        out,
        "\n{} rows, {held} as expected (seed {seed})",
        cells.len()
    );
    out
}

/// `--check`'s two rules, row by row: the first build observes the row's
/// expected outcome, and the second renders the row's JSON to the same
/// bytes — both builds hold the same rows, so the whole matrix does too.
fn violations(first: &[Cell], second: &[Cell]) -> Vec<String> {
    let mut failures = Vec::new();
    for (c, again) in first.iter().zip(second) {
        let seen = observed(c, first);
        if seen != c.row.expected {
            let expected = &c.row.expected;
            failures.push(format!(
                "{}: observed `{seen}`, expected `{expected}`",
                c.row
            ));
        }
        if c.json != again.json {
            failures.push(format!(
                "{}: a second build rendered different bytes",
                c.row
            ));
        }
    }
    failures
}

/// Builds, prints and writes the matrix; with `check`, builds it again and
/// applies the two rules.
fn chaos(
    seed: u64,
    quadrants: &[&str],
    out_path: Option<&str>,
    flight_dir: Option<&str>,
    check: bool,
) -> Result<(), String> {
    let cells = build(seed, quadrants, flight_dir, "a")?;
    print!("{}", render_table(seed, &cells));
    if let Some(path) = out_path {
        std::fs::write(path, render_json(seed, &cells))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote chaos matrix to {path}");
    }
    if !check {
        return Ok(());
    }
    // The rebuild skips flight dumps: the first build already wrote them,
    // and the second is only compared byte for byte.
    let again = build(seed, quadrants, None, "b")?;
    let failures = violations(&cells, &again);
    if !failures.is_empty() {
        return Err(format!(
            "chaos check FAILED: {}",
            failures.join("\nchaos check FAILED: ")
        ));
    }
    println!("chaos check: all expectations hold");
    Ok(())
}

fn main() -> ExitCode {
    let _flight = mlperf_harness::panic_guard::install("chaos");
    cli::exit(dispatch(&cli::args()).map(|()| true))
}

fn dispatch(argv: &[String]) -> Result<(), String> {
    let (command, rest) = cli::select(COMMANDS, argv)?;
    let args = command.parse(rest)?;
    // Hidden crash-quadrant worker subcommands: these processes exist to
    // be SIGKILLed by the parent sweep.
    match (command.sub(), args.positionals()) {
        ("__crash-daemon", [journal_dir]) => crash_daemon_child(journal_dir),
        ("__crash-client", [addr, journal, torn, seed]) => {
            crash_client_child(addr, journal, torn, seed)
        }
        _ => {
            let mut quadrants = vec!["local"];
            if args.switch("--wire") {
                quadrants.extend(["wire", "fleet"]);
            }
            if args.switch("--crash") {
                quadrants.push("crash");
            }
            chaos(
                args.number("--seed", ..)?.unwrap_or(0xC4A05),
                &quadrants,
                args.value("--out"),
                args.value("--flight-dir"),
                args.switch("--check"),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_loadgen::validate::ValidityIssue;

    fn row(name: &str) -> Row {
        rows()
            .find(|r| r.to_string() == name)
            .unwrap_or_else(|| panic!("no row {name}"))
    }

    #[test]
    fn every_scenario_has_settings_and_plans() {
        for row in rows().filter(|r| r.quadrant == "local") {
            assert!(settings_for(row.scenario).max_error_fraction > 0.0);
            let plan = plan_for(row.fault, 1, Nanos::from_secs(1));
            assert_eq!(plan.is_armed(), row.fault != "none", "{row}");
        }
    }

    #[test]
    fn smoke_cell_runs_and_death_invalidates() {
        let cell = run_local(&row("local/server/death"), 7).unwrap();
        assert!(
            !cell.runs[0].kinds.is_empty(),
            "death left the server run VALID"
        );
    }

    #[test]
    fn wire_plans_arm_exactly_when_a_fault_is_selected() {
        for row in rows().filter(|r| r.quadrant == "wire") {
            let plan = wire_plan_for(row.fault, 3);
            assert_eq!(plan.is_armed(), row.fault != "none", "{row}");
        }
    }

    #[test]
    fn issue_kinds_are_stable_snake_case_labels() {
        let issue = ValidityIssue::IncompleteQueries { outstanding: 3 };
        assert_eq!(issue.kind(), "incomplete_queries");
        let issue = ValidityIssue::ErrorFractionExceeded {
            max_fraction: 0.02,
            observed: 0.5,
        };
        assert_eq!(issue.kind(), "error_fraction_exceeded");
    }

    #[test]
    fn smoke_shard_kill_cell_fails_over_and_stays_valid() {
        let none = run_fleet(&row("fleet/server/none"), 5).unwrap();
        let kill = run_fleet(&row("fleet/server/shard-kill"), 5).unwrap();
        let cells = [none, kill];
        assert_eq!(
            observed(&cells[1], &cells),
            "VALID hash=none down failover test06",
            "the kill was not rescued losslessly, or the victim never went down"
        );
    }

    #[test]
    fn smoke_wire_cell_disconnect_is_rescued_by_resume() {
        let cell = run_wire(&row("wire/offline/disconnect"), 11, None).unwrap();
        assert!(
            !cell.runs[0].kinds.is_empty(),
            "disconnect without resume was VALID"
        );
        assert!(
            cell.runs[1].kinds.is_empty(),
            "disconnect must be rescued by resume"
        );
    }

    /// A cell observing exactly what `row` expects, as a build in which
    /// every expectation holds would produce it.
    fn as_expected(row: Row) -> Cell {
        let mut words = row.expected.split(' ').peekable();
        let mut verdicts = vec![words.next().unwrap()];
        while words.next_if_eq(&"/").is_some() {
            verdicts.push(words.next().unwrap());
        }
        let facts: Vec<String> = words.map(str::to_string).collect();
        let hashed = facts.iter().any(|f| f == "hash=none");
        let runs = verdicts
            .iter()
            .map(|v| {
                let kinds: Vec<String> = match *v {
                    "VALID" => Vec::new(),
                    kinds => kinds.split('+').map(str::to_string).collect(),
                };
                let hash = (hashed && kinds.is_empty()).then(|| "feedface".to_string());
                RunSeen { kinds, hash }
            })
            .collect();
        Cell {
            row,
            runs,
            facts: facts.into_iter().filter(|f| f != "hash=none").collect(),
            json: Some(JsonValue::Null),
        }
    }

    /// Every failure mode the rules exist for, planted one at a time into
    /// an otherwise clean build, fails the check with a message naming the
    /// row — including a shard-kill row without a failover or with a merged
    /// log that fails TEST06, which the committed matrix does not render.
    #[test]
    fn check_names_the_row_of_every_planted_violation() {
        let clean: Vec<Cell> = rows().map(as_expected).collect();
        assert_eq!(violations(&clean, &clean), Vec::<String>::new());
        let at = |name: &str| {
            clean
                .iter()
                .position(|c| c.row.to_string() == name)
                .unwrap()
        };
        type Plant = Box<dyn Fn(&mut Cell)>;
        let drop_fact = |fact: &'static str| -> Plant {
            Box::new(move |c: &mut Cell| c.facts.retain(|f| f != fact))
        };
        let add_fact = |fact: &'static str| -> Plant {
            Box::new(move |c: &mut Cell| c.facts.push(fact.to_string()))
        };
        let kinds = |run: usize, kinds: &'static [&'static str]| -> Plant {
            Box::new(move |c: &mut Cell| {
                c.runs[run].kinds = kinds.iter().map(|k| k.to_string()).collect()
            })
        };
        let hash = |run: usize| -> Plant {
            Box::new(move |c: &mut Cell| c.runs[run].hash = Some("0".into()))
        };
        let planted: [(&str, Plant); 14] = [
            // A local verdict flipped, under either policy.
            ("local/single-stream/death", kinds(0, &[])),
            ("local/server/none", kinds(1, &["latency_bound_exceeded"])),
            ("wire/server/corrupt", drop_fact("roots=issues")),
            // A rescue that lost or duplicated queries.
            ("wire/offline/disconnect", hash(1)),
            ("fleet/server/shard-rejoin", hash(0)),
            ("fleet/server/shard-kill", drop_fact("failover")),
            ("fleet/server/shard-kill", drop_fact("test06")),
            ("fleet/server/shard-kill", add_fact("rejoin")),
            ("fleet/server/shard-degrade", add_fact("down")),
            ("fleet/server/shard-rejoin", drop_fact("rejoin")),
            ("crash/server/client-kill", add_fact("torn")),
            ("crash/server/torn-checkpoint", drop_fact("torn")),
            (
                "crash/server/both-kill",
                Box::new(|c: &mut Cell| c.facts[0] = "ckpt=2".into()),
            ),
            (
                "crash/server/daemon-kill",
                kinds(0, &["incomplete_queries"]),
            ),
        ];
        for (name, plant) in &planted {
            let mut cells = clean.clone();
            plant(&mut cells[at(name)]);
            let failures = violations(&cells, &cells);
            assert!(
                failures.len() == 1 && failures[0].starts_with(&format!("{name}:")),
                "{name}: {failures:?}"
            );
        }
        // Two builds that render different bytes: the message names the
        // row that differs.
        let mut second = clean.clone();
        second[at("wire/server/delay")].json = Some(JsonValue::Bool(true));
        let failures = violations(&clean, &second);
        assert!(
            failures.len() == 1 && failures[0].starts_with("wire/server/delay:"),
            "{failures:?}"
        );
    }
}
