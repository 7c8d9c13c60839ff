//! Chaos harness: a scenario × fault-matrix sweep over the fault-injection
//! layer, reporting which runs stay VALID, which the validity rules catch,
//! and which the resilience policies rescue.
//!
//! ```text
//! chaos [--seed <n>] [--out <path>] [--check] [--wire] [--crash] \
//!       [--flight-dir <dir>] [--analyze]
//! ```
//!
//! Every cell of the matrix runs one scaled-down LoadGen test twice: once
//! against a device wrapped in a [`FaultySut`] armed with the cell's fault
//! plan, and once with a [`ResilientSut`] (timeout, bounded retry, sibling
//! failover) layered on top of the same faulty device. Fault windows are
//! placed relative to the scenario's measured baseline duration, so the
//! same matrix scales across scenarios. Everything is seeded: the same
//! `--seed` yields byte-identical output.
//!
//! `--wire` adds the *network* chaos matrix: scenario × wire fault ×
//! resume on/off, each cell a real LoadGen run over a loopback TCP daemon
//! with a seeded [`WireChaosPlan`] armed on the client transport. The
//! matrix records structured validity-issue kinds (never wall-clock
//! counts) plus an FNV-1a hash of the logical detail log for VALID cells,
//! so both builds of the same seed render byte-identical JSON. With
//! `--flight-dir` every INVALID wire cell additionally leaves a
//! flight-recorder dump — the freshest trace events of the doomed run —
//! for post-mortem inspection, and `--analyze` runs the forensics layer
//! over each dump, leaving a `<dump>.analysis.md` root-cause report
//! beside it.
//!
//! `--wire` also sweeps the *fleet* fault rows: a server-scenario run over
//! three heterogeneous loopback shards behind a weighted `ShardedSut`
//! router, once per shard fault — `none`, `shard-kill` (the victim daemon
//! dies mid-query and the router's failover rescues its in-flight work),
//! `shard-degrade` (one shard's wire delayed, no health transition), and
//! `shard-rejoin` (the killed daemon rebinds its port, the victim link
//! resumes, and the router drains traffic back in under a warm-up cap).
//! Each row records the verdict, the victim's observed health
//! transitions, and the logical-log hash; every fault row's hash must
//! equal the fault-free row's, proving the rescue lossless.
//!
//! `--crash` sweeps the *process-kill* quadrant: a journaled wall-clock
//! run over a loopback daemon is halted at a checkpoint boundary and the
//! involved processes are `SIGKILL`ed — (a) the client, (b) the daemon,
//! (c) both, (d) the client mid-checkpoint-write, leaving a torn journal
//! frame. Client and daemon casualties run as real child processes of
//! this binary (hidden `__crash-client` / `__crash-daemon` subcommands)
//! so the kill severs live sockets exactly like a production crash. Each
//! cell is then rescued: a fresh client resumes from the durable run
//! journal (rolling back the torn frame in cell d) against the surviving
//! or restarted daemon, which re-adopts the session's completion journal
//! from disk. Every rescued run must end VALID with a logical detail log
//! identical to an uninterrupted baseline's — the row records only
//! kill-timing-invariant fields, so the matrix stays byte-reproducible.
//!
//! `--check` is the CI smoke mode: it rebuilds the matrix twice and asserts
//! (1) both builds render to identical bytes, (2) the fault-free baseline is
//! VALID in every scenario, (3) every scenario has at least one fault that
//! flips it to INVALID — the validity rules catch degraded runs — and
//! (4) the resilience policies rescue at least one INVALID cell. With
//! `--wire` it additionally asserts the wire-fault taxonomy lands exactly
//! as documented: corruption/truncation/partition end `ErrorFraction`,
//! an unresumed disconnect ends `IncompleteQueries`, and the same
//! disconnect under a resume policy is rescued to VALID with a logical
//! detail log byte-identical to the fault-free run's.

use mlperf_harness::rig::{dump_flight, issue_kinds, Rebind, Rig, Wired};
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::des::run_simulated;
use mlperf_loadgen::journal::{load_run_journal, JournalConfig};
use mlperf_loadgen::qsl::{MemoryQsl, QuerySampleLibrary};
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
use mlperf_trace::crc::fnv1a64;
use mlperf_trace::{JsonValue, RingBufferSink, ToJson, TraceEvent};
use mlperf_wire::{RemoteSutConfig, ResumePolicy, ServeConfig, WireChaosPlan};
use std::io::{BufRead, BufReader, Write as _};
use std::path::Path;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: chaos [--seed <n>] [--out <path>] [--check] [--wire] [--crash] \
     [--flight-dir <dir>] [--analyze]";

const SCENARIOS: [Scenario; 4] = [
    Scenario::SingleStream,
    Scenario::MultiStream,
    Scenario::Server,
    Scenario::Offline,
];

/// Fault configurations, parameterized by the scenario's baseline duration
/// so windows land inside the run regardless of its simulated length.
const FAULT_CASES: [&str; 6] = [
    "none",
    "transient-errors",
    "latency-spikes",
    "stall",
    "throttle",
    "death",
];

fn plan_for(case: &str, seed: u64, horizon: Nanos) -> FaultPlan {
    let at = |f: f64| Nanos::from_secs_f64(horizon.as_secs_f64() * f);
    let plan = FaultPlan::new(seed);
    match case {
        "none" => plan,
        "transient-errors" => plan.with_transient_errors(0.10),
        "latency-spikes" => plan.with_latency_spikes(0.05, 25.0),
        "stall" => plan.with_stall(at(0.3), at(0.1)),
        "throttle" => plan.with_throttle(at(0.2), at(0.5), 6.0),
        "death" => plan.with_death_at(at(0.5)),
        other => unreachable!("unknown fault case {other}"),
    }
}

fn scenario_label(s: Scenario) -> &'static str {
    match s {
        Scenario::SingleStream => "single-stream",
        Scenario::MultiStream => "multistream",
        Scenario::Server => "server",
        Scenario::Offline => "offline",
    }
}

/// Scaled-down settings per scenario: long enough for fault windows to
/// matter, short enough for a CI smoke stage. `max_error_fraction` arms the
/// error-fraction validity rule everywhere.
fn settings_for(scenario: Scenario) -> TestSettings {
    let settings = match scenario {
        Scenario::SingleStream => TestSettings::single_stream()
            .with_min_query_count(1_024)
            .with_min_duration(Nanos::from_millis(500)),
        Scenario::MultiStream => TestSettings::multi_stream(8, Nanos::from_millis(50))
            .with_min_query_count(64)
            .with_min_duration(Nanos::from_millis(1)),
        Scenario::Server => TestSettings::server(800.0, Nanos::from_millis(15))
            .with_min_query_count(1_024)
            .with_min_duration(Nanos::from_secs(1)),
        Scenario::Offline => TestSettings::offline()
            .with_offline_min_sample_count(4_096)
            .with_min_duration(Nanos::from_millis(1)),
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
        shed_threshold: None,
    }
}

#[derive(Debug, Clone)]
struct Cell {
    scenario: Scenario,
    fault: &'static str,
    faulty_valid: bool,
    faulty_errors: u64,
    faulty_issues: Vec<String>,
    resilient_valid: bool,
    resilient_errors: u64,
    resilient_issues: Vec<String>,
}

fn run_cell(
    scenario: Scenario,
    fault: &'static str,
    seed: u64,
    horizon: Nanos,
) -> Result<Cell, String> {
    let settings = settings_for(scenario);
    let plan = plan_for(fault, seed, horizon);

    let mut qsl = MemoryQsl::new("chaos-qsl", 1_024, 1_024);
    let mut faulty = FaultySut::new(device_sut(scenario), plan.clone());
    let faulty_out = run_simulated(&settings, &mut qsl, &mut faulty).map_err(|e| {
        format!(
            "{} / {fault}: faulty run failed: {e}",
            scenario_label(scenario)
        )
    })?;

    let mut qsl = MemoryQsl::new("chaos-qsl", 1_024, 1_024);
    let spare = FaultySut::new(device_sut(scenario), FaultPlan::new(seed ^ 0x5AFE));
    let mut resilient = ResilientSut::new(
        FaultySut::new(device_sut(scenario), plan),
        policy_for(scenario, horizon),
    )
    .with_sibling(spare);
    let resilient_out = run_simulated(&settings, &mut qsl, &mut resilient).map_err(|e| {
        format!(
            "{} / {fault}: resilient run failed: {e}",
            scenario_label(scenario)
        )
    })?;

    Ok(Cell {
        scenario,
        fault,
        faulty_valid: faulty_out.result.is_valid(),
        faulty_errors: faulty_out.result.error_count,
        faulty_issues: faulty_out
            .result
            .validity
            .iter()
            .map(|i| i.to_string())
            .collect(),
        resilient_valid: resilient_out.result.is_valid(),
        resilient_errors: resilient_out.result.error_count,
        resilient_issues: resilient_out
            .result
            .validity
            .iter()
            .map(|i| i.to_string())
            .collect(),
    })
}

/// The network fault taxonomy: one label per `WireChaosPlan` knob the
/// matrix exercises. Each hits a deterministic frame index (or every
/// frame), so heartbeat interleaving cannot shift which logical frame is
/// faulted.
const WIRE_FAULT_CASES: [&str; 7] = [
    "none",
    "corrupt",
    "truncate",
    "duplicate",
    "delay",
    "partition",
    "disconnect",
];

/// Client-side wire chaos per fault case. Frame 1 outbound is the Hello
/// and frame 1 inbound the HelloAck; frame 2 is the post-handshake clock
/// probe (outbound) or its ack (inbound) on a v3 link, so a frame-2 fault
/// hits the link before any query traffic and a frame-1 partition
/// blackholes everything after the handshake.
fn wire_plan_for(case: &str, seed: u64) -> WireChaosPlan {
    let plan = WireChaosPlan::new(seed);
    match case {
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
fn wire_settings(seed: u64) -> [(&'static str, TestSettings); 2] {
    let seeds = SeedTriple::from_master(seed);
    [
        (
            "offline",
            TestSettings::offline()
                .with_offline_min_sample_count(256)
                .with_min_duration(Nanos::ZERO)
                .with_max_error_fraction(0.02)
                .with_seeds(seeds),
        ),
        (
            "server",
            TestSettings::server(200.0, Nanos::from_millis(500))
                .with_min_query_count(40)
                .with_min_duration(Nanos::from_millis(100))
                .with_max_error_fraction(0.02)
                .with_seeds(seeds),
        ),
    ]
}

/// FNV-1a over a run's logical per-query records
/// ([`QueryRecord::logical`](mlperf_loadgen::record::QueryRecord::logical)).
/// Two VALID runs of the same seed hash identically, whatever the wire did.
fn logical_hash(records: &[mlperf_loadgen::record::QueryRecord]) -> String {
    let mut text = String::new();
    for r in records {
        use std::fmt::Write as _;
        let (id, scheduled_at_ns, sample_count, error) = r.logical();
        let _ = write!(text, "{id},{scheduled_at_ns},{sample_count},{error};");
    }
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

#[derive(Debug, Clone)]
struct WireRun {
    valid: bool,
    /// Sorted, deduplicated issue kinds.
    issues: Vec<String>,
    /// Constraint kinds the analysis subsystem recovered from the trace
    /// alone (sorted, deduplicated); empty for VALID runs. `--check`
    /// asserts these match `issues` — a seeded INVALID cell must yield a
    /// root cause naming the actual injected fault's constraint.
    root_constraints: Vec<String>,
    /// FNV-1a of the logical detail log; only for VALID runs, where the
    /// log is deterministic (id, scheduled time, sample count, error flag
    /// per query, in issue order).
    log_hash: Option<String>,
}

#[derive(Debug, Clone)]
struct WireCell {
    scenario: &'static str,
    fault: &'static str,
    plain: WireRun,
    resumed: WireRun,
}

impl WireCell {
    fn rescued(&self) -> bool {
        !self.plain.valid && self.resumed.valid
    }
}

/// One wire run: a fresh loopback daemon, a chaos-armed client, a real
/// LoadGen run over TCP. The run is traced into a merged sink (client
/// spans, wire events, and — when the link survives to drain — server
/// spans); if the run ends INVALID and `flight_dir` is set, the freshest
/// events are dumped for post-mortem inspection.
fn run_wire(
    scenario: &'static str,
    settings: &TestSettings,
    fault: &'static str,
    resume: bool,
    seed: u64,
    flight_dir: Option<&str>,
    analyze: bool,
) -> Result<WireRun, String> {
    let mut qsl = MemoryQsl::new("wire-chaos-qsl", 64, 64);
    // The partition is one-way outbound: only heartbeat loss can prove the
    // peer unreachable, so that cell runs an aggressive heartbeat. Every
    // other cell spaces heartbeats out past the deterministic fault frames.
    let (interval, grace) = if fault == "partition" {
        (Duration::from_millis(15), Duration::from_millis(75))
    } else {
        (Duration::from_millis(200), Duration::from_secs(2))
    };
    let mut config = RemoteSutConfig::default()
        .with_response_timeout(Duration::from_secs(5))
        .with_heartbeat(interval, grace)
        .with_chaos(wire_plan_for(fault, seed));
    if resume {
        config = config.with_resume(ResumePolicy {
            max_attempts: 5,
            backoff: Duration::from_millis(30),
        });
    }
    let cell = |e: String| format!("{scenario} / {fault}: {e}");
    let serve = |_| ServeConfig::default();
    let rig = Rig::spawn("wire-chaos-dev", &[Nanos::from_micros(200)], serve).map_err(cell)?;
    let sink = Arc::new(RingBufferSink::unbounded());
    let wired = rig
        .connect(
            settings,
            qsl.total_sample_count() as u64,
            |_| config.clone(),
            BalancePolicy::WeightedThroughput,
            Some(sink.clone()),
            None,
        )
        .map_err(cell)?;
    let out = wired
        .run(settings)
        .run(&mut qsl, Arc::clone(&wired.sut))
        .map_err(|e| format!("{scenario} / {fault}: run failed: {e}"))?;
    wired.drain();

    let valid = out.result.is_valid();
    let mut root_constraints = Vec::new();
    if !valid {
        let records = sink.snapshot();
        // The forensics layer must recover the violated constraints from
        // the trace alone (the ValidityCheckFailed events the finalizer
        // recorded), with no peek at the structured outcome.
        let texts = mlperf_analysis::issue_texts(&records);
        root_constraints = mlperf_analysis::root_causes(&records, &texts)
            .iter()
            .map(|c| c.constraint.to_string())
            .collect();
        root_constraints.sort();
        root_constraints.dedup();
        if let Some(dir) = flight_dir {
            let reason = format!(
                "wire cell INVALID: scenario={scenario} fault={fault} resume={resume}: {:?}",
                out.result.validity
            );
            let suffix = if resume { "_resumed" } else { "" };
            let path = format!("{dir}/chaos_flight_{scenario}_{fault}{suffix}.jsonl");
            dump_flight(&path, &reason, &records, analyze);
        }
    }
    Ok(WireRun {
        valid,
        issues: issue_kinds(&out.result),
        root_constraints,
        log_hash: valid.then(|| logical_hash(&out.records)),
    })
}

fn build_wire_matrix(
    seed: u64,
    flight_dir: Option<&str>,
    analyze: bool,
) -> Result<Vec<WireCell>, String> {
    let mut cells = Vec::new();
    for (scenario, settings) in wire_settings(seed) {
        for fault in WIRE_FAULT_CASES {
            let plain = run_wire(scenario, &settings, fault, false, seed, flight_dir, analyze)?;
            let resumed = run_wire(scenario, &settings, fault, true, seed, flight_dir, analyze)?;
            cells.push(WireCell {
                scenario,
                fault,
                plain,
                resumed,
            });
        }
    }
    Ok(cells)
}

/// The fleet fault taxonomy swept over the sharded-router run.
const SHARD_FAULT_CASES: [&str; 4] = ["none", "shard-kill", "shard-degrade", "shard-rejoin"];

/// Heterogeneous per-sample service times for the three fleet shards.
/// The weighted policy balances by the reciprocal, so the fastest shard
/// carries most of the traffic.
const SHARD_PER_SAMPLE: [Nanos; 3] = [
    Nanos::from_micros(100),
    Nanos::from_micros(200),
    Nanos::from_micros(400),
];

/// One row of the fleet fault matrix. Every field is deterministic under
/// a fixed seed: the health transitions are forced (the watcher kills the
/// victim only while it has a query in flight, and the rejoin rebind
/// happens well inside the run), and the logical-log hash covers only
/// the seeded schedule.
#[derive(Debug, Clone)]
struct ShardCell {
    scenario: &'static str,
    fault: &'static str,
    valid: bool,
    issues: Vec<String>,
    log_hash: Option<String>,
    /// The victim shard transitioned to `down` in the router's log.
    down_seen: bool,
    /// The victim transitioned back through `rejoin` (rebind faults only).
    rejoined: bool,
}

/// One fleet run: three heterogeneous loopback daemons behind a weighted
/// `ShardedSut` router (one [`Rig`]), with the cell's shard fault injected
/// mid-run.
fn run_shard_cell(fault: &'static str, seed: u64) -> Result<ShardCell, String> {
    let [_, (scenario, settings)] = wire_settings(seed);
    let mut qsl = MemoryQsl::new("shard-chaos-qsl", 64, 64);
    let sink = Arc::new(RingBufferSink::unbounded());
    let victim = seed as usize % SHARD_PER_SAMPLE.len();

    let cell = |e: String| format!("{scenario} / {fault}: {e}");
    let serve = |_| ServeConfig::default();
    let mut rig = Rig::spawn("shard-chaos-dev", &SHARD_PER_SAMPLE, serve).map_err(cell)?;

    // The kill cell wants fast link-death detection so in-flight queries
    // vanish and fail over; the rejoin cell instead retries long enough
    // to outlive the victim's down window and resume onto the rebound
    // daemon (which replays the held queries).
    let resume = if fault == "shard-rejoin" {
        ResumePolicy {
            max_attempts: 8,
            backoff: Duration::from_millis(20),
        }
    } else {
        ResumePolicy {
            max_attempts: 2,
            backoff: Duration::from_millis(10),
        }
    };
    let config = |i: usize| {
        let config = RemoteSutConfig::default().with_resume(resume);
        if fault == "shard-degrade" && i == victim {
            let slow = WireChaosPlan::new(seed).with_delay_recv(Duration::from_millis(3));
            return config.with_chaos(slow);
        }
        config
    };
    let wired = rig
        .connect(
            &settings,
            qsl.total_sample_count() as u64,
            config,
            BalancePolicy::WeightedThroughput,
            Some(sink.clone()),
            None,
        )
        .map_err(cell)?;

    let mut run = || wired.run(&settings).run(&mut qsl, Arc::clone(&wired.sut));
    let mut rebound = Ok(());
    let out = match fault {
        // Kill on the victim's first query in flight. A run that ends
        // before the watcher strikes shows up as a row with no `down`.
        "shard-kill" => wired.run_watched(victim, 1, || rig.kill(victim), run).0,
        // Kill, then rebind the same port with a fresh daemon after a down
        // window long enough for the router to notice.
        "shard-rejoin" => {
            let strike = || {
                rig.kill(victim);
                std::thread::sleep(Duration::from_millis(60));
                rebound = rig.respawn(victim, Rebind::SameAddress);
            };
            wired.run_watched(victim, 1, strike, run).0
        }
        _ => run(),
    }
    .map_err(|e| format!("{scenario} / {fault}: fleet run failed: {e}"))?;
    rebound.map_err(cell)?;
    wired.drain();

    let victim_label = rig.label(victim);
    let mut down_seen = false;
    let mut rejoined = false;
    for record in sink.snapshot() {
        if let TraceEvent::ShardEvent { shard, kind, .. } = &record.event {
            if *shard == victim_label {
                match kind.as_str() {
                    "down" => down_seen = true,
                    "rejoin" => rejoined = true,
                    _ => {}
                }
            }
        }
    }

    let valid = out.result.is_valid();
    Ok(ShardCell {
        scenario,
        fault,
        valid,
        issues: issue_kinds(&out.result),
        log_hash: valid.then(|| logical_hash(&out.records)),
        down_seen,
        rejoined,
    })
}

fn build_shard_matrix(seed: u64) -> Result<Vec<ShardCell>, String> {
    SHARD_FAULT_CASES
        .iter()
        .map(|fault| run_shard_cell(fault, seed))
        .collect()
}

fn build_matrix(seed: u64) -> Result<Vec<Cell>, String> {
    let mut cells = Vec::new();
    for scenario in SCENARIOS {
        // The fault-free baseline both fills the first matrix column and
        // measures the horizon the fault windows are placed against.
        let settings = settings_for(scenario);
        let mut qsl = MemoryQsl::new("chaos-qsl", 1_024, 1_024);
        let mut base = device_sut(scenario);
        let baseline = run_simulated(&settings, &mut qsl, &mut base)
            .map_err(|e| format!("{}: baseline run failed: {e}", scenario_label(scenario)))?;
        let horizon = baseline.result.duration;
        for fault in FAULT_CASES {
            cells.push(run_cell(scenario, fault, seed, horizon)?);
        }
    }
    Ok(cells)
}

fn wire_run_json(run: &WireRun) -> JsonValue {
    JsonValue::object(vec![
        ("valid", run.valid.to_json_value()),
        (
            "issues",
            JsonValue::Array(run.issues.iter().map(|i| i.to_json_value()).collect()),
        ),
        (
            "root_constraints",
            JsonValue::Array(
                run.root_constraints
                    .iter()
                    .map(|i| i.to_json_value())
                    .collect(),
            ),
        ),
        (
            "log_hash",
            match &run.log_hash {
                Some(h) => h.to_json_value(),
                None => JsonValue::Null,
            },
        ),
    ])
}

fn shard_cell_json(c: &ShardCell) -> JsonValue {
    JsonValue::object(vec![
        ("scenario", c.scenario.to_json_value()),
        ("fault", c.fault.to_json_value()),
        ("valid", c.valid.to_json_value()),
        (
            "issues",
            JsonValue::Array(c.issues.iter().map(|i| i.to_json_value()).collect()),
        ),
        (
            "log_hash",
            match &c.log_hash {
                Some(h) => h.to_json_value(),
                None => JsonValue::Null,
            },
        ),
        ("down_seen", c.down_seen.to_json_value()),
        ("rejoined", c.rejoined.to_json_value()),
    ])
}

/// One build of everything the flags select: the device-fault matrix
/// always, the wire and fleet matrices with `--wire`, the crash quadrant
/// with `--crash`.
struct Matrices {
    cells: Vec<Cell>,
    wire: Option<Vec<WireCell>>,
    shard: Option<Vec<ShardCell>>,
    crash: Option<Vec<CrashCell>>,
}

/// Builds the selected matrices, in the order they are reported. `tag`
/// keeps the two builds' crash directories apart.
fn build_all(
    seed: u64,
    wire_mode: bool,
    crash_mode: bool,
    flight_dir: Option<&str>,
    analyze: bool,
    tag: &str,
) -> Result<Matrices, String> {
    let cells = build_matrix(seed)?;
    let (wire, shard) = if wire_mode {
        let wire = build_wire_matrix(seed, flight_dir, analyze)?;
        (Some(wire), Some(build_shard_matrix(seed)?))
    } else {
        (None, None)
    };
    let crash = if crash_mode {
        Some(build_crash_matrix(seed, tag)?)
    } else {
        None
    };
    Ok(Matrices {
        cells,
        wire,
        shard,
        crash,
    })
}

fn render_json(seed: u64, matrices: &Matrices) -> String {
    let Matrices {
        cells,
        wire,
        shard,
        crash,
    } = matrices;
    let rows = cells
        .iter()
        .map(|c| {
            JsonValue::object(vec![
                ("scenario", scenario_label(c.scenario).to_json_value()),
                ("fault", c.fault.to_json_value()),
                ("faulty_valid", c.faulty_valid.to_json_value()),
                ("faulty_errors", c.faulty_errors.to_json_value()),
                (
                    "faulty_issues",
                    JsonValue::Array(c.faulty_issues.iter().map(|i| i.to_json_value()).collect()),
                ),
                ("resilient_valid", c.resilient_valid.to_json_value()),
                ("resilient_errors", c.resilient_errors.to_json_value()),
                (
                    "resilient_issues",
                    JsonValue::Array(
                        c.resilient_issues
                            .iter()
                            .map(|i| i.to_json_value())
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let mut fields = vec![
        ("seed", seed.to_json_value()),
        ("rows", JsonValue::Array(rows)),
    ];
    if let Some(wire_cells) = wire {
        let wire_rows = wire_cells
            .iter()
            .map(|c| {
                JsonValue::object(vec![
                    ("scenario", c.scenario.to_json_value()),
                    ("fault", c.fault.to_json_value()),
                    ("plain", wire_run_json(&c.plain)),
                    ("resumed", wire_run_json(&c.resumed)),
                    ("rescued", c.rescued().to_json_value()),
                ])
            })
            .collect();
        fields.push(("wire_rows", JsonValue::Array(wire_rows)));
    }
    if let Some(shard_cells) = shard {
        fields.push((
            "shard_rows",
            JsonValue::Array(shard_cells.iter().map(shard_cell_json).collect()),
        ));
    }
    if let Some(crash_cells) = crash {
        fields.push((
            "crash_rows",
            JsonValue::Array(crash_cells.iter().map(crash_cell_json).collect()),
        ));
    }
    let doc = JsonValue::object(fields);
    let mut text = doc.to_pretty();
    text.push('\n');
    text
}

fn render_wire_table(cells: &[WireCell]) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "\n{:<10} {:<12} {:<10} {:<10} NOTES\n",
        "SCENARIO", "WIRE FAULT", "PLAIN", "RESUMED"
    );
    for c in cells {
        let verdict = |v: bool| if v { "VALID" } else { "INVALID" };
        let note = if c.rescued() {
            "rescued by resume".to_string()
        } else if let Some(issue) = c.plain.issues.first() {
            issue.clone()
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "{:<10} {:<12} {:<10} {:<10} {}",
            c.scenario,
            c.fault,
            verdict(c.plain.valid),
            verdict(c.resumed.valid),
            note
        );
    }
    out
}

fn render_shard_table(cells: &[ShardCell]) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "\n{:<10} {:<14} {:<10} {:<6} {:<8} NOTES\n",
        "SCENARIO", "SHARD FAULT", "VERDICT", "DOWN", "REJOIN"
    );
    for c in cells {
        let note = match c.fault {
            "shard-kill" if c.valid && c.down_seen => "in-flight queries failed over",
            "shard-rejoin" if c.valid && c.rejoined => "drained back under warm-up cap",
            "shard-degrade" if c.valid => "absorbed by the fleet",
            _ => "",
        };
        let _ = writeln!(
            out,
            "{:<10} {:<14} {:<10} {:<6} {:<8} {}",
            c.scenario,
            c.fault,
            if c.valid { "VALID" } else { "INVALID" },
            if c.down_seen { "yes" } else { "no" },
            if c.rejoined { "yes" } else { "no" },
            note
        );
    }
    out
}

/// The fleet-matrix CI assertions, cell by cell: every fault row must
/// stay VALID with a logical log byte-identical to the fault-free row's
/// (the hashes match), and the victim's health transitions must land
/// exactly as the fault dictates.
fn check_shard(cells: &[ShardCell]) -> Vec<String> {
    let mut failures = Vec::new();
    let cell = |fault: &str| {
        cells
            .iter()
            .find(|c| c.fault == fault)
            .expect("shard matrix covers every fault case")
    };
    let none = cell("none");
    if !none.valid {
        failures.push(format!(
            "fleet/none: fault-free sharded baseline is INVALID ({:?})",
            none.issues
        ));
    }
    if none.down_seen || none.rejoined {
        failures.push("fleet/none: health transitions fired with no fault injected".to_string());
    }
    for fault in ["shard-kill", "shard-degrade", "shard-rejoin"] {
        let c = cell(fault);
        if !c.valid {
            failures.push(format!(
                "fleet/{fault}: run is INVALID — the router failed to absorb the fault \
                 ({:?})",
                c.issues
            ));
        }
        if c.valid && c.log_hash != none.log_hash {
            failures.push(format!(
                "fleet/{fault}: logical log diverged from the fault-free row \
                 ({:?} vs {:?}) — the rescue lost or duplicated queries",
                c.log_hash, none.log_hash
            ));
        }
    }
    let kill = cell("shard-kill");
    if !kill.down_seen {
        failures.push("fleet/shard-kill: the killed shard never transitioned to down".to_string());
    }
    if kill.rejoined {
        failures.push("fleet/shard-kill: a permanently dead shard rejoined".to_string());
    }
    let degrade = cell("shard-degrade");
    if degrade.down_seen || degrade.rejoined {
        failures.push(
            "fleet/shard-degrade: a slow-but-alive shard triggered a health transition".to_string(),
        );
    }
    let rejoin = cell("shard-rejoin");
    if !rejoin.down_seen {
        failures.push(
            "fleet/shard-rejoin: the victim never transitioned to down before the rebind"
                .to_string(),
        );
    }
    if !rejoin.rejoined {
        failures
            .push("fleet/shard-rejoin: the rebound daemon never rejoined the rotation".to_string());
    }
    failures
}

fn render_table(cells: &[Cell]) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{:<14} {:<17} {:<10} {:<11} NOTES\n",
        "SCENARIO", "FAULT", "FAULTY", "RESILIENT"
    );
    for c in cells {
        let verdict = |v: bool| if v { "VALID" } else { "INVALID" };
        let note = if !c.faulty_valid && c.resilient_valid {
            "recovered".to_string()
        } else if let Some(issue) = c.faulty_issues.first() {
            issue.clone()
        } else if c.faulty_errors > 0 {
            format!("{} errors tolerated", c.faulty_errors)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "{:<14} {:<17} {:<10} {:<11} {}",
            scenario_label(c.scenario),
            c.fault,
            verdict(c.faulty_valid),
            verdict(c.resilient_valid),
            note
        );
    }
    out
}

/// The CI assertions. Returns the list of violated expectations.
fn check(seed: u64, cells: &[Cell], first: &str, second: &str) -> Vec<String> {
    let mut failures = Vec::new();
    if first != second {
        failures.push(format!(
            "matrix is not reproducible: two builds with seed {seed} rendered differently"
        ));
    }
    for scenario in SCENARIOS {
        let label = scenario_label(scenario);
        let of_scenario: Vec<&Cell> = cells.iter().filter(|c| c.scenario == scenario).collect();
        let baseline = of_scenario
            .iter()
            .find(|c| c.fault == "none")
            .expect("matrix has a baseline row per scenario");
        if !baseline.faulty_valid {
            failures.push(format!("{label}: fault-free baseline is INVALID"));
        }
        if !baseline.resilient_valid {
            failures.push(format!(
                "{label}: fault-free baseline under the resilience policy is INVALID \
                 (the recovery hooks are not free)"
            ));
        }
        if !of_scenario.iter().any(|c| !c.faulty_valid) {
            failures.push(format!(
                "{label}: no fault configuration flipped the run to INVALID — \
                 the validity rules missed every degraded run"
            ));
        }
    }
    if !cells.iter().any(|c| !c.faulty_valid && c.resilient_valid) {
        failures.push("no INVALID cell was rescued by the resilience policies".to_string());
    }
    failures
}

/// The wire-matrix CI assertions: the fault taxonomy must land exactly as
/// the docs promise, in every wire scenario.
fn check_wire(cells: &[WireCell]) -> Vec<String> {
    let mut failures = Vec::new();
    let cell = |scenario: &str, fault: &str| {
        cells
            .iter()
            .find(|c| c.scenario == scenario && c.fault == fault)
            .expect("wire matrix covers every scenario × fault")
    };
    let has = |run: &WireRun, kind: &str| run.issues.iter().any(|i| i == kind);
    for (scenario, _) in wire_settings(0) {
        let none = cell(scenario, "none");
        if !none.plain.valid || !none.resumed.valid {
            failures.push(format!(
                "{scenario}: fault-free wire baseline is INVALID (plain={}, resumed={})",
                none.plain.valid, none.resumed.valid
            ));
        }
        for fault in ["corrupt", "truncate", "partition"] {
            let c = cell(scenario, fault);
            if c.plain.valid || !has(&c.plain, "error_fraction_exceeded") {
                failures.push(format!(
                    "{scenario}/{fault}: expected error_fraction_exceeded without resume, \
                     got valid={} issues={:?}",
                    c.plain.valid, c.plain.issues
                ));
            }
        }
        let disco = cell(scenario, "disconnect");
        if disco.plain.valid || !has(&disco.plain, "incomplete_queries") {
            failures.push(format!(
                "{scenario}/disconnect: expected incomplete_queries without resume, \
                 got valid={} issues={:?}",
                disco.plain.valid, disco.plain.issues
            ));
        }
        if !disco.rescued() {
            failures.push(format!(
                "{scenario}/disconnect: reconnect+resume failed to rescue the run \
                 (resumed issues={:?})",
                disco.resumed.issues
            ));
        }
        // The rescue must be lossless: the resumed run's logical detail
        // log is byte-identical to the fault-free run's.
        if disco.resumed.valid && disco.resumed.log_hash != none.plain.log_hash {
            failures.push(format!(
                "{scenario}/disconnect: resumed logical log diverged from the \
                 fault-free baseline ({:?} vs {:?})",
                disco.resumed.log_hash, none.plain.log_hash
            ));
        }
        for fault in ["duplicate", "delay"] {
            let c = cell(scenario, fault);
            if !c.plain.valid || !c.resumed.valid {
                failures.push(format!(
                    "{scenario}/{fault}: a tolerable wire fault turned the run INVALID \
                     (plain={} {:?}, resumed={} {:?})",
                    c.plain.valid, c.plain.issues, c.resumed.valid, c.resumed.issues
                ));
            }
        }
    }
    // Forensics: every INVALID cell's root-cause analysis must recover
    // exactly the violated constraints from the trace alone.
    for c in cells {
        for (label, run) in [("plain", &c.plain), ("resumed", &c.resumed)] {
            if !run.valid && run.root_constraints != run.issues {
                failures.push(format!(
                    "{}/{} ({label}): analysis named constraints {:?} but the run's \
                     validity issues are {:?}",
                    c.scenario, c.fault, run.root_constraints, run.issues
                ));
            }
        }
    }
    if !cells.iter().any(WireCell::rescued) {
        failures.push("no INVALID wire cell was rescued by reconnect+resume".to_string());
    }
    failures
}

/// The process-kill quadrant: which process dies after the run's journal
/// reaches checkpoint [`CRASH_HALT_AT`].
const CRASH_CASES: [&str; 4] = ["client-kill", "daemon-kill", "both-kill", "torn-checkpoint"];

/// Queries per checkpoint frame in the crash quadrant.
const CRASH_CHECKPOINT_EVERY: u64 = 8;

/// Checkpoint seq the victim halts at before the kill: mid-run, with
/// queries both recorded and outstanding.
const CRASH_HALT_AT: u64 = 1;

/// Settings every crash cell (and the uninterrupted baseline) shares; the
/// issue stream stops on schedule-derived conditions, so the logical
/// detail log is a pure function of the seed.
fn crash_settings(seed: u64) -> TestSettings {
    TestSettings::server(400.0, Nanos::from_millis(250))
        .with_min_query_count(32)
        .with_min_duration(Nanos::from_millis(10))
        .with_max_error_fraction(0.02)
        .with_seeds(SeedTriple::from_master(seed ^ 0xC8A5))
}

fn crash_qsl() -> MemoryQsl {
    MemoryQsl::new("crash-qsl", 64, 64)
}

/// A rig of one crash-quadrant daemon keeping disk session journals
/// under `journal_dir`.
fn crash_rig(journal_dir: &Path) -> Result<Rig, String> {
    Rig::spawn("crash-dev", &[Nanos::from_micros(200)], |_| {
        ServeConfig::default().with_journal_dir(journal_dir)
    })
}

/// Connects the crash-quadrant client to the daemon of `rig` — one this
/// process spawned, or ([`Rig::over`]) a child process's.
fn crash_connect(
    rig: &Rig,
    settings: &TestSettings,
    config: RemoteSutConfig,
) -> Result<Wired, String> {
    let policy = BalancePolicy::WeightedThroughput;
    rig.connect(settings, 64, |_| config.clone(), policy, None, None)
        .map_err(|e| format!("crash client: {e}"))
}

/// One row of the crash matrix. Only kill-timing-invariant facts are
/// recorded — verdicts, hashes, journal forensics — never wall-clock
/// counts, so two builds of the same seed render identically.
#[derive(Debug, Clone)]
struct CrashCell {
    cell: &'static str,
    /// Which processes the quadrant killed.
    killed: &'static str,
    /// Checkpoint seq the journal had reached when the kill landed.
    halt_checkpoint: u64,
    /// The resume found a torn frame at the journal tail and rolled back.
    torn_detected: bool,
    /// The rescued run's verdict.
    valid: bool,
    /// FNV-1a of the rescued run's logical detail log.
    log_hash: Option<String>,
    /// The rescued log equals the uninterrupted baseline's.
    hash_equal: bool,
}

/// Hidden subcommand: a crash-quadrant daemon child. Serves on an
/// ephemeral port with a disk session journal, reports the address on
/// stdout, then parks until the parent SIGKILLs it.
fn crash_daemon_child(args: &[String]) -> ExitCode {
    let [journal_dir] = args else {
        eprintln!("__crash-daemon <journal-dir>");
        return ExitCode::FAILURE;
    };
    let rig = match crash_rig(Path::new(journal_dir)) {
        Ok(rig) => rig,
        Err(e) => {
            eprintln!("crash daemon cannot serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("ADDR {}", rig.addr(0));
    let _ = std::io::stdout().flush();
    loop {
        std::thread::sleep(Duration::from_secs(3_600));
    }
}

/// Hidden subcommand: a crash-quadrant client child. Runs a fresh
/// journaled run halted at [`CRASH_HALT_AT`] (tearing the final frame
/// when asked), reports the halt on stdout, then parks — sockets open,
/// no drain — until the parent SIGKILLs it.
fn crash_client_child(args: &[String]) -> ExitCode {
    let [addr, journal, torn, seed] = args else {
        eprintln!("__crash-client <addr> <journal> <torn 0|1> <seed>");
        return ExitCode::FAILURE;
    };
    let Ok(seed) = seed.parse::<u64>() else {
        eprintln!("bad seed `{seed}`");
        return ExitCode::FAILURE;
    };
    let settings = crash_settings(seed);
    let mut qsl = crash_qsl();
    let wired = match crash_connect(&Rig::over(addr), &settings, RemoteSutConfig::default()) {
        Ok(wired) => wired,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = JournalConfig::new(journal)
        .with_checkpoint_every(CRASH_CHECKPOINT_EVERY)
        .with_halt_after(CRASH_HALT_AT)
        .with_epoch_source(wired.clients[0].epoch_source());
    if torn == "1" {
        cfg = cfg.with_torn_halt();
    }
    let sut = Arc::clone(&wired.sut);
    match Run::wall_clock(&settings).journal(&cfg).run(&mut qsl, sut) {
        Ok(JournaledRun::Halted { checkpoint }) => {
            println!("HALTED {checkpoint}");
            let _ = std::io::stdout().flush();
            loop {
                std::thread::sleep(Duration::from_secs(3_600));
            }
        }
        Ok(JournaledRun::Finished(_)) => {
            eprintln!("crash client finished instead of halting");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("crash client run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Spawns a chaos child process running the hidden `subcommand`, returning
/// it plus the first word-suffixed line it prints (`ADDR <addr>` /
/// `HALTED <seq>`).
fn spawn_crash_child(
    subcommand: &str,
    args: &[&str],
    expect: &str,
) -> Result<(Child, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .arg(subcommand)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {subcommand}: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("{subcommand} produced no status line: {e}"))?;
    let Some(value) = line.trim().strip_prefix(expect).map(str::trim) else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!(
            "{subcommand}: expected `{expect} ...`, got `{}`",
            line.trim()
        ));
    };
    Ok((child, value.to_string()))
}

/// SIGKILLs and reaps a crash child — the unceremonious death the
/// quadrant is about.
fn kill_crash_child(mut child: Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// Halts a journaled run at [`CRASH_HALT_AT`] inside this process, then
/// severs the connection without drain (the daemon keeps the session).
/// Used by the daemon-kill cell, where the client survives as a process
/// but its run is interrupted by the daemon's death.
fn halt_in_parent(addr: &str, journal: &Path, seed: u64) -> Result<u64, String> {
    let settings = crash_settings(seed);
    let mut qsl = crash_qsl();
    let wired = crash_connect(&Rig::over(addr), &settings, RemoteSutConfig::default())?;
    let cfg = JournalConfig::new(journal)
        .with_checkpoint_every(CRASH_CHECKPOINT_EVERY)
        .with_halt_after(CRASH_HALT_AT)
        .with_epoch_source(wired.clients[0].epoch_source());
    let run = Run::wall_clock(&settings)
        .journal(&cfg)
        .run(&mut qsl, Arc::clone(&wired.sut))
        .map_err(|e| format!("crash halt run failed: {e}"))?;
    wired.clients[0].abandon();
    match run {
        JournaledRun::Halted { checkpoint } => Ok(checkpoint),
        JournaledRun::Finished(_) => Err("crash halt run finished instead of halting".into()),
    }
}

/// Resumes the journaled run at `journal` against the daemon of `rig`,
/// returning the journal's pre-resume forensics plus the rescued verdict
/// and logical hash.
fn resume_crash_run(
    rig: &Rig,
    journal: &Path,
    seed: u64,
) -> Result<(bool, bool, Option<String>), String> {
    let settings = crash_settings(seed);
    let mut qsl = crash_qsl();
    let loaded = load_run_journal(journal).map_err(|e| format!("load crash journal: {e}"))?;
    let torn_detected = loaded.torn.is_some();
    let epoch = loaded.last.as_ref().map_or(0, |cp| cp.epoch);
    let config = RemoteSutConfig::default().with_initial_epoch(epoch + 1);
    let wired = crash_connect(rig, &settings, config)?;
    let cfg = JournalConfig::new(journal)
        .with_checkpoint_every(CRASH_CHECKPOINT_EVERY)
        .with_epoch_source(wired.clients[0].epoch_source());
    let out = Run::wall_clock(&settings)
        .resume(&cfg)
        .run(&mut qsl, Arc::clone(&wired.sut))
        .map_err(|e| format!("crash resume failed: {e}"))?
        .finished()
        .ok_or("crash resume halted instead of finishing")?;
    let valid = out.result.is_valid();
    let hash = valid.then(|| logical_hash(&out.records));
    Ok((torn_detected, valid, hash))
}

/// The uninterrupted baseline every rescued cell must hash-match.
fn crash_baseline(seed: u64, dir: &Path) -> Result<String, String> {
    let settings = crash_settings(seed);
    let mut qsl = crash_qsl();
    let rig = crash_rig(&dir.join("baseline-daemon"))
        .map_err(|e| format!("crash baseline daemon: {e}"))?;
    let wired = crash_connect(&rig, &settings, RemoteSutConfig::default())?;
    let cfg = JournalConfig::new(dir.join("baseline.mlpj"))
        .with_checkpoint_every(CRASH_CHECKPOINT_EVERY)
        .with_epoch_source(wired.clients[0].epoch_source());
    let out = Run::wall_clock(&settings)
        .journal(&cfg)
        .run(&mut qsl, Arc::clone(&wired.sut))
        .map_err(|e| format!("crash baseline run failed: {e}"))?
        .finished()
        .ok_or("crash baseline halted")?;
    if !out.result.is_valid() {
        return Err(format!(
            "crash baseline is INVALID: {:?}",
            out.result.validity
        ));
    }
    Ok(logical_hash(&out.records))
}

/// Runs one crash cell: interrupt at the checkpoint, kill the quadrant's
/// victims, restart what died, resume, compare against the baseline.
fn run_crash_cell(
    cell: &'static str,
    seed: u64,
    dir: &Path,
    baseline_hash: &str,
) -> Result<CrashCell, String> {
    let journal = dir.join(format!("{cell}.mlpj"));
    let journal_text = journal.display().to_string();
    let daemon_dir = dir.join(format!("{cell}-daemon"));
    let daemon_dir_text = daemon_dir.display().to_string();
    let seed_text = seed.to_string();
    let (killed, halt_checkpoint, rig, successor) = match cell {
        // The client dies holding live sockets; the daemon survives with
        // the session in memory.
        "client-kill" | "torn-checkpoint" => {
            let torn = cell == "torn-checkpoint";
            let rig = crash_rig(&daemon_dir).map_err(|e| format!("{cell}: daemon: {e}"))?;
            let (client_child, halted) = spawn_crash_child(
                "__crash-client",
                &[
                    rig.addr(0),
                    &journal_text,
                    if torn { "1" } else { "0" },
                    &seed_text,
                ],
                "HALTED",
            )?;
            let halt_checkpoint: u64 = halted
                .parse()
                .map_err(|_| format!("{cell}: bad HALTED line `{halted}`"))?;
            kill_crash_child(client_child);
            let killed = if torn {
                "client (mid-checkpoint-write)"
            } else {
                "client"
            };
            (killed, halt_checkpoint, rig, None)
        }
        // The daemon dies (alone or with the client); its successor
        // re-adopts the session's completion journal from disk.
        "daemon-kill" | "both-kill" => {
            let (daemon_child, addr) =
                spawn_crash_child("__crash-daemon", &[&daemon_dir_text], "ADDR")?;
            let halt_checkpoint = if cell == "both-kill" {
                let (client_child, halted) = spawn_crash_child(
                    "__crash-client",
                    &[&addr, &journal_text, "0", &seed_text],
                    "HALTED",
                )?;
                let halt: u64 = halted
                    .parse()
                    .map_err(|_| format!("{cell}: bad HALTED line `{halted}`"))?;
                kill_crash_child(client_child);
                halt
            } else {
                halt_in_parent(&addr, &journal, seed)?
            };
            kill_crash_child(daemon_child);
            let (successor, addr) =
                spawn_crash_child("__crash-daemon", &[&daemon_dir_text], "ADDR")?;
            let killed = if cell == "both-kill" {
                "client + daemon"
            } else {
                "daemon"
            };
            (killed, halt_checkpoint, Rig::over(&addr), Some(successor))
        }
        other => unreachable!("unknown crash cell {other}"),
    };
    let resumed = resume_crash_run(&rig, &journal, seed);
    drop(rig);
    if let Some(child) = successor {
        kill_crash_child(child);
    }
    let (torn_detected, valid, log_hash) = resumed?;
    let hash_equal = log_hash.as_deref() == Some(baseline_hash);
    Ok(CrashCell {
        cell,
        killed,
        halt_checkpoint,
        torn_detected,
        valid,
        log_hash,
        hash_equal,
    })
}

fn build_crash_matrix(seed: u64, tag: &str) -> Result<Vec<CrashCell>, String> {
    let dir = std::env::temp_dir().join(format!("mlperf-chaos-crash-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("crash dir {}: {e}", dir.display()))?;
    let result = (|| {
        let baseline = crash_baseline(seed, &dir)?;
        CRASH_CASES
            .iter()
            .map(|cell| run_crash_cell(cell, seed, &dir, &baseline))
            .collect::<Result<Vec<_>, _>>()
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn render_crash_table(cells: &[CrashCell]) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "\n{:<17} {:<28} {:<5} {:<6} {:<9} HASH\n",
        "CRASH CELL", "KILLED", "CKPT", "TORN", "VERDICT"
    );
    for c in cells {
        let _ = writeln!(
            out,
            "{:<17} {:<28} {:<5} {:<6} {:<9} {}",
            c.cell,
            c.killed,
            c.halt_checkpoint,
            if c.torn_detected { "yes" } else { "no" },
            if c.valid { "VALID" } else { "INVALID" },
            if c.hash_equal {
                "= baseline"
            } else {
                "DIVERGED"
            },
        );
    }
    out
}

fn crash_cell_json(c: &CrashCell) -> JsonValue {
    JsonValue::object(vec![
        ("cell", c.cell.to_json_value()),
        ("killed", c.killed.to_json_value()),
        ("halt_checkpoint", c.halt_checkpoint.to_json_value()),
        ("torn_detected", c.torn_detected.to_json_value()),
        ("valid", c.valid.to_json_value()),
        (
            "log_hash",
            match &c.log_hash {
                Some(h) => h.to_json_value(),
                None => JsonValue::Null,
            },
        ),
        ("hash_equal", c.hash_equal.to_json_value()),
    ])
}

/// The crash-matrix CI assertions: every kill is rescued losslessly, and
/// the torn cell actually exercised torn-tail rollback.
fn check_crash(cells: &[CrashCell]) -> Vec<String> {
    let mut failures = Vec::new();
    for c in cells {
        if !c.valid {
            failures.push(format!("crash/{}: the rescued run is INVALID", c.cell));
        }
        if !c.hash_equal {
            failures.push(format!(
                "crash/{}: the rescued logical log diverged from the uninterrupted \
                 baseline ({:?})",
                c.cell, c.log_hash
            ));
        }
        let expect_torn = c.cell == "torn-checkpoint";
        if c.torn_detected != expect_torn {
            failures.push(format!(
                "crash/{}: torn_detected={} (the kill-during-checkpoint cell, and only \
                 it, must leave a torn journal tail)",
                c.cell, c.torn_detected
            ));
        }
        if c.halt_checkpoint != CRASH_HALT_AT {
            failures.push(format!(
                "crash/{}: halted at checkpoint {} instead of {CRASH_HALT_AT}",
                c.cell, c.halt_checkpoint
            ));
        }
    }
    if cells.len() != CRASH_CASES.len() {
        failures.push(format!(
            "crash matrix has {} rows, expected {}",
            cells.len(),
            CRASH_CASES.len()
        ));
    }
    failures
}

fn main() -> ExitCode {
    let _flight = mlperf_harness::panic_guard::install("chaos");
    let mut seed = 0xC4A05u64;
    let mut out_path: Option<String> = None;
    let mut check_mode = false;
    let mut wire_mode = false;
    let mut analyze_mode = false;
    let mut crash_mode = false;
    let mut flight_dir: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden crash-quadrant worker subcommands: these processes exist to
    // be SIGKILLed by the parent sweep.
    match args.first().map(String::as_str) {
        Some("__crash-daemon") => return crash_daemon_child(&args[1..]),
        Some("__crash-client") => return crash_client_child(&args[1..]),
        _ => {}
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--flight-dir" => {
                let Some(v) = it.next() else {
                    eprintln!("--flight-dir needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                flight_dir = Some(v.clone());
            }
            "--seed" => {
                let Some(v) = it.next() else {
                    eprintln!("--seed needs a value\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                seed = match v.parse() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("--seed needs an integer, got `{v}`\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--out" => {
                let Some(v) = it.next() else {
                    eprintln!("--out needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                out_path = Some(v.clone());
            }
            "--check" => check_mode = true,
            "--wire" => wire_mode = true,
            "--crash" => crash_mode = true,
            "--analyze" => analyze_mode = true,
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let flight = flight_dir.as_deref();
    let built = match build_all(seed, wire_mode, crash_mode, flight, analyze_mode, "a") {
        Ok(built) => built,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let rendered = render_json(seed, &built);
    let Matrices {
        cells,
        wire: wire_cells,
        shard: shard_cells,
        crash: crash_cells,
    } = &built;
    print!("{}", render_table(cells));
    let invalid = cells.iter().filter(|c| !c.faulty_valid).count();
    let recovered = cells
        .iter()
        .filter(|c| !c.faulty_valid && c.resilient_valid)
        .count();
    println!(
        "\n{} cells, {invalid} INVALID under faults, {recovered} recovered by resilience (seed {seed})",
        cells.len()
    );
    if let Some(wire_cells) = wire_cells {
        print!("{}", render_wire_table(wire_cells));
        let invalid = wire_cells.iter().filter(|c| !c.plain.valid).count();
        let rescued = wire_cells.iter().filter(|c| c.rescued()).count();
        println!(
            "\n{} wire cells, {invalid} INVALID without resume, {rescued} rescued by reconnect+resume",
            wire_cells.len()
        );
    }
    if let Some(shard_cells) = shard_cells {
        print!("{}", render_shard_table(shard_cells));
        let survived = shard_cells
            .iter()
            .filter(|c| c.fault != "none" && c.valid)
            .count();
        println!(
            "\n{} fleet cells, {survived} shard faults absorbed by the router",
            shard_cells.len()
        );
    }
    if let Some(crash_cells) = crash_cells {
        print!("{}", render_crash_table(crash_cells));
        let rescued = crash_cells
            .iter()
            .filter(|c| c.valid && c.hash_equal)
            .count();
        println!(
            "\n{} crash cells, {rescued} rescued losslessly from the run journal",
            crash_cells.len()
        );
    }

    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote chaos matrix to {path}");
    }

    if check_mode {
        // The rebuild skips flight dumps: the first build already wrote
        // them, and the reproducibility check only compares the JSON.
        let again = match build_all(seed, wire_mode, crash_mode, None, false, "b") {
            Ok(again) => render_json(seed, &again),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let mut failures = check(seed, cells, &rendered, &again);
        if let Some(wire_cells) = wire_cells {
            failures.extend(check_wire(wire_cells));
        }
        if let Some(shard_cells) = shard_cells {
            failures.extend(check_shard(shard_cells));
        }
        if let Some(crash_cells) = crash_cells {
            failures.extend(check_crash(crash_cells));
        }
        if failures.is_empty() {
            println!("chaos check: all expectations hold");
        } else {
            for failure in &failures {
                eprintln!("chaos check FAILED: {failure}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_loadgen::validate::ValidityIssue;

    #[test]
    fn every_scenario_has_settings_and_plans() {
        for scenario in SCENARIOS {
            let s = settings_for(scenario);
            assert!(s.max_error_fraction > 0.0);
            for fault in FAULT_CASES {
                let plan = plan_for(fault, 1, Nanos::from_secs(1));
                assert_eq!(plan.is_armed(), fault != "none");
            }
        }
    }

    #[test]
    fn smoke_cell_runs_and_death_invalidates() {
        let cell = run_cell(Scenario::Server, "death", 7, Nanos::from_secs(1)).unwrap();
        assert!(!cell.faulty_valid, "death left the server run VALID");
    }

    #[test]
    fn wire_plans_arm_exactly_when_a_fault_is_selected() {
        for fault in WIRE_FAULT_CASES {
            let plan = wire_plan_for(fault, 3);
            assert_eq!(plan.is_armed(), fault != "none", "fault {fault}");
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
        let cell = run_shard_cell("shard-kill", 5).unwrap();
        assert!(cell.valid, "kill cell INVALID: {:?}", cell.issues);
        assert!(cell.down_seen, "victim never went down");
        assert!(!cell.rejoined, "a dead shard cannot rejoin");
        let none = run_shard_cell("none", 5).unwrap();
        assert_eq!(cell.log_hash, none.log_hash, "rescue was not lossless");
    }

    #[test]
    fn smoke_wire_cell_disconnect_is_rescued_by_resume() {
        let [(scenario, settings), _] = wire_settings(11);
        let plain = run_wire(scenario, &settings, "disconnect", false, 11, None, false).unwrap();
        let resumed = run_wire(scenario, &settings, "disconnect", true, 11, None, false).unwrap();
        let cell = WireCell {
            scenario,
            fault: "disconnect",
            plain,
            resumed,
        };
        assert!(cell.rescued(), "disconnect must be rescued by resume");
    }
}
