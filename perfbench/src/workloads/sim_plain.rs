//! `sim_plain`: `run_simulated` with nothing attached.
//!
//! Four scenarios × two SUT stacks (a null SUT behind a `MemoryQsl`, and
//! the fleet's `datacenter-gpu` `DeviceSut` on ResNet-50 behind a
//! `TaskQsl`), each at Table IV's 99th-percentile query count. Only
//! `core`, `stats`, `sut::engine` and `models::qsl` do work, so this is
//! the workload every wire, journal and trace change must leave alone.

use super::{
    hash_records, keep_spans, ns_per, null_stack, stage, POPULATION, SERVER_BOUND, SERVER_QPS,
};
use crate::decor::{TimedQsl, TimedSimSut};
use crate::harness::{sample, time_ns, Repeat, Sample, Scale, Workload};
use crate::span::{self_times, SpanLog, NO_PARENT};
use crate::summary::Fnv;
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::des::{run_simulated, RunOutcome};
use mlperf_loadgen::qsl::{MemoryQsl, QuerySampleLibrary};
use mlperf_loadgen::query::{QueryCompletion, SampleCompletion};
use mlperf_loadgen::record::Recorder;
use mlperf_loadgen::results::LatencyStats;
use mlperf_loadgen::scenario::Scenario;
use mlperf_loadgen::schedule::{build_query, sample_indices, server_arrivals};
use mlperf_loadgen::sut::{FixedLatencySut, SimSut};
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::validate::check_run;
use mlperf_models::qsl::TaskQsl;
use mlperf_models::TaskId;
use mlperf_stats::dist::PoissonProcess;
use mlperf_stats::rng::SeedTriple;
use mlperf_stats::{Percentile, Rng64};
use mlperf_sut::{fleet, DeviceSut};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Table IV: queries for a 99th-percentile latency at 99 % confidence.
const QUERIES: u64 = 270_336;
/// Samples per multi-stream query.
const STREAMS: usize = 8;
/// The device stack's server rate: about half of what `datacenter-gpu`
/// sustains on ResNet-50, so the run is VALID with a real queue.
const DEVICE_SERVER_QPS: f64 = 800.0;
const TASK: TaskId = TaskId::ImageClassificationHeavy;

const SCENARIOS: [Scenario; 4] = [
    Scenario::Server,
    Scenario::SingleStream,
    Scenario::MultiStream,
    Scenario::Offline,
];

fn stage_name(scenario: Scenario) -> &'static str {
    match scenario {
        Scenario::Server => "sim_plain.server_ns_per_query",
        Scenario::SingleStream => "sim_plain.single_stream_ns_per_query",
        Scenario::MultiStream => "sim_plain.multi_stream_ns_per_query",
        Scenario::Offline => "sim_plain.offline_ns_per_sample",
    }
}

fn des_self_name(scenario: Scenario) -> &'static str {
    match scenario {
        Scenario::Server => "core.des_self_ns_per_query.server",
        Scenario::SingleStream => "core.des_self_ns_per_query.single_stream",
        Scenario::MultiStream => "core.des_self_ns_per_query.multi_stream",
        Scenario::Offline => "core.des_self_ns_per_sample.offline",
    }
}

/// The settings of one scenario at `queries` queries (offline: samples).
fn settings_for(
    scenario: Scenario,
    (qps, bound): (f64, Nanos),
    queries: u64,
    seeds: SeedTriple,
) -> TestSettings {
    let base = match scenario {
        Scenario::Server => TestSettings::server(qps, bound),
        Scenario::SingleStream => TestSettings::single_stream(),
        Scenario::MultiStream => TestSettings::multi_stream(STREAMS, Nanos::from_millis(50)),
        Scenario::Offline => TestSettings::offline().with_offline_min_sample_count(queries),
    };
    let count = if scenario == Scenario::Offline {
        1
    } else {
        queries
    };
    base.with_min_query_count(count)
        .with_min_duration(Nanos::from_micros(1))
        .with_seeds(seeds)
}

/// The SUT of one run, so both stacks go through one code path while
/// `run_simulated` still sees the concrete types.
enum Stack {
    Null(MemoryQsl, FixedLatencySut),
    Device(TaskQsl, Box<DeviceSut>),
}

struct Cell {
    scenario: Scenario,
    settings: TestSettings,
    stack: Stack,
}

fn run_cell<Q, S>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: &mut S,
    trace: Option<&SpanLog>,
) -> Result<(RunOutcome, f64), String>
where
    Q: QuerySampleLibrary,
    S: SimSut,
{
    let (outcome, wall_ns) = stage(trace, "core.des.run", NO_PARENT, |root| match trace {
        None => run_simulated(settings, qsl, sut),
        Some(log) => run_simulated(
            settings,
            &mut TimedQsl::new(qsl, log, root),
            &mut TimedSimSut::new(sut, log, root),
        ),
    });
    Ok((outcome.map_err(|e| e.to_string())?, wall_ns))
}

impl Cell {
    fn run(&mut self, trace: Option<&SpanLog>) -> Result<(RunOutcome, f64), String> {
        match &mut self.stack {
            Stack::Null(qsl, sut) => run_cell(&self.settings, qsl, sut, trace),
            Stack::Device(qsl, sut) => run_cell(&self.settings, qsl, sut.as_mut(), trace),
        }
    }

    /// Queries the scenario issues; the offline scenario's one query is
    /// counted by its samples.
    fn ops(&self, outcome: &RunOutcome) -> u64 {
        if self.scenario == Scenario::Offline {
            outcome.result.sample_count
        } else {
            outcome.result.query_count
        }
    }
}

/// The `sim_plain` workload.
pub struct SimPlain {
    queries: u64,
    cells: Vec<Cell>,
    /// The null-SUT server outcome of the latest repeat: the probes'
    /// "own inputs".
    server: Option<RunOutcome>,
}

impl Workload for SimPlain {
    const NAME: &'static str = "sim_plain";
    const TRACE_OVERHEAD: &'static str = "sim_plain.trace_overhead_pct";

    fn setup(seed: u64, scale: Scale, _scratch: &Path) -> Result<Self, String> {
        let queries = scale.of(QUERIES, 1_024);
        let seeds = SeedTriple::from_master(seed);
        let gpu = fleet()
            .into_iter()
            .find(|s| s.spec.name == "datacenter-gpu")
            .ok_or("the fleet has no datacenter-gpu")?;
        let device_server = (DEVICE_SERVER_QPS, TASK.spec().server_latency_bound);
        let mut cells = Vec::new();
        for scenario in SCENARIOS {
            cells.push(Cell {
                scenario,
                settings: settings_for(scenario, (SERVER_QPS, SERVER_BOUND), queries, seeds),
                stack: {
                    let (qsl, sut) = null_stack();
                    Stack::Null(qsl, sut)
                },
            });
            cells.push(Cell {
                scenario,
                settings: settings_for(scenario, device_server, queries, seeds),
                stack: Stack::Device(
                    TaskQsl::for_task(TASK, 50_000),
                    Box::new(gpu.sut_for(TASK, scenario)),
                ),
            });
        }
        Ok(SimPlain {
            queries,
            cells,
            server: None,
        })
    }

    fn repeat(&mut self, trace: Option<&Arc<SpanLog>>) -> Result<Repeat, String> {
        let mut r = Repeat::default();
        let mut hash = Fnv::new();
        let (mut wall, mut ops) = (0.0, 0u64);
        // Per scenario, pooled over the two stacks: (wall ns, ops, DES self ns).
        let mut by_scenario = [(0.0f64, 0u64, 0u64); 4];
        // Per stack over the three query scenarios: (SUT busy ns, wake-ups, queries).
        let mut by_stack = [(0u64, 0u64, 0u64); 2];
        let (mut qsl_ns, mut qsl_samples, mut span_ns) = (0u64, 0u64, 0u64);

        let runs = self.cells.len();
        for (i, cell) in self.cells.iter_mut().enumerate() {
            let (outcome, wall_ns) = cell.run(trace.map(Arc::as_ref))?;
            if !outcome.result.is_valid() {
                return Err(format!(
                    "{} run on {} is INVALID: {:?}",
                    cell.scenario, outcome.result.sut_name, outcome.result.validity
                ));
            }
            let cell_ops = cell.ops(&outcome);
            r.failed += outcome.result.error_count;
            hash_records(&mut hash, &outcome.records);
            wall += wall_ns;
            ops += cell_ops;
            let s = &mut by_scenario[i / 2];
            s.0 += wall_ns;
            s.1 += cell_ops;

            if let Some(log) = trace {
                let layers = log.drain(|spans| {
                    keep_spans(&mut r.spans, spans, runs);
                    self_times(spans)
                });
                let get = |name| layers.get(name).copied().unwrap_or_default();
                s.2 += get("core.des.run").self_ns;
                span_ns += layers.values().map(|l| l.self_ns).sum::<u64>();
                if cell.scenario != Scenario::Offline {
                    let k = &mut by_stack[i % 2];
                    k.0 += get("sut.on_query").total_ns + get("sut.on_wakeup").total_ns;
                    k.1 += get("sut.on_wakeup").calls;
                    k.2 += cell_ops;
                }
                if let Stack::Device(qsl, _) = &cell.stack {
                    let (load, unload) = (get("qsl.load_samples"), get("qsl.unload_samples"));
                    qsl_ns += load.total_ns + unload.total_ns;
                    qsl_samples +=
                        (load.calls + unload.calls) * qsl.performance_sample_count() as u64;
                }
            }
            if i == 0 {
                self.server = Some(outcome);
            }
        }

        r.ops = ops;
        r.hash = hash.finish();
        r.headline_ns = wall / ops as f64;
        for (scenario, (wall_ns, ops, des_self)) in SCENARIOS.into_iter().zip(by_scenario) {
            r.samples
                .push(sample(stage_name(scenario), "ns", wall_ns / ops as f64));
            if trace.is_some() {
                r.samples
                    .push(sample(des_self_name(scenario), "ns", ns_per(des_self, ops)));
            }
        }
        if trace.is_some() {
            let [null, device] = by_stack;
            r.samples.extend([
                sample(
                    "sut.sim_busy_ns_per_query.null",
                    "ns",
                    ns_per(null.0, null.2),
                ),
                sample(
                    "sut.sim_busy_ns_per_query.device",
                    "ns",
                    ns_per(device.0, device.2),
                ),
                sample(
                    "sut.sim_wakeups_per_query",
                    "count",
                    ns_per(null.1 + device.1, null.2 + device.2),
                ),
                sample(
                    "models.qsl_load_ns_per_sample",
                    "ns",
                    ns_per(qsl_ns, qsl_samples),
                ),
                sample(
                    "sim_plain.span_coverage_pct",
                    "%",
                    100.0 * span_ns as f64 / wall,
                ),
            ]);
        }
        Ok(r)
    }

    fn probes(&mut self) -> Result<Vec<Sample>, String> {
        let n = self.queries;
        let settings = self.cells[0].settings.clone();
        let server = self.server.as_ref().ok_or("probes ran before a repeat")?;
        let mut out = Vec::new();

        let draws = 4_000_000u64;
        let mut rng = Rng64::new(settings.seeds.schedule_seed);
        let t = time_ns(5, || (0..draws).fold(0u64, |a, _| a ^ rng.next_u64()));
        out.push(sample("stats.rng_next_ns", "ns", t / draws as f64));

        let t = time_ns(5, || {
            PoissonProcess::new(SERVER_QPS, Rng64::new(settings.seeds.schedule_seed))
                .expect("positive rate")
                .take(n as usize)
                .fold(0.0, |_, at| at)
        });
        out.push(sample("stats.poisson_draw_ns", "ns", t / n as f64));

        let latencies: Vec<Nanos> = server.records.iter().filter_map(|r| r.latency()).collect();
        let t = time_ns(5, || Percentile::P99.of(&latencies));
        out.push(sample(
            "stats.percentile_ns_per_sample",
            "ns",
            t / latencies.len() as f64,
        ));

        let t = time_ns(5, || {
            (
                server_arrivals(&settings, n),
                sample_indices(&settings, POPULATION, n),
            )
        });
        out.push(sample("core.schedule_ns_per_query", "ns", t / n as f64));

        // The recorder is fed the workload's own queries and completions,
        // built outside the timed region.
        let arrivals = server_arrivals(&settings, n);
        let indices = sample_indices(&settings, POPULATION, n);
        let mut next_sample_id = 0;
        let queries: Vec<_> = arrivals
            .iter()
            .zip(&indices)
            .enumerate()
            .map(|(id, (at, idx))| build_query(id as u64, &mut next_sample_id, idx, *at))
            .collect();
        let completions: Vec<_> = queries
            .iter()
            .map(|q| {
                let samples = q.samples.iter().map(|s| SampleCompletion {
                    sample_id: s.id,
                    payload: Default::default(),
                });
                QueryCompletion::ok(
                    q.id,
                    q.scheduled_at + Nanos::from_micros(50),
                    samples.collect(),
                )
            })
            .collect();
        let mut failed = None;
        let t = time_ns(5, || {
            let mut recorder = Recorder::new();
            for (q, c) in queries.iter().zip(&completions) {
                let done = recorder
                    .record_issue(q, q.scheduled_at)
                    .and_then(|()| recorder.record_completion(c, |_| false));
                if let Err(e) = done {
                    failed = Some(e.to_string());
                }
            }
            recorder
        });
        if let Some(e) = failed {
            return Err(format!("recorder probe: {e}"));
        }
        out.push(sample("core.record_ns_per_query", "ns", t / n as f64));

        let t = time_ns(5, || {
            let issues = check_run(&settings, &server.records, server.result.duration, 0);
            black_box((issues, LatencyStats::from_latencies(&latencies)))
        });
        out.push(sample(
            "core.validate_ns_per_query",
            "ns",
            t / server.records.len() as f64,
        ));
        Ok(out)
    }
}
