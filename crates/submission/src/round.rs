//! The synthetic v0.5 submission round.
//!
//! Generates the result corpus the paper's evaluation section aggregates:
//! closed-division submissions whose task/scenario mix is calibrated to the
//! observed Table VI distribution (which submitters run is *vendor choice*,
//! an empirical input — see EXPERIMENTS.md), whose *performance numbers*
//! come from real LoadGen runs over the simulated fleet, plus a tranche of
//! rule-violating submissions for the review stage and an open-division
//! population (429 results in the paper).

use crate::record::{ResultRecord, ReviewStatus};
use crate::types::{Category, Division, SystemDescription};
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::des::run_simulated;
use mlperf_loadgen::find_peak::{find_peak_multistream, find_peak_server_qps, PeakSearchOptions};
use mlperf_loadgen::requirements::{min_query_count, QosClass};
use mlperf_loadgen::results::TestResult;
use mlperf_loadgen::scenario::Scenario;
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::Instruments;
use mlperf_models::proxy::{ClassifierProxy, DetectorProxy, Precision, TranslatorProxy};
use mlperf_models::qsl::TaskQsl;
use mlperf_models::{TaskId, Workload};
use mlperf_stats::Rng64;
use mlperf_sut::fleet::{fleet, FleetSystem, MarketSegment};
use std::collections::HashMap;
use std::sync::Arc;

/// Observed closed-division released-result counts per task ×
/// `[single-stream, multistream, server, offline]` — the paper's Table VI.
pub const TABLE_VI_PLAN: [(TaskId, [usize; 4]); 5] = [
    (TaskId::ImageClassificationHeavy, [19, 5, 10, 20]),
    (TaskId::ImageClassificationLight, [18, 3, 5, 11]),
    (TaskId::ObjectDetectionHeavy, [4, 4, 7, 12]),
    (TaskId::ObjectDetectionLight, [8, 3, 5, 13]),
    (TaskId::MachineTranslation, [2, 0, 6, 11]),
];

/// Controls for round generation.
#[derive(Debug, Clone)]
pub struct RoundConfig {
    /// Master seed for all round-level choices.
    pub seed: u64,
    /// Scales the Table V minimum query counts (1.0 = official).
    pub query_scale: f64,
    /// Minimum run duration (60 s official).
    pub min_duration: Nanos,
    /// Duration used during peak searches before the final validation run.
    pub search_duration: Nanos,
    /// How many open-division records to generate (paper: 429).
    pub open_division_count: usize,
    /// How many rule-violating closed submissions to inject (paper saw
    /// ~40 issues; ~14 results were withheld from release).
    pub violation_count: usize,
    /// Worker threads for run execution.
    pub threads: usize,
    /// Samples per proxy dataset when measuring task qualities.
    pub quality_samples: usize,
    /// Server runs last at least this many latency bounds, so queue
    /// divergence at overload has time to surface (30 for realistic runs;
    /// smoke profiles shrink it for speed).
    pub divergence_bounds: f64,
}

impl RoundConfig {
    /// The official profile: Table V counts, 60-second runs.
    pub fn official(seed: u64) -> Self {
        Self {
            seed,
            query_scale: 1.0,
            min_duration: Nanos::from_secs(60),
            search_duration: Nanos::from_secs(2),
            open_division_count: 429,
            violation_count: 14,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            quality_samples: 300,
            divergence_bounds: 30.0,
        }
    }

    /// A fast profile for tests and smoke runs.
    pub fn smoke(seed: u64) -> Self {
        Self {
            seed,
            query_scale: 0.002,
            min_duration: Nanos::from_millis(5),
            search_duration: Nanos::from_millis(5),
            open_division_count: 8,
            violation_count: 3,
            threads: 2,
            quality_samples: 40,
            divergence_bounds: 3.0,
        }
    }

    fn scaled_queries(&self, scenario: Scenario, qos: QosClass) -> u64 {
        if scenario == Scenario::Offline {
            // Table V: offline is always exactly one query.
            return 1;
        }
        let base = min_query_count(scenario, qos);
        ((base as f64 * self.query_scale) as u64).max(8)
    }

    fn scaled_offline_samples(&self) -> u64 {
        ((24_576.0 * self.query_scale) as u64).max(64)
    }
}

/// The generated corpus.
#[derive(Debug, Clone)]
pub struct SubmissionRound {
    /// All submitted records (closed + open), review status `Pending`.
    pub records: Vec<ResultRecord>,
    /// Measured proxy qualities per task: `(fp32, int8)`.
    pub task_qualities: HashMap<TaskId, (f64, f64)>,
}

impl SubmissionRound {
    /// Records in a division.
    pub fn division(&self, division: Division) -> impl Iterator<Item = &ResultRecord> {
        self.records.iter().filter(move |r| r.division == division)
    }
}

/// Measures FP32/INT8 quality for every task with the runnable proxies.
pub fn measure_task_qualities(seed: u64, samples: usize) -> HashMap<TaskId, (f64, f64)> {
    let mut out = HashMap::new();
    for task in [
        TaskId::ImageClassificationHeavy,
        TaskId::ImageClassificationLight,
    ] {
        let proxy = ClassifierProxy::new(task, samples, seed ^ task as u64);
        out.insert(
            task,
            (
                proxy.accuracy(Precision::Fp32),
                proxy.accuracy(Precision::Quantized),
            ),
        );
    }
    for task in [TaskId::ObjectDetectionHeavy, TaskId::ObjectDetectionLight] {
        let proxy = DetectorProxy::new(task, (samples / 3).max(20), seed ^ task as u64);
        out.insert(
            task,
            (proxy.map(Precision::Fp32), proxy.map(Precision::Quantized)),
        );
    }
    let translator = TranslatorProxy::new((samples / 2).max(30), seed ^ 0x6d74);
    out.insert(
        TaskId::MachineTranslation,
        (
            translator.bleu(Precision::Fp32),
            translator.bleu(Precision::Quantized),
        ),
    );
    out
}

/// Whether a system can physically meet the scenario's latency rules for
/// a task: worst-case single-sample latency (plus batching delay for
/// server) must fit inside the bound with headroom. Mirrors how real
/// vendors only submit combinations their silicon can sustain.
fn capable(system: &FleetSystem, task: TaskId, scenario: Scenario) -> bool {
    match scenario {
        Scenario::Server => system.can_serve(task),
        Scenario::MultiStream => system.can_multistream(task),
        Scenario::SingleStream | Scenario::Offline => true,
    }
}

/// Whether a system's segment plausibly submits this task × scenario.
fn eligible(system: &FleetSystem, task: TaskId, scenario: Scenario) -> bool {
    use MarketSegment::*;
    let seg = system.segment;
    let heavy = matches!(
        task,
        TaskId::ObjectDetectionHeavy | TaskId::MachineTranslation
    );
    if heavy && seg == Embedded {
        return false;
    }
    if task == TaskId::MachineTranslation && seg == Mobile {
        return false;
    }
    match scenario {
        Scenario::Server => matches!(seg, Edge | Datacenter),
        Scenario::MultiStream => !matches!(seg, Embedded),
        Scenario::SingleStream | Scenario::Offline => true,
    }
}

#[derive(Debug, Clone)]
struct Planned {
    id: u64,
    system: FleetSystem,
    config_index: u32,
    division: Division,
    category: Category,
    task: TaskId,
    scenario: Scenario,
    precision: Precision,
    notes: String,
}

fn dataset_total(task: TaskId) -> usize {
    match task {
        TaskId::ImageClassificationHeavy | TaskId::ImageClassificationLight => 50_000,
        TaskId::ObjectDetectionHeavy | TaskId::ObjectDetectionLight => 5_000,
        TaskId::MachineTranslation => 3_903,
    }
}

fn pick_category(rng: &mut Rng64) -> Category {
    let u = rng.next_f64();
    if u < 0.72 {
        Category::Available
    } else if u < 0.89 {
        Category::Preview
    } else {
        Category::Rdo
    }
}

fn pick_precision(rng: &mut Rng64, quantized_meets_window: bool) -> Precision {
    // Numerics are the submitter's choice (Section IV-A): vendors whose
    // quantized variant misses the quality window submit FP32 instead —
    // nobody ships a result the checker will reject.
    if quantized_meets_window && rng.next_bool(0.75) {
        Precision::Quantized
    } else {
        Precision::Fp32
    }
}

fn describe(system: &FleetSystem, config_index: u32) -> SystemDescription {
    let suffix = if config_index == 0 {
        String::new()
    } else {
        format!("-cfg{config_index}")
    };
    let (cpus, mem) = match system.segment {
        MarketSegment::Embedded => (1, 1),
        MarketSegment::Mobile => (8, 6),
        MarketSegment::Edge => (8, 32),
        MarketSegment::Datacenter => (64, 384),
    };
    SystemDescription {
        system_name: format!("{}{}", system.spec.name, suffix),
        vendor: system.vendor.to_string(),
        framework: system.framework.to_string(),
        architecture: system.spec.architecture.to_string(),
        accelerator_count: system.spec.units as u32,
        cpu_count: cpus,
        memory_gib: mem,
    }
}

/// Builds the full plan: Table VI-calibrated closed submissions plus the
/// open-division population.
fn plan_round(config: &RoundConfig, qualities: &HashMap<TaskId, (f64, f64)>) -> Vec<Planned> {
    let meets_window = |task: TaskId| {
        let (fp32, quant) = qualities[&task];
        fp32 > 0.0
            && mlperf_models::QualityTarget::for_task_with_reference(task, fp32).is_met(quant)
    };
    let systems = fleet();
    let mut rng = Rng64::new(config.seed ^ 0x706c_616e);
    let mut plan = Vec::new();
    let mut next_id = 0u64;
    let mut config_counter: HashMap<String, u32> = HashMap::new();
    let scenarios = [
        Scenario::SingleStream,
        Scenario::MultiStream,
        Scenario::Server,
        Scenario::Offline,
    ];
    for (task, counts) in TABLE_VI_PLAN {
        for (scenario, count) in scenarios.iter().zip(counts) {
            let pool: Vec<&FleetSystem> = systems
                .iter()
                .filter(|s| eligible(s, task, *scenario) && capable(s, task, *scenario))
                .collect();
            assert!(
                !pool.is_empty(),
                "no eligible system for {task:?} {scenario}"
            );
            for _ in 0..count {
                let system = pool[rng.next_index(pool.len())].clone();
                let key = format!("{}|{task:?}|{scenario}", system.spec.name);
                let entry = config_counter.entry(key).or_insert(0);
                let config_index = *entry;
                *entry += 1;
                plan.push(Planned {
                    id: next_id,
                    system,
                    config_index,
                    division: Division::Closed,
                    category: pick_category(&mut rng),
                    task,
                    scenario: *scenario,
                    precision: pick_precision(&mut rng, meets_window(task)),
                    notes: String::new(),
                });
                next_id += 1;
            }
        }
    }
    // Open division: single-stream and offline over eligible pairs, with
    // deviation notes (Section VI-E highlights).
    let open_notes = [
        "4-bit quantization of the reference model",
        "alternative model architecture for the task",
        "tighter latency bound than the closed rules",
        "multiple accelerators used concurrently",
        "custom pre/post-processing pipeline",
    ];
    for i in 0..config.open_division_count {
        let scenario = if rng.next_bool(0.5) {
            Scenario::SingleStream
        } else {
            Scenario::Offline
        };
        let task = TaskId::ALL[rng.next_index(TaskId::ALL.len())];
        let pool: Vec<&FleetSystem> = systems
            .iter()
            .filter(|s| eligible(s, task, scenario))
            .collect();
        let system = pool[rng.next_index(pool.len())].clone();
        plan.push(Planned {
            id: next_id,
            system,
            config_index: 1000 + i as u32,
            division: Division::Open,
            category: pick_category(&mut rng),
            task,
            scenario,
            // Open division declares its own targets; any numerics go.
            precision: pick_precision(&mut rng, true),
            notes: open_notes[rng.next_index(open_notes.len())].to_string(),
        });
        next_id += 1;
    }
    plan
}

fn base_settings(config: &RoundConfig, task: TaskId, scenario: Scenario) -> TestSettings {
    let spec = task.spec();
    let qos = spec.qos;
    let percentile = match qos {
        QosClass::Vision => mlperf_stats::Percentile::P99,
        QosClass::Translation => mlperf_stats::Percentile::P97,
    };
    let settings = match scenario {
        Scenario::SingleStream => TestSettings::single_stream(),
        Scenario::MultiStream => TestSettings::multi_stream(1, spec.multistream_interval),
        Scenario::Server => TestSettings::server(1.0, spec.server_latency_bound),
        Scenario::Offline => {
            TestSettings::offline().with_offline_min_sample_count(config.scaled_offline_samples())
        }
    };
    settings
        .with_min_query_count(config.scaled_queries(scenario, qos))
        .with_min_duration(config.min_duration)
        .with_latency_percentile(percentile)
}

/// Executes one planned run, producing a scored record.
fn run_one(
    planned: &Planned,
    config: &RoundConfig,
    qualities: &HashMap<TaskId, (f64, f64)>,
) -> ResultRecord {
    let task = planned.task;
    let mut qsl = TaskQsl::for_task(task, dataset_total(task));
    let mut sut = planned.system.sut_for(task, planned.scenario);
    let settings = base_settings(config, task, planned.scenario);
    let workload = Workload::new(task);
    let result: TestResult = match planned.scenario {
        Scenario::SingleStream => {
            run_simulated(&settings, &mut qsl, &mut sut)
                .expect("well-formed settings and SUT")
                .result
        }
        Scenario::Offline => {
            // Offline must run the full duration *and* keep every unit
            // saturated: size the query to the expected rate with a floor
            // of many chunks per execution unit.
            let spec_dev = planned.system.spec.tuned_for(workload.mean_ops(1_024));
            let expected = spec_dev.peak_throughput(workload.mean_ops(1_024));
            let chunk_floor = (spec_dev.units * spec_dev.max_batch * 100) as u64;
            let samples =
                ((expected * settings.min_duration.as_secs_f64() * 1.3) as u64).max(chunk_floor);
            let settings = settings
                .clone()
                .with_offline_min_sample_count(settings.offline_min_sample_count.max(samples));
            run_simulated(&settings, &mut qsl, &mut sut)
                .expect("well-formed settings and SUT")
                .result
        }
        Scenario::MultiStream => {
            // Search at a scaled query count (the N bisection is the
            // expensive part: official trials carry 270K queries of N
            // samples each); validate the winner at full length, stepping
            // down if the long run's tail disagrees.
            let search_queries =
                (settings.min_query_count / 32).clamp(256, settings.min_query_count.max(256));
            let search = settings
                .clone()
                .with_min_query_count(search_queries)
                .with_min_duration(config.search_duration.min(settings.min_duration));
            let options = PeakSearchOptions {
                relative_tolerance: 0.05,
                max_runs: 24,
            };
            match find_peak_multistream(&search, &mut qsl, &mut sut, options, &Instruments::none())
                .expect("well-formed settings")
                .converged()
            {
                Some(peak) => {
                    let mut streams = peak.peak as usize;
                    let mut last = None;
                    for _ in 0..4 {
                        let final_settings =
                            settings.clone().with_samples_per_query(streams.max(1));
                        let outcome = run_simulated(&final_settings, &mut qsl, &mut sut)
                            .expect("well-formed settings and SUT");
                        let valid = outcome.result.is_valid();
                        last = Some(outcome.result);
                        if valid || streams <= 1 {
                            break;
                        }
                        streams = (streams * 9 / 10).max(1);
                    }
                    last.expect("at least one validation run")
                }
                None => {
                    // The system cannot sustain one stream: submit the
                    // 1-stream run as is (review will reject it).
                    run_simulated(&settings, &mut qsl, &mut sut)
                        .expect("well-formed settings and SUT")
                        .result
                }
            }
        }
        Scenario::Server => {
            let guess = planned
                .system
                .spec
                .tuned_for(workload.mean_ops(1_024))
                .peak_throughput(workload.mean_ops(1_024))
                * 0.5;
            // Long enough for queue divergence to surface at overload —
            // what the 60-second rule guarantees in official runs.
            let divergence_window = Nanos::from_secs_f64(
                task.spec().server_latency_bound.as_secs_f64() * config.divergence_bounds,
            );
            let search = settings
                .clone()
                .with_min_duration(
                    config
                        .search_duration
                        .min(settings.min_duration)
                        .max(divergence_window),
                )
                .with_server_target_qps(guess.max(0.5));
            let options = PeakSearchOptions {
                relative_tolerance: 0.05,
                max_runs: 24,
            };
            // Systems are capability-prechecked, but a search can still
            // fail on marginal systems; fall back to a token rate and let
            // review handle the (invalid) result.
            let peak_qps =
                find_peak_server_qps(&search, &mut qsl, &mut sut, options, &Instruments::none())
                    .ok()
                    .and_then(|o| o.peak())
                    .unwrap_or(0.5);
            // Final validation run at the found rate, backing off on
            // failure (longer runs see more tail).
            let mut qps = peak_qps;
            let mut last = None;
            for _ in 0..5 {
                let final_settings = settings
                    .clone()
                    .with_min_duration(settings.min_duration.max(divergence_window))
                    .with_server_target_qps(qps);
                let outcome = run_simulated(&final_settings, &mut qsl, &mut sut)
                    .expect("well-formed settings and SUT");
                let valid = outcome.result.is_valid();
                last = Some(outcome.result);
                if valid {
                    break;
                }
                qps *= 0.93;
            }
            last.expect("at least one validation run")
        }
    };
    let (fp32, int8) = qualities[&task];
    let measured = match planned.precision {
        Precision::Fp32 => fp32,
        Precision::Quantized => int8,
    };
    ResultRecord {
        id: planned.id,
        division: planned.division,
        category: planned.category,
        system: describe(&planned.system, planned.config_index),
        model_name: task.spec().model_name.to_string(),
        scenario: planned.scenario,
        result,
        measured_quality: measured,
        reference_quality: fp32,
        status: ReviewStatus::Pending,
        notes: planned.notes.clone(),
    }
}

/// Injects rule-violating closed submissions by corrupting clean ones.
fn inject_violations(records: &mut Vec<ResultRecord>, config: &RoundConfig, next_id: u64) {
    let closed: Vec<usize> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.division == Division::Closed)
        .map(|(i, _)| i)
        .collect();
    if closed.is_empty() {
        return;
    }
    let mut rng = Rng64::new(config.seed ^ 0x0bad_5eed);
    for v in 0..config.violation_count {
        let source = &records[closed[rng.next_index(closed.len())]];
        let mut bad = source.clone();
        bad.id = next_id + v as u64;
        bad.system.system_name = format!("{}-viol{v}", bad.system.system_name);
        bad.status = ReviewStatus::Pending;
        match v % 3 {
            0 => {
                // Missed the quality target.
                bad.measured_quality = bad.reference_quality * 0.9;
            }
            1 => {
                if bad.scenario == Scenario::Offline {
                    // Offline's only count rule is the 24,576-sample
                    // minimum; shortchange it.
                    bad.result.sample_count = 10_000;
                } else {
                    // Ran too few queries for Table V (512 is below even
                    // the single-stream minimum of 1,024).
                    bad.result.query_count = bad.result.query_count.min(512);
                }
            }
            _ => {
                // Stopped before the 60-second minimum duration.
                bad.result.duration = Nanos::from_secs(30);
            }
        }
        records.push(bad);
    }
}

/// Generates the full round: plans, executes runs (in parallel), and
/// injects the violation tranche. All records come back `Pending`.
pub fn generate_round(config: &RoundConfig) -> SubmissionRound {
    let qualities = Arc::new(measure_task_qualities(config.seed, config.quality_samples));
    let plan = plan_round(config, &qualities);
    let next_id = plan.len() as u64;
    let threads = config.threads.max(1);
    let mut records: Vec<ResultRecord> = if threads == 1 {
        plan.iter()
            .map(|p| run_one(p, config, &qualities))
            .collect()
    } else {
        // Round-robin assignment: expensive runs (official-length server
        // finals) cluster in the plan, so contiguous chunks leave one
        // straggler thread grinding alone.
        let mut chunks: Vec<Vec<Planned>> = vec![Vec::new(); threads];
        for (i, p) in plan.iter().enumerate() {
            chunks[i % threads].push(p.clone());
        }
        let mut out: Vec<ResultRecord> = Vec::with_capacity(plan.len());
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for chunk in &chunks {
                let qualities = Arc::clone(&qualities);
                handles.push(scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|p| run_one(p, config, &qualities))
                        .collect::<Vec<_>>()
                }));
            }
            for handle in handles {
                out.extend(handle.join().expect("round worker panicked"));
            }
        });
        out
    };
    records.sort_by_key(|r| r.id);
    inject_violations(&mut records, config, next_id);
    SubmissionRound {
        records,
        task_qualities: Arc::try_unwrap(qualities).unwrap_or_else(|arc| (*arc).clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_vi_plan_totals() {
        let per_scenario: Vec<usize> = (0..4)
            .map(|s| TABLE_VI_PLAN.iter().map(|(_, c)| c[s]).sum())
            .collect();
        assert_eq!(per_scenario, vec![51, 15, 33, 67]);
        let total: usize = per_scenario.iter().sum();
        assert_eq!(total, 166);
        // Per-model totals are the Figure 5 counts.
        let per_model: Vec<usize> = TABLE_VI_PLAN.iter().map(|(_, c)| c.iter().sum()).collect();
        assert_eq!(per_model, vec![54, 37, 27, 29, 19]);
    }

    #[test]
    fn plan_matches_table_vi() {
        let config = RoundConfig::smoke(7);
        let qualities = measure_task_qualities(7, 40);
        let plan = plan_round(&config, &qualities);
        let closed: Vec<&Planned> = plan
            .iter()
            .filter(|p| p.division == Division::Closed)
            .collect();
        assert_eq!(closed.len(), 166);
        let gnmt_ms = closed
            .iter()
            .filter(|p| p.task == TaskId::MachineTranslation && p.scenario == Scenario::MultiStream)
            .count();
        assert_eq!(gnmt_ms, 0, "GNMT multistream had no submissions");
        let open = plan.len() - closed.len();
        assert_eq!(open, config.open_division_count);
    }

    #[test]
    fn eligibility_rules() {
        let systems = fleet();
        let embedded = systems
            .iter()
            .find(|s| s.segment == MarketSegment::Embedded)
            .unwrap();
        assert!(!eligible(
            embedded,
            TaskId::MachineTranslation,
            Scenario::SingleStream
        ));
        assert!(!eligible(
            embedded,
            TaskId::ImageClassificationLight,
            Scenario::Server
        ));
        assert!(eligible(
            embedded,
            TaskId::ImageClassificationLight,
            Scenario::SingleStream
        ));
        let dc = systems
            .iter()
            .find(|s| s.segment == MarketSegment::Datacenter)
            .unwrap();
        for task in TaskId::ALL {
            for scenario in Scenario::ALL {
                assert!(eligible(dc, task, scenario));
            }
        }
    }

    #[test]
    fn qualities_within_expected_windows() {
        let q = measure_task_qualities(11, 60);
        assert_eq!(q.len(), 5);
        for (task, (fp32, int8)) in &q {
            assert!(*fp32 > 0.0, "{task:?} fp32 quality zero");
            assert!(*int8 > 0.0, "{task:?} int8 quality zero");
            // INT8 within a loose window of FP32 (tight windows asserted in
            // the experiment harness with larger sample counts).
            assert!(int8 / fp32 > 0.5, "{task:?}: int8 {int8} vs fp32 {fp32}");
        }
    }

    #[test]
    fn smoke_round_generates_and_is_deterministic() {
        let mut config = RoundConfig::smoke(5);
        config.open_division_count = 2;
        config.violation_count = 2;
        let round = generate_round(&config);
        assert_eq!(round.records.len(), 166 + 2 + 2);
        let round2 = generate_round(&config);
        assert_eq!(round.records, round2.records);
        // Most closed records should be valid runs.
        let valid = round
            .division(Division::Closed)
            .filter(|r| r.result.is_valid())
            .count();
        assert!(valid > 120, "only {valid} valid closed runs");
    }
}
