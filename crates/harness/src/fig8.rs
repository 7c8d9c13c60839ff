//! Figure 8: relative performance across the fleet per model × scenario.
//!
//! Scores every fleet system on every task × scenario combination it can
//! run, then normalizes each combination to its slowest system. The paper's
//! findings to reproduce: the overall spread covers about four orders of
//! magnitude; popular combinations (MobileNet SS, ResNet SS,
//! SSD-MobileNet offline) show ~100× spreads; GNMT server varies much
//! less; GNMT multistream has no entries.

use crate::fig6::servable;
use crate::profile::Profile;
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::des::run_simulated;
use mlperf_loadgen::find_peak::{find_peak_multistream, find_peak_server_qps, PeakSearchOptions};
use mlperf_loadgen::requirements::{min_query_count, QosClass};
use mlperf_loadgen::scenario::Scenario;
use mlperf_loadgen::Instruments;
use mlperf_models::qsl::TaskQsl;
use mlperf_models::{TaskId, Workload};
use mlperf_stats::Percentile;
use mlperf_sut::fleet::{fleet, FleetSystem};

/// One point of Figure 8.
#[derive(Debug, Clone)]
pub struct Fig8Point {
    /// System name.
    pub system: String,
    /// The metric's scalar score (larger is better; latency inverted).
    pub score: f64,
}

/// One column of Figure 8 (a model × scenario combination).
#[derive(Debug, Clone)]
pub struct Fig8Column {
    /// Task.
    pub task: TaskId,
    /// Scenario.
    pub scenario: Scenario,
    /// All systems that produced a valid result.
    pub points: Vec<Fig8Point>,
}

impl Fig8Column {
    /// Max/min score ratio — the column's spread.
    pub fn spread(&self) -> f64 {
        let min = self
            .points
            .iter()
            .map(|p| p.score)
            .fold(f64::INFINITY, f64::min);
        let max = self.points.iter().map(|p| p.score).fold(0.0f64, f64::max);
        if self.points.is_empty() {
            1.0
        } else {
            max / min.max(1e-12)
        }
    }
}

fn percentile_for(task: TaskId) -> Percentile {
    match task.spec().qos {
        QosClass::Vision => Percentile::P99,
        QosClass::Translation => Percentile::P97,
    }
}

/// Whether a system runs a combination at all (segment rules mirror the
/// submission round; GNMT multistream stays empty as in the paper).
pub fn runs_combo(system: &FleetSystem, task: TaskId, scenario: Scenario) -> bool {
    use mlperf_sut::fleet::MarketSegment::*;
    if task == TaskId::MachineTranslation && scenario == Scenario::MultiStream {
        return false;
    }
    let heavy = matches!(
        task,
        TaskId::ObjectDetectionHeavy | TaskId::MachineTranslation
    );
    if heavy && system.segment == Embedded {
        return false;
    }
    match scenario {
        Scenario::Server => servable(system, task),
        Scenario::MultiStream => system.can_multistream(task),
        _ => true,
    }
}

/// Scores one system on one combination; `None` if it cannot run it.
pub fn score_combo(
    system: &FleetSystem,
    task: TaskId,
    scenario: Scenario,
    profile: Profile,
) -> Option<f64> {
    if !runs_combo(system, task, scenario) {
        return None;
    }
    let spec = task.spec();
    let scale = profile.sweep_query_scale();
    let duration = profile.sweep_duration();
    let queries = ((min_query_count(scenario, spec.qos) as f64 * scale) as u64).max(32);
    let mut qsl = TaskQsl::for_task(task, 4_096);
    let mut sut = system.sut_for(task, scenario);
    let workload = Workload::new(task);
    let tuned = system.spec.tuned_for(workload.mean_ops(1_024));
    let options = PeakSearchOptions {
        relative_tolerance: 0.03,
        max_runs: 32,
    };
    let score = match scenario {
        Scenario::SingleStream => {
            let settings = TestSettings::single_stream()
                .with_min_query_count(queries.max(128))
                .with_min_duration(duration);
            let outcome = run_simulated(&settings, &mut qsl, &mut sut).ok()?;
            outcome.result.metric.score()
        }
        Scenario::Offline => {
            let expected = tuned.peak_throughput(workload.mean_ops(1_024));
            let chunk_floor = (system.spec.units * system.spec.max_batch * 100) as u64;
            let samples = ((expected * duration.as_secs_f64() * 1.5) as u64)
                .max(chunk_floor)
                .max(512);
            let settings = TestSettings::offline()
                .with_offline_min_sample_count(samples)
                .with_min_duration(duration);
            let outcome = run_simulated(&settings, &mut qsl, &mut sut).ok()?;
            outcome.result.metric.score()
        }
        Scenario::Server => {
            let guess = tuned.peak_throughput(workload.mean_ops(1_024)) * 0.4;
            // Long enough for queue divergence to surface (see fig6).
            let server_duration = duration.max(mlperf_loadgen::time::Nanos::from_secs_f64(
                spec.server_latency_bound.as_secs_f64() * 30.0,
            ));
            let settings = TestSettings::server(guess.max(0.5), spec.server_latency_bound)
                .with_min_query_count(queries)
                .with_min_duration(server_duration)
                .with_latency_percentile(percentile_for(task));
            find_peak_server_qps(&settings, &mut qsl, &mut sut, options, &Instruments::none())
                .ok()?
                .converged()?
                .peak
        }
        Scenario::MultiStream => {
            let settings = TestSettings::multi_stream(1, spec.multistream_interval)
                .with_min_query_count(queries)
                .with_min_duration(duration)
                .with_latency_percentile(percentile_for(task));
            let peak =
                find_peak_multistream(&settings, &mut qsl, &mut sut, options, &Instruments::none())
                    .ok()?
                    .converged()?;
            peak.peak
        }
    };
    Some(score)
}

/// Computes all twenty columns over the whole fleet, in parallel.
pub fn compute(profile: Profile) -> Vec<Fig8Column> {
    let systems = fleet();
    let combos: Vec<(TaskId, Scenario)> = TaskId::ALL
        .iter()
        .flat_map(|t| Scenario::ALL.iter().map(move |s| (*t, *s)))
        .collect();
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let chunks: Vec<Vec<(TaskId, Scenario)>> = combos
        .chunks(combos.len().div_ceil(threads))
        .map(|c| c.to_vec())
        .collect();
    let mut columns: Vec<Fig8Column> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk in &chunks {
            let systems = &systems;
            handles.push(scope.spawn(move || {
                chunk
                    .iter()
                    .map(|(task, scenario)| Fig8Column {
                        task: *task,
                        scenario: *scenario,
                        points: systems
                            .iter()
                            .filter_map(|sys| {
                                score_combo(sys, *task, *scenario, profile).map(|score| Fig8Point {
                                    system: sys.spec.name.clone(),
                                    score,
                                })
                            })
                            .collect(),
                    })
                    .collect::<Vec<_>>()
            }));
        }
        for handle in handles {
            columns.extend(handle.join().expect("fig8 worker panicked"));
        }
    });
    // Stable order: task-major, scenario-minor (the paper's x-axis).
    columns.sort_by_key(|c| {
        (
            c.task as usize,
            Scenario::ALL.iter().position(|s| *s == c.scenario),
        )
    });
    columns
}

/// Renders the figure as text: per column, the relative score of each
/// system (1 = slowest system for that column).
pub fn render(columns: &[Fig8Column]) -> String {
    let mut out = String::new();
    let mut global_min = f64::INFINITY;
    let mut global_max: f64 = 0.0;
    for column in columns {
        out.push_str(&format!(
            "{} ({})  n={}  spread={:.0}x\n",
            column.task.spec().model_name,
            column.scenario.code(),
            column.points.len(),
            column.spread()
        ));
        let min = column
            .points
            .iter()
            .map(|p| p.score)
            .fold(f64::INFINITY, f64::min);
        let mut points = column.points.clone();
        points.sort_by(|a, b| a.score.partial_cmp(&b.score).expect("finite scores"));
        for p in &points {
            let rel = p.score / min;
            global_min = global_min.min(rel);
            global_max = global_max.max(rel);
            out.push_str(&format!("    {:<18} {:>12.1}x\n", p.system, rel));
        }
    }
    out.push_str(&format!(
        "\noverall relative-performance range: {global_max:.0}x (paper: ~4 orders of magnitude)\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnmt_multistream_has_no_entries() {
        for system in fleet() {
            assert!(!runs_combo(
                &system,
                TaskId::MachineTranslation,
                Scenario::MultiStream
            ));
        }
    }

    #[test]
    fn single_stream_scores_order_by_device_size() {
        let systems = fleet();
        let iot = systems.iter().find(|s| s.spec.name == "iot-cpu").unwrap();
        let dc = systems
            .iter()
            .find(|s| s.spec.name == "datacenter-gpu")
            .unwrap();
        let task = TaskId::ImageClassificationLight;
        let slow = score_combo(iot, task, Scenario::SingleStream, Profile::Smoke).unwrap();
        let fast = score_combo(dc, task, Scenario::SingleStream, Profile::Smoke).unwrap();
        assert!(fast > 20.0 * slow, "fast={fast} slow={slow}");
    }
}
