//! Report renderers: the paper's evaluation tables from raw records.
//!
//! All aggregations run over *released, closed-division* records, exactly
//! as the paper's Section VI does. There is no summary score by design.

use crate::record::ResultRecord;
use crate::types::Division;
use mlperf_loadgen::scenario::Scenario;
use mlperf_models::{registry, TaskId};
use std::collections::BTreeMap;

/// Scenario columns in table order.
const SCENARIOS: [Scenario; 4] = [
    Scenario::SingleStream,
    Scenario::MultiStream,
    Scenario::Server,
    Scenario::Offline,
];

fn released_closed(records: &[ResultRecord]) -> impl Iterator<Item = &ResultRecord> {
    records
        .iter()
        .filter(|r| r.division == Division::Closed && r.is_released())
}

/// Table VI: released result counts per model × scenario.
pub(crate) fn table_vi_counts(records: &[ResultRecord]) -> BTreeMap<TaskId, [usize; 4]> {
    let mut counts: BTreeMap<TaskId, [usize; 4]> =
        registry().iter().map(|m| (m.task, [0usize; 4])).collect();
    for record in released_closed(records) {
        if let Some(task) = record.task() {
            let col = SCENARIOS
                .iter()
                .position(|s| *s == record.scenario)
                .expect("scenario is one of four");
            counts.entry(task).or_insert([0; 4])[col] += 1;
        }
    }
    counts
}

/// Renders Table VI as text.
pub fn render_table_vi(records: &[ResultRecord]) -> String {
    let counts = table_vi_counts(records);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>4} {:>4} {:>6} {:>8}\n",
        "MODEL", "SS", "MS", "SERVER", "OFFLINE"
    ));
    let mut totals = [0usize; 4];
    for (task, row) in &counts {
        out.push_str(&format!(
            "{:<20} {:>4} {:>4} {:>6} {:>8}\n",
            task.spec().model_name,
            row[0],
            row[1],
            row[2],
            row[3]
        ));
        for (t, r) in totals.iter_mut().zip(row) {
            *t += r;
        }
    }
    out.push_str(&format!(
        "{:<20} {:>4} {:>4} {:>6} {:>8}\n",
        "TOTAL", totals[0], totals[1], totals[2], totals[3]
    ));
    out
}

/// Figure 5: released results per model, with share percentages.
pub fn figure5_distribution(records: &[ResultRecord]) -> Vec<(TaskId, usize, f64)> {
    let counts = table_vi_counts(records);
    let total: usize = counts.values().map(|row| row.iter().sum::<usize>()).sum();
    counts
        .into_iter()
        .map(|(task, row)| {
            let n: usize = row.iter().sum();
            let share = if total == 0 {
                0.0
            } else {
                100.0 * n as f64 / total as f64
            };
            (task, n, share)
        })
        .collect()
}

/// Table VII: framework × architecture coverage matrix.
pub(crate) fn table_vii_matrix(
    records: &[ResultRecord],
) -> BTreeMap<String, BTreeMap<String, usize>> {
    let mut matrix: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
    for record in released_closed(records) {
        *matrix
            .entry(record.system.framework.clone())
            .or_default()
            .entry(record.system.architecture.clone())
            .or_default() += 1;
    }
    matrix
}

/// Renders Table VII as an X-marks matrix like the paper's.
pub fn render_table_vii(records: &[ResultRecord]) -> String {
    let matrix = table_vii_matrix(records);
    let arches = ["ASIC", "CPU", "DSP", "FPGA", "GPU"];
    let mut out = format!("{:<18}", "FRAMEWORK");
    for a in arches {
        out.push_str(&format!("{a:>6}"));
    }
    out.push('\n');
    for (framework, row) in &matrix {
        out.push_str(&format!("{framework:<18}"));
        for a in arches {
            let mark = if row.contains_key(a) { "X" } else { "" };
            out.push_str(&format!("{mark:>6}"));
        }
        out.push('\n');
    }
    out
}

/// Figure 7: released results per architecture class, per model.
fn figure7_by_architecture(records: &[ResultRecord]) -> BTreeMap<String, BTreeMap<String, usize>> {
    let mut out: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
    for record in released_closed(records) {
        *out.entry(record.system.architecture.clone())
            .or_default()
            .entry(record.model_name.clone())
            .or_default() += 1;
    }
    out
}

/// Renders the Figure 7 histogram as text.
pub fn render_figure7(records: &[ResultRecord]) -> String {
    let data = figure7_by_architecture(records);
    let mut out = String::new();
    for (arch, models) in &data {
        let total: usize = models.values().sum();
        out.push_str(&format!("{arch:<6} {total:>4}  "));
        out.push_str(&"#".repeat(total));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ReviewStatus;
    use crate::types::{Category, SystemDescription};
    use mlperf_loadgen::results::{ScenarioMetric, TestResult};
    use mlperf_loadgen::time::Nanos;

    fn record(model: &str, scenario: Scenario, framework: &str, arch: &str) -> ResultRecord {
        ResultRecord {
            id: 0,
            division: Division::Closed,
            category: Category::Available,
            system: SystemDescription {
                system_name: "s".into(),
                vendor: "v".into(),
                framework: framework.into(),
                architecture: arch.into(),
                accelerator_count: 1,
                cpu_count: 1,
                memory_gib: 1,
            },
            model_name: model.into(),
            scenario,
            result: TestResult {
                sut_name: "s".into(),
                qsl_name: "q".into(),
                scenario,
                performance_mode: true,
                metric: ScenarioMetric::Offline {
                    samples_per_second: 1.0,
                },
                latency_stats: None,
                query_count: 1,
                error_count: 0,
                sample_count: 1,
                duration: Nanos::from_secs(61),
                validity: vec![],
            },
            measured_quality: 1.0,
            reference_quality: 1.0,
            status: ReviewStatus::Released,
            notes: String::new(),
        }
    }

    #[test]
    fn table_vi_counts_by_model_and_scenario() {
        let records = vec![
            record("ResNet-50 v1.5", Scenario::SingleStream, "TensorRT", "GPU"),
            record("ResNet-50 v1.5", Scenario::SingleStream, "TensorRT", "GPU"),
            record("GNMT", Scenario::Offline, "TensorFlow", "CPU"),
        ];
        let counts = table_vi_counts(&records);
        assert_eq!(counts[&TaskId::ImageClassificationHeavy][0], 2);
        assert_eq!(counts[&TaskId::MachineTranslation][3], 1);
        assert_eq!(counts[&TaskId::ObjectDetectionLight], [0, 0, 0, 0]);
    }

    #[test]
    fn unreleased_and_open_records_excluded() {
        let mut rejected = record("GNMT", Scenario::Offline, "TensorFlow", "CPU");
        rejected.status = ReviewStatus::Rejected(vec!["x".into()]);
        let mut open = record("GNMT", Scenario::Offline, "TensorFlow", "CPU");
        open.division = Division::Open;
        open.status = ReviewStatus::Released;
        let counts = table_vi_counts(&[rejected, open]);
        assert_eq!(counts[&TaskId::MachineTranslation], [0, 0, 0, 0]);
    }

    #[test]
    fn figure5_shares_sum_to_100() {
        let records = vec![
            record("ResNet-50 v1.5", Scenario::SingleStream, "TensorRT", "GPU"),
            record("GNMT", Scenario::Offline, "TensorFlow", "CPU"),
            record("MobileNet-v1 224", Scenario::Offline, "SNPE", "DSP"),
            record("MobileNet-v1 224", Scenario::Server, "SNPE", "DSP"),
        ];
        let dist = figure5_distribution(&records);
        let total_share: f64 = dist.iter().map(|(_, _, s)| s).sum();
        assert!((total_share - 100.0).abs() < 1e-9);
        let mobilenet = dist
            .iter()
            .find(|(t, _, _)| *t == TaskId::ImageClassificationLight)
            .unwrap();
        assert_eq!(mobilenet.1, 2);
        assert!((mobilenet.2 - 50.0).abs() < 1e-9);
    }

    #[test]
    fn table_vii_marks_framework_arch_pairs() {
        let records = vec![
            record("ResNet-50 v1.5", Scenario::SingleStream, "TensorRT", "GPU"),
            record("GNMT", Scenario::Offline, "TensorFlow", "CPU"),
            record("GNMT", Scenario::Offline, "TensorFlow", "GPU"),
        ];
        let m = table_vii_matrix(&records);
        assert!(m["TensorRT"].contains_key("GPU"));
        assert_eq!(m["TensorFlow"].len(), 2);
        let rendered = render_table_vii(&records);
        assert!(rendered.contains("TensorRT"));
        assert!(rendered.contains('X'));
    }

    #[test]
    fn renders_are_nonempty() {
        let records = vec![record(
            "ResNet-50 v1.5",
            Scenario::SingleStream,
            "TensorRT",
            "GPU",
        )];
        assert!(render_table_vi(&records).contains("ResNet-50"));
        assert!(render_figure7(&records).contains("GPU"));
    }
}
