//! Peer review of a submission round.
//!
//! Every record goes through the `mlperf-audit` submission checker; records
//! with findings are rejected, the rest released. Open-division records are
//! exempt from the Table V and quality-window rules (they declare their own
//! targets) but must still be valid LoadGen runs.

use crate::record::{ResultRecord, ReviewStatus};
use crate::round::SubmissionRound;
use crate::types::Division;
use mlperf_audit::checker::{check_submission, SubmissionCheckInput};

/// Aggregate review statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReviewStats {
    /// Total submissions reviewed.
    pub(crate) submitted: usize,
    /// Released results.
    pub(crate) released: usize,
    /// Rejected results.
    pub(crate) rejected: usize,
    /// Total findings across rejected results.
    pub(crate) findings: usize,
}

impl std::fmt::Display for ReviewStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} submitted, {} released, {} rejected ({} findings)",
            self.submitted, self.released, self.rejected, self.findings
        )
    }
}

/// Reviews every record in place and returns the statistics.
pub fn review_round(round: &mut SubmissionRound) -> ReviewStats {
    let mut stats = ReviewStats {
        submitted: round.records.len(),
        released: 0,
        rejected: 0,
        findings: 0,
    };
    for record in &mut round.records {
        let findings = review_record(record);
        if findings.is_empty() {
            record.status = ReviewStatus::Released;
            stats.released += 1;
        } else {
            stats.findings += findings.len();
            record.status = ReviewStatus::Rejected(findings);
            stats.rejected += 1;
        }
    }
    stats
}

/// Reviews a single record, returning human-readable findings (empty =
/// releasable).
pub(crate) fn review_record(record: &ResultRecord) -> Vec<String> {
    match record.division {
        Division::Closed => {
            let task = match record.task() {
                Some(t) => t,
                None => {
                    return vec![format!(
                        "closed division requires a reference model, got {:?}",
                        record.model_name
                    )]
                }
            };
            let input = SubmissionCheckInput {
                task,
                result: &record.result,
                measured_quality: record.measured_quality,
                reference_quality: record.reference_quality,
            };
            check_submission(&input)
                .into_iter()
                .map(|f| f.to_string())
                .collect()
        }
        Division::Open => {
            // Open division: the run must still be a valid LoadGen run and
            // document its deviations.
            let mut findings = Vec::new();
            if !record.result.is_valid() {
                findings.push(format!(
                    "invalid LoadGen run ({} issues)",
                    record.result.validity.len()
                ));
            }
            if record.notes.trim().is_empty() {
                findings.push(
                    "open-division submissions must document deviations from the closed rules"
                        .to_string(),
                );
            }
            findings
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::{generate_round, RoundConfig};

    #[test]
    fn review_releases_clean_and_rejects_violations() {
        let mut config = RoundConfig::smoke(3);
        config.query_scale = 0.002;
        config.violation_count = 6;
        config.open_division_count = 4;
        let mut round = generate_round(&config);
        // Smoke rounds use scaled-down query counts, so disable the Table V
        // check by reviewing with adjusted expectations: here we simply
        // check the wiring — quality violations must always be caught.
        let stats = review_round(&mut round);
        assert_eq!(stats.submitted, round.records.len());
        assert_eq!(stats.released + stats.rejected, stats.submitted);
        // Every injected violation must be rejected, regardless of kind
        // (quality window, query/sample counts, duration).
        let violators: Vec<&ResultRecord> = round
            .records
            .iter()
            .filter(|r| r.system.system_name.contains("-viol"))
            .collect();
        assert_eq!(violators.len(), 6);
        for v in &violators {
            assert!(
                !v.is_released(),
                "injected violation released: {} ({:?})",
                v.system.system_name,
                v.status
            );
        }
    }

    #[test]
    fn open_records_need_notes() {
        let config = RoundConfig::smoke(4);
        let round = generate_round(&config);
        let open = round
            .records
            .iter()
            .find(|r| r.division == Division::Open)
            .expect("open records exist");
        let mut undocumented = open.clone();
        undocumented.notes = String::new();
        let findings = review_record(&undocumented);
        assert!(findings.iter().any(|f| f.contains("document")));
    }
}
