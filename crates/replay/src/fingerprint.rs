//! Workload fingerprints and the equivalence bound.
//!
//! A fingerprint is the statistical identity of a recorded workload: the
//! arrival process (inter-arrival quantiles, burstiness, rate shape over
//! the run) and the observed behaviour (latency quantiles, sample-index
//! profile). Reduction must preserve it; replay must reproduce it. Both
//! claims are checked with the KS-style distances from `mlperf-stats`
//! ([`mlperf_stats::equiv`]) on the same nearest-rank quantile rule the
//! validity checks use — and a violated bound is a structured error
//! ([`BoundViolation`]), never a silent approximation.

use mlperf_stats::equiv::{
    cdf_distance, cv_squared, grid_quantiles, max_rel_gap, quantile_band_distance, rel_gap,
};
use mlperf_stats::QUANTILE_GRID;
use mlperf_trace::{TraceEvent, TraceRecord};
use std::fmt;

/// Number of equal-duration windows the rate shape is evaluated on.
pub(crate) const RATE_WINDOWS: usize = 16;
/// Number of equal-width population buckets the index profile uses.
pub(crate) const INDEX_BUCKETS: usize = 16;

/// The statistical identity of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFingerprint {
    /// Total queries.
    pub(crate) queries: u64,
    /// Queries that resolved as errors.
    pub(crate) errors: u64,
    /// Span from first to last arrival, nanoseconds.
    pub(crate) duration_ns: u64,
    /// Nearest-rank inter-arrival quantiles on [`QUANTILE_GRID`]
    /// (empty when fewer than two arrivals).
    pub(crate) interarrival_q: Vec<u64>,
    /// Nearest-rank completion-latency quantiles on [`QUANTILE_GRID`]
    /// over non-errored queries (empty when none completed).
    pub latency_q: Vec<u64>,
    /// Squared coefficient of variation of the inter-arrival deltas —
    /// the index-of-dispersion-style burstiness (1 ≈ Poisson).
    pub(crate) burstiness: f64,
    /// Fraction of arrivals per equal-duration window ([`RATE_WINDOWS`]).
    pub(crate) rate_shape: Vec<f64>,
    /// Fraction of drawn samples per population bucket
    /// ([`INDEX_BUCKETS`]); empty when the source carried no indices
    /// (plain detail logs don't).
    pub(crate) index_shape: Vec<f64>,
}

/// Distance between two fingerprints, one number per axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FingerprintDistance {
    /// KS-style probability-band distance between inter-arrival quantile
    /// grids (vertical axis — robust to the heavy near-zero tail of
    /// arrival gaps).
    pub(crate) interarrival_gap: f64,
    /// Worst relative gap between latency quantile grids (value axis —
    /// the right reading when both sides carry the same recorded values,
    /// as in reduce acceptance).
    pub(crate) latency_gap: f64,
    /// KS-style probability-band distance between latency quantile grids
    /// (vertical axis — robust to wall-clock tail noise, where one
    /// scheduler hiccup can multiply a p99 without moving the
    /// distribution).
    pub(crate) latency_band: f64,
    /// Relative gap between burstiness indices.
    pub(crate) burstiness_gap: f64,
    /// KS max-CDF-gap between per-window arrival-rate shapes.
    pub(crate) rate_shape_ks: f64,
    /// KS max-CDF-gap between sample-index profiles (0 when either side
    /// carried no indices).
    pub(crate) index_shape_ks: f64,
}

impl FingerprintDistance {
    /// The axes as `(name, distance)` rows, in reporting order.
    #[must_use]
    pub fn rows(&self) -> [(&'static str, f64); 6] {
        [
            ("interarrival_gap", self.interarrival_gap),
            ("latency_gap", self.latency_gap),
            ("latency_band", self.latency_band),
            ("burstiness_gap", self.burstiness_gap),
            ("rate_shape_ks", self.rate_shape_ks),
            ("index_shape_ks", self.index_shape_ks),
        ]
    }
}

impl fmt::Display for FingerprintDistance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (name, value) in self.rows() {
            if !first {
                write!(f, "  ")?;
            }
            write!(f, "{name} {value:.4}")?;
            first = false;
        }
        Ok(())
    }
}

/// Maximum acceptable distance per fingerprint axis.
///
/// The two latency axes are one joint test: `latency_gap` (value axis)
/// and `latency_band` (probability axis) are two projections of the same
/// quantile comparison, and each has a blind spot the other covers — a
/// quantized distribution moves the band on a tiny value shift, a
/// wall-clock tail hiccup moves the value on a tiny probability shift. A
/// genuine distribution change (a slower SUT, a 10x scale) moves both,
/// so latency only violates the bound when *both* projections exceed
/// theirs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EquivalenceBound {
    /// Bound on the inter-arrival probability-band distance and on the
    /// latency relative gap (different units, same 0-is-identical scale).
    pub(crate) max_quantile_gap: f64,
    /// Bound on the latency probability-band distance.
    pub(crate) max_latency_band: f64,
    /// Bound on the burstiness gap.
    pub(crate) max_burstiness_gap: f64,
    /// Bound on both KS shape distances (rate and index profile).
    pub(crate) max_shape_ks: f64,
}

impl Default for EquivalenceBound {
    /// The reduction bound: tight enough that a reduced trace with a
    /// drifted tail or a reshaped arrival process is rejected, loose
    /// enough for honest sampling error at ≥10× reductions of a few
    /// thousand queries.
    fn default() -> Self {
        EquivalenceBound {
            max_quantile_gap: 0.25,
            max_latency_band: 0.15,
            max_burstiness_gap: 0.50,
            max_shape_ks: 0.10,
        }
    }
}

impl EquivalenceBound {
    /// A uniformly scaled copy (e.g. a looser bound for slow or loaded
    /// machines, where scheduler noise rides on every axis).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        EquivalenceBound {
            max_quantile_gap: self.max_quantile_gap * factor,
            max_latency_band: self.max_latency_band * factor,
            max_burstiness_gap: self.max_burstiness_gap * factor,
            max_shape_ks: self.max_shape_ks * factor,
        }
    }

    /// Checks a distance against the bound.
    ///
    /// Latency is a joint test over its two projections (see the type
    /// docs); every other axis is independent.
    ///
    /// # Errors
    ///
    /// Returns every violated axis — the caller gets the full argument,
    /// not just the first failure.
    pub fn check(&self, d: &FingerprintDistance) -> Result<(), Vec<BoundViolation>> {
        let mut violations = Vec::new();
        let mut check = |metric, distance, bound| {
            if distance > bound {
                violations.push(BoundViolation {
                    metric,
                    distance,
                    bound,
                });
            }
        };
        check(
            "interarrival_gap",
            d.interarrival_gap,
            self.max_quantile_gap,
        );
        if d.latency_gap > self.max_quantile_gap && d.latency_band > self.max_latency_band {
            check("latency_gap", d.latency_gap, self.max_quantile_gap);
            check("latency_band", d.latency_band, self.max_latency_band);
        }
        check("burstiness_gap", d.burstiness_gap, self.max_burstiness_gap);
        check("rate_shape_ks", d.rate_shape_ks, self.max_shape_ks);
        check("index_shape_ks", d.index_shape_ks, self.max_shape_ks);
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }
}

/// One fingerprint axis that exceeded its bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundViolation {
    /// The axis name ([`FingerprintDistance::rows`] naming).
    pub(crate) metric: &'static str,
    /// The observed distance.
    pub(crate) distance: f64,
    /// The bound it exceeded.
    pub(crate) bound: f64,
}

impl fmt::Display for BoundViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} = {:.4} exceeds bound {:.4}",
            self.metric, self.distance, self.bound
        )
    }
}

impl TraceFingerprint {
    /// Builds a fingerprint from raw observations.
    ///
    /// `arrivals` are scheduled times (any origin — normalized
    /// internally, must be non-decreasing), `ok_latencies` the latencies
    /// of non-errored queries, `sample_indices` every drawn index (empty
    /// when unknown), `population` the QSL size the indices refer to.
    #[must_use]
    pub(crate) fn from_parts(
        arrivals: &[u64],
        ok_latencies: &[u64],
        errors: u64,
        sample_indices: &[u32],
        population: u64,
    ) -> Self {
        let origin = arrivals.first().copied().unwrap_or(0);
        let duration_ns = arrivals.last().copied().unwrap_or(origin) - origin;
        let deltas: Vec<u64> = arrivals.windows(2).map(|w| w[1] - w[0]).collect();

        let mut rate_shape = vec![0.0; RATE_WINDOWS];
        if duration_ns > 0 {
            for &a in arrivals {
                let w = (((a - origin) as u128 * RATE_WINDOWS as u128) / (duration_ns as u128 + 1))
                    as usize;
                rate_shape[w.min(RATE_WINDOWS - 1)] += 1.0;
            }
        } else if !arrivals.is_empty() {
            rate_shape[0] = arrivals.len() as f64;
        }

        let index_shape = if sample_indices.is_empty() || population == 0 {
            Vec::new()
        } else {
            let mut shape = vec![0.0; INDEX_BUCKETS];
            for &i in sample_indices {
                let b = ((u64::from(i) as u128 * INDEX_BUCKETS as u128) / (population as u128 + 1))
                    as usize;
                shape[b.min(INDEX_BUCKETS - 1)] += 1.0;
            }
            shape
        };

        TraceFingerprint {
            queries: arrivals.len() as u64,
            errors,
            duration_ns,
            interarrival_q: grid_quantiles(&deltas, &QUANTILE_GRID),
            latency_q: grid_quantiles(ok_latencies, &QUANTILE_GRID),
            burstiness: cv_squared(&deltas),
            rate_shape,
            index_shape,
        }
    }

    /// The distance between two fingerprints, axis by axis.
    #[must_use]
    pub fn distance(&self, other: &TraceFingerprint) -> FingerprintDistance {
        FingerprintDistance {
            interarrival_gap: quantile_band_distance(
                &self.interarrival_q,
                &other.interarrival_q,
                &QUANTILE_GRID,
            ),
            latency_gap: max_rel_gap(&self.latency_q, &other.latency_q),
            latency_band: quantile_band_distance(&self.latency_q, &other.latency_q, &QUANTILE_GRID),
            burstiness_gap: rel_gap(self.burstiness, other.burstiness),
            rate_shape_ks: cdf_distance(&self.rate_shape, &other.rate_shape),
            // Plain detail logs carry no sample indices; when either side
            // lacks them the axis is unknowable, not violated.
            index_shape_ks: if self.index_shape.is_empty() || other.index_shape.is_empty() {
                0.0
            } else {
                cdf_distance(&self.index_shape, &other.index_shape)
            },
        }
    }
}

/// Fingerprints a detail log directly: scheduled arrivals from
/// `QueryIssued` (timestamp minus issue delay), latencies from
/// `QueryCompleted`, error counts from `QueryErrored`. Detail logs carry
/// no sample indices, so the index profile stays empty. Returns `None`
/// for a log without a single issued query.
#[must_use]
pub fn fingerprint_of_records(records: &[TraceRecord]) -> Option<TraceFingerprint> {
    let mut arrivals = Vec::new();
    let mut latencies = Vec::new();
    let mut errors = 0u64;
    let mut seen = std::collections::HashSet::new();
    for r in records {
        match &r.event {
            TraceEvent::QueryIssued {
                query_id, delay_ns, ..
            } if seen.insert(*query_id) => {
                arrivals.push(r.ts_ns.saturating_sub(*delay_ns));
            }
            TraceEvent::QueryCompleted { latency_ns, .. } => latencies.push(*latency_ns),
            TraceEvent::QueryErrored { .. } => errors += 1,
            _ => {}
        }
    }
    if arrivals.is_empty() {
        return None;
    }
    arrivals.sort_unstable();
    Some(TraceFingerprint::from_parts(
        &arrivals,
        &latencies,
        errors,
        &[],
        0,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: u64, gap: u64) -> Vec<u64> {
        (0..n).map(|i| i * gap).collect()
    }

    #[test]
    fn identical_parts_have_zero_distance() {
        let arrivals = uniform(100, 1_000);
        let lat: Vec<u64> = (0..99).map(|i| 50_000 + i * 13).collect();
        let idx: Vec<u32> = (0..100).map(|i| i % 64).collect();
        let fp = TraceFingerprint::from_parts(&arrivals, &lat, 1, &idx, 64);
        let d = fp.distance(&fp);
        assert!(d.rows().iter().all(|&(_, v)| v == 0.0), "{d}");
        assert!(EquivalenceBound::default().check(&d).is_ok());
    }

    #[test]
    fn metronome_vs_front_loaded_burst_is_far() {
        let metronome = uniform(200, 1_000);
        // Same span, all arrivals crammed into the first tenth.
        let mut burst: Vec<u64> = (0..199).map(|i| i * 100).collect();
        burst.push(199_000);
        let a = TraceFingerprint::from_parts(&metronome, &[], 0, &[], 0);
        let b = TraceFingerprint::from_parts(&burst, &[], 0, &[], 0);
        let d = a.distance(&b);
        assert!(d.interarrival_gap > 0.25, "{d}");
        assert!(d.rate_shape_ks > 0.5, "{d}");
        assert!(EquivalenceBound::default().check(&d).is_err());
    }

    #[test]
    fn violation_report_names_every_failed_axis() {
        let d = FingerprintDistance {
            interarrival_gap: 0.9,
            latency_gap: 0.0,
            latency_band: 0.0,
            burstiness_gap: 0.9,
            rate_shape_ks: 0.0,
            index_shape_ks: 0.0,
        };
        let violations = EquivalenceBound::default().check(&d).unwrap_err();
        let names: Vec<&str> = violations.iter().map(|v| v.metric).collect();
        assert_eq!(names, vec!["interarrival_gap", "burstiness_gap"]);
    }

    #[test]
    fn latency_violates_only_when_both_projections_exceed() {
        let ok = FingerprintDistance {
            interarrival_gap: 0.0,
            latency_gap: 0.0,
            latency_band: 0.0,
            burstiness_gap: 0.0,
            rate_shape_ks: 0.0,
            index_shape_ks: 0.0,
        };
        let bound = EquivalenceBound::default();
        // A wall-clock tail hiccup: huge value gap, adjacent band.
        assert!(bound
            .check(&FingerprintDistance {
                latency_gap: 0.9,
                ..ok
            })
            .is_ok());
        // A quantized distribution: tiny value gap, wide band.
        assert!(bound
            .check(&FingerprintDistance {
                latency_band: 0.9,
                ..ok
            })
            .is_ok());
        // A genuine distribution change moves both projections.
        let err = bound
            .check(&FingerprintDistance {
                latency_gap: 0.9,
                latency_band: 0.9,
                ..ok
            })
            .unwrap_err();
        let names: Vec<&str> = err.iter().map(|v| v.metric).collect();
        assert_eq!(names, vec!["latency_gap", "latency_band"]);
    }

    #[test]
    fn missing_indices_do_not_fail_the_index_axis() {
        let arrivals = uniform(50, 1_000);
        let with = TraceFingerprint::from_parts(&arrivals, &[], 0, &[1, 2, 3], 64);
        let without = TraceFingerprint::from_parts(&arrivals, &[], 0, &[], 0);
        assert_eq!(with.distance(&without).index_shape_ks, 0.0);
    }

    #[test]
    fn fingerprints_a_detail_log() {
        let mut records = Vec::new();
        for i in 0..10u64 {
            records.push(TraceRecord {
                ts_ns: i * 1_000 + 7,
                event: TraceEvent::QueryIssued {
                    query_id: i,
                    sample_count: 1,
                    delay_ns: 7,
                },
            });
            records.push(TraceRecord {
                ts_ns: i * 1_000 + 50_000,
                event: TraceEvent::QueryCompleted {
                    query_id: i,
                    latency_ns: 50_000,
                },
            });
        }
        let fp = fingerprint_of_records(&records).expect("log has queries");
        assert_eq!(fp.queries, 10);
        assert_eq!(fp.duration_ns, 9_000);
        assert_eq!(fp.burstiness, 0.0); // metronome arrivals
        assert!(fingerprint_of_records(&[]).is_none());
    }
}
