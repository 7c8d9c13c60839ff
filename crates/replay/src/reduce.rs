//! Reduce: compress a trace to a target length, preserving its
//! statistical identity.
//!
//! The reducer is windowed and stratified. The recording is cut into up
//! to 16 equal-duration windows by arrival time; each window gets a
//! quota of the target by largest-remainder apportionment, so the
//! per-window rate shape survives the compression. Within a window:
//!
//! * **content** (latency, error, sample indices) is taken by
//!   systematic sampling in time order — every (n_w/q_w)-th query — so
//!   the latency distribution and error fraction track the original;
//! * **inter-arrival deltas** are taken separately, at centered ranks
//!   of the window's value-sorted deltas — evenly spaced quantiles —
//!   so the arrival process (quantiles and CV² burstiness) survives,
//!   then shuffled with a seed derived per window so the reduced
//!   arrival order is not an artifact of the sort.
//!
//! Every choice is a pure function of `(trace, target, seed)`: the same
//! inputs always produce the same bytes, which is what lets CI commit a
//! reduced fixture and re-derive it.
//!
//! After assembly the reduced trace's fingerprint is checked against
//! the original under an [`EquivalenceBound`]; a reduction outside the
//! bound is a structured [`ReduceError::Equivalence`] carrying the
//! violations and the full distance table — never a silent success.

use crate::fingerprint::{BoundViolation, EquivalenceBound, FingerprintDistance};
use crate::trace::RecordedTrace;
use mlperf_stats::Rng64;
use std::fmt;

/// Most windows the reducer will stratify over.
pub(crate) const MAX_WINDOWS: usize = 16;

/// How to reduce: target length, determinism seed, acceptance bound.
#[derive(Debug, Clone)]
pub struct ReduceOptions {
    /// Number of queries the reduced trace should hold (2 ≤ target < n).
    pub(crate) target: usize,
    /// Seed for the per-window delta shuffles.
    pub(crate) seed: u64,
    /// Acceptance bound on the original-vs-reduced fingerprint distance.
    pub(crate) bound: EquivalenceBound,
}

impl ReduceOptions {
    /// Options for a target length with the default seed and bound.
    #[must_use]
    pub fn new(target: usize) -> Self {
        ReduceOptions {
            target,
            seed: 0xD1CE,
            bound: EquivalenceBound::default(),
        }
    }

    /// Overrides the shuffle seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the acceptance bound.
    #[must_use]
    pub fn with_bound(mut self, bound: EquivalenceBound) -> Self {
        self.bound = bound;
        self
    }
}

/// Why a reduction did not produce a usable trace.
#[derive(Debug, Clone, PartialEq)]
pub enum ReduceError {
    /// The target is not in `2 ≤ target < len`.
    BadTarget {
        /// Requested target length.
        target: usize,
        /// Queries in the input trace.
        len: usize,
    },
    /// The reduced trace's fingerprint strayed outside the bound.
    Equivalence {
        /// The bounds that failed.
        violations: Vec<BoundViolation>,
        /// The full distance table, for diagnosis.
        distance: FingerprintDistance,
    },
}

impl fmt::Display for ReduceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReduceError::BadTarget { target, len } => {
                write!(
                    f,
                    "reduce target {target} is not in 2..{len} (the input's query count)"
                )
            }
            ReduceError::Equivalence { violations, .. } => {
                write!(f, "reduced trace failed the equivalence bound: ")?;
                for (i, v) in violations.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{v}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ReduceError {}

/// Checks a candidate trace's fingerprint against an original under a
/// bound, returning the distance table on success.
///
/// This is the same acceptance rule [`reduce_trace`] applies internally;
/// the round-trip audit reuses it to compare a recorded replay against
/// the trace it replayed.
///
/// # Errors
///
/// [`ReduceError::Equivalence`] listing every violated bound.
pub(crate) fn check_equivalence(
    original: &RecordedTrace,
    candidate: &RecordedTrace,
    bound: &EquivalenceBound,
) -> Result<FingerprintDistance, ReduceError> {
    let distance = original.fingerprint().distance(&candidate.fingerprint());
    match bound.check(&distance) {
        Ok(()) => Ok(distance),
        Err(violations) => Err(ReduceError::Equivalence {
            violations,
            distance,
        }),
    }
}

/// Reduces a trace to `opts.target` queries, deterministically, and
/// proves the result equivalent under `opts.bound`.
///
/// # Errors
///
/// [`ReduceError::BadTarget`] for an impossible target,
/// [`ReduceError::Equivalence`] when the reduction cannot be certified.
pub fn reduce_trace(
    trace: &RecordedTrace,
    opts: &ReduceOptions,
) -> Result<RecordedTrace, ReduceError> {
    let n = trace.queries.len();
    let m = opts.target;
    if m < 2 || m >= n {
        return Err(ReduceError::BadTarget { target: m, len: n });
    }

    let arrivals = trace.arrivals();
    let duration = *arrivals.last().unwrap();
    let windows = MAX_WINDOWS.min(m);

    // Partition query positions into equal-duration windows, time order
    // preserved (arrivals are non-decreasing).
    let mut by_window: Vec<Vec<usize>> = vec![Vec::new(); windows];
    for (pos, &at) in arrivals.iter().enumerate() {
        let w = ((u128::from(at) * windows as u128) / (u128::from(duration) + 1)) as usize;
        by_window[w].push(pos);
    }

    // Largest-remainder quotas: floor(m·n_w/n) each, leftovers to the
    // largest remainders (lower window index breaks ties).
    let mut quotas: Vec<usize> = Vec::with_capacity(windows);
    let mut remainders: Vec<(usize, usize)> = Vec::with_capacity(windows); // (remainder, window)
    let mut assigned = 0usize;
    for (w, queries) in by_window.iter().enumerate() {
        let n_w = queries.len();
        let q = m * n_w / n;
        quotas.push(q);
        assigned += q;
        remainders.push((m * n_w % n, w));
    }
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(rem, w) in &remainders {
        if assigned == m {
            break;
        }
        // Only windows with spare queries (and a real remainder) absorb
        // a leftover; rem > 0 implies quota < n_w.
        if rem > 0 && quotas[w] < by_window[w].len() {
            quotas[w] += 1;
            assigned += 1;
        }
    }
    debug_assert_eq!(assigned, m, "largest-remainder apportionment must hit m");

    let mut queries = Vec::with_capacity(m);
    let base_rng = Rng64::new(opts.seed);
    for (w, positions) in by_window.iter().enumerate() {
        let n_w = positions.len();
        let q_w = quotas[w];
        if q_w == 0 {
            continue;
        }

        // Content picks: systematic in time order.
        let content: Vec<usize> = (0..q_w).map(|j| positions[j * n_w / q_w]).collect();

        // Delta picks: centered ranks of the value-sorted deltas.
        let mut sorted_deltas: Vec<u64> = positions
            .iter()
            .map(|&p| trace.queries[p].delta_ns)
            .collect();
        sorted_deltas.sort_unstable();
        let mut deltas: Vec<u64> = (0..q_w)
            .map(|j| sorted_deltas[((2 * j + 1) * n_w / (2 * q_w)).min(n_w - 1)])
            .collect();
        base_rng.derive(&format!("window-{w}")).shuffle(&mut deltas);

        for (j, &pos) in content.iter().enumerate() {
            let mut q = trace.queries[pos].clone();
            q.delta_ns = deltas[j];
            queries.push(q);
        }
    }
    // Arrival-normalization convention: the first query arrives at 0.
    queries[0].delta_ns = 0;

    // The header field by field: `..trace.clone()` would copy all n
    // queries only to drop them.
    let reduced = RecordedTrace {
        scenario: trace.scenario,
        source: format!("{} (reduced {n}->{m})", trace.source),
        population: trace.population,
        samples_per_query: trace.samples_per_query,
        target_latency_ns: trace.target_latency_ns,
        target_percentile: trace.target_percentile,
        server_target_qps: trace.server_target_qps,
        max_error_fraction: trace.max_error_fraction,
        interval_ns: trace.interval_ns,
        synthetic_indices: trace.synthetic_indices,
        queries,
    };
    check_equivalence(trace, &reduced, &opts.bound)?;
    Ok(reduced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RecordedQuery;
    use mlperf_loadgen::Scenario;

    /// A server-like trace: exponential-ish inter-arrivals, lognormal-ish
    /// latencies, a sprinkle of errors, a mid-run rate surge.
    fn synthetic_trace(n: usize) -> RecordedTrace {
        let mut rng = Rng64::new(42);
        let mut queries = Vec::with_capacity(n);
        for i in 0..n {
            // Inverse-CDF exponential with mean 1 ms; the middle third
            // runs 3x hotter so the rate shape is non-flat.
            let mean_ns = if i >= n / 3 && i < 2 * n / 3 {
                333_000.0
            } else {
                1_000_000.0
            };
            let u = rng.next_f64().max(1e-12);
            let delta = (-u.ln() * mean_ns) as u64;
            let lat = 200_000.0 * (1.0 + rng.next_f64() * rng.next_f64() * 8.0);
            queries.push(RecordedQuery {
                delta_ns: if i == 0 { 0 } else { delta },
                latency_ns: Some(lat as u64),
                error: rng.next_bool(0.01),
                indices: vec![rng.next_below(1024) as u32],
            });
        }
        RecordedTrace {
            scenario: Scenario::Server,
            source: "synthetic".into(),
            population: 1024,
            samples_per_query: 1,
            target_latency_ns: 10_000_000,
            target_percentile: 99.0,
            server_target_qps: 1000.0,
            max_error_fraction: 0.02,
            interval_ns: 1_000_000,
            synthetic_indices: false,
            queries,
        }
    }

    #[test]
    fn reduction_is_deterministic_and_byte_identical() {
        let trace = synthetic_trace(4_000);
        let opts = ReduceOptions::new(200);
        let a = reduce_trace(&trace, &opts).expect("reduces");
        let b = reduce_trace(&trace, &opts).expect("reduces");
        assert_eq!(a.encode(), b.encode());
        assert_eq!(a.queries.len(), 200);

        // A different seed shuffles deltas differently but still passes.
        let c = reduce_trace(&trace, &ReduceOptions::new(200).with_seed(7)).expect("reduces");
        assert_ne!(a.encode(), c.encode());
    }

    #[test]
    fn reduction_preserves_the_fingerprint() {
        let trace = synthetic_trace(4_000);
        let reduced = reduce_trace(&trace, &ReduceOptions::new(200)).expect("reduces");
        let d = trace.fingerprint().distance(&reduced.fingerprint());
        assert!(EquivalenceBound::default().check(&d).is_ok(), "{d}");

        // Duration scales with the reduction factor (the arrival process
        // is thinned, not truncated).
        let ratio = reduced.duration().as_secs_f64() / trace.duration().as_secs_f64();
        assert!(
            (0.02..0.12).contains(&ratio),
            "duration ratio {ratio} not near 200/4000"
        );
    }

    #[test]
    fn double_reduction_of_same_input_is_stable() {
        let trace = synthetic_trace(2_000);
        let opts = ReduceOptions::new(400);
        let once = reduce_trace(&trace, &opts).expect("reduces");
        let bytes = once.encode();
        let again = reduce_trace(&trace, &opts).expect("reduces");
        assert_eq!(again.encode(), bytes);
    }

    #[test]
    fn impossible_targets_are_rejected() {
        let trace = synthetic_trace(100);
        for target in [0, 1, 100, 200] {
            assert_eq!(
                reduce_trace(&trace, &ReduceOptions::new(target)),
                Err(ReduceError::BadTarget { target, len: 100 })
            );
        }
    }

    #[test]
    fn mangled_reduction_is_rejected_with_structure() {
        let trace = synthetic_trace(4_000);
        let mut mangled = reduce_trace(&trace, &ReduceOptions::new(200)).expect("reduces");
        for q in &mut mangled.queries {
            q.latency_ns = q.latency_ns.map(|l| l * 10);
        }
        let err = check_equivalence(&trace, &mangled, &EquivalenceBound::default())
            .expect_err("10x latencies cannot be equivalent");
        match err {
            ReduceError::Equivalence { violations, .. } => {
                assert!(
                    violations.iter().any(|v| v.metric.contains("latency")),
                    "violations should name latency: {violations:?}"
                );
            }
            other => panic!("expected Equivalence, got {other:?}"),
        }
    }
}
