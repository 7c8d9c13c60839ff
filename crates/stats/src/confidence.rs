//! Query-count requirements for statistically confident tail-latency bounds.
//!
//! Implements Section III-D of the paper:
//!
//! * **Equation 1**: `Margin = (1 - TailLatency) / 20` — the margin is one
//!   twentieth of the gap between the tail-latency percentage and 100%.
//! * **Equation 2**: `NumQueries = NormsInv((1-Confidence)/2)^2 ×
//!   TailLatency × (1 - TailLatency) / Margin^2` — the electoral-poll sample
//!   size for an infinite electorate.
//! * The rounding rule: round the query count **up to the nearest multiple
//!   of 2^13** (8192).
//!
//! With 99% confidence these reproduce the paper's Table IV exactly:
//!
//! | tail | raw queries | rounded |
//! |------|-------------|---------|
//! | 90%  | 23,886      | 3×2^13 = 24,576 |
//! | 95%  | 50,425      | 7×2^13 = 57,344 |
//! | 99%  | 262,742     | 33×2^13 = 270,336 |
//!
//! and the translation tasks' 97th-percentile guarantee yields 90,112
//! (11×2^13), the "90K queries" of Table V.

/// The rounding granularity for query counts: 2^13.
pub const QUERY_COUNT_GRANULE: u64 = 1 << 13;

/// Tail-latency percentiles that appear in the benchmark rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TailLatency {
    /// 90th percentile — single-stream reporting.
    P90,
    /// 95th percentile — shown in Table IV for reference.
    P95,
    /// 97th percentile — translation-task QoS guarantee.
    P97,
    /// 99th percentile — vision-task QoS guarantee.
    P99,
}

impl TailLatency {
    /// The percentile as a fraction in `(0, 1)`.
    pub(crate) fn fraction(&self) -> f64 {
        match self {
            TailLatency::P90 => 0.90,
            TailLatency::P95 => 0.95,
            TailLatency::P97 => 0.97,
            TailLatency::P99 => 0.99,
        }
    }
}

impl std::fmt::Display for TailLatency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}%", self.fraction() * 100.0)
    }
}

/// Confidence level for the latency-bound guarantee.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Confidence(f64);

impl Confidence {
    /// The paper's 99% confidence bound.
    pub const C99: Confidence = Confidence(0.99);

    /// Creates a confidence level from a fraction in `(0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfidenceError::OutOfRange`] unless `0 < value < 1`.
    pub fn new(value: f64) -> Result<Self, ConfidenceError> {
        if !(value.is_finite() && value > 0.0 && value < 1.0) {
            return Err(ConfidenceError::OutOfRange(value));
        }
        Ok(Self(value))
    }

    /// The confidence as a fraction in `(0, 1)`.
    pub(crate) fn value(&self) -> f64 {
        self.0
    }
}

/// A fully specified query-count requirement.
///
/// # Examples
///
/// ```
/// use mlperf_stats::confidence::{QueryCountPlan, TailLatency};
///
/// // Table IV, middle row.
/// let plan = QueryCountPlan::paper_default(TailLatency::P95);
/// assert_eq!(plan.raw_queries(), 50_425);
/// assert_eq!(plan.rounded_queries(), 57_344);
/// assert_eq!(plan.granule_multiplier(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryCountPlan {
    tail_latency: f64,
    confidence: f64,
    margin: f64,
}

impl QueryCountPlan {
    /// Builds the plan with an explicit margin.
    ///
    /// # Errors
    ///
    /// Returns [`ConfidenceError`] if `tail_latency` is outside `(0, 1)` or
    /// `margin` is not positive.
    pub fn new(
        tail_latency: f64,
        confidence: Confidence,
        margin: f64,
    ) -> Result<Self, ConfidenceError> {
        if !(tail_latency.is_finite() && tail_latency > 0.0 && tail_latency < 1.0) {
            return Err(ConfidenceError::OutOfRange(tail_latency));
        }
        if !(margin.is_finite() && margin > 0.0) {
            return Err(ConfidenceError::BadMargin(margin));
        }
        Ok(Self {
            tail_latency,
            confidence: confidence.value(),
            margin,
        })
    }

    /// The paper's configuration: 99% confidence and the Equation 1 margin.
    pub fn paper_default(tail: TailLatency) -> Self {
        let tl = tail.fraction();
        Self {
            tail_latency: tl,
            confidence: Confidence::C99.value(),
            margin: margin_for(tl),
        }
    }

    /// The confidence fraction.
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// The error margin (Equation 1 unless overridden).
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// Equation 2: the minimum number of queries before rounding, rounded to
    /// the nearest integer (the convention that reproduces Table IV's
    /// 23,886 / 50,425 / 262,742 column).
    pub fn raw_queries(&self) -> u64 {
        let z = inverse_normal_cdf((1.0 - self.confidence) / 2.0);
        let n = z * z * self.tail_latency * (1.0 - self.tail_latency) / (self.margin * self.margin);
        n.round() as u64
    }

    /// The raw count rounded up to the next multiple of 2^13.
    pub fn rounded_queries(&self) -> u64 {
        let raw = self.raw_queries();
        raw.div_ceil(QUERY_COUNT_GRANULE) * QUERY_COUNT_GRANULE
    }

    /// How many granules (multiples of 2^13) the rounded count spans — the
    /// "3×", "7×", "33×" factors printed in Table IV.
    pub fn granule_multiplier(&self) -> u64 {
        self.rounded_queries() / QUERY_COUNT_GRANULE
    }
}

/// Equation 1: margin as one twentieth of the distance to 100%.
pub fn margin_for(tail_latency: f64) -> f64 {
    (1.0 - tail_latency) / 20.0
}

/// Inverse of the standard normal CDF (the paper's `NormsInv`).
///
/// Peter Acklam's rational approximation, with one Halley refinement step;
/// absolute error below 1e-12 over `(0, 1)` after refinement.
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
// Acklam's published coefficients are kept digit-for-digit even where they
// exceed f64 precision, so they can be diffed against the original tables.
#[allow(clippy::excessive_precision)]
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(
        p.is_finite() && p > 0.0 && p < 1.0,
        "inverse normal CDF requires 0 < p < 1, got {p}"
    );
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One step of Halley's method against the true CDF sharpens the tail.
    let e = standard_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Standard normal CDF via the complementary error function.
pub fn standard_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Complementary error function (W. J. Cody–style rational approximation;
/// relative error below 1e-12 for the ranges the benchmark uses).
fn erfc(x: f64) -> f64 {
    // Use the series for small |x| and a continued-fraction-free asymptotic
    // rational fit otherwise; symmetric via erfc(-x) = 2 - erfc(x).
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    if x < 2.0 {
        return 1.0 - erf_series(x);
    }
    // erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    // evaluated backwards; converges quickly for x >= 2.
    let x2 = x * x;
    let mut num = 0.0f64;
    for k in (1..=120u32).rev() {
        let a = f64::from(k) / 2.0;
        num = a / (x + num);
    }
    (-x2).exp() / ((x + num) * std::f64::consts::PI.sqrt())
}

/// Maclaurin series for erf, accurate for |x| < 2 (mild cancellation only).
fn erf_series(x: f64) -> f64 {
    let mut term = x;
    let mut sum = x;
    let x2 = x * x;
    for n in 1..120 {
        term *= -x2 / n as f64;
        let add = term / (2.0 * n as f64 + 1.0);
        sum += add;
        if add.abs() < 1e-17 * sum.abs() {
            break;
        }
    }
    sum * 2.0 / std::f64::consts::PI.sqrt()
}

/// Errors from confidence-plan construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfidenceError {
    /// A probability parameter fell outside `(0, 1)`.
    OutOfRange(f64),
    /// The margin was zero, negative, or non-finite.
    BadMargin(f64),
}

impl std::fmt::Display for ConfidenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfidenceError::OutOfRange(v) => {
                write!(f, "probability must lie strictly between 0 and 1, got {v}")
            }
            ConfidenceError::BadMargin(m) => {
                write!(f, "margin must be finite and positive, got {m}")
            }
        }
    }
}

impl std::error::Error for ConfidenceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_row_p90() {
        let plan = QueryCountPlan::paper_default(TailLatency::P90);
        assert!((plan.margin() - 0.005).abs() < 1e-15);
        assert_eq!(plan.raw_queries(), 23_886);
        assert_eq!(plan.rounded_queries(), 24_576);
        assert_eq!(plan.granule_multiplier(), 3);
    }

    #[test]
    fn table_iv_row_p95() {
        let plan = QueryCountPlan::paper_default(TailLatency::P95);
        assert!((plan.margin() - 0.0025).abs() < 1e-15);
        assert_eq!(plan.raw_queries(), 50_425);
        assert_eq!(plan.rounded_queries(), 57_344);
        assert_eq!(plan.granule_multiplier(), 7);
    }

    #[test]
    fn table_iv_row_p99() {
        let plan = QueryCountPlan::paper_default(TailLatency::P99);
        assert!((plan.margin() - 0.0005).abs() < 1e-15);
        assert_eq!(plan.raw_queries(), 262_742);
        assert_eq!(plan.rounded_queries(), 270_336);
        assert_eq!(plan.granule_multiplier(), 33);
    }

    #[test]
    fn translation_p97_gives_90k() {
        let plan = QueryCountPlan::paper_default(TailLatency::P97);
        assert_eq!(plan.rounded_queries(), 90_112); // 11 * 2^13, "90K" in Table V
        assert_eq!(plan.granule_multiplier(), 11);
    }

    #[test]
    fn inverse_normal_known_values() {
        // z_{0.005} to 7 decimal places.
        assert!((inverse_normal_cdf(0.005) + 2.575_829_303_5).abs() < 1e-8);
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-12);
        assert!((inverse_normal_cdf(0.975) - 1.959_963_985_0).abs() < 1e-8);
        assert!((inverse_normal_cdf(0.841_344_746_1) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn cdf_and_inverse_roundtrip() {
        for p in [1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-6] {
            let x = inverse_normal_cdf(p);
            let back = standard_normal_cdf(x);
            assert!((back - p).abs() < 1e-10, "p={p} back={back}");
        }
    }

    #[test]
    fn cdf_known_values() {
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-14);
        assert!((standard_normal_cdf(1.0) - 0.841_344_746_068_5).abs() < 1e-11);
        assert!((standard_normal_cdf(-2.0) - 0.022_750_131_948_2).abs() < 1e-11);
    }

    #[test]
    #[should_panic(expected = "requires 0 < p < 1")]
    fn inverse_normal_rejects_bounds() {
        inverse_normal_cdf(0.0);
    }

    #[test]
    fn margin_is_one_twentieth_of_gap() {
        assert!((margin_for(0.90) - 0.005).abs() < 1e-15);
        assert!((margin_for(0.99) - 0.0005).abs() < 1e-15);
    }

    #[test]
    fn queries_grow_with_stricter_tails() {
        let counts: Vec<u64> = [
            TailLatency::P90,
            TailLatency::P95,
            TailLatency::P97,
            TailLatency::P99,
        ]
        .iter()
        .map(|t| QueryCountPlan::paper_default(*t).raw_queries())
        .collect();
        assert!(counts.windows(2).all(|w| w[0] < w[1]), "{counts:?}");
    }

    #[test]
    fn rounded_is_multiple_of_granule_and_at_least_raw() {
        for t in [
            TailLatency::P90,
            TailLatency::P95,
            TailLatency::P97,
            TailLatency::P99,
        ] {
            let plan = QueryCountPlan::paper_default(t);
            assert_eq!(plan.rounded_queries() % QUERY_COUNT_GRANULE, 0);
            assert!(plan.rounded_queries() >= plan.raw_queries());
            assert!(plan.rounded_queries() - plan.raw_queries() < QUERY_COUNT_GRANULE);
        }
    }

    #[test]
    fn custom_margin_plan() {
        let plan = QueryCountPlan::new(0.9, Confidence::C99, 0.01).unwrap();
        // Quadrupling the margin divides the count by ~4 vs the default 0.005... (it halves margin -> 4x).
        let default = QueryCountPlan::paper_default(TailLatency::P90);
        assert!(plan.raw_queries() < default.raw_queries());
        assert!(QueryCountPlan::new(0.9, Confidence::C99, 0.0).is_err());
        assert!(QueryCountPlan::new(1.5, Confidence::C99, 0.01).is_err());
    }

    #[test]
    fn confidence_validation() {
        assert!(Confidence::new(0.99).is_ok());
        assert!(Confidence::new(0.0).is_err());
        assert!(Confidence::new(1.0).is_err());
        assert!(Confidence::new(f64::NAN).is_err());
    }

    #[test]
    fn display_impls() {
        assert_eq!(TailLatency::P90.to_string(), "90%");
        assert!(!ConfidenceError::OutOfRange(2.0).to_string().is_empty());
        assert!(!ConfidenceError::BadMargin(0.0).to_string().is_empty());
    }
}
