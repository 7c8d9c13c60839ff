//! Percentile estimation over recorded latencies.
//!
//! The LoadGen reports tail latencies with the **nearest-rank** convention:
//! the p-th percentile of n samples is the value at (1-indexed) rank
//! `ceil(p/100 * n)`. That is the definition [`nearest_rank`] implements,
//! [`Percentile::of`] calls, and every scenario metric in this repository
//! uses.

/// Nearest-rank selection from a **sorted ascending** slice.
///
/// This is the one percentile definition: LoadGen's validity rules and its
/// reported latency statistics both call it (as
/// `mlperf_loadgen::validate::nearest_rank`), and so does
/// [`Percentile::of_sorted`], so a run can never pass the p99 bound while
/// reporting a p99 above it. The rule, including its tie-breaking and
/// rounding behaviour:
///
/// * `rank = ceil(fraction * n)`, clamped to `[1, n]`, 1-indexed.
/// * The result is `sorted[rank - 1]` — always an **observed** value, never
///   an interpolation. Rounding is therefore *up*: for n = 100 and
///   fraction 0.99 the 99th of 100 values is chosen, so exactly one value
///   may sit above the p99 without moving it.
/// * Ties need no special handling: equal values occupy adjacent ranks and
///   nearest-rank selection picks the same value for any rank in the tie.
///
/// Returns `None` only for an empty slice.
pub fn nearest_rank<T: Copy>(sorted: &[T], fraction: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (fraction * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A percentile in `(0, 100)`, e.g. the 90th for single-stream or the 99th
/// for server-scenario QoS.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Percentile(f64);

impl Percentile {
    /// The single-stream reporting percentile (Table II).
    pub const P90: Percentile = Percentile(90.0);
    /// The vision-task server/multistream QoS percentile (Table IV).
    pub const P99: Percentile = Percentile(99.0);
    /// The translation-task QoS percentile (Section III-D).
    pub const P97: Percentile = Percentile(97.0);

    /// Creates a percentile.
    ///
    /// # Errors
    ///
    /// Returns [`PercentileError::OutOfRange`] unless `0 < value < 100`.
    pub fn new(value: f64) -> Result<Self, PercentileError> {
        if !(value.is_finite() && value > 0.0 && value < 100.0) {
            return Err(PercentileError::OutOfRange(value));
        }
        Ok(Self(value))
    }

    /// The percentile as a number in `(0, 100)`.
    pub fn value(&self) -> f64 {
        self.0
    }

    /// The percentile as a fraction in `(0, 1)`.
    pub fn fraction(&self) -> f64 {
        self.0 / 100.0
    }

    /// Nearest-rank percentile of `sorted` (ascending) samples.
    ///
    /// # Panics
    ///
    /// Panics if `sorted` is empty; callers gate on having recorded at least
    /// one latency.
    pub fn of_sorted<T: Copy>(&self, sorted: &[T]) -> T {
        nearest_rank(sorted, self.fraction()).expect("percentile of empty sample set")
    }

    /// Nearest-rank percentile of unsorted samples (copies and sorts).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of<T: Copy + Ord>(&self, samples: &[T]) -> T {
        let mut v = samples.to_vec();
        v.sort_unstable();
        self.of_sorted(&v)
    }
}

impl std::fmt::Display for Percentile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Errors from percentile construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PercentileError {
    /// The requested percentile was outside `(0, 100)` or non-finite.
    OutOfRange(f64),
}

impl std::fmt::Display for PercentileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PercentileError::OutOfRange(v) => {
                write!(f, "percentile must lie strictly between 0 and 100, got {v}")
            }
        }
    }
}

impl std::error::Error for PercentileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_rule() {
        let v = [10u64, 20, 20, 30];
        // ceil(0.5 * 4) = 2 -> second value; the tie at 20 is immaterial.
        assert_eq!(nearest_rank(&v, 0.5), Some(20));
        // ceil(0.99 * 4) = 4 -> the maximum.
        assert_eq!(nearest_rank(&v, 0.99), Some(30));
        // Fractions at/below 1/n clamp to the minimum rank.
        assert_eq!(nearest_rank(&v, 0.0), Some(10));
        assert_eq!(nearest_rank(&v, 1.0), Some(30));
        assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
    }

    #[test]
    fn nearest_rank_matches_hand_computed_values() {
        let data: Vec<u64> = (1..=10).collect();
        assert_eq!(Percentile::P90.of(&data), 9);
        assert_eq!(Percentile::new(50.0).unwrap().of(&data), 5);
        assert_eq!(Percentile::new(10.0).unwrap().of(&data), 1);
        assert_eq!(Percentile::P99.of(&data), 10);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        assert_eq!(Percentile::P90.of(&[42u64]), 42);
        assert_eq!(Percentile::new(1.0).unwrap().of(&[42u64]), 42);
    }

    #[test]
    fn table_ii_percentiles_exist() {
        assert_eq!(Percentile::P90.value(), 90.0);
        assert_eq!(Percentile::P99.value(), 99.0);
        assert_eq!(Percentile::P97.value(), 97.0);
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(Percentile::new(0.0).is_err());
        assert!(Percentile::new(100.0).is_err());
        assert!(Percentile::new(-5.0).is_err());
        assert!(Percentile::new(f64::NAN).is_err());
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn empty_samples_panic() {
        Percentile::P90.of::<u64>(&[]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Percentile::P90.to_string(), "p90");
        assert!(!PercentileError::OutOfRange(0.0).to_string().is_empty());
    }
}
