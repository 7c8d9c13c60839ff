//! Order statistics and the logical-record hash.
//!
//! Two different rules live here on purpose. Repeats of a whole workload
//! are summarised by the ordinary median (mean of the two middle values
//! when the count is even), because that is what the driver's own
//! `statistics` calls compute. Latency distributions use the
//! nearest-rank rule, the same one `mlperf_loadgen::validate` scores
//! runs with, so a percentile printed here is a value that was observed.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a metric with no repeats is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no repeats");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `fraction` of the samples at or below it.
pub fn nearest_rank<T: Copy>(sorted: &[T], fraction: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (fraction * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Whether a sample of `count` latencies supports the percentile at
/// `per_mille` (990 for p99): a tail percentile is reported only when at
/// least ten samples lie beyond it. Integer arithmetic keeps it exact.
pub fn ten_samples_beyond(count: usize, per_mille: usize) -> bool {
    count * (1_000 - per_mille) >= 10 * 1_000
}

/// Incremental 64-bit FNV-1a over the logical records of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds the eight little-endian bytes of `value` in.
    pub fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_returns_observed_values() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&sorted, 0.50), Some(50));
        assert_eq!(nearest_rank(&sorted, 0.99), Some(99));
        assert_eq!(nearest_rank(&sorted, 0.991), Some(100));
        assert_eq!(nearest_rank(&sorted, 0.0), Some(1));
        assert_eq!(nearest_rank(&sorted, 1.0), Some(100));
        assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
        // Agrees with the rule runs are scored by.
        assert_eq!(
            nearest_rank(&sorted, 0.9),
            mlperf_loadgen::validate::nearest_rank(&sorted, 0.9)
        );
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert!(!ten_samples_beyond(999, 990));
        assert!(ten_samples_beyond(1_000, 990));
        assert!(!ten_samples_beyond(9_999, 999));
        assert!(ten_samples_beyond(10_000, 999));
        assert!(!ten_samples_beyond(0, 990));
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        // FNV-1a("") and FNV-1a of eight zero bytes.
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.u64(0);
        let mut expect = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..8 {
            expect = expect.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(h.finish(), expect);
        let mut other = Fnv::new();
        other.u64(1);
        assert_ne!(other.finish(), h.finish());
    }
}
