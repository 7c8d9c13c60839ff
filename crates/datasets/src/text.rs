//! Synthetic sentence corpus (WMT16 EN-DE stand-in).

use crate::DatasetError;
use mlperf_stats::Rng64;

/// A deterministic corpus of variable-length token sequences.
///
/// Sentence lengths follow a truncated geometric-like distribution seeded per
/// index, which gives the GNMT proxy the property the paper calls out in
/// Section VI-B: *variable text input* makes batching and latency behaviour
/// more complex than for fixed-size vision inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSentences {
    vocab_size: u32,
    len: usize,
    seed: u64,
    min_len: usize,
    max_len: usize,
    continuation: f64,
}

impl SyntheticSentences {
    /// Creates a corpus of `len` sentences over a vocabulary of
    /// `vocab_size` tokens with lengths in `[min_len, max_len]`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`, `vocab_size == 0`, `min_len == 0`, or
    /// `min_len > max_len`.
    pub fn new(vocab_size: u32, len: usize, seed: u64, min_len: usize, max_len: usize) -> Self {
        assert!(len > 0, "corpus must be non-empty");
        assert!(vocab_size > 0, "vocabulary must be non-empty");
        assert!(
            min_len > 0 && min_len <= max_len,
            "invalid length range [{min_len}, {max_len}]"
        );
        Self {
            vocab_size,
            len,
            seed,
            min_len,
            max_len,
            continuation: 0.82,
        }
    }

    /// Overrides the length-distribution continuation probability (default
    /// 0.82). Higher values skew toward longer sentences; mean extra length
    /// is roughly `p / (1 - p)` before truncation.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn with_continuation(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "continuation must be in [0, 1)");
        self.continuation = p;
        self
    }

    /// Number of sentences.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the corpus is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The inclusive sentence-length range.
    pub fn length_range(&self) -> (usize, usize) {
        (self.min_len, self.max_len)
    }

    /// Materializes sentence `index` as a token sequence.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::IndexOutOfRange`] if `index >= len`.
    pub fn sentence(&self, index: usize) -> Result<Vec<u32>, DatasetError> {
        if index >= self.len {
            return Err(DatasetError::IndexOutOfRange {
                index,
                len: self.len,
            });
        }
        let mut rng = Rng64::new(self.seed ^ (index as u64).wrapping_mul(0xd134_2543_de82_ef95));
        let len = self.sample_length(&mut rng);
        Ok((0..len)
            .map(|_| rng.next_below(u64::from(self.vocab_size)) as u32)
            .collect())
    }

    /// Length of sentence `index` without materializing tokens (used by the
    /// simulated devices to derive per-sample operation counts).
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::IndexOutOfRange`] if `index >= len`.
    pub fn sentence_length(&self, index: usize) -> Result<usize, DatasetError> {
        if index >= self.len {
            return Err(DatasetError::IndexOutOfRange {
                index,
                len: self.len,
            });
        }
        let mut rng = Rng64::new(self.seed ^ (index as u64).wrapping_mul(0xd134_2543_de82_ef95));
        Ok(self.sample_length(&mut rng))
    }

    fn sample_length(&self, rng: &mut Rng64) -> usize {
        // Truncated geometric: short sentences common, long ones rare.
        let span = self.max_len - self.min_len;
        if span == 0 {
            return self.min_len;
        }
        let mut extra = 0usize;
        while extra < span && rng.next_bool(self.continuation) {
            extra += 1;
        }
        self.min_len + extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> SyntheticSentences {
        SyntheticSentences::new(100, 500, 11, 4, 24)
    }

    #[test]
    fn deterministic_per_index() {
        let c = corpus();
        assert_eq!(c.sentence(7).unwrap(), c.sentence(7).unwrap());
        assert_ne!(c.sentence(7).unwrap(), c.sentence(8).unwrap());
    }

    #[test]
    fn tokens_within_vocab() {
        let c = corpus();
        for i in 0..50 {
            assert!(c.sentence(i).unwrap().iter().all(|t| *t < 100));
        }
    }

    #[test]
    fn lengths_within_range_and_variable() {
        let c = corpus();
        let lengths: Vec<usize> = (0..200).map(|i| c.sentence(i).unwrap().len()).collect();
        assert!(lengths.iter().all(|l| (4..=24).contains(l)));
        let distinct: std::collections::HashSet<usize> = lengths.iter().copied().collect();
        assert!(distinct.len() > 5, "lengths should vary, got {distinct:?}");
    }

    #[test]
    fn sentence_length_matches_sentence() {
        let c = corpus();
        for i in 0..50 {
            assert_eq!(c.sentence_length(i).unwrap(), c.sentence(i).unwrap().len());
        }
    }

    #[test]
    fn out_of_range() {
        assert!(corpus().sentence(500).is_err());
        assert!(corpus().sentence_length(500).is_err());
    }

    #[test]
    fn fixed_length_corpus() {
        let c = SyntheticSentences::new(10, 5, 1, 6, 6);
        assert_eq!(c.sentence(0).unwrap().len(), 6);
        assert_eq!(c.length_range(), (6, 6));
    }

    #[test]
    #[should_panic(expected = "invalid length range")]
    fn bad_range_panics() {
        SyntheticSentences::new(10, 5, 1, 9, 3);
    }

    #[test]
    fn continuation_controls_mean_length() {
        let short = SyntheticSentences::new(10, 400, 1, 1, 100).with_continuation(0.5);
        let long = SyntheticSentences::new(10, 400, 1, 1, 100).with_continuation(0.95);
        let mean = |c: &SyntheticSentences| {
            (0..400)
                .map(|i| c.sentence_length(i).unwrap())
                .sum::<usize>() as f64
                / 400.0
        };
        let (ms, ml) = (mean(&short), mean(&long));
        assert!(ms < 4.0, "short mean {ms}");
        assert!((15.0..30.0).contains(&ml), "long mean {ml}");
    }

    #[test]
    #[should_panic(expected = "continuation")]
    fn bad_continuation_panics() {
        SyntheticSentences::new(10, 5, 1, 1, 3).with_continuation(1.0);
    }
}
