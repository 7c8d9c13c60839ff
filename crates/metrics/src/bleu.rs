//! Corpus-level BLEU (Papineni et al., 2002), SacreBLEU-style.
//!
//! The paper scores GNMT with SacreBLEU on WMT16 EN-DE (Table I). This is
//! the same computation on pre-tokenized sentences: modified n-gram
//! precisions for n = 1..4 pooled over the corpus, geometric mean, and the
//! brevity penalty. Scores are reported on the usual 0–100 scale.

use std::collections::HashMap;

/// Maximum n-gram order used by standard BLEU.
pub(crate) const MAX_ORDER: usize = 4;

/// Corpus BLEU over parallel candidate/reference token sequences.
///
/// Tokens are any `Eq + Hash` type; the synthetic WMT stand-in uses `u32`
/// vocabulary ids.
///
/// Returns a score in `[0, 100]`. Identical corpora score exactly 100;
/// an empty corpus or zero 1-gram overlap scores 0. Following SacreBLEU's
/// default smoothing (`exp`-none/"floor" off), any zero higher-order
/// precision yields 0 — corpus-level pooling makes that rare in practice.
///
/// # Examples
///
/// ```
/// let cand = vec![vec![1u32, 2, 3, 4]];
/// let refs = vec![vec![1u32, 2, 3, 4]];
/// assert!((mlperf_metrics::corpus_bleu(&cand, &refs) - 100.0).abs() < 1e-9);
/// ```
///
/// # Panics
///
/// Panics if the slices are not parallel.
pub fn corpus_bleu<T: std::hash::Hash + Eq + Clone>(
    candidates: &[Vec<T>],
    references: &[Vec<T>],
) -> f64 {
    assert_eq!(
        candidates.len(),
        references.len(),
        "candidates and references must be parallel"
    );
    if candidates.is_empty() {
        return 0.0;
    }
    let mut matches = [0u64; MAX_ORDER];
    let mut possible = [0u64; MAX_ORDER];
    let mut cand_len = 0u64;
    let mut ref_len = 0u64;
    for (cand, reference) in candidates.iter().zip(references) {
        cand_len += cand.len() as u64;
        ref_len += reference.len() as u64;
        for n in 1..=MAX_ORDER {
            let cand_grams = ngram_counts(cand, n);
            if cand_grams.is_empty() {
                continue;
            }
            let ref_grams = ngram_counts(reference, n);
            let total: u64 = cand_grams.values().sum();
            possible[n - 1] += total;
            for (gram, count) in cand_grams {
                let clip = ref_grams.get(&gram).copied().unwrap_or(0);
                matches[n - 1] += count.min(clip);
            }
        }
    }
    if possible[0] == 0 || matches[0] == 0 {
        return 0.0;
    }
    let mut log_sum = 0.0f64;
    for n in 0..MAX_ORDER {
        if possible[n] == 0 {
            // Candidates shorter than n tokens everywhere: skip the order,
            // matching SacreBLEU's effective-order behaviour for tiny corpora.
            continue;
        }
        if matches[n] == 0 {
            return 0.0;
        }
        log_sum += (matches[n] as f64 / possible[n] as f64).ln() / MAX_ORDER as f64;
    }
    let bp = if cand_len >= ref_len {
        1.0
    } else {
        (1.0 - ref_len as f64 / cand_len as f64).exp()
    };
    100.0 * bp * log_sum.exp()
}

fn ngram_counts<T: std::hash::Hash + Eq + Clone>(tokens: &[T], n: usize) -> HashMap<Vec<T>, u64> {
    let mut counts = HashMap::new();
    if tokens.len() < n {
        return counts;
    }
    for window in tokens.windows(n) {
        *counts.entry(window.to_vec()).or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(words: &str) -> Vec<&str> {
        words.split_whitespace().collect()
    }

    #[test]
    fn identical_corpus_scores_100() {
        let c = vec![s("the cat sat on the mat"), s("hello world again today")];
        assert!((corpus_bleu(&c, &c) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_corpus_scores_0() {
        let c = vec![s("a b c d")];
        let r = vec![s("w x y z")];
        assert_eq!(corpus_bleu(&c, &r), 0.0);
    }

    #[test]
    fn partial_overlap_between_0_and_100() {
        let c = vec![s("the cat sat on the mat today")];
        let r = vec![s("the cat sat on the mat tonight")];
        let b = corpus_bleu(&c, &r);
        assert!(b > 0.0 && b < 100.0, "bleu={b}");
        // And a pair with no 4-gram overlap scores 0 under no smoothing.
        let c2 = vec![s("the cat sat on the mat")];
        let r2 = vec![s("the cat lay on the mat")];
        assert_eq!(corpus_bleu(&c2, &r2), 0.0);
    }

    #[test]
    fn hand_computed_example() {
        // Candidate: "the the the" vs reference "the cat": clipped 1-gram
        // matches = 1 (clip at ref count), possible = 3, and 2-grams have
        // zero matches -> BLEU 0 under no smoothing.
        let c = vec![s("the the the")];
        let r = vec![s("the cat")];
        assert_eq!(corpus_bleu(&c, &r), 0.0);
    }

    #[test]
    fn clipping_limits_repeated_words() {
        // All seven candidate words are "the"; reference has two "the".
        // With only 1-grams in play (candidate too long for BP < 1) the
        // higher orders still fail -> 0. Use bigram-capable example instead:
        let c = vec![s("the the cat cat sat sat")];
        let r = vec![s("the cat sat")];
        let b = corpus_bleu(&c, &r);
        assert!(b < 50.0, "clipping should hurt: {b}");
    }

    #[test]
    fn brevity_penalty_punishes_short_candidates() {
        // Candidate is a perfect prefix but half the length.
        let c = vec![s("the cat sat on")];
        let r = vec![s("the cat sat on the mat tonight quietly")];
        let full = corpus_bleu(&r, &r);
        let short = corpus_bleu(&c, &r);
        assert!(short < full);
        assert!(short > 0.0);
        // BP = exp(1 - 8/4) = e^-1.
        let no_bp_precision = 1.0; // all candidate n-grams match
        let expected = 100.0 * no_bp_precision * (1.0f64 - 8.0 / 4.0).exp();
        assert!(
            (short - expected).abs() < 1e-9,
            "short={short} expected={expected}"
        );
    }

    #[test]
    fn word_order_matters() {
        let r = vec![s("a b c d e f")];
        let same = corpus_bleu(&r, &r);
        let scrambled = vec![s("f e d c b a")];
        let b = corpus_bleu(&scrambled, &r);
        assert!(b < same, "{b} !< {same}");
    }

    #[test]
    fn corpus_pools_over_sentences() {
        // One perfect and one disjoint sentence: corpus BLEU is positive but
        // far below 100.
        let c = vec![s("the cat sat on the mat"), s("q w e r")];
        let r = vec![s("the cat sat on the mat"), s("a b c d")];
        let b = corpus_bleu(&c, &r);
        assert!(b > 0.0 && b < 80.0, "bleu={b}");
    }

    #[test]
    fn integer_tokens_work() {
        let c = vec![vec![1u32, 2, 3, 4, 5]];
        let r = vec![vec![1u32, 2, 3, 4, 6]];
        let b = corpus_bleu(&c, &r);
        assert!(b > 0.0 && b < 100.0);
    }

    #[test]
    fn empty_corpus_scores_zero() {
        let e: Vec<Vec<u32>> = vec![];
        assert_eq!(corpus_bleu(&e, &e), 0.0);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_lengths_panic() {
        corpus_bleu(&[vec![1u32]], &[]);
    }
}
