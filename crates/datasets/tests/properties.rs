//! Property-style tests for the synthetic datasets.
//!
//! Seeded `Rng64` case loops replace the former property-testing
//! framework; failure messages carry the case parameters for replay.

use mlperf_datasets::{SampleTracker, SyntheticImages, SyntheticSentences};
use mlperf_stats::Rng64;
use mlperf_tensor::Shape;

const CASES: u64 = 24;

#[test]
fn images_are_pure_functions() {
    let mut rng = Rng64::new(0x4453_0001);
    for case in 0..CASES {
        let seed = rng.next_u64();
        let len = 1 + rng.next_index(63);
        let index = rng.next_index(len);
        let a = SyntheticImages::new(Shape::d3(2, 8, 8), len, seed);
        let b = SyntheticImages::new(Shape::d3(2, 8, 8), len, seed);
        assert_eq!(
            a.input(index).unwrap(),
            b.input(index).unwrap(),
            "case {case}: seed={seed} len={len} index={index}"
        );
    }
}

#[test]
fn image_values_bounded_and_finite() {
    let mut rng = Rng64::new(0x4453_0002);
    for case in 0..CASES {
        let seed = rng.next_u64();
        let index = rng.next_index(16);
        let ds = SyntheticImages::new(Shape::d3(3, 8, 8), 16, seed);
        let img = ds.input(index).unwrap();
        let ctx = format!("case {case}: seed={seed} index={index}");
        assert!(img.data().iter().all(|v| v.is_finite()), "{ctx}");
        assert!(img.abs_max() <= 2.4, "{ctx}: abs_max={}", img.abs_max());
    }
}

#[test]
fn different_indices_differ() {
    let mut rng = Rng64::new(0x4453_0003);
    for case in 0..CASES {
        let seed = rng.next_u64();
        let a = rng.next_index(32);
        let b = rng.next_index(32);
        if a == b {
            continue;
        }
        let ds = SyntheticImages::new(Shape::d3(1, 8, 8), 32, seed);
        assert_ne!(
            ds.input(a).unwrap(),
            ds.input(b).unwrap(),
            "case {case}: seed={seed} a={a} b={b}"
        );
    }
}

#[test]
fn sentences_deterministic_and_in_vocab() {
    let mut rng = Rng64::new(0x4453_0004);
    for case in 0..CASES {
        let seed = rng.next_u64();
        let vocab = 2 + rng.next_below(498) as u32;
        let index = rng.next_index(64);
        let ctx = format!("case {case}: seed={seed} vocab={vocab} index={index}");
        let c = SyntheticSentences::new(vocab, 64, seed, 2, 20);
        let s1 = c.sentence(index).unwrap();
        let s2 = c.sentence(index).unwrap();
        assert_eq!(&s1, &s2, "{ctx}");
        assert!(s1.iter().all(|t| *t < vocab), "{ctx}");
        assert!((2..=20).contains(&s1.len()), "{ctx}: len={}", s1.len());
        assert_eq!(c.sentence_length(index).unwrap(), s1.len(), "{ctx}");
    }
}

#[test]
fn tracker_rejects_out_of_range_loads() {
    let mut rng = Rng64::new(0x4453_0006);
    for case in 0..CASES {
        let total = 1 + rng.next_index(99);
        let beyond = rng.next_index(50);
        let t = SampleTracker::new(total);
        assert!(
            t.load(&[total + beyond]).is_err(),
            "case {case}: total={total} beyond={beyond}"
        );
        assert!(t.load(&[total - 1]).is_ok(), "case {case}: total={total}");
    }
}
