//! Property-style tests for the accuracy metrics.
//!
//! Seeded `Rng64` case loops replace the former property-testing
//! framework; failure messages carry the case seed for replay.

use mlperf_metrics::{
    corpus_bleu, mean_average_precision, top1_accuracy, BoundingBox, Detection, GroundTruth,
};
use mlperf_stats::Rng64;

const CASES: u64 = 32;

fn random_box(rng: &mut Rng64) -> BoundingBox {
    let x = rng.next_f64() as f32 * 50.0;
    let y = rng.next_f64() as f32 * 50.0;
    let w = 1.0 + rng.next_f64() as f32 * 49.0;
    let h = 1.0 + rng.next_f64() as f32 * 49.0;
    BoundingBox::new(x, y, x + w, y + h)
}

#[test]
fn top1_in_unit_interval() {
    let mut rng = Rng64::new(0x4d45_0001);
    for case in 0..CASES {
        let n = 1 + rng.next_index(99);
        let preds: Vec<usize> = (0..n).map(|_| rng.next_index(10)).collect();
        let labels: Vec<usize> = (0..n).map(|_| rng.next_index(10)).collect();
        let acc = top1_accuracy(&preds, &labels);
        assert!((0.0..=1.0).contains(&acc), "case {case}: n={n} acc={acc}");
    }
}

#[test]
fn iou_symmetric_and_bounded() {
    let mut rng = Rng64::new(0x4d45_0003);
    for case in 0..CASES {
        let a = random_box(&mut rng);
        let b = random_box(&mut rng);
        let ab = a.iou(&b);
        let ba = b.iou(&a);
        let ctx = format!("case {case}: a={a:?} b={b:?}");
        assert!((ab - ba).abs() < 1e-5, "{ctx}: ab={ab} ba={ba}");
        assert!((0.0..=1.0 + 1e-6).contains(&ab), "{ctx}: ab={ab}");
        assert!((a.iou(&a) - 1.0).abs() < 1e-5, "{ctx}");
    }
}

#[test]
fn map_bounded_and_perfect_on_self() {
    let mut rng = Rng64::new(0x4d45_0004);
    for case in 0..CASES {
        let n = 1 + rng.next_index(19);
        let gts: Vec<GroundTruth> = (0..n)
            .map(|_| GroundTruth {
                image_id: rng.next_index(4),
                class: rng.next_index(3),
                bbox: random_box(&mut rng),
            })
            .collect();
        // Echoing ground truth back as detections yields mAP close to 1
        // (ties between identical overlapping boxes can cost a little).
        let dets: Vec<Detection> = gts
            .iter()
            .map(|g| Detection {
                image_id: g.image_id,
                class: g.class,
                score: 0.9,
                bbox: g.bbox,
            })
            .collect();
        let map = mean_average_precision(&dets, &gts, 0.5);
        assert!((0.0..=1.0 + 1e-9).contains(&map), "case {case}: map={map}");
        // Every detection matches *some* ground truth (its own twin), so the
        // score is positive.
        assert!(map > 0.0, "case {case}: map={map}");
    }
}

fn random_corpus(
    rng: &mut Rng64,
    sentences: usize,
    min_len: usize,
    max_len: usize,
) -> Vec<Vec<u32>> {
    (0..sentences)
        .map(|_| {
            let len = min_len + rng.next_index(max_len - min_len + 1);
            (0..len).map(|_| rng.next_below(20) as u32).collect()
        })
        .collect()
}

#[test]
fn bleu_bounded_and_100_on_identity() {
    let mut rng = Rng64::new(0x4d45_0005);
    for case in 0..CASES {
        let n = 1 + rng.next_index(9);
        let corpus = random_corpus(&mut rng, n, 1, 14);
        let self_score = corpus_bleu(&corpus, &corpus);
        assert!(
            (self_score - 100.0).abs() < 1e-6,
            "case {case}: self={self_score}"
        );
        // Against a shifted-vocabulary corpus: zero overlap.
        let shifted: Vec<Vec<u32>> = corpus
            .iter()
            .map(|s| s.iter().map(|t| t + 100).collect())
            .collect();
        let zero = corpus_bleu(&shifted, &corpus);
        assert_eq!(zero, 0.0, "case {case}");
    }
}

#[test]
fn bleu_degrades_with_corruption() {
    let mut rng = Rng64::new(0x4d45_0006);
    for case in 0..CASES {
        let n = 3 + rng.next_index(5);
        let sentences = random_corpus(&mut rng, n, 6, 19);
        // Corrupting the tail of each candidate cannot raise BLEU above self-score.
        let corrupted: Vec<Vec<u32>> = sentences
            .iter()
            .map(|s| {
                let mut c = s.clone();
                let len = c.len();
                for t in c[len - 2..].iter_mut() {
                    *t += 50;
                }
                c
            })
            .collect();
        let clean = corpus_bleu(&sentences, &sentences);
        let noisy = corpus_bleu(&corrupted, &sentences);
        assert!(
            noisy <= clean + 1e-9,
            "case {case}: noisy={noisy} clean={clean}"
        );
        assert!((0.0..=100.0).contains(&noisy), "case {case}: noisy={noisy}");
    }
}
