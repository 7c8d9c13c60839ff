//! Accuracy-script benchmarks: Top-1, mAP, and BLEU at realistic log sizes.

use mlperf_bench::runner::Bench;
use mlperf_metrics::{
    corpus_bleu, mean_average_precision, top1_accuracy, BoundingBox, Detection, GroundTruth,
};
use mlperf_stats::Rng64;
use std::hint::black_box;

fn main() {
    let bench = Bench::from_args();

    let mut rng = Rng64::new(1);
    let labels: Vec<usize> = (0..50_000).map(|_| rng.next_index(1_000)).collect();
    let preds: Vec<usize> = labels
        .iter()
        .map(|l| {
            if rng.next_bool(0.765) {
                *l
            } else {
                rng.next_index(1_000)
            }
        })
        .collect();
    bench.bench("top1_accuracy_50k_samples", || {
        black_box(top1_accuracy(&preds, &labels))
    });

    let mut rng = Rng64::new(2);
    let mut gts = Vec::new();
    let mut dets = Vec::new();
    for image in 0..500 {
        for _ in 0..5 {
            let x = rng.next_f64() as f32 * 50.0;
            let y = rng.next_f64() as f32 * 50.0;
            let bbox = BoundingBox::new(x, y, x + 8.0, y + 8.0);
            let class = rng.next_index(8);
            gts.push(GroundTruth {
                image_id: image,
                class,
                bbox,
            });
            if rng.next_bool(0.9) {
                dets.push(Detection {
                    image_id: image,
                    class,
                    score: rng.next_f64() as f32,
                    bbox: BoundingBox::new(x + 0.5, y + 0.5, x + 8.5, y + 8.5),
                });
            }
        }
    }
    bench.bench("map_500_images_2500_boxes", || {
        black_box(mean_average_precision(&dets, &gts, 0.5))
    });

    let mut rng = Rng64::new(3);
    let refs: Vec<Vec<u32>> = (0..3_000)
        .map(|_| (0..20).map(|_| rng.next_below(8_000) as u32).collect())
        .collect();
    let cands: Vec<Vec<u32>> = refs
        .iter()
        .map(|r| {
            r.iter()
                .map(|t| {
                    if rng.next_bool(0.9) {
                        *t
                    } else {
                        rng.next_below(8_000) as u32
                    }
                })
                .collect()
        })
        .collect();
    bench.bench("bleu_3k_sentence_corpus", || {
        black_box(corpus_bleu(&cands, &refs))
    });
}
