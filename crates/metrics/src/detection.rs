//! Object-detection mean average precision (mAP).
//!
//! Implements the standard single-IoU-threshold evaluation used by
//! PASCAL-style scoring with COCO's 101-point precision/recall
//! interpolation:
//!
//! 1. Per class, sort detections across all images by descending confidence.
//! 2. Greedily match each detection to the best-IoU unmatched ground truth
//!    in its image (IoU ≥ threshold → true positive, else false positive).
//! 3. Build the precision/recall curve, take the interpolated precision
//!    (running max from the right) at 101 evenly spaced recall points.
//! 4. mAP = mean of per-class APs over classes with at least one ground
//!    truth.

/// An axis-aligned bounding box `[x1, y1, x2, y2]` with `x2 > x1`, `y2 > y1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Left edge.
    pub x1: f32,
    /// Top edge.
    pub y1: f32,
    /// Right edge.
    pub x2: f32,
    /// Bottom edge.
    pub y2: f32,
}

impl BoundingBox {
    /// Creates a box.
    ///
    /// # Panics
    ///
    /// Panics if the box is degenerate (`x2 <= x1` or `y2 <= y1`) or any
    /// coordinate is non-finite.
    pub fn new(x1: f32, y1: f32, x2: f32, y2: f32) -> Self {
        assert!(
            x1.is_finite() && y1.is_finite() && x2.is_finite() && y2.is_finite(),
            "box coordinates must be finite"
        );
        assert!(x2 > x1 && y2 > y1, "degenerate box [{x1},{y1},{x2},{y2}]");
        Self { x1, y1, x2, y2 }
    }

    /// Box area.
    pub(crate) fn area(&self) -> f32 {
        (self.x2 - self.x1) * (self.y2 - self.y1)
    }

    /// Intersection-over-union with another box.
    pub fn iou(&self, other: &BoundingBox) -> f32 {
        let ix1 = self.x1.max(other.x1);
        let iy1 = self.y1.max(other.y1);
        let ix2 = self.x2.min(other.x2);
        let iy2 = self.y2.min(other.y2);
        let iw = (ix2 - ix1).max(0.0);
        let ih = (iy2 - iy1).max(0.0);
        let inter = iw * ih;
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }
}

/// A predicted box with class and confidence, tagged with its image id.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// The image this detection belongs to.
    pub image_id: usize,
    /// Predicted class index.
    pub class: usize,
    /// Confidence score in `[0, 1]`.
    pub score: f32,
    /// Predicted box.
    pub bbox: BoundingBox,
}

/// A ground-truth box with class, tagged with its image id.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    /// The image this annotation belongs to.
    pub image_id: usize,
    /// True class index.
    pub class: usize,
    /// True box.
    pub bbox: BoundingBox,
}

/// Computes mAP at the given IoU threshold.
///
/// Classes that never occur in the ground truth are ignored. Returns 0 when
/// the ground truth is empty.
///
/// # Examples
///
/// ```
/// use mlperf_metrics::{mean_average_precision, BoundingBox, Detection, GroundTruth};
///
/// let gt = vec![GroundTruth { image_id: 0, class: 0, bbox: BoundingBox::new(0., 0., 10., 10.) }];
/// let det = vec![Detection { image_id: 0, class: 0, score: 0.9,
///                            bbox: BoundingBox::new(0., 0., 10., 10.) }];
/// assert!((mean_average_precision(&det, &gt, 0.5) - 1.0).abs() < 1e-9);
/// ```
pub fn mean_average_precision(
    detections: &[Detection],
    ground_truths: &[GroundTruth],
    iou_threshold: f32,
) -> f64 {
    let classes: std::collections::BTreeSet<usize> =
        ground_truths.iter().map(|g| g.class).collect();
    if classes.is_empty() {
        return 0.0;
    }
    let total: f64 = classes
        .iter()
        .map(|c| average_precision(detections, ground_truths, *c, iou_threshold))
        .sum();
    total / classes.len() as f64
}

/// Average precision for one class (101-point interpolation).
pub(crate) fn average_precision(
    detections: &[Detection],
    ground_truths: &[GroundTruth],
    class: usize,
    iou_threshold: f32,
) -> f64 {
    let gts: Vec<&GroundTruth> = ground_truths.iter().filter(|g| g.class == class).collect();
    if gts.is_empty() {
        return 0.0;
    }
    let mut dets: Vec<&Detection> = detections.iter().filter(|d| d.class == class).collect();
    if dets.is_empty() {
        return 0.0;
    }
    dets.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut matched = vec![false; gts.len()];
    let mut tp = Vec::with_capacity(dets.len());
    for det in &dets {
        // Best unmatched ground truth in the same image.
        let mut best: Option<(usize, f32)> = None;
        for (gi, gt) in gts.iter().enumerate() {
            if gt.image_id != det.image_id || matched[gi] {
                continue;
            }
            let iou = det.bbox.iou(&gt.bbox);
            if iou >= iou_threshold && best.is_none_or(|(_, b)| iou > b) {
                best = Some((gi, iou));
            }
        }
        match best {
            Some((gi, _)) => {
                matched[gi] = true;
                tp.push(true);
            }
            None => tp.push(false),
        }
    }
    // Precision/recall curve.
    let total_gt = gts.len() as f64;
    let mut cum_tp = 0usize;
    let mut precisions = Vec::with_capacity(tp.len());
    let mut recalls = Vec::with_capacity(tp.len());
    for (i, hit) in tp.iter().enumerate() {
        if *hit {
            cum_tp += 1;
        }
        precisions.push(cum_tp as f64 / (i + 1) as f64);
        recalls.push(cum_tp as f64 / total_gt);
    }
    // Interpolated precision: running max from the right.
    for i in (0..precisions.len().saturating_sub(1)).rev() {
        precisions[i] = precisions[i].max(precisions[i + 1]);
    }
    // 101-point average.
    let mut ap = 0.0;
    for k in 0..=100 {
        let r = k as f64 / 100.0;
        // First index with recall >= r.
        let p = recalls
            .iter()
            .position(|rec| *rec >= r)
            .map_or(0.0, |i| precisions[i]);
        ap += p;
    }
    ap / 101.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bx(x1: f32, y1: f32, x2: f32, y2: f32) -> BoundingBox {
        BoundingBox::new(x1, y1, x2, y2)
    }

    fn gt(image: usize, class: usize, b: BoundingBox) -> GroundTruth {
        GroundTruth {
            image_id: image,
            class,
            bbox: b,
        }
    }

    fn det(image: usize, class: usize, score: f32, b: BoundingBox) -> Detection {
        Detection {
            image_id: image,
            class,
            score,
            bbox: b,
        }
    }

    #[test]
    fn iou_identical_is_one() {
        let b = bx(0., 0., 4., 4.);
        assert!((b.iou(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn iou_disjoint_is_zero() {
        assert_eq!(bx(0., 0., 1., 1.).iou(&bx(2., 2., 3., 3.)), 0.0);
    }

    #[test]
    fn iou_half_overlap() {
        // [0,0,2,1] vs [1,0,3,1]: intersection 1, union 3.
        let v = bx(0., 0., 2., 1.).iou(&bx(1., 0., 3., 1.));
        assert!((v - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn perfect_detection_gives_map_one() {
        let gts = vec![gt(0, 0, bx(0., 0., 5., 5.)), gt(1, 1, bx(2., 2., 8., 8.))];
        let dets = vec![
            det(0, 0, 0.9, bx(0., 0., 5., 5.)),
            det(1, 1, 0.8, bx(2., 2., 8., 8.)),
        ];
        assert!((mean_average_precision(&dets, &gts, 0.5) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wrong_class_scores_zero() {
        let gts = vec![gt(0, 0, bx(0., 0., 5., 5.))];
        let dets = vec![det(0, 1, 0.9, bx(0., 0., 5., 5.))];
        assert_eq!(mean_average_precision(&dets, &gts, 0.5), 0.0);
    }

    #[test]
    fn wrong_image_scores_zero() {
        let gts = vec![gt(0, 0, bx(0., 0., 5., 5.))];
        let dets = vec![det(1, 0, 0.9, bx(0., 0., 5., 5.))];
        assert_eq!(mean_average_precision(&dets, &gts, 0.5), 0.0);
    }

    #[test]
    fn duplicate_detections_penalized() {
        // Two detections on one ground truth: the duplicate is a false
        // positive, so AP sits below 1.
        let gts = vec![gt(0, 0, bx(0., 0., 5., 5.))];
        let dets = vec![
            det(0, 0, 0.9, bx(0., 0., 5., 5.)),
            det(0, 0, 0.8, bx(0., 0., 5., 5.)),
        ];
        let map = mean_average_precision(&dets, &gts, 0.5);
        assert!(
            (map - 1.0).abs() < 1e-9,
            "recall already 1 at first det: {map}"
        );
        // But with two ground truths and only one matching twice, recall
        // stays at 0.5 and precision falls.
        let gts2 = vec![
            gt(0, 0, bx(0., 0., 5., 5.)),
            gt(0, 0, bx(20., 20., 25., 25.)),
        ];
        let map2 = mean_average_precision(&dets, &gts2, 0.5);
        assert!(map2 < 0.6, "map2={map2}");
    }

    #[test]
    fn low_iou_is_false_positive() {
        let gts = vec![gt(0, 0, bx(0., 0., 10., 10.))];
        let dets = vec![det(0, 0, 0.9, bx(9., 9., 19., 19.))];
        assert_eq!(mean_average_precision(&dets, &gts, 0.5), 0.0);
    }

    #[test]
    fn confidence_ordering_matters() {
        // High-confidence false positive ahead of a true positive drags AP
        // below the reverse ordering.
        let gts = vec![gt(0, 0, bx(0., 0., 10., 10.))];
        let fp_first = vec![
            det(0, 0, 0.9, bx(50., 50., 60., 60.)),
            det(0, 0, 0.5, bx(0., 0., 10., 10.)),
        ];
        let tp_first = vec![
            det(0, 0, 0.5, bx(50., 50., 60., 60.)),
            det(0, 0, 0.9, bx(0., 0., 10., 10.)),
        ];
        let a = mean_average_precision(&fp_first, &gts, 0.5);
        let b = mean_average_precision(&tp_first, &gts, 0.5);
        assert!(a < b, "{a} !< {b}");
    }

    #[test]
    fn map_averages_over_classes() {
        let gts = vec![
            gt(0, 0, bx(0., 0., 5., 5.)),
            gt(0, 1, bx(10., 10., 15., 15.)),
        ];
        // Perfect on class 0, nothing on class 1.
        let dets = vec![det(0, 0, 0.9, bx(0., 0., 5., 5.))];
        let map = mean_average_precision(&dets, &gts, 0.5);
        assert!((map - 0.5).abs() < 0.01, "map={map}");
    }

    #[test]
    fn empty_ground_truth_is_zero() {
        assert_eq!(mean_average_precision(&[], &[], 0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "degenerate box")]
    fn degenerate_box_panics() {
        bx(5., 5., 5., 10.);
    }
}
