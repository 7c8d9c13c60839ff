//! Top-1 classification accuracy.

/// Fraction of samples whose predicted label equals the ground truth.
///
/// `predictions` and `labels` are parallel slices of class indices.
///
/// # Examples
///
/// ```
/// use mlperf_metrics::top1_accuracy;
///
/// let acc = top1_accuracy(&[1, 2, 3, 0], &[1, 2, 0, 0]);
/// assert!((acc - 0.75).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn top1_accuracy(predictions: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(
        predictions.len(),
        labels.len(),
        "predictions and labels must be parallel"
    );
    assert!(!labels.is_empty(), "cannot score an empty run");
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top1_basic() {
        assert_eq!(top1_accuracy(&[0, 1], &[0, 1]), 1.0);
        assert_eq!(top1_accuracy(&[0, 1], &[1, 0]), 0.0);
        assert_eq!(top1_accuracy(&[0, 1, 2, 3], &[0, 9, 2, 9]), 0.5);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn top1_length_mismatch_panics() {
        top1_accuracy(&[0], &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn top1_empty_panics() {
        top1_accuracy(&[], &[]);
    }
}
