//! Deterministic weight initialization.
//!
//! Teacher networks in this reproduction are *generated*, not trained: a
//! seeded He-style initialization produces a fixed random network whose
//! outputs define the synthetic datasets' ground truth (see
//! `mlperf-datasets`). Determinism matters more than training dynamics here,
//! so the init is a simple scaled uniform.

use mlperf_stats::Rng64;
use mlperf_tensor::{Shape, Tensor};

/// A weight initializer with a configurable gain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WeightInit {
    gain: f32,
}

impl WeightInit {
    /// He-style initializer (`gain = sqrt(2)`), the right default for
    /// ReLU-family networks.
    pub(crate) fn he() -> Self {
        Self {
            gain: std::f32::consts::SQRT_2,
        }
    }

    /// Xavier-style initializer (`gain = 1`), used for tanh/sigmoid gates.
    pub(crate) fn xavier() -> Self {
        Self { gain: 1.0 }
    }

    /// Uniform sample in `[-limit, limit]` where
    /// `limit = gain * sqrt(3 / fan_in)`.
    fn sample(&self, fan_in: usize, rng: &mut Rng64) -> f32 {
        let limit = self.gain * (3.0 / fan_in.max(1) as f32).sqrt();
        (rng.next_f64() as f32 * 2.0 - 1.0) * limit
    }

    /// `[OutC, InC, K, K]` convolution weights.
    pub(crate) fn conv_weight(
        &self,
        out_c: usize,
        in_c: usize,
        k: usize,
        rng: &mut Rng64,
    ) -> Tensor {
        let fan_in = in_c * k * k;
        Tensor::fill_with(Shape::d4(out_c, in_c, k, k), |_| self.sample(fan_in, rng))
    }

    /// `[C, 1, K, K]` depthwise convolution weights.
    pub(crate) fn depthwise_weight(&self, c: usize, k: usize, rng: &mut Rng64) -> Tensor {
        let fan_in = k * k;
        Tensor::fill_with(Shape::d4(c, 1, k, k), |_| self.sample(fan_in, rng))
    }

    /// `[Out, In]` dense weights.
    pub(crate) fn dense_weight(&self, out: usize, inp: usize, rng: &mut Rng64) -> Tensor {
        Tensor::fill_with(Shape::d2(out, inp), |_| self.sample(inp, rng))
    }

    /// Zero bias of length `n`.
    pub(crate) fn bias(&self, n: usize) -> Tensor {
        Tensor::zeros(Shape::d1(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng64::new(5);
        let mut b = Rng64::new(5);
        let init = WeightInit::he();
        assert_eq!(
            init.conv_weight(2, 3, 3, &mut a),
            init.conv_weight(2, 3, 3, &mut b)
        );
    }

    #[test]
    fn bounded_by_limit() {
        let mut rng = Rng64::new(9);
        let init = WeightInit::he();
        let w = init.dense_weight(16, 64, &mut rng);
        let limit = std::f32::consts::SQRT_2 * (3.0f32 / 64.0).sqrt();
        assert!(w.data().iter().all(|x| x.abs() <= limit));
        // And not degenerate: values actually vary.
        assert!(w.abs_max() > limit * 0.5);
    }

    #[test]
    fn shapes_correct() {
        let mut rng = Rng64::new(1);
        let init = WeightInit::xavier();
        assert_eq!(
            init.conv_weight(4, 2, 3, &mut rng).shape().dims(),
            &[4, 2, 3, 3]
        );
        assert_eq!(
            init.depthwise_weight(5, 3, &mut rng).shape().dims(),
            &[5, 1, 3, 3]
        );
        assert_eq!(init.dense_weight(7, 9, &mut rng).shape().dims(), &[7, 9]);
        assert_eq!(init.bias(6).shape().dims(), &[6]);
    }
}
