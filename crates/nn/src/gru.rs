//! A GRU cell for the GNMT-style recurrent proxy model.
//!
//! GNMT is the paper's RNN representative (Table I). The proxy translation
//! model in `mlperf-models` uses a single-layer GRU encoder and decoder built
//! from this cell; that is enough recurrence to exhibit the properties the
//! benchmark cares about (sequential data dependence, variable sequence
//! length, quantization sensitivity of recurrent state).

use crate::init::WeightInit;
use crate::NnError;
use mlperf_stats::Rng64;
use mlperf_tensor::ops::{concat1, dense, sigmoid, tanh};
use mlperf_tensor::{Shape, Tensor};

/// A gated recurrent unit: `h' = (1-z)·h + z·h̃`.
#[derive(Debug, Clone, PartialEq)]
pub struct GruCell {
    input_dim: usize,
    hidden_dim: usize,
    // Gate weights operate on [x ; h] concatenations.
    w_update: Tensor,
    b_update: Tensor,
    w_reset: Tensor,
    b_reset: Tensor,
    w_cand: Tensor,
    b_cand: Tensor,
}

impl GruCell {
    /// Creates a cell with deterministic Xavier-initialized weights.
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut Rng64) -> Self {
        let init = WeightInit::xavier();
        let joint = input_dim + hidden_dim;
        Self {
            input_dim,
            hidden_dim,
            w_update: init.dense_weight(hidden_dim, joint, rng),
            b_update: init.bias(hidden_dim),
            w_reset: init.dense_weight(hidden_dim, joint, rng),
            b_reset: init.bias(hidden_dim),
            w_cand: init.dense_weight(hidden_dim, joint, rng),
            b_cand: init.bias(hidden_dim),
        }
    }

    /// The input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The hidden-state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Fresh all-zero hidden state.
    pub fn zero_state(&self) -> Tensor {
        Tensor::zeros(Shape::d1(self.hidden_dim))
    }

    /// Advances the hidden state by one input step.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if `x` or `h` have the wrong length.
    pub fn step(&self, x: &Tensor, h: &Tensor) -> Result<Tensor, NnError> {
        if x.shape().dims() != [self.input_dim] || h.shape().dims() != [self.hidden_dim] {
            return Err(NnError::BadDefinition(format!(
                "gru step expects x[{}] h[{}], got {} and {}",
                self.input_dim,
                self.hidden_dim,
                x.shape(),
                h.shape()
            )));
        }
        let xh = concat1(x, h)?;
        let z = sigmoid(&dense(&xh, &self.w_update, &self.b_update)?);
        let r = sigmoid(&dense(&xh, &self.w_reset, &self.b_reset)?);
        // Candidate uses the reset-gated hidden state.
        let rh = Tensor::from_vec(
            Shape::d1(self.hidden_dim),
            r.data().iter().zip(h.data()).map(|(a, b)| a * b).collect(),
        )?;
        let xrh = concat1(x, &rh)?;
        let cand = tanh(&dense(&xrh, &self.w_cand, &self.b_cand)?);
        let out = Tensor::from_vec(
            Shape::d1(self.hidden_dim),
            z.data()
                .iter()
                .zip(h.data())
                .zip(cand.data())
                .map(|((zi, hi), ci)| (1.0 - zi) * hi + zi * ci)
                .collect(),
        )?;
        Ok(out)
    }

    /// Runs the cell over a whole sequence, returning the final state.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if any step input has the wrong length.
    pub fn run(&self, inputs: &[Tensor]) -> Result<Tensor, NnError> {
        let mut h = self.zero_state();
        for x in inputs {
            h = self.step(x, &h)?;
        }
        Ok(h)
    }

    /// Returns a cell with every weight matrix transformed by `f` (biases
    /// untouched). Used to build post-training-quantized variants: pass a
    /// quantize→dequantize roundtrip to emulate INT8 weight storage.
    pub fn map_weights<F: Fn(&Tensor) -> Tensor>(&self, f: F) -> Self {
        Self {
            input_dim: self.input_dim,
            hidden_dim: self.hidden_dim,
            w_update: f(&self.w_update),
            b_update: self.b_update.clone(),
            w_reset: f(&self.w_reset),
            b_reset: self.b_reset.clone(),
            w_cand: f(&self.w_cand),
            b_cand: self.b_cand.clone(),
        }
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w_update.len()
            + self.w_reset.len()
            + self.w_cand.len()
            + self.b_update.len()
            + self.b_reset.len()
            + self.b_cand.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_hot(dim: usize, i: usize) -> Tensor {
        Tensor::fill_with(Shape::d1(dim), |idx| if idx[0] == i { 1.0 } else { 0.0 })
    }

    #[test]
    fn state_stays_bounded() {
        let mut rng = Rng64::new(1);
        let cell = GruCell::new(4, 8, &mut rng);
        let mut h = cell.zero_state();
        for i in 0..100 {
            h = cell.step(&one_hot(4, i % 4), &h).unwrap();
        }
        // GRU state is a convex combination of tanh outputs: |h| <= 1.
        assert!(h.data().iter().all(|x| x.abs() <= 1.0));
    }

    #[test]
    fn zero_input_zero_state_moves_little() {
        let mut rng = Rng64::new(2);
        let cell = GruCell::new(3, 5, &mut rng);
        let h = cell
            .step(&Tensor::zeros(Shape::d1(3)), &cell.zero_state())
            .unwrap();
        // With zero biases the candidate is tanh(0)=0, so the state stays 0.
        assert!(h.data().iter().all(|x| x.abs() < 1e-6));
    }

    #[test]
    fn different_inputs_different_states() {
        let mut rng = Rng64::new(3);
        let cell = GruCell::new(4, 6, &mut rng);
        let a = cell.run(&[one_hot(4, 0), one_hot(4, 1)]).unwrap();
        let b = cell.run(&[one_hot(4, 1), one_hot(4, 0)]).unwrap();
        assert_ne!(a, b, "GRU must be order sensitive");
    }

    #[test]
    fn run_is_deterministic() {
        let mut r1 = Rng64::new(4);
        let mut r2 = Rng64::new(4);
        let c1 = GruCell::new(4, 6, &mut r1);
        let c2 = GruCell::new(4, 6, &mut r2);
        let seq = vec![one_hot(4, 2), one_hot(4, 0), one_hot(4, 3)];
        assert_eq!(c1.run(&seq).unwrap(), c2.run(&seq).unwrap());
    }

    #[test]
    fn rejects_wrong_dims() {
        let mut rng = Rng64::new(5);
        let cell = GruCell::new(4, 6, &mut rng);
        assert!(cell
            .step(&Tensor::zeros(Shape::d1(5)), &cell.zero_state())
            .is_err());
        assert!(cell
            .step(&Tensor::zeros(Shape::d1(4)), &Tensor::zeros(Shape::d1(7)))
            .is_err());
    }

    #[test]
    fn map_weights_quantization_roundtrip_changes_little() {
        use mlperf_tensor::QTensor;
        let mut rng = Rng64::new(9);
        let cell = GruCell::new(4, 6, &mut rng);
        let quantized = cell.map_weights(|w| QTensor::quantize(w).dequantize());
        let seq = vec![one_hot(4, 1), one_hot(4, 3), one_hot(4, 0)];
        let a = cell.run(&seq).unwrap();
        let b = quantized.run(&seq).unwrap();
        assert_ne!(a, b, "quantization must perturb the state");
        let max_err = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 0.1, "max_err={max_err}");
    }

    #[test]
    fn counts() {
        let mut rng = Rng64::new(6);
        let cell = GruCell::new(4, 6, &mut rng);
        // Three gate matrices of [6 x 10] plus three [6] biases.
        assert_eq!(cell.param_count(), 3 * 60 + 3 * 6);
        assert_eq!(cell.input_dim(), 4);
        assert_eq!(cell.hidden_dim(), 6);
    }
}
