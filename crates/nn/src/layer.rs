//! Typed layers.

use mlperf_tensor::ops::{self, Conv2dParams};
use mlperf_tensor::{Shape, Tensor, TensorError};

/// Pointwise activation applied after a parameterized layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    None,
    /// `max(x, 0)`.
    Relu,
    /// `clamp(x, 0, 6)` — MobileNet's activation.
    Relu6,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Applies the activation.
    pub(crate) fn apply(&self, t: &Tensor) -> Tensor {
        match self {
            Activation::None => t.clone(),
            Activation::Relu => ops::relu(t),
            Activation::Relu6 => ops::relu6(t),
            Activation::Tanh => ops::tanh(t),
            Activation::Sigmoid => ops::sigmoid(t),
        }
    }
}

/// A single network layer.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Layer {
    /// Standard 2-D convolution.
    Conv2d {
        /// `[OutC, InC, KH, KW]` weights.
        weight: Tensor,
        /// `[OutC]` bias.
        bias: Tensor,
        /// Stride and padding.
        params: Conv2dParams,
        /// Post-activation.
        activation: Activation,
    },
    /// Depthwise 2-D convolution.
    DepthwiseConv2d {
        /// `[C, 1, KH, KW]` weights.
        weight: Tensor,
        /// `[C]` bias.
        bias: Tensor,
        /// Stride and padding.
        params: Conv2dParams,
        /// Post-activation.
        activation: Activation,
    },
    /// Fully connected layer over a rank-1 input.
    Dense {
        /// `[Out, In]` weights.
        weight: Tensor,
        /// `[Out]` bias.
        bias: Tensor,
        /// Post-activation.
        activation: Activation,
    },
    /// Non-overlapping max pooling with window and stride `k`.
    MaxPool {
        /// Window size.
        k: usize,
    },
    /// Global average pooling (`[C,H,W]` → `[C]`).
    GlobalAvgPool,
}

impl Layer {
    /// Runs the layer forward.
    ///
    /// # Errors
    ///
    /// Propagates [`TensorError`] from the underlying kernel on shape
    /// disagreements.
    pub(crate) fn forward(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        match self {
            Layer::Conv2d {
                weight,
                bias,
                params,
                activation,
            } => Ok(activation.apply(&ops::conv2d(input, weight, bias, *params)?)),
            Layer::DepthwiseConv2d {
                weight,
                bias,
                params,
                activation,
            } => Ok(activation.apply(&ops::depthwise_conv2d(input, weight, bias, *params)?)),
            Layer::Dense {
                weight,
                bias,
                activation,
            } => Ok(activation.apply(&ops::dense(input, weight, bias)?)),
            Layer::MaxPool { k } => ops::maxpool2d(input, *k),
            Layer::GlobalAvgPool => ops::global_avgpool(input),
        }
    }

    /// Output shape for a given input shape, or an error if incompatible.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] when the layer cannot accept the shape.
    pub(crate) fn output_shape(&self, input: &Shape) -> Result<Shape, TensorError> {
        match self {
            Layer::Conv2d { weight, params, .. } => {
                let (ic, h, w) = expect_rank3(input)?;
                let wd = weight.shape().dims();
                if wd[1] != ic {
                    return Err(TensorError::ShapeMismatch {
                        left: input.clone(),
                        right: weight.shape().clone(),
                    });
                }
                let oh = extent(params, h, wd[2])?;
                let ow = extent(params, w, wd[3])?;
                Ok(Shape::d3(wd[0], oh, ow))
            }
            Layer::DepthwiseConv2d { weight, params, .. } => {
                let (c, h, w) = expect_rank3(input)?;
                let wd = weight.shape().dims();
                if wd[0] != c {
                    return Err(TensorError::ShapeMismatch {
                        left: input.clone(),
                        right: weight.shape().clone(),
                    });
                }
                let oh = extent(params, h, wd[2])?;
                let ow = extent(params, w, wd[3])?;
                Ok(Shape::d3(c, oh, ow))
            }
            Layer::Dense { weight, .. } => {
                if input.rank() != 1 || input.len() != weight.shape().dim(1) {
                    return Err(TensorError::ShapeMismatch {
                        left: input.clone(),
                        right: weight.shape().clone(),
                    });
                }
                Ok(Shape::d1(weight.shape().dim(0)))
            }
            Layer::MaxPool { k } => {
                let (c, h, w) = expect_rank3(input)?;
                if *k == 0 || *k > h || *k > w {
                    return Err(TensorError::BadParameter(format!(
                        "pool window {k} invalid for {h}x{w}"
                    )));
                }
                Ok(Shape::d3(c, h / k, w / k))
            }
            Layer::GlobalAvgPool => {
                let (c, _, _) = expect_rank3(input)?;
                Ok(Shape::d1(c))
            }
        }
    }

    /// Number of trainable parameters.
    pub(crate) fn param_count(&self) -> usize {
        match self {
            Layer::Conv2d { weight, bias, .. }
            | Layer::DepthwiseConv2d { weight, bias, .. }
            | Layer::Dense { weight, bias, .. } => weight.len() + bias.len(),
            _ => 0,
        }
    }

    /// Multiply-accumulate operations for one forward pass at `input` shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] when the layer cannot accept the shape.
    pub(crate) fn mac_count(&self, input: &Shape) -> Result<u64, TensorError> {
        let out = self.output_shape(input)?;
        Ok(match self {
            Layer::Conv2d { weight, .. } => {
                let wd = weight.shape().dims();
                out.len() as u64 * (wd[1] * wd[2] * wd[3]) as u64
            }
            Layer::DepthwiseConv2d { weight, .. } => {
                let wd = weight.shape().dims();
                out.len() as u64 * (wd[2] * wd[3]) as u64
            }
            Layer::Dense { weight, .. } => weight.len() as u64,
            _ => 0,
        })
    }
}

fn expect_rank3(s: &Shape) -> Result<(usize, usize, usize), TensorError> {
    let d = s.dims();
    if d.len() != 3 {
        return Err(TensorError::ShapeMismatch {
            left: s.clone(),
            right: Shape::d3(1, 1, 1),
        });
    }
    Ok((d[0], d[1], d[2]))
}

fn extent(p: &Conv2dParams, input: usize, kernel: usize) -> Result<usize, TensorError> {
    p.out_extent(input, kernel)
        .ok_or_else(|| TensorError::BadParameter(format!("kernel {kernel} too large for {input}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::WeightInit;
    use mlperf_stats::Rng64;

    fn conv_layer(rng: &mut Rng64) -> Layer {
        let init = WeightInit::he();
        Layer::Conv2d {
            weight: init.conv_weight(4, 2, 3, rng),
            bias: init.bias(4),
            params: Conv2dParams::UNIT,
            activation: Activation::Relu,
        }
    }

    #[test]
    fn conv_output_shape_matches_forward() {
        let mut rng = Rng64::new(1);
        let layer = conv_layer(&mut rng);
        let input = Tensor::zeros(Shape::d3(2, 8, 8));
        let expected = layer.output_shape(input.shape()).unwrap();
        let out = layer.forward(&input).unwrap();
        assert_eq!(out.shape(), &expected);
        assert_eq!(expected.dims(), &[4, 8, 8]);
    }

    #[test]
    fn relu_activation_applied() {
        let layer = Layer::Dense {
            weight: Tensor::from_vec(Shape::d2(1, 1), vec![-1.0]).unwrap(),
            bias: Tensor::zeros(Shape::d1(1)),
            activation: Activation::Relu,
        };
        let out = layer
            .forward(&Tensor::from_vec(Shape::d1(1), vec![5.0]).unwrap())
            .unwrap();
        assert_eq!(out.data(), &[0.0]);
    }

    #[test]
    fn all_activations_apply() {
        let t = Tensor::from_vec(Shape::d1(2), vec![-1.0, 8.0]).unwrap();
        assert_eq!(Activation::None.apply(&t).data(), &[-1.0, 8.0]);
        assert_eq!(Activation::Relu.apply(&t).data(), &[0.0, 8.0]);
        assert_eq!(Activation::Relu6.apply(&t).data(), &[0.0, 6.0]);
        assert!(Activation::Sigmoid.apply(&t).data()[0] < 0.5);
        assert!(Activation::Tanh.apply(&t).data()[0] < 0.0);
    }

    #[test]
    fn pool_shapes() {
        let input = Shape::d3(3, 8, 8);
        assert_eq!(
            Layer::MaxPool { k: 2 }.output_shape(&input).unwrap().dims(),
            &[3, 4, 4]
        );
        assert_eq!(
            Layer::GlobalAvgPool.output_shape(&input).unwrap().dims(),
            &[3]
        );
    }

    #[test]
    fn mac_count_hand_checked() {
        // Conv: out elements (4*8*8) * per-element MACs (2*3*3) = 4608.
        let mut rng = Rng64::new(2);
        let layer = conv_layer(&mut rng);
        assert_eq!(layer.mac_count(&Shape::d3(2, 8, 8)).unwrap(), 256 * 18);
        let dense = Layer::Dense {
            weight: Tensor::zeros(Shape::d2(10, 4)),
            bias: Tensor::zeros(Shape::d1(10)),
            activation: Activation::None,
        };
        assert_eq!(dense.mac_count(&Shape::d1(4)).unwrap(), 40);
        assert_eq!(
            Layer::GlobalAvgPool.mac_count(&Shape::d3(1, 2, 2)).unwrap(),
            0
        );
    }

    #[test]
    fn param_count() {
        let dense = Layer::Dense {
            weight: Tensor::zeros(Shape::d2(10, 4)),
            bias: Tensor::zeros(Shape::d1(10)),
            activation: Activation::None,
        };
        assert_eq!(dense.param_count(), 50);
        assert_eq!(Layer::GlobalAvgPool.param_count(), 0);
    }

    #[test]
    fn shape_errors_propagate() {
        let layer = Layer::Dense {
            weight: Tensor::zeros(Shape::d2(2, 3)),
            bias: Tensor::zeros(Shape::d1(2)),
            activation: Activation::None,
        };
        assert!(layer.output_shape(&Shape::d1(5)).is_err());
        assert!(layer.forward(&Tensor::zeros(Shape::d1(5))).is_err());
        assert!(Layer::GlobalAvgPool.output_shape(&Shape::d2(2, 2)).is_err());
        assert!(Layer::MaxPool { k: 9 }
            .output_shape(&Shape::d3(1, 4, 4))
            .is_err());
    }
}
