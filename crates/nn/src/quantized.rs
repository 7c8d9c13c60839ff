//! Post-training INT8 quantization of whole networks.
//!
//! Implements the paper's calibration workflow (Section IV-A): "MLPerf
//! provides a small, fixed data set that can be used to calibrate a quantized
//! network." [`QNetwork::quantize`] takes the FP32 network plus calibration
//! inputs, records the activation ranges observed at every quantizable layer,
//! and produces a network whose convolutions and dense layers run on `i8`
//! payloads with `i32` accumulation. Retraining is, per the rules, not
//! available — the accuracy gap you measure is the honest PTQ gap.

use crate::layer::{Activation, Layer};
use crate::network::{Network, Node};
use crate::NnError;
use mlperf_tensor::quant::{qconv2d_per_channel, qdense_per_channel, ChannelQTensor, QuantParams};
use mlperf_tensor::{QTensor, Tensor};

/// A quantized layer: INT8 where supported, FP32 passthrough elsewhere.
#[derive(Debug, Clone, PartialEq)]
enum QLayer {
    Conv2d {
        weight: ChannelQTensor,
        bias: Tensor,
        params: mlperf_tensor::ops::Conv2dParams,
        activation: Activation,
        input_quant: QuantParams,
    },
    Dense {
        weight: ChannelQTensor,
        bias: Tensor,
        activation: Activation,
        input_quant: QuantParams,
    },
    /// Layers that stay in FP32 (pooling and depthwise —
    /// depthwise is kept FP32 like many early mobile runtimes did).
    Passthrough(Layer),
}

impl QLayer {
    fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        match self {
            QLayer::Conv2d {
                weight,
                bias,
                params,
                activation,
                input_quant,
            } => {
                let qin = QTensor::quantize_with(input, *input_quant);
                Ok(activation.apply(&qconv2d_per_channel(&qin, weight, bias, *params)?))
            }
            QLayer::Dense {
                weight,
                bias,
                activation,
                input_quant,
            } => {
                let qin = QTensor::quantize_with(input, *input_quant);
                Ok(activation.apply(&qdense_per_channel(&qin, weight, bias)?))
            }
            QLayer::Passthrough(layer) => Ok(layer.forward(input)?),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum QNode {
    Layer(QLayer),
    Residual {
        body: Vec<QLayer>,
        activation: Activation,
    },
}

/// An INT8-quantized network.
///
/// # Examples
///
/// ```
/// use mlperf_nn::network::NetworkBuilder;
/// use mlperf_nn::layer::Activation;
/// use mlperf_nn::QNetwork;
/// use mlperf_tensor::{Shape, Tensor};
/// use mlperf_stats::Rng64;
///
/// let mut rng = Rng64::new(3);
/// let net = NetworkBuilder::new(Shape::d3(1, 6, 6))
///     .conv2d(2, 3, 1, 1, Activation::Relu, &mut rng)?
///     .global_avgpool()?
///     .dense(4, Activation::None, &mut rng)?
///     .build();
/// let calib = vec![Tensor::fill_with(Shape::d3(1, 6, 6), |i| i[1] as f32 / 6.0)];
/// let qnet = QNetwork::quantize(&net, &calib)?;
/// let out = qnet.forward(&calib[0])?;
/// assert_eq!(out.len(), 4);
/// # Ok::<(), mlperf_nn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QNetwork {
    input_shape: mlperf_tensor::Shape,
    nodes: Vec<QNode>,
}

impl QNetwork {
    /// Quantizes `network` using `calibration` inputs to set activation
    /// ranges.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if `calibration` is empty or a calibration input
    /// has the wrong shape.
    pub fn quantize(network: &Network, calibration: &[Tensor]) -> Result<Self, NnError> {
        Self::quantize_mixed(network, calibration, false)
    }

    /// Like [`QNetwork::quantize`], but with `fp32_head` the final
    /// parameterized layer stays in FP32 — the mixed-precision deployment
    /// common for detection heads, whose box/score regressions are more
    /// quantization-sensitive than backbone features.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QNetwork::quantize`].
    pub(crate) fn quantize_mixed(
        network: &Network,
        calibration: &[Tensor],
        fp32_head: bool,
    ) -> Result<Self, NnError> {
        if calibration.is_empty() {
            return Err(NnError::BadDefinition(
                "calibration set must not be empty".into(),
            ));
        }
        // Pass each calibration input through the FP32 network, recording the
        // abs-max of the activation arriving at every quantizable layer.
        // Ranges are indexed by traversal order: node index, then body index.
        let mut ranges: std::collections::HashMap<(usize, usize), f32> =
            std::collections::HashMap::new();
        for input in calibration {
            let mut x = input.clone();
            if x.shape() != network.input_shape() {
                return Err(NnError::BadDefinition(format!(
                    "calibration input shape {} does not match network input {}",
                    x.shape(),
                    network.input_shape()
                )));
            }
            for (ni, node) in network.nodes().iter().enumerate() {
                match node {
                    Node::Layer(layer) => {
                        record_range(&mut ranges, (ni, 0), layer, &x);
                        x = layer.forward(&x)?;
                    }
                    Node::Residual { body, activation } => {
                        let skip = x.clone();
                        let mut y = x;
                        for (bi, layer) in body.iter().enumerate() {
                            record_range(&mut ranges, (ni, bi), layer, &y);
                            y = layer.forward(&y)?;
                        }
                        x = activation.apply(&y.add(&skip)?);
                    }
                }
            }
        }
        // Index of the last parameterized node, kept FP32 in mixed mode.
        let head_index = if fp32_head {
            network.nodes().iter().rposition(|n| match n {
                Node::Layer(l) => matches!(l, Layer::Conv2d { .. } | Layer::Dense { .. }),
                Node::Residual { .. } => true,
            })
        } else {
            None
        };
        let nodes = network
            .nodes()
            .iter()
            .enumerate()
            .map(|(ni, node)| match node {
                Node::Layer(layer) => {
                    if head_index == Some(ni) {
                        QNode::Layer(QLayer::Passthrough(layer.clone()))
                    } else {
                        QNode::Layer(quantize_layer(layer, ranges.get(&(ni, 0))))
                    }
                }
                Node::Residual { body, activation } => QNode::Residual {
                    body: body
                        .iter()
                        .enumerate()
                        .map(|(bi, l)| {
                            if head_index == Some(ni) {
                                QLayer::Passthrough(l.clone())
                            } else {
                                quantize_layer(l, ranges.get(&(ni, bi)))
                            }
                        })
                        .collect(),
                    activation: *activation,
                },
            })
            .collect();
        Ok(Self {
            input_shape: network.input_shape().clone(),
            nodes,
        })
    }

    /// Runs a quantized forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if `input` does not match the network input shape.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        if input.shape() != &self.input_shape {
            return Err(NnError::BadDefinition(format!(
                "input shape {} does not match network input {}",
                input.shape(),
                self.input_shape
            )));
        }
        let mut x = input.clone();
        for node in &self.nodes {
            x = match node {
                QNode::Layer(l) => l.forward(&x)?,
                QNode::Residual { body, activation } => {
                    let skip = x.clone();
                    let mut y = x;
                    for l in body {
                        y = l.forward(&y)?;
                    }
                    activation.apply(&y.add(&skip)?)
                }
            };
        }
        Ok(x)
    }
}

fn record_range(
    ranges: &mut std::collections::HashMap<(usize, usize), f32>,
    key: (usize, usize),
    layer: &Layer,
    input: &Tensor,
) {
    if matches!(layer, Layer::Conv2d { .. } | Layer::Dense { .. }) {
        let e = ranges.entry(key).or_insert(0.0);
        *e = e.max(input.abs_max());
    }
}

fn quantize_layer(layer: &Layer, range: Option<&f32>) -> QLayer {
    match layer {
        Layer::Conv2d {
            weight,
            bias,
            params,
            activation,
        } => QLayer::Conv2d {
            weight: ChannelQTensor::quantize_dim0(weight),
            bias: bias.clone(),
            params: *params,
            activation: *activation,
            input_quant: QuantParams::from_abs_max(range.copied().unwrap_or(1.0)),
        },
        Layer::Dense {
            weight,
            bias,
            activation,
        } => QLayer::Dense {
            weight: ChannelQTensor::quantize_dim0(weight),
            bias: bias.clone(),
            activation: *activation,
            input_quant: QuantParams::from_abs_max(range.copied().unwrap_or(1.0)),
        },
        other => QLayer::Passthrough(other.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Activation;
    use crate::network::NetworkBuilder;
    use mlperf_stats::Rng64;
    use mlperf_tensor::Shape;

    fn net(seed: u64) -> Network {
        let mut rng = Rng64::new(seed);
        NetworkBuilder::new(Shape::d3(2, 8, 8))
            .conv2d(4, 3, 1, 1, Activation::Relu, &mut rng)
            .unwrap()
            .residual_block(Activation::Relu, &mut rng)
            .unwrap()
            .global_avgpool()
            .unwrap()
            .dense(6, Activation::None, &mut rng)
            .unwrap()
            .build()
    }

    fn inputs(n: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = Rng64::new(seed);
        (0..n)
            .map(|_| Tensor::fill_with(Shape::d3(2, 8, 8), |_| rng.next_f64() as f32 * 2.0 - 1.0))
            .collect()
    }

    #[test]
    fn quantized_outputs_close_but_not_identical() {
        let network = net(1);
        let calib = inputs(8, 100);
        let qnet = QNetwork::quantize(&network, &calib).unwrap();
        let test = inputs(16, 200);
        let mut max_rel = 0.0f32;
        let mut any_diff = false;
        for x in &test {
            let exact = network.forward(x).unwrap();
            let approx = qnet.forward(x).unwrap();
            let scale = exact.abs_max().max(1e-3);
            for (e, a) in exact.data().iter().zip(approx.data()) {
                max_rel = max_rel.max((e - a).abs() / scale);
                any_diff |= e != a;
            }
        }
        assert!(any_diff, "quantization changed nothing");
        assert!(max_rel < 0.25, "relative error too large: {max_rel}");
    }

    #[test]
    fn argmax_mostly_preserved() {
        // The quality-window story in miniature: most predictions agree.
        let network = net(2);
        let calib = inputs(8, 300);
        let qnet = QNetwork::quantize(&network, &calib).unwrap();
        let test = inputs(64, 400);
        let agree = test
            .iter()
            .filter(|x| network.forward(x).unwrap().argmax() == qnet.forward(x).unwrap().argmax())
            .count();
        assert!(agree >= 56, "only {agree}/64 argmax agreements");
    }

    #[test]
    fn empty_calibration_rejected() {
        assert!(QNetwork::quantize(&net(3), &[]).is_err());
    }

    #[test]
    fn wrong_calibration_shape_rejected() {
        let bad = vec![Tensor::zeros(Shape::d3(1, 8, 8))];
        assert!(QNetwork::quantize(&net(4), &bad).is_err());
    }

    #[test]
    fn wrong_input_shape_rejected() {
        let qnet = QNetwork::quantize(&net(5), &inputs(2, 1)).unwrap();
        assert!(qnet.forward(&Tensor::zeros(Shape::d3(2, 9, 9))).is_err());
    }

    #[test]
    fn quantization_is_deterministic() {
        let network = net(6);
        let calib = inputs(4, 7);
        let a = QNetwork::quantize(&network, &calib).unwrap();
        let b = QNetwork::quantize(&network, &calib).unwrap();
        let x = &inputs(1, 8)[0];
        assert_eq!(a.forward(x).unwrap(), b.forward(x).unwrap());
    }
}
