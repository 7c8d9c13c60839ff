//! Feed-forward networks with residual blocks.

use crate::layer::{Activation, Layer};
use crate::NnError;
use mlperf_stats::Rng64;
use mlperf_tensor::ops::Conv2dParams;
use mlperf_tensor::{Shape, Tensor};

use crate::init::WeightInit;

/// One node of a network: a plain layer or a residual block whose inner
/// layers must preserve shape (`out = act(in + f(in))`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    /// A plain layer.
    Layer(Layer),
    /// A shape-preserving residual block.
    Residual {
        /// The residual branch.
        body: Vec<Layer>,
        /// Activation applied after the skip addition.
        activation: Activation,
    },
}

/// A feed-forward network.
///
/// See [`NetworkBuilder`] for construction; the crate-level docs show a full
/// example.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    input_shape: Shape,
    nodes: Vec<Node>,
    output_shape: Shape,
}

impl Network {
    /// The expected input shape.
    pub(crate) fn input_shape(&self) -> &Shape {
        &self.input_shape
    }

    /// The output shape.
    pub fn output_shape(&self) -> &Shape {
        &self.output_shape
    }

    /// The network's nodes.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Runs a forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if `input` does not match the declared input shape
    /// or an internal kernel rejects a shape (impossible for builder-made
    /// networks).
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
                Node::Layer(layer) => layer.forward(&x)?,
                Node::Residual { body, activation } => {
                    let skip = x.clone();
                    let mut y = x;
                    for layer in body {
                        y = layer.forward(&y)?;
                    }
                    activation.apply(&y.add(&skip)?)
                }
            };
        }
        Ok(x)
    }

    /// Returns a copy with every weight tensor transformed by `f` (biases
    /// untouched). Used to build weight-only quantized variants: pass a
    /// quantize→dequantize roundtrip to emulate INT8 weight storage with
    /// higher-precision activations and accumulation.
    pub fn map_parameters<F: Fn(&Tensor) -> Tensor>(&self, f: F) -> Network {
        let map_layer = |layer: &Layer| match layer {
            Layer::Conv2d {
                weight,
                bias,
                params,
                activation,
            } => Layer::Conv2d {
                weight: f(weight),
                bias: bias.clone(),
                params: *params,
                activation: *activation,
            },
            Layer::DepthwiseConv2d {
                weight,
                bias,
                params,
                activation,
            } => Layer::DepthwiseConv2d {
                weight: f(weight),
                bias: bias.clone(),
                params: *params,
                activation: *activation,
            },
            Layer::Dense {
                weight,
                bias,
                activation,
            } => Layer::Dense {
                weight: f(weight),
                bias: bias.clone(),
                activation: *activation,
            },
            other => other.clone(),
        };
        Network {
            input_shape: self.input_shape.clone(),
            output_shape: self.output_shape.clone(),
            nodes: self
                .nodes
                .iter()
                .map(|node| match node {
                    Node::Layer(l) => Node::Layer(map_layer(l)),
                    Node::Residual { body, activation } => Node::Residual {
                        body: body.iter().map(map_layer).collect(),
                        activation: *activation,
                    },
                })
                .collect(),
        }
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match n {
                Node::Layer(l) => l.param_count(),
                Node::Residual { body, .. } => body.iter().map(Layer::param_count).sum(),
            })
            .sum()
    }

    /// Total multiply-accumulates for one forward pass.
    pub fn mac_count(&self) -> u64 {
        // Shapes were validated at build time, so the traversal cannot fail.
        let mut shape = self.input_shape.clone();
        let mut total = 0u64;
        for node in &self.nodes {
            match node {
                Node::Layer(l) => {
                    total += l.mac_count(&shape).expect("validated at build time");
                    shape = l.output_shape(&shape).expect("validated at build time");
                }
                Node::Residual { body, .. } => {
                    let mut inner = shape.clone();
                    for l in body {
                        total += l.mac_count(&inner).expect("validated at build time");
                        inner = l.output_shape(&inner).expect("validated at build time");
                    }
                }
            }
        }
        total
    }
}

/// Incremental [`Network`] constructor that validates shapes as layers are
/// added, so a built network can never fail on a well-shaped input.
#[derive(Debug)]
pub struct NetworkBuilder {
    input_shape: Shape,
    current: Shape,
    nodes: Vec<Node>,
    init: WeightInit,
}

impl NetworkBuilder {
    /// Starts a network with the given input shape.
    pub fn new(input_shape: Shape) -> Self {
        Self {
            current: input_shape.clone(),
            input_shape,
            nodes: Vec::new(),
            init: WeightInit::he(),
        }
    }

    fn push(mut self, layer: Layer) -> Result<Self, NnError> {
        self.current = layer.output_shape(&self.current)?;
        self.nodes.push(Node::Layer(layer));
        Ok(self)
    }

    /// Appends a convolution with `out_c` output channels and a `k`×`k`
    /// kernel.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the current shape is not rank 3 or the kernel
    /// does not fit.
    pub fn conv2d(
        self,
        out_c: usize,
        k: usize,
        stride: usize,
        padding: usize,
        activation: Activation,
        rng: &mut Rng64,
    ) -> Result<Self, NnError> {
        let in_c = self.current.dims().first().copied().unwrap_or(0);
        let weight = self.init.conv_weight(out_c, in_c, k, rng);
        let bias = self.init.bias(out_c);
        let params = Conv2dParams::new(stride, padding)?;
        self.push(Layer::Conv2d {
            weight,
            bias,
            params,
            activation,
        })
    }

    /// Appends a depthwise convolution with a `k`×`k` kernel.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the current shape is not rank 3 or the kernel
    /// does not fit.
    pub fn depthwise_conv2d(
        self,
        k: usize,
        stride: usize,
        padding: usize,
        activation: Activation,
        rng: &mut Rng64,
    ) -> Result<Self, NnError> {
        let c = self.current.dims().first().copied().unwrap_or(0);
        let weight = self.init.depthwise_weight(c, k, rng);
        let bias = self.init.bias(c);
        let params = Conv2dParams::new(stride, padding)?;
        self.push(Layer::DepthwiseConv2d {
            weight,
            bias,
            params,
            activation,
        })
    }

    /// Appends a shape-preserving residual block of two 3×3 convolutions —
    /// the ResNet basic block.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the current shape is not rank 3.
    pub fn residual_block(
        mut self,
        activation: Activation,
        rng: &mut Rng64,
    ) -> Result<Self, NnError> {
        let dims = self.current.dims();
        if dims.len() != 3 {
            return Err(NnError::BadDefinition(format!(
                "residual block needs a [C,H,W] input, got {}",
                self.current
            )));
        }
        let c = dims[0];
        let body = vec![
            Layer::Conv2d {
                weight: self.init.conv_weight(c, c, 3, rng),
                bias: self.init.bias(c),
                params: Conv2dParams::UNIT,
                activation,
            },
            Layer::Conv2d {
                weight: self.init.conv_weight(c, c, 3, rng),
                bias: self.init.bias(c),
                params: Conv2dParams::UNIT,
                activation: Activation::None,
            },
        ];
        // Validate the body preserves shape.
        let mut s = self.current.clone();
        for l in &body {
            s = l.output_shape(&s)?;
        }
        if s != self.current {
            return Err(NnError::BadDefinition(
                "residual body must preserve shape".into(),
            ));
        }
        self.nodes.push(Node::Residual { body, activation });
        Ok(self)
    }

    /// Appends a max-pool layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the window does not fit the current shape.
    pub fn maxpool(self, k: usize) -> Result<Self, NnError> {
        self.push(Layer::MaxPool { k })
    }

    /// Appends global average pooling.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the current shape is not rank 3.
    pub fn global_avgpool(self) -> Result<Self, NnError> {
        self.push(Layer::GlobalAvgPool)
    }

    /// Appends a dense layer with `out` units.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the current shape is not rank 1.
    pub fn dense(
        self,
        out: usize,
        activation: Activation,
        rng: &mut Rng64,
    ) -> Result<Self, NnError> {
        let inp = self.current.len();
        if self.current.rank() != 1 {
            return Err(NnError::BadDefinition(format!(
                "dense needs a rank-1 input, got {} (insert flatten/pool first)",
                self.current
            )));
        }
        let weight = self.init.dense_weight(out, inp, rng);
        let bias = self.init.bias(out);
        self.push(Layer::Dense {
            weight,
            bias,
            activation,
        })
    }

    /// Finalizes the network.
    pub fn build(self) -> Network {
        Network {
            input_shape: self.input_shape,
            output_shape: self.current,
            nodes: self.nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cnn(seed: u64) -> Network {
        let mut rng = Rng64::new(seed);
        NetworkBuilder::new(Shape::d3(2, 8, 8))
            .conv2d(4, 3, 1, 1, Activation::Relu, &mut rng)
            .unwrap()
            .residual_block(Activation::Relu, &mut rng)
            .unwrap()
            .maxpool(2)
            .unwrap()
            .global_avgpool()
            .unwrap()
            .dense(5, Activation::None, &mut rng)
            .unwrap()
            .build()
    }

    #[test]
    fn forward_produces_one_value_per_class() {
        let net = tiny_cnn(1);
        assert_eq!(net.output_shape().dims(), &[5]);
        let input = Tensor::fill_with(Shape::d3(2, 8, 8), |i| (i[1] + i[2]) as f32 / 16.0);
        assert_eq!(net.forward(&input).unwrap().shape(), net.output_shape());
    }

    #[test]
    fn forward_is_deterministic_and_seed_sensitive() {
        let input = Tensor::fill_with(Shape::d3(2, 8, 8), |i| i[2] as f32 / 8.0);
        let a = tiny_cnn(1).forward(&input).unwrap();
        let b = tiny_cnn(1).forward(&input).unwrap();
        let c = tiny_cnn(2).forward(&input).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rejects_wrong_input_shape() {
        let net = tiny_cnn(3);
        assert!(net.forward(&Tensor::zeros(Shape::d3(2, 9, 9))).is_err());
    }

    #[test]
    fn counts_are_consistent() {
        let net = tiny_cnn(4);
        // conv: 4*(2*9)+... just assert positivity and stability.
        assert!(net.param_count() > 0);
        assert!(net.mac_count() > 0);
        assert_eq!(net.param_count(), tiny_cnn(5).param_count());
        assert_eq!(net.mac_count(), tiny_cnn(5).mac_count());
    }

    #[test]
    fn dense_requires_rank1() {
        let mut rng = Rng64::new(6);
        let err = NetworkBuilder::new(Shape::d3(1, 4, 4)).dense(3, Activation::None, &mut rng);
        assert!(err.is_err());
    }

    #[test]
    fn residual_requires_rank3() {
        let mut rng = Rng64::new(7);
        let b = NetworkBuilder::new(Shape::d1(8));
        assert!(b.residual_block(Activation::Relu, &mut rng).is_err());
    }

    #[test]
    fn mobilenet_style_blocks_build() {
        let mut rng = Rng64::new(8);
        let net = NetworkBuilder::new(Shape::d3(3, 16, 16))
            .conv2d(8, 3, 2, 1, Activation::Relu6, &mut rng)
            .unwrap()
            .depthwise_conv2d(3, 1, 1, Activation::Relu6, &mut rng)
            .unwrap()
            .conv2d(16, 1, 1, 0, Activation::Relu6, &mut rng)
            .unwrap()
            .global_avgpool()
            .unwrap()
            .dense(10, Activation::None, &mut rng)
            .unwrap()
            .build();
        assert_eq!(net.output_shape().dims(), &[10]);
        let out = net.forward(&Tensor::zeros(Shape::d3(3, 16, 16))).unwrap();
        assert_eq!(out.len(), 10);
    }
}
