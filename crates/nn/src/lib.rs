//! A small neural-network inference engine.
//!
//! Sits on top of [`mlperf_tensor`] and provides what the proxy reference
//! models need:
//!
//! * [`layer`] — typed layers (convolutions, dense, pooling, activations).
//! * [`network`] — feed-forward graphs with residual blocks, a forward pass,
//!   and parameter / MAC accounting (the numbers behind Table I's
//!   "GOPS/input" column are of this kind).
//! * [`init`] — deterministic He-style weight initialization from a seed, so
//!   "teacher" reference networks are reproducible.
//! * [`quantized`] — post-training INT8 quantization of a whole network with
//!   activation calibration (the paper's calibration-set workflow), and a
//!   quantized forward pass with i32 accumulation.
//! * [`gru`] — a GRU cell for the GNMT-style recurrent proxy.
//!
//! # Examples
//!
//! ```
//! use mlperf_nn::network::NetworkBuilder;
//! use mlperf_nn::layer::Activation;
//! use mlperf_tensor::{Shape, Tensor};
//! use mlperf_stats::Rng64;
//!
//! let mut rng = Rng64::new(7);
//! let net = NetworkBuilder::new(Shape::d3(1, 8, 8))
//!     .conv2d(4, 3, 1, 1, Activation::Relu, &mut rng)?
//!     .global_avgpool()?
//!     .dense(3, Activation::None, &mut rng)?
//!     .build();
//! let input = Tensor::zeros(Shape::d3(1, 8, 8));
//! let logits = net.forward(&input)?;
//! assert_eq!(logits.len(), 3);
//! # Ok::<(), mlperf_nn::NnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gru;
pub mod init;
pub mod layer;
pub mod network;
pub mod quantized;

pub use network::{Network, NetworkBuilder};
pub use quantized::QNetwork;

/// Errors from network construction or execution.
#[derive(Debug)]
pub enum NnError {
    /// An underlying tensor operation failed.
    Tensor(mlperf_tensor::TensorError),
    /// The network definition was inconsistent (e.g. residual shape change).
    BadDefinition(String),
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::BadDefinition(msg) => write!(f, "bad network definition: {msg}"),
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            NnError::BadDefinition(_) => None,
        }
    }
}

impl From<mlperf_tensor::TensorError> for NnError {
    fn from(e: mlperf_tensor::TensorError) -> Self {
        NnError::Tensor(e)
    }
}
