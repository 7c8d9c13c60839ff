//! Symmetric INT8 post-training quantization.
//!
//! The paper's rules allow quantization to many formats (INT4…FP32) with
//! calibration but **without retraining** (Section IV-A). This module
//! implements the most common deployment path the paper mentions — 8-bit
//! integer arithmetic with symmetric scales, per tensor for activations and
//! per output channel for weights — so that the quality-target machinery
//! in the benchmark operates on real numbers: a quantized proxy model
//! genuinely loses a little accuracy relative to its FP32 reference.

use crate::shape::Shape;
use crate::tensor::{Tensor, TensorError};

/// Per-tensor symmetric quantization parameters: `real = scale * q`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    scale: f32,
}

impl QuantParams {
    /// Derives parameters that cover `[-abs_max, abs_max]` with the full
    /// signed 8-bit range.
    ///
    /// A zero or non-finite `abs_max` falls back to scale 1, representing a
    /// degenerate all-zero tensor.
    pub fn from_abs_max(abs_max: f32) -> Self {
        let scale = if abs_max.is_finite() && abs_max > 0.0 {
            abs_max / 127.0
        } else {
            1.0
        };
        Self { scale }
    }

    /// Derives parameters by scanning a calibration tensor, exactly what the
    /// benchmark's fixed calibration set is for.
    pub(crate) fn calibrate(tensor: &Tensor) -> Self {
        Self::from_abs_max(tensor.abs_max())
    }

    /// The real-value step per integer increment.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Quantizes one real value to `i8` with round-to-nearest and saturation.
    pub(crate) fn quantize_value(&self, x: f32) -> i8 {
        (x / self.scale).round().clamp(-127.0, 127.0) as i8
    }

    /// Dequantizes one integer back to a real value.
    pub(crate) fn dequantize_value(&self, q: i8) -> f32 {
        f32::from(q) * self.scale
    }
}

/// A quantized tensor: `i8` payload plus its [`QuantParams`].
///
/// # Examples
///
/// ```
/// use mlperf_tensor::{QTensor, Shape, Tensor};
///
/// let t = Tensor::from_vec(Shape::d1(3), vec![-1.0, 0.0, 2.0])?;
/// let q = QTensor::quantize(&t);
/// let back = q.dequantize();
/// for (a, b) in t.data().iter().zip(back.data()) {
///     assert!((a - b).abs() <= q.params().scale() / 2.0 + 1e-6);
/// }
/// # Ok::<(), mlperf_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    shape: Shape,
    data: Vec<i8>,
    params: QuantParams,
}

impl QTensor {
    /// Quantizes a tensor with parameters calibrated from its own range.
    pub fn quantize(tensor: &Tensor) -> Self {
        Self::quantize_with(tensor, QuantParams::calibrate(tensor))
    }

    /// Quantizes a tensor with externally calibrated parameters (activation
    /// quantization uses the calibration data set, not the live tensor).
    pub fn quantize_with(tensor: &Tensor, params: QuantParams) -> Self {
        Self {
            shape: tensor.shape().clone(),
            data: tensor
                .data()
                .iter()
                .map(|x| params.quantize_value(*x))
                .collect(),
            params,
        }
    }

    /// The tensor's shape.
    pub(crate) fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The quantization parameters.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// The raw `i8` payload.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Expands back to f32.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(
            self.shape.clone(),
            self.data
                .iter()
                .map(|q| self.params.dequantize_value(*q))
                .collect(),
        )
        .expect("shape preserved by construction")
    }
}

/// A weight tensor quantized with one symmetric scale **per output
/// channel** (dimension 0) — the industry-standard INT8 weight layout
/// (TFLite/TensorRT): per-channel weight scales with per-tensor activation
/// scales cut quantization error dramatically versus per-tensor weights,
/// at no runtime cost beyond one rescale per output channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelQTensor {
    shape: Shape,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl ChannelQTensor {
    /// Quantizes `tensor` with one scale per slice along dimension 0.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank 0 (impossible by [`Shape`]
    /// construction).
    pub fn quantize_dim0(tensor: &Tensor) -> Self {
        let shape = tensor.shape().clone();
        let channels = shape.dim(0);
        let per = tensor.len() / channels;
        let data = tensor.data();
        let mut out = Vec::with_capacity(tensor.len());
        let mut scales = Vec::with_capacity(channels);
        for c in 0..channels {
            let slice = &data[c * per..(c + 1) * per];
            let abs_max = slice.iter().fold(0.0f32, |m, x| m.max(x.abs()));
            let params = QuantParams::from_abs_max(abs_max);
            scales.push(params.scale());
            out.extend(slice.iter().map(|x| params.quantize_value(*x)));
        }
        Self {
            shape,
            data: out,
            scales,
        }
    }

    /// The tensor's shape.
    pub(crate) fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The per-channel scales.
    pub(crate) fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The raw `i8` payload.
    pub(crate) fn data(&self) -> &[i8] {
        &self.data
    }
}

/// Quantizes a tensor to 16-bit integers per output channel (dimension 0)
/// and dequantizes it back — emulating INT16/FP16-class weight storage,
/// the deployment numerics the v0.5 round actually used for the detection
/// and translation tasks (both are on the paper's approved list).
pub fn per_channel_i16_roundtrip(tensor: &Tensor) -> Tensor {
    let channels = tensor.shape().dim(0);
    let per = tensor.len() / channels;
    let data = tensor.data();
    let mut out = Vec::with_capacity(tensor.len());
    for c in 0..channels {
        let slice = &data[c * per..(c + 1) * per];
        let abs_max = slice.iter().fold(0.0f32, |m, x| m.max(x.abs()));
        let scale = if abs_max > 0.0 {
            abs_max / 32_767.0
        } else {
            1.0
        };
        out.extend(
            slice
                .iter()
                .map(|x| (x / scale).round().clamp(-32_767.0, 32_767.0) * scale),
        );
    }
    Tensor::from_vec(tensor.shape().clone(), out).expect("shape preserved by construction")
}

/// Quantized dense layer with per-output-channel weight scales.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on rank or size disagreements.
pub fn qdense_per_channel(
    input: &QTensor,
    weight: &ChannelQTensor,
    bias: &Tensor,
) -> Result<Tensor, TensorError> {
    let wd = weight.shape().dims();
    if input.shape().rank() != 1 || weight.shape().rank() != 2 || wd[1] != input.data().len() {
        return Err(TensorError::ShapeMismatch {
            left: input.shape().clone(),
            right: weight.shape().clone(),
        });
    }
    let out_dim = wd[0];
    if bias.shape().dims() != [out_dim] {
        return Err(TensorError::ShapeMismatch {
            left: weight.shape().clone(),
            right: bias.shape().clone(),
        });
    }
    let k = input.data().len();
    let in_scale = input.params().scale();
    let out = (0..out_dim)
        .map(|o| {
            let acc: i32 = weight.data()[o * k..(o + 1) * k]
                .iter()
                .zip(input.data())
                .map(|(w, x)| i32::from(*w) * i32::from(*x))
                .sum();
            acc as f32 * in_scale * weight.scales()[o] + bias.data()[o]
        })
        .collect();
    Tensor::from_vec(Shape::d1(out_dim), out)
}

/// Quantized standard convolution with per-output-channel weight scales.
/// Shapes as in [`crate::ops::conv2d`].
///
/// # Errors
///
/// Same conditions as [`crate::ops::conv2d`].
pub fn qconv2d_per_channel(
    input: &QTensor,
    weight: &ChannelQTensor,
    bias: &Tensor,
    params: crate::ops::Conv2dParams,
) -> Result<Tensor, TensorError> {
    let id = input.shape().dims();
    if id.len() != 3 {
        return Err(TensorError::ShapeMismatch {
            left: input.shape().clone(),
            right: Shape::d3(1, 1, 1),
        });
    }
    let (ic, h, w) = (id[0], id[1], id[2]);
    let wd = weight.shape().dims();
    if weight.shape().rank() != 4 || wd[1] != ic {
        return Err(TensorError::ShapeMismatch {
            left: input.shape().clone(),
            right: weight.shape().clone(),
        });
    }
    let (oc, kh, kw) = (wd[0], wd[2], wd[3]);
    if bias.shape().dims() != [oc] {
        return Err(TensorError::ShapeMismatch {
            left: weight.shape().clone(),
            right: bias.shape().clone(),
        });
    }
    let oh = params
        .out_extent(h, kh)
        .ok_or_else(|| TensorError::BadParameter(format!("kernel {kh} too large for input {h}")))?;
    let ow = params
        .out_extent(w, kw)
        .ok_or_else(|| TensorError::BadParameter(format!("kernel {kw} too large for input {w}")))?;
    let in_scale = input.params().scale();
    let mut out = vec![0.0f32; oc * oh * ow];
    for o in 0..oc {
        let rescale = in_scale * weight.scales()[o];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc: i32 = 0;
                for c in 0..ic {
                    for ky in 0..kh {
                        let iy = (oy * params.stride + ky) as isize - params.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * params.stride + kx) as isize - params.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let xi = (c * h + iy as usize) * w + ix as usize;
                            let wi = ((o * ic + c) * kh + ky) * kw + kx;
                            acc += i32::from(input.data()[xi]) * i32::from(weight.data()[wi]);
                        }
                    }
                }
                out[(o * oh + oy) * ow + ox] = acc as f32 * rescale + bias.data()[o];
            }
        }
    }
    Tensor::from_vec(Shape::d3(oc, oh, ow), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{conv2d, dense, Conv2dParams};

    #[test]
    fn quantize_roundtrip_error_bounded_by_half_scale() {
        let t = Tensor::from_vec(Shape::d1(6), vec![-3.0, -1.5, 0.0, 0.7, 2.2, 3.0]).unwrap();
        let q = QTensor::quantize(&t);
        let back = q.dequantize();
        let half = q.params().scale() / 2.0 + 1e-6;
        for (a, b) in t.data().iter().zip(back.data()) {
            assert!((a - b).abs() <= half, "{a} vs {b}");
        }
    }

    #[test]
    fn quantize_saturates() {
        let p = QuantParams::from_abs_max(1.0);
        assert_eq!(p.quantize_value(100.0), 127);
        assert_eq!(p.quantize_value(-100.0), -127);
    }

    #[test]
    fn zero_tensor_degenerate_scale() {
        let t = Tensor::zeros(Shape::d1(4));
        let q = QTensor::quantize(&t);
        assert_eq!(q.params().scale(), 1.0);
        assert_eq!(q.dequantize().data(), &[0.0; 4]);
    }

    /// The f32 values a per-channel tensor of rank 2 stands for.
    fn dequantize_dim0(q: &ChannelQTensor) -> Tensor {
        let cols = q.shape().dims()[1];
        Tensor::fill_with(q.shape().clone(), |i| {
            f32::from(q.data()[i[0] * cols + i[1]]) * q.scales()[i[0]]
        })
    }

    #[test]
    fn per_channel_quantization_beats_per_tensor() {
        // A weight matrix with wildly different row magnitudes: per-tensor
        // scales crush the small rows; per-channel scales preserve them.
        let w = Tensor::fill_with(Shape::d2(2, 8), |i| {
            let base = if i[0] == 0 { 100.0 } else { 0.1 };
            base * (1.0 + i[1] as f32 / 10.0)
        });
        let per_tensor = QTensor::quantize(&w).dequantize();
        let per_channel = dequantize_dim0(&ChannelQTensor::quantize_dim0(&w));
        let err = |approx: &Tensor| {
            w.data()
                .iter()
                .zip(approx.data())
                .map(|(a, b)| ((a - b) / a).abs())
                .fold(0.0f32, f32::max)
        };
        let e_tensor = err(&per_tensor);
        let e_channel = err(&per_channel);
        assert!(
            e_channel < e_tensor / 10.0,
            "per-channel {e_channel} should be far below per-tensor {e_tensor}"
        );
    }

    #[test]
    fn per_channel_roundtrip_bounded_per_row() {
        let w = Tensor::fill_with(Shape::d2(3, 4), |i| {
            (i[0] as f32 + 1.0) * (i[1] as f32 - 1.5)
        });
        let q = ChannelQTensor::quantize_dim0(&w);
        assert_eq!(q.scales().len(), 3);
        let back = dequantize_dim0(&q);
        for c in 0..3 {
            let bound = q.scales()[c] / 2.0 + 1e-6;
            for j in 0..4 {
                let (a, b) = (w.at(&[c, j]), back.at(&[c, j]));
                assert!((a - b).abs() <= bound, "row {c}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn qdense_per_channel_close_to_fp32() {
        let x = Tensor::from_vec(Shape::d1(3), vec![0.5, -1.0, 2.0]).unwrap();
        let w = Tensor::from_vec(Shape::d2(2, 3), vec![10.0, 5.0, -5.0, 0.2, -0.1, 0.025]).unwrap();
        let b = Tensor::from_vec(Shape::d1(2), vec![0.1, -0.2]).unwrap();
        let exact = dense(&x, &w, &b).unwrap();
        let approx = qdense_per_channel(
            &QTensor::quantize(&x),
            &ChannelQTensor::quantize_dim0(&w),
            &b,
        )
        .unwrap();
        // Input quantization dominates: error bound ~ in_scale * sum|w|.
        for (e, a) in exact.data().iter().zip(approx.data()) {
            assert!((e - a).abs() < 0.25, "{e} vs {a}");
        }
    }

    #[test]
    fn qconv_per_channel_close_to_fp32() {
        let input = Tensor::fill_with(Shape::d3(2, 4, 4), |i| {
            ((i[0] * 16 + i[1] * 4 + i[2]) as f32).sin()
        });
        let w = Tensor::fill_with(Shape::d4(3, 2, 3, 3), |i| {
            let row_scale = [4.0, 0.1, 1.0][i[0]];
            row_scale * ((i[1] + i[2] * 2 + i[3]) as f32 * 0.37).cos()
        });
        let b = Tensor::zeros(Shape::d1(3));
        let exact = conv2d(&input, &w, &b, Conv2dParams::UNIT).unwrap();
        let approx = qconv2d_per_channel(
            &QTensor::quantize(&input),
            &ChannelQTensor::quantize_dim0(&w),
            &b,
            Conv2dParams::UNIT,
        )
        .unwrap();
        let max_rel = exact
            .data()
            .iter()
            .zip(approx.data())
            .map(|(e, a)| (e - a).abs() / exact.abs_max())
            .fold(0.0f32, f32::max);
        assert!(max_rel < 0.03, "max relative error {max_rel}");
    }

    #[test]
    fn per_channel_shape_validation() {
        let x = QTensor::quantize(&Tensor::zeros(Shape::d1(3)));
        let w = ChannelQTensor::quantize_dim0(&Tensor::zeros(Shape::d2(2, 4)));
        let b = Tensor::zeros(Shape::d1(2));
        assert!(qdense_per_channel(&x, &w, &b).is_err());
    }

    #[test]
    fn external_params_used_for_activations() {
        let t = Tensor::fill_with(Shape::d1(2), |_| 10.0);
        let p = QuantParams::from_abs_max(127.0); // scale 1.0
        let q = QTensor::quantize_with(&t, p);
        assert_eq!(q.data(), &[10, 10]);
    }
}
