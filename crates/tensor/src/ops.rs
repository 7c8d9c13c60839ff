//! Neural-network kernels on f32 tensors.
//!
//! All activation tensors are `[C, H, W]`; convolution weights are
//! `[OutC, InC, KH, KW]` (depthwise: `[C, 1, KH, KW]`); dense weights are
//! `[Out, In]`. These are straightforward reference kernels — the benchmark's
//! latency numbers come from the simulated devices, not from these loops, so
//! clarity beats micro-optimization here.

use crate::shape::Shape;
use crate::tensor::{Tensor, TensorError};

/// 2-D convolution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Stride along both spatial axes.
    pub(crate) stride: usize,
    /// Symmetric zero padding along both spatial axes.
    pub(crate) padding: usize,
}

impl Conv2dParams {
    /// Stride-1, same-padding-for-3x3 convenience.
    pub const UNIT: Conv2dParams = Conv2dParams {
        stride: 1,
        padding: 1,
    };

    /// Creates parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadParameter`] if `stride == 0`.
    pub fn new(stride: usize, padding: usize) -> Result<Self, TensorError> {
        if stride == 0 {
            return Err(TensorError::BadParameter("stride must be positive".into()));
        }
        Ok(Self { stride, padding })
    }

    /// Output spatial extent for an input extent and kernel extent.
    pub fn out_extent(&self, input: usize, kernel: usize) -> Option<usize> {
        let padded = input + 2 * self.padding;
        if padded < kernel {
            return None;
        }
        Some((padded - kernel) / self.stride + 1)
    }
}

/// Standard 2-D convolution: input `[InC, H, W]`, weight `[OutC, InC, KH, KW]`,
/// bias `[OutC]` → output `[OutC, H', W']`.
///
/// # Errors
///
/// Returns [`TensorError`] if ranks/channel counts disagree or the kernel
/// does not fit the padded input.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    params: Conv2dParams,
) -> Result<Tensor, TensorError> {
    let (ic, h, w) = rank3(input)?;
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
    let x = input.data();
    let wt = weight.data();
    let b = bias.data();
    let mut out = vec![0.0f32; oc * oh * ow];
    for o in 0..oc {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = b[o];
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
                            acc += x[xi] * wt[wi];
                        }
                    }
                }
                out[(o * oh + oy) * ow + ox] = acc;
            }
        }
    }
    Tensor::from_vec(Shape::d3(oc, oh, ow), out)
}

/// Depthwise 2-D convolution: input `[C, H, W]`, weight `[C, 1, KH, KW]`,
/// bias `[C]` → output `[C, H', W']`. The MobileNet building block.
///
/// # Errors
///
/// Same conditions as [`conv2d`].
pub fn depthwise_conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    params: Conv2dParams,
) -> Result<Tensor, TensorError> {
    let (c, h, w) = rank3(input)?;
    let wd = weight.shape().dims();
    if weight.shape().rank() != 4 || wd[0] != c || wd[1] != 1 {
        return Err(TensorError::ShapeMismatch {
            left: input.shape().clone(),
            right: weight.shape().clone(),
        });
    }
    let (kh, kw) = (wd[2], wd[3]);
    if bias.shape().dims() != [c] {
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
    let x = input.data();
    let wt = weight.data();
    let b = bias.data();
    let mut out = vec![0.0f32; c * oh * ow];
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = b[ch];
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
                        acc += x[(ch * h + iy as usize) * w + ix as usize]
                            * wt[(ch * kh + ky) * kw + kx];
                    }
                }
                out[(ch * oh + oy) * ow + ox] = acc;
            }
        }
    }
    Tensor::from_vec(Shape::d3(c, oh, ow), out)
}

/// 2-D max pooling with square window `k` and stride `k` (non-overlapping).
///
/// # Errors
///
/// Returns [`TensorError::BadParameter`] if `k` is zero or exceeds the input.
pub fn maxpool2d(input: &Tensor, k: usize) -> Result<Tensor, TensorError> {
    let (c, h, w) = rank3(input)?;
    if k == 0 || k > h || k > w {
        return Err(TensorError::BadParameter(format!(
            "pool window {k} invalid for input {h}x{w}"
        )));
    }
    let (oh, ow) = (h / k, w / k);
    let x = input.data();
    let mut out = vec![f32::NEG_INFINITY; c * oh * ow];
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut m = f32::NEG_INFINITY;
                for dy in 0..k {
                    for dx in 0..k {
                        m = m.max(x[(ch * h + oy * k + dy) * w + ox * k + dx]);
                    }
                }
                out[(ch * oh + oy) * ow + ox] = m;
            }
        }
    }
    Tensor::from_vec(Shape::d3(c, oh, ow), out)
}

/// Global average pooling: `[C, H, W]` → `[C]`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the input is not rank 3.
pub fn global_avgpool(input: &Tensor) -> Result<Tensor, TensorError> {
    let (c, h, w) = rank3(input)?;
    let x = input.data();
    let hw = (h * w) as f32;
    let out = (0..c)
        .map(|ch| x[ch * h * w..(ch + 1) * h * w].iter().sum::<f32>() / hw)
        .collect();
    Tensor::from_vec(Shape::d1(c), out)
}

/// Rectified linear unit.
pub fn relu(input: &Tensor) -> Tensor {
    input.map(|x| x.max(0.0))
}

/// ReLU clipped at 6 — the MobileNet activation, which also bounds the
/// activation range and is what makes INT8 quantization calibrate well.
pub fn relu6(input: &Tensor) -> Tensor {
    input.map(|x| x.clamp(0.0, 6.0))
}

/// Hyperbolic tangent, used by the GRU proxy.
pub fn tanh(input: &Tensor) -> Tensor {
    input.map(f32::tanh)
}

/// Logistic sigmoid, used by the GRU gates.
pub fn sigmoid(input: &Tensor) -> Tensor {
    input.map(|x| 1.0 / (1.0 + (-x).exp()))
}

/// Dense (fully connected) layer: input `[In]`, weight `[Out, In]`,
/// bias `[Out]` → `[Out]`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on rank or size disagreements.
pub fn dense(input: &Tensor, weight: &Tensor, bias: &Tensor) -> Result<Tensor, TensorError> {
    let wd = weight.shape().dims();
    if input.shape().rank() != 1 || weight.shape().rank() != 2 || wd[1] != input.len() {
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
    let x = input.data();
    let w = weight.data();
    let b = bias.data();
    let out = (0..out_dim)
        .map(|o| {
            b[o] + w[o * x.len()..(o + 1) * x.len()]
                .iter()
                .zip(x)
                .map(|(wi, xi)| wi * xi)
                .sum::<f32>()
        })
        .collect();
    Tensor::from_vec(Shape::d1(out_dim), out)
}

/// Matrix product of `[M, K]` and `[K, N]` → `[M, N]`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on rank or inner-dimension
/// disagreements.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (ad, bd) = (a.shape().dims(), b.shape().dims());
    if a.shape().rank() != 2 || b.shape().rank() != 2 || ad[1] != bd[0] {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().clone(),
            right: b.shape().clone(),
        });
    }
    let (m, k, n) = (ad[0], ad[1], bd[1]);
    let (x, y) = (a.data(), b.data());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let xv = x[i * k + kk];
            if xv == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += xv * y[kk * n + j];
            }
        }
    }
    Tensor::from_vec(Shape::d2(m, n), out)
}

/// Concatenates two rank-1 tensors.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if either input is not rank 1.
pub fn concat1(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    if a.shape().rank() != 1 || b.shape().rank() != 1 {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().clone(),
            right: b.shape().clone(),
        });
    }
    let mut data = a.data().to_vec();
    data.extend_from_slice(b.data());
    Tensor::from_vec(Shape::d1(data.len()), data)
}

fn rank3(t: &Tensor) -> Result<(usize, usize, usize), TensorError> {
    let d = t.shape().dims();
    if d.len() != 3 {
        return Err(TensorError::ShapeMismatch {
            left: t.shape().clone(),
            right: Shape::d3(1, 1, 1),
        });
    }
    Ok((d[0], d[1], d[2]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t1(data: &[f32]) -> Tensor {
        Tensor::from_vec(Shape::d1(data.len()), data.to_vec()).unwrap()
    }

    #[test]
    fn conv2d_identity_kernel() {
        let input = Tensor::fill_with(Shape::d3(1, 3, 3), |i| (i[1] * 3 + i[2]) as f32);
        // 1x1 kernel with weight 1 is identity.
        let w = Tensor::from_vec(Shape::d4(1, 1, 1, 1), vec![1.0]).unwrap();
        let b = Tensor::zeros(Shape::d1(1));
        let out = conv2d(&input, &w, &b, Conv2dParams::new(1, 0).unwrap()).unwrap();
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn conv2d_hand_computed_3x3() {
        // 2x2 input, 3x3 all-ones kernel, padding 1: each output = sum of the
        // 3x3 neighborhood that exists.
        let input = Tensor::from_vec(Shape::d3(1, 2, 2), vec![1., 2., 3., 4.]).unwrap();
        let w = Tensor::fill_with(Shape::d4(1, 1, 3, 3), |_| 1.0);
        let b = Tensor::zeros(Shape::d1(1));
        let out = conv2d(&input, &w, &b, Conv2dParams::UNIT).unwrap();
        assert_eq!(out.shape().dims(), &[1, 2, 2]);
        // Every 3x3 window over the padded 2x2 covers all four elements.
        assert_eq!(out.data(), &[10., 10., 10., 10.]);
    }

    #[test]
    fn conv2d_stride_and_bias() {
        let input = Tensor::fill_with(Shape::d3(1, 4, 4), |_| 1.0);
        let w = Tensor::fill_with(Shape::d4(2, 1, 2, 2), |_| 1.0);
        let b = t1(&[0.5, -0.5]);
        let out = conv2d(&input, &w, &b, Conv2dParams::new(2, 0).unwrap()).unwrap();
        assert_eq!(out.shape().dims(), &[2, 2, 2]);
        assert_eq!(out.at(&[0, 0, 0]), 4.5);
        assert_eq!(out.at(&[1, 1, 1]), 3.5);
    }

    #[test]
    fn conv2d_multi_channel_sums_channels() {
        let input = Tensor::from_vec(Shape::d3(2, 1, 1), vec![3., 4.]).unwrap();
        let w = Tensor::from_vec(Shape::d4(1, 2, 1, 1), vec![1., 10.]).unwrap();
        let b = Tensor::zeros(Shape::d1(1));
        let out = conv2d(&input, &w, &b, Conv2dParams::new(1, 0).unwrap()).unwrap();
        assert_eq!(out.data(), &[43.0]);
    }

    #[test]
    fn conv2d_validates_shapes() {
        let input = Tensor::zeros(Shape::d3(2, 4, 4));
        let w = Tensor::zeros(Shape::d4(1, 3, 3, 3)); // wrong in-channels
        let b = Tensor::zeros(Shape::d1(1));
        assert!(conv2d(&input, &w, &b, Conv2dParams::UNIT).is_err());
        let w2 = Tensor::zeros(Shape::d4(1, 2, 3, 3));
        let b2 = Tensor::zeros(Shape::d1(2)); // wrong bias size
        assert!(conv2d(&input, &w2, &b2, Conv2dParams::UNIT).is_err());
    }

    #[test]
    fn depthwise_keeps_channels_separate() {
        let input = Tensor::from_vec(Shape::d3(2, 1, 1), vec![3., 4.]).unwrap();
        let w = Tensor::from_vec(Shape::d4(2, 1, 1, 1), vec![2., 10.]).unwrap();
        let b = Tensor::zeros(Shape::d1(2));
        let out = depthwise_conv2d(&input, &w, &b, Conv2dParams::new(1, 0).unwrap()).unwrap();
        assert_eq!(out.data(), &[6., 40.]);
    }

    #[test]
    fn maxpool_halves_extent() {
        let input =
            Tensor::from_vec(Shape::d3(1, 2, 4), vec![1., 5., 2., 0., 3., 4., 9., 1.]).unwrap();
        let out = maxpool2d(&input, 2).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 2]);
        assert_eq!(out.data(), &[5., 9.]);
        assert!(maxpool2d(&input, 0).is_err());
        assert!(maxpool2d(&input, 5).is_err());
    }

    #[test]
    fn global_avgpool_means_per_channel() {
        let input = Tensor::from_vec(Shape::d3(2, 1, 2), vec![1., 3., 10., 20.]).unwrap();
        let out = global_avgpool(&input).unwrap();
        assert_eq!(out.data(), &[2., 15.]);
    }

    #[test]
    fn activations() {
        let x = t1(&[-2., 0.5, 8.]);
        assert_eq!(relu(&x).data(), &[0., 0.5, 8.]);
        assert_eq!(relu6(&x).data(), &[0., 0.5, 6.]);
        let s = sigmoid(&t1(&[0.0]));
        assert!((s.data()[0] - 0.5).abs() < 1e-6);
        let t = tanh(&t1(&[0.0]));
        assert_eq!(t.data()[0], 0.0);
    }

    #[test]
    fn dense_hand_computed() {
        let x = t1(&[1., 2.]);
        let w = Tensor::from_vec(Shape::d2(3, 2), vec![1., 0., 0., 1., 1., 1.]).unwrap();
        let b = t1(&[0., 0., 0.5]);
        let out = dense(&x, &w, &b).unwrap();
        assert_eq!(out.data(), &[1., 2., 3.5]);
        assert!(dense(&t1(&[1., 2., 3.]), &w, &b).is_err());
    }

    #[test]
    fn matmul_hand_computed() {
        let a = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(Shape::d2(3, 2), vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
        assert!(matmul(&a, &a).is_err());
    }

    #[test]
    fn concat1_joins() {
        let out = concat1(&t1(&[1., 2.]), &t1(&[3.])).unwrap();
        assert_eq!(out.data(), &[1., 2., 3.]);
    }

    #[test]
    fn out_extent_math() {
        let p = Conv2dParams::new(2, 1).unwrap();
        assert_eq!(p.out_extent(4, 3), Some(2));
        assert_eq!(Conv2dParams::new(1, 0).unwrap().out_extent(2, 3), None);
        assert!(Conv2dParams::new(0, 0).is_err());
    }
}
