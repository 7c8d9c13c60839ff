//! Property-style tests for tensor kernels.
//!
//! Seeded `Rng64` case loops replace the former property-testing
//! framework; failure messages carry the case number for replay.

use mlperf_stats::Rng64;
use mlperf_tensor::ops::{conv2d, dense, matmul, relu, Conv2dParams};
use mlperf_tensor::{QTensor, Shape, Tensor};

const CASES: u64 = 32;

/// Small grid-aligned f32 values in [-10, 10), step 0.1.
fn small_f32(rng: &mut Rng64) -> f32 {
    (rng.next_below(200) as i64 - 100) as f32 / 10.0
}

fn small_vec(rng: &mut Rng64, len: usize) -> Vec<f32> {
    (0..len).map(|_| small_f32(rng)).collect()
}

#[test]
fn conv2d_is_linear_in_input() {
    let mut rng = Rng64::new(0x544e_0001);
    for case in 0..CASES {
        // conv(a + b) == conv(a) + conv(b) with zero bias.
        let a = small_vec(&mut rng, 16);
        let b = small_vec(&mut rng, 16);
        let w = small_vec(&mut rng, 9);
        let ta = Tensor::from_vec(Shape::d3(1, 4, 4), a).unwrap();
        let tb = Tensor::from_vec(Shape::d3(1, 4, 4), b).unwrap();
        let tw = Tensor::from_vec(Shape::d4(1, 1, 3, 3), w).unwrap();
        let bias = Tensor::zeros(Shape::d1(1));
        let lhs = conv2d(&ta.add(&tb).unwrap(), &tw, &bias, Conv2dParams::UNIT).unwrap();
        let ra = conv2d(&ta, &tw, &bias, Conv2dParams::UNIT).unwrap();
        let rb = conv2d(&tb, &tw, &bias, Conv2dParams::UNIT).unwrap();
        let rhs = ra.add(&rb).unwrap();
        for (l, r) in lhs.data().iter().zip(rhs.data()) {
            assert!((l - r).abs() < 1e-3, "case {case}: {l} vs {r}");
        }
    }
}

#[test]
fn matmul_matches_dense_per_row() {
    let mut rng = Rng64::new(0x544e_0002);
    for case in 0..CASES {
        // [2x3] * [3x2]: each output row equals dense() of that row against b^T.
        let a = small_vec(&mut rng, 6);
        let b = small_vec(&mut rng, 6);
        let ta = Tensor::from_vec(Shape::d2(2, 3), a.clone()).unwrap();
        let tb = Tensor::from_vec(Shape::d2(3, 2), b.clone()).unwrap();
        let mm = matmul(&ta, &tb).unwrap();
        // Build b^T as a dense weight [2, 3].
        let mut wt = vec![0.0f32; 6];
        for i in 0..3 {
            for j in 0..2 {
                wt[j * 3 + i] = b[i * 2 + j];
            }
        }
        let weight = Tensor::from_vec(Shape::d2(2, 3), wt).unwrap();
        let bias = Tensor::zeros(Shape::d1(2));
        for row in 0..2 {
            let x = Tensor::from_vec(Shape::d1(3), a[row * 3..(row + 1) * 3].to_vec()).unwrap();
            let d = dense(&x, &weight, &bias).unwrap();
            for j in 0..2 {
                assert!(
                    (d.data()[j] - mm.at(&[row, j])).abs() < 1e-3,
                    "case {case}: row={row} j={j}"
                );
            }
        }
    }
}

#[test]
fn relu_is_idempotent_and_nonnegative() {
    let mut rng = Rng64::new(0x544e_0003);
    for case in 0..CASES {
        let len = 1 + rng.next_index(63);
        let data = small_vec(&mut rng, len);
        let t = Tensor::from_vec(Shape::d1(len), data).unwrap();
        let once = relu(&t);
        assert!(once.data().iter().all(|x| *x >= 0.0), "case {case}");
        let twice = relu(&once);
        assert_eq!(twice.data(), once.data(), "case {case}");
    }
}

#[test]
fn quantize_dequantize_error_bound() {
    let mut rng = Rng64::new(0x544e_0006);
    for case in 0..CASES {
        let len = 1 + rng.next_index(127);
        let data = small_vec(&mut rng, len);
        let t = Tensor::from_vec(Shape::d1(len), data).unwrap();
        let q = QTensor::quantize(&t);
        let back = q.dequantize();
        let bound = q.params().scale() / 2.0 + 1e-6;
        for (a, b) in t.data().iter().zip(back.data()) {
            assert!(
                (a - b).abs() <= bound,
                "case {case}: {a} vs {b} bound {bound}"
            );
        }
    }
}

#[test]
fn quantize_is_idempotent_on_grid() {
    let mut rng = Rng64::new(0x544e_0007);
    for case in 0..CASES {
        // Quantizing an already-dequantized tensor with the same params is lossless.
        let len = 1 + rng.next_index(63);
        let data = small_vec(&mut rng, len);
        let t = Tensor::from_vec(Shape::d1(len), data).unwrap();
        let q = QTensor::quantize(&t);
        let back = q.dequantize();
        let q2 = QTensor::quantize_with(&back, q.params());
        assert_eq!(q.data(), q2.data(), "case {case}");
    }
}

#[test]
fn fill_with_matches_at() {
    let mut rng = Rng64::new(0x544e_0008);
    for case in 0..CASES {
        let rank = 1 + rng.next_index(3);
        let dims: Vec<usize> = (0..rank).map(|_| 1 + rng.next_index(4)).collect();
        let shape = Shape::new(&dims);
        let t = Tensor::fill_with(shape.clone(), |i| i.iter().sum::<usize>() as f32);
        // Spot-check the first and last index.
        let zero = vec![0usize; dims.len()];
        assert_eq!(t.at(&zero), 0.0, "case {case}: dims={dims:?}");
        let last: Vec<usize> = dims.iter().map(|d| d - 1).collect();
        assert_eq!(
            t.at(&last),
            last.iter().sum::<usize>() as f32,
            "case {case}: dims={dims:?}"
        );
    }
}
