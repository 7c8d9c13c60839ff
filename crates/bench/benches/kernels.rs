//! Microbenchmarks for the tensor/NN substrate.

use mlperf_bench::runner::Bench;
use mlperf_nn::gru::GruCell;
use mlperf_nn::layer::Activation;
use mlperf_nn::network::NetworkBuilder;
use mlperf_nn::QNetwork;
use mlperf_stats::Rng64;
use mlperf_tensor::ops::{conv2d, dense, Conv2dParams};
use mlperf_tensor::quant::{qconv2d_per_channel, ChannelQTensor};
use mlperf_tensor::{QTensor, Shape, Tensor};
use std::hint::black_box;

fn main() {
    let bench = Bench::from_args();

    let mut rng = Rng64::new(1);
    let input = Tensor::fill_with(Shape::d3(8, 16, 16), |_| rng.next_f64() as f32 - 0.5);
    let weight = Tensor::fill_with(Shape::d4(16, 8, 3, 3), |_| rng.next_f64() as f32 * 0.1);
    let bias = Tensor::zeros(Shape::d1(16));
    bench.bench("conv2d_8x16x16_to_16ch", || {
        black_box(conv2d(&input, &weight, &bias, Conv2dParams::UNIT).expect("shapes fixed"))
    });
    let qin = QTensor::quantize(&input);
    let qw = ChannelQTensor::quantize_dim0(&weight);
    bench.bench("qconv2d_8x16x16_to_16ch_int8", || {
        black_box(qconv2d_per_channel(&qin, &qw, &bias, Conv2dParams::UNIT).expect("shapes fixed"))
    });
    let x = Tensor::fill_with(Shape::d1(256), |_| rng.next_f64() as f32);
    let w = Tensor::fill_with(Shape::d2(128, 256), |_| rng.next_f64() as f32 * 0.05);
    let db = Tensor::zeros(Shape::d1(128));
    bench.bench("dense_256_to_128", || {
        black_box(dense(&x, &w, &db).expect("shapes fixed"))
    });

    let mut rng = Rng64::new(2);
    let net = NetworkBuilder::new(Shape::d3(2, 12, 12))
        .conv2d(8, 3, 1, 1, Activation::Relu, &mut rng)
        .expect("static architecture")
        .residual_block(Activation::Relu, &mut rng)
        .expect("static architecture")
        .global_avgpool()
        .expect("static architecture")
        .dense(16, Activation::None, &mut rng)
        .expect("static architecture")
        .build();
    let input = Tensor::fill_with(Shape::d3(2, 12, 12), |_| rng.next_f64() as f32 - 0.5);
    bench.bench("miniresnet_forward_fp32", || {
        black_box(net.forward(&input).expect("shape fixed"))
    });
    let calib = vec![input.clone()];
    let qnet = QNetwork::quantize(&net, &calib).expect("calibration non-empty");
    bench.bench("miniresnet_forward_int8", || {
        black_box(qnet.forward(&input).expect("shape fixed"))
    });

    let mut rng = Rng64::new(3);
    let cell = GruCell::new(12, 20, &mut rng);
    let x = Tensor::fill_with(Shape::d1(12), |_| rng.next_f64() as f32 - 0.5);
    let h = cell.zero_state();
    bench.bench("gru_step_12_to_20", || {
        black_box(cell.step(&x, &h).expect("dims fixed"))
    });
}
