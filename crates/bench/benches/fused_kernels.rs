//! Kernel-level ablation benches: the real CPU cost of the fused BNFF
//! kernels against their unfused compositions, plus the MVF statistics and
//! conv-lowering ablations called out in DESIGN.md.
//!
//! These run at reduced (CIFAR-ish) scale so `cargo bench` stays fast; the
//! paper-scale numbers come from the analytical model (`figures` bench and
//! the `all_figures` binary).

use bnff_graph::op::Conv2dAttrs;
use bnff_kernels::batchnorm::{bn_normalize_into, bn_statistics, BnParams};
use bnff_kernels::conv::{conv2d_forward_direct, conv2d_forward_into};
use bnff_kernels::fused::{conv2d_forward_with_stats_into, norm_relu_conv_forward_into};
use bnff_kernels::relu::relu_forward_into;
use bnff_tensor::init::Initializer;
use bnff_tensor::stats::{channel_stats_one_pass, channel_stats_two_pass, channel_stats_welford};
use bnff_tensor::{Shape, Tensor};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn tensors() -> (Tensor, Tensor, Tensor, Conv2dAttrs, Conv2dAttrs, BnParams) {
    let mut init = Initializer::seeded(42);
    let batch = 16;
    let x = init.uniform(Shape::nchw(batch, 32, 16, 16), -1.0, 1.0);
    let attrs1 = Conv2dAttrs::pointwise(64);
    let w1 = init.he_normal(Shape::nchw(64, 32, 1, 1), 32);
    let attrs2 = Conv2dAttrs::same_3x3(32);
    let w2 = init.he_normal(Shape::nchw(32, 64, 3, 3), 64 * 9);
    let bn = BnParams::identity(64);
    (x, w1, w2, attrs1, attrs2, bn)
}

/// CONV1-(sub-BN1): fused conv+stats vs conv followed by a separate
/// statistics sweep (the Fusion half of BNFF, forward). Both sides write
/// into a preallocated output through the same convolution, as the
/// plan-driven executor does.
fn bench_conv_stats(c: &mut Criterion) {
    let (x, w1, _, attrs1, _, _) = tensors();
    let mut out = Tensor::zeros(Shape::nchw(16, 64, 16, 16));
    let mut group = c.benchmark_group("fused_conv_stats");
    group.bench_function("unfused_conv_then_stats", |b| {
        b.iter(|| {
            conv2d_forward_into(black_box(&x), &w1, None, &attrs1, &mut out).unwrap();
            black_box(bn_statistics(&out, false).unwrap())
        })
    });
    group.bench_function("fused_conv_with_stats", |b| {
        b.iter(|| {
            black_box(
                conv2d_forward_with_stats_into(black_box(&x), &w1, None, &attrs1, &mut out)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

/// (sub-BN2)-ReLU-CONV2: fused normalize+clip+conv vs BN → ReLU → CONV.
/// Every output (the unfused side's BN and ReLU outputs included) is a
/// preallocated buffer, as the tape executor's registers are.
fn bench_norm_relu_conv(c: &mut Criterion) {
    let (x, w1, w2, attrs1, attrs2, bn) = tensors();
    let mut conv1_out = Tensor::zeros(Shape::nchw(16, 64, 16, 16));
    conv2d_forward_into(&x, &w1, None, &attrs1, &mut conv1_out).unwrap();
    let stats = bn_statistics(&conv1_out, false).unwrap();
    let mut y = Tensor::zeros(conv1_out.shape().clone());
    let mut r = Tensor::zeros(conv1_out.shape().clone());
    let mut out = Tensor::zeros(Shape::nchw(16, 32, 16, 16));
    let mut group = c.benchmark_group("fused_norm_relu_conv");
    group.bench_function("unfused_bn_relu_conv", |b| {
        b.iter(|| {
            let s = bn_statistics(black_box(&conv1_out), false).unwrap();
            black_box(bn_normalize_into(&conv1_out, &s, &bn, 1e-5, &mut y).unwrap());
            relu_forward_into(&y, &mut r).unwrap();
            conv2d_forward_into(&r, &w2, None, &attrs2, &mut out).unwrap();
            black_box(&out);
        })
    });
    group.bench_function("fused_norm_relu_conv", |b| {
        b.iter(|| {
            black_box(
                norm_relu_conv_forward_into(
                    black_box(&conv1_out),
                    &stats,
                    &bn,
                    1e-5,
                    &w2,
                    None,
                    &attrs2,
                    &mut out,
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

/// MVF ablation: two-pass vs one-pass vs Welford statistics.
fn bench_mvf(c: &mut Criterion) {
    let mut init = Initializer::seeded(7);
    let x = init.uniform(Shape::nchw(32, 64, 16, 16), -2.0, 2.0);
    let mut group = c.benchmark_group("mvf_statistics");
    group.bench_function("two_pass", |b| {
        b.iter(|| black_box(channel_stats_two_pass(black_box(&x)).unwrap()))
    });
    group.bench_function("one_pass_mvf", |b| {
        b.iter(|| black_box(channel_stats_one_pass(black_box(&x)).unwrap()))
    });
    group.bench_function("welford", |b| {
        b.iter(|| black_box(channel_stats_welford(black_box(&x)).unwrap()))
    });
    group.finish();
}

/// Convolution-lowering ablation: direct loops vs im2col + GEMM.
fn bench_conv_lowering(c: &mut Criterion) {
    let mut init = Initializer::seeded(11);
    let x = init.uniform(Shape::nchw(8, 32, 16, 16), -1.0, 1.0);
    let attrs = Conv2dAttrs::same_3x3(32);
    let w = init.he_normal(Shape::nchw(32, 32, 3, 3), 32 * 9);
    let mut out = Tensor::zeros(Shape::nchw(8, 32, 16, 16));
    let mut group = c.benchmark_group("conv_lowering");
    group.bench_function("direct", |b| {
        b.iter(|| black_box(conv2d_forward_direct(black_box(&x), &w, None, &attrs).unwrap()))
    });
    group.bench_function("im2col_gemm", |b| {
        b.iter(|| {
            conv2d_forward_into(black_box(&x), &w, None, &attrs, &mut out).unwrap();
            black_box(&out);
        })
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_conv_stats, bench_norm_relu_conv, bench_mvf, bench_conv_lowering
}
criterion_main!(benches);
