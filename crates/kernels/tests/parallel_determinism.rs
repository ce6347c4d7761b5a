//! Parallel/serial determinism: every kernel must produce matching outputs
//! (within 1e-5; in practice bit-identical) whatever the worker count.
//!
//! `with_threads(n, ...)` installs the same per-call worker count that
//! `BNFF_THREADS=n` would set process-wide, so these tests cover the
//! `BNFF_THREADS=1` vs `BNFF_THREADS=4` acceptance check — plus counts
//! chosen to hit the awkward partitions: thread counts that do not divide
//! the work, more threads than work items, and single-element inputs.

use bnff_graph::op::{Conv2dAttrs, PoolAttrs};
use bnff_kernels::batchnorm::{
    bn_backward, bn_normalize_into, bn_statistics, BnForwardState, BnParams,
};
use bnff_kernels::conv::{
    conv2d_backward_input_into, conv2d_backward_weights, conv2d_forward_direct, conv2d_forward_into,
};
use bnff_kernels::eltwise::eltwise_sum_forward_into;
use bnff_kernels::fused::{conv2d_forward_with_stats_into, norm_relu_conv_forward_into};
use bnff_kernels::gemm::{gemm, gemm_nt, gemm_tn};
use bnff_kernels::pool::{avg_pool_forward_into, max_pool_backward, max_pool_forward};
use bnff_kernels::relu::{relu_backward, relu_forward_into};
use bnff_kernels::softmax::softmax_loss_forward;
use bnff_parallel::{with_grain, with_threads};
use bnff_tensor::init::Initializer;
use bnff_tensor::stats::{channel_stats_one_pass, channel_stats_two_pass};
use bnff_tensor::{Shape, Tensor};

/// Worker counts exercised against the single-threaded reference: the
/// acceptance pair (1 vs 4), non-dividing counts (3, 7), and far more
/// threads than most of the work items below (16).
const THREADS: &[usize] = &[4, 3, 7, 16];

const TOL: f32 = 1e-5;

fn random(shape: Shape, seed: u64) -> Tensor {
    Initializer::seeded(seed).uniform(shape, -2.0, 2.0)
}

fn assert_close(label: &str, threads: usize, reference: &[f32], candidate: &[f32]) {
    assert_eq!(reference.len(), candidate.len(), "{label}: length mismatch");
    for (i, (r, c)) in reference.iter().zip(candidate.iter()).enumerate() {
        assert!(
            (r - c).abs() <= TOL,
            "{label}[{i}] with {threads} threads: serial {r} vs parallel {c}"
        );
    }
}

/// Runs `f` serially and under every thread count, comparing the flattened
/// outputs. The spawn-amortization grain is pinned to 1 so these small
/// fixtures genuinely split into per-worker tasks (at the default grain
/// most of them would collapse to a single task and the comparison would
/// be vacuous); a default-grain pass is kept as a sanity check.
fn check<F>(label: &str, f: F)
where
    F: Fn() -> Vec<f32>,
{
    let reference = with_grain(1, || with_threads(1, &f));
    for &t in THREADS {
        let candidate = with_grain(1, || with_threads(t, &f));
        assert_close(label, t, &reference, &candidate);
    }
    // The production grain must not change results either.
    let default_grain = with_threads(THREADS[0], &f);
    assert_close(label, THREADS[0], &reference, &default_grain);
}

/// BN training forward (statistics, then normalization), flattened as
/// output then per-channel mean and variance.
fn bn_train(x: &Tensor, params: &BnParams, one_pass: bool) -> (Vec<f32>, BnForwardState) {
    let stats = bn_statistics(x, one_pass).unwrap();
    let mut y = Tensor::zeros(x.shape().clone());
    let x_hat = bn_normalize_into(x, &stats, params, 1e-5, &mut y).unwrap();
    let mut flat = y.into_vec();
    flat.extend(&stats.mean);
    flat.extend(&stats.var);
    (flat, BnForwardState { stats, x_hat })
}

fn relu(x: &Tensor) -> Vec<f32> {
    let mut out = Tensor::zeros(x.shape().clone());
    relu_forward_into(x, &mut out).unwrap();
    out.into_vec()
}

fn eltwise_sum(inputs: &[&Tensor]) -> Vec<f32> {
    let mut out = Tensor::zeros(inputs[0].shape().clone());
    eltwise_sum_forward_into(inputs, &mut out).unwrap();
    out.into_vec()
}

/// The fused conv-with-statistics kernel on a same-padded 3×3 convolution,
/// flattened as output then per-channel mean and variance.
fn conv_with_stats(x: &Tensor, w: &Tensor, attrs: &Conv2dAttrs) -> Vec<f32> {
    let s = x.shape();
    let mut out = Tensor::zeros(Shape::nchw(s.n(), attrs.out_channels, s.h(), s.w()));
    let stats = conv2d_forward_with_stats_into(x, w, None, attrs, &mut out).unwrap();
    let mut flat = out.into_vec();
    flat.extend(stats.mean);
    flat.extend(stats.var);
    flat
}

#[test]
fn gemm_matches_serial_across_odd_sizes() {
    // (m, n, k): single element, non-divisible row counts, sizes straddling
    // the 48-element cache tile, and fewer rows than workers.
    for &(m, n, k) in &[(1usize, 1usize, 1usize), (3, 5, 2), (7, 9, 11), (70, 65, 50), (2, 128, 16)]
    {
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 13) as f32 - 6.0) * 0.25).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 29 % 11) as f32 - 5.0) * 0.5).collect();
        check(&format!("gemm {m}x{n}x{k}"), || {
            let mut c = vec![0.5; m * n];
            gemm(m, n, k, 1.25, &a, &b, 0.5, &mut c).unwrap();
            c
        });
        let bt: Vec<f32> = (0..n * k).map(|i| ((i * 17 % 7) as f32 - 3.0) * 0.5).collect();
        check(&format!("gemm_nt {m}x{n}x{k}"), || {
            let mut c = vec![0.0; m * n];
            gemm_nt(m, n, k, &a, &bt, &mut c).unwrap();
            c
        });
        let at: Vec<f32> = (0..k * m).map(|i| ((i * 23 % 9) as f32 - 4.0) * 0.5).collect();
        let bb: Vec<f32> = (0..k * n).map(|i| ((i * 31 % 12) as f32 - 5.5) * 0.25).collect();
        check(&format!("gemm_tn {m}x{n}x{k}"), || {
            let mut c = vec![0.0; m * n];
            gemm_tn(m, n, k, &at, &bb, &mut c).unwrap();
            c
        });
    }
}

#[test]
fn conv_forward_and_backward_match_serial() {
    // Batch 1 (threads > samples), odd channel counts, odd spatial sizes.
    for &(n, ic, oc, hw, seed) in
        &[(1usize, 1usize, 1usize, 1usize, 1u64), (1, 3, 5, 7, 2), (3, 4, 6, 9, 3), (2, 2, 8, 5, 4)]
    {
        let attrs =
            Conv2dAttrs::new(oc, if hw >= 3 { 3 } else { 1 }, 1, if hw >= 3 { 1 } else { 0 });
        let x = random(Shape::nchw(n, ic, hw, hw), seed);
        let w = random(Shape::nchw(oc, ic, attrs.kernel_h, attrs.kernel_w), seed + 100);
        check(&format!("conv_direct n={n} ic={ic} oc={oc} hw={hw}"), || {
            conv2d_forward_direct(&x, &w, None, &attrs).unwrap().into_vec()
        });
        let y = conv2d_forward_direct(&x, &w, None, &attrs).unwrap();
        check(&format!("conv_im2col n={n} ic={ic} oc={oc} hw={hw}"), || {
            let mut out = Tensor::zeros(y.shape().clone());
            conv2d_forward_into(&x, &w, None, &attrs, &mut out).unwrap();
            out.into_vec()
        });
        let d_out = random(y.shape().clone(), seed + 200);
        check(&format!("conv_backward_input n={n} ic={ic} oc={oc} hw={hw}"), || {
            let mut d_x = Tensor::zeros(x.shape().clone());
            conv2d_backward_input_into(&d_out, &w, &attrs, &mut d_x).unwrap();
            d_x.into_vec()
        });
        check(&format!("conv_backward_weights n={n} ic={ic} oc={oc} hw={hw}"), || {
            let (d_w, d_b) = conv2d_backward_weights(&x, &d_out, &attrs, false).unwrap();
            let mut flat = d_w.into_vec();
            flat.extend(d_b);
            flat
        });
    }
}

#[test]
fn batchnorm_matches_serial() {
    // Channel counts that do not divide typical worker counts, plus a
    // single-element feature map.
    for &(n, c, hw, seed) in
        &[(1usize, 1usize, 1usize, 5u64), (2, 3, 5, 6), (5, 7, 3, 7), (8, 4, 6, 8)]
    {
        let x = random(Shape::nchw(n, c, hw, hw), seed);
        let params = BnParams::new(
            (0..c).map(|i| 0.5 + i as f32 * 0.1).collect(),
            (0..c).map(|i| -0.2 + i as f32 * 0.05).collect(),
        )
        .unwrap();
        for one_pass in [false, true] {
            check(&format!("bn_forward n={n} c={c} hw={hw} one_pass={one_pass}"), || {
                bn_train(&x, &params, one_pass).0
            });
        }
        check(&format!("bn_backward n={n} c={c} hw={hw}"), || {
            let (_, state) = bn_train(&x, &params, false);
            let d_y = random(x.shape().clone(), seed + 50);
            let (d_x, grads) = bn_backward(&d_y, &state, &params, 1e-5).unwrap();
            let mut flat = d_x.into_vec();
            flat.extend(grads.d_gamma);
            flat.extend(grads.d_beta);
            flat
        });
    }
}

#[test]
fn channel_statistics_match_serial() {
    for &(n, c, hw, seed) in &[(1usize, 1usize, 1usize, 9u64), (3, 5, 7, 10), (4, 16, 4, 11)] {
        let x = random(Shape::nchw(n, c, hw, hw), seed);
        check(&format!("stats_two_pass n={n} c={c} hw={hw}"), || {
            let s = channel_stats_two_pass(&x).unwrap();
            let mut flat = s.mean;
            flat.extend(s.var);
            flat
        });
        check(&format!("stats_one_pass n={n} c={c} hw={hw}"), || {
            let s = channel_stats_one_pass(&x).unwrap();
            let mut flat = s.mean;
            flat.extend(s.var);
            flat
        });
    }
}

#[test]
fn pool_relu_eltwise_match_serial() {
    let x = random(Shape::nchw(3, 5, 9, 9), 12);
    let pool = PoolAttrs::new(3, 2, 1);
    check("max_pool_forward", || {
        let (output, _) = max_pool_forward(&x, &pool).unwrap();
        output.into_vec()
    });
    check("max_pool_backward", || {
        let (_, state) = max_pool_forward(&x, &pool).unwrap();
        let d_y = random(state.output_shape.clone(), 13);
        max_pool_backward(&d_y, &state, x.shape()).unwrap().into_vec()
    });
    check("avg_pool_forward", || {
        // 9×9 pooled by a 3×3/stride-2/pad-1 window is 5×5.
        let mut out = Tensor::zeros(Shape::nchw(3, 5, 5, 5));
        avg_pool_forward_into(&x, &pool, &mut out).unwrap();
        out.into_vec()
    });
    check("relu_forward", || relu(&x));
    check("relu_backward", || {
        let d_y = random(x.shape().clone(), 14);
        relu_backward(&d_y, &x).unwrap().into_vec()
    });
    let b = random(x.shape().clone(), 15);
    let c = random(x.shape().clone(), 16);
    check("eltwise_sum", || eltwise_sum(&[&x, &b, &c]));
    // A single-element tensor exercises the degenerate partitions.
    let tiny = Tensor::from_slice(&[-1.5]);
    check("relu_single_element", || relu(&tiny));
}

#[test]
fn fused_kernels_match_serial() {
    let attrs = Conv2dAttrs::same_3x3(6);
    let x = random(Shape::nchw(3, 4, 7, 7), 17);
    let w = random(Shape::nchw(6, 4, 3, 3), 18);
    check("conv_with_stats", || conv_with_stats(&x, &w, &attrs));
    let bn = BnParams::new(vec![1.2, 0.8, 1.0, 0.9], vec![0.1, -0.1, 0.0, 0.2]).unwrap();
    check("norm_relu_conv", || {
        let stats = channel_stats_one_pass(&x).unwrap();
        let mut out = Tensor::zeros(Shape::nchw(3, 6, 7, 7));
        let state =
            norm_relu_conv_forward_into(&x, &stats, &bn, 1e-5, &w, None, &attrs, &mut out).unwrap();
        let mut flat = out.into_vec();
        flat.extend(state.x_hat.into_vec());
        flat
    });
}

/// The determinism contract is *per dispatch path*: under a fixed ISA the
/// outputs must be **bit-identical** for every worker count, because worker
/// partitions either fall on whole planes (BN normalize, affine) or use
/// sweeps whose vector and tail flavours round identically (ReLU, sums,
/// GEMM's per-element ascending-k accumulation). Checked under the scalar
/// path and, where the hardware allows, the AVX2+FMA path.
#[test]
fn kernels_are_bit_identical_across_thread_counts_on_both_paths() {
    use bnff_tensor::{active_isa, with_isa, SimdIsa};

    let x = random(Shape::nchw(3, 5, 9, 9), 41);
    let w = random(Shape::nchw(6, 5, 3, 3), 42);
    let attrs = Conv2dAttrs::same_3x3(6);
    let params = BnParams::new(
        (0..5).map(|i| 0.6 + i as f32 * 0.1).collect(),
        (0..5).map(|i| -0.1 + i as f32 * 0.05).collect(),
    )
    .unwrap();
    let b = random(x.shape().clone(), 43);

    let detected = with_isa(SimdIsa::Avx2Fma, active_isa);
    let mut isas = vec![SimdIsa::Scalar];
    if detected != SimdIsa::Scalar {
        isas.push(detected);
    }
    let cases: &[(&str, &dyn Fn() -> Vec<f32>)] = &[
        ("gemm_70x65x50", &|| {
            let (m, n, k) = (70, 65, 50);
            let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 13) as f32 - 6.0) * 0.25).collect();
            let bb: Vec<f32> = (0..k * n).map(|i| ((i * 29 % 11) as f32 - 5.0) * 0.5).collect();
            let mut c = vec![0.5; m * n];
            gemm(m, n, k, 1.25, &a, &bb, 0.5, &mut c).unwrap();
            c
        }),
        ("bn_forward_one_pass", &|| bn_train(&x, &params, true).0),
        ("relu", &|| relu(&x)),
        ("eltwise_sum", &|| eltwise_sum(&[&x, &b])),
        ("conv_with_stats", &|| conv_with_stats(&x, &w, &attrs)),
    ];
    for &isa in &isas {
        for (label, f) in cases {
            with_isa(isa, || {
                let reference: Vec<u32> =
                    with_grain(1, || with_threads(1, f)).iter().map(|v| v.to_bits()).collect();
                for &t in &[3usize, 4, 7] {
                    let candidate: Vec<u32> =
                        with_grain(1, || with_threads(t, f)).iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        reference, candidate,
                        "{label} under {isa}: bits differ between 1 and {t} threads"
                    );
                }
            });
        }
    }
}

#[test]
fn softmax_matches_serial() {
    let scores = random(Shape::matrix(7, 13), 19);
    let labels: Vec<usize> = (0..7).map(|i| i % 13).collect();
    check("softmax_forward", || {
        let state = softmax_loss_forward(&scores, &labels).unwrap();
        let mut flat = state.probs.into_vec();
        flat.push(state.loss);
        flat
    });
}
