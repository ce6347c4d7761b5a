//! Scalar-vs-SIMD equivalence for every kernel with an explicit AVX2+FMA
//! flavour.
//!
//! The two dispatch paths are *not* bit-identical by design: the AVX2
//! microkernel contracts multiply-adds with FMA (one rounding where the
//! scalar path rounds twice) and the f64 statistics sums split across
//! vector lanes before a fixed-order horizontal reduce. Both effects are
//! bounded reassociations, so the paths must agree within an accumulated-
//! rounding tolerance that scales with the reduction depth — that bound is
//! what these tests pin down. Kernels whose vector flavour uses only
//! exact-rounded elementwise ops (ReLU, element-wise sum, bias add) must
//! match bit-for-bit and are asserted exactly.
//!
//! On hardware without AVX2+FMA the requested vector path clamps to the
//! scalar fallback and every comparison holds trivially — the suite still
//! passes, it just stops being a cross-path check.

use bnff_graph::op::Conv2dAttrs;
use bnff_kernels::batchnorm::{bn_normalize_into, bn_statistics, BnParams};
use bnff_kernels::conv::conv2d_forward_relu_into;
use bnff_kernels::eltwise::eltwise_sum_forward_into;
use bnff_kernels::fused::norm_relu_conv_forward_into;
use bnff_kernels::gemm::{gemm, gemm_nt, gemm_tn, KC, MC, MR, NR};
use bnff_kernels::relu::relu_forward_into;
use bnff_kernels::{affine, fc};
use bnff_tensor::init::Initializer;
use bnff_tensor::stats::{channel_stats_one_pass, channel_stats_two_pass};
use bnff_tensor::{active_isa, with_isa, Shape, SimdIsa, Tensor};
use proptest::prelude::*;

/// The vector path under test: the detected ISA when a scoped request for
/// AVX2+FMA survives hardware clamping, else the scalar fallback.
fn vector_isa() -> SimdIsa {
    with_isa(SimdIsa::Avx2Fma, active_isa)
}

fn data(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// Cross-path tolerance for a depth-`k` dot product of values in
/// `[-0.5, 0.5)`: each FMA contraction removes one rounding of magnitude
/// ≤ ulp(partial sum) ≈ 2⁻²⁴·|partial|, and |partial| ≤ 0.25·k, so the
/// paths can drift by ~k·2⁻²⁶ — comfortably under `1e-5·k` with slack for
/// the `KC`-slab reassociation the packed kernel already documents.
fn tol(k: usize) -> f32 {
    1e-5 * (k.max(8) as f32)
}

fn assert_paths_close(label: &str, k: usize, scalar: &[f32], vector: &[f32]) {
    assert_eq!(scalar.len(), vector.len(), "{label}: length mismatch");
    for (i, (s, v)) in scalar.iter().zip(vector.iter()).enumerate() {
        assert!((s - v).abs() <= tol(k), "{label}[{i}]: scalar {s} vs vector {v} (tol {})", tol(k));
    }
}

/// Runs `f` once under each dispatch path and returns (scalar, vector).
fn both_paths<F: Fn() -> Vec<f32>>(f: F) -> (Vec<f32>, Vec<f32>) {
    let scalar = with_isa(SimdIsa::Scalar, &f);
    let vector = with_isa(vector_isa(), &f);
    (scalar, vector)
}

proptest! {
    /// All three transpose variants across ragged shapes straddling the
    /// widened 6×16 microtile, the `MC` row grid and the `KC` slabs,
    /// including `K = 0` and α/β accumulation.
    #[test]
    fn gemm_paths_agree_on_ragged_shapes(
        case in (1usize..MC + MR + 2, 1usize..2 * NR + 5, 0usize..KC + 33, 0usize..1_000_000)
    ) {
        let (m, n, k, seed) = (case.0, case.1, case.2, case.3 as u64);
        let a = data(m * k, seed);
        let b = data(k * n, seed ^ 0xABCD);
        let c0 = data(m * n, seed ^ 0x7777);

        let (s, v) = both_paths(|| {
            let mut c = vec![0.0; m * n];
            gemm(m, n, k, 1.0, &a, &b, 0.0, &mut c).unwrap();
            c
        });
        assert_paths_close("gemm", k, &s, &v);

        let (s, v) = both_paths(|| {
            let mut c = c0.clone();
            gemm(m, n, k, 1.25, &a, &b, -0.5, &mut c).unwrap();
            c
        });
        assert_paths_close("gemm(alpha,beta)", k, &s, &v);

        // Transposed-operand entry points share the packed core, but their
        // packing routines must feed both microkernels identically.
        let mut bt = vec![0.0; n * k];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        let (s, v) = both_paths(|| {
            let mut c = vec![0.0; m * n];
            gemm_nt(m, n, k, &a, &bt, &mut c).unwrap();
            c
        });
        assert_paths_close("gemm_nt", k, &s, &v);

        let mut at = vec![0.0; k * m];
        for i in 0..m {
            for kk in 0..k {
                at[kk * m + i] = a[i * k + kk];
            }
        }
        let (s, v) = both_paths(|| {
            let mut c = vec![0.0; m * n];
            gemm_tn(m, n, k, &at, &b, &mut c).unwrap();
            c
        });
        assert_paths_close("gemm_tn", k, &s, &v);
    }
}

#[test]
fn relu_and_eltwise_are_bit_identical_across_paths() {
    let mut init = Initializer::seeded(21);
    let x = init.uniform(Shape::nchw(2, 3, 9, 9), -2.0, 2.0);
    let b = init.uniform(Shape::nchw(2, 3, 9, 9), -2.0, 2.0);
    let (s, v) = both_paths(|| {
        let mut out = Tensor::zeros(x.shape().clone());
        relu_forward_into(&x, &mut out).unwrap();
        out.into_vec()
    });
    assert_eq!(
        s.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        v.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        "relu must not differ across dispatch paths"
    );
    let (s, v) = both_paths(|| {
        let mut out = Tensor::zeros(x.shape().clone());
        eltwise_sum_forward_into(&[&x, &b, &x], &mut out).unwrap();
        out.into_vec()
    });
    assert_eq!(
        s.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        v.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        "eltwise sum must not differ across dispatch paths"
    );
}

#[test]
fn statistics_paths_agree() {
    let mut init = Initializer::seeded(22);
    // Odd plane length (7·7) exercises the vector-tail split of the f64
    // accumulators.
    let x = init.uniform(Shape::nchw(5, 6, 7, 7), -2.0, 2.0);
    let per_channel = 5 * 7 * 7;
    for (label, f) in [
        (
            "one_pass",
            &(|| {
                let s = channel_stats_one_pass(&x).unwrap();
                let mut flat = s.mean;
                flat.extend(s.var);
                flat
            }) as &dyn Fn() -> Vec<f32>,
        ),
        ("two_pass", &|| {
            let s = channel_stats_two_pass(&x).unwrap();
            let mut flat = s.mean;
            flat.extend(s.var);
            flat
        }),
    ] {
        let (s, v) = both_paths(f);
        // f64 accumulation: lane-splitting reassociates an f64 sum, whose
        // error is far below f32 resolution once cast back.
        assert_paths_close(label, per_channel, &s, &v);
    }
}

#[test]
fn bn_affine_and_fused_paths_agree() {
    let mut init = Initializer::seeded(23);
    let x = init.uniform(Shape::nchw(3, 4, 5, 5), -2.0, 2.0);
    let params = BnParams::new(vec![1.2, 0.8, -0.4, 1.0], vec![0.1, -0.2, 0.3, 0.0]).unwrap();

    let (s, v) = both_paths(|| {
        let stats = bn_statistics(&x, true).unwrap();
        let mut y = Tensor::zeros(x.shape().clone());
        let x_hat = bn_normalize_into(&x, &stats, &params, 1e-5, &mut y).unwrap();
        let mut flat = y.into_vec();
        flat.extend(x_hat.into_vec());
        flat
    });
    // Normalize is one FMA deep; statistics dominate the (tiny) drift.
    assert_paths_close("bn_forward", 3 * 5 * 5, &s, &v);

    let scale = [1.5f32, -0.5, 0.25, 2.0];
    let shift = [0.1f32, -0.3, 0.0, 0.7];
    let (s, v) = both_paths(|| {
        let mut out = Tensor::zeros(x.shape().clone());
        affine::channel_affine_relu_into(&x, &scale, &shift, &mut out).unwrap();
        out.into_vec()
    });
    assert_paths_close("channel_affine_relu", 1, &s, &v);

    let attrs = Conv2dAttrs::same_3x3(6);
    let w = init.uniform(Shape::nchw(6, 4, 3, 3), -0.5, 0.5);
    let bias: Vec<f32> = (0..6).map(|i| 0.05 * i as f32 - 0.1).collect();
    let (s, v) = both_paths(|| {
        let mut out = Tensor::zeros(Shape::nchw(3, 6, 5, 5));
        conv2d_forward_relu_into(&x, &w, Some(&bias), &attrs, &mut out).unwrap();
        out.into_vec()
    });
    assert_paths_close("conv2d_forward_relu", 4 * 9, &s, &v);

    let (s, v) = both_paths(|| {
        let stats = channel_stats_one_pass(&x).unwrap();
        let mut out = Tensor::zeros(Shape::nchw(3, 6, 5, 5));
        let state =
            norm_relu_conv_forward_into(&x, &stats, &params, 1e-5, &w, None, &attrs, &mut out)
                .unwrap();
        let mut flat = out.into_vec();
        flat.extend(state.x_hat.into_vec());
        flat.extend(state.conv_input.into_vec());
        flat
    });
    assert_paths_close("norm_relu_conv", 4 * 9 + 3 * 5 * 5, &s, &v);
}

#[test]
fn fully_connected_rides_the_dispatched_gemm() {
    let mut init = Initializer::seeded(24);
    let x = init.uniform(Shape::matrix(9, 37), -1.0, 1.0);
    let w = init.uniform(Shape::matrix(11, 37), -1.0, 1.0);
    let bias: Vec<f32> = (0..11).map(|i| 0.01 * i as f32).collect();
    let (s, v) = both_paths(|| fc::fc_forward(&x, &w, &bias).unwrap().into_vec());
    assert_paths_close("fc_forward", 37, &s, &v);
}

#[test]
fn env_override_clamps_to_hardware() {
    // A scoped request for the vector path never yields an ISA the host
    // cannot execute; on non-AVX2 machines it degrades to Scalar.
    let isa = vector_isa();
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        assert_eq!(isa, SimdIsa::Avx2Fma);
    } else {
        assert_eq!(isa, SimdIsa::Scalar);
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    assert_eq!(isa, SimdIsa::Scalar);
}
