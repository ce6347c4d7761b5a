//! Fused kernels introduced by BN Fission-n-Fusion. Each writes into a
//! caller-provided output tensor, the form the plan-driven training
//! executor drives.
//!
//! * [`conv2d_forward_with_stats_into`] — the `CONV1-(sub-BN1)` fused
//!   layer: the convolution accumulates Σx and Σx² of every output value it
//!   produces, so the following BN's mean/variance are available without
//!   re-reading the output feature map.
//! * [`norm_relu_conv_forward_into`] — the `(sub-BN2)-ReLU-CONV2` fused
//!   layer: normalization and clipping happen while the following
//!   convolution reads its input feature map. The normalized activation is
//!   also returned (the paper's `O2'` write) because the backward pass
//!   needs it.
//! * [`concat_forward_with_stats_into`] — the ICF fused layer: Σx/Σx²
//!   accumulated while the concatenation writes its output.
//! * [`norm_relu_conv_backward`] — the fused backward path, composed of the
//!   same arithmetic as the unfused layers (the memory benefit is modelled
//!   by `bnff-memsim`; numerically the result must be identical).

use crate::batchnorm::{min_planes_per_thread, BnParamGrads, BnParams};
use crate::conv::{conv2d_backward_input_into, conv2d_backward_weights, conv2d_forward_into};
use crate::error::KernelError;
use crate::relu::relu_backward;
use crate::vecops;
use crate::Result;
use bnff_graph::op::Conv2dAttrs;
use bnff_parallel::parallel_rows_mut2;
use bnff_tensor::stats::{ChannelAccumulator, ChannelStats};
use bnff_tensor::{active_isa, Tensor};

/// Convolution into a caller-provided output tensor that also accumulates
/// per-channel Σx / Σx² of its output (the paper's `CONV1-(sub-BN1)` fused
/// layer), returning the finalized mini-batch statistics. Every element of
/// `out` is overwritten.
///
/// # Errors
/// Returns an error if the shapes (including `out`'s) are inconsistent.
pub fn conv2d_forward_with_stats_into(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    attrs: &Conv2dAttrs,
    out: &mut Tensor,
) -> Result<ChannelStats> {
    conv2d_forward_into(input, weights, bias, attrs, out)?;
    // The accumulation rides along the output write: a per-plane pass over
    // the freshly produced (still cache-resident) output, whose per-channel
    // partials reduce across worker threads.
    Ok(ChannelAccumulator::from_tensor(out)?.finalize()?)
}

/// Everything the fused `(sub-BN2)-ReLU-CONV2` backward pass needs from the
/// forward pass.
#[derive(Debug, Clone)]
pub struct NormReluConvState {
    /// The normalized activations `x̂` (before γ/β and ReLU) — the `O2'`
    /// sweep the fused layer still writes because backward reuses it.
    pub x_hat: Tensor,
    /// The post-γ/β, post-ReLU activations actually fed to the convolution.
    pub conv_input: Tensor,
    /// The statistics used for normalization.
    pub stats: ChannelStats,
}

/// The `(sub-BN2)-ReLU-CONV2` fused forward pass: normalize the raw
/// activations with the provided mini-batch statistics, clip, and convolve
/// into a caller-provided output tensor. Every element of `out` is
/// overwritten; the returned state owns the (freshly allocated) `x̂` and
/// clipped activations the backward pass retains.
///
/// # Errors
/// Returns an error if the shapes (including `out`'s) are inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn norm_relu_conv_forward_into(
    raw: &Tensor,
    stats: &ChannelStats,
    bn: &BnParams,
    epsilon: f32,
    weights: &Tensor,
    bias: Option<&[f32]>,
    attrs: &Conv2dAttrs,
    out: &mut Tensor,
) -> Result<NormReluConvState> {
    raw.shape().expect_nchw()?;
    let c = raw.shape().c();
    if stats.channels() != c || bn.channels() != c {
        return Err(KernelError::ShapeMismatch(format!(
            "statistics/parameters cover {}/{} channels, input has {c}",
            stats.channels(),
            bn.channels()
        )));
    }
    if epsilon <= 0.0 {
        return Err(KernelError::InvalidArgument("epsilon must be positive".to_string()));
    }
    let mut x_hat = Tensor::zeros(raw.shape().clone());
    let mut conv_input = Tensor::zeros(raw.shape().clone());
    let plane_len = raw.shape().h() * raw.shape().w();
    let src = raw.as_slice();
    // One task per `(sample, channel)` plane; `x̂` and the clipped conv
    // input are produced in the same sweep of the raw activations. ISA
    // resolved on the caller's thread (workers don't inherit `with_isa`).
    let isa = active_isa();
    parallel_rows_mut2(
        x_hat.as_mut_slice(),
        plane_len.max(1),
        conv_input.as_mut_slice(),
        plane_len.max(1),
        min_planes_per_thread(plane_len),
        |first_plane, hat_block, in_block| {
            for (p_local, (hat_plane, ci_plane)) in hat_block
                .chunks_mut(plane_len.max(1))
                .zip(in_block.chunks_mut(plane_len.max(1)))
                .enumerate()
            {
                let p = first_plane + p_local;
                let ci = p % c;
                let mean = stats.mean[ci];
                let inv_std = 1.0 / (stats.var[ci] + epsilon).sqrt();
                let src_plane = &src[p * plane_len..(p + 1) * plane_len];
                vecops::normalize_plane(
                    isa,
                    src_plane,
                    hat_plane,
                    ci_plane,
                    mean,
                    inv_std,
                    bn.gamma[ci],
                    bn.beta[ci],
                    true,
                );
            }
        },
    );
    conv2d_forward_into(&conv_input, weights, bias, attrs, out)?;
    Ok(NormReluConvState { x_hat, conv_input, stats: stats.clone() })
}

/// Gradients produced by [`norm_relu_conv_backward`].
#[derive(Debug, Clone)]
pub struct NormReluConvGrads {
    /// Gradient with respect to the raw (pre-normalization) activations.
    pub d_raw: Tensor,
    /// Gradient with respect to the convolution weights.
    pub d_weights: Tensor,
    /// Gradient with respect to the convolution bias (empty if no bias).
    pub d_bias: Vec<f32>,
    /// Gradients of the absorbed BN's γ/β.
    pub d_bn: BnParamGrads,
}

/// Backward pass of the fused `(sub-BN2)-ReLU-CONV2` layer.
///
/// Numerically this is the composition conv-backward → ReLU-backward →
/// BN-backward; the fusion's benefit is in memory traffic, which the
/// performance model accounts for separately.
///
/// # Errors
/// Returns an error if the shapes are inconsistent.
pub fn norm_relu_conv_backward(
    d_out: &Tensor,
    state: &NormReluConvState,
    bn: &BnParams,
    epsilon: f32,
    weights: &Tensor,
    attrs: &Conv2dAttrs,
    with_bias: bool,
) -> Result<NormReluConvGrads> {
    // Convolution backward.
    let mut d_conv_input = Tensor::zeros(state.conv_input.shape().clone());
    conv2d_backward_input_into(d_out, weights, attrs, &mut d_conv_input)?;
    let (d_weights, d_bias) = conv2d_backward_weights(&state.conv_input, d_out, attrs, with_bias)?;
    // ReLU backward (mask taken from the post-ReLU conv input).
    let d_post_bn = relu_backward(&d_conv_input, &state.conv_input)?;
    // BN backward using the saved normalized activations.
    let bn_state =
        crate::batchnorm::BnForwardState { stats: state.stats.clone(), x_hat: state.x_hat.clone() };
    let (d_raw, d_bn) = crate::batchnorm::bn_backward(&d_post_bn, &bn_state, bn, epsilon)?;
    Ok(NormReluConvGrads { d_raw, d_weights, d_bias, d_bn })
}

/// Channel concatenation into a caller-provided output tensor that also
/// accumulates Σx / Σx² of its output (the ICF fused layer), returning the
/// finalized statistics. Every element of `out` is overwritten.
///
/// # Errors
/// Returns an error if the inputs (or `out`'s shape) are incompatible.
pub fn concat_forward_with_stats_into(
    inputs: &[&Tensor],
    out: &mut Tensor,
) -> Result<ChannelStats> {
    crate::concat::concat_forward_into(inputs, out)?;
    Ok(ChannelAccumulator::from_tensor(out)?.finalize()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batchnorm::{bn_normalize_into, bn_statistics, BnForwardState};
    use crate::concat::{concat_forward_into, concat_output_shape};
    use crate::conv::conv2d_forward_direct;
    use crate::relu::relu_forward_into;
    use bnff_tensor::init::Initializer;
    use bnff_tensor::Shape;

    fn random(shape: Shape, seed: u64) -> Tensor {
        Initializer::seeded(seed).uniform(shape, -1.0, 1.0)
    }

    // The unfused reference kernels, each into a freshly zeroed output.

    /// A stride-1 "same" convolution (the only geometry these tests use).
    fn conv(x: &Tensor, w: &Tensor, attrs: &Conv2dAttrs) -> Tensor {
        let s = x.shape();
        let mut out = Tensor::zeros(Shape::nchw(s.n(), attrs.out_channels, s.h(), s.w()));
        conv2d_forward_into(x, w, None, attrs, &mut out).unwrap();
        out
    }

    fn relu(x: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(x.shape().clone());
        relu_forward_into(x, &mut out).unwrap();
        out
    }

    fn bn_train(x: &Tensor, params: &BnParams, epsilon: f32) -> (Tensor, BnForwardState) {
        let stats = bn_statistics(x, false).unwrap();
        let mut y = Tensor::zeros(x.shape().clone());
        let x_hat = bn_normalize_into(x, &stats, params, epsilon, &mut y).unwrap();
        (y, BnForwardState { stats, x_hat })
    }

    fn concat(inputs: &[&Tensor]) -> Tensor {
        let mut out = Tensor::zeros(concat_output_shape(inputs).unwrap());
        concat_forward_into(inputs, &mut out).unwrap();
        out
    }

    #[test]
    fn conv_with_stats_matches_separate_computation() {
        let attrs = Conv2dAttrs::same_3x3(6);
        let x = random(Shape::nchw(3, 4, 8, 8), 1);
        let w = random(Shape::nchw(6, 4, 3, 3), 2);
        let plain_out = conv(&x, &w, &attrs);
        let mut fused_out = Tensor::zeros(plain_out.shape().clone());
        let fused_stats =
            conv2d_forward_with_stats_into(&x, &w, None, &attrs, &mut fused_out).unwrap();
        assert!(fused_out.all_close(&plain_out, 1e-6).unwrap());
        let separate_stats = bn_statistics(&plain_out, false).unwrap();
        assert!(fused_stats.max_abs_diff(&separate_stats).unwrap() < 1e-4);
    }

    #[test]
    fn norm_relu_conv_matches_unfused_pipeline() {
        // The second geometry (rows 288, cols 1024) takes the convolution's
        // gather lowering, the first the materialized one.
        for (attrs, n, c, hw) in
            [(Conv2dAttrs::same_3x3(4), 4, 3, 6), (Conv2dAttrs::same_3x3(8), 2, 32, 32)]
        {
            let raw = random(Shape::nchw(n, c, hw, hw), 5);
            let w = random(Shape::nchw(attrs.out_channels, c, 3, 3), 6);
            let gamma = (0..c).map(|i| [1.2, 0.8, 1.0][i % 3]).collect();
            let beta = (0..c).map(|i| [0.1, -0.1, 0.0][i % 3]).collect();
            let bn = BnParams::new(gamma, beta).unwrap();
            let eps = 1e-5;

            // Unfused: BN forward -> ReLU -> direct conv.
            let (bn_out, bn_state) = bn_train(&raw, &bn, eps);
            let relu_out = relu(&bn_out);
            let unfused_out = conv2d_forward_direct(&relu_out, &w, None, &attrs).unwrap();

            let stats = bn_statistics(&raw, false).unwrap();
            let mut fused_out = Tensor::zeros(unfused_out.shape().clone());
            let state = norm_relu_conv_forward_into(
                &raw,
                &stats,
                &bn,
                eps,
                &w,
                None,
                &attrs,
                &mut fused_out,
            )
            .unwrap();

            assert!(fused_out.all_close(&unfused_out, 1e-4).unwrap(), "{c} channels");
            assert!(state.x_hat.all_close(&bn_state.x_hat, 1e-4).unwrap());
            assert!(state.conv_input.all_close(&relu_out, 1e-4).unwrap());
        }
    }

    #[test]
    fn norm_relu_conv_backward_matches_unfused_gradients() {
        let attrs = Conv2dAttrs::pointwise(3);
        let raw = random(Shape::nchw(2, 2, 4, 4), 7);
        let w = random(Shape::nchw(3, 2, 1, 1), 8);
        let bn = BnParams::new(vec![1.1, 0.9], vec![0.05, -0.05]).unwrap();
        let eps = 1e-5;
        let stats = bn_statistics(&raw, false).unwrap();
        let mut out = Tensor::zeros(Shape::nchw(2, 3, 4, 4));
        let state = norm_relu_conv_forward_into(&raw, &stats, &bn, eps, &w, None, &attrs, &mut out)
            .unwrap();
        let d_out = random(out.shape().clone(), 9);

        let fused = norm_relu_conv_backward(&d_out, &state, &bn, eps, &w, &attrs, false).unwrap();

        // Unfused reference.
        let (bn_out, bn_state) = bn_train(&raw, &bn, eps);
        let relu_out = relu(&bn_out);
        let mut d_relu_out = Tensor::zeros(relu_out.shape().clone());
        conv2d_backward_input_into(&d_out, &w, &attrs, &mut d_relu_out).unwrap();
        let (d_w_ref, _) = conv2d_backward_weights(&relu_out, &d_out, &attrs, false).unwrap();
        let d_bn_out = relu_backward(&d_relu_out, &relu_out).unwrap();
        let (d_raw_ref, d_bn_ref) =
            crate::batchnorm::bn_backward(&d_bn_out, &bn_state, &bn, eps).unwrap();

        assert!(fused.d_raw.all_close(&d_raw_ref, 1e-4).unwrap());
        assert!(fused.d_weights.all_close(&d_w_ref, 1e-4).unwrap());
        for c in 0..2 {
            assert!((fused.d_bn.d_gamma[c] - d_bn_ref.d_gamma[c]).abs() < 1e-3);
            assert!((fused.d_bn.d_beta[c] - d_bn_ref.d_beta[c]).abs() < 1e-3);
        }
    }

    #[test]
    fn into_variants_match_allocating_paths() {
        // Each fused kernel writes a NaN-filled recycled buffer completely,
        // bit for bit equal to the unfused kernels it composes writing
        // zeroed buffers.
        let attrs = Conv2dAttrs::same_3x3(4);
        let x = random(Shape::nchw(2, 3, 6, 6), 31);
        let w = random(Shape::nchw(4, 3, 3, 3), 32);
        let plain = conv(&x, &w, &attrs);
        let plain_stats = ChannelAccumulator::from_tensor(&plain).unwrap().finalize().unwrap();
        let mut out = Tensor::filled(plain.shape().clone(), f32::NAN);
        let stats = conv2d_forward_with_stats_into(&x, &w, None, &attrs, &mut out).unwrap();
        assert_eq!(out.as_slice(), plain.as_slice());
        assert_eq!(stats.mean, plain_stats.mean);
        assert_eq!(stats.var, plain_stats.var);

        let bn = BnParams::identity(3);
        let in_stats = bn_statistics(&x, false).unwrap();
        let mut nrc = Tensor::filled(plain.shape().clone(), f32::NAN);
        let state =
            norm_relu_conv_forward_into(&x, &in_stats, &bn, 1e-5, &w, None, &attrs, &mut nrc)
                .unwrap();
        let nrc_ref = conv(&state.conv_input, &w, &attrs);
        assert_eq!(nrc.as_slice(), nrc_ref.as_slice());
        assert_eq!(state.conv_input.as_slice(), relu(&state.conv_input).as_slice());

        let cat_ref = concat(&[&x, &plain]);
        let cat_stats_ref = ChannelAccumulator::from_tensor(&cat_ref).unwrap().finalize().unwrap();
        let mut cat = Tensor::filled(cat_ref.shape().clone(), f32::NAN);
        let cat_stats = concat_forward_with_stats_into(&[&x, &plain], &mut cat).unwrap();
        assert_eq!(cat.as_slice(), cat_ref.as_slice());
        assert_eq!(cat_stats.mean, cat_stats_ref.mean);
        assert_eq!(cat_stats.var, cat_stats_ref.var);
    }

    #[test]
    fn concat_with_stats_matches_separate() {
        let a = random(Shape::nchw(2, 2, 4, 4), 10);
        let b = random(Shape::nchw(2, 3, 4, 4), 11);
        let plain = concat(&[&a, &b]);
        let mut out = Tensor::zeros(plain.shape().clone());
        let stats = concat_forward_with_stats_into(&[&a, &b], &mut out).unwrap();
        assert!(out.all_close(&plain, 1e-6).unwrap());
        let reference = bn_statistics(&plain, false).unwrap();
        assert!(stats.max_abs_diff(&reference).unwrap() < 1e-4);
    }

    #[test]
    fn mismatched_channels_rejected() {
        let attrs = Conv2dAttrs::pointwise(2);
        let raw = random(Shape::nchw(1, 3, 4, 4), 12);
        let w = random(Shape::nchw(2, 3, 1, 1), 13);
        let bn = BnParams::identity(4); // wrong channel count
        let stats = bn_statistics(&raw, false).unwrap();
        let mut out = Tensor::zeros(Shape::nchw(1, 2, 4, 4));
        assert!(norm_relu_conv_forward_into(&raw, &stats, &bn, 1e-5, &w, None, &attrs, &mut out)
            .is_err());
    }
}
