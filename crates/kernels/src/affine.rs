//! Inference-time per-channel affine kernels.
//!
//! When a model is frozen for serving, Batch Normalization collapses into
//! `y = scale[c]·x + shift[c]` with coefficients derived from γ/β and the
//! *running* statistics ([`bn_affine_coefficients`]). Wherever the affine
//! sits directly behind a convolution it is folded into the weights and
//! never executed; this kernel covers the residual cases (an affine behind
//! a `Concat` or an element-wise sum), plus the coefficient math the fold
//! itself shares.

use crate::error::KernelError;
use crate::vecops;
use crate::Result;
use bnff_parallel::{min_items_per_thread, parallel_rows_mut};
use bnff_tensor::{active_isa, Tensor};

/// Lowers BN parameters + running statistics into affine coefficients:
/// `scale[c] = γ[c]/√(var[c]+ε)`, `shift[c] = β[c] − scale[c]·mean[c]`.
///
/// # Errors
/// Returns an error when the per-channel vectors disagree in length or the
/// epsilon is not positive.
pub fn bn_affine_coefficients(
    gamma: &[f32],
    beta: &[f32],
    mean: &[f32],
    var: &[f32],
    epsilon: f32,
) -> Result<(Vec<f32>, Vec<f32>)> {
    let c = gamma.len();
    if beta.len() != c || mean.len() != c || var.len() != c {
        return Err(KernelError::ShapeMismatch(format!(
            "affine coefficient inputs disagree: γ {}, β {}, μ {}, σ² {}",
            c,
            beta.len(),
            mean.len(),
            var.len()
        )));
    }
    if epsilon <= 0.0 {
        return Err(KernelError::InvalidArgument("epsilon must be positive".to_string()));
    }
    let mut scale = Vec::with_capacity(c);
    let mut shift = Vec::with_capacity(c);
    for ci in 0..c {
        let s = gamma[ci] / (var[ci] + epsilon).sqrt();
        scale.push(s);
        shift.push(beta[ci] - s * mean[ci]);
    }
    Ok((scale, shift))
}

/// The channel count an affine sees: dim 1 both for `N×C×H×W` feature maps
/// and for `batch × features` matrices.
fn affine_channels(x: &Tensor) -> Result<usize> {
    if x.shape().rank() < 2 {
        return Err(KernelError::ShapeMismatch(format!(
            "channel affine needs a rank ≥ 2 input, got {}",
            x.shape()
        )));
    }
    x.shape().dim(1).map_err(KernelError::from)
}

/// `y = scale[c]·x + shift[c]` into a caller-provided output tensor; every
/// element of `out` is overwritten. Accepts `N×C×H×W` feature maps (affine
/// per channel plane) and 2-D `batch × features` matrices (affine per
/// column).
///
/// # Errors
/// Returns an error if shapes or channel counts disagree.
pub fn channel_affine_into(
    x: &Tensor,
    scale: &[f32],
    shift: &[f32],
    out: &mut Tensor,
) -> Result<()> {
    channel_affine_into_impl(x, scale, shift, out, false)
}

/// `y = max(scale[c]·x + shift[c], 0)`: [`channel_affine_into`] with the
/// ReLU clamp fused into the same write sweep, so a frozen
/// `affine → ReLU` pair costs one pass instead of two. Bit-identical to
/// running the two kernels back to back — `max(·, 0)` of the stored value
/// equals `max(·, 0)` of the just-computed value.
///
/// # Errors
/// Returns an error if shapes or channel counts disagree.
pub fn channel_affine_relu_into(
    x: &Tensor,
    scale: &[f32],
    shift: &[f32],
    out: &mut Tensor,
) -> Result<()> {
    channel_affine_into_impl(x, scale, shift, out, true)
}

/// In-place [`channel_affine_into`]: `x = scale[c]·x + shift[c]`
/// overwriting the input buffer. Each element is read once and written
/// once, so the result is bit-identical to the out-of-place kernel; a tape
/// executor uses this when the planner proved the input buffer dead and
/// recycled it for the output.
///
/// # Errors
/// Returns an error if channel counts disagree.
pub fn channel_affine_in_place(x: &mut Tensor, scale: &[f32], shift: &[f32]) -> Result<()> {
    channel_affine_in_place_impl(x, scale, shift, false)
}

/// In-place [`channel_affine_relu_into`]: `x = max(scale[c]·x + shift[c],
/// 0)` overwriting the input buffer (see [`channel_affine_in_place`]).
///
/// # Errors
/// Returns an error if channel counts disagree.
pub fn channel_affine_relu_in_place(x: &mut Tensor, scale: &[f32], shift: &[f32]) -> Result<()> {
    channel_affine_in_place_impl(x, scale, shift, true)
}

fn channel_affine_in_place_impl(
    x: &mut Tensor,
    scale: &[f32],
    shift: &[f32],
    fuse_relu: bool,
) -> Result<()> {
    let c = affine_channels(x)?;
    if scale.len() != c || shift.len() != c {
        return Err(KernelError::ShapeMismatch(format!(
            "input has {c} channels but coefficients have {} / {}",
            scale.len(),
            shift.len()
        )));
    }
    let plane_len = x.shape().volume() / (x.shape().dim(0).unwrap_or(1).max(1) * c.max(1));
    let plane_len = plane_len.max(1);
    // Resolved here because pool workers don't inherit the caller's
    // `with_isa` override. Workers split on whole planes, so the FMA
    // contraction inside a plane never moves with the thread count.
    let isa = active_isa();
    parallel_rows_mut(
        x.as_mut_slice(),
        plane_len,
        min_items_per_thread(plane_len.saturating_mul(2)),
        |first_plane, block| {
            for (p_local, plane) in block.chunks_mut(plane_len).enumerate() {
                let p = first_plane + p_local;
                let ci = p % c;
                vecops::affine_inplace(isa, plane, scale[ci], shift[ci], fuse_relu);
            }
        },
    );
    Ok(())
}

fn channel_affine_into_impl(
    x: &Tensor,
    scale: &[f32],
    shift: &[f32],
    out: &mut Tensor,
    fuse_relu: bool,
) -> Result<()> {
    let c = affine_channels(x)?;
    if scale.len() != c || shift.len() != c {
        return Err(KernelError::ShapeMismatch(format!(
            "input has {c} channels but coefficients have {} / {}",
            scale.len(),
            shift.len()
        )));
    }
    x.shape().expect_same(out.shape())?;
    // Plane length: H·W for feature maps, 1 for matrices — either way the
    // channel index of plane `p` is `p % c`.
    let plane_len = x.shape().volume() / (x.shape().dim(0).unwrap_or(1).max(1) * c.max(1));
    let plane_len = plane_len.max(1);
    let src = x.as_slice();
    let isa = active_isa();
    parallel_rows_mut(
        out.as_mut_slice(),
        plane_len,
        min_items_per_thread(plane_len.saturating_mul(2)),
        |first_plane, block| {
            for (p_local, plane) in block.chunks_mut(plane_len).enumerate() {
                let p = first_plane + p_local;
                let ci = p % c;
                let src_plane = &src[p * plane_len..(p + 1) * plane_len];
                vecops::affine(isa, src_plane, plane, scale[ci], shift[ci], fuse_relu);
            }
        },
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batchnorm::{bn_normalize_into, BnParams};
    use bnff_tensor::init::Initializer;
    use bnff_tensor::stats::ChannelStats;
    use bnff_tensor::Shape;

    fn affine(x: &Tensor, scale: &[f32], shift: &[f32]) -> Result<Tensor> {
        let mut out = Tensor::zeros(x.shape().clone());
        channel_affine_into(x, scale, shift, &mut out)?;
        Ok(out)
    }

    #[test]
    fn affine_applies_per_channel() {
        let x = Tensor::ones(Shape::nchw(2, 2, 2, 2));
        let y = affine(&x, &[2.0, -1.0], &[0.5, 0.25]).unwrap();
        for ni in 0..2 {
            assert!(y.channel_plane(ni, 0).iter().all(|&v| v == 2.5));
            assert!(y.channel_plane(ni, 1).iter().all(|&v| v == -0.75));
        }
    }

    #[test]
    fn affine_handles_matrices() {
        let x = Tensor::from_vec(Shape::matrix(2, 3), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let y = affine(&x, &[1.0, 10.0, 100.0], &[0.0, 0.0, 1.0]).unwrap();
        assert_eq!(y.as_slice(), &[1.0, 20.0, 301.0, 4.0, 50.0, 601.0]);
    }

    #[test]
    fn coefficients_reproduce_bn_within_tolerance() {
        let mut init = Initializer::seeded(3);
        let x = init.uniform(Shape::nchw(3, 4, 5, 5), -2.0, 2.0);
        let params = BnParams::new(vec![1.2, 0.7, -0.4, 2.0], vec![0.1, -0.2, 0.3, 0.0]).unwrap();
        let stats = ChannelStats {
            mean: vec![0.1, -0.3, 0.25, 0.0],
            var: vec![1.1, 0.4, 2.0, 0.9],
            count: 0,
        };
        let eps = 1e-5;
        let mut reference = Tensor::zeros(x.shape().clone());
        bn_normalize_into(&x, &stats, &params, eps, &mut reference).unwrap();
        let (scale, shift) =
            bn_affine_coefficients(&params.gamma, &params.beta, &stats.mean, &stats.var, eps)
                .unwrap();
        let affine = affine(&x, &scale, &shift).unwrap();
        assert!(affine.all_close(&reference, 1e-5).unwrap());
    }

    #[test]
    fn fused_relu_matches_two_kernels_and_in_place_matches_fused() {
        let mut init = Initializer::seeded(5);
        let x = init.uniform(Shape::nchw(2, 3, 4, 4), -2.0, 2.0);
        let scale = [1.5, -0.5, 0.25];
        let shift = [0.1, -0.3, 0.0];
        let affine = affine(&x, &scale, &shift).unwrap();
        let mut fused = Tensor::zeros(x.shape().clone());
        channel_affine_relu_into(&x, &scale, &shift, &mut fused).unwrap();
        for (f, a) in fused.as_slice().iter().zip(affine.as_slice()) {
            assert_eq!(f.to_bits(), a.max(0.0).to_bits());
        }
        let mut in_place = x.clone();
        channel_affine_relu_in_place(&mut in_place, &scale, &shift).unwrap();
        for (i, f) in in_place.as_slice().iter().zip(fused.as_slice()) {
            assert_eq!(i.to_bits(), f.to_bits());
        }
        let mut plain = x.clone();
        channel_affine_in_place(&mut plain, &scale, &shift).unwrap();
        for (p, a) in plain.as_slice().iter().zip(affine.as_slice()) {
            assert_eq!(p.to_bits(), a.to_bits());
        }
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let x = Tensor::ones(Shape::nchw(1, 2, 2, 2));
        assert!(affine(&x, &[1.0], &[0.0, 0.0]).is_err());
        assert!(affine(&x, &[1.0, 1.0], &[0.0]).is_err());
        let v = Tensor::from_slice(&[1.0, 2.0]);
        assert!(affine(&v, &[1.0, 1.0], &[0.0, 0.0]).is_err());
        assert!(bn_affine_coefficients(&[1.0], &[0.0], &[0.0], &[1.0], 0.0).is_err());
        assert!(bn_affine_coefficients(&[1.0, 2.0], &[0.0], &[0.0], &[1.0], 1e-5).is_err());
    }
}
