//! 2-D convolution kernels: direct and im2col+GEMM forward paths, plus the
//! backward passes with respect to the inputs and the weights.
//!
//! The direct path partitions work over `(sample, out_channel)` output
//! planes, the lowered path inherits the GEMM's row-block partitioning, and
//! the weight gradient reduces per-sample partials with a deterministic
//! tree — so all paths scale across `BNFF_THREADS` cores while producing
//! thread-count-independent results.

use crate::error::KernelError;
use crate::gemm::{gemm, gemm_im2col, gemm_tn, Im2colView};
use crate::im2col::{col2im_accumulate, col_shape, conv_out_dim, im2col_into};
use crate::Result;
use bnff_graph::op::Conv2dAttrs;
use bnff_parallel::{chunk_ranges, min_items_per_thread, parallel_reduce, parallel_rows_mut};
use bnff_tensor::pool::SharedBufferPool;
use bnff_tensor::{Shape, Tensor};

/// Column-matrix scratch recycled across convolutions and training steps,
/// so the im2col lowering of every conv node expands into storage carved
/// out by earlier calls instead of `malloc`.
static COL_POOL: SharedBufferPool = SharedBufferPool::bounded(64 << 20);

/// Validates the weight tensor layout `(Cout, Cin, Kh, Kw)` against the
/// input channels and attributes, returning `(in_c, out_h, out_w)`.
fn check_conv(
    input: &Tensor,
    weights: &Tensor,
    attrs: &Conv2dAttrs,
) -> Result<(usize, usize, usize)> {
    input.shape().expect_nchw()?;
    weights.shape().expect_nchw()?;
    let in_c = input.shape().c();
    let ws = weights.shape();
    if ws.n() != attrs.out_channels
        || ws.c() != in_c
        || ws.h() != attrs.kernel_h
        || ws.w() != attrs.kernel_w
    {
        return Err(KernelError::ShapeMismatch(format!(
            "weights {} do not match attrs (oc {}, ic {}, k {}x{})",
            ws, attrs.out_channels, in_c, attrs.kernel_h, attrs.kernel_w
        )));
    }
    let out_h = conv_out_dim(input.shape().h(), attrs.kernel_h, attrs.stride, attrs.pad)?;
    let out_w = conv_out_dim(input.shape().w(), attrs.kernel_w, attrs.stride, attrs.pad)?;
    Ok((in_c, out_h, out_w))
}

/// Direct (loop-nest) convolution forward pass — the reference the lowered
/// GEMM paths are tested against.
///
/// Weight layout is `(Cout, Cin, Kh, Kw)`; an optional per-output-channel
/// bias of length `Cout` may be provided.
///
/// # Errors
/// Returns an error if the shapes are inconsistent.
pub fn conv2d_forward_direct(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    attrs: &Conv2dAttrs,
) -> Result<Tensor> {
    let (in_c, out_h, out_w) = check_conv(input, weights, attrs)?;
    check_bias(bias, attrs)?;
    let n = input.shape().n();
    let (h, w) = (input.shape().h(), input.shape().w());
    let mut out = Tensor::zeros(Shape::nchw(n, attrs.out_channels, out_h, out_w));
    // One task per `(sample, out_channel)` output plane; every plane is a
    // disjoint contiguous run of the NCHW output buffer.
    let plane_len = out_h * out_w;
    let plane_macs = plane_len * in_c * attrs.kernel_h * attrs.kernel_w;
    let min_planes = min_items_per_thread(plane_macs);
    parallel_rows_mut(out.as_mut_slice(), plane_len, min_planes, |first_plane, block| {
        for (p_local, out_plane) in block.chunks_mut(plane_len).enumerate() {
            let p = first_plane + p_local;
            let ni = p / attrs.out_channels;
            let oc = p % attrs.out_channels;
            let bias_v = bias.map(|b| b[oc]).unwrap_or(0.0);
            for oh in 0..out_h {
                for ow in 0..out_w {
                    let mut acc = bias_v;
                    for ic in 0..in_c {
                        let plane = input.channel_plane(ni, ic);
                        for kh in 0..attrs.kernel_h {
                            let ih = (oh * attrs.stride + kh) as isize - attrs.pad as isize;
                            if ih < 0 || ih as usize >= h {
                                continue;
                            }
                            for kw in 0..attrs.kernel_w {
                                let iw = (ow * attrs.stride + kw) as isize - attrs.pad as isize;
                                if iw < 0 || iw as usize >= w {
                                    continue;
                                }
                                acc += plane[ih as usize * w + iw as usize]
                                    * weights.at(oc, ic, kh, kw);
                            }
                        }
                    }
                    out_plane[oh * out_w + ow] = acc;
                }
            }
        }
    });
    Ok(out)
}

/// Whether a convolution's im2col column matrix is the input sample itself.
fn is_pointwise(attrs: &Conv2dAttrs) -> bool {
    attrs.kernel_h == 1 && attrs.kernel_w == 1 && attrs.stride == 1 && attrs.pad == 0
}

/// The production convolution forward pass, into a caller-provided output
/// tensor: im2col lowering into the cache-blocked packed GEMM. The kernel
/// picks the lowering from the `(C·Kh·Kw) × (Ho·Wo)` column-matrix
/// geometry: deep, wide convolutions (at least 64 rows and 512 columns)
/// gather their windows straight into the GEMM's B-packing, the rest
/// materialize the column matrix in scratch recycled through a shared pool
/// across samples, calls and training steps. Pointwise
/// (`1×1`/stride-1/no-pad) convolutions skip im2col entirely — each input
/// sample already *is* the column matrix. The lowerings are bit-identical,
/// so every caller gets the same result whichever one runs. Every element
/// of `out` is overwritten (the packed GEMM's `beta == 0` path never reads
/// the recycled buffer).
///
/// # Errors
/// Returns an error if the shapes (including `out`'s) are inconsistent.
pub fn conv2d_forward_into(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    attrs: &Conv2dAttrs,
    out: &mut Tensor,
) -> Result<()> {
    conv2d_forward_into_impl(input, weights, bias, attrs, out, false)
}

/// Inference entry point for the frozen graph's fused `CONV+ReLU` operator:
/// [`conv2d_forward_into`] that clamps each output sample to `max(·, 0)`
/// while the written tile is still cache-hot, so the frozen graph pays no
/// separate ReLU sweep.
///
/// # Errors
/// Returns an error if the shapes (including `out`'s) are inconsistent.
pub fn conv2d_forward_relu_into(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    attrs: &Conv2dAttrs,
    out: &mut Tensor,
) -> Result<()> {
    conv2d_forward_into_impl(input, weights, bias, attrs, out, true)
}

/// Whether a convolution should gather its im2col windows straight into the
/// GEMM's B-packing rather than materialize the `rows × cols` =
/// `(C·Kh·Kw) × (Ho·Wo)` column matrix. Gathering saves one full write +
/// read of that matrix, which pays off once it is deep (enough reuse per
/// input element) *and* wide (enough packed strips to amortize the
/// per-strip window-origin setup). Measured on the serving shapes: the big
/// stride-1 feature-map convs win ~1.25×, shallow stems lose.
fn gather_pays_off(rows: usize, cols: usize) -> bool {
    rows >= 64 && cols >= 512
}

fn check_bias(bias: Option<&[f32]>, attrs: &Conv2dAttrs) -> Result<()> {
    if let Some(b) = bias {
        if b.len() != attrs.out_channels {
            return Err(KernelError::ShapeMismatch(format!(
                "bias has {} entries, expected {}",
                b.len(),
                attrs.out_channels
            )));
        }
    }
    Ok(())
}

/// The shared convolution epilogue: per-output-channel bias add and the
/// optional fused ReLU clamp, applied to one sample's output plane run.
/// Both lowerings use this same code so their results stay bit-identical.
fn apply_bias_relu(out_slice: &mut [f32], bias: Option<&[f32]>, cols: usize, fuse_relu: bool) {
    // Runs on the caller's thread, so resolving the ISA here honours any
    // scoped `with_isa` override. Add and clamp are bit-identical across
    // ISAs, so this never perturbs the conv results.
    let isa = bnff_tensor::active_isa();
    if let Some(b) = bias {
        for (oc, &bv) in b.iter().enumerate() {
            crate::vecops::add_scalar(isa, &mut out_slice[oc * cols..(oc + 1) * cols], bv);
        }
    }
    if fuse_relu {
        crate::vecops::relu_inplace(isa, out_slice);
    }
}

/// Validates a forward convolution and runs it under the lowering its
/// column-matrix geometry calls for.
fn conv2d_forward_into_impl(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    attrs: &Conv2dAttrs,
    out: &mut Tensor,
    fuse_relu: bool,
) -> Result<()> {
    let (in_c, out_h, out_w) = check_conv(input, weights, attrs)?;
    check_bias(bias, attrs)?;
    let expected = Shape::nchw(input.shape().n(), attrs.out_channels, out_h, out_w);
    if out.shape() != &expected {
        return Err(KernelError::ShapeMismatch(format!(
            "output tensor is {}, convolution produces {}",
            out.shape(),
            expected
        )));
    }
    let gather = gather_pays_off(in_c * attrs.kernel_h * attrs.kernel_w, out_h * out_w);
    lower_forward(input, weights, bias, attrs, out, fuse_relu, gather)
}

/// Runs a validated forward convolution sample by sample as
/// `out_sample = W (Cout × rows) · col (rows × cols)`, under one of two
/// bit-identical lowerings (same microkernel, bitwise-equal packed panels,
/// same accumulation order, same epilogue):
///
/// * **gather** — window elements are gathered straight from the input
///   sample while the `KC × NR` strips of `col` are packed, so the column
///   matrix is never written or re-read;
/// * **materialized** — im2col expands each sample into one recycled
///   column matrix that the GEMM then packs.
///
/// Pointwise convolutions take neither: the sample is the column matrix.
fn lower_forward(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    attrs: &Conv2dAttrs,
    out: &mut Tensor,
    fuse_relu: bool,
    gather: bool,
) -> Result<()> {
    let s = input.shape();
    let (n, in_c, h, w) = (s.n(), s.c(), s.h(), s.w());
    let (out_h, out_w) = (out.shape().h(), out.shape().w());
    let (rows, cols) = (in_c * attrs.kernel_h * attrs.kernel_w, out_h * out_w);
    let w_mat = weights.as_slice(); // (Cout) x (Cin*Kh*Kw), row-major by construction
    let pointwise = is_pointwise(attrs);
    // One recycled column matrix serves every sample of the materialized
    // lowering; the other paths never touch the shared pool's lock.
    let materialize = !pointwise && !gather;
    let mut col = if materialize { COL_POOL.take_dirty(rows * cols) } else { Vec::new() };
    for ni in 0..n {
        let start = out.shape().offset4(ni, 0, 0, 0);
        let out_slice = &mut out.as_mut_slice()[start..start + attrs.out_channels * cols];
        let in_start = s.offset4(ni, 0, 0, 0);
        let sample = &input.as_slice()[in_start..in_start + in_c * h * w];
        if pointwise {
            gemm(attrs.out_channels, cols, rows, 1.0, w_mat, sample, 0.0, out_slice)?;
        } else if gather {
            let view = Im2colView {
                sample,
                channels: in_c,
                in_h: h,
                in_w: w,
                kernel_h: attrs.kernel_h,
                kernel_w: attrs.kernel_w,
                stride: attrs.stride,
                pad: attrs.pad,
                out_h,
                out_w,
            };
            gemm_im2col(attrs.out_channels, cols, rows, 1.0, w_mat, view, 0.0, out_slice)?;
        } else {
            im2col_into(input, ni, attrs, &mut col)?;
            gemm(attrs.out_channels, cols, rows, 1.0, w_mat, &col, 0.0, out_slice)?;
        }
        apply_bias_relu(out_slice, bias, cols, fuse_relu);
    }
    if materialize {
        COL_POOL.give(col);
    }
    Ok(())
}

/// Gradient of the convolution with respect to its input, accumulated into
/// a caller-provided gradient tensor (whose shape is the convolution's
/// input shape). The gradient is *added* to `d_input`, so callers wanting
/// the plain gradient must pass a zero-filled tensor — e.g. one taken from
/// a [`bnff_tensor::pool::BufferPool`].
///
/// # Errors
/// Returns an error if the shapes are inconsistent.
pub fn conv2d_backward_input_into(
    d_out: &Tensor,
    weights: &Tensor,
    attrs: &Conv2dAttrs,
    d_input: &mut Tensor,
) -> Result<()> {
    let input_shape = d_input.shape().clone();
    input_shape.expect_nchw()?;
    d_out.shape().expect_nchw()?;
    let n = input_shape.n();
    let (rows, cols) = col_shape(&input_shape, attrs)?;
    if d_out.shape().c() != attrs.out_channels {
        return Err(KernelError::ShapeMismatch(format!(
            "d_out channels {} do not match out_channels {}",
            d_out.shape().c(),
            attrs.out_channels
        )));
    }
    let w_mat = weights.as_slice(); // Cout x rows
                                    // One recycled gradient column matrix serves every sample
                                    // (the packed gemm_tn overwrites it without reading it).
    let mut d_col = COL_POOL.take_dirty(rows * cols);
    for ni in 0..n {
        // d_col (rows x cols) = Wᵀ (rows x Cout) · d_out_sample (Cout x cols)
        let start = d_out.shape().offset4(ni, 0, 0, 0);
        let d_out_slice = &d_out.as_slice()[start..start + attrs.out_channels * cols];
        gemm_tn(rows, cols, attrs.out_channels, w_mat, d_out_slice, &mut d_col)?;
        col2im_accumulate(&d_col, d_input, ni, attrs)?;
    }
    COL_POOL.give(d_col);
    Ok(())
}

/// Gradient of the convolution with respect to its weights (and bias when
/// `with_bias` is set).
///
/// Returns `(d_weights, d_bias)`, where `d_bias` is empty when `with_bias`
/// is `false`.
///
/// # Errors
/// Returns an error if the shapes are inconsistent.
pub fn conv2d_backward_weights(
    input: &Tensor,
    d_out: &Tensor,
    attrs: &Conv2dAttrs,
    with_bias: bool,
) -> Result<(Tensor, Vec<f32>)> {
    input.shape().expect_nchw()?;
    d_out.shape().expect_nchw()?;
    let in_c = input.shape().c();
    let n = input.shape().n();
    let (rows, cols) = col_shape(input.shape(), attrs)?;
    let mut d_w =
        Tensor::zeros(Shape::nchw(attrs.out_channels, in_c, attrs.kernel_h, attrs.kernel_w));
    // Samples are grouped into a bounded number of chunks fixed by the
    // problem (never by the thread count): each chunk accumulates its
    // samples serially in batch order into one (d_W, d_bias) partial, and
    // the partials combine with a deterministic tree. Bounding the chunk
    // count caps transient memory at MAX_WGRAD_PARTIALS weight buffers
    // whatever the batch size. The im2col + GEMM inside each partial run
    // serially when this level already fans out, and in parallel when it
    // does not (single chunk).
    const MAX_WGRAD_PARTIALS: usize = 8;
    let sample_macs = attrs.out_channels * rows * cols;
    let min_samples = min_items_per_thread(sample_macs);
    let groups = chunk_ranges(n, n.div_ceil(min_samples).min(MAX_WGRAD_PARTIALS));
    let reduced = parallel_reduce(
        groups.len(),
        1,
        |gi| -> Result<(Vec<f32>, Vec<f32>)> {
            let mut d_w_flat = vec![0.0f32; attrs.out_channels * rows];
            let mut d_bias = vec![0.0f32; if with_bias { attrs.out_channels } else { 0 }];
            let mut sample_buf = vec![0.0f32; attrs.out_channels * rows];
            // The column scratch is recycled from the shared pool and
            // expanded in place per sample (the adjoint of the forward
            // path's reuse).
            let mut col = COL_POOL.take_dirty(rows * cols);
            for ni in groups[gi].clone() {
                im2col_into(input, ni, attrs, &mut col)?;
                let start = d_out.shape().offset4(ni, 0, 0, 0);
                let d_out_slice = &d_out.as_slice()[start..start + attrs.out_channels * cols];
                // d_W (Cout x rows) += d_out_sample (Cout x cols) · colᵀ (cols x rows)
                crate::gemm::gemm_nt(
                    attrs.out_channels,
                    rows,
                    cols,
                    d_out_slice,
                    &col,
                    &mut sample_buf,
                )?;
                for (acc, v) in d_w_flat.iter_mut().zip(sample_buf.iter()) {
                    *acc += *v;
                }
                for (oc, db) in d_bias.iter_mut().enumerate() {
                    *db += d_out_slice[oc * cols..(oc + 1) * cols].iter().sum::<f32>();
                }
            }
            COL_POOL.give(col);
            Ok((d_w_flat, d_bias))
        },
        |a, b| match (a, b) {
            (Ok((mut w1, mut b1)), Ok((w2, b2))) => {
                for (x, y) in w1.iter_mut().zip(&w2) {
                    *x += *y;
                }
                for (x, y) in b1.iter_mut().zip(&b2) {
                    *x += *y;
                }
                Ok((w1, b1))
            }
            (Err(e), _) | (_, Err(e)) => Err(e),
        },
    );
    match reduced {
        Some(partials) => {
            let (d_w_flat, d_bias) = partials?;
            d_w.as_mut_slice().copy_from_slice(&d_w_flat);
            Ok((d_w, d_bias))
        }
        // Empty batch: zero gradients.
        None => Ok((d_w, vec![0.0f32; if with_bias { attrs.out_channels } else { 0 }])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_tensor::init::Initializer;

    fn random(shape: Shape, seed: u64) -> Tensor {
        Initializer::seeded(seed).uniform(shape, -1.0, 1.0)
    }

    /// The lowered convolution into a fresh output of the shape it produces.
    fn lowered(x: &Tensor, w: &Tensor, bias: Option<&[f32]>, attrs: &Conv2dAttrs) -> Tensor {
        let (_, oh, ow) = check_conv(x, w, attrs).unwrap();
        let mut out = Tensor::zeros(Shape::nchw(x.shape().n(), attrs.out_channels, oh, ow));
        conv2d_forward_into(x, w, bias, attrs, &mut out).unwrap();
        out
    }

    #[test]
    fn pointwise_conv_is_channel_mix() {
        // 1x1 conv with identity-like weights just scales channels.
        let x = Tensor::from_vec(
            Shape::nchw(1, 2, 2, 2),
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
        )
        .unwrap();
        let w = Tensor::from_vec(Shape::nchw(1, 2, 1, 1), vec![1.0, 0.5]).unwrap();
        let attrs = Conv2dAttrs::pointwise(1);
        let y = conv2d_forward_direct(&x, &w, None, &attrs).unwrap();
        assert_eq!(y.as_slice(), &[6.0, 12.0, 18.0, 24.0]);
    }

    #[test]
    fn direct_and_im2col_paths_agree() {
        // A strided shallow conv takes the materialized lowering; a 32-channel
        // 3×3 conv over a 32×32 map (rows 288, cols 1024) the gather one.
        for (attrs, in_c, hw) in
            [(Conv2dAttrs::new(5, 3, 2, 1), 4usize, 9usize), (Conv2dAttrs::same_3x3(8), 32, 32)]
        {
            let x = random(Shape::nchw(2, in_c, hw, hw), 1);
            let w = random(Shape::nchw(attrs.out_channels, in_c, 3, 3), 2);
            let (rows, cols) = col_shape(x.shape(), &attrs).unwrap();
            assert_eq!(gather_pays_off(rows, cols), in_c == 32);
            let direct = conv2d_forward_direct(&x, &w, None, &attrs).unwrap();
            let lowered = lowered(&x, &w, None, &attrs);
            assert!(direct.all_close(&lowered, 1e-4).unwrap(), "rows {rows} cols {cols}");
            let mut clamped = Tensor::zeros(direct.shape().clone());
            conv2d_forward_relu_into(&x, &w, None, &attrs, &mut clamped).unwrap();
            let mut direct_relu = direct;
            direct_relu.as_mut_slice().iter_mut().for_each(|v| *v = v.max(0.0));
            assert!(direct_relu.all_close(&clamped, 1e-4).unwrap(), "relu rows {rows} cols {cols}");
        }
    }

    #[test]
    fn conv_strategy_follows_geometry() {
        assert!(gather_pays_off(288, 1024));
        assert!(!gather_pays_off(27, 1024), "shallow stem stays materialized");
        assert!(!gather_pays_off(288, 64), "narrow maps stay materialized");
    }

    #[test]
    fn gather_path_is_bit_identical_to_materialized() {
        // Strided, padded, pointwise and biased variants, with and without
        // the fused ReLU; the two lowerings must match bit for bit.
        for (case, attrs, in_c, hw) in [
            ("same3x3", Conv2dAttrs::same_3x3(6), 4usize, 9usize),
            ("strided", Conv2dAttrs::new(5, 3, 2, 1), 4, 9),
            ("pointwise", Conv2dAttrs::pointwise(7), 3, 8),
            ("biased", Conv2dAttrs::new(6, 5, 2, 2).with_bias(), 2, 11),
        ] {
            let x = random(Shape::nchw(2, in_c, hw, hw), 3);
            let w =
                random(Shape::nchw(attrs.out_channels, in_c, attrs.kernel_h, attrs.kernel_w), 4);
            let bias: Option<Vec<f32>> =
                attrs.bias.then(|| (0..attrs.out_channels).map(|i| i as f32 * 0.3 - 0.5).collect());
            for fuse_relu in [false, true] {
                let (_, oh, ow) = check_conv(&x, &w, &attrs).unwrap();
                let shape = Shape::nchw(2, attrs.out_channels, oh, ow);
                let bits = |gather: bool| {
                    let mut out = Tensor::zeros(shape.clone());
                    lower_forward(&x, &w, bias.as_deref(), &attrs, &mut out, fuse_relu, gather)
                        .unwrap();
                    out.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
                };
                assert_eq!(bits(true), bits(false), "{case} relu={fuse_relu}");
            }
        }
    }

    #[test]
    fn bias_is_added_per_channel() {
        let attrs = Conv2dAttrs::pointwise(2).with_bias();
        let x = Tensor::ones(Shape::nchw(1, 1, 2, 2));
        let w = Tensor::from_vec(Shape::nchw(2, 1, 1, 1), vec![1.0, 2.0]).unwrap();
        let bias = vec![10.0, -5.0];
        let y = conv2d_forward_direct(&x, &w, Some(&bias), &attrs).unwrap();
        assert_eq!(y.channel_plane(0, 0), &[11.0; 4]);
        assert_eq!(y.channel_plane(0, 1), &[-3.0; 4]);
        let y2 = lowered(&x, &w, Some(&bias), &attrs);
        assert!(y.all_close(&y2, 1e-6).unwrap());
    }

    #[test]
    fn weight_shape_mismatch_rejected() {
        let attrs = Conv2dAttrs::same_3x3(4);
        let x = Tensor::zeros(Shape::nchw(1, 3, 8, 8));
        let w = Tensor::zeros(Shape::nchw(4, 3, 5, 5));
        assert!(conv2d_forward_direct(&x, &w, None, &attrs).is_err());
        let w = Tensor::zeros(Shape::nchw(4, 2, 3, 3));
        let mut out = Tensor::zeros(Shape::nchw(1, 4, 8, 8));
        assert!(conv2d_forward_into(&x, &w, None, &attrs, &mut out).is_err());
    }

    /// Numerical gradient check for the convolution backward passes.
    #[test]
    fn gradient_check() {
        let attrs = Conv2dAttrs::new(3, 3, 1, 1);
        let x = random(Shape::nchw(1, 2, 5, 5), 3);
        let w = random(Shape::nchw(3, 2, 3, 3), 4);
        let y = conv2d_forward_direct(&x, &w, None, &attrs).unwrap();
        // Loss = sum(y * g) for a fixed random g, so dL/dy = g.
        let g = random(y.shape().clone(), 5);
        let mut d_x = Tensor::zeros(x.shape().clone());
        conv2d_backward_input_into(&g, &w, &attrs, &mut d_x).unwrap();
        let (d_w, _) = conv2d_backward_weights(&x, &g, &attrs, false).unwrap();

        let loss = |input: &Tensor, weights: &Tensor| -> f64 {
            let out = conv2d_forward_direct(input, weights, None, &attrs).unwrap();
            out.as_slice()
                .iter()
                .zip(g.as_slice())
                .map(|(&a, &b)| f64::from(a) * f64::from(b))
                .sum()
        };

        let eps = 1e-2f32;
        // Check a handful of input coordinates.
        for &idx in &[0usize, 7, 23, 49] {
            let mut xp = x.clone();
            xp.set(idx, x.get(idx).unwrap() + eps).unwrap();
            let mut xm = x.clone();
            xm.set(idx, x.get(idx).unwrap() - eps).unwrap();
            let numeric = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * f64::from(eps));
            let analytic = f64::from(d_x.get(idx).unwrap());
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "d_input[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Check a handful of weight coordinates.
        for &idx in &[0usize, 5, 17, 53] {
            let mut wp = w.clone();
            wp.set(idx, w.get(idx).unwrap() + eps).unwrap();
            let mut wm = w.clone();
            wm.set(idx, w.get(idx).unwrap() - eps).unwrap();
            let numeric = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * f64::from(eps));
            let analytic = f64::from(d_w.get(idx).unwrap());
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "d_weights[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn into_variant_overwrites_recycled_buffers() {
        let attrs = Conv2dAttrs::same_3x3(4);
        let x = random(Shape::nchw(2, 3, 6, 6), 21);
        let w = random(Shape::nchw(4, 3, 3, 3), 22);
        let reference = lowered(&x, &w, None, &attrs);
        // A dirty buffer of the right shape must give bit-identical results.
        let mut out = Tensor::filled(Shape::nchw(2, 4, 6, 6), f32::NAN);
        conv2d_forward_into(&x, &w, None, &attrs, &mut out).unwrap();
        assert_eq!(out.as_slice(), reference.as_slice());
        // A wrong-shaped output tensor is rejected.
        let mut bad = Tensor::zeros(Shape::nchw(2, 4, 5, 5));
        assert!(conv2d_forward_into(&x, &w, None, &attrs, &mut bad).is_err());
    }

    #[test]
    fn bias_gradient_sums_output_gradient() {
        let attrs = Conv2dAttrs::pointwise(2).with_bias();
        let x = random(Shape::nchw(2, 3, 4, 4), 6);
        let d_out = Tensor::ones(Shape::nchw(2, 2, 4, 4));
        let (_, d_bias) = conv2d_backward_weights(&x, &d_out, &attrs, true).unwrap();
        // Each bias sees N*H*W ones.
        assert_eq!(d_bias, vec![32.0, 32.0]);
    }

    #[test]
    fn strided_conv_output_size() {
        let attrs = Conv2dAttrs::new(8, 7, 2, 3);
        let x = random(Shape::nchw(1, 3, 32, 32), 7);
        let w = random(Shape::nchw(8, 3, 7, 7), 8);
        assert_eq!(lowered(&x, &w, None, &attrs).shape(), &Shape::nchw(1, 8, 16, 16));
    }
}
