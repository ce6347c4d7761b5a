//! Cache-blocked, panel-packed general matrix multiply.
//!
//! The im2col convolution path and the fully-connected layer are lowered to
//! this GEMM, mirroring how MKL-DNN / CUTLASS execute them in the paper's
//! reference implementations. The paper's whole argument is about keeping
//! mini-batch operands in on-chip memory, so the GEMM — the hottest loop in
//! the workspace — uses the classic three-level blocking of
//! GotoBLAS/BLIS instead of streaming whole matrices:
//!
//! * The `k` dimension is split into [`KC`]-deep slabs and the `n` dimension
//!   into [`NC`]-wide slabs; each `KC × NC` slab of `B` is **packed** once
//!   into contiguous `KC × NR` strips that stay cache-resident while every
//!   row block of the output reuses them.
//! * The `m` dimension is split into [`MC`]-row blocks; each `MC × KC` block
//!   of `A` is packed into `KC × MR` panels by the worker that owns those
//!   output rows.
//! * An [`MR`]`×`[`NR`] register microkernel multiplies one packed `A` panel
//!   against one packed `B` strip, accumulating the full `k`-slab in
//!   registers before touching `C`.
//!
//! All three entry points ([`gemm`], [`gemm_nt`], [`gemm_tn`]) drive the same
//! packed path; the transpose variants differ only in how the packing
//! routines gather elements. Packing buffers are recycled through a shared
//! [`bnff_tensor::pool::SharedBufferPool`], so steady-state training steps
//! pack into storage carved out by earlier calls instead of `malloc`.
//!
//! ## SIMD dispatch
//!
//! The register microkernel comes in two flavours selected per GEMM call by
//! [`bnff_tensor::simd::active_isa`] (scoped [`bnff_tensor::simd::with_isa`]
//! override → `BNFF_SIMD` env → CPU detection): the portable scalar loop,
//! and an AVX2+FMA kernel that keeps the full `MR × NR` tile in twelve
//! `__m256` accumulators and issues *aligned* 256-bit loads from the packed
//! `B` strips — which is why the packing buffers live in 32-byte-aligned
//! [`bnff_tensor::simd::AlignedBuf`] storage. The ISA is resolved once on
//! the calling thread and passed by value into the pool workers.
//!
//! ## Determinism
//!
//! Work is partitioned across the `bnff-parallel` pool at *problem-granular*
//! block boundaries: worker splits are aligned to the [`MC`] grid
//! ([`bnff_parallel::parallel_row_blocks_mut`]), every `C` element is owned
//! by exactly one worker, and the accumulation order per element (`KC` slabs
//! outer, registers inner) depends only on the problem shape. Results are
//! therefore bit-identical for any `BNFF_THREADS` *within each dispatch
//! path*, which `crates/kernels/tests/parallel_determinism.rs` locks in.
//! Across paths the last bits may differ (FMA contracts `a·b + c` into one
//! rounding); `crates/kernels/tests/simd_equivalence.rs` bounds the gap.

use crate::error::KernelError;
use crate::Result;
use bnff_parallel::{min_items_per_thread, parallel_row_blocks_mut, parallel_rows_mut};
use bnff_tensor::pool::SharedBufferPool;
use bnff_tensor::simd::{active_isa, SimdIsa};

/// Microkernel tile height: rows of `C` accumulated in registers at once.
pub const MR: usize = 6;

/// Microkernel tile width: columns of `C` accumulated in registers at once.
/// `MR × NR = 6 × 16` fills the AVX2 register file: twelve `__m256`
/// accumulators plus two `B` vectors and one `A` broadcast use 15 of the 16
/// architectural ymm registers (the BLIS sgemm shape for Haswell-class
/// cores).
pub const NR: usize = 16;

/// Rows of `A` packed per block: an `MC × KC` packed panel (96 KiB of f32,
/// `MC` divisible by `MR`) sized for a per-core L2.
pub const MC: usize = 96;

/// Depth of the packed slabs: one `KC × NR` strip of packed `B` (16 KiB)
/// stays L1-resident across a whole column of microkernel calls.
pub const KC: usize = 256;

/// Columns of `B` packed per slab: a `KC × NC` packed slab (1 MiB) stays
/// LLC-resident while every row block of the output sweeps it.
pub const NC: usize = 1024;

/// Packing scratch recycled across GEMM calls (and training steps). The
/// bound comfortably covers one `KC × NC` packed `B` slab plus one packed
/// `A` panel per worker at any realistic core count, while capping what an
/// oversized one-off multiply can leave behind.
static PACK_POOL: SharedBufferPool = SharedBufferPool::bounded(32 << 20);

/// `(hits, takes)` of the shared packing-buffer pool — how often a GEMM
/// found its panels already allocated by an earlier call.
pub fn pack_pool_reuse() -> (usize, usize) {
    PACK_POOL.hits_and_takes()
}

/// How the elements of an operand are laid out relative to the logical
/// matrix the multiply consumes.
#[derive(Debug, Clone, Copy)]
enum Operand<'a> {
    /// The logical matrix itself, row-major.
    Normal(&'a [f32]),
    /// The transpose of the logical matrix, row-major (so logical `(i, j)`
    /// lives at `data[j * rows + i]`).
    Transposed(&'a [f32]),
    /// A convolution's im2col column matrix, described by its geometry and
    /// gathered from the input sample during packing (B side only).
    Im2col(Im2colView<'a>),
}

/// A *virtual* `B` operand for the convolution GEMM: the im2col column
/// matrix of one sample, described by its geometry instead of being
/// materialized. [`gemm_im2col`] packs window elements straight from the
/// sample's `C × H × W` plane into the `KC × NR` strips the microkernel
/// consumes. The packed strips are bit-identical to packing a materialized
/// column matrix (same values, same zero padding), so the product is
/// bit-identical to the two-step `im2col → gemm` lowering — while skipping
/// one full write plus one full read of the `(C·Kh·Kw) × (Ho·Wo)` matrix.
#[derive(Debug, Clone, Copy)]
pub struct Im2colView<'a> {
    /// One sample's `C × H × W` values, contiguous.
    pub sample: &'a [f32],
    /// Input channels `C`.
    pub channels: usize,
    /// Input height `H`.
    pub in_h: usize,
    /// Input width `W`.
    pub in_w: usize,
    /// Filter height `Kh`.
    pub kernel_h: usize,
    /// Filter width `Kw`.
    pub kernel_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
    /// Output height `Ho`.
    pub out_h: usize,
    /// Output width `Wo`.
    pub out_w: usize,
}

/// Packs the `mc × kc` block of logical `A` starting at `(row0, pc)` into
/// `kc × MR` panels: panel `ir` holds rows `row0 + ir*MR ..` with the `k`
/// index outermost, so the microkernel reads `MR` consecutive values per
/// step. Rows beyond `mc` are zero-padded (adding `0.0 × b` is exact, so
/// padded lanes never change the result).
fn pack_a(a: Operand<'_>, m: usize, row0: usize, mc: usize, pc: usize, kc: usize, out: &mut [f32]) {
    let panels = mc.div_ceil(MR);
    for ir in 0..panels {
        let panel = &mut out[ir * kc * MR..(ir + 1) * kc * MR];
        match a {
            // Row-major A: gather MR rows in lockstep, k innermost per row.
            Operand::Normal(data) => {
                let cols = data.len() / m;
                for i in 0..MR {
                    let row = row0 + ir * MR + i;
                    if row < row0 + mc {
                        let src = &data[row * cols + pc..row * cols + pc + kc];
                        for (kk, &v) in src.iter().enumerate() {
                            panel[kk * MR + i] = v;
                        }
                    } else {
                        for slot in panel.iter_mut().skip(i).step_by(MR) {
                            *slot = 0.0;
                        }
                    }
                }
            }
            // Transposed storage: logical column `kk` is a contiguous row of
            // the buffer, which is exactly one packed step.
            Operand::Transposed(data) => {
                let t_cols = m;
                for kk in 0..kc {
                    let src_row = &data[(pc + kk) * t_cols..(pc + kk + 1) * t_cols];
                    let step = &mut panel[kk * MR..(kk + 1) * MR];
                    for (i, slot) in step.iter_mut().enumerate() {
                        let row = row0 + ir * MR + i;
                        *slot = if row < row0 + mc { src_row[row] } else { 0.0 };
                    }
                }
            }
            Operand::Im2col(_) => {
                unreachable!("im2col operands only appear on the B side of a multiply")
            }
        }
    }
}

/// Packs the `kc × nc` slab of logical `B` starting at `(pc, jc)` into
/// `kc × NR` strips (strip `jr` holds columns `jc + jr*NR ..`, `k`
/// outermost). Columns beyond `nc` are zero-padded.
#[allow(clippy::too_many_arguments)]
fn pack_b_strip(
    b: Operand<'_>,
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    jr: usize,
    strip: &mut [f32],
) {
    let col0 = jc + jr * NR;
    let nr_eff = NR.min(jc + nc - col0);
    match b {
        Operand::Normal(data) => {
            debug_assert_eq!(data.len(), k * n);
            for kk in 0..kc {
                let src = &data[(pc + kk) * n + col0..(pc + kk) * n + col0 + nr_eff];
                let step = &mut strip[kk * NR..(kk + 1) * NR];
                step[..nr_eff].copy_from_slice(src);
                step[nr_eff..].fill(0.0);
            }
        }
        Operand::Transposed(data) => {
            // Stored n × k: logical column j is the buffer's row j.
            for kk in 0..kc {
                let step = &mut strip[kk * NR..(kk + 1) * NR];
                for (j, slot) in step.iter_mut().enumerate() {
                    *slot = if j < nr_eff { data[(col0 + j) * k + pc + kk] } else { 0.0 };
                }
            }
        }
        Operand::Im2col(v) => {
            // Logical element (kk, j) of the column matrix is input value
            // `(ci, oh·s + kh − pad, ow·s + kw − pad)` with zeros outside
            // the image — exactly what `im2col_into` would have written. The
            // per-column window origins are fixed across the strip, so they
            // are resolved once (one div/mod per column, not per element).
            let mut ih_base = [0isize; NR];
            let mut iw_base = [0isize; NR];
            for j in 0..nr_eff {
                let col = col0 + j;
                ih_base[j] = ((col / v.out_w) * v.stride) as isize - v.pad as isize;
                iw_base[j] = ((col % v.out_w) * v.stride) as isize - v.pad as isize;
            }
            let plane_len = v.in_h * v.in_w;
            for kk in 0..kc {
                let row = pc + kk;
                let kw_off = (row % v.kernel_w) as isize;
                let kh_off = ((row / v.kernel_w) % v.kernel_h) as isize;
                let ci = row / (v.kernel_w * v.kernel_h);
                let plane = &v.sample[ci * plane_len..(ci + 1) * plane_len];
                let step = &mut strip[kk * NR..(kk + 1) * NR];
                for (j, slot) in step.iter_mut().enumerate() {
                    *slot = if j < nr_eff {
                        let ih = ih_base[j] + kh_off;
                        let iw = iw_base[j] + kw_off;
                        if ih >= 0 && iw >= 0 && (ih as usize) < v.in_h && (iw as usize) < v.in_w {
                            plane[ih as usize * v.in_w + iw as usize]
                        } else {
                            0.0
                        }
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

/// The `MR × NR` tile of partial sums a microkernel call produces.
type AccTile = [[f32; NR]; MR];

/// The portable register microkernel: multiplies one `kc × MR` packed `A`
/// panel against one `kc × NR` packed `B` strip into the `MR × NR` tile of
/// partial sums. The accumulation order (ascending `kk`) is fixed by the
/// packing, never by the caller's thread count — and per `C` element it is
/// independent of the `MR`/`NR` tile shape, so widening the microkernel
/// left this path bit-identical to the historical 4×8 kernel.
#[inline]
fn microkernel_scalar(a_panel: &[f32], b_strip: &[f32], acc: &mut AccTile) {
    // A full 6×16 accumulator tile (96 f32) spills out of the baseline
    // SSE register file, so the portable kernel sweeps the packed panels
    // once per 3×8 *sub-tile* (24 f32 — register-resident under
    // auto-vectorization). Each `C` element still accumulates its products
    // in ascending `kk` order, so the split changes neither results nor
    // the bit-identity-across-threads contract; the repeated panel reads
    // stay in L1.
    const MR_S: usize = 3;
    const NR_S: usize = 8;
    for i0 in (0..MR).step_by(MR_S) {
        for j0 in (0..NR).step_by(NR_S) {
            let mut sub = [[0.0f32; NR_S]; MR_S];
            for (a_frag, b_frag) in a_panel.chunks_exact(MR).zip(b_strip.chunks_exact(NR)) {
                let b: &[f32; NR_S] = b_frag[j0..j0 + NR_S].try_into().expect("NR_S divides NR");
                for (i, row) in sub.iter_mut().enumerate() {
                    let av = a_frag[i0 + i];
                    for (slot, bv) in row.iter_mut().zip(b.iter()) {
                        *slot += av * *bv;
                    }
                }
            }
            for (i, row) in sub.iter().enumerate() {
                acc[i0 + i][j0..j0 + NR_S].copy_from_slice(row);
            }
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2 {
    use super::{AccTile, MR, NR};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// The AVX2+FMA microkernel: the whole `6 × 16` tile lives in twelve
    /// `__m256` accumulators; each `kk` step broadcasts six `A` scalars,
    /// issues two aligned 256-bit loads from the packed `B` strip and
    /// twelve FMAs. FMA contracts `a·b + acc` into one rounding, so this
    /// path is *not* bit-identical to the scalar kernel — equivalence is
    /// bounded by `tests/simd_equivalence.rs` instead.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub fn microkernel(a_panel: &[f32], b_strip: &[f32], acc: &mut AccTile) {
        debug_assert_eq!(a_panel.len() % MR, 0);
        debug_assert_eq!(b_strip.len() % NR, 0);
        debug_assert_eq!(a_panel.len() / MR, b_strip.len() / NR);
        // The aligned-load contract: packed B strips come from `AlignedBuf`
        // storage at 64-byte strides, so every `_mm256_load_ps` below is
        // 32-byte aligned.
        debug_assert_eq!(
            b_strip.as_ptr() as usize % 32,
            0,
            "packed B strip must be 32-byte aligned for aligned vector loads"
        );
        let kc = b_strip.len() / NR;
        let mut acc_v = [[_mm256_setzero_ps(); 2]; MR];
        let mut a = a_panel.as_ptr();
        let mut b = b_strip.as_ptr();
        for _ in 0..kc {
            // SAFETY: `kc` iterations advance `a` by `kc·MR` and `b` by
            // `kc·NR` elements, exactly the panel/strip lengths asserted
            // above; the strip's base alignment plus the 64-byte stride
            // keep both loads 32-byte aligned.
            unsafe {
                let b0 = _mm256_load_ps(b);
                let b1 = _mm256_load_ps(b.add(8));
                for (i, accs) in acc_v.iter_mut().enumerate() {
                    let ai = _mm256_set1_ps(*a.add(i));
                    accs[0] = _mm256_fmadd_ps(ai, b0, accs[0]);
                    accs[1] = _mm256_fmadd_ps(ai, b1, accs[1]);
                }
                a = a.add(MR);
                b = b.add(NR);
            }
        }
        for (row, v) in acc.iter_mut().zip(acc_v.iter()) {
            // SAFETY: each accumulator row holds NR = 16 f32 values.
            unsafe {
                _mm256_storeu_ps(row.as_mut_ptr(), v[0]);
                _mm256_storeu_ps(row.as_mut_ptr().add(8), v[1]);
            }
        }
    }
}

/// Dispatches one microkernel call to the resolved ISA.
#[inline]
fn microkernel(isa: SimdIsa, a_panel: &[f32], b_strip: &[f32], acc: &mut AccTile) {
    match isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        SimdIsa::Avx2Fma => {
            // SAFETY: `SimdIsa::Avx2Fma` is only ever produced after
            // `is_x86_feature_detected!` confirmed avx2+fma at runtime.
            unsafe { avx2::microkernel(a_panel, b_strip, acc) }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        SimdIsa::Avx2Fma => microkernel_scalar(a_panel, b_strip, acc),
        SimdIsa::Scalar => microkernel_scalar(a_panel, b_strip, acc),
    }
}

/// The packed GEMM driver: `c = alpha * A·B + beta * c` over logical
/// `m × k` and `k × n` operands in whatever storage [`Operand`] describes.
/// BLAS semantics for `beta == 0.0`: `c` is overwritten without being read
/// (so recycled buffers full of garbage — or NaNs — are fine).
#[allow(clippy::too_many_arguments)]
fn gemm_packed(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: Operand<'_>,
    b: Operand<'_>,
    beta: f32,
    c: &mut [f32],
) {
    if m == 0 || n == 0 {
        return;
    }
    // Resolve the dispatch path once, on the calling thread (thread-local
    // `with_isa` overrides do not propagate into pool workers), and carry
    // the value into every closure below.
    let isa = active_isa();
    if k == 0 || alpha == 0.0 {
        // No product term: the call degenerates to the beta scaling.
        if beta == 0.0 {
            c.fill(0.0);
        } else if beta != 1.0 {
            parallel_rows_mut(c, n, min_items_per_thread(n), |_, block| {
                for v in block.iter_mut() {
                    *v *= beta;
                }
            });
        }
        return;
    }
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let strips = nc.div_ceil(NR);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            // Pack the B slab once per (jc, pc); strips are disjoint rows of
            // the packed buffer, so the fan-out is pure data movement. The
            // dirty take skips the pool's zero fill — packing overwrites
            // every lane (padding included). Aligned storage: a strip is
            // `kc·NR` f32 = 64·kc bytes, so every strip start inherits the
            // buffer's 32-byte alignment and the AVX2 microkernel can use
            // aligned loads.
            let mut packed_b = PACK_POOL.take_aligned_dirty(strips * kc * NR);
            let strip_len = kc * NR;
            parallel_rows_mut(
                packed_b.as_mut_slice(),
                strip_len,
                min_items_per_thread(strip_len),
                |first_strip, block| {
                    for (s_local, strip) in block.chunks_mut(strip_len).enumerate() {
                        pack_b_strip(b, k, n, pc, kc, jc, nc, first_strip + s_local, strip);
                    }
                },
            );
            // One worker per run of whole MC row blocks; each packs its own
            // A panels and owns its C rows outright.
            let min_rows = min_items_per_thread(2 * kc * nc);
            // The first k-slab *stores* `alpha·A·B + beta·c` (never reading
            // `c` when beta == 0, so recycled garbage is fine); later slabs
            // accumulate. This keeps C at 2·⌈k/KC⌉ − 1 passes — exactly
            // what the memsim blocked model charges.
            let first_slab = pc == 0;
            parallel_row_blocks_mut(c, n, MC, min_rows, |first_row, c_rows| {
                let rows = c_rows.len() / n;
                let mut packed_a = PACK_POOL.take_aligned_dirty(MC.div_ceil(MR) * MR * kc);
                let mut acc = [[0.0f32; NR]; MR];
                let mut r0 = 0;
                while r0 < rows {
                    let mc = MC.min(rows - r0);
                    pack_a(a, m, first_row + r0, mc, pc, kc, packed_a.as_mut_slice());
                    for jr in 0..strips {
                        let b_strip = &packed_b[jr * strip_len..(jr + 1) * strip_len];
                        let col0 = jc + jr * NR;
                        let nr_eff = NR.min(jc + nc - col0);
                        for ir in 0..mc.div_ceil(MR) {
                            let a_panel = &packed_a[ir * kc * MR..(ir + 1) * kc * MR];
                            microkernel(isa, a_panel, b_strip, &mut acc);
                            let mr_eff = MR.min(mc - ir * MR);
                            for (i, acc_row) in acc.iter().enumerate().take(mr_eff) {
                                let row = r0 + ir * MR + i;
                                let dst = &mut c_rows[row * n + col0..row * n + col0 + nr_eff];
                                let tile = dst.iter_mut().zip(acc_row.iter());
                                if !first_slab {
                                    for (cv, av) in tile {
                                        *cv += alpha * *av;
                                    }
                                } else if beta == 0.0 {
                                    for (cv, av) in tile {
                                        *cv = alpha * *av;
                                    }
                                } else if beta == 1.0 {
                                    for (cv, av) in tile {
                                        *cv += alpha * *av;
                                    }
                                } else {
                                    for (cv, av) in tile {
                                        *cv = beta * *cv + alpha * *av;
                                    }
                                }
                            }
                        }
                    }
                    r0 += mc;
                }
                PACK_POOL.give_aligned(packed_a);
            });
            PACK_POOL.give_aligned(packed_b);
        }
    }
}

fn check_len(len: usize, rows: usize, cols: usize, name: &str) -> Result<()> {
    if len != rows * cols {
        return Err(KernelError::ShapeMismatch(format!(
            "{name} has {len} elements, expected {rows}x{cols}"
        )));
    }
    Ok(())
}

/// `c = alpha * a·b + beta * c` where `a` is `m×k`, `b` is `k×n` and `c` is
/// `m×n`, all row-major. `beta == 0.0` overwrites `c` without reading it.
///
/// # Errors
/// Returns [`KernelError::ShapeMismatch`] when the slice lengths do not
/// match the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) -> Result<()> {
    check_len(a.len(), m, k, "a")?;
    check_len(b.len(), k, n, "b")?;
    check_len(c.len(), m, n, "c")?;
    gemm_packed(m, n, k, alpha, Operand::Normal(a), Operand::Normal(b), beta, c);
    Ok(())
}

/// `c = a·bᵀ` where `a` is `m×k` and `b` is `n×k` (`c` is overwritten).
///
/// # Errors
/// Returns [`KernelError::ShapeMismatch`] when slice lengths do not match.
pub fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) -> Result<()> {
    check_len(a.len(), m, k, "a")?;
    check_len(b.len(), n, k, "b")?;
    check_len(c.len(), m, n, "c")?;
    gemm_packed(m, n, k, 1.0, Operand::Normal(a), Operand::Transposed(b), 0.0, c);
    Ok(())
}

/// `c = aᵀ·b` where `a` is `k×m` and `b` is `k×n` (`c` is overwritten).
///
/// # Errors
/// Returns [`KernelError::ShapeMismatch`] when slice lengths do not match.
pub fn gemm_tn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) -> Result<()> {
    check_len(a.len(), k, m, "a")?;
    check_len(b.len(), k, n, "b")?;
    check_len(c.len(), m, n, "c")?;
    gemm_packed(m, n, k, 1.0, Operand::Transposed(a), Operand::Normal(b), 0.0, c);
    Ok(())
}

/// `c = alpha * a·B + beta * c` where `a` is `m×k` row-major and `B` is the
/// `k×n` im2col column matrix described by an [`Im2colView`] — gathered
/// during packing, never materialized. Bit-identical to materializing the
/// column matrix and calling [`gemm`]: the microkernel consumes bitwise
/// equal packed panels in the same accumulation order.
///
/// # Errors
/// Returns [`KernelError::ShapeMismatch`] when the slice lengths or the
/// view's geometry do not match the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_im2col(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: Im2colView<'_>,
    beta: f32,
    c: &mut [f32],
) -> Result<()> {
    check_len(a.len(), m, k, "a")?;
    check_len(c.len(), m, n, "c")?;
    check_len(b.sample.len(), b.channels, b.in_h * b.in_w, "im2col sample")?;
    if k != b.channels * b.kernel_h * b.kernel_w || n != b.out_h * b.out_w {
        return Err(KernelError::ShapeMismatch(format!(
            "im2col view ({}·{}·{} rows, {}·{} cols) does not describe a {k}x{n} matrix",
            b.channels, b.kernel_h, b.kernel_w, b.out_h, b.out_w
        )));
    }
    gemm_packed(m, n, k, alpha, Operand::Normal(a), Operand::Im2col(b), beta, c);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        c
    }

    /// The exported blocking constants are a public contract: `bnff-memsim`
    /// imports `KC`/`NC` to model the engine's DRAM traffic,
    /// and the packed core assumes the relations below. Locking them here
    /// means a future retune cannot silently break either consumer.
    #[test]
    fn blocking_constants_hold_their_invariants() {
        // The AVX2 microkernel loads B in aligned 8-lane vectors and the MC
        // grid splits on whole microtile rows.
        assert_eq!(NR % 8, 0, "NR must be a whole number of 8-float lanes");
        assert_eq!(MC % MR, 0, "the MC row grid must split on MR microtiles");
        // Slabs nest: a KC×NR strip inside a KC×NC slab.
        assert_eq!(NC % NR, 0, "packed B slabs must hold whole NR strips");
        // Every packed B strip starts 32-byte aligned within an aligned
        // buffer: kc·NR f32 is a whole number of 32-byte lanes for any kc.
        assert_eq!((NR * std::mem::size_of::<f32>()) % 32, 0);
    }

    #[test]
    fn matches_naive_small() {
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let b = vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]; // 3x2
        let mut c = vec![0.0; 4];
        gemm(2, 2, 3, 1.0, &a, &b, 0.0, &mut c).unwrap();
        assert_eq!(c, naive(2, 2, 3, &a, &b));
        assert_eq!(c, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matches_naive_across_blocking_edges() {
        // Sizes straddling MR/NR, MC, KC and (via columns) several strips.
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (MR - 1, NR - 1, 3),
            (MR + 1, NR + 1, KC + 7),
            (MC + 5, 2 * NR + 3, 50),
            (70, 65, 50),
        ] {
            let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 13) as f32 - 6.0) * 0.25).collect();
            let b: Vec<f32> = (0..k * n).map(|i| ((i * 29 % 11) as f32 - 5.0) * 0.5).collect();
            let mut c = vec![0.0; m * n];
            gemm(m, n, k, 1.0, &a, &b, 0.0, &mut c).unwrap();
            let reference = naive(m, n, k, &a, &b);
            for (x, y) in c.iter().zip(reference.iter()) {
                assert!((x - y).abs() < 1e-2, "{m}x{n}x{k}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn alpha_beta_scaling() {
        let a = vec![1.0, 0.0, 0.0, 1.0]; // identity 2x2
        let b = vec![2.0, 3.0, 4.0, 5.0];
        let mut c = vec![1.0, 1.0, 1.0, 1.0];
        gemm(2, 2, 2, 2.0, &a, &b, 0.5, &mut c).unwrap();
        assert_eq!(c, vec![4.5, 6.5, 8.5, 10.5]);
    }

    #[test]
    fn beta_zero_overwrites_garbage() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![2.0, 3.0, 4.0, 5.0];
        let mut c = vec![f32::NAN; 4];
        gemm(2, 2, 2, 1.0, &a, &b, 0.0, &mut c).unwrap();
        assert_eq!(c, b);
    }

    #[test]
    fn k_zero_only_scales() {
        let mut c = vec![2.0, 4.0];
        gemm(1, 2, 0, 1.0, &[], &[], 0.5, &mut c).unwrap();
        assert_eq!(c, vec![1.0, 2.0]);
        gemm_nt(1, 2, 0, &[], &[], &mut c).unwrap();
        assert_eq!(c, vec![0.0, 0.0]);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = vec![0.0; 5];
        let b = vec![0.0; 6];
        let mut c = vec![0.0; 4];
        assert!(gemm(2, 2, 3, 1.0, &a, &b, 0.0, &mut c).is_err());
    }

    #[test]
    fn transposed_variants() {
        // a: 2x3, b: 3x2; compute a·b via gemm_nt with b transposed (2x3).
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let bt = vec![7.0, 9.0, 11.0, 8.0, 10.0, 12.0]; // (3x2)^T = 2x3
        let mut c = vec![0.0; 4];
        gemm_nt(2, 2, 3, &a, &bt, &mut c).unwrap();
        assert_eq!(c, vec![58.0, 64.0, 139.0, 154.0]);

        // aᵀ·b where a is 3x2 (so aᵀ is 2x3).
        let a_t_input = vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]; // 3x2 storing aᵀ
        let b = vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]; // 3x2
        let mut c2 = vec![0.0; 4];
        gemm_tn(2, 2, 3, &a_t_input, &b, &mut c2).unwrap();
        assert_eq!(c2, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transposed_variants_cross_blocking_edges() {
        let (m, n, k) = (MC + 3, NR * 3 + 2, KC + 5);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 13) as f32 - 6.0) * 0.25).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 29 % 11) as f32 - 5.0) * 0.5).collect();
        let reference = naive(m, n, k, &a, &b);

        // b stored transposed (n × k).
        let mut bt = vec![0.0; n * k];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        let mut c = vec![0.0; m * n];
        gemm_nt(m, n, k, &a, &bt, &mut c).unwrap();
        for (x, y) in c.iter().zip(reference.iter()) {
            assert!((x - y).abs() < 1e-2, "nt: {x} vs {y}");
        }

        // a stored transposed (k × m).
        let mut at = vec![0.0; k * m];
        for i in 0..m {
            for kk in 0..k {
                at[kk * m + i] = a[i * k + kk];
            }
        }
        let mut c2 = vec![0.0; m * n];
        gemm_tn(m, n, k, &at, &b, &mut c2).unwrap();
        for (x, y) in c2.iter().zip(reference.iter()) {
            assert!((x - y).abs() < 1e-2, "tn: {x} vs {y}");
        }
    }

    #[test]
    fn gemm_im2col_is_bit_identical_to_materialized() {
        // Geometries straddling KC/NC edges and exercising stride + padding.
        for &(channels, in_h, in_w, kernel, stride, pad, m) in &[
            (3usize, 8usize, 8usize, 3usize, 1usize, 1usize, 5usize),
            (32, 10, 10, 3, 2, 1, MC + 2),
            (40, 9, 7, 3, 1, 0, 4),
            (2, 33, 33, 5, 2, 2, 7),
        ] {
            let out_h = (in_h + 2 * pad - kernel) / stride + 1;
            let out_w = (in_w + 2 * pad - kernel) / stride + 1;
            let k = channels * kernel * kernel;
            let n = out_h * out_w;
            let sample: Vec<f32> =
                (0..channels * in_h * in_w).map(|i| ((i * 31 % 23) as f32 - 11.0) * 0.37).collect();
            let a: Vec<f32> = (0..m * k).map(|i| ((i * 29 % 17) as f32 - 8.0) * 0.21).collect();
            // Materialize the column matrix the view describes.
            let mut col = vec![0.0f32; k * n];
            for row in 0..k {
                let kw = row % kernel;
                let kh = (row / kernel) % kernel;
                let ci = row / (kernel * kernel);
                for j in 0..n {
                    let ih = ((j / out_w) * stride + kh) as isize - pad as isize;
                    let iw = ((j % out_w) * stride + kw) as isize - pad as isize;
                    if ih >= 0 && iw >= 0 && (ih as usize) < in_h && (iw as usize) < in_w {
                        col[row * n + j] =
                            sample[ci * in_h * in_w + ih as usize * in_w + iw as usize];
                    }
                }
            }
            let mut expected = vec![0.0f32; m * n];
            gemm(m, n, k, 1.0, &a, &col, 0.0, &mut expected).unwrap();
            let view = Im2colView {
                sample: &sample,
                channels,
                in_h,
                in_w,
                kernel_h: kernel,
                kernel_w: kernel,
                stride,
                pad,
                out_h,
                out_w,
            };
            let mut fused = vec![f32::NAN; m * n];
            gemm_im2col(m, n, k, 1.0, &a, view, 0.0, &mut fused).unwrap();
            let fused_bits: Vec<u32> = fused.iter().map(|v| v.to_bits()).collect();
            let expected_bits: Vec<u32> = expected.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fused_bits, expected_bits, "c{channels} {in_h}x{in_w} k{kernel}");
        }
    }

    #[test]
    fn gemm_im2col_rejects_inconsistent_views() {
        let sample = vec![0.0f32; 3 * 4 * 4];
        let view = Im2colView {
            sample: &sample,
            channels: 3,
            in_h: 4,
            in_w: 4,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            pad: 1,
            out_h: 4,
            out_w: 4,
        };
        let a = vec![0.0f32; 2 * 27];
        let mut c = vec![0.0f32; 2 * 16];
        assert!(gemm_im2col(2, 16, 27, 1.0, &a, view, 0.0, &mut c).is_ok());
        // k disagrees with the view's row count.
        assert!(gemm_im2col(2, 16, 26, 1.0, &a[..52], view, 0.0, &mut c).is_err());
        // Sample shorter than C·H·W.
        let short = Im2colView { sample: &sample[..47], ..view };
        assert!(gemm_im2col(2, 16, 27, 1.0, &a, short, 0.0, &mut c).is_err());
    }

    #[test]
    fn pack_pool_is_reused_across_calls() {
        let a = vec![1.0f32; 16 * 16];
        let b = vec![1.0f32; 16 * 16];
        let mut c = vec![0.0f32; 16 * 16];
        gemm(16, 16, 16, 1.0, &a, &b, 0.0, &mut c).unwrap();
        let (_, takes_before) = pack_pool_reuse();
        gemm(16, 16, 16, 1.0, &a, &b, 0.0, &mut c).unwrap();
        let (hits_after, takes_after) = pack_pool_reuse();
        assert!(takes_after > takes_before);
        assert!(hits_after > 0, "second identical GEMM must reuse pack buffers");
    }
}
