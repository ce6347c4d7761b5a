//! Tile-level DRAM model of the cache-blocked packed GEMM.
//!
//! The whole-tensor sweep accounting in [`crate::cache`] charges each GEMM
//! operand as if it streamed from DRAM exactly once — which is only true of
//! a kernel whose working set actually fits on chip. This module models the
//! access pattern of the two GEMM engines the `bnff-kernels` crate has
//! shipped, using the packed engine's own blocking parameters
//! ([`bnff_kernels::gemm::MC`], [`bnff_kernels::gemm::KC`] and
//! [`bnff_kernels::gemm::NC`]) and the retired streaming engine's tile edge
//! (`STREAM_TILE`):
//!
//! * **Blocked (packed) engine** — each `KC × NC` slab of `B` is packed once
//!   and reused by every row block, so `B` streams from DRAM once; `A` is
//!   re-packed per column slab (`⌈n/NC⌉` streams); `C` is updated once per
//!   `k`-slab (`⌈k/KC⌉` write passes, `⌈k/KC⌉ − 1` read-backs). The packed
//!   panels are *tile-sized by construction*, so these counts hold however
//!   large the matrices are.
//! * **Legacy streaming engine** — loop tiling without packing: every
//!   `STREAM_TILE`-row block of `C`
//!   re-sweeps `B`, every column tile re-reads `A`, and `C` is updated per
//!   `k` tile. Reuse beyond one tile exists only if the *whole operand*
//!   happens to be cache-resident.
//!
//! Either way, a wholly cache-resident operand is charged its 10%
//! first-touch cost, consistent with [`CacheModel::dram_bytes`]. The
//! per-iteration totals surface in
//! [`IterationReport`](crate::report::IterationReport) so fig7-style
//! reports show what the blocked engine saves over whole-matrix streaming.
//!
//! The packed engine's constants are imported from `bnff-kernels` — never
//! re-derived here — so a microkernel retune (such as the 6×16 SIMD
//! widening) flows into the model automatically; the kernels crate pins the
//! relations this model depends on in its
//! `blocking_constants_hold_their_invariants` test.

use crate::cache::CacheModel;
use bnff_graph::analysis::GemmShape;
use bnff_kernels::gemm::{KC, NC};

/// Tile edge of the legacy row-streaming GEMM (loop tiling, no packing)
/// that preceded the packed engine; the model keeps it to show what
/// blocking saves.
const STREAM_TILE: usize = 48;

/// Bytes of an `r × c` f32 matrix.
fn bytes(r: usize, c: usize) -> f64 {
    (r * c * 4) as f64
}

/// First-touch cost of a cache-resident operand (compulsory misses only),
/// matching the activation residency rule in [`CacheModel::dram_bytes`].
const FIRST_TOUCH: f64 = 0.1;

impl CacheModel {
    /// Charges one operand that the kernel streams `streams` times: a
    /// resident operand pays its first touch once, a non-resident one pays
    /// every stream.
    fn operand_bytes(&self, b: f64, streams: usize) -> f64 {
        if self.is_resident(b as usize) {
            b * FIRST_TOUCH
        } else {
            b * streams as f64
        }
    }

    /// DRAM bytes the cache-blocked packed GEMM engine moves for `g`
    /// (all `count` executions).
    pub fn gemm_dram_bytes_blocked(&self, g: &GemmShape) -> f64 {
        if g.m == 0 || g.n == 0 || g.k == 0 {
            return 0.0;
        }
        let a = self.operand_bytes(bytes(g.m, g.k), g.n.div_ceil(NC));
        let b = self.operand_bytes(bytes(g.k, g.n), 1);
        let c = self.operand_bytes(bytes(g.m, g.n), 2 * g.k.div_ceil(KC) - 1);
        (a + b + c) * g.count as f64
    }

    /// DRAM bytes the legacy row-streaming GEMM engine would move for `g`
    /// (all `count` executions).
    pub fn gemm_dram_bytes_streamed(&self, g: &GemmShape) -> f64 {
        if g.m == 0 || g.n == 0 || g.k == 0 {
            return 0.0;
        }
        let a = self.operand_bytes(bytes(g.m, g.k), g.n.div_ceil(STREAM_TILE));
        let b = self.operand_bytes(bytes(g.k, g.n), g.m.div_ceil(STREAM_TILE));
        let c = self.operand_bytes(bytes(g.m, g.n), 2 * g.k.div_ceil(STREAM_TILE) - 1);
        (a + b + c) * g.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(m: usize, n: usize, k: usize) -> GemmShape {
        GemmShape { m, n, k, count: 1 }
    }

    #[test]
    fn resident_gemms_cost_the_same_either_way() {
        // Small operands fit on chip: both engines pay first touch only.
        let cache = CacheModel::with_threshold(1 << 20);
        let g = shape(64, 64, 64);
        let blocked = cache.gemm_dram_bytes_blocked(&g);
        assert_eq!(blocked, cache.gemm_dram_bytes_streamed(&g));
        // 3 operands × 64·64·4 bytes × 10% first touch.
        assert!((blocked - 3.0 * (64 * 64 * 4) as f64 * 0.1).abs() < 1e-9);
    }

    #[test]
    fn blocking_caps_traffic_when_operands_exceed_the_cache() {
        // A 2048³ f32 GEMM: every operand is 16 MiB, over a 1 MiB threshold.
        let cache = CacheModel::with_threshold(1 << 20);
        let g = shape(2048, 2048, 2048);
        let blocked = cache.gemm_dram_bytes_blocked(&g);
        let streamed = cache.gemm_dram_bytes_streamed(&g);
        assert!(
            blocked < streamed / 5.0,
            "blocked {blocked} should be far below streamed {streamed}"
        );
        // B streams once when blocked, ⌈m/STREAM_TILE⌉ times when streamed.
        let b_bytes = (2048 * 2048 * 4) as f64;
        assert!(blocked > b_bytes, "B alone costs at least one full stream");
        assert!(streamed > b_bytes * (2048.0 / STREAM_TILE as f64));
    }

    #[test]
    fn count_scales_linearly_and_empty_gemms_are_free() {
        let cache = CacheModel::with_threshold(1 << 10);
        let one = cache.gemm_dram_bytes_blocked(&shape(128, 256, 64));
        let many = cache.gemm_dram_bytes_blocked(&GemmShape { m: 128, n: 256, k: 64, count: 8 });
        assert!((many - 8.0 * one).abs() < 1e-6);
        assert_eq!(cache.gemm_dram_bytes_blocked(&shape(0, 4, 4)), 0.0);
        assert_eq!(cache.gemm_dram_bytes_streamed(&shape(4, 4, 0)), 0.0);
    }
}
