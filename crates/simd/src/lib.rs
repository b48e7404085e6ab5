//! # repro-simd — coarse-grained SIMD alignment (paper §4.1)
//!
//! The paper's counterintuitive SIMD technique: instead of vectorising
//! *within* one alignment matrix (hard, because of the loop-carried
//! `MaxX` dependency), compute **4, 8 or 16 neighbouring split
//! matrices at once**, one per SIMD lane. Neighbouring splits share
//! shape, and — crucially — all lanes align the *same residue pair*
//! `(S[p], S[q])` at each step, so a single substitution score feeds
//! every lane (Figure 6), and matrix entries interleave in memory
//! exactly as in Figure 7.
//!
//! * [`lanes`] — saturating `i16` lane vectors at widths 4/8/16 plus
//!   wide wrapping `i32` vectors (the element of packs past the `i16`
//!   bound).
//!   Portable array forms at every width; explicit SSE2 (`__m128i`) and
//!   AVX2 (`__m256i`) kernels on x86-64. Lane width 4 models SSE, 8
//!   models SSE2 — the paper's two columns of Table 2 — and 16 extends
//!   the same scheme to AVX2.
//! * [`dispatch`] — runtime CPU probing (once, via
//!   `is_x86_feature_detected!`) and the typed selection logic that
//!   routes a sweep to the widest safe kernel, with graceful errors for
//!   impossible requests (e.g. SSE2 at 16 lanes).
//! * [`group`] — the interleaved multi-matrix kernel with the left/bottom
//!   border corrections and lane-uniform override masking; two sweep
//!   bodies, the historical per-cell lookup and the query-profile form
//!   (one contiguous load per cell, profile built once per sequence).
//! * [`engine`] — group-granular top-alignment search: [`GroupSweeper`]
//!   is the [`repro_core::PackKernel`] that sweeps the lane packs of the
//!   one unit, [`repro_core::PackUnit`], which the one inline driver
//!   ([`repro_core::TopAlignmentFinder`]) schedules through its
//!   best-first queue, the highest-scoring member sets the group's
//!   priority, and results are bit-identical to the sequential engine
//!   (speculation wastes a little work, never changes answers). One
//!   entry point,
//!   [`find_top_alignments_simd`]`(seq, scoring, &search, sel, rec)`:
//!   the shared [`repro_core::Search`] says *what*, the [`SimdSel`] from
//!   [`select`] says which kernel, and the plain
//!   [`repro_core::TopAlignments`] comes back with every tally already
//!   folded into `rec`.
//!
//! Scores are the paper's 16-bit "shorts" wherever they are provably
//! exact: each pack's width is decided once, before it is swept, from a
//! static score bound ([`group::pack_fits_i16`], DESIGN.md "Group
//! recurrence bound"). A pack past the bound runs on wide `i32` lanes —
//! still vectorised, bit-identical to the scalar reference. Nothing is
//! detected or re-swept at run time.

#![warn(missing_docs)]

pub mod dispatch;
pub mod engine;
pub mod group;
pub mod lanes;
#[cfg(test)]
pub(crate) mod test_support;

pub use dispatch::{auto_path, select, DispatchError, DispatchPath, SimdSel};
pub use engine::{find_top_alignments_simd, GroupSweeper};
pub use group::{
    align_group, align_group_profile, align_group_striped, group_stripe, pack_fits_i16,
    GroupCapture, GroupResult, GroupResume, LaneResume, DEFAULT_GROUP_STRIPE,
};
pub use lanes::{I16x16, I16x4, I16x8, SimdVec};

/// Lane-width selection: the paper's Table 2 columns (4 = SSE, 8 = SSE2)
/// extended with the AVX2 width (16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneWidth {
    /// 4 × i16 — the SSE (Pentium III) configuration.
    X4,
    /// 8 × i16 — the SSE2 (Pentium 4) configuration.
    X8,
    /// 16 × i16 — the AVX2 configuration.
    X16,
}

impl LaneWidth {
    /// Number of lanes.
    pub fn lanes(self) -> usize {
        match self {
            LaneWidth::X4 => 4,
            LaneWidth::X8 => 8,
            LaneWidth::X16 => 16,
        }
    }

    /// Parse a lane count back into a width.
    pub fn from_lanes(n: usize) -> Option<Self> {
        match n {
            4 => Some(LaneWidth::X4),
            8 => Some(LaneWidth::X8),
            16 => Some(LaneWidth::X16),
            _ => None,
        }
    }
}

impl std::fmt::Display for LaneWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.lanes())
    }
}
