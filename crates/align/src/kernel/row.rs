//! One row of the Figure-3 recurrence, vectorised **along the row**.
//!
//! The recurrence as this crate writes it never reads the cell it has
//! just written: the horizontal-gap maximum enters `M[y−1][x−1]`, not
//! `M[y][x−1]`, so row `y` is a function of row `y−1` alone. With
//! `D[x] = M[y−1][x−1]` (the previous row shifted right by one, the
//! row's left seed at `D[0]`):
//!
//! ```text
//! MaxX[x]  = max_{k<x} (D[k] − open − ext·(x−k))      exclusive prefix max
//! M[y][x]  = max(0, max3(D[x], MaxX[x], MaxY[x]) + E[x])
//! MaxY'[x] = max(D[x] − open, MaxY[x]) − ext
//! ```
//!
//! Everything but `MaxX` is element-wise; `MaxX` is a prefix maximum of
//! the *previous* row. Both bodies below compute exactly these values —
//! `max` is associative and every addition is exact (see the value
//! ranges at [`crate::NEG_INF`]) — so they agree with the per-cell loop
//! bit for bit, `MaxY` included.
//!
//! An overridden cell needs no special path: nothing else in its row
//! reads it and the gap state advances from `D` as for any cell, so the
//! callers run the plain step and write the zero afterwards.
//!
//! Two bodies, picked once per process ([`Body::selected`]): a portable
//! two-pass one (per block, a serial prefix max with a single `max` on
//! its chain, then an element-wise loop LLVM vectorises) and an AVX2
//! one (8 × `i32`, in-register log-step scan, broadcast carry). This is *intra*-matrix vectorisation of one
//! matrix's row; `repro-simd` vectorises *across* neighbouring matrices.

use crate::scoring::GapPenalties;
use crate::Score;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Portable,
    #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
    Avx2,
}

/// Which of the two row-step bodies runs. A value naming the AVX2 body
/// exists only after the CPU was probed for it, so [`Body::step`] needs
/// no further check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Body(Kind);

impl Body {
    /// The portable body: always available.
    pub const PORTABLE: Body = Body(Kind::Portable);

    /// The AVX2 body, if this build carries it and the CPU has AVX2.
    pub fn avx2() -> Option<Body> {
        #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Body(Kind::Avx2));
        }
        None
    }

    /// The body every production sweep uses: AVX2 where available, else
    /// portable. Probed once per process.
    pub fn selected() -> Body {
        static SELECTED: std::sync::OnceLock<Body> = std::sync::OnceLock::new();
        *SELECTED.get_or_init(|| Body::avx2().unwrap_or(Body::PORTABLE))
    }

    /// `"portable"` or `"avx2"`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Kind::Portable => "portable",
            #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
            Kind::Avx2 => "avx2",
        }
    }

    /// Compute one matrix row from the previous one.
    ///
    /// * `prev[x] = M[y−1][x]` and `seed = M[y−1][−1]`, the value left of
    ///   the row (0 for a rectangle's virtual zero column; the diagonal
    ///   seed for the triangular sweep). All must be non-negative, as
    ///   every matrix value is.
    /// * `out[x]` receives `M[y][x]`.
    /// * `maxy[x]` holds the column's vertical-gap maximum entering the
    ///   row and is advanced to the one leaving it.
    /// * `e[x]` is the row residue's substitution score against column
    ///   `x` (a [`crate::QueryProfile`] row).
    ///
    /// Returns the row maximum (0 for an empty row).
    ///
    /// # Panics
    /// If the five slices differ in length.
    #[inline]
    pub fn step(
        self,
        prev: &[Score],
        seed: Score,
        out: &mut [Score],
        maxy: &mut [Score],
        e: &[Score],
        gaps: GapPenalties,
    ) -> Score {
        let n = out.len();
        assert!(
            prev.len() == n && maxy.len() == n && e.len() == n,
            "row step over slices of different lengths"
        );
        match self.0 {
            Kind::Portable => step_portable(prev, seed, out, maxy, e, gaps),
            #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
            Kind::Avx2 => {
                // SAFETY: `Kind::Avx2` is only ever constructed by
                // `Body::avx2` after `is_x86_feature_detected!("avx2")`
                // returned true, so the target feature is present; the
                // body's other requirement, five slices of one length,
                // was asserted just above.
                unsafe { avx2::step(prev, seed, out, maxy, e, gaps) }
            }
        }
    }
}

/// Cells `MaxX` is staged for between the two passes: small enough to
/// stay in L1 next to the five row slices, and the bound on the
/// portable body's ramp.
const BLOCK: usize = 128;

/// The portable body.
fn step_portable(
    prev: &[Score],
    seed: Score,
    out: &mut [Score],
    maxy: &mut [Score],
    e: &[Score],
    gaps: GapPenalties,
) -> Score {
    let (open, ext) = (gaps.open, gaps.extend);
    let n = out.len();
    if n == 0 {
        return 0;
    }
    // Cell 0 takes its diagonal from the seed; cell x ≥ 1 from
    // `prev[x − 1]`, so the rest of the row runs over aligned slices.
    let mut best = (seed.max(maxy[0]) + e[0]).max(0);
    out[0] = best;
    maxy[0] = (seed - open).max(maxy[0]) - ext;

    // From here on the horizontal-gap maximum is carried as `run = MaxX
    // + open + ext·k`, `k` counting cells from the block's start:
    // entering a candidate is then one `max` with `D + ext·k`, the only
    // operation on the row's one loop-carried chain. The ramp restarts
    // with every block, so it stays below `ext·BLOCK`. Cell 1's only
    // candidate is the seed, one column away.
    let mut run = seed - ext;
    let mut gapx = [0 as Score; BLOCK];
    let blocks = prev[..n - 1]
        .chunks(BLOCK)
        .zip(out[1..].chunks_mut(BLOCK))
        .zip(maxy[1..].chunks_mut(BLOCK))
        .zip(e[1..].chunks(BLOCK));
    for (((diag, out), maxy), e) in blocks {
        let gapx = &mut gapx[..diag.len()];
        // Pass 1 — serial: the exclusive running maximum of the previous
        // row's gap candidates.
        let mut ramp = 0;
        for (g, &d) in gapx.iter_mut().zip(diag) {
            *g = run;
            run = run.max(d + ramp);
            ramp += ext;
        }
        run -= ramp;
        // Pass 2 — element-wise.
        let mut ramp = open;
        let cells = diag.iter().zip(&*gapx).zip(out).zip(maxy).zip(e);
        for ((((&d, &g), o), my), &e) in cells {
            let v = (d.max(g - ramp).max(*my) + e).max(0);
            *o = v;
            *my = (d - open).max(*my) - ext;
            best = best.max(v);
            ramp += ext;
        }
    }
    best
}

#[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
mod avx2 {
    use super::{GapPenalties, Score};
    use std::arch::x86_64::*;

    /// Per-row constants of the chunk computation.
    struct Consts {
        zero: __m256i,
        open: __m256i,
        ext: __m256i,
        ext8: __m256i,
        /// `ext·(j − 1)`: what lane `j` adds to its gap candidate.
        ramp: __m256i,
        /// `open + ext·j`: what turns `max(carry, scan)` into `MaxX`.
        decay: __m256i,
    }

    /// Eight cells: the diagonals `d = D[x..x+8]`, the gap candidates
    /// one further left `left = D[x−1..x+7]`, and the columns' `MaxY`
    /// and substitution scores; returns the cells and the new `MaxY`,
    /// and advances `carry` to column `x + 8`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn cells8(
        k: &Consts,
        d: __m256i,
        left: __m256i,
        my: __m256i,
        e: __m256i,
        carry: &mut __m256i,
    ) -> (__m256i, __m256i) {
        // Inclusive prefix max of t within each 128-bit half…
        let t = _mm256_add_epi32(left, k.ramp);
        let t = _mm256_max_epi32(t, _mm256_slli_si256::<4>(t));
        let t = _mm256_max_epi32(t, _mm256_slli_si256::<8>(t));
        // …the halves' totals, the low one folded into the high half,
        // and both into the carry.
        let halves = _mm256_shuffle_epi32::<0xFF>(t);
        let scan = _mm256_max_epi32(t, _mm256_permute2x128_si256::<0x08>(halves, halves));
        let total = _mm256_max_epi32(halves, _mm256_permute2x128_si256::<0x01>(halves, halves));
        let gapx = _mm256_sub_epi32(_mm256_max_epi32(scan, *carry), k.decay);
        *carry = _mm256_sub_epi32(_mm256_max_epi32(*carry, total), k.ext8);

        let pred = _mm256_max_epi32(_mm256_max_epi32(d, gapx), my);
        let v = _mm256_max_epi32(_mm256_add_epi32(pred, e), k.zero);
        let cand = _mm256_sub_epi32(d, k.open);
        (v, _mm256_sub_epi32(_mm256_max_epi32(cand, my), k.ext))
    }

    /// Chunk 0's `(d, left)` from `raw = prev[0..8]`: the seed is `D[0]`
    /// and nothing — a phantom zero — lies left of it.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn first_diagonals(raw: __m256i, seed: Score) -> (__m256i, __m256i) {
        let seed = _mm256_set1_epi32(seed);
        let up_one = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
        let up_two = _mm256_setr_epi32(6, 7, 0, 1, 2, 3, 4, 5);
        let d = _mm256_blend_epi32::<0x01>(_mm256_permutevar8x32_epi32(raw, up_one), seed);
        let left = _mm256_blend_epi32::<0x02>(_mm256_permutevar8x32_epi32(raw, up_two), seed);
        (d, _mm256_blend_epi32::<0x01>(left, _mm256_setzero_si256()))
    }

    /// The AVX2 body: eight cells per iteration.
    ///
    /// Lane `j` of the chunk at column `x` needs `MaxX[x+j]`, the best of
    /// `D[k] − open − ext·(x+j−k)` over `k < x+j`. The chunk scans the
    /// eight candidates `k = x−1 ..= x+6` itself — `t[j] = D[x+j−1] +
    /// ext·(j−1)`, a ramp bounded by `7·ext`, never the unbounded `ext·x`
    /// — with a log-step inclusive prefix maximum inside the register;
    /// everything older arrives in `carry`, the running maximum decayed
    /// to column `x`, in every lane: `MaxX[x+j] = max(carry, scan[j]) −
    /// open − ext·j`. The scan does not depend on `carry`, so the only
    /// loop-carried chain is `carry' = max(carry, max t) − 8·ext`.
    ///
    /// The scan works on `D + ramp` (the `−open` is applied after it), so
    /// the zeros its shifts fill in, the zero `carry` starts from and the
    /// zeros a masked load returns are *phantom* candidates worth at most
    /// `−open − ext`: not positive, and such a `MaxX` never changes the
    /// `max3` against `D ≥ 0`. `MaxX` is not part of the state, so the
    /// row and `MaxY` come out exactly as from the per-cell loop.
    ///
    /// The last `n mod 8` cells are one more chunk under a lane mask.
    ///
    /// # Safety
    /// The CPU must support AVX2, and `prev`, `out`, `maxy` and `e` must
    /// all have the same length.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn step(
        prev: &[Score],
        seed: Score,
        out: &mut [Score],
        maxy: &mut [Score],
        e: &[Score],
        gaps: GapPenalties,
    ) -> Score {
        let n = out.len();
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let ext = _mm256_set1_epi32(gaps.extend);
        let open = _mm256_set1_epi32(gaps.open);
        let ramp = _mm256_sub_epi32(_mm256_mullo_epi32(ext, lanes), ext);
        let k = Consts {
            zero: _mm256_setzero_si256(),
            open,
            ext,
            ext8: _mm256_set1_epi32(8 * gaps.extend),
            ramp,
            decay: _mm256_add_epi32(_mm256_add_epi32(ramp, ext), open),
        };
        let mut carry = k.zero;
        let mut best = k.zero;

        let full = n - n % 8;
        for x in (0..full).step_by(8) {
            // SAFETY: `x + 8 ≤ n` and all four slices are `n` long, so
            // `[x, x + 8)` is in bounds of each; for `x ≥ 8`, `[x − 2,
            // x + 7)` lies inside `prev` as well.
            let (d, left) = if x == 0 {
                first_diagonals(_mm256_loadu_si256(prev.as_ptr().cast()), seed)
            } else {
                (
                    _mm256_loadu_si256(prev.as_ptr().add(x - 1).cast()),
                    _mm256_loadu_si256(prev.as_ptr().add(x - 2).cast()),
                )
            };
            let my = _mm256_loadu_si256(maxy.as_ptr().add(x).cast());
            let ev = _mm256_loadu_si256(e.as_ptr().add(x).cast());
            let (v, my) = cells8(&k, d, left, my, ev, &mut carry);
            _mm256_storeu_si256(out.as_mut_ptr().add(x).cast(), v);
            _mm256_storeu_si256(maxy.as_mut_ptr().add(x).cast(), my);
            best = _mm256_max_epi32(best, v);
        }

        if full < n {
            let x = full;
            let live = _mm256_cmpgt_epi32(_mm256_set1_epi32((n - x) as i32), lanes);
            // SAFETY: masked loads and stores touch only the lanes
            // `j < n − x`, i.e. elements `[x, n)` of the slices (and
            // `[x − 2, n − 1)` of `prev` when `x ≥ 8`): all in bounds.
            // The other lanes read as zero and are not written.
            let (d, left) = if x == 0 {
                first_diagonals(_mm256_maskload_epi32(prev.as_ptr(), live), seed)
            } else {
                (
                    _mm256_maskload_epi32(prev.as_ptr().add(x - 1), live),
                    _mm256_maskload_epi32(prev.as_ptr().add(x - 2), live),
                )
            };
            let my = _mm256_maskload_epi32(maxy.as_ptr().add(x), live);
            let ev = _mm256_maskload_epi32(e.as_ptr().add(x), live);
            let (v, my) = cells8(&k, d, left, my, ev, &mut carry);
            _mm256_maskstore_epi32(out.as_mut_ptr().add(x), live, v);
            _mm256_maskstore_epi32(maxy.as_mut_ptr().add(x), live, my);
            best = _mm256_max_epi32(best, _mm256_and_si256(v, live));
        }

        let half = _mm_max_epi32(
            _mm256_castsi256_si128(best),
            _mm256_extracti128_si256::<1>(best),
        );
        let half = _mm_max_epi32(half, _mm_shuffle_epi32::<0b01_00_11_10>(half));
        let half = _mm_max_epi32(half, _mm_shuffle_epi32::<0b10_11_00_01>(half));
        _mm_cvtsi128_si32(half)
    }
}
