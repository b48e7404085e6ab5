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
//! Three bodies. Two in `i32`, picked once per process ([`Body::selected`]):
//! a portable two-pass one (per block, a serial prefix max with a single
//! `max` on its chain, then an element-wise loop LLVM vectorises) and an
//! AVX2 one (8 × `i32`, in-register log-step scan, broadcast carry). The
//! third, [`NarrowBody`], is the AVX2 one over 16 × `i16`, which the row
//! loop picks per sweep where a bound proves it exact. This is
//! *intra*-matrix vectorisation of one matrix's row; `repro-simd`
//! vectorises *across* neighbouring matrices.

use crate::scoring::GapPenalties;
use crate::Score;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Portable,
    #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
    Avx2,
}

/// Which of the two `i32` row-step bodies runs. A value naming the AVX2 body
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

    /// The 16 × `i16` body next to this one, bound to `gaps`: present
    /// exactly for the AVX2 body and a `gaps` that passes
    /// [`GapPenalties::fit_i16`].
    pub fn narrow(self, gaps: GapPenalties) -> Option<NarrowBody> {
        match self.0 {
            _ if !gaps.fit_i16() => None,
            Kind::Portable => None,
            // SAFETY: a `Kind::Avx2` body exists only after the AVX2 probe.
            #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
            Kind::Avx2 => Some(NarrowBody(NarrowKind::Avx2(unsafe {
                avx2::consts16(gaps)
            }))),
        }
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

#[derive(Debug, Clone, Copy)]
enum NarrowKind {
    #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
    Avx2(avx2::Consts16),
}

/// The 16 × `i16` AVX2 body bound to one gap model ([`Body::narrow`]):
/// the AVX2 body's recurrence at twice the cells per vector, exact on a
/// matrix [`Self::exact_for`] admits.
#[derive(Debug, Clone, Copy)]
pub struct NarrowBody(NarrowKind);

impl NarrowBody {
    /// Is this body exact on a matrix of `min(rows, cols) = pairs` under
    /// exchange scores up to `peak` and `gaps`? A cell is at most `peak⁺ ·
    /// pairs`, the scan adds up to `15·ext` (DESIGN.md, "Row-vectorised
    /// recurrence"). The lane kernels decide each pack's width with this
    /// same predicate at the pack's widest lane (`repro_simd::pack_fits_i16`,
    /// DESIGN.md "Group recurrence bound").
    pub fn exact_for(peak: Score, pairs: usize, gaps: GapPenalties) -> bool {
        let top = i128::from(peak.max(0)) * pairs as i128 + 15 * i128::from(gaps.extend);
        gaps.fit_i16() && top < i128::from(i16::MAX)
    }

    /// [`Body::step`] in `i16` with seed 0 and `i16::MIN` for
    /// [`crate::NEG_INF`], on a matrix [`Self::exact_for`] admits.
    ///
    /// # Panics
    /// If the four slices differ in length.
    #[inline]
    pub fn step(&self, prev: &[i16], out: &mut [i16], maxy: &mut [i16], e: &[i16]) -> i16 {
        let n = out.len();
        assert!(
            prev.len() == n && maxy.len() == n && e.len() == n,
            "row step over slices of different lengths"
        );
        match self.0 {
            // SAFETY: `Body::narrow` makes this value only on the AVX2
            // body, for a gap model that fits; the lengths were asserted.
            #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
            NarrowKind::Avx2(ref k) => unsafe { avx2::step16(k, prev, out, maxy, e) },
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
    use crate::NEG_INF;
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

    /// The 16-lane [`Consts`] of one gap model.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct Consts16 {
        gaps: GapPenalties,
        open: __m256i,
        ext: __m256i,
        ext16: __m256i,
        ramp: __m256i,
        decay: __m256i,
    }

    /// `gaps` must pass [`GapPenalties::fit_i16`].
    #[target_feature(enable = "avx2")]
    pub(super) fn consts16(gaps: GapPenalties) -> Consts16 {
        let ext = _mm256_set1_epi16(gaps.extend as i16);
        let open = _mm256_set1_epi16(gaps.open as i16);
        let lanes = _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let ramp = _mm256_sub_epi16(_mm256_mullo_epi16(ext, lanes), ext);
        let decay = _mm256_add_epi16(_mm256_add_epi16(ramp, ext), open);
        let ext16 = _mm256_slli_epi16::<4>(ext);
        Consts16 {
            gaps,
            open,
            ext,
            ext16,
            ramp,
            decay,
        }
    }

    /// [`cells8`] over sixteen `i16` cells: three in-half steps of the
    /// scan and one cross-half step, the gap maxima subtracted saturating.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn cells16(k: &Consts16, chunk: [__m256i; 4], carry: &mut __m256i) -> [__m256i; 2] {
        let [d, left, my, e] = chunk;
        let t = _mm256_add_epi16(left, k.ramp);
        let t = _mm256_max_epi16(t, _mm256_slli_si256::<2>(t));
        let t = _mm256_max_epi16(t, _mm256_slli_si256::<4>(t));
        let t = _mm256_max_epi16(t, _mm256_slli_si256::<8>(t));
        // Each half's last element, broadcast through that half.
        let halves = _mm256_shuffle_epi8(t, _mm256_set1_epi16(0x0F0E));
        let scan = _mm256_max_epi16(t, _mm256_permute2x128_si256::<0x08>(halves, halves));
        let total = _mm256_max_epi16(halves, _mm256_permute2x128_si256::<0x01>(halves, halves));
        let gapx = _mm256_subs_epi16(_mm256_max_epi16(scan, *carry), k.decay);
        *carry = _mm256_subs_epi16(_mm256_max_epi16(*carry, total), k.ext16);

        let pred = _mm256_max_epi16(_mm256_max_epi16(d, gapx), my);
        let v = _mm256_max_epi16(_mm256_adds_epi16(pred, e), _mm256_setzero_si256());
        let cand = _mm256_subs_epi16(d, k.open);
        [v, _mm256_subs_epi16(_mm256_max_epi16(cand, my), k.ext)]
    }

    /// `s[at..at + 16]`; the caller guarantees `at + 16 ≤ s.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load(s: &[i16], at: usize) -> __m256i {
        _mm256_loadu_si256(s.as_ptr().add(at).cast())
    }

    /// The 16 × `i16` body: [`step`] with the seed 0; chunk 0's diagonals
    /// are `prev[0..16]` shifted up one and two elements, zeros filling in.
    /// The last `n mod 16` cells are the chunk of the last 16 columns: its
    /// first lanes repeat columns, which the held last full chunk's stores
    /// overwrite, and its lifted carry holds candidates only they must not
    /// see. A row under 18 cells runs cell by cell.
    ///
    /// # Safety
    /// The CPU must support AVX2, and `prev`, `out`, `maxy` and `e` must
    /// all have the same length.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn step16(
        k: &Consts16,
        prev: &[i16],
        out: &mut [i16],
        maxy: &mut [i16],
        e: &[i16],
    ) -> i16 {
        let n = out.len();
        if n < 18 {
            // Figure 3's loop cell by cell, in `i32` (the gap maxima can
            // fall below `i16` there, the cells and `MaxY` cannot).
            let (open, ext) = (k.gaps.open, k.gaps.extend);
            let (mut diag, mut maxx, mut best) = (0, NEG_INF, 0);
            for x in 0..n {
                let my = Score::from(maxy[x]);
                let v = (diag.max(maxx).max(my) + Score::from(e[x])).max(0);
                let cand = diag - open;
                maxx = cand.max(maxx) - ext;
                maxy[x] = (cand.max(my) - ext) as i16;
                (diag, out[x], best) = (Score::from(prev[x]), v as i16, best.max(v));
            }
            return best as i16;
        }
        let (mut carry, mut best) = (_mm256_setzero_si256(), _mm256_setzero_si256());
        let full = n - n % 16;
        let mut held = None;
        // SAFETY (every load and store below): each chunk `x` has `x + 16
        // ≤ n`, and `x ≥ 2` where it reads `prev` from `x − 2`.
        for x in (0..full).step_by(16) {
            let (d, left) = if x == 0 {
                let raw = load(prev, 0);
                let low_up = _mm256_permute2x128_si256::<0x08>(raw, raw);
                let d = _mm256_alignr_epi8::<14>(raw, low_up);
                (d, _mm256_alignr_epi8::<12>(raw, low_up))
            } else {
                (load(prev, x - 1), load(prev, x - 2))
            };
            let [v, my] = cells16(k, [d, left, load(maxy, x), load(e, x)], &mut carry);
            best = _mm256_max_epi16(best, v);
            if full < n && x + 16 == full {
                held = Some((x, v, my));
            } else {
                _mm256_storeu_si256(out.as_mut_ptr().add(x).cast(), v);
                _mm256_storeu_si256(maxy.as_mut_ptr().add(x).cast(), my);
            }
        }
        if let Some((held_x, held_v, held_my)) = held {
            let (x, repeat) = (n - 16, (16 - n % 16) as i16);
            let lift = _mm256_mullo_epi16(_mm256_set1_epi16(repeat), k.ext);
            let mut carry = _mm256_adds_epi16(carry, lift);
            let (d, left) = (load(prev, x - 1), load(prev, x - 2));
            let [v, my] = cells16(k, [d, left, load(maxy, x), load(e, x)], &mut carry);
            for (x, v, my) in [(x, v, my), (held_x, held_v, held_my)] {
                _mm256_storeu_si256(out.as_mut_ptr().add(x).cast(), v);
                _mm256_storeu_si256(maxy.as_mut_ptr().add(x).cast(), my);
            }
            let lanes = _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
            let new = _mm256_cmpgt_epi16(lanes, _mm256_set1_epi16(repeat - 1));
            best = _mm256_max_epi16(best, _mm256_and_si256(v, new));
        }
        // The row maximum is non-negative: `MAX − best` is `minpos`'s minimum.
        let flipped = _mm256_sub_epi16(_mm256_set1_epi16(i16::MAX), best);
        let half = _mm256_extracti128_si256::<1>(flipped);
        let half = _mm_min_epu16(_mm256_castsi256_si128(flipped), half);
        i16::MAX - _mm_extract_epi16::<0>(_mm_minpos_epu16(half)) as i16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_body_needs_avx2_and_a_fitting_gap_model() {
        assert!(Body::PORTABLE.narrow(GapPenalties::new(2, 1)).is_none());
        if let Some(avx2) = Body::avx2() {
            assert!(avx2.narrow(GapPenalties::new(32767 - 16, 1)).is_some());
            assert!(avx2.narrow(GapPenalties::new(32767 - 15, 1)).is_none());
            assert!(avx2.narrow(GapPenalties::new(0, 2048)).is_none());
        }
        let gaps = GapPenalties::new(2, 1);
        assert!(NarrowBody::exact_for(1213, 27, gaps));
        assert!(!NarrowBody::exact_for(1213, 28, gaps));
        assert!(NarrowBody::exact_for(-5, usize::MAX, gaps));
        assert!(!NarrowBody::exact_for(1, 1, GapPenalties::new(32767, 1)));
    }

    /// One row through the `i16` body and through the `i32` AVX2 body,
    /// from arbitrary states a bound admits: every row length through
    /// four chunks and past, so the cell-by-cell rows (under 18 cells),
    /// chunk 0 and the overlapping last chunk all run, under gap
    /// models up to the [`GapPenalties::fit_i16`] edge. Cells, `MaxY`
    /// (`i16::MIN` read as `NEG_INF`) and the row maximum must agree.
    #[test]
    #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
    fn narrow_body_matches_the_avx2_body_at_every_length() {
        use crate::NEG_INF;
        fn rng(seed: &mut u64) -> u64 {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            *seed
        }
        let Some(wide) = Body::avx2() else { return };
        let mut seed = 0x51ed_2701_9e37_79b9u64;
        let models = [(2, 1), (0, 1), (11, 3), (32767 - 32, 2), (5, 2047)];
        for (open, ext) in models {
            let gaps = GapPenalties::new(open, ext);
            let narrow = wide.narrow(gaps).expect("the gap model fits");
            let top = (i32::from(i16::MAX) - 15 * ext - 64) as u64;
            for n in (0..=70).chain([127, 128, 129, 200, 257]) {
                for _ in 0..4 {
                    let mut draw = |lo: Score, span: u64| lo + (rng(&mut seed) % span) as Score;
                    let prev: Vec<Score> = (0..n)
                        .map(|_| match draw(0, 3) {
                            0 => 0,
                            _ => draw(0, top),
                        })
                        .collect();
                    let maxy: Vec<Score> = (0..n)
                        .map(|_| match draw(0, 3) {
                            0 => NEG_INF,
                            _ => draw(-open - ext, top + (open + ext) as u64),
                        })
                        .collect();
                    let e: Vec<Score> = (0..n).map(|_| draw(-40, 81)).collect();

                    let (mut out, mut my) = (vec![0; n], maxy.clone());
                    let best = wide.step(&prev, 0, &mut out, &mut my, &e, gaps);
                    let narrowed = |v: &[Score]| -> Vec<i16> {
                        v.iter().map(|&x| x.max(i16::MIN.into()) as i16).collect()
                    };
                    let (mut out16, mut my16) = (vec![0i16; n], narrowed(&maxy));
                    let best16 =
                        narrow.step(&narrowed(&prev), &mut out16, &mut my16, &narrowed(&e));
                    let widened = |v: &[i16]| -> Vec<Score> {
                        v.iter()
                            .map(|&x| if x == i16::MIN { NEG_INF } else { x.into() })
                            .collect()
                    };
                    assert_eq!(widened(&out16), out, "cells, n = {n}, gaps {gaps:?}");
                    assert_eq!(widened(&my16), my, "MaxY, n = {n}, gaps {gaps:?}");
                    assert_eq!(Score::from(best16), best, "row max, n = {n}, gaps {gaps:?}");
                }
            }
        }
    }
}
