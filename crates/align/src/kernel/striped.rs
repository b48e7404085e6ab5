//! Cache-aware vertical striping (paper §4.1).
//!
//! Instead of sweeping each row across the full matrix width, the matrix
//! is processed in vertical stripes narrow enough that the stripe's slice
//! of the previous-row and `MaxY` arrays stays resident in L1 while every
//! row passes over it. The only state that crosses a stripe boundary per
//! row is the running horizontal-gap maximum `MaxX` and the last cell
//! value (the next stripe's diagonal input) — two words per row.
//!
//! The result is bit-identical to [`crate::kernel::gotoh::sw_last_row`];
//! only the traversal order changes.

use crate::kernel::{max3, LastRow};
use crate::mask::CellMask;
use crate::scoring::Scoring;
use crate::{Score, NEG_INF};

/// L1 budget for a stripe's hot state: the two streamed row arrays
/// (previous-row `M` and `MaxY`) are kept to half of a typical 32 KiB
/// L1 data cache, leaving the other half for the exchange/profile row,
/// the sequence slice, and miscellany (the paper's "a third of the
/// first-level cache" rule, rounded to a power of two).
pub const STRIPE_L1_BUDGET: usize = 16 * 1024;

/// Derive a stripe width from the number of bytes each column occupies
/// in **one** of the two streamed row arrays: `bytes_per_col` is
/// `size_of::<elem>()` for a scalar kernel and
/// `lanes × size_of::<elem>()` for an interleaved SIMD kernel. The
/// L1 sizing rule is `stripe × 2 × bytes_per_col ≤ STRIPE_L1_BUDGET`,
/// so the rule keeps holding when the element in flight widens (i16
/// rows vs promoted i32 rows) instead of silently overflowing L1 as a
/// fixed constant would.
pub const fn stripe_for_bytes(bytes_per_col: usize) -> usize {
    let w = STRIPE_L1_BUDGET / (2 * bytes_per_col);
    if w == 0 {
        1
    } else {
        w
    }
}

/// Default stripe width for the scalar (`i32`-element) kernels,
/// derived from the element width actually in flight.
pub const DEFAULT_STRIPE: usize = stripe_for_bytes(std::mem::size_of::<Score>());

/// Score-only local alignment computed in vertical stripes of width
/// `stripe`. Produces exactly the same [`LastRow`] as the row-major
/// kernel.
pub fn sw_last_row_striped<M: CellMask>(
    a: &[u8],
    b: &[u8],
    scoring: &Scoring,
    mask: M,
    stripe: usize,
) -> LastRow {
    assert!(stripe > 0, "stripe width must be positive");
    let rows = a.len();
    let cols = b.len();
    if rows == 0 || cols == 0 {
        return LastRow::empty(cols);
    }

    let open = scoring.gaps.open;
    let ext = scoring.gaps.extend;

    let mut m = vec![0 as Score; cols];
    let mut maxy = vec![NEG_INF; cols];
    // Per-row carries across stripe boundaries.
    let mut maxx_carry = vec![NEG_INF; rows];
    let mut edge = vec![0 as Score; rows]; // M[y][x0−1] of the previous stripe.

    let mut best = 0;
    let mut best_row = None;

    let mut x0 = 0;
    while x0 < cols {
        let x1 = (x0 + stripe).min(cols);
        // Rows are processed top to bottom, so row y−1's `edge` slot is
        // rewritten before row y needs its *old* value (the diagonal input
        // M[y−1][x0−1]); `above_old_edge` carries it across one row.
        let mut above_old_edge = 0;
        for y in 0..rows {
            let my_old_edge = edge[y];
            let exch_row = scoring.exchange.row(a[y]);
            let mut maxx = if x0 == 0 { NEG_INF } else { maxx_carry[y] };
            let mut diag = if x0 == 0 || y == 0 { 0 } else { above_old_edge };
            for x in x0..x1 {
                let up = m[x];
                let mut v = max3(diag, maxx, maxy[x]) + exch_row[b[x] as usize];
                if v < 0 {
                    v = 0;
                }
                if mask.is_overridden(y, x) {
                    v = 0;
                }
                m[x] = v;
                let cand = diag - open;
                maxx = cand.max(maxx) - ext;
                maxy[x] = cand.max(maxy[x]) - ext;
                diag = up;
                // Stripes visit rows more than once; tie-break explicitly
                // so `best_row` matches the row-major kernel.
                if v > best || (v == best && best_row.is_some_and(|r| y < r)) {
                    best = v;
                    best_row = Some(y);
                }
            }
            maxx_carry[y] = maxx;
            edge[y] = m[x1 - 1];
            above_old_edge = my_old_edge;
        }
        x0 = x1;
    }

    let mut best_in_row = 0;
    let mut best_in_row_col = None;
    for (x, &v) in m.iter().enumerate() {
        if v > best_in_row {
            best_in_row = v;
            best_in_row_col = Some(x);
        }
    }

    LastRow {
        best,
        best_row,
        row: m,
        best_in_row,
        best_in_row_col,
        cells: rows as u64 * cols as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::gotoh::sw_last_row;
    use crate::mask::{NoMask, SetMask};
    use crate::seq::Seq;

    #[test]
    fn stripe_width_one_matches_row_major() {
        let v = Seq::dna("ATTGCGA").unwrap();
        let h = Seq::dna("CTTACAGA").unwrap();
        let s = Scoring::dna_example();
        let reference = sw_last_row(v.codes(), h.codes(), &s, NoMask);
        for w in [1, 2, 3, 5, 8, 100] {
            let striped = sw_last_row_striped(v.codes(), h.codes(), &s, NoMask, w);
            assert_eq!(striped, reference, "stripe width {w}");
        }
    }

    #[test]
    fn masked_striped_matches_row_major() {
        let v = Seq::dna("ACGTACGTACGTACGT").unwrap();
        let s = Scoring::dna_example();
        let mask = SetMask::from_cells([(3, 3), (7, 7), (2, 9)]);
        let reference = sw_last_row(v.codes(), v.codes(), &s, &mask);
        for w in [1, 3, 4, 7, 16, 64] {
            let striped = sw_last_row_striped(v.codes(), v.codes(), &s, &mask, w);
            assert_eq!(striped, reference, "stripe width {w}");
        }
    }

    #[test]
    fn protein_striped_matches_row_major() {
        let a = Seq::protein("MGEKALVPYRLQHCERSTMGEKALVPYRWFND").unwrap();
        let b = Seq::protein("LQHCERSTMGEKALVPYRAAWW").unwrap();
        let s = Scoring::protein_default();
        let reference = sw_last_row(a.codes(), b.codes(), &s, NoMask);
        for w in [1, 5, 13, 22, 1000] {
            let striped = sw_last_row_striped(a.codes(), b.codes(), &s, NoMask, w);
            assert_eq!(striped, reference, "stripe width {w}");
        }
    }

    #[test]
    fn empty_inputs() {
        let s = Scoring::dna_example();
        let a = Seq::dna("ACGT").unwrap();
        let e = Seq::dna("").unwrap();
        let r = sw_last_row_striped(e.codes(), a.codes(), &s, NoMask, 4);
        assert_eq!(r.best, 0);
        assert_eq!(
            sw_last_row_striped(a.codes(), e.codes(), &s, NoMask, 4).cells,
            0
        );
    }

    #[test]
    fn derived_stripe_obeys_the_l1_rule() {
        // Scalar i32 rows: 4 B per column per array → the historical 2048.
        assert_eq!(DEFAULT_STRIPE, 2048);
        for bytes in [2usize, 4, 16, 32, 64] {
            let w = stripe_for_bytes(bytes);
            assert!(w * 2 * bytes <= STRIPE_L1_BUDGET, "bytes {bytes}");
            // Tight: doubling the stripe would blow the budget.
            assert!((w + 1) * 2 * bytes > STRIPE_L1_BUDGET || w * 2 * bytes == STRIPE_L1_BUDGET);
        }
        // Degenerate element sizes still yield a usable stripe.
        assert_eq!(stripe_for_bytes(STRIPE_L1_BUDGET), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_stripe_rejected() {
        let s = Scoring::dna_example();
        let a = Seq::dna("ACGT").unwrap();
        sw_last_row_striped(a.codes(), a.codes(), &s, NoMask, 0);
    }
}
