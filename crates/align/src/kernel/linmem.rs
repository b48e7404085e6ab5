//! Linear-memory local traceback.
//!
//! The paper's Appendix A notes that "on-demand recomputation of the last
//! row is also possible at the expense of extra work; this would allow an
//! implementation that requires only a linear amount of memory". This
//! module implements the alignment-side half of that idea, after Llorens
//! & Vilar's linear-memory traceback:
//!
//! 1. a forward score pass (linear memory) locates the **end** cell (its
//!    row; one more pass down to that row gives the column);
//! 2. an end-anchored reverse score pass over the reversed prefixes, in
//!    rolling rows, finds the **box**: the smallest row and the smallest
//!    column of every cell from which a path reaches the end cell with
//!    its full score;
//! 3. only that box is materialised for the traceback.
//!
//! Every optimal path into the end cell lies in the box, the full-matrix
//! traceback's included, and inside the box that path's cells keep their
//! full-matrix values while every tie candidate the full traceback
//! rejects is still rejected — so [`traceback_in_box`] returns the pairs
//! [`traceback`] returns over the whole matrix, on every input (DESIGN.md
//! "Bottom-row width and acceptance box"). Peak memory drops from
//! `O(rows · cols)` to `O(box + cols)`.

use crate::alignment::{AlignedPair, Alignment};
use crate::kernel::full::{sw_full, traceback};
use crate::kernel::gotoh::sw_last_row;
use crate::kernel::row::Body;
use crate::kernel::Sides;
use crate::mask::CellMask;
use crate::profile::QueryProfile;
use crate::scoring::Scoring;
use crate::{Score, NEG_INF};

/// Mask adapter: view the original mask shifted by a box origin.
struct OffsetMask<M> {
    inner: M,
    row0: usize,
    col0: usize,
}

impl<M: CellMask> CellMask for OffsetMask<M> {
    #[inline]
    fn is_overridden(&self, row: usize, col: usize) -> bool {
        self.inner.is_overridden(self.row0 + row, self.col0 + col)
    }

    #[inline]
    fn row_hits(&self, row: usize, lo: usize, hi: usize) -> impl Iterator<Item = usize> {
        let col0 = self.col0;
        (self.inner)
            .row_hits(self.row0 + row, col0 + lo, col0 + hi)
            .map(move |col| col - col0)
    }

    #[inline]
    fn is_empty_hint(&self) -> bool {
        self.inner.is_empty_hint()
    }
}

/// Best local alignment using linear memory plus the alignment's bounding
/// box: the same alignment as [`crate::sw_align`] on every input, ties
/// included (the end cell is the matrix's row-major-first best cell, as
/// there, and [`traceback_in_box`] is exact).
pub fn sw_align_linmem<M: CellMask>(a: &[u8], b: &[u8], scoring: &Scoring, mask: M) -> Alignment {
    let profile = QueryProfile::new_wide(scoring, b);
    let (fwd, maxima) = Sides::whole(a, &profile, scoring.gaps).last_row_maxima(&mask);
    let Some(ye) = fwd.best_row else {
        return Alignment::empty();
    };
    let xe = sw_last_row(&a[..=ye], b, scoring, &mask)
        .best_in_row_col
        .expect("a positive best row");
    traceback_in_box(a, b, scoring, mask, (ye, xe), fwd.best, &maxima).0
}

/// The alignment [`traceback`] reconstructs from `end` over the whole
/// `mask`ed matrix of `a` against `b`, computed inside the alignment's
/// box only. `score` is the end cell's value (positive) and
/// `row_max[y]` is at least every cell of row `y` of the masked matrix,
/// for every row down to the end cell's
/// ([`crate::Sides::last_row_maxima`]). Returns the alignment and the
/// cells swept: the reverse pass plus the box.
///
/// With `T` the largest `row_max` down to the end row, the reverse pass
/// runs the row step over the reversed prefixes with a bonus on the end
/// cell of `2T − score + 1`: a cell then reads `2T + 1` exactly when a
/// path from it reaches the end cell with the full score, a cell of
/// such a path in row `y` reads above `2T − max(row_max[..y])`, and the
/// pass stops at the first row below which no such path can continue
/// (DESIGN.md "Bottom-row width and acceptance box").
pub fn traceback_in_box<M: CellMask>(
    a: &[u8],
    b: &[u8],
    scoring: &Scoring,
    mask: M,
    end: (usize, usize),
    score: Score,
    row_max: &[Score],
) -> (Alignment, u64) {
    let (ye, xe) = end;
    let (ys, xs, reverse_cells) = box_corner(a, b, scoring, &mask, end, score, &row_max[..=ye]);
    let (ba, bb) = (&a[ys..=ye], &b[xs..=xe]);
    let boxed = sw_full(
        ba,
        bb,
        scoring,
        OffsetMask {
            inner: &mask,
            row0: ys,
            col0: xs,
        },
    );
    let al = traceback(&boxed, (ye - ys, xe - xs), ba, bb, scoring);
    debug_assert_eq!(al.score, score, "the box keeps the end cell's value");
    let pairs = al
        .pairs
        .into_iter()
        .map(|p| AlignedPair {
            row: p.row + ys,
            col: p.col + xs,
        })
        .collect();
    let cells = reverse_cells + (ba.len() * bb.len()) as u64;
    (Alignment { pairs, score }, cells)
}

/// The box's top-left corner for [`traceback_in_box`], and the cells the
/// reverse pass swept. Where the bonus could leave the range the row
/// step computes exactly in, the corner is the matrix's own.
fn box_corner<M: CellMask>(
    a: &[u8],
    b: &[u8],
    scoring: &Scoring,
    mask: &M,
    (ye, xe): (usize, usize),
    score: Score,
    row_max: &[Score],
) -> (usize, usize, u64) {
    let bound = row_max.iter().copied().max().unwrap_or(0);
    assert!(
        0 < score && score <= bound,
        "end cell {score} outside (0, {bound}]"
    );
    // The row step is exact while its values stay below 2^29 plus the
    // scan's ramp (`crate::NEG_INF`); the bonus at most doubles them.
    if i64::from(bound) * 2 + 1 >= 1 << 29 {
        return (0, 0, 0);
    }
    // `above[y]`: the largest cell of the rows above row `y`, which
    // bounds the prefix a full-score path brings into row `y`.
    let mut above = Vec::with_capacity(ye + 1);
    above.push(0);
    for &v in &row_max[..ye] {
        above.push(above[above.len() - 1].max(v));
    }
    let bonus = 2 * bound - score + 1;
    // What a start reads: `2·bound + 1`.
    let target = bonus + score;
    // Reversed columns: column `rx` is `b[xe − rx]`.
    let reversed: Vec<u8> = b[..=xe].iter().rev().copied().collect();
    let profile = QueryProfile::new_wide(scoring, &reversed);
    let cols = xe + 1;
    let peak = scoring.exchange.max_score().max(0);
    let body = Body::selected();
    let (mut prev, mut cur) = (vec![0 as Score; cols], vec![0 as Score; cols]);
    let mut maxy = vec![NEG_INF; cols];
    let mut first = profile.row(a[ye], 0).to_vec();
    first[0] += bonus;
    let (mut ys, mut xs, mut swept) = (ye, xe, 0u64);
    for y in (0..=ye).rev() {
        let e = if y == ye {
            &first[..]
        } else {
            profile.row(a[y], 0)
        };
        let row_top = body.step(&prev, 0, &mut cur, &mut maxy, e, scoring.gaps);
        for hit in mask.row_hits(y, 0, cols) {
            cur[xe - hit] = 0;
        }
        swept += cols as u64;
        if row_top == target {
            if let Some(rx) = cur.iter().rposition(|&v| v == target) {
                ys = y;
                xs = xs.min(xe - rx);
            }
        }
        // A full-score path's cell in this row, or in any row still to
        // sweep, reads above `floor`. None in this row, and no carried
        // gap the best pair could lift past it: the box is complete.
        let floor = 2 * bound - above[y];
        if row_top <= floor && maxy.iter().all(|&v| v <= floor - peak) {
            break;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    (ys, xs, swept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::full::sw_align;
    use crate::mask::{NoMask, SetMask};
    use crate::seq::Seq;

    #[test]
    fn paper_example_matches_full_traceback() {
        let v = Seq::dna("ATTGCGA").unwrap();
        let h = Seq::dna("CTTACAGA").unwrap();
        let s = Scoring::dna_example();
        let lin = sw_align_linmem(v.codes(), h.codes(), &s, NoMask);
        let full = sw_align(v.codes(), h.codes(), &s, NoMask);
        assert_eq!(lin.score, 6);
        assert_eq!(lin, full);
    }

    #[test]
    fn masked_matches_full_traceback_score() {
        let v = Seq::dna("ATTGCGA").unwrap();
        let h = Seq::dna("CTTACAGA").unwrap();
        let s = Scoring::dna_example();
        let mask = SetMask::from_cells([(6, 7)]);
        let lin = sw_align_linmem(v.codes(), h.codes(), &s, &mask);
        let full = sw_align(v.codes(), h.codes(), &s, &mask);
        assert_eq!(lin, full);
        assert_eq!(lin.score, 5);
    }

    /// Every pair of `{A,C}` strings up to 5 long, every positive end
    /// cell, with and without a masked diagonal, under the paper's
    /// scoring and two tie-heavy ones: the box traceback's pairs are the
    /// full matrix's, and its box never exceeds the matrix.
    #[test]
    fn box_traceback_equals_full_traceback_at_every_end_cell() {
        use crate::alphabet::Alphabet;
        use crate::matrix::ExchangeMatrix;
        use crate::scoring::GapPenalties;
        let tie = |m, mm, open, ext| {
            Scoring::new(
                ExchangeMatrix::match_mismatch(Alphabet::Dna, m, mm),
                GapPenalties::new(open, ext),
            )
        };
        let scorings = [Scoring::dna_example(), tie(1, -1, 0, 1), tie(2, -2, 1, 1)];
        let strings: Vec<Vec<u8>> = (0..=5usize)
            .flat_map(|n| {
                (0..1u32 << n).map(move |bits| (0..n).map(|i| (bits >> i & 1) as u8).collect())
            })
            .collect();
        let mut ends = 0;
        for s in &scorings {
            for a in &strings {
                for b in &strings {
                    let diagonal = SetMask::from_cells((0..a.len().min(b.len())).map(|i| (i, i)));
                    for mask in [SetMask::default(), diagonal] {
                        let full = sw_full(a, b, s, &mask);
                        for y in 0..a.len() {
                            for x in 0..b.len() {
                                let v = full.get(y, x);
                                if v <= 0 {
                                    continue;
                                }
                                let want = traceback(&full, (y, x), a, b, s);
                                let row_max: Vec<Score> = (0..a.len())
                                    .map(|r| (0..b.len()).map(|c| full.get(r, c)).max().unwrap())
                                    .collect();
                                let (got, cells) =
                                    traceback_in_box(a, b, s, &mask, (y, x), v, &row_max);
                                assert_eq!(got, want, "{a:?} {b:?} end ({y},{x})");
                                assert!(cells <= 2 * ((y + 1) * (x + 1)) as u64);
                                ends += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(ends > 20_000, "{ends}");
    }

    #[test]
    fn empty_when_nothing_positive() {
        let s = Scoring::dna_example();
        let a = Seq::dna("AAAA").unwrap();
        let b = Seq::dna("CCCC").unwrap();
        assert_eq!(
            sw_align_linmem(a.codes(), b.codes(), &s, NoMask),
            Alignment::empty()
        );
    }

    #[test]
    fn long_flanks_small_box() {
        // A short strong match inside long unrelated flanks: the box is
        // tiny even though the matrix is large.
        let s = Scoring::dna_example();
        let mut left = "AC".repeat(50);
        left.push_str("GGGGGGGG");
        left.push_str(&"AC".repeat(50));
        let mut right = "TG".repeat(50);
        right.push_str("GGGGGGGG");
        right.push_str(&"TG".repeat(50));
        let a = Seq::dna(&left).unwrap();
        let b = Seq::dna(&right).unwrap();
        let lin = sw_align_linmem(a.codes(), b.codes(), &s, NoMask);
        let full = sw_align(a.codes(), b.codes(), &s, NoMask);
        assert_eq!(lin.score, full.score);
        assert_eq!(lin.rescore(a.codes(), b.codes(), &s), lin.score);
    }

    #[test]
    fn protein_agreement() {
        let a = Seq::protein("MGEKALVPYRLQHCERST").unwrap();
        let b = Seq::protein("LQHCERSTMGEKALVPYR").unwrap();
        let s = Scoring::protein_default();
        let lin = sw_align_linmem(a.codes(), b.codes(), &s, NoMask);
        let full = sw_align(a.codes(), b.codes(), &s, NoMask);
        assert_eq!(lin, full);
    }
}
