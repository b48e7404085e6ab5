//! Linear-memory local traceback.
//!
//! The paper's Appendix A notes that "on-demand recomputation of the last
//! row is also possible at the expense of extra work; this would allow an
//! implementation that requires only a linear amount of memory". This
//! module implements the alignment-side half of that idea:
//!
//! 1. a forward score pass (linear memory) locates the best **end** cell
//!    (its row; one more pass down to that row gives the column);
//! 2. a reverse score pass over the reversed prefixes locates the matching
//!    **start** cell;
//! 3. only the bounding box between start and end is materialised for the
//!    actual traceback.
//!
//! For biologically realistic repeats, the bounding box is a tiny fraction
//! of the full matrix, so peak memory drops from `O(rows · cols)` to
//! `O(box)` while the answer stays bit-identical to the full traceback.

use crate::alignment::{AlignedPair, Alignment};
use crate::kernel::full::{sw_full, traceback};
use crate::kernel::gotoh::sw_last_row;
use crate::mask::CellMask;
use crate::scoring::Scoring;

/// Mask adapter: view the original mask through reversed coordinates
/// anchored at an end cell.
struct ReversedMask<M> {
    inner: M,
    end_row: usize,
    end_col: usize,
}

impl<M: CellMask> CellMask for ReversedMask<M> {
    #[inline]
    fn is_overridden(&self, row: usize, col: usize) -> bool {
        self.inner
            .is_overridden(self.end_row - row, self.end_col - col)
    }

    #[inline]
    fn is_empty_hint(&self) -> bool {
        self.inner.is_empty_hint()
    }
}

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
    fn is_empty_hint(&self) -> bool {
        self.inner.is_empty_hint()
    }
}

/// Best local alignment using linear memory plus the alignment's bounding
/// box. Produces the same score as [`sw_full`]-based traceback (and the
/// same path whenever the optimum is unique).
pub fn sw_align_linmem<M: CellMask + Copy>(
    a: &[u8],
    b: &[u8],
    scoring: &Scoring,
    mask: M,
) -> Alignment {
    let fwd = sw_last_row(a, b, scoring, mask);
    let Some(ye) = fwd.best_row else {
        return Alignment::empty();
    };
    let best = fwd.best;
    let xe = best_col(&a[..=ye], b, scoring, mask);

    // Reverse pass over the prefixes ending at the end cell.
    let ra: Vec<u8> = a[..=ye].iter().rev().copied().collect();
    let rb: Vec<u8> = b[..=xe].iter().rev().copied().collect();
    let rmask = ReversedMask {
        inner: mask,
        end_row: ye,
        end_col: xe,
    };
    let rev = sw_last_row(&ra, &rb, scoring, &rmask);
    debug_assert_eq!(
        rev.best, best,
        "reverse pass must rediscover the optimal score"
    );

    // A reverse-optimal cell is a candidate start. Usually the first one
    // works; co-optimal alignments elsewhere in the rectangle can make a
    // candidate's box miss the end cell, in which case we fall back to
    // enumerating every reverse-optimal cell (rare, and only then does
    // memory exceed the bounding box).
    let try_start = |ry: usize, rx: usize| -> Option<Alignment> {
        let ys = ye - ry;
        let xs = xe - rx;
        let box_mask = OffsetMask {
            inner: mask,
            row0: ys,
            col0: xs,
        };
        let boxed = sw_full(&a[ys..=ye], &b[xs..=xe], scoring, &box_mask);
        let end_in_box = (ye - ys, xe - xs);
        if boxed.get(end_in_box.0, end_in_box.1) != best {
            return None;
        }
        let al = traceback(&boxed, end_in_box, &a[ys..=ye], &b[xs..=xe], scoring);
        let pairs = al
            .pairs
            .into_iter()
            .map(|p| AlignedPair {
                row: p.row + ys,
                col: p.col + xs,
            })
            .collect();
        Some(Alignment {
            pairs,
            score: al.score,
        })
    };

    if let Some(ry) = rev.best_row {
        if let Some(al) = try_start(ry, best_col(&ra[..=ry], &rb, scoring, &rmask)) {
            return al;
        }
    }
    let rev_full = sw_full(&ra, &rb, scoring, &rmask);
    for ry in 0..ra.len() {
        for rx in 0..rb.len() {
            if rev_full.get(ry, rx) == best {
                if let Some(al) = try_start(ry, rx) {
                    return al;
                }
            }
        }
    }
    unreachable!("some reverse-optimal cell must anchor the optimal path");
}

/// The leftmost best column of `a`'s bottom row against `b`. Row `y`
/// depends only on the rows above it, so with `a` cut below a pass's
/// `best_row` this is that pass's row-major-first best cell.
fn best_col<M: CellMask>(a: &[u8], b: &[u8], scoring: &Scoring, mask: M) -> usize {
    sw_last_row(a, b, scoring, mask)
        .best_in_row_col
        .expect("a positive best row")
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
        assert_eq!(lin.score, full.score);
        assert_eq!(lin.score, 5);
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
