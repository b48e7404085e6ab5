//! Full-matrix computation and traceback.
//!
//! The gaps-between-matches recurrence has a pleasant property the paper
//! exploits implicitly: the matrix `M` alone suffices for traceback — no
//! separate gap-state matrices are needed, because a cell's predecessor
//! can be re-derived by checking the diagonal and scanning gap candidates
//! (`O(rows + cols)` per traceback step, negligible next to the fill).

use crate::alignment::{AlignedPair, Alignment};
use crate::kernel::row::Body;
use crate::kernel::{LastRow, Sides};
use crate::mask::CellMask;
use crate::profile::QueryProfile;
use crate::scoring::Scoring;
use crate::{Score, NEG_INF};

/// A fully materialised local-alignment matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Score>,
}

impl FullMatrix {
    /// Number of rows (vertical-sequence length).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (horizontal-sequence length).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cell value; the virtual border outside the matrix is zero.
    #[inline]
    pub fn get(&self, y: usize, x: usize) -> Score {
        self.data[y * self.cols + x]
    }

    /// The bottom row as a slice (empty matrix ⇒ empty slice).
    pub fn last_row(&self) -> &[Score] {
        if self.rows == 0 {
            &[]
        } else {
            &self.data[(self.rows - 1) * self.cols..]
        }
    }

    /// Best cell in the whole matrix (`None` iff all cells are ≤ 0).
    pub fn best_cell(&self) -> Option<(usize, usize, Score)> {
        let mut best = 0;
        let mut cell = None;
        for y in 0..self.rows {
            for x in 0..self.cols {
                let v = self.get(y, x);
                if v > best {
                    best = v;
                    cell = Some((y, x, v));
                }
            }
        }
        cell
    }

    /// Summarise into the [`LastRow`] shape the score-only kernels return,
    /// for differential testing.
    pub fn summarize(&self) -> LastRow {
        // A zero-row matrix summarises to the virtual zero row, matching
        // `LastRow::empty`.
        let row = if self.rows == 0 {
            vec![0; self.cols]
        } else {
            self.last_row().to_vec()
        };
        let (best, best_row) = match self.best_cell() {
            Some((y, _, v)) => (v, Some(y)),
            None => (0, None),
        };
        let mut best_in_row = 0;
        let mut best_in_row_col = None;
        for (x, &v) in row.iter().enumerate() {
            if v > best_in_row {
                best_in_row = v;
                best_in_row_col = Some(x);
            }
        }
        LastRow {
            best,
            best_row,
            row,
            best_in_row,
            best_in_row_col,
            cells: self.rows as u64 * self.cols as u64,
        }
    }
}

/// Compute the full matrix with the `O(1)`-per-cell recurrence, over a
/// throwaway profile of `b` (see [`Sides::full`]).
pub fn sw_full<M: CellMask>(a: &[u8], b: &[u8], scoring: &Scoring, mask: M) -> FullMatrix {
    let profile = QueryProfile::new_wide(scoring, b);
    Sides::whole(a, &profile, scoring.gaps).full(mask)
}

impl Sides<'_> {
    /// The fully materialised matrix, `mask`ed cells forced to zero:
    /// one [`super::row`] step per row, straight into the matrix.
    pub fn full<M: CellMask>(&self, mask: M) -> FullMatrix {
        let rows = self.rows.len();
        let cols = self.cols();
        let mut data = vec![0 as Score; rows * cols];
        if rows == 0 || cols == 0 {
            return FullMatrix { rows, cols, data };
        }
        let body = Body::selected();
        let mut maxy = vec![NEG_INF; cols];
        let border = vec![0 as Score; cols]; // the virtual row above row 0
        for y in 0..rows {
            let (above, below) = data.split_at_mut(y * cols);
            let prev = if y == 0 {
                &border[..]
            } else {
                &above[(y - 1) * cols..]
            };
            let cur = &mut below[..cols];
            body.step(prev, 0, cur, &mut maxy, self.scores(y), self.gaps);
            for hit in mask.row_hits(y, 0, cols) {
                cur[hit] = 0;
            }
        }
        FullMatrix { rows, cols, data }
    }
}

/// Trace the alignment ending at `end` back through `matrix`.
///
/// Predecessors are re-derived from the matrix values; ties break
/// deterministically (diagonal first, then the shortest horizontal gap,
/// then the shortest vertical gap) so every engine reconstructs the same
/// path for the same matrix.
///
/// # Panics
/// Panics if `end` does not hold a positive score, or if the matrix is
/// internally inconsistent (no predecessor explains a cell's value) —
/// both indicate a bug, not bad input.
#[allow(clippy::mut_range_bound)] // bounds mutate right before `break`
#[allow(clippy::needless_range_loop)]
pub fn traceback(
    matrix: &FullMatrix,
    end: (usize, usize),
    a: &[u8],
    b: &[u8],
    scoring: &Scoring,
) -> Alignment {
    let (mut y, mut x) = end;
    let score = matrix.get(y, x);
    assert!(score > 0, "traceback must start at a positive cell");
    let open = scoring.gaps.open;
    let ext = scoring.gaps.extend;

    let mut pairs = Vec::new();
    loop {
        pairs.push(AlignedPair { row: y, col: x });
        let v = matrix.get(y, x);
        let base = v - scoring.exch(a[y], b[x]);
        debug_assert!(base >= 0, "positive cells decompose as exch + base");
        if base == 0 || y == 0 || x == 0 {
            break; // Fresh start (possibly via a zero-valued diagonal).
        }
        if matrix.get(y - 1, x - 1) == base {
            y -= 1;
            x -= 1;
            continue;
        }
        let mut found = false;
        for g in 1..x {
            if matrix.get(y - 1, x - 1 - g) - (open + ext * g as Score) == base {
                y -= 1;
                x -= 1 + g;
                found = true;
                break;
            }
        }
        if !found {
            for g in 1..y {
                if matrix.get(y - 1 - g, x - 1) - (open + ext * g as Score) == base {
                    y -= 1 + g;
                    x -= 1;
                    found = true;
                    break;
                }
            }
        }
        assert!(found, "no predecessor explains cell ({y},{x}) = {v}");
    }
    pairs.reverse();
    Alignment { pairs, score }
}

/// Compute the matrix and trace back from its best cell in one call.
/// Returns the empty alignment when nothing scores above zero.
///
/// ```
/// use repro_align::{sw_align, Alphabet, NoMask, Scoring, Seq};
///
/// let v = Seq::dna("ATTGCGA").unwrap();
/// let h = Seq::dna("CTTACAGA").unwrap();
/// let al = sw_align(v.codes(), h.codes(), &Scoring::dna_example(), NoMask);
/// assert_eq!(al.score, 6);
/// assert_eq!(al.cigar(), "4M1D2M");
/// let shown = al.pretty(v.codes(), h.codes(), Alphabet::Dna);
/// assert_eq!(shown.lines().next(), Some("TTGC-GA"));
/// ```
pub fn sw_align<M: CellMask>(a: &[u8], b: &[u8], scoring: &Scoring, mask: M) -> Alignment {
    let matrix = sw_full(a, b, scoring, mask);
    match matrix.best_cell() {
        Some((y, x, _)) => traceback(&matrix, (y, x), a, b, scoring),
        None => Alignment::empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::gotoh::sw_last_row;
    use crate::mask::{NoMask, SetMask};
    use crate::seq::Seq;

    fn paper_inputs() -> (Seq, Seq, Scoring) {
        (
            Seq::dna("ATTGCGA").unwrap(),
            Seq::dna("CTTACAGA").unwrap(),
            Scoring::dna_example(),
        )
    }

    /// Figure 2 of the paper, recomputed cell by cell from the recurrence
    /// (the published figure drops a zero in its final row; see the crate
    /// README for the column-alignment note).
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn figure2_golden_matrix() {
        let (v, h, s) = paper_inputs();
        let m = sw_full(v.codes(), h.codes(), &s, NoMask);
        let expected: [[Score; 8]; 7] = [
            [0, 0, 0, 2, 0, 2, 0, 2], // A
            [0, 2, 2, 0, 1, 0, 1, 0], // T
            [0, 2, 4, 1, 0, 0, 0, 0], // T
            [0, 0, 1, 3, 0, 0, 2, 0], // G
            [2, 0, 0, 0, 5, 0, 0, 1], // C
            [0, 1, 0, 0, 0, 4, 4, 0], // G
            [0, 0, 0, 2, 0, 4, 3, 6], // A
        ];
        for y in 0..7 {
            for x in 0..8 {
                assert_eq!(
                    m.get(y, x),
                    expected[y][x],
                    "cell ({y},{x}) disagrees with Figure 2"
                );
            }
        }
    }

    #[test]
    fn summarize_matches_gotoh() {
        let (v, h, s) = paper_inputs();
        let full = sw_full(v.codes(), h.codes(), &s, NoMask).summarize();
        let fast = sw_last_row(v.codes(), h.codes(), &s, NoMask);
        assert_eq!(full, fast);
    }

    #[test]
    fn paper_example_traceback() {
        let (v, h, s) = paper_inputs();
        let al = sw_align(v.codes(), h.codes(), &s, NoMask);
        assert_eq!(al.score, 6);
        assert!(al.is_well_formed());
        // TT GC-GA over TTACAGA: pairs (1,1) (2,2) (3,3) (4,4) (5,6) (6,7).
        let coords: Vec<(usize, usize)> = al.pairs.iter().map(|p| (p.row, p.col)).collect();
        assert_eq!(coords, vec![(1, 1), (2, 2), (3, 3), (4, 4), (5, 6), (6, 7)]);
        // The path's independent rescore agrees with the matrix score.
        assert_eq!(al.rescore(v.codes(), h.codes(), &s), 6);
    }

    #[test]
    fn traceback_with_vertical_gap() {
        // Transposed inputs: the gap flips to the vertical sequence.
        let (v, h, s) = paper_inputs();
        let al = sw_align(h.codes(), v.codes(), &s, NoMask);
        assert_eq!(al.score, 6);
        assert_eq!(al.gaps(), vec![(crate::alignment::GapSide::Vertical, 1)]);
        assert_eq!(al.rescore(h.codes(), v.codes(), &s), 6);
    }

    #[test]
    fn empty_when_nothing_positive() {
        let s = Scoring::dna_example();
        let a = Seq::dna("AAAA").unwrap();
        let b = Seq::dna("CCCC").unwrap();
        assert_eq!(
            sw_align(a.codes(), b.codes(), &s, NoMask),
            Alignment::empty()
        );
    }

    #[test]
    fn masked_traceback_avoids_masked_cells() {
        let (v, h, s) = paper_inputs();
        let mask = SetMask::from_cells([(6, 7)]);
        let al = sw_align(v.codes(), h.codes(), &s, &mask);
        assert_eq!(al.score, 5);
        assert!(al.pairs.iter().all(|p| !(p.row == 6 && p.col == 7)));
        assert_eq!(al.rescore(v.codes(), h.codes(), &s), 5);
    }

    #[test]
    fn traceback_from_interior_cell() {
        let (v, h, s) = paper_inputs();
        let m = sw_full(v.codes(), h.codes(), &s, NoMask);
        // Cell (4,4) = 5: TTGC/TTAC prefix alignment.
        let al = traceback(&m, (4, 4), v.codes(), h.codes(), &s);
        assert_eq!(al.score, 5);
        assert_eq!(al.pairs.len(), 4);
        assert_eq!(al.rescore(v.codes(), h.codes(), &s), 5);
    }

    #[test]
    #[should_panic(expected = "positive cell")]
    fn traceback_rejects_zero_cell() {
        let (v, h, s) = paper_inputs();
        let m = sw_full(v.codes(), h.codes(), &s, NoMask);
        traceback(&m, (0, 0), v.codes(), h.codes(), &s);
    }

    #[test]
    fn empty_matrix() {
        let s = Scoring::dna_example();
        let e = Seq::dna("").unwrap();
        let a = Seq::dna("ACGT").unwrap();
        let m = sw_full(e.codes(), a.codes(), &s, NoMask);
        assert_eq!(m.last_row(), &[] as &[Score]);
        assert_eq!(m.best_cell(), None);
    }
}
