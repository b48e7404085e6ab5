//! Equation 1 computed verbatim: `O(n)` work per cell.
//!
//! Each cell maximises over *every* gap length by scanning the row above
//! and the column to the left, exactly as the paper's Equation 1 is
//! written. This is the pre-Gotoh formulation the `O(n⁴)` old algorithm
//! used; it doubles as a differential oracle for the incremental kernel —
//! both must produce bit-identical matrices.

use crate::kernel::LastRow;
use crate::mask::CellMask;
use crate::scoring::Scoring;
use crate::Score;

/// Score-only local alignment with the naive `O(n)`-per-cell recurrence.
/// Needs the full matrix internally (vertical gap candidates reach every
/// earlier row), so memory is `O(rows · cols)`.
pub fn sw_last_row_naive<M: CellMask>(a: &[u8], b: &[u8], scoring: &Scoring, mask: M) -> LastRow {
    let rows = a.len();
    let cols = b.len();
    if rows == 0 || cols == 0 {
        return LastRow::empty(cols);
    }

    let open = scoring.gaps.open;
    let ext = scoring.gaps.extend;

    let mut m = vec![0 as Score; rows * cols];
    let mut best = 0;
    let mut best_row = None;

    for y in 0..rows {
        let exch_row = scoring.exchange.row(a[y]);
        for x in 0..cols {
            // Diagonal predecessor (virtual zero border outside).
            let diag = if y > 0 && x > 0 {
                m[(y - 1) * cols + (x - 1)]
            } else {
                0
            };
            let mut base = diag;
            if y > 0 && x > 0 {
                // Horizontal gaps: predecessors M[y−1][x−1−g] − gap(g).
                for g in 1..x {
                    let cand = m[(y - 1) * cols + (x - 1 - g)] - (open + ext * g as Score);
                    if cand > base {
                        base = cand;
                    }
                }
                // Vertical gaps: predecessors M[y−1−g][x−1] − gap(g).
                for g in 1..y {
                    let cand = m[(y - 1 - g) * cols + (x - 1)] - (open + ext * g as Score);
                    if cand > base {
                        base = cand;
                    }
                }
            }
            let mut v = base + exch_row[b[x] as usize];
            if v < 0 {
                v = 0;
            }
            if mask.is_overridden(y, x) {
                v = 0;
            }
            m[y * cols + x] = v;
            if v > best {
                best = v;
                best_row = Some(y);
            }
        }
    }

    let row: Vec<Score> = m[(rows - 1) * cols..].to_vec();
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
    fn paper_example_matches_gotoh() {
        let v = Seq::dna("ATTGCGA").unwrap();
        let h = Seq::dna("CTTACAGA").unwrap();
        let s = Scoring::dna_example();
        let naive = sw_last_row_naive(v.codes(), h.codes(), &s, NoMask);
        let fast = sw_last_row(v.codes(), h.codes(), &s, NoMask);
        assert_eq!(naive, fast);
        assert_eq!(naive.best, 6);
    }

    #[test]
    fn masked_matches_gotoh() {
        let v = Seq::dna("ATTGCGA").unwrap();
        let h = Seq::dna("CTTACAGA").unwrap();
        let s = Scoring::dna_example();
        let mask = SetMask::from_cells([(6, 7), (4, 4), (1, 1)]);
        let naive = sw_last_row_naive(v.codes(), h.codes(), &s, &mask);
        let fast = sw_last_row(v.codes(), h.codes(), &s, &mask);
        assert_eq!(naive, fast);
    }

    #[test]
    fn empty_inputs() {
        let s = Scoring::dna_example();
        let a = Seq::dna("ACGT").unwrap();
        let e = Seq::dna("").unwrap();
        assert_eq!(sw_last_row_naive(e.codes(), a.codes(), &s, NoMask).best, 0);
        assert_eq!(sw_last_row_naive(a.codes(), e.codes(), &s, NoMask).cells, 0);
    }

    #[test]
    fn protein_scoring_matches_gotoh() {
        let a = Seq::protein("MGEKALVPYRMGEKALVPYR").unwrap();
        let b = Seq::protein("LQHCERSTMGEKALVPYR").unwrap();
        let s = Scoring::protein_default();
        let naive = sw_last_row_naive(a.codes(), b.codes(), &s, NoMask);
        let fast = sw_last_row(a.codes(), b.codes(), &s, NoMask);
        assert_eq!(naive, fast);
        assert!(naive.best > 0);
    }
}
