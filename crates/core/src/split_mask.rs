//! Adapter from the override triangle to a per-split kernel mask.
//!
//! Cell `(i, j)` of split `r`'s matrix aligns sequence positions `i`
//! (prefix) and `r + j` (suffix); the cell is overridden iff that
//! position pair is in the triangle. Because `i < r ≤ r + j` always
//! holds, the pair is automatically in canonical `(p < q)` order, and
//! row `i`'s overridden columns are the triangle's row `i` shifted left
//! by `r` (entries with `q < r` belong to other splits and drop out).

use crate::triangle::OverrideTriangle;
use repro_align::CellMask;

/// View of an [`OverrideTriangle`] as the cell mask of one split matrix.
#[derive(Debug, Clone, Copy)]
pub struct SplitMask<'a> {
    triangle: &'a OverrideTriangle,
    r: usize,
}

impl<'a> SplitMask<'a> {
    /// Mask for split `r` (`1 ≤ r ≤ m−1`).
    pub fn new(triangle: &'a OverrideTriangle, r: usize) -> Self {
        debug_assert!(r >= 1 && r < triangle.seq_len().max(1));
        SplitMask { triangle, r }
    }

    /// The split this mask serves.
    pub fn split(&self) -> usize {
        self.r
    }
}

impl CellMask for SplitMask<'_> {
    #[inline(always)]
    fn is_overridden(&self, row: usize, col: usize) -> bool {
        self.triangle.get(row, self.r + col)
    }

    #[inline(always)]
    fn row_hits(&self, row: usize, lo: usize, hi: usize) -> impl Iterator<Item = usize> {
        let r = self.r;
        self.triangle
            .row_range(row, r + lo, r + hi)
            .iter()
            .map(move |&q| q as usize - r)
    }

    #[inline(always)]
    fn is_empty_hint(&self) -> bool {
        self.triangle.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_matrix_cells_to_sequence_pairs() {
        let mut t = OverrideTriangle::new(10);
        t.set(2, 7); // prefix position 2 vs suffix position 7
                     // For split r = 5: cell (2, 2) aligns positions (2, 5 + 2 = 7).
        let mask = SplitMask::new(&t, 5);
        assert!(mask.is_overridden(2, 2));
        assert!(!mask.is_overridden(2, 1));
        assert!(!mask.is_overridden(1, 2));
        // For split r = 4: the same pair sits at cell (2, 3).
        let mask4 = SplitMask::new(&t, 4);
        assert!(mask4.is_overridden(2, 3));
    }

    #[test]
    fn row_query_shifts_by_the_split_and_drops_columns_left_of_it() {
        let mut t = OverrideTriangle::new(12);
        for q in [3, 5, 6, 11] {
            t.set(2, q);
        }
        let hits = |r, lo, hi| {
            SplitMask::new(&t, r)
                .row_hits(2, lo, hi)
                .collect::<Vec<_>>()
        };
        assert_eq!(hits(3, 0, 9), vec![0, 2, 3, 8]);
        assert_eq!(hits(4, 0, 8), vec![1, 2, 7]); // q = 3 lies left of r = 4
        assert_eq!(hits(4, 2, 7), vec![2]);
        assert_eq!(hits(7, 0, 5), vec![4]);
        assert!(SplitMask::new(&t, 5).row_hits(1, 0, 7).next().is_none());
    }

    #[test]
    fn empty_hint_tracks_triangle() {
        let mut t = OverrideTriangle::new(4);
        assert!(SplitMask::new(&t, 1).is_empty_hint());
        t.set(0, 2);
        assert!(!SplitMask::new(&t, 1).is_empty_hint());
    }
}
