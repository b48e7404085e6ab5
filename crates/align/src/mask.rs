//! Cell masks: the hook through which "overriding zeros" (paper §3) reach
//! the alignment kernels.
//!
//! The kernels are generic over a [`CellMask`]; a masked cell's value is
//! forced to zero *before* it can contribute to any later cell, exactly as
//! the paper prescribes for matrix entries whose residue pair already
//! belongs to a top alignment. The zero then cascades right and down
//! through the ordinary recurrence.
//!
//! Masks are sparse — a few thousand cells in matrices of millions — so
//! the production kernels never ask about single cells. They ask once per
//! row for that row's overridden columns ([`CellMask::row_hits`]), run
//! the plain recurrence over the whole row and then write the zero at
//! each hit. [`CellMask::is_overridden`] is the per-cell contract the
//! reference kernel, the cold adapters and the default row query rest on;
//! a mask that can enumerate a row faster than by probing every column
//! overrides `row_hits`.
//!
//! The mask works in **matrix coordinates** (`row` into the vertical
//! sequence, `col` into the horizontal one, both 0-based); callers that
//! track overridden pairs in sequence coordinates (the override triangle in
//! `repro-core`) adapt via their split offset.

/// Decides which matrix cells are overridden with zero.
pub trait CellMask {
    /// `true` iff the cell aligning vertical residue `row` with horizontal
    /// residue `col` (0-based matrix coordinates) must be forced to zero.
    fn is_overridden(&self, row: usize, col: usize) -> bool;

    /// The overridden columns of `row` within `lo..hi`, strictly
    /// ascending: exactly the `col` with `is_overridden(row, col)`.
    #[inline]
    fn row_hits(&self, row: usize, lo: usize, hi: usize) -> impl Iterator<Item = usize> {
        (lo..hi).filter(move |&col| self.is_overridden(row, col))
    }

    /// `true` iff this mask provably masks nothing. Kernels may use this
    /// to skip per-cell checks entirely; the default is conservative.
    #[inline(always)]
    fn is_empty_hint(&self) -> bool {
        false
    }
}

/// The empty mask: no cell is overridden. A zero-sized type, so masked and
/// unmasked kernel instantiations compile to identical inner loops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoMask;

impl CellMask for NoMask {
    #[inline(always)]
    fn is_overridden(&self, _row: usize, _col: usize) -> bool {
        false
    }

    #[inline(always)]
    fn row_hits(&self, _row: usize, _lo: usize, _hi: usize) -> impl Iterator<Item = usize> {
        std::iter::empty()
    }

    #[inline(always)]
    fn is_empty_hint(&self) -> bool {
        true
    }
}

/// A mask backed by an explicit list of cells; intended for tests and
/// small experiments (the production mask lives in `repro-core`).
#[derive(Debug, Clone, Default)]
pub struct SetMask {
    cells: std::collections::HashSet<(usize, usize)>,
}

impl SetMask {
    /// Build from an iterator of `(row, col)` cells.
    pub fn from_cells(cells: impl IntoIterator<Item = (usize, usize)>) -> Self {
        SetMask {
            cells: cells.into_iter().collect(),
        }
    }

    /// Add one cell.
    pub fn insert(&mut self, row: usize, col: usize) {
        self.cells.insert((row, col));
    }

    /// Number of masked cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` iff no cell is masked.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

impl CellMask for SetMask {
    #[inline]
    fn is_overridden(&self, row: usize, col: usize) -> bool {
        self.cells.contains(&(row, col))
    }

    #[inline]
    fn is_empty_hint(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Blanket impl so `&M` can be passed where a mask is expected.
impl<M: CellMask + ?Sized> CellMask for &M {
    #[inline(always)]
    fn is_overridden(&self, row: usize, col: usize) -> bool {
        (**self).is_overridden(row, col)
    }

    #[inline(always)]
    fn row_hits(&self, row: usize, lo: usize, hi: usize) -> impl Iterator<Item = usize> {
        (**self).row_hits(row, lo, hi)
    }

    #[inline(always)]
    fn is_empty_hint(&self) -> bool {
        (**self).is_empty_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_mask_masks_nothing() {
        assert!(!NoMask.is_overridden(0, 0));
        assert!(!NoMask.is_overridden(1000, 1000));
        assert!(NoMask.is_empty_hint());
    }

    #[test]
    fn default_row_query_lists_the_overridden_columns_in_range() {
        let m = SetMask::from_cells([(1, 0), (1, 2), (1, 3), (1, 7), (3, 4)]);
        assert_eq!(m.row_hits(1, 0, 8).collect::<Vec<_>>(), vec![0, 2, 3, 7]);
        assert_eq!(m.row_hits(1, 1, 7).collect::<Vec<_>>(), vec![2, 3]);
        let by_ref: &SetMask = &m;
        assert_eq!(
            CellMask::row_hits(&by_ref, 3, 0, 8).collect::<Vec<_>>(),
            vec![4]
        );
        assert_eq!(m.row_hits(2, 0, 8).count(), 0);
        assert_eq!(NoMask.row_hits(1, 0, 8).count(), 0);
    }

    #[test]
    fn set_mask_masks_exactly_its_cells() {
        let m = SetMask::from_cells([(1, 2), (3, 4)]);
        assert!(m.is_overridden(1, 2));
        assert!(m.is_overridden(3, 4));
        assert!(!m.is_overridden(2, 1));
        assert!(!m.is_empty_hint());
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn reference_mask_delegates() {
        let m = SetMask::from_cells([(0, 0)]);
        let r: &SetMask = &m;
        assert!(r.is_overridden(0, 0));
        assert!(!r.is_empty_hint());
    }
}
