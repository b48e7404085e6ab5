//! The bottom-row store (paper Appendix A).
//!
//! After a split matrix is aligned for the *first* time its **clean**
//! (empty-triangle) bottom row is stored. Later realignments compare
//! their bottom row entry-by-entry against the stored one: an entry that
//! changed marks a **shadow alignment** (artificially rerouted around
//! overridden cells) and is an invalid top-alignment end point.
//!
//! Split `r` (1-based, `1 ≤ r ≤ m−1`) has a bottom row of `m − r`
//! scores; all rows together form a triangle of `m(m−1)/2` scores — the
//! algorithm's largest data structure. There is one store, [`Common`],
//! for the inline driver and the SMP engine alike: a unit's sweep moves
//! each first-pass row in, written once and immutable from then on.

use crate::finder::ScoredSeq;
use repro_align::kernel::row::NarrowBody;
use repro_align::{BottomRow, RowRef, Score, Scoring, Seq};
use std::sync::OnceLock;

/// What every sweep and acceptance reads without a lock: the profiled
/// sequence (sweeps, and the acceptance traceback) and the first-pass
/// bottom rows, written once each.
///
/// Split `r`'s row is stored in `i16` where [`NarrowBody::exact_for`]
/// holds at `min(r, m − r)` pairs — every entry is at most `peak⁺ ·
/// min(r, m − r)` (DESIGN.md "Group recurrence bound") — and in `i32`
/// otherwise ([`Self::narrow`]); under BLOSUM62 that is every split
/// within ≈ 2 950 residues of an end, so the store is about half its
/// `i32` size up to ≈ 5 900 residues.
#[derive(Debug)]
pub struct Common<'a> {
    /// The sequence under its scoring, profiled once.
    pub input: ScoredSeq<'a>,
    /// Index `r − 1`.
    rows: Vec<OnceLock<BottomRow>>,
}

impl<'a> Common<'a> {
    /// Profile `seq` and make room for one row per split.
    pub fn new(seq: &'a Seq, scoring: &'a Scoring) -> Self {
        Common {
            input: ScoredSeq::new(seq, scoring),
            rows: (1..seq.len()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Is split `r`'s row stored in `i16`?
    pub fn narrow(&self, r: usize) -> bool {
        let (m, scoring) = (self.input.seq.len(), self.input.scoring);
        NarrowBody::exact_for(scoring.exchange.max_score(), r.min(m - r), scoring.gaps)
    }

    /// The clean bottom row of a split that has had its first pass.
    pub fn row(&self, r: usize) -> &BottomRow {
        self.rows[r - 1]
            .get()
            .expect("split must have a first-pass row")
    }

    /// Whether the row of split `r` is stored.
    pub fn has_row(&self, r: usize) -> bool {
        self.rows[r - 1].get().is_some()
    }

    /// Store the clean bottom row a first pass of `r` returned, by
    /// value, at the split's width ([`Self::narrow`]): a row already at
    /// that width is moved in, not copied.
    ///
    /// # Panics
    /// Panics if the row was already stored (first-pass rows are
    /// immutable; storing twice indicates a scheduling bug) or has the
    /// wrong length.
    pub fn set_row(&self, r: usize, row: impl Into<BottomRow>) {
        let row = row.into();
        assert_eq!(
            row.len(),
            self.rows.len() + 1 - r,
            "bottom row length mismatch"
        );
        let stored = self.rows[r - 1].set(row.at_width(self.narrow(r)));
        assert!(stored.is_ok(), "bottom row for split {r} stored twice");
    }

    /// Drop the row of split `r`: Appendix A's linear-memory option
    /// keeps a row only while the pop that needs it runs.
    pub fn forget_row(&mut self, r: usize) {
        self.rows[r - 1].take();
    }
}

/// Shadow filter: the best *valid* bottom-row entry of a realignment.
///
/// `current` is the freshly computed bottom row under the active override
/// triangle; `original` is the stored first-pass row. Either may be held
/// in `i16` or `i32` ([`BottomRow`]). Valid end points are the positions
/// where both agree (paper App. A); returns the best valid score and its
/// (leftmost) column, or `(0, None)` when every positive entry is
/// shadowed.
pub fn best_valid_entry<'c, 'o>(
    current: impl Into<RowRef<'c>>,
    original: impl Into<RowRef<'o>>,
) -> (Score, Option<usize>) {
    let (best, col, _) = best_valid_entry_counted(current, original);
    (best, col)
}

/// [`best_valid_entry`] that also counts the shadow rejections: the
/// number of positions where the realigned row disagrees with the
/// stored first-pass row. The count feeds
/// [`crate::Stats::shadow_rejections`].
pub fn best_valid_entry_counted<'c, 'o>(
    current: impl Into<RowRef<'c>>,
    original: impl Into<RowRef<'o>>,
) -> (Score, Option<usize>, u64) {
    match (current.into(), original.into()) {
        (RowRef::Narrow(c), RowRef::Narrow(o)) => filter(c, o),
        (RowRef::Narrow(c), RowRef::Wide(o)) => filter(c, o),
        (RowRef::Wide(c), RowRef::Narrow(o)) => filter(c, o),
        (RowRef::Wide(c), RowRef::Wide(o)) => filter(c, o),
    }
}

/// The shadow filter at one pair of widths.
fn filter<C: Copy + Into<Score>, O: Copy + Into<Score>>(
    current: &[C],
    original: &[O],
) -> (Score, Option<usize>, u64) {
    debug_assert_eq!(current.len(), original.len());
    let mut best = 0;
    let mut col = None;
    let mut shadows = 0u64;
    for (x, (&c, &o)) in current.iter().zip(original).enumerate() {
        let (c, o) = (c.into(), o.into());
        if c == o {
            if c > best {
                best = c;
                col = Some(x);
            }
        } else {
            shadows += 1;
        }
    }
    (best, col, shadows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dna(len: usize) -> Seq {
        Seq::dna(&"ACGT".repeat(len)[..len]).unwrap()
    }

    #[test]
    fn store_and_get_roundtrip() {
        let (seq, scoring) = (dna(6), Scoring::dna_example());
        let mut store = Common::new(&seq, &scoring);
        store.set_row(2, vec![5, 0, 3, 9]);
        store.set_row(5, vec![7]);
        assert_eq!(store.row(2).widened(), [5, 0, 3, 9]);
        assert_eq!(store.row(5).widened(), [7]);
        // A forgotten row may be stored anew.
        store.forget_row(2);
        store.set_row(2, vec![1, 1, 1, 1]);
        assert_eq!(store.row(2).widened(), [1, 1, 1, 1]);
    }

    #[test]
    fn adjacent_rows_do_not_clobber() {
        let m = 8;
        let (seq, scoring) = (dna(m), Scoring::dna_example());
        let store = Common::new(&seq, &scoring);
        for r in 1..m {
            store.set_row(
                r,
                (0..m - r)
                    .map(|x| (r * 100 + x) as Score)
                    .collect::<Vec<Score>>(),
            );
        }
        for r in 1..m {
            let row = store.row(r);
            assert_eq!(row.len(), m - r);
            for (x, &v) in row.widened().iter().enumerate() {
                assert_eq!(v, (r * 100 + x) as Score);
            }
        }
    }

    #[test]
    #[should_panic(expected = "stored twice")]
    fn double_store_panics() {
        let (seq, scoring) = (dna(4), Scoring::dna_example());
        let store = Common::new(&seq, &scoring);
        store.set_row(1, vec![1, 2, 3]);
        store.set_row(1, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_panics() {
        let (seq, scoring) = (dna(4), Scoring::dna_example());
        Common::new(&seq, &scoring).set_row(1, vec![1]);
    }

    #[test]
    #[should_panic(expected = "must have a first-pass row")]
    fn row_before_store_panics() {
        let (seq, scoring) = (dna(4), Scoring::dna_example());
        Common::new(&seq, &scoring).row(2);
    }

    #[test]
    fn best_valid_entry_filters_shadows() {
        let original = [3, 9, 7, 0, 5];
        // Entry 1 dropped (shadow), entry 2 unchanged, entry 4 unchanged.
        let current = [3, 4, 7, 0, 5];
        let (score, col) = best_valid_entry(&current, &original);
        assert_eq!(score, 7);
        assert_eq!(col, Some(2));
    }

    #[test]
    fn counted_variant_tallies_disagreements() {
        let original = [3, 9, 7, 0, 5];
        let current = [3, 4, 7, 1, 5];
        let (score, col, shadows) = best_valid_entry_counted(&current, &original);
        assert_eq!((score, col), (7, Some(2)));
        assert_eq!(shadows, 2);
    }

    #[test]
    fn best_valid_entry_all_shadowed() {
        let original = [5, 6];
        let current = [4, 5];
        assert_eq!(best_valid_entry(&current, &original), (0, None));
    }

    #[test]
    fn best_valid_entry_prefers_leftmost_tie() {
        let original = [7, 1, 7];
        let current = [7, 0, 7];
        let (score, col) = best_valid_entry(&current, &original);
        assert_eq!((score, col), (7, Some(0)));
    }
}
