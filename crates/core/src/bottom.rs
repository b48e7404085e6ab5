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
//!
//! A row is stored as one signed byte per entry, its difference from
//! the entry to its left (the first from 0), unless some difference
//! falls outside `i8`; then it is stored in plain `i32`
//! ([`StoredRow::encode`]). The row alone decides, so the form is exact
//! for every row whatever its scores. The shadow filter and the
//! accept read a delta row through a running sum inside the loop that
//! compares ([`best_valid_entry_counted`]); rows leave the store in
//! `i32` only for the wire ([`StoredRow::widened`]).

use crate::finder::ScoredSeq;
use repro_align::{delta_entries, BottomRow, RowRef, Score, Scoring, Seq, StoredRow};
use std::sync::OnceLock;

/// What every sweep and acceptance reads without a lock: the profiled
/// sequence (sweeps, and the acceptance traceback) and the first-pass
/// bottom rows, written once each, each in its [`StoredRow`] form.
#[derive(Debug)]
pub struct Common<'a> {
    /// The sequence under its scoring, profiled once.
    pub input: ScoredSeq<'a>,
    /// Index `r − 1`.
    rows: Vec<OnceLock<StoredRow>>,
}

impl<'a> Common<'a> {
    /// Profile `seq` and make room for one row per split.
    pub fn new(seq: &'a Seq, scoring: &'a Scoring) -> Self {
        Common {
            input: ScoredSeq::new(seq, scoring),
            rows: (1..seq.len()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The clean bottom row of a split that has had its first pass.
    pub fn row(&self, r: usize) -> &StoredRow {
        self.rows[r - 1]
            .get()
            .expect("split must have a first-pass row")
    }

    /// Whether the row of split `r` is stored.
    pub fn has_row(&self, r: usize) -> bool {
        self.rows[r - 1].get().is_some()
    }

    /// Payload bytes of every row stored now ([`StoredRow::bytes`]).
    pub fn row_bytes(&self) -> usize {
        self.rows
            .iter()
            .filter_map(OnceLock::get)
            .map(StoredRow::bytes)
            .sum()
    }

    /// Store the clean bottom row a first pass of `r` returned, encoded
    /// ([`StoredRow::encode`]).
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
        let stored = self.rows[r - 1].set(StoredRow::encode(row));
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
/// triangle; `original` is the stored first-pass row. Either may be any
/// [`RowRef`]. Valid end points are the positions where both agree
/// (paper App. A); returns the best valid score and its (leftmost)
/// column, or `(0, None)` when every positive entry is shadowed.
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
///
/// `current` is read as the slice it is (a kernel's row is `i16` or
/// `i32`), `original` entry by entry in the same loop, a delta row
/// through [`delta_entries`]. A delta-coded `current` is decoded first.
pub fn best_valid_entry_counted<'c, 'o>(
    current: impl Into<RowRef<'c>>,
    original: impl Into<RowRef<'o>>,
) -> (Score, Option<usize>, u64) {
    let original = original.into();
    match current.into() {
        RowRef::Narrow(c) => against(c, original),
        RowRef::Wide(c) => against(c, original),
        delta @ RowRef::Delta(_) => against(&delta.widened(), original),
    }
}

/// The shadow filter of one current row, at the stored row's form.
fn against<C: Copy + Into<Score>>(
    current: &[C],
    original: RowRef<'_>,
) -> (Score, Option<usize>, u64) {
    debug_assert_eq!(current.len(), original.len());
    match original {
        RowRef::Narrow(o) => filter(current, o.iter().map(|&x| x.into())),
        RowRef::Wide(o) => filter(current, o.iter().copied()),
        RowRef::Delta(o) => filter(current, delta_entries(o)),
    }
}

/// The shadow filter's loop: `original` decodes as it is compared.
fn filter<C: Copy + Into<Score>>(
    current: &[C],
    original: impl Iterator<Item = Score>,
) -> (Score, Option<usize>, u64) {
    let mut best = 0;
    let mut col = None;
    let mut shadows = 0u64;
    for (x, (&c, o)) in current.iter().zip(original).enumerate() {
        let c = c.into();
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
    use crate::finder::{FinderConfig, Search, Step, TopAlignmentFinder};
    use crate::SplitMask;
    use repro_align::{ExchangeMatrix, GapPenalties, NoMask};

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

    /// Exhaustive small scope for the stored form: every split of every
    /// `{A,C}` string up to 10 long, under the paper's scoring (every
    /// row deltas) and one whose match score exceeds `i8` (both forms).
    /// Each stored row reads back bit-identical to the kernel's row, from
    /// its `i32` and its `i16` hand-over alike, and before every step of
    /// the sequential run the shadow filter of every split's row under
    /// the triangle of that moment against the stored row equals the
    /// filter against the plain row.
    #[test]
    fn stored_rows_read_back_exactly_and_filter_as_plain_rows() {
        let wide = Scoring::new(
            ExchangeMatrix::match_mismatch(repro_align::Alphabet::Dna, 200, -150),
            GapPenalties::new(40, 20),
        );
        // Per scoring: rows stored plain, rows stored as deltas.
        let mut forms = [[0usize; 2]; 2];
        for (s, scoring) in [Scoring::dna_example(), wide].iter().enumerate() {
            for n in 0..=10usize {
                for bits in 0..1u32 << n {
                    let text: String = (0..n)
                        .map(|i| if bits >> i & 1 == 0 { 'A' } else { 'C' })
                        .collect();
                    let seq = Seq::dna(&text).unwrap();
                    let common = Common::new(&seq, scoring);
                    for r in 1..n {
                        let row = common.input.split(r).last_row(NoMask).row;
                        let narrow: Vec<i16> = row.iter().map(|&x| x as i16).collect();
                        let from_narrow = StoredRow::encode(BottomRow::Narrow(narrow));
                        common.set_row(r, row.clone());
                        assert_eq!(common.row(r).widened(), row, "{text} split {r}");
                        assert_eq!(*common.row(r), from_narrow, "{text} split {r}");
                        let delta = matches!(common.row(r), StoredRow::Delta(_));
                        forms[s][usize::from(delta)] += 1;
                    }
                    let config = FinderConfig::new(Search::new(n));
                    let mut finder = TopAlignmentFinder::new(&seq, scoring, config);
                    loop {
                        for r in 1..n {
                            let mask = SplitMask::new(finder.triangle(), r);
                            let current = common.input.split(r).last_row(mask).row;
                            let plain = common.row(r).widened();
                            assert_eq!(
                                best_valid_entry_counted(&current, common.row(r)),
                                best_valid_entry_counted(&current, &plain),
                                "{text} split {r}"
                            );
                        }
                        if finder.step() == Step::Done {
                            break;
                        }
                    }
                }
            }
        }
        assert_eq!(
            forms[0][0], 0,
            "the paper's scoring stores every row as deltas"
        );
        assert!(
            forms[1][0] > 0 && forms[1][1] > 0,
            "both forms: {:?}",
            forms[1]
        );
    }
}
