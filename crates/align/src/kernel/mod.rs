//! Alignment kernels.
//!
//! All local kernels compute the same matrix (crate-level docs give the
//! recurrence); they differ in *how*:
//!
//! | module | per-cell cost | memory | role |
//! |---|---|---|---|
//! | [`row`] | `O(1)`, vectorised along the row | — | the recurrence body, `i32` and (where a bound allows) `i16`: a row from the row above it |
//! | [`gotoh`] | `O(1)` (Figure 3's `MaxX`/`MaxY`) | two rows | the production score pass |
//! | [`naive`] | `O(n)` (Equation 1 verbatim) | full matrix | the old-algorithm baseline and a differential oracle |
//! | [`full`] | `O(1)` | full matrix | traceback |
//! | [`striped`] | `O(1)`, cache-aware vertical stripes | one row + per-row carries | paper §4.1 |
//! | [`nw`] | `O(1)` | full matrix | global alignment (paper §2.1 background) |
//! | [`linmem`] | `O(1)` | bounding box only | linear-memory traceback (paper App. A's "on-demand recomputation") |
//! | [`tri`] | `O(1)` | one row | triangular self-sweep: admissible per-split bounds for seed pruning |
//!
//! [`gotoh`], [`full`] and [`tri`] are row loops around [`row`]; they
//! read substitution scores from a [`QueryProfile`] through [`Sides`].
//! Only [`gotoh`]'s loop also runs the `i16` body (where a bound proves
//! it exact); [`full`], [`tri`] and [`linmem`] stay `i32`.
//! Each keeps an `(a, b, scoring, mask)` form that builds a throwaway
//! profile; whoever sweeps many matrices of one sequence builds the
//! profile once (`repro_core::ScoredSeq`).

pub mod full;
pub mod gotoh;
pub mod linmem;
pub mod naive;
pub mod nw;
pub mod row;
pub mod striped;
pub mod tri;
pub mod waterman_eggert;

use crate::profile::QueryProfile;
use crate::scoring::GapPenalties;
use crate::Score;

/// One local-alignment matrix as the row-vectorised kernels read it:
/// the vertical residues, the horizontal side as contiguous
/// substitution scores, and the gap model.
#[derive(Debug, Clone, Copy)]
pub struct Sides<'a> {
    /// The vertical sequence: one matrix row per residue code.
    pub rows: &'a [u8],
    /// Wide profile of the sequence the columns are taken from.
    pub profile: &'a QueryProfile<Score>,
    /// The same profile in `i16`, if built: [`Self::last_row_resume`] then
    /// runs the `i16` row body where a score bound proves it exact.
    pub narrow: Option<&'a QueryProfile<i16>>,
    /// First profiled position that is a matrix column; the columns are
    /// positions `q0..profile.len()`.
    pub q0: usize,
    /// Affine gap penalties.
    pub gaps: GapPenalties,
}

impl<'a> Sides<'a> {
    /// `rows` against every profiled position, in `i32` only.
    pub fn whole(rows: &'a [u8], profile: &'a QueryProfile<Score>, gaps: GapPenalties) -> Self {
        Sides {
            rows,
            profile,
            narrow: None,
            q0: 0,
            gaps,
        }
    }

    /// Number of matrix columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.profile.len() - self.q0
    }

    /// Row `y`'s substitution scores, one per column.
    #[inline(always)]
    pub fn scores(&self, y: usize) -> &'a [Score] {
        self.profile.row(self.rows[y], self.q0)
    }
}

/// Result of a score-only local alignment pass.
///
/// Carries exactly what the top-alignment machinery needs (paper App. A):
/// the **bottom row** of the matrix, the best score in that bottom row, and
/// (for general use) the best score anywhere in the matrix and its row.
/// `cells` counts matrix cells computed, the work unit all experiments report in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LastRow {
    /// Best score anywhere in the matrix (0 if the matrix is empty or all
    /// cells clamp to zero).
    pub best: Score,
    /// First row whose maximum (after masking) reaches `best`; `None` iff
    /// `best == 0`. The column is not tracked: a sweep of the rows down to
    /// this one has it as `best_in_row_col` ([`crate::sw_align_linmem`]).
    pub best_row: Option<usize>,
    /// The bottom row `M[rows−1][0..cols]`; empty when either side is empty.
    pub row: Vec<Score>,
    /// Best score within the bottom row.
    pub best_in_row: Score,
    /// Column achieving `best_in_row`, first-from-left; `None` iff
    /// `best_in_row == 0`.
    pub best_in_row_col: Option<usize>,
    /// Number of matrix cells computed.
    pub cells: u64,
}

impl LastRow {
    /// The result of aligning against an empty side.
    pub fn empty(cols: usize) -> Self {
        LastRow {
            best: 0,
            best_row: None,
            row: vec![0; cols],
            best_in_row: 0,
            best_in_row_col: None,
            cells: 0,
        }
    }
}

/// A bottom row as a kernel hands it over: `i16` where its sweep ran the
/// `i16` body (a bound proved every entry exact there), else `i32`.
/// Every entry is a matrix value, so non-negative. Rows compare by value,
/// whatever their widths.
#[derive(Debug, Clone)]
pub enum BottomRow {
    /// Every entry fits `i16` exactly.
    Narrow(Vec<i16>),
    /// Entries at the scalar score width.
    Wide(Vec<Score>),
}

impl BottomRow {
    /// Number of entries (the matrix's columns).
    pub fn len(&self) -> usize {
        self.view().len()
    }

    /// `true` for the row of a matrix without columns.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow the row at its width.
    pub fn view(&self) -> RowRef<'_> {
        match self {
            BottomRow::Narrow(v) => RowRef::Narrow(v),
            BottomRow::Wide(v) => RowRef::Wide(v),
        }
    }

    /// The largest entry, 0 for an empty row.
    pub fn max(&self) -> Score {
        match self {
            BottomRow::Narrow(v) => v.iter().copied().max().map_or(0, Score::from),
            BottomRow::Wide(v) => v.iter().copied().max().unwrap_or(0),
        }
    }

    /// The row in `i32`, copied.
    pub fn widened(&self) -> Vec<Score> {
        self.view().widened()
    }
}

impl PartialEq for BottomRow {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for BottomRow {}

impl PartialEq<Vec<Score>> for BottomRow {
    fn eq(&self, other: &Vec<Score>) -> bool {
        self.view() == RowRef::Wide(other)
    }
}

impl From<Vec<Score>> for BottomRow {
    fn from(row: Vec<Score>) -> Self {
        BottomRow::Wide(row)
    }
}

/// A bottom row as the first-pass row store keeps it: each entry as its
/// difference from its left neighbour (the first from 0) in one byte,
/// unless some difference falls outside `i8`, in which case the entries
/// themselves in `i32`. The row decides its form ([`Self::encode`]), so a
/// row has exactly one, and rows compare by value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoredRow {
    /// Every neighbour difference fits `i8`; [`delta_entries`] reads it.
    Delta(Box<[i8]>),
    /// Some neighbour difference does not fit `i8`.
    Plain(Box<[Score]>),
}

impl StoredRow {
    /// The one encoder: deltas in one pass, falling back to plain `i32`
    /// at the first difference outside `i8`.
    pub fn encode(row: BottomRow) -> StoredRow {
        fn deltas<T: Copy + Into<Score>>(row: &[T]) -> Option<Box<[i8]>> {
            let mut out = Vec::with_capacity(row.len());
            let mut prev: Score = 0;
            for &x in row {
                let x = x.into();
                out.push(i8::try_from(x - prev).ok()?);
                prev = x;
            }
            Some(out.into_boxed_slice())
        }
        let coded = match &row {
            BottomRow::Narrow(v) => deltas(v),
            BottomRow::Wide(v) => deltas(v),
        };
        match (coded, row) {
            (Some(d), _) => StoredRow::Delta(d),
            (None, BottomRow::Wide(v)) => StoredRow::Plain(v.into_boxed_slice()),
            (None, row @ BottomRow::Narrow(_)) => StoredRow::Plain(row.widened().into()),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.view().len()
    }

    /// `true` for the row of a matrix without columns.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of payload: one per entry as deltas, four as plain.
    pub fn bytes(&self) -> usize {
        match self {
            StoredRow::Delta(v) => std::mem::size_of_val::<[i8]>(v),
            StoredRow::Plain(v) => std::mem::size_of_val::<[Score]>(v),
        }
    }

    /// Borrow the row in its stored form.
    pub fn view(&self) -> RowRef<'_> {
        match self {
            StoredRow::Delta(v) => RowRef::Delta(v),
            StoredRow::Plain(v) => RowRef::Wide(v),
        }
    }

    /// The row in `i32`, decoded (the wire's form).
    pub fn widened(&self) -> Vec<Score> {
        self.view().widened()
    }
}

impl PartialEq<Vec<Score>> for StoredRow {
    fn eq(&self, other: &Vec<Score>) -> bool {
        self.view() == RowRef::Wide(other)
    }
}

/// The one decoder of [`StoredRow::Delta`]: its entries, a running sum
/// of the deltas from 0. Readers fuse it with the loop that reads them.
pub fn delta_entries(deltas: &[i8]) -> impl Iterator<Item = Score> + '_ {
    deltas.iter().scan(0, |sum: &mut Score, &d| {
        *sum += Score::from(d);
        Some(*sum)
    })
}

/// A borrowed [`BottomRow`] or [`StoredRow`], or any `i32` row.
#[derive(Debug, Clone, Copy)]
pub enum RowRef<'a> {
    /// `i16` entries.
    Narrow(&'a [i16]),
    /// `i32` entries.
    Wide(&'a [Score]),
    /// `i8` deltas from the left neighbour, the first from 0
    /// ([`delta_entries`]).
    Delta(&'a [i8]),
}

impl RowRef<'_> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        match *self {
            RowRef::Narrow(v) => v.len(),
            RowRef::Wide(v) => v.len(),
            RowRef::Delta(v) => v.len(),
        }
    }

    /// `true` for the row of a matrix without columns.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row in `i32`, copied or decoded.
    pub fn widened(&self) -> Vec<Score> {
        match *self {
            RowRef::Narrow(v) => v.iter().map(|&x| x.into()).collect(),
            RowRef::Wide(v) => v.to_vec(),
            RowRef::Delta(v) => delta_entries(v).collect(),
        }
    }
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.widened() == other.widened()
    }
}

impl<'a> From<&'a BottomRow> for RowRef<'a> {
    fn from(row: &'a BottomRow) -> Self {
        row.view()
    }
}

impl<'a> From<&'a StoredRow> for RowRef<'a> {
    fn from(row: &'a StoredRow) -> Self {
        row.view()
    }
}

impl<'a> From<&'a [Score]> for RowRef<'a> {
    fn from(row: &'a [Score]) -> Self {
        RowRef::Wide(row)
    }
}

impl<'a> From<&'a Vec<Score>> for RowRef<'a> {
    fn from(row: &'a Vec<Score>) -> Self {
        RowRef::Wide(row)
    }
}

impl<'a, const N: usize> From<&'a [Score; N]> for RowRef<'a> {
    fn from(row: &'a [Score; N]) -> Self {
        RowRef::Wide(row)
    }
}

#[inline(always)]
pub(crate) fn max3(a: Score, b: Score, c: Score) -> Score {
    a.max(b).max(c)
}
