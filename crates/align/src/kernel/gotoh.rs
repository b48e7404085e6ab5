//! The `O(1)`-per-cell score pass — the paper's Figure 3.
//!
//! Computes the local alignment matrix row by row keeping only the
//! previous row and the per-column vertical-gap maxima `MaxY[x]` — each
//! row is one [`super::row`] step, which owns the per-row horizontal-gap
//! maximum `MaxX` — and returns the bottom row (all the top-alignment
//! machinery ever needs, per Appendix A).
//!
//! The loop picks its body per sweep: the 16 × `i16` one where [`Sides`]
//! carry an `i16` profile and [`NarrowBody::exact_for`] holds, else the
//! `i32` one. Both give the same rows and state bit for bit; the `i16`
//! state is widened back at every capture and at the end.

use crate::kernel::row::{Body, NarrowBody};
use crate::kernel::{BottomRow, LastRow, Sides};
use crate::mask::CellMask;
use crate::profile::QueryProfile;
use crate::scoring::Scoring;
use crate::{Score, NEG_INF};

/// Score-only local alignment of `a` (vertical, rows) against `b`
/// (horizontal, columns) under `scoring`, with `mask`ed cells forced to
/// zero. Linear memory: `O(cols)`.
///
/// Builds a throwaway profile of `b`; to sweep many matrices against
/// one sequence, build the profile once and use [`Sides::last_row`].
///
/// ```
/// use repro_align::{sw_last_row, NoMask, Scoring, Seq};
///
/// // The paper's §2.1 worked example scores 6.
/// let v = Seq::dna("ATTGCGA").unwrap();
/// let h = Seq::dna("CTTACAGA").unwrap();
/// let r = sw_last_row(v.codes(), h.codes(), &Scoring::dna_example(), NoMask);
/// assert_eq!(r.best, 6);
/// assert_eq!(r.row, vec![0, 0, 0, 2, 0, 4, 3, 6]); // Figure 2's last row
/// ```
pub fn sw_last_row<M: CellMask>(a: &[u8], b: &[u8], scoring: &Scoring, mask: M) -> LastRow {
    let profile = QueryProfile::new_wide(scoring, b);
    Sides::whole(a, &profile, scoring.gaps).last_row(mask)
}

/// Convenience wrapper returning only the best score in the matrix.
pub fn sw_score<M: CellMask>(a: &[u8], b: &[u8], scoring: &Scoring, mask: M) -> Score {
    sw_last_row(a, b, scoring, mask).best
}

/// [`Sides::last_row_resume`] over a throwaway profile of `b`.
#[allow(clippy::too_many_arguments)] // mirrors the kernel's full state
#[allow(clippy::type_complexity)] // the capture hook signature IS the contract
pub fn sw_last_row_resume<M: CellMask>(
    a: &[u8],
    b: &[u8],
    scoring: &Scoring,
    mask: M,
    start_row: usize,
    m: Vec<Score>,
    maxy: &mut [Score],
    capture_rows: &[usize],
    capture: &mut dyn FnMut(usize, &[Score], &[Score]),
) -> LastRow {
    let profile = QueryProfile::new_wide(scoring, b);
    Sides::whole(a, &profile, scoring.gaps).last_row_resume(
        mask,
        start_row,
        m,
        maxy,
        capture_rows,
        capture,
    )
}

impl Sides<'_> {
    /// Score-only sweep of the whole matrix from fresh state: the
    /// bottom row, with `mask`ed cells forced to zero.
    pub fn last_row<M: CellMask>(&self, mask: M) -> LastRow {
        let cols = self.cols();
        // m[x] holds M[y−1][x] while row y is being computed.
        let m = vec![0 as Score; cols];
        let mut maxy = vec![NEG_INF; cols];
        self.last_row_resume(mask, 0, m, &mut maxy, &[], &mut |_, _, _| {})
    }

    /// [`Self::last_row`] restarted mid-matrix from checkpointed
    /// inter-row state — the incremental-realignment entry point.
    ///
    /// `m` and `maxy` must hold the kernel's exact state after rows
    /// `0..start_row` (for `start_row == 0`: all zeros and all
    /// [`NEG_INF`]); the sweep then replays rows `start_row..rows`
    /// **bit-identically** to the corresponding tail of a full sweep — the
    /// per-row `MaxX` and diagonal reset each row, so `(m, maxy)` is the
    /// complete inter-row state. `m` is consumed (the returned bottom row
    /// is it or a buffer of its size); `maxy` is updated in place so the
    /// caller can recycle it.
    ///
    /// `capture_rows` (strictly ascending, each in `start_row..rows`) asks
    /// for state snapshots: `capture(y, m, maxy)` runs *before* row `y` is
    /// computed, i.e. with the state after rows `0..y` — exactly what a
    /// later call needs to resume at `start_row = y`.
    ///
    /// Caveats versus a full sweep: `best`/`best_row` only cover the swept
    /// rows, and `cells` counts only `(rows − start_row) × cols`. The
    /// realignment machinery consumes only `row`/`best_in_row`/
    /// `best_in_row_col`/`cells`, which are exact.
    #[allow(clippy::type_complexity)] // the capture hook signature IS the contract
    pub fn last_row_resume<M: CellMask>(
        &self,
        mask: M,
        start_row: usize,
        m: Vec<Score>,
        maxy: &mut [Score],
        capture_rows: &[usize],
        capture: &mut dyn FnMut(usize, &[Score], &[Score]),
    ) -> LastRow {
        self.last_row_at(mask, start_row, m, maxy, (capture_rows, capture), None)
    }

    /// [`Self::last_row`] plus, row by row, an upper bound on each row's
    /// maximum (its value before the mask's zeros): what
    /// [`crate::traceback_in_box`] stops its reverse pass by.
    pub fn last_row_maxima<M: CellMask>(&self, mask: M) -> (LastRow, Vec<Score>) {
        let cols = self.cols();
        let mut maxy = vec![NEG_INF; cols];
        let mut maxima = Vec::with_capacity(self.rows.len());
        let last = self.last_row_at(
            mask,
            0,
            vec![0; cols],
            &mut maxy,
            (&[], &mut |_, _, _| {}),
            Some(&mut maxima),
        );
        (last, maxima)
    }

    /// The sweep behind [`Self::last_row_resume`] and
    /// [`Self::last_row_maxima`].
    #[allow(clippy::type_complexity)]
    fn last_row_at<M: CellMask>(
        &self,
        mask: M,
        start_row: usize,
        mut m: Vec<Score>,
        maxy: &mut [Score],
        captures: (&[usize], &mut dyn FnMut(usize, &[Score], &[Score])),
        maxima: Option<&mut Vec<Score>>,
    ) -> LastRow {
        let (rows, cols) = (self.rows.len(), self.cols());
        if rows == 0 || cols == 0 {
            return LastRow::empty(cols);
        }
        let (capture_rows, capture) = captures;
        let (row16, best, best_row) = self.resume_rows(
            mask,
            start_row,
            &mut m,
            maxy,
            (capture_rows, capture),
            maxima,
        );
        if let Some(m16) = row16 {
            widen(&mut m, &m16);
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
            cells: (rows - start_row) as u64 * cols as u64,
        }
    }

    /// [`Self::last_row_resume`]'s bottom row and cell count only, at the
    /// width the sweep ran: the `i16` body hands its row over as it is,
    /// never widened.
    #[allow(clippy::type_complexity)] // the capture hook signature IS the contract
    pub fn bottom_row_resume<M: CellMask>(
        &self,
        mask: M,
        start_row: usize,
        mut m: Vec<Score>,
        maxy: &mut [Score],
        capture_rows: &[usize],
        capture: &mut dyn FnMut(usize, &[Score], &[Score]),
    ) -> (BottomRow, u64) {
        let (rows, cols) = (self.rows.len(), self.cols());
        if rows == 0 || cols == 0 {
            return (BottomRow::Wide(vec![0; cols]), 0);
        }
        let (row16, _, _) =
            self.resume_rows(mask, start_row, &mut m, maxy, (capture_rows, capture), None);
        let row = row16.map_or(BottomRow::Wide(m), BottomRow::Narrow);
        (row, (rows - start_row) as u64 * cols as u64)
    }

    /// The sweep behind both resume forms, on a matrix with rows and
    /// columns: `Some(row)` when the `i16` body ran (`m` is then stale
    /// but for captures), else the row is left in `m`; plus the best
    /// over the swept rows and its first row. `maxy` leaves in `i32`;
    /// `maxima`, if given, receives each swept row's maximum bound.
    #[allow(clippy::type_complexity)]
    fn resume_rows<M: CellMask>(
        &self,
        mask: M,
        start_row: usize,
        m: &mut Vec<Score>,
        maxy: &mut [Score],
        (capture_rows, capture): (&[usize], &mut dyn FnMut(usize, &[Score], &[Score])),
        maxima: Option<&mut Vec<Score>>,
    ) -> (Option<Vec<i16>>, Score, Option<usize>) {
        let (rows, cols) = (self.rows.len(), self.cols());
        assert!(start_row <= rows, "resume row {start_row} past {rows} rows");
        assert_eq!(m.len(), cols, "resume state width mismatch");
        assert_eq!(maxy.len(), cols, "resume state width mismatch");
        debug_assert!(capture_rows.windows(2).all(|w| w[0] < w[1]));

        match self.narrow_body() {
            Some((body, profile)) => {
                // Every value fits (`exact_for`) but a `MaxY` no row has
                // advanced yet, `NEG_INF`, which maps to `i16::MIN`.
                debug_assert!(m.iter().chain(&*maxy).all(|&v| v < i16::MAX.into()));
                let narrow = |v: &[Score]| -> Vec<i16> {
                    v.iter().map(|&v| v.max(i16::MIN.into()) as i16).collect()
                };
                let (mut m16, mut maxy16) = (narrow(m), narrow(maxy));
                let (best, best_row) = self.sweep_rows(
                    mask,
                    start_row,
                    (&mut m16, &mut maxy16),
                    capture_rows,
                    &mut |y, m16, maxy16| {
                        widen(m, m16);
                        widen(maxy, maxy16);
                        capture(y, m, maxy);
                    },
                    |y, prev, out, my| body.step(prev, out, my, profile.row(self.rows[y], self.q0)),
                    maxima,
                );
                widen(maxy, &maxy16);
                (Some(m16), best, best_row)
            }
            None => {
                let body = Body::selected();
                // The virtual zero column seeds the row.
                let step = |y, prev: &_, out: &mut _, my: &mut _| {
                    body.step(prev, 0, out, my, self.scores(y), self.gaps)
                };
                let (best, best_row) = self.sweep_rows(
                    mask,
                    start_row,
                    (m, maxy),
                    capture_rows,
                    capture,
                    step,
                    maxima,
                );
                (None, best, best_row)
            }
        }
    }

    /// The 16 × `i16` row body and profile [`Self::last_row_resume`] runs
    /// on this matrix: where the process has the body, the sides carry an
    /// `i16` profile and [`NarrowBody::exact_for`] holds.
    pub fn narrow_body(&self) -> Option<(NarrowBody, &QueryProfile<i16>)> {
        let profile = self.narrow?;
        let body = Body::selected().narrow(self.gaps)?;
        let pairs = self.rows.len().min(self.cols());
        NarrowBody::exact_for(profile.peak(), pairs, self.gaps).then_some((body, profile))
    }

    /// The row loop at either element width, from the state `(m, maxy)`
    /// at `start_row`, `step(y, prev, out, maxy)` computing row `y`:
    /// returns the best over the swept rows and its first row, and
    /// pushes each row's maximum (or the bound the step returned, before
    /// the mask's zeros) onto `maxima`.
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn sweep_rows<T: Copy + Ord + Default + Into<Score>>(
        &self,
        mask: impl CellMask,
        start_row: usize,
        (m, maxy): (&mut Vec<T>, &mut [T]),
        capture_rows: &[usize],
        capture: &mut dyn FnMut(usize, &[T], &[T]),
        step: impl Fn(usize, &[T], &mut [T], &mut [T]) -> T,
        mut maxima: Option<&mut Vec<Score>>,
    ) -> (Score, Option<usize>) {
        let cols = m.len();
        let mut next = vec![T::default(); cols];
        let (mut best, mut best_row) = (T::default(), None);
        let mut next_capture = 0usize;

        for y in start_row..self.rows.len() {
            while next_capture < capture_rows.len() && capture_rows[next_capture] == y {
                capture(y, m, maxy);
                next_capture += 1;
            }
            let mut row_best = step(y, m, &mut next, maxy);
            let mut lost_best = false;
            for hit in mask.row_hits(y, 0, cols) {
                lost_best |= next[hit] == row_best;
                next[hit] = T::default();
            }
            std::mem::swap(m, &mut next);
            // Only a zeroed row maximum costs a scan; the best cell's
            // column is never located (see `LastRow::best_row`).
            if lost_best && row_best > best {
                row_best = m.iter().copied().max().unwrap_or_default();
            }
            if let Some(maxima) = maxima.as_deref_mut() {
                maxima.push(row_best.into());
            }
            if row_best > best {
                best = row_best;
                best_row = Some(y);
            }
        }
        (best.into(), best_row)
    }
}

/// The `i16` row state back in `i32`, `i16::MIN` as [`NEG_INF`].
fn widen(to: &mut [Score], from: &[i16]) {
    for (t, &f) in to.iter_mut().zip(from) {
        *t = if f == i16::MIN { NEG_INF } else { f.into() };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::full::sw_full;
    use crate::mask::{NoMask, SetMask};
    use crate::seq::Seq;

    fn paper_inputs() -> (Seq, Seq, Scoring) {
        (
            Seq::dna("ATTGCGA").unwrap(),  // vertical
            Seq::dna("CTTACAGA").unwrap(), // horizontal
            Scoring::dna_example(),
        )
    }

    #[test]
    fn paper_example_best_score_is_six() {
        let (v, h, s) = paper_inputs();
        let r = sw_last_row(v.codes(), h.codes(), &s, NoMask);
        assert_eq!(r.best, 6);
        // The maximum is achieved at the final A–A pair: row 6, col 7.
        assert_eq!(r.best_row, Some(6));
        let full = sw_full(v.codes(), h.codes(), &s, NoMask);
        assert_eq!(full.best_cell(), Some((6, 7, 6)));
        assert_eq!(r.cells, 7 * 8);
    }

    #[test]
    fn paper_example_bottom_row() {
        let (v, h, s) = paper_inputs();
        let r = sw_last_row(v.codes(), h.codes(), &s, NoMask);
        // Figure 2's final row (A), recomputed by hand from the recurrence:
        assert_eq!(r.row, vec![0, 0, 0, 2, 0, 4, 3, 6]);
        assert_eq!(r.best_in_row, 6);
        assert_eq!(r.best_in_row_col, Some(7));
    }

    #[test]
    fn empty_inputs() {
        let s = Scoring::dna_example();
        let a = Seq::dna("ACGT").unwrap();
        let e = Seq::dna("").unwrap();
        assert_eq!(sw_score(a.codes(), e.codes(), &s, NoMask), 0);
        assert_eq!(sw_score(e.codes(), a.codes(), &s, NoMask), 0);
        let r = sw_last_row(e.codes(), a.codes(), &s, NoMask);
        assert_eq!(r.row, vec![0, 0, 0, 0]);
        assert_eq!(r.cells, 0);
    }

    #[test]
    fn single_residue_match() {
        let s = Scoring::dna_example();
        let a = Seq::dna("A").unwrap();
        let r = sw_last_row(a.codes(), a.codes(), &s, NoMask);
        assert_eq!(r.best, 2);
        assert_eq!(r.best_row, Some(0));
        let full = sw_full(a.codes(), a.codes(), &s, NoMask);
        assert_eq!(full.best_cell(), Some((0, 0, 2)));
    }

    #[test]
    fn single_residue_mismatch_clamps_to_zero() {
        let s = Scoring::dna_example();
        let a = Seq::dna("A").unwrap();
        let c = Seq::dna("C").unwrap();
        let r = sw_last_row(a.codes(), c.codes(), &s, NoMask);
        assert_eq!(r.best, 0);
        assert_eq!(r.best_row, None);
    }

    #[test]
    fn identical_sequences_score_perfectly() {
        let s = Scoring::dna_example();
        let a = Seq::dna("ACGTACGTAC").unwrap();
        let r = sw_last_row(a.codes(), a.codes(), &s, NoMask);
        assert_eq!(r.best, 2 * 10);
        // Perfect diagonal ends at the last cell.
        assert_eq!(r.best_row, Some(9));
        let full = sw_full(a.codes(), a.codes(), &s, NoMask);
        assert_eq!(full.best_cell(), Some((9, 9, 20)));
    }

    #[test]
    fn masking_the_best_cell_lowers_the_score() {
        let (v, h, s) = paper_inputs();
        let mask = SetMask::from_cells([(6, 7)]); // the A–A pair worth 6
        let r = sw_last_row(v.codes(), h.codes(), &s, &mask);
        assert!(r.best < 6, "masking the optimum must reduce the best score");
        // The remaining best is the prefix of the same alignment ending at
        // its C–C pair: TTGC / TTAC = 3 matches, 1 mismatch = 6 − 1 = 5,
        // sitting at cell (4, 4) of Figure 2.
        assert_eq!(r.best, 5);
        assert_eq!(r.best_row, Some(4));
        let full = sw_full(v.codes(), h.codes(), &s, &mask);
        assert_eq!(full.best_cell(), Some((4, 4, 5)));
    }

    #[test]
    fn masking_everything_zeroes_the_matrix() {
        struct All;
        impl CellMask for All {
            fn is_overridden(&self, _: usize, _: usize) -> bool {
                true
            }
        }
        let (v, h, s) = paper_inputs();
        let r = sw_last_row(v.codes(), h.codes(), &s, All);
        assert_eq!(r.best, 0);
        assert!(r.row.iter().all(|&v| v == 0));
    }

    #[test]
    fn mask_cascades_downstream() {
        // Masking a mid-path cell must lower cells that depended on it,
        // the "cascade of entries towards the right and the bottom" (§3).
        let s = Scoring::dna_example();
        let a = Seq::dna("ACGTACGT").unwrap();
        let unmasked = sw_last_row(a.codes(), a.codes(), &s, NoMask);
        let mask = SetMask::from_cells([(3, 3)]); // break the main diagonal
        let masked = sw_last_row(a.codes(), a.codes(), &s, &mask);
        assert!(masked.best < unmasked.best);
        for x in 3..8 {
            assert!(
                masked.row[x] <= unmasked.row[x],
                "masked bottom row may never exceed the unmasked one"
            );
        }
    }

    #[test]
    fn scores_are_never_negative() {
        let s = Scoring::protein_default();
        let a = Seq::protein("WWWW").unwrap();
        let b = Seq::protein("PPPP").unwrap();
        let r = sw_last_row(a.codes(), b.codes(), &s, NoMask);
        assert_eq!(r.best, 0);
        assert!(r.row.iter().all(|&v| v >= 0));
    }

    /// A tiny xorshift so the differential tests need no dependencies.
    fn rng(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    fn random_dna(len: usize, seed: &mut u64) -> Seq {
        let text: String = (0..len)
            .map(|_| ['A', 'C', 'G', 'T'][(rng(seed) % 4) as usize])
            .collect();
        Seq::dna(&text).unwrap()
    }

    #[test]
    fn resume_from_scratch_matches_full_sweep_exactly() {
        let (v, h, s) = paper_inputs();
        let cols = h.len();
        let mut maxy = vec![NEG_INF; cols];
        let full = sw_last_row(v.codes(), h.codes(), &s, NoMask);
        let resumed = sw_last_row_resume(
            v.codes(),
            h.codes(),
            &s,
            NoMask,
            0,
            vec![0; cols],
            &mut maxy,
            &[],
            &mut |_, _, _| {},
        );
        assert_eq!(resumed.best, full.best);
        assert_eq!(resumed.best_row, full.best_row);
        assert_eq!(resumed.row, full.row);
        assert_eq!(resumed.best_in_row, full.best_in_row);
        assert_eq!(resumed.best_in_row_col, full.best_in_row_col);
        assert_eq!(resumed.cells, full.cells);
    }

    /// The load-bearing property: capture the state at every row
    /// boundary, then resume from each one — every resumed sweep must
    /// reproduce the full sweep's bottom row bit-for-bit, across random
    /// sequences and random masks.
    #[test]
    fn resume_from_any_captured_row_is_bit_identical() {
        let s = Scoring::dna_example();
        let mut seed = 0x9e3779b97f4a7c15u64;
        for case in 0..12 {
            let a = random_dna(5 + (case % 5) * 7, &mut seed);
            let b = random_dna(4 + (case % 7) * 5, &mut seed);
            let rows = a.len();
            let cols = b.len();
            let mask = SetMask::from_cells((0..rows).filter_map(|y| {
                if rng(&mut seed).is_multiple_of(3) {
                    Some((y, (rng(&mut seed) as usize) % cols))
                } else {
                    None
                }
            }));
            let full = sw_last_row(a.codes(), b.codes(), &s, &mask);
            // Capture the state before every row.
            let capture_rows: Vec<usize> = (1..rows).collect();
            let mut snaps: Vec<(usize, Vec<Score>, Vec<Score>)> = Vec::new();
            let mut maxy = vec![NEG_INF; cols];
            let from_zero = sw_last_row_resume(
                a.codes(),
                b.codes(),
                &s,
                &mask,
                0,
                vec![0; cols],
                &mut maxy,
                &capture_rows,
                &mut |y, m, my| snaps.push((y, m.to_vec(), my.to_vec())),
            );
            assert_eq!(from_zero.row, full.row, "case {case}");
            assert_eq!(snaps.len(), rows - 1);
            for (y, m, my) in snaps {
                let mut maxy = my.clone();
                let resumed = sw_last_row_resume(
                    a.codes(),
                    b.codes(),
                    &s,
                    &mask,
                    y,
                    m,
                    &mut maxy,
                    &[],
                    &mut |_, _, _| {},
                );
                assert_eq!(resumed.row, full.row, "case {case} resume at {y}");
                assert_eq!(resumed.best_in_row, full.best_in_row);
                assert_eq!(resumed.best_in_row_col, full.best_in_row_col);
                assert_eq!(resumed.cells, (rows - y) as u64 * cols as u64);
            }
        }
    }

    #[test]
    fn resume_at_rows_sweeps_nothing_and_returns_the_state_row() {
        let (v, h, s) = paper_inputs();
        let full = sw_last_row(v.codes(), h.codes(), &s, NoMask);
        let mut maxy = vec![NEG_INF; h.len()];
        // Sweep everything once to obtain the final state…
        let rows = v.len();
        let swept = sw_last_row_resume(
            v.codes(),
            h.codes(),
            &s,
            NoMask,
            0,
            vec![0; h.len()],
            &mut maxy,
            &[],
            &mut |_, _, _| {},
        );
        // …then "resume" at the very end: zero cells, same bottom row.
        let resumed = sw_last_row_resume(
            v.codes(),
            h.codes(),
            &s,
            NoMask,
            rows,
            swept.row,
            &mut maxy,
            &[],
            &mut |_, _, _| {},
        );
        assert_eq!(resumed.row, full.row);
        assert_eq!(resumed.cells, 0);
    }

    #[test]
    fn long_gap_is_bridged_when_profitable() {
        // Two strong blocks separated by junk on one side only:
        // bridging pays gap(4) = 2 + 4 = 6, keeps 2*10 = 20 of matches.
        let s = Scoring::dna_example();
        let a = Seq::dna("ACGTACGTAC").unwrap();
        let b = Seq::dna("ACGTATTTTCGTAC").unwrap();
        let r = sw_last_row(a.codes(), b.codes(), &s, NoMask);
        // matches ACGTA + CGTAC = 10 matches = 20 minus gap(4) = 6 → 14.
        assert_eq!(r.best, 14);
    }

    /// `rows` against `cols` with both profiles built, and the same sides
    /// with the `i16` profile withheld (the `i32` body).
    fn both_sides<'a>(
        rows: &'a [u8],
        wide: &'a QueryProfile<Score>,
        narrow: &'a QueryProfile<i16>,
        s: &Scoring,
    ) -> (Sides<'a>, Sides<'a>) {
        let plain = Sides::whole(rows, wide, s.gaps);
        let with_narrow = Sides {
            narrow: Some(narrow),
            ..plain
        };
        (with_narrow, plain)
    }

    /// A full sweep capturing before every row: the result, the final
    /// `MaxY` and every capture.
    #[allow(clippy::type_complexity)]
    fn sweep_capturing(
        sides: &Sides,
        mask: &SetMask,
    ) -> (LastRow, Vec<Score>, Vec<(usize, Vec<Score>, Vec<Score>)>) {
        let cols = sides.cols();
        let capture_rows: Vec<usize> = (0..sides.rows.len()).collect();
        let mut snaps = Vec::new();
        let mut maxy = vec![NEG_INF; cols];
        let last = sides.last_row_resume(
            mask,
            0,
            vec![0; cols],
            &mut maxy,
            &capture_rows,
            &mut |y, m, my| snaps.push((y, m.to_vec(), my.to_vec())),
        );
        (last, maxy, snaps)
    }

    /// The selection flips exactly where `peak · min(rows, cols) + 15 ·
    /// ext` reaches `i16::MAX`: 1 213 · 27 + 15 = 32 766 runs the `i16`
    /// body, 27 → 28 pairs does not. At the edge the best cell is 32 751,
    /// and both bodies give the same result, `MaxY` and captures.
    #[test]
    fn narrow_selection_flips_at_the_bound_and_stays_bit_equal() {
        let s = Scoring::new(
            crate::ExchangeMatrix::match_mismatch(crate::Alphabet::Dna, 1213, -1),
            crate::GapPenalties::new(2, 1),
        );
        let has_narrow = Body::selected().narrow(s.gaps).is_some();
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        for (rows, cols) in [(27, 27), (27, 40), (40, 27), (28, 28), (28, 40), (40, 28)] {
            for case in 0..3 {
                let (a, b) = if case == 0 {
                    (
                        Seq::dna(&"A".repeat(rows)).unwrap(),
                        Seq::dna(&"A".repeat(cols)).unwrap(),
                    )
                } else {
                    (random_dna(rows, &mut seed), random_dna(cols, &mut seed))
                };
                // Case 0 is unmasked: its best cell is the whole diagonal.
                let hits = (0..rows).filter(|y| case > 0 && y % 5 == case);
                let mask = SetMask::from_cells(hits.map(|y| (y, (y * 3) % cols)));
                let wide = QueryProfile::new_wide(&s, b.codes());
                let narrow = QueryProfile::new_narrow(&s, b.codes()).unwrap();
                let (with_narrow, plain) = both_sides(a.codes(), &wide, &narrow, &s);
                assert_eq!(
                    with_narrow.narrow_body().is_some(),
                    has_narrow && rows.min(cols) <= 27
                );
                assert!(plain.narrow_body().is_none());
                let got = sweep_capturing(&with_narrow, &mask);
                let want = sweep_capturing(&plain, &mask);
                assert_eq!(got, want, "{rows} x {cols}, case {case}");
                if case == 0 && rows.min(cols) == 27 {
                    assert_eq!(got.0.best, 32_751);
                }
            }
        }
    }

    /// A checkpoint captured by one body restores into the other, both
    /// ways, at every row: the resumed sweep equals the uninterrupted
    /// one (bottom row, row maxima, cells) and leaves the same `MaxY`.
    #[test]
    fn checkpoints_cross_between_the_narrow_and_wide_bodies() {
        let s = Scoring::dna_example();
        let mut seed = 0x6a09_e667_f3bc_c908u64;
        for case in 0..10 {
            let a = random_dna(3 + case * 5, &mut seed);
            let b = random_dna(1 + case * 7, &mut seed);
            let (rows, cols) = (a.len(), b.len());
            let mask = SetMask::from_cells((0..rows).filter_map(|y| {
                if rng(&mut seed).is_multiple_of(3) {
                    Some((y, rng(&mut seed) as usize % cols))
                } else {
                    None
                }
            }));
            let wide = QueryProfile::new_wide(&s, b.codes());
            let narrow = QueryProfile::new_narrow(&s, b.codes()).unwrap();
            let (with_narrow, plain) = both_sides(a.codes(), &wide, &narrow, &s);
            let (full, full_maxy, snaps) = sweep_capturing(&plain, &mask);
            assert_eq!(sweep_capturing(&with_narrow, &mask).2, snaps, "case {case}");
            for (from, to) in [(&with_narrow, &plain), (&plain, &with_narrow)] {
                let (_, _, caps) = sweep_capturing(from, &mask);
                for (y, m, mut my) in
                    caps.into_iter()
                        .chain([(rows, full.row.clone(), full_maxy.clone())])
                {
                    let resumed = to.last_row_resume(&mask, y, m, &mut my, &[], &mut |_, _, _| {});
                    assert_eq!(resumed.row, full.row, "case {case}, resume at {y}");
                    assert_eq!(resumed.best_in_row, full.best_in_row);
                    assert_eq!(resumed.best_in_row_col, full.best_in_row_col);
                    assert_eq!(resumed.cells, ((rows - y) * cols) as u64);
                    assert_eq!(my, full_maxy, "case {case}, MaxY after resuming at {y}");
                }
            }
        }
    }
}
