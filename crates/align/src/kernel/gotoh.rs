//! The `O(1)`-per-cell score pass — the paper's Figure 3.
//!
//! Computes the local alignment matrix row by row keeping only the
//! previous row and the per-column vertical-gap maxima `MaxY[x]` — each
//! row is one [`super::row`] step, which owns the per-row horizontal-gap
//! maximum `MaxX` — and returns the bottom row (all the top-alignment
//! machinery ever needs, per Appendix A).

use crate::kernel::row::Body;
use crate::kernel::{LastRow, Sides};
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
        mut m: Vec<Score>,
        maxy: &mut [Score],
        capture_rows: &[usize],
        capture: &mut dyn FnMut(usize, &[Score], &[Score]),
    ) -> LastRow {
        let rows = self.rows.len();
        let cols = self.cols();
        if rows == 0 || cols == 0 {
            return LastRow::empty(cols);
        }
        assert!(start_row <= rows, "resume row {start_row} past {rows} rows");
        assert_eq!(m.len(), cols, "resume state width mismatch");
        assert_eq!(maxy.len(), cols, "resume state width mismatch");
        debug_assert!(capture_rows.windows(2).all(|w| w[0] < w[1]));

        let body = Body::selected();
        let mut next = vec![0 as Score; cols];
        let mut best = 0;
        let mut best_row = None;
        let mut next_capture = 0usize;

        for y in start_row..rows {
            while next_capture < capture_rows.len() && capture_rows[next_capture] == y {
                capture(y, &m, maxy);
                next_capture += 1;
            }
            // The virtual zero column seeds the row.
            let mut row_best = body.step(&m, 0, &mut next, maxy, self.scores(y), self.gaps);
            let mut lost_best = false;
            for hit in mask.row_hits(y, 0, cols) {
                lost_best |= next[hit] == row_best;
                next[hit] = 0;
            }
            std::mem::swap(&mut m, &mut next);
            // Only a zeroed row maximum costs a scan; the best cell's
            // column is never located (see `LastRow::best_row`).
            if lost_best && row_best > best {
                row_best = m.iter().copied().max().unwrap_or(0);
            }
            if row_best > best {
                best = row_best;
                best_row = Some(y);
            }
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
}
