//! Triangular self-comparison sweep: the seed-bound kernel.
//!
//! Sweeps the strict upper triangle `{(i, j) : i < j < m}` of a
//! sequence against itself with exactly the [`super::gotoh`]
//! recurrence. One such sweep dominates **every** split matrix at once,
//! cell by cell: a split-`r` cell `(y, x)` aligns residues `(y, x + r)`
//! with `y < r ≤ x + r`, so the same residue pair exists in the triangle
//! domain under the same override mask, and every predecessor the split
//! matrix offers that cell is also offered (with a value at least as
//! large) by the triangle — the triangle merely adds predecessors, and
//! the recurrence is monotone in its inputs. By induction,
//! `H_tri(i, j) ≥ H_split_r(i, j − r)` for every `r` with `i < r ≤ j`.
//!
//! `repro-core::seed` folds the rows two ways. Row `r − 1` alone
//! (`max_{j ≥ r} H_tri(r − 1, j)`) dominates split `r`'s **bottom row**
//! — the only row a queued task score reads — but not the split
//! matrix's overall maximum. The running column maxima over rows
//! `0..r` (`max {H_tri(i, j) : i < r ≤ j}`) dominate the whole split
//! matrix; swept over the *reversed* sequence, that fold bounds every
//! path *starting* in the mirrored split's rectangle. The tests below
//! check the cell-wise domination through the column fold, the
//! stronger of the two statements.
//!
//! The sweep is resumable from any row boundary, mirroring
//! [`super::gotoh::sw_last_row_resume`]: `(m, maxy)` after rows
//! `0..i` is the complete inter-row state (the per-row `MaxX` and
//! diagonal reset each row), so a bound refresh under a grown override
//! triangle can restart below the dirty row instead of resweeping the
//! whole triangle.

use crate::kernel::row::Body;
use crate::kernel::Sides;
use crate::mask::CellMask;
use crate::profile::QueryProfile;
use crate::scoring::Scoring;
use crate::{Score, NEG_INF};

/// [`Sides::tri_self_sweep_resume`] over a throwaway profile of `codes`.
#[allow(clippy::type_complexity)] // the row hook signature IS the contract
pub fn tri_self_sweep_resume<M: CellMask>(
    codes: &[u8],
    scoring: &Scoring,
    mask: M,
    start_row: usize,
    m: &mut [Score],
    maxy: &mut [Score],
    on_row: &mut dyn FnMut(usize, &[Score], &[Score]),
) -> u64 {
    let profile = QueryProfile::new_wide(scoring, codes);
    Sides::whole(codes, &profile, scoring.gaps)
        .tri_self_sweep_resume(mask, start_row, m, maxy, on_row)
}

impl Sides<'_> {
    /// The triangular self-comparison sweep, resumable: `rows` against
    /// the profile of that same sequence (`q0 == 0`).
    ///
    /// `mask` is queried in **pair coordinates** (row `i`, columns
    /// `j ∈ (i, len)`, both positions into the sequence), matching the
    /// override triangle's convention.
    ///
    /// State contract (identical in shape to [`Self::last_row_resume`]):
    /// on entry `m[j]` must hold `H(start_row − 1, j)` for
    /// `j ≥ start_row` (for `start_row == 0`: all zeros) and `maxy` the
    /// per-column gap maxima after rows `0..start_row` (for
    /// `start_row == 0`: all [`NEG_INF`]). Entries at columns
    /// `j < start_row` are never read. Row `i` computes
    /// `m[j] = H(i, j)` for `j ∈ (i, len)`; columns `j ≤ i` are left
    /// untouched, which keeps `m[i]` holding `H(i − 1, i)` — the
    /// diagonal seed of row `i`.
    ///
    /// After each row `i` completes, `on_row(i, &m, &maxy)` fires with
    /// the exact resume state for `start_row = i + 1`; callers use it to
    /// fold row or column maxima into per-split bounds and to snapshot
    /// checkpoints.
    ///
    /// Returns the number of cells computed.
    #[allow(clippy::type_complexity)] // the row hook signature IS the contract
    pub fn tri_self_sweep_resume<M: CellMask>(
        &self,
        mask: M,
        start_row: usize,
        m: &mut [Score],
        maxy: &mut [Score],
        on_row: &mut dyn FnMut(usize, &[Score], &[Score]),
    ) -> u64 {
        let len = self.rows.len();
        assert_eq!(self.q0, 0, "the triangular sweep covers the whole profile");
        assert_eq!(self.profile.len(), len, "profile of another sequence");
        assert_eq!(m.len(), len, "tri resume state width mismatch");
        assert_eq!(maxy.len(), len, "tri resume state width mismatch");
        assert!(start_row <= len, "resume row {start_row} past {len} rows");

        let body = Body::selected();
        let mut next = vec![0 as Score; len];
        let mut cells: u64 = 0;

        for i in start_row..len {
            let j0 = i + 1;
            // m[i] is H(i − 1, i): in-domain for i ≥ 1 (row i − 1 wrote
            // column i and no later row touches it); the untouched
            // initial zero is the virtual boundary row for i == 0.
            let next = &mut next[j0..];
            body.step(
                &m[j0..],
                m[i],
                next,
                &mut maxy[j0..],
                &self.scores(i)[j0..],
                self.gaps,
            );
            m[j0..].copy_from_slice(next);
            for hit in mask.row_hits(i, j0, len) {
                m[hit] = 0;
            }
            cells += (len - j0) as u64;
            on_row(i, m, maxy);
        }
        cells
    }
}

/// Fresh initial state for [`tri_self_sweep_resume`] at `start_row = 0`.
pub fn tri_initial_state(len: usize) -> (Vec<Score>, Vec<Score>) {
    (vec![0; len], vec![NEG_INF; len])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::gotoh::sw_last_row;
    use crate::mask::{NoMask, SetMask};
    use crate::seq::Seq;

    /// Mask adapter: pair set in sequence coordinates for the triangle,
    /// shifted to matrix coordinates for a given split.
    struct ShiftedPairs<'a> {
        pairs: &'a SetMask,
        r: usize,
    }
    impl CellMask for ShiftedPairs<'_> {
        fn is_overridden(&self, row: usize, col: usize) -> bool {
            self.pairs.is_overridden(row, col + self.r)
        }
    }

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

    /// Per-split bounds from one triangle sweep: after row i, colmax
    /// holds max over rows 0..=i, so B(i+1) = suffix max over j ≥ i+1.
    fn bounds_from_sweep<M: CellMask + Copy>(
        codes: &[u8],
        scoring: &Scoring,
        mask: M,
    ) -> Vec<Score> {
        let len = codes.len();
        let (mut m, mut maxy) = tri_initial_state(len);
        let mut colmax = vec![0 as Score; len];
        let mut bounds = vec![0 as Score; len]; // bounds[r], r in 1..len
        tri_self_sweep_resume(
            codes,
            scoring,
            mask,
            0,
            &mut m,
            &mut maxy,
            &mut |i, row, _| {
                for j in i + 1..len {
                    colmax[j] = colmax[j].max(row[j]);
                }
                let mut best = 0;
                for j in (i + 1..len).rev() {
                    best = best.max(colmax[j]);
                }
                if i + 1 < len {
                    bounds[i + 1] = best;
                }
            },
        );
        bounds
    }

    #[test]
    fn bounds_dominate_every_split_with_empty_mask() {
        let scoring = Scoring::dna_example();
        let mut seed = 0xdeadbeefcafe1234u64;
        for case in 0..8 {
            let seq = random_dna(10 + case * 7, &mut seed);
            let bounds = bounds_from_sweep(seq.codes(), &scoring, NoMask);
            for (r, &bound) in bounds.iter().enumerate().skip(1) {
                let (prefix, suffix) = seq.split(r);
                let last = sw_last_row(prefix, suffix, &scoring, NoMask);
                assert!(
                    bound >= last.best,
                    "case {case}: bound {bound} < split-{r} matrix best {}",
                    last.best
                );
            }
        }
    }

    #[test]
    fn bounds_dominate_every_split_under_random_masks() {
        let scoring = Scoring::dna_example();
        let mut seed = 0x0123456789abcdefu64;
        for case in 0..8 {
            let seq = random_dna(12 + case * 5, &mut seed);
            let len = seq.len();
            // Random pair set (p < q), the override-triangle shape.
            let pairs = SetMask::from_cells((0..len * 2).filter_map(|_| {
                let p = (rng(&mut seed) as usize) % (len - 1);
                let q = p + 1 + (rng(&mut seed) as usize) % (len - p - 1);
                rng(&mut seed).is_multiple_of(2).then_some((p, q))
            }));
            let bounds = bounds_from_sweep(seq.codes(), &scoring, &pairs);
            for (r, &bound) in bounds.iter().enumerate().skip(1) {
                let (prefix, suffix) = seq.split(r);
                let mask = ShiftedPairs { pairs: &pairs, r };
                let last = sw_last_row(prefix, suffix, &scoring, mask);
                assert!(
                    bound >= last.best,
                    "case {case}: masked bound {bound} < split-{r} best {}",
                    last.best
                );
            }
        }
    }

    #[test]
    fn resume_from_any_row_matches_full_sweep() {
        let scoring = Scoring::dna_example();
        let mut seed = 0x5a5a5a5a5a5a5a5au64;
        let seq = random_dna(30, &mut seed);
        let len = seq.len();
        let pairs = SetMask::from_cells([(2, 9), (5, 20), (11, 12), (0, 29)]);
        // Full sweep, snapshotting state at every row boundary.
        let (mut m, mut maxy) = tri_initial_state(len);
        let mut snaps: Vec<(usize, Vec<Score>, Vec<Score>)> = Vec::new();
        let mut rows_full: Vec<Vec<Score>> = Vec::new();
        tri_self_sweep_resume(
            seq.codes(),
            &scoring,
            &pairs,
            0,
            &mut m,
            &mut maxy,
            &mut |i, row, my| {
                rows_full.push(row.to_vec());
                snaps.push((i + 1, row.to_vec(), my.to_vec()));
            },
        );
        for (start, m0, my0) in snaps {
            if start >= len {
                continue;
            }
            let mut m = m0;
            let mut maxy = my0;
            let mut rows_resumed: Vec<(usize, Vec<Score>)> = Vec::new();
            tri_self_sweep_resume(
                seq.codes(),
                &scoring,
                &pairs,
                start,
                &mut m,
                &mut maxy,
                &mut |i, row, _| rows_resumed.push((i, row.to_vec())),
            );
            for (i, row) in rows_resumed {
                assert_eq!(
                    row[i + 1..],
                    rows_full[i][i + 1..],
                    "resume at {start}: row {i} diverged"
                );
            }
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let scoring = Scoring::dna_example();
        for text in ["", "A", "AC"] {
            let seq = Seq::dna(text).unwrap();
            let len = seq.len();
            let (mut m, mut maxy) = tri_initial_state(len);
            let mut rows = 0usize;
            let cells = tri_self_sweep_resume(
                seq.codes(),
                &scoring,
                NoMask,
                0,
                &mut m,
                &mut maxy,
                &mut |_, _, _| rows += 1,
            );
            assert_eq!(rows, len);
            assert_eq!(cells, (len * len.saturating_sub(1) / 2) as u64);
        }
    }

    #[test]
    fn identical_halves_bound_equals_their_perfect_score() {
        // "ACGTACGT": split 4 aligns ACGT against itself perfectly; the
        // triangle bound at r = 4 must be at least (and here exactly)
        // that perfect score, since the triangle's extra predecessors
        // add nothing to a perfect diagonal.
        let scoring = Scoring::dna_example();
        let seq = Seq::dna("ACGTACGT").unwrap();
        let bounds = bounds_from_sweep(seq.codes(), &scoring, NoMask);
        let (prefix, suffix) = seq.split(4);
        let exact = sw_last_row(prefix, suffix, &scoring, NoMask).best;
        assert_eq!(exact, 8);
        assert!(bounds[4] >= exact);
    }
}
