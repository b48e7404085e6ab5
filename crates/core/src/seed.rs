//! Seeded split bounds: admissible per-split score ceilings.
//!
//! The best-first queue of Figure 5 starts every split at an infinite
//! bound (`Score::MAX`), so even a low-repeat sequence pays
//! one full Gotoh sweep per split before the queue learns anything.
//! This module replaces those infinite initial bounds with **finite
//! admissible** ones.
//!
//! What the queue holds for split `r` is the *task score*: the best
//! valid entry of the split matrix's **bottom row** (row `r − 1`,
//! Appendix A) under the current override triangle. Any optimal path
//! behind that entry lies wholly inside the split's rectangle
//! `{(p, q) : p < r ≤ q}`, ends in row `r − 1` and starts somewhere in
//! the rectangle. [`SplitBounds`] bounds it from both ends, with two
//! runs of the one triangular self-sweep kernel
//! ([`repro_align::tri_self_sweep_resume`]) — each triangle cell
//! dominates the same cell of every split matrix that contains it (see
//! the kernel's module docs for the induction):
//!
//! * **`F(r) = max_{j ≥ r} H→(r − 1, j)`** — row `r − 1` of the forward
//!   sweep: the best path *ending* in the split's bottom row. It does
//!   not dominate the split matrix's overall maximum (a path may peak
//!   above the bottom row), and need not: the queue never holds that.
//! * **`G(r) = max {H←(i, j) : i < r ≤ j}`** — the column-max fold over
//!   the split's rectangle of the sweep of the **reversed sequence
//!   under the mirrored triangle**, i.e. the best path *starting*
//!   inside the rectangle. Reversal maps pair `(p, q)` to
//!   `(m − 1 − q, m − 1 − p)` and split `r` to `m − r`; a path keeps its
//!   score because exchange matrices are symmetric (enforced where
//!   they are built and parsed, see `repro_align::ExchangeMatrix`) and
//!   a gap of length `g` costs `open + g·ext` on either side.
//!
//! `bound(r) = min(F(r), G(r))`. The minimum is what makes the bound
//! tight on the flanks of a repeat: a high-scoring path (above all the
//! overlap-inflated alignment of tandem copies 1+2 against 2+3, about
//! twice any legal top) decays slowly past its *end* — down-right,
//! lifting `F` over the splits to its right — and, read backwards,
//! past its *start* — up-left, lifting `G` over the splits to its
//! left — but never both over the same split.
//!
//! *The bound lattice is `∞ → bound(r) → exact score`*, each step a
//! refinement the queue can rely on.
//!
//! ## Refresh on demand
//!
//! Both sweeps are checkpointed at row strides, so when accepted top
//! alignments grow the override triangle the bounds can be
//! **recomputed from the masked sweeps** (never reset to infinity) from
//! the deepest checkpoint above the first dirty row. Masking is
//! monotone — cells only get zeroed — so recomputed bounds only
//! tighten, and bounds computed under an *older* triangle stay
//! admissible. That makes the refresh optional, and
//! [`SplitBounds::refresh_before_sweep`] spends it only where it can
//! pay: [`SplitBounds::note_accept`] records an accept in `O(pairs)`,
//! and the engine asks for a refresh when a never-aligned split is
//! about to be swept — it happens iff the resweep costs no more cells
//! than that sweep plus the sweeps already made on stale bounds since
//! the last refresh (a ski-rental rule on deterministic cell counts).
//!
//! No k-mer seed index is involved, the module's name notwithstanding:
//! a pure seed-mass ceiling is not admissible for the scoring models
//! used here — a sequence of `n` disjoint runs of `k − 1` matches each
//! carries zero k-mer seeds yet scores `Θ(n)`, so no seed-blind
//! constant cap can dominate it. DESIGN.md records the counterexample.

use crate::triangle::OverrideTriangle;
use repro_align::{
    tri_initial_state, CellMask, GapPenalties, NoMask, QueryProfile, Score, Scoring, Sides,
    MAX_KMER_K,
};
use std::time::Instant;

/// Configuration of the seed-and-bound layer.
///
/// `k` selects nothing (the CLI's `--seed-k` is gone for that reason),
/// but [`SeedConfig::new`] and `SplitBounds::build(.., SeedConfig)` keep
/// their signatures: `benchmark/` pins both and must not be edited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedConfig {
    /// A k-mer width (`1 ..= MAX_KMER_K`). Validated and carried for the
    /// callers that set it; nothing reads it — the bounds come from the
    /// sweeps alone.
    pub k: usize,
}

impl SeedConfig {
    /// Config with an explicit k-mer width.
    pub fn new(k: usize) -> Self {
        assert!((1..=MAX_KMER_K).contains(&k), "seed k {k} out of range");
        SeedConfig { k }
    }
}

impl Default for SeedConfig {
    /// `k = 6`: specific enough to localise DNA repeats, short enough
    /// that genuine repeat copies with scattered mismatches still seed.
    fn default() -> Self {
        SeedConfig { k: 6 }
    }
}

/// View of the override triangle as a pair-coordinate cell mask for the
/// triangular self-sweep (`is_overridden(p, q)` with `p < q`, both
/// sequence positions — contrast [`crate::SplitMask`], which shifts
/// split-matrix coordinates first).
#[derive(Debug, Clone, Copy)]
pub struct PairMask<'a>(pub &'a OverrideTriangle);

impl CellMask for PairMask<'_> {
    #[inline(always)]
    fn is_overridden(&self, p: usize, q: usize) -> bool {
        self.0.get(p, q)
    }

    #[inline(always)]
    fn row_hits(&self, p: usize, lo: usize, hi: usize) -> impl Iterator<Item = usize> {
        self.0.row_range(p, lo, hi).iter().map(|&q| q as usize)
    }

    #[inline(always)]
    fn is_empty_hint(&self) -> bool {
        self.0.is_empty()
    }
}

/// Stride-aligned snapshot of one triangular sweep's resume state.
#[derive(Debug, Clone)]
struct Checkpoint {
    /// Rows `0..start_row` are folded into this snapshot.
    start_row: usize,
    m: Vec<Score>,
    maxy: Vec<Score>,
    /// Column maxima over rows `0..start_row` (empty for the row fold).
    colmax: Vec<Score>,
}

/// How a sweep's rows become per-split values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fold {
    /// `vals[i + 1] = max_{j > i} H(i, j)`: the best path *ending* in
    /// split `i + 1`'s bottom row (`F`).
    Row,
    /// `vals[i + 1] = max {H(i', j) : i' ≤ i < j}`: the best path ending
    /// anywhere in split `i + 1`'s rectangle (`G`, on the reversed
    /// sequence).
    Column,
}

/// One checkpointed triangular sweep and the per-split values folded
/// from it, in the sweep's own coordinates.
#[derive(Debug, Clone)]
struct TriSide {
    fold: Fold,
    /// The swept sequence (reversed for `G`) and its wide profile,
    /// built once: every refresh sweeps against them again.
    codes: Vec<u8>,
    profile: QueryProfile<Score>,
    /// Indexed by split, `1 ≤ r < len` (entry 0 unused).
    vals: Vec<Score>,
    checkpoints: Vec<Checkpoint>,
}

fn stride_for(len: usize) -> usize {
    (len / 8).max(4)
}

/// Cells of a triangular sweep resumed at row `start` of `len`.
fn tri_cells(len: usize, start: usize) -> u64 {
    let rows = (len - start) as u64;
    rows * rows.saturating_sub(1) / 2
}

impl TriSide {
    fn new(fold: Fold, codes: Vec<u8>, scoring: &Scoring) -> Self {
        TriSide {
            fold,
            profile: QueryProfile::new_wide(scoring, &codes),
            vals: vec![0; codes.len()],
            codes,
            checkpoints: Vec::new(),
        }
    }

    /// The row a resweep for `dirty_row` restarts from: the deepest
    /// checkpoint at or above it (row 0 if none).
    fn resume_row(&self, dirty_row: usize) -> usize {
        self.checkpoints
            .iter()
            .map(|c| c.start_row)
            .filter(|&s| s <= dirty_row)
            .max()
            .unwrap_or(0)
    }

    /// (Re)sweep under `mask` from the deepest checkpoint at or above
    /// `dirty_row` — the first row the mask changed since the previous
    /// sweep — refreshing the values and checkpoints below it. Values
    /// of splits `r ≤ dirty_row` depend only on clean rows and are
    /// untouched.
    fn sweep<M: CellMask>(&mut self, gaps: GapPenalties, mask: M, dirty_row: usize) {
        let len = self.vals.len();
        let start = self.resume_row(dirty_row);
        let (mut m, mut maxy, mut colmax) =
            match self.checkpoints.iter().find(|c| c.start_row == start) {
                Some(c) => (c.m.clone(), c.maxy.clone(), c.colmax.clone()),
                None => {
                    let (m, maxy) = tri_initial_state(len);
                    let colmax = match self.fold {
                        Fold::Row => Vec::new(),
                        Fold::Column => vec![0; len],
                    };
                    (m, maxy, colmax)
                }
            };
        self.checkpoints.retain(|c| c.start_row <= start);
        let stride = stride_for(len);
        let fold = self.fold;
        let vals = &mut self.vals;
        let checkpoints = &mut self.checkpoints;
        Sides::whole(&self.codes, &self.profile, gaps).tri_self_sweep_resume(
            mask,
            start,
            &mut m,
            &mut maxy,
            &mut |i, row, my| {
                if i + 1 < len {
                    vals[i + 1] = match fold {
                        Fold::Row => row[i + 1..].iter().copied().max().unwrap_or(0),
                        Fold::Column => {
                            let mut best = 0;
                            for (c, &h) in colmax[i + 1..].iter_mut().zip(&row[i + 1..]) {
                                *c = (*c).max(h);
                                best = best.max(*c);
                            }
                            best
                        }
                    };
                }
                if (i + 1) % stride == 0 && i + 1 < len {
                    checkpoints.push(Checkpoint {
                        start_row: i + 1,
                        m: row.to_vec(),
                        maxy: my.to_vec(),
                        colmax: colmax.clone(),
                    });
                }
            },
        );
    }
}

/// Admissible two-sided per-split score bounds from the triangular
/// self-sweep, refreshable on demand under a growing override triangle
/// (see the module docs for the construction and both admissibility
/// arguments).
#[derive(Debug, Clone)]
pub struct SplitBounds {
    config: SeedConfig,
    /// `bounds[r] = min(F(r), G(r))`, `1 ≤ r < m` (index 0 unused).
    bounds: Vec<Score>,
    /// `F`: row fold of the sweep of the sequence itself.
    forward: TriSide,
    /// `G`, mirrored: column fold of the sweep of the reversed sequence
    /// under `mirror`; `G(r) = reverse.vals[m − r]`.
    reverse: TriSide,
    /// Every noted pair `(p, q)` as `(m − 1 − q, m − 1 − p)`.
    mirror: OverrideTriangle,
    /// `(min p, max q)` over the pairs noted since the last refresh;
    /// `None` while the bounds are current.
    pending: Option<(usize, usize)>,
    /// Cells the engine swept on stale bounds since the last refresh.
    stale_cells: u64,
    build_ns: u64,
    recomputes: u64,
}

impl SplitBounds {
    /// Two full (empty-triangle) sweeps: bounds and checkpoints, with
    /// the build timed for `Stats`.
    pub fn build(codes: &[u8], scoring: &Scoring, config: SeedConfig) -> Self {
        let t0 = Instant::now();
        let len = codes.len();
        let rev_codes: Vec<u8> = codes.iter().rev().copied().collect();
        let mut forward = TriSide::new(Fold::Row, codes.to_vec(), scoring);
        let mut reverse = TriSide::new(Fold::Column, rev_codes, scoring);
        forward.sweep(scoring.gaps, NoMask, 0);
        reverse.sweep(scoring.gaps, NoMask, 0);
        let mut sb = SplitBounds {
            config,
            bounds: vec![0; len],
            forward,
            reverse,
            mirror: OverrideTriangle::new(len),
            pending: None,
            stale_cells: 0,
            build_ns: 0,
            recomputes: 0,
        };
        sb.combine();
        sb.build_ns = t0.elapsed().as_nanos() as u64;
        sb
    }

    /// `bounds[r] = min(F(r), G(r))` from the two sides' current values.
    fn combine(&mut self) {
        let len = self.bounds.len();
        for r in 1..len {
            self.bounds[r] = self.forward.vals[r].min(self.reverse.vals[len - r]);
        }
    }

    /// The config this was built with.
    pub fn config(&self) -> SeedConfig {
        self.config
    }

    /// The admissible bound for split `r` (0 — the exact score of an
    /// impossible split — outside `1 ≤ r < m`).
    pub fn bound(&self, r: usize) -> Score {
        self.bounds.get(r).copied().unwrap_or(0)
    }

    /// All bounds, indexed by `r` (entry 0 unused).
    pub fn bounds(&self) -> &[Score] {
        &self.bounds
    }

    /// The loosest bound over `splits` — what a lane-pack swept as a
    /// unit enters a queue with.
    pub fn max_bound(&self, splits: std::ops::Range<usize>) -> Score {
        splits.map(|r| self.bound(r)).max().unwrap_or(0)
    }

    /// `F(r)`: the forward-sweep side of [`Self::bound`] on its own.
    pub fn end_bound(&self, r: usize) -> Score {
        self.forward.vals.get(r).copied().unwrap_or(0)
    }

    /// `G(r)`: the reversed-sweep side of [`Self::bound`] on its own.
    pub fn start_bound(&self, r: usize) -> Score {
        let len = self.bounds.len();
        if (1..len).contains(&r) {
            self.reverse.vals[len - r]
        } else {
            0
        }
    }

    /// Sequence length the bounds cover.
    pub fn seq_len(&self) -> usize {
        self.bounds.len()
    }

    /// Nanoseconds the initial build took (both full sweeps).
    pub fn build_ns(&self) -> u64 {
        self.build_ns
    }

    /// Number of post-accept bound refreshes (masked resweeps) performed.
    pub fn recomputes(&self) -> u64 {
        self.recomputes
    }

    /// Record that the override triangle grew by `pairs` (one accepted
    /// alignment): `O(pairs)` bookkeeping, no sweep. The bounds stay
    /// admissible as they are; [`Self::refresh_before_sweep`] decides
    /// when tightening them is worth a resweep.
    pub fn note_accept(&mut self, pairs: &[(usize, usize)]) {
        let len = self.bounds.len();
        for &(p, q) in pairs {
            self.mirror.set(len - 1 - q, len - 1 - p);
            self.pending = Some(match self.pending {
                Some((lo, hi)) => (lo.min(p), hi.max(q)),
                None => (p, q),
            });
        }
    }

    /// The one refresh entry point: call when a **never-aligned** split
    /// (or lane-pack) whose queued bound is still current is about to be
    /// swept at a cost of `stake_cells` — steps of the caller's kernel,
    /// so a lane-pack counts *vector* cells — with `triangle` holding
    /// exactly the pairs noted so far. Resweeps both sides under the grown
    /// triangle — and returns `true`, the caller re-reads its bounds —
    /// iff accepts are pending and the resweep costs no more cells than
    /// the sweep at stake plus the cells already swept on stale bounds
    /// since the last refresh. Otherwise the stake joins that tally.
    ///
    /// The rule is ski rental on deterministic counts: stale sweeps are
    /// the rent, the refresh is the purchase, and buying once the rent
    /// paid matches the price keeps the total within twice the best
    /// schedule without a clock or a knob. Skipping a refresh is always
    /// safe — masking only zeroes cells, so a bound computed under an
    /// older triangle still dominates — and refreshed bounds never rise.
    pub fn refresh_before_sweep(
        &mut self,
        codes: &[u8],
        scoring: &Scoring,
        triangle: &OverrideTriangle,
        stake_cells: u64,
    ) -> bool {
        let Some((min_p, max_q)) = self.pending else {
            return false;
        };
        let len = self.bounds.len();
        debug_assert_eq!(codes.len(), len, "bounds built for another sequence");
        debug_assert_eq!(triangle.len(), self.mirror.len(), "an accept was not noted");
        // Forward rows above min p and reversed rows above the mirror
        // of max q see none of the new pairs.
        let rev_dirty = len - 1 - max_q;
        let refresh_cells = tri_cells(len, self.forward.resume_row(min_p))
            + tri_cells(len, self.reverse.resume_row(rev_dirty));
        let rent = stake_cells.saturating_add(self.stale_cells);
        if refresh_cells > rent {
            self.stale_cells = rent;
            return false;
        }
        self.forward.sweep(scoring.gaps, PairMask(triangle), min_p);
        self.reverse
            .sweep(scoring.gaps, PairMask(&self.mirror), rev_dirty);
        self.combine();
        self.pending = None;
        self.stale_cells = 0;
        self.recomputes += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finder::align_task;
    use crate::split_mask::SplitMask;
    use repro_align::{sw_last_row, Seq};

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

    /// A plausible accepted-alignment pair list: strictly ascending in
    /// both coordinates, all straddling at least one split.
    fn random_pairs(len: usize, seed: &mut u64) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        let mut p = (rng(seed) as usize) % (len / 3).max(1);
        let mut q = len / 2 + (rng(seed) as usize) % (len / 4).max(1);
        while p < q && q < len && pairs.len() < 6 {
            pairs.push((p, q));
            p += 1 + (rng(seed) as usize) % 2;
            q += 1 + (rng(seed) as usize) % 2;
        }
        pairs
    }

    /// Grow `triangle` by the not-yet-set `pairs` and note them.
    fn accept(sb: &mut SplitBounds, triangle: &mut OverrideTriangle, pairs: &[(usize, usize)]) {
        let fresh: Vec<(usize, usize)> = pairs
            .iter()
            .copied()
            .filter(|&(p, q)| triangle.set(p, q))
            .collect();
        sb.note_accept(&fresh);
    }

    /// Each side and the minimum dominate the masked bottom-row best —
    /// itself at least the shadow-filtered task score — of every split.
    fn assert_admissible(sb: &SplitBounds, seq: &Seq, scoring: &Scoring, tri: &OverrideTriangle) {
        for r in 1..seq.len() {
            let (prefix, suffix) = seq.split(r);
            let exact = sw_last_row(prefix, suffix, scoring, SplitMask::new(tri, r));
            assert!(sb.end_bound(r) >= exact.best_in_row, "F({r}) on {seq}");
            // G bounds every path starting in the rectangle, so it also
            // dominates the whole-matrix maximum.
            assert!(sb.start_bound(r) >= exact.best, "G({r}) on {seq}");
            assert_eq!(sb.bound(r), sb.end_bound(r).min(sb.start_bound(r)));
        }
    }

    #[test]
    fn both_sides_dominate_every_split_on_empty_triangle() {
        let scoring = Scoring::dna_example();
        let mut seed = 0x9e3779b97f4a7c15u64;
        for case in 0..6 {
            let seq = random_dna(14 + case * 9, &mut seed);
            let sb = SplitBounds::build(seq.codes(), &scoring, SeedConfig::default());
            let triangle = OverrideTriangle::new(seq.len());
            assert_admissible(&sb, &seq, &scoring, &triangle);
        }
    }

    /// `bound(r)` may sit *below* the split matrix's overall maximum:
    /// here split 4's best path (`AC`/`AC`, 4) ends two rows above the
    /// bottom row, whose best entry — the task score the queue holds —
    /// is what is left of it after two mismatches. This is why
    /// admissibility is stated against `best_in_row`, not `best`.
    #[test]
    fn bound_may_undercut_the_matrix_maximum() {
        let scoring = Scoring::dna_example();
        let seq = Seq::dna("ACGGACTT").unwrap();
        let r = 4;
        let sb = SplitBounds::build(seq.codes(), &scoring, SeedConfig::default());
        let (prefix, suffix) = seq.split(r);
        let exact = sw_last_row(prefix, suffix, &scoring, NoMask);
        let task = align_task(&seq, &scoring, r, &OverrideTriangle::new(seq.len()), None);
        assert_eq!((exact.best, exact.best_in_row, task.score), (4, 2, 2));
        assert_eq!((sb.end_bound(r), sb.start_bound(r), sb.bound(r)), (2, 4, 2));
    }

    #[test]
    fn demand_refresh_matches_full_masked_resweep_and_stays_admissible() {
        let scoring = Scoring::dna_example();
        let mut seed = 0xfeedfacecafebeefu64;
        for case in 0..6 {
            let seq = random_dna(40 + case * 11, &mut seed);
            let mut triangle = OverrideTriangle::new(seq.len());
            let mut incremental = SplitBounds::build(seq.codes(), &scoring, SeedConfig::new(4));
            let mut full = incremental.clone();
            let before = incremental.bounds().to_vec();
            // Two accepts accumulate into one (min p, max q).
            for _ in 0..2 {
                let pairs = random_pairs(seq.len(), &mut seed);
                accept(&mut incremental, &mut triangle, &pairs);
            }
            full.mirror = incremental.mirror.clone();
            full.pending = Some((0, seq.len() - 1));
            // Oracle: both sides reswept from row 0.
            full.forward.checkpoints.clear();
            full.reverse.checkpoints.clear();
            assert!(full.refresh_before_sweep(seq.codes(), &scoring, &triangle, u64::MAX));
            assert!(incremental.refresh_before_sweep(seq.codes(), &scoring, &triangle, u64::MAX));

            assert_eq!(incremental.bounds(), full.bounds(), "case {case}");
            assert_eq!(incremental.forward.vals, full.forward.vals, "case {case}");
            assert_eq!(incremental.reverse.vals, full.reverse.vals, "case {case}");
            assert_eq!(incremental.recomputes(), 1);
            for (r, &prev) in before.iter().enumerate().skip(1) {
                assert!(incremental.bound(r) <= prev, "case {case}: split {r} rose");
            }
            assert_admissible(&incremental, &seq, &scoring, &triangle);
        }
    }

    /// The ski-rental rule: no pending accept → nothing to do; a stake
    /// below the resweep's cost is rent (and leaves the stale bounds in
    /// place); once rent paid reaches the price the refresh happens.
    #[test]
    fn refresh_waits_until_stale_sweeps_match_its_cost() {
        let scoring = Scoring::dna_example();
        let mut seed = 0x0123456789abcdefu64;
        let seq = random_dna(64, &mut seed);
        let mut triangle = OverrideTriangle::new(seq.len());
        let mut sb = SplitBounds::build(seq.codes(), &scoring, SeedConfig::default());
        assert!(!sb.refresh_before_sweep(seq.codes(), &scoring, &triangle, u64::MAX));
        accept(&mut sb, &mut triangle, &[(3, 55), (4, 56), (5, 58)]);
        let stale = sb.bounds().to_vec();
        // Both sides resume from row 0 (the first checkpoint is at row
        // 8, below rows 3 and 64 − 1 − 58): the price is two full
        // triangles.
        let price = 2 * tri_cells(64, 0);
        assert!(!sb.refresh_before_sweep(seq.codes(), &scoring, &triangle, price - 1));
        assert_eq!((sb.recomputes(), sb.bounds()), (0, &stale[..]));
        assert_admissible(&sb, &seq, &scoring, &triangle);
        assert!(sb.refresh_before_sweep(seq.codes(), &scoring, &triangle, 1));
        assert_eq!(sb.recomputes(), 1);
        assert!(!sb.refresh_before_sweep(seq.codes(), &scoring, &triangle, u64::MAX));
    }

    #[test]
    fn repeated_refreshes_track_a_growing_triangle() {
        let scoring = Scoring::dna_example();
        let mut seed = 0x0123456789abcdefu64;
        let seq = random_dna(64, &mut seed);
        let mut triangle = OverrideTriangle::new(seq.len());
        let mut sb = SplitBounds::build(seq.codes(), &scoring, SeedConfig::default());
        for round in 0..4 {
            let pairs = random_pairs(seq.len(), &mut seed);
            accept(&mut sb, &mut triangle, &pairs);
            sb.refresh_before_sweep(seq.codes(), &scoring, &triangle, u64::MAX);
            assert!(sb.recomputes() <= round + 1);
            assert_admissible(&sb, &seq, &scoring, &triangle);
        }
    }

    #[test]
    fn tiny_sequences_are_handled() {
        let scoring = Scoring::dna_example();
        for text in ["", "A", "AC"] {
            let seq = Seq::dna(text).unwrap();
            let mut sb = SplitBounds::build(seq.codes(), &scoring, SeedConfig::default());
            assert_eq!(sb.seq_len(), seq.len());
            assert_eq!((sb.bound(0), sb.start_bound(0), sb.end_bound(0)), (0, 0, 0));
            assert_eq!(sb.max_bound(1..seq.len().max(1)), 0);
            let triangle = OverrideTriangle::new(seq.len());
            assert!(!sb.refresh_before_sweep(seq.codes(), &scoring, &triangle, u64::MAX));
        }
    }
}
