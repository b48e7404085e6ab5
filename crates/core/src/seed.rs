//! Seeded split bounds: admissible per-split score ceilings.
//!
//! The best-first queue of Figure 5 starts every split at
//! [`crate::tasks::SCORE_INFINITY`], so even a low-repeat sequence pays
//! one full Gotoh sweep per split before the queue learns anything.
//! This module replaces those infinite initial bounds with **finite
//! admissible** ones, computed once per sequence:
//!
//! * [`SeedIndex`] — a k-mer index with diagonal bucketing (the classic
//!   seed-and-extend localisation device). It is a *diagnostic*: its
//!   seed-mass statistics localise repeat structure and feed the prune
//!   bench, but they are **not** the bound source. A pure seed-mass
//!   ceiling (matched-seed mass at max substitution value plus a cap on
//!   unseeded stretches) is *not* admissible for the scoring models
//!   used here: a sequence of `n` disjoint runs of `k − 1` matches each
//!   carries zero k-mer seeds yet scores `Θ(n)` — no seed-blind
//!   constant cap can dominate it. DESIGN.md records the counterexample.
//! * [`SplitBounds`] — the bound source that *is* exact: one triangular
//!   self-comparison sweep ([`repro_align::tri_self_sweep_resume`])
//!   dominates every split matrix at once, because each split-`r` cell
//!   `(i, j)` is the triangle cell `(i, j + r)` with a subset of the
//!   triangle's predecessors (see the kernel's module docs for the
//!   induction). `B(r) = max {H(i, j) : i < r ≤ j}` is therefore an
//!   upper bound on split `r`'s true masked Smith–Waterman score —
//!   *the bound lattice is `∞ → B(r) → exact score`*, each step a
//!   refinement the queue can rely on.
//!
//! The sweep is checkpointed at row strides, so when an accepted top
//! alignment grows the override triangle the bounds are **recomputed
//! from the masked sweep** (never reset to infinity): the dirty row of
//! the new pairs (their minimal `p`, exactly the [`crate::DirtyLog`]
//! boundary) selects the deepest clean checkpoint, and only rows below
//! it are reswept. Masking is monotone — cells only get zeroed — so
//! recomputed bounds only tighten, and stale heap entries carrying the
//! older, larger bound remain admissible.

use crate::triangle::OverrideTriangle;
use repro_align::{
    kmer_keys, tri_initial_state, tri_self_sweep_resume, CellMask, Score, Scoring, MAX_KMER_K,
};
use std::collections::HashMap;
use std::time::Instant;

/// Occurrence-list cap: k-mers more frequent than this are skipped when
/// pairing occurrences (quadratic blow-up guard; such k-mers carry no
/// localisation signal anyway).
const OCC_CAP: usize = 64;

/// Configuration of the seed-and-bound layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedConfig {
    /// k-mer width of the diagnostic [`SeedIndex`] (`1 ..= MAX_KMER_K`).
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

/// k-mer self-match index with diagonal bucketing.
///
/// For every pair of occurrences `(p, q)`, `p < q`, of the same k-mer,
/// the pair sits on diagonal `q − p` and *supports* split `r` iff both
/// copies survive the split intact: `p + k ≤ r ≤ q`. The index answers
/// "how many seed pairs support split `r`?" in `O(1)` via a prefix-sum
/// table, and exposes the heaviest diagonal — the period estimate the
/// prune bench reports next to the measured prune fraction.
#[derive(Debug, Clone)]
pub struct SeedIndex {
    k: usize,
    /// `straddle[r]` = seed pairs supporting split `r` (index 0 unused).
    straddle: Vec<u32>,
    /// Seed-pair count per diagonal `q − p`.
    diagonals: HashMap<usize, u32>,
    /// `true` if any occurrence list hit [`OCC_CAP`] (counts are then
    /// lower bounds).
    capped: bool,
}

impl SeedIndex {
    /// Index the k-mer self-matches of `codes`.
    pub fn build(codes: &[u8], k: usize) -> Self {
        let len = codes.len();
        let mut occ: HashMap<u64, Vec<u32>> = HashMap::new();
        for (i, key) in kmer_keys(codes, k).into_iter().enumerate() {
            occ.entry(key).or_default().push(i as u32);
        }
        let mut diff = vec![0i64; len + 2];
        let mut diagonals: HashMap<usize, u32> = HashMap::new();
        let mut capped = false;
        for positions in occ.values() {
            if positions.len() > OCC_CAP {
                capped = true;
                continue;
            }
            for (a, &p) in positions.iter().enumerate() {
                for &q in &positions[a + 1..] {
                    let (p, q) = (p as usize, q as usize);
                    *diagonals.entry(q - p).or_insert(0) += 1;
                    // Supports r ∈ [p + k, q] (both copies intact).
                    if p + k <= q {
                        diff[p + k] += 1;
                        diff[q + 1] -= 1;
                    }
                }
            }
        }
        let mut straddle = vec![0u32; len.max(1)];
        let mut running = 0i64;
        for (r, s) in straddle.iter_mut().enumerate() {
            running += diff[r];
            *s = running as u32;
        }
        SeedIndex {
            k,
            straddle,
            diagonals,
            capped,
        }
    }

    /// The indexed k-mer width.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Seed pairs whose two copies both survive split `r` intact.
    pub fn seeds_straddling(&self, r: usize) -> u32 {
        self.straddle.get(r).copied().unwrap_or(0)
    }

    /// Heaviest diagonal and its seed-pair count (ties: smaller
    /// diagonal) — the dominant period estimate. `None` if seedless.
    pub fn top_diagonal(&self) -> Option<(usize, u32)> {
        self.diagonals
            .iter()
            .map(|(&d, &c)| (d, c))
            .max_by_key(|&(d, c)| (c, std::cmp::Reverse(d)))
    }

    /// Number of distinct diagonals carrying at least one seed pair.
    pub fn distinct_diagonals(&self) -> usize {
        self.diagonals.len()
    }

    /// `true` if an occurrence cap truncated the pair counts.
    pub fn capped(&self) -> bool {
        self.capped
    }
}

/// Stride-aligned snapshot of the triangular sweep's resume state.
#[derive(Debug, Clone)]
struct Checkpoint {
    /// Rows `0..start_row` are folded into this snapshot.
    start_row: usize,
    m: Vec<Score>,
    maxy: Vec<Score>,
    colmax: Vec<Score>,
}

/// Admissible per-split score bounds from the triangular self-sweep,
/// recomputable under a growing override triangle.
#[derive(Debug, Clone)]
pub struct SplitBounds {
    config: SeedConfig,
    index: SeedIndex,
    /// `bounds[r] = B(r)`, `1 ≤ r < m` (index 0 unused).
    bounds: Vec<Score>,
    checkpoints: Vec<Checkpoint>,
    stride: usize,
    build_ns: u64,
    recomputes: u64,
}

fn stride_for(len: usize) -> usize {
    (len / 8).max(4)
}

/// Fold one completed sweep row into the column maxima and emit the
/// next split's bound: after row `i`, `colmax[j] = max_{i' ≤ i} H(i', j)`,
/// so `B(i + 1) = max_{j ≥ i + 1} colmax[j]`.
fn fold_row(i: usize, row: &[Score], colmax: &mut [Score], bounds: &mut [Score]) {
    let len = row.len();
    for j in i + 1..len {
        colmax[j] = colmax[j].max(row[j]);
    }
    if i + 1 < len {
        let mut best = 0;
        for &c in &colmax[i + 1..] {
            best = best.max(c);
        }
        bounds[i + 1] = best;
    }
}

impl SplitBounds {
    /// One full (empty-triangle) sweep: bounds, checkpoints, and the
    /// diagnostic seed index, with the build timed for `Stats`.
    pub fn build(codes: &[u8], scoring: &Scoring, config: SeedConfig) -> Self {
        let t0 = Instant::now();
        let index = SeedIndex::build(codes, config.k);
        let len = codes.len();
        let stride = stride_for(len);
        let (mut m, mut maxy) = tri_initial_state(len);
        let mut colmax = vec![0 as Score; len];
        let mut bounds = vec![0 as Score; len];
        let mut checkpoints = Vec::new();
        tri_self_sweep_resume(
            codes,
            scoring,
            repro_align::NoMask,
            0,
            &mut m,
            &mut maxy,
            &mut |i, row, my| {
                fold_row(i, row, &mut colmax, &mut bounds);
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
        SplitBounds {
            config,
            index,
            bounds,
            checkpoints,
            stride,
            build_ns: t0.elapsed().as_nanos() as u64,
            recomputes: 0,
        }
    }

    /// The config this was built with.
    pub fn config(&self) -> SeedConfig {
        self.config
    }

    /// The diagnostic k-mer index.
    pub fn index(&self) -> &SeedIndex {
        &self.index
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

    /// Sequence length the bounds cover.
    pub fn seq_len(&self) -> usize {
        self.bounds.len()
    }

    /// Nanoseconds the initial build took (index + full sweep).
    pub fn build_ns(&self) -> u64 {
        self.build_ns
    }

    /// Number of post-accept bound recomputations performed.
    pub fn recomputes(&self) -> u64 {
        self.recomputes
    }

    /// Tighten the bounds after the override triangle grew.
    ///
    /// `dirty_row` is the minimal `p` over the newly overridden pairs
    /// `(p, q)` — the first triangle-sweep row whose cells the new mask
    /// entries can touch (identical to the [`crate::DirtyLog`] row
    /// bound). Resumes from the deepest checkpoint at or above that
    /// row, resweeps under [`PairMask`], and refreshes later
    /// checkpoints. Bounds for `r ≤ dirty_row` depend only on clean
    /// rows and are untouched.
    ///
    /// Masking only zeroes cells, so every bound is non-increasing
    /// across recomputations; entries already sitting in a task queue
    /// with an older bound stay admissible.
    pub fn recompute(
        &mut self,
        codes: &[u8],
        scoring: &Scoring,
        triangle: &OverrideTriangle,
        dirty_row: usize,
    ) {
        let len = self.bounds.len();
        debug_assert_eq!(codes.len(), len, "bounds built for another sequence");
        if len < 2 {
            return;
        }
        let (start, mut m, mut maxy, mut colmax) = match self
            .checkpoints
            .iter()
            .filter(|c| c.start_row <= dirty_row)
            .max_by_key(|c| c.start_row)
        {
            Some(c) => (c.start_row, c.m.clone(), c.maxy.clone(), c.colmax.clone()),
            None => {
                let (m, maxy) = tri_initial_state(len);
                (0, m, maxy, vec![0 as Score; len])
            }
        };
        self.checkpoints.retain(|c| c.start_row <= start);
        let stride = self.stride;
        let bounds = &mut self.bounds;
        let checkpoints = &mut self.checkpoints;
        tri_self_sweep_resume(
            codes,
            scoring,
            PairMask(triangle),
            start,
            &mut m,
            &mut maxy,
            &mut |i, row, my| {
                fold_row(i, row, &mut colmax, bounds);
                if (i + 1) % stride == 0 && i + 1 < len && i + 1 > start {
                    checkpoints.push(Checkpoint {
                        start_row: i + 1,
                        m: row.to_vec(),
                        maxy: my.to_vec(),
                        colmax: colmax.clone(),
                    });
                }
            },
        );
        self.recomputes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn bounds_dominate_every_split_on_empty_triangle() {
        let scoring = Scoring::dna_example();
        let mut seed = 0x9e3779b97f4a7c15u64;
        for case in 0..6 {
            let seq = random_dna(14 + case * 9, &mut seed);
            let sb = SplitBounds::build(seq.codes(), &scoring, SeedConfig::default());
            let triangle = OverrideTriangle::new(seq.len());
            for r in 1..seq.len() {
                let (prefix, suffix) = seq.split(r);
                let exact = sw_last_row(prefix, suffix, &scoring, SplitMask::new(&triangle, r));
                assert!(
                    sb.bound(r) >= exact.best,
                    "case {case}: bound {} < split-{r} best {}",
                    sb.bound(r),
                    exact.best
                );
            }
        }
    }

    #[test]
    fn recompute_matches_full_masked_resweep_and_stays_admissible() {
        let scoring = Scoring::dna_example();
        let mut seed = 0xfeedfacecafebeefu64;
        for case in 0..6 {
            let seq = random_dna(40 + case * 11, &mut seed);
            let mut triangle = OverrideTriangle::new(seq.len());
            let pairs = random_pairs(seq.len(), &mut seed);
            for &(p, q) in &pairs {
                triangle.set(p, q);
            }
            let dirty_row = pairs.iter().map(|&(p, _)| p).min().unwrap();

            let mut incremental = SplitBounds::build(seq.codes(), &scoring, SeedConfig::new(4));
            let before = incremental.bounds().to_vec();
            incremental.recompute(seq.codes(), &scoring, &triangle, dirty_row);

            // Oracle: full masked resweep from row 0.
            let mut full = SplitBounds::build(seq.codes(), &scoring, SeedConfig::new(4));
            full.recompute(seq.codes(), &scoring, &triangle, 0);

            assert_eq!(incremental.bounds(), full.bounds(), "case {case}");
            assert_eq!(incremental.recomputes(), 1);
            for (r, &prev) in before.iter().enumerate().skip(1) {
                assert!(
                    incremental.bound(r) <= prev,
                    "case {case}: bound for split {r} grew under masking"
                );
                let (prefix, suffix) = seq.split(r);
                let exact = sw_last_row(prefix, suffix, &scoring, SplitMask::new(&triangle, r));
                assert!(
                    incremental.bound(r) >= exact.best,
                    "case {case}: recomputed bound {} < masked split-{r} best {}",
                    incremental.bound(r),
                    exact.best
                );
            }
        }
    }

    #[test]
    fn repeated_recomputes_track_a_growing_triangle() {
        let scoring = Scoring::dna_example();
        let mut seed = 0x0123456789abcdefu64;
        let seq = random_dna(64, &mut seed);
        let mut triangle = OverrideTriangle::new(seq.len());
        let mut sb = SplitBounds::build(seq.codes(), &scoring, SeedConfig::default());
        for accept in 0..4 {
            let pairs = random_pairs(seq.len(), &mut seed);
            for &(p, q) in &pairs {
                if !triangle.get(p, q) {
                    triangle.set(p, q);
                }
            }
            let dirty_row = pairs.iter().map(|&(p, _)| p).min().unwrap();
            sb.recompute(seq.codes(), &scoring, &triangle, dirty_row);
            assert_eq!(sb.recomputes(), accept + 1);
            for r in 1..seq.len() {
                let (prefix, suffix) = seq.split(r);
                let exact = sw_last_row(prefix, suffix, &scoring, SplitMask::new(&triangle, r));
                assert!(
                    sb.bound(r) >= exact.best,
                    "accept {accept}: bound {} < split-{r} best {}",
                    sb.bound(r),
                    exact.best
                );
            }
        }
    }

    #[test]
    fn seed_index_straddle_counts_match_brute_force() {
        let seq = Seq::dna("ACGTACGTTTACGTA").unwrap();
        let k = 4;
        let index = SeedIndex::build(seq.codes(), k);
        let keys = kmer_keys(seq.codes(), k);
        for r in 0..seq.len() {
            let mut expect = 0u32;
            for p in 0..keys.len() {
                for q in p + 1..keys.len() {
                    if keys[p] == keys[q] && p + k <= r && r <= q {
                        expect += 1;
                    }
                }
            }
            assert_eq!(index.seeds_straddling(r), expect, "split {r}");
        }
        assert!(!index.capped());
        // ACGT repeats on diagonals 4 (within the first two copies) and
        // beyond; the heaviest diagonal must carry at least one pair.
        assert!(index.top_diagonal().is_some());
        assert!(index.distinct_diagonals() >= 1);
    }

    #[test]
    fn seedless_sequence_indexes_empty() {
        let seq = Seq::dna("ACGTAGCATGCTAAC").unwrap();
        let index = SeedIndex::build(seq.codes(), 8);
        assert_eq!(index.top_diagonal(), None);
        for r in 0..seq.len() {
            assert_eq!(index.seeds_straddling(r), 0);
        }
    }

    #[test]
    fn tiny_sequences_are_handled() {
        let scoring = Scoring::dna_example();
        for text in ["", "A", "AC"] {
            let seq = Seq::dna(text).unwrap();
            let mut sb = SplitBounds::build(seq.codes(), &scoring, SeedConfig::default());
            assert_eq!(sb.seq_len(), seq.len());
            assert_eq!(sb.bound(0), 0);
            let triangle = OverrideTriangle::new(seq.len());
            sb.recompute(seq.codes(), &scoring, &triangle, 0);
        }
    }
}
