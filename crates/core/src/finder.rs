//! The sequential top-alignment algorithm (paper §3, Figure 5).
//!
//! The driver maintains one task per unit of work in a best-first queue.
//! A task's queued score is an upper bound (scores only drop as the
//! override triangle grows — the masking-monotonicity property tested in
//! `repro-align`), so when the queue's head has been aligned against the
//! *current* triangle it is provably the next top alignment; otherwise it
//! is realigned and requeued. This skips the 90–97 % of realignments a
//! naive per-top full sweep would perform.
//!
//! The loop is written once, generic over the [`PackKernel`] that
//! sweeps the [`PackUnit`]s it schedules (§4.1 changes what a task is,
//! not the loop): [`TopAlignmentFinder::new`] schedules 1-lane packs
//! swept by the scalar row step ([`ScoredSeq`]),
//! `repro_simd::find_top_alignments_simd` lane packs of neighbouring
//! splits. [`ScoredSeq::align_task`] and
//! [`ScoredSeq::accept_task_with_row`] are the two primitives every
//! engine shares, so all engines produce identical output.

use crate::bottom::{best_valid_entry, best_valid_entry_counted, Common};
use crate::pack::{LanePacks, PackKernel, PackUnit};
use crate::seed::SeedConfig;
use crate::split_mask::SplitMask;
use crate::stats::Stats;
use crate::tasks::{Next, Scheduler};
use crate::triangle::OverrideTriangle;
use repro_align::{traceback_in_box, NoMask, QueryProfile, RowRef, Score, Scoring, Seq, Sides};
use repro_obs::{Metric, NoopRecorder, Phase, Progress, Recorder};
use std::ops::Range;
use std::time::Instant;

/// How first-pass bottom rows are kept for shadow filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowMode {
    /// Store all `m(m−1)/2` scores — the paper's default, and its
    /// largest data structure (App. A).
    #[default]
    Store,
    /// Recompute a split's clean (unmasked) bottom row on demand:
    /// Appendix A's "on-demand recomputation ... at the expense of extra
    /// work; this would allow an implementation that requires only a
    /// linear amount of memory". The override triangle is row-sorted
    /// (`O(pairs + m)` bytes) and an accept traces back inside the
    /// alignment's box ([`ScoredSeq::accept_task_with_row`]), so this is
    /// the fully linear-memory configuration.
    Recompute,
}

/// What a run searches for: the one spec every engine takes. The
/// engines differ only in *how* they schedule this work (paper
/// §4.1–4.3), so these three values are declared here once and borrowed
/// by every entry point, the facade and the cluster internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Search {
    /// Number of top alignments to find (the paper uses 10–100; Table 1
    /// uses 50).
    pub count: usize,
    /// Byte budget for the incremental realignment layer's checkpoint
    /// store (`None` disables the layer entirely; `Some(0)` enables the
    /// accounting but never stores state, so every sweep is a miss).
    /// Results are bit-identical either way.
    pub checkpoint_budget: Option<usize>,
    /// Seeded split pruning: replace the infinite initial task bounds
    /// with admissible [`SplitBounds`](crate::SplitBounds) so splits that cannot beat the
    /// accepted alignments are never aligned at all. `None` reproduces
    /// the paper's schedule exactly; `Some` keeps the accepted
    /// alignments bit-identical but skips sweeps (the pop-level
    /// accounting moves to `pruned_pops`/`splits_pruned`).
    pub seed: Option<SeedConfig>,
}

impl Search {
    /// `count` top alignments on the paper's schedule: no checkpoints,
    /// no pruning.
    pub fn new(count: usize) -> Self {
        Search {
            count,
            checkpoint_budget: None,
            seed: None,
        }
    }
}

/// Configuration of the inline driver: the shared [`Search`] plus how
/// first-pass rows are kept.
#[derive(Debug, Clone)]
pub struct FinderConfig {
    /// What to search for.
    pub search: Search,
    /// Bottom-row storage strategy.
    pub row_mode: RowMode,
}

impl FinderConfig {
    /// Default settings (stored rows).
    pub fn new(search: Search) -> Self {
        FinderConfig {
            search,
            row_mode: RowMode::Store,
        }
    }

    /// The linear-memory configuration of Appendix A: on-demand row
    /// recomputation (the override triangle is compressed always).
    pub fn linear_memory(search: Search) -> Self {
        FinderConfig {
            row_mode: RowMode::Recompute,
            ..FinderConfig::new(search)
        }
    }
}

/// One accepted nonoverlapping top alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopAlignment {
    /// Acceptance order (0-based).
    pub index: usize,
    /// The split whose matrix produced this alignment.
    pub r: usize,
    /// Alignment score.
    pub score: Score,
    /// Matched residue pairs in **sequence coordinates** `(p, q)`,
    /// `p < r ≤ q`, in path order.
    pub pairs: Vec<(usize, usize)>,
}

impl TopAlignment {
    /// Sequence range covered on the prefix side (`None` if empty).
    pub fn prefix_span(&self) -> Option<std::ops::Range<usize>> {
        let first = self.pairs.first()?;
        let last = self.pairs.last()?;
        Some(first.0..last.0 + 1)
    }

    /// Sequence range covered on the suffix side (`None` if empty).
    pub fn suffix_span(&self) -> Option<std::ops::Range<usize>> {
        let first = self.pairs.first()?;
        let last = self.pairs.last()?;
        Some(first.1..last.1 + 1)
    }

    /// CIGAR-style operation string over the matched pairs: `M` runs
    /// for aligned pairs, `I` for prefix-side residues skipped by a
    /// gap, `D` for suffix-side residues skipped.
    pub fn cigar(&self) -> String {
        if self.pairs.is_empty() {
            return String::from("*");
        }
        let mut out = String::new();
        let mut m_run = 1usize;
        for w in self.pairs.windows(2) {
            let (p, q) = (w[0], w[1]);
            let dp = q.0 - p.0;
            let dq = q.1 - p.1;
            if dp == 1 && dq == 1 {
                m_run += 1;
                continue;
            }
            out.push_str(&format!("{m_run}M"));
            if dp > 1 {
                out.push_str(&format!("{}I", dp - 1));
            }
            if dq > 1 {
                out.push_str(&format!("{}D", dq - 1));
            }
            m_run = 1;
        }
        out.push_str(&format!("{m_run}M"));
        out
    }

    /// Fraction of matched pairs with identical residues.
    pub fn identity(&self, seq: &Seq) -> f64 {
        if self.pairs.is_empty() {
            return 0.0;
        }
        let same = self
            .pairs
            .iter()
            .filter(|&&(p, q)| seq[p] == seq[q])
            .count();
        same as f64 / self.pairs.len() as f64
    }
}

/// The result of a top-alignment search.
#[derive(Debug, Clone)]
pub struct TopAlignments {
    /// Accepted top alignments, in acceptance order. May be shorter than
    /// requested when the sequence runs out of positive nonoverlapping
    /// alignments.
    pub alignments: Vec<TopAlignment>,
    /// Work counters.
    pub stats: Stats,
    /// Final override triangle (all matched pairs of all alignments).
    pub triangle: OverrideTriangle,
}

/// Outcome of [`align_task`].
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// Best valid (non-shadow) bottom-row score; 0 if none.
    pub score: Score,
    /// Column of that score, if positive.
    pub col: Option<usize>,
    /// The bottom row — returned only for first passes, for storage.
    pub first_row: Option<Vec<Score>>,
    /// Cells computed.
    pub cells: u64,
    /// Bottom-row positions the shadow filter rejected (always 0 for a
    /// first pass, which has nothing to compare against).
    pub shadow_rejections: u64,
}

/// A sequence under a scoring with its query profiles built: what the
/// row-vectorised scalar kernels read of the pair. Whoever sweeps many
/// splits of one sequence — a finder, a worker, an acceptance loop —
/// builds this once (`O(k·m)`) and hands it to every sweep.
#[derive(Debug, Clone)]
pub struct ScoredSeq<'a> {
    /// The sequence.
    pub seq: &'a Seq,
    /// Its scoring scheme.
    pub scoring: &'a Scoring,
    profile: QueryProfile<Score>,
    /// `None` when an exchange score does not fit `i16`.
    narrow: Option<QueryProfile<i16>>,
}

impl<'a> ScoredSeq<'a> {
    /// Profile `seq` under `scoring`, in `i32` and, where the exchange
    /// scores fit, in `i16` for the row loop's narrow body.
    pub fn new(seq: &'a Seq, scoring: &'a Scoring) -> Self {
        ScoredSeq {
            seq,
            scoring,
            profile: QueryProfile::new_wide(scoring, seq.codes()),
            narrow: QueryProfile::new_narrow(scoring, seq.codes()),
        }
    }

    /// Split `r`'s matrix: prefix `seq[..r]` down the rows, suffix
    /// `seq[r..]` along the columns.
    pub fn split(&self, r: usize) -> Sides<'_> {
        Sides {
            rows: &self.seq.codes()[..r],
            profile: &self.profile,
            narrow: self.narrow.as_ref(),
            q0: r,
            gaps: self.scoring.gaps,
        }
    }

    /// Score-only (re)alignment of split `r` under `triangle`.
    ///
    /// `original` is the stored first-pass bottom row; pass `None` for the
    /// first pass (which must, and is asserted to, run with an empty
    /// triangle — Figure 5 guarantees this because every initial task has
    /// infinite priority). For realignments, entries differing from
    /// `original` are shadow alignments and are skipped (Appendix A).
    pub fn align_task(
        &self,
        r: usize,
        triangle: &OverrideTriangle,
        original: Option<&[Score]>,
    ) -> TaskResult {
        let last = self.split(r).last_row(SplitMask::new(triangle, r));
        match original {
            None => {
                debug_assert!(
                    triangle.is_empty(),
                    "first pass of split {r} must see an empty triangle"
                );
                TaskResult {
                    score: last.best_in_row,
                    col: last.best_in_row_col,
                    cells: last.cells,
                    first_row: Some(last.row),
                    shadow_rejections: 0,
                }
            }
            Some(orig) => {
                let (score, col, shadows) = best_valid_entry_counted(&last.row, orig);
                TaskResult {
                    score,
                    col,
                    cells: last.cells,
                    first_row: None,
                    shadow_rejections: shadows,
                }
            }
        }
    }

    /// Accept split `r` as top alignment number `index`: sweep its
    /// matrix under the current triangle in linear memory, take the best
    /// valid bottom-row end point against `original` (the split's clean
    /// first-pass row), trace it back inside the alignment's box
    /// ([`traceback_in_box`]: the pairs a full-matrix traceback gives),
    /// and mark every matched pair in the triangle.
    ///
    /// Returns the alignment and the number of cells the acceptance
    /// swept: the forward pass, the reverse pass and the box. The caller
    /// must have just verified (via a fresh sweep) that `r` holds the
    /// best score; this function asserts the score it finds matches
    /// `expected_score`.
    pub fn accept_task_with_row<'o>(
        &self,
        r: usize,
        expected_score: Score,
        triangle: &mut OverrideTriangle,
        original: impl Into<RowRef<'o>>,
        index: usize,
    ) -> (TopAlignment, u64) {
        let (prefix, suffix) = self.seq.split(r);
        let mask = SplitMask::new(triangle, r);
        let (fwd, maxima) = self.split(r).last_row_maxima(mask);
        let (score, col) = best_valid_entry(&fwd.row, original);
        assert_eq!(
            score, expected_score,
            "acceptance recomputation of split {r} disagrees with its queue score"
        );
        let col = col.expect("accepted task must have a positive valid entry");
        let (al, cells) = traceback_in_box(
            prefix,
            suffix,
            self.scoring,
            mask,
            (r - 1, col),
            score,
            &maxima,
        );
        let pairs: Vec<(usize, usize)> = al.pairs.iter().map(|p| (p.row, r + p.col)).collect();
        for &(p, q) in &pairs {
            triangle.set(p, q);
        }
        (
            TopAlignment {
                index,
                r,
                score,
                pairs,
            },
            fwd.cells + cells,
        )
    }
}

/// [`ScoredSeq::align_task`] over a throwaway profile: the one-off form
/// for tests and tools.
pub fn align_task(
    seq: &Seq,
    scoring: &Scoring,
    r: usize,
    triangle: &OverrideTriangle,
    original: Option<&[Score]>,
) -> TaskResult {
    ScoredSeq::new(seq, scoring).align_task(r, triangle, original)
}

/// What one [`TopAlignmentFinder::step`] did. A unit is named by its
/// first split — for the split unit, the split itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// A stale unit was (re)aligned and requeued with this score.
    Realigned {
        /// The first split of the unit that was realigned.
        r: usize,
        /// Its best member's score, exact under the version the sweep is
        /// stamped with; below the current version (a first pass delayed
        /// past accepts straddling it), capped by the queued bound.
        score: Score,
    },
    /// A fresh head unit's best member was accepted as the next top
    /// alignment.
    Accepted {
        /// The split that was accepted.
        r: usize,
        /// The accepted score.
        score: Score,
    },
    /// A never-aligned head unit was requeued with its tightened seed
    /// bound **without aligning it** — the bound-fresh fast path. Only
    /// produced with [`Search::seed`] set.
    Pruned {
        /// The first split of the unit whose bound was tightened.
        r: usize,
        /// The tightened (still admissible) bound it re-entered with.
        bound: Score,
    },
    /// No positive nonoverlapping alignment remains (or the requested
    /// count is reached).
    Done,
}

/// The inline driver of Figure 5's loop, generic over the [`PackKernel`]
/// whose [`PackUnit`]s it schedules. [`Self::run`] is the one-shot entry
/// point; `step` exposes the loop for tests and tools.
pub struct TopAlignmentFinder<'a, K: PackKernel = ScoredSeq<'a>> {
    unit: PackUnit<K>,
    common: Common<'a>,
    config: FinderConfig,
    /// The task table, its order and the seed bounds; nothing is ever
    /// claimed across a step.
    sched: Scheduler<'a>,
    triangle: OverrideTriangle,
    alignments: Vec<TopAlignment>,
    stats: Stats,
    packs: LanePacks,
}

impl<'a> TopAlignmentFinder<'a> {
    /// Set up a search over `seq`, one split to a task: 1-lane packs
    /// swept by the scalar row step.
    pub fn new(seq: &'a Seq, scoring: &'a Scoring, config: FinderConfig) -> Self {
        let unit = PackUnit::new(
            ScoredSeq::new(seq, scoring),
            config.search.checkpoint_budget,
        );
        TopAlignmentFinder::with_unit(seq, scoring, config, unit)
    }
}

impl<'a, K: PackKernel> TopAlignmentFinder<'a, K> {
    /// Set up a search over `seq` scheduling the units of `unit`.
    pub fn with_unit(
        seq: &'a Seq,
        scoring: &'a Scoring,
        config: FinderConfig,
        unit: PackUnit<K>,
    ) -> Self {
        TopAlignmentFinder {
            common: Common::new(seq, scoring),
            sched: Scheduler::new(&unit, seq, scoring, &config.search),
            config,
            triangle: OverrideTriangle::new(seq.len()),
            alignments: Vec::new(),
            stats: Stats::new(),
            packs: unit.packs(),
            unit,
        }
    }

    /// The one reader of clean rows that may not find them stored: in
    /// [`RowMode::Recompute`] no row outlives the pop that reads it
    /// (Appendix A), so the rows of `splits` are recomputed into the
    /// store here and forgotten when the pop ends.
    fn recompute_rows<R: Recorder>(&mut self, splits: Range<usize>, rec: &mut R) {
        if self.config.row_mode == RowMode::Store {
            return;
        }
        for r in splits {
            rec.phase_start(Phase::RowRecompute);
            let last = self.common.input.split(r).last_row(NoMask);
            self.stats.record_row_recompute(last.cells);
            rec.phase_end(Phase::RowRecompute);
            self.common.set_row(r, last.row);
        }
    }

    /// Top alignments accepted so far.
    pub fn alignments(&self) -> &[TopAlignment] {
        &self.alignments
    }

    /// Work counters so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The override triangle in its current state.
    pub fn triangle(&self) -> &OverrideTriangle {
        &self.triangle
    }

    /// Execute one scheduling decision (Figure 5's loop body).
    pub fn step(&mut self) -> Step {
        self.step_recorded(&mut NoopRecorder)
    }

    /// [`Self::step`] with instrumentation: the `first_sweep`/`drain`
    /// seconds and the `sweep_ns` sample (one clock pair around exactly
    /// the unit's sweep, as on the SMP engine), the traceback span,
    /// stale/fresh pop accounting, a round-trip sample and a progress
    /// heartbeat per pop. The recorder is a monomorphized generic —
    /// with [`NoopRecorder`] this compiles to exactly the
    /// uninstrumented loop (the clock reads and snapshot construction
    /// are gated on [`Recorder::ENABLED`]).
    pub fn step_recorded<R: Recorder>(&mut self, rec: &mut R) -> Step {
        let t0 = R::ENABLED.then(Instant::now);
        let step = self.step_inner(rec);
        if let Some(t0) = t0 {
            if step != Step::Done {
                rec.observe(Metric::TaskRoundTripNs, t0.elapsed().as_nanos() as u64);
            }
            let splits_total = self.common.input.seq.len().saturating_sub(1) as u64;
            rec.progress(&Progress {
                splits_done: self.sched.first_passes() as u64,
                splits_total,
                splits_pruned: splits_total.saturating_sub(self.sched.first_passes() as u64),
                realignments_avoided: self.stats.pruned_pops + self.stats.checkpoint_hits,
                tops_found: self.alignments.len() as u64,
                tops_requested: self.config.search.count as u64,
            });
        }
        step
    }

    fn step_inner<R: Recorder>(&mut self, rec: &mut R) -> Step {
        let tops_found = self.alignments.len();
        let (u, step) = match self.sched.next(&mut self.stats, &self.triangle, usize::MAX) {
            Next::Done | Next::Wait => return Step::Done,
            Next::Pruned { u, bound, slack } => {
                // How far the stale bound overshot the fresh one — the
                // slack pruning had to work with.
                rec.observe(Metric::PruneSlack, slack as u64);
                let r = self.unit.splits(u).start;
                return Step::Pruned { r, bound };
            }
            Next::Accept { u, score } => {
                // A fresh unit at the head: its best member is the next
                // top alignment (smallest split on ties).
                let (r, best) = self.packs.best_member(u);
                debug_assert_eq!(best, score, "unit {u}'s queued and exact scores disagree");
                self.recompute_rows(r..r + 1, rec);
                rec.phase_start(Phase::Traceback);
                let (top, cells) = self.common.input.accept_task_with_row(
                    r,
                    score,
                    &mut self.triangle,
                    self.common.row(r),
                    tops_found,
                );
                rec.phase_end(Phase::Traceback);
                self.stats.record_traceback(cells);
                self.sched.accepted(&top.pairs);
                self.alignments.push(top);
                (u, Step::Accepted { r, score })
            }
            Next::Sweep { u, first, .. } => {
                let splits = self.unit.splits(u);
                if !first {
                    self.recompute_rows(splits.clone(), rec);
                }
                let plan = self.packs.plan(u, first, &self.alignments);
                let swept = (!plan.is_replay()).then(|| {
                    let t0 = R::ENABLED.then(Instant::now);
                    let swept = self.unit.sweep(&self.common, &plan, &self.triangle);
                    if let Some(t0) = t0 {
                        let sweep = t0.elapsed();
                        let kind = if first {
                            Phase::FirstSweep
                        } else {
                            Phase::Drain
                        };
                        rec.add_phase_secs(kind, sweep.as_secs_f64());
                        rec.observe(Metric::SweepNs, sweep.as_nanos() as u64);
                    }
                    swept
                });
                let version = plan.version() as usize;
                let score = self.packs.commit(&mut self.stats, rec, plan, swept);
                let score = self.sched.settle(u, score, version);
                let r = splits.start;
                (u, Step::Realigned { r, score })
            }
        };
        if self.config.row_mode == RowMode::Recompute {
            self.unit.splits(u).for_each(|r| self.common.forget_row(r));
        }
        step
    }

    /// Run to completion and return the result.
    pub fn run(self) -> TopAlignments {
        self.run_recorded(&mut NoopRecorder)
    }

    /// [`Self::run`] with instrumentation (see [`Self::step_recorded`]).
    pub fn run_recorded<R: Recorder>(mut self, rec: &mut R) -> TopAlignments {
        while !matches!(self.step_recorded(rec), Step::Done) {}
        self.sched.finish(&mut self.stats);
        TopAlignments {
            alignments: self.alignments,
            stats: self.stats,
            triangle: self.triangle,
        }
    }
}

/// One-shot convenience: find `count` top alignments of `seq`.
///
/// ```
/// use repro_core::find_top_alignments;
/// use repro_align::{Scoring, Seq};
///
/// // The paper's Figure 4 example has three top alignments of score 8.
/// let seq = Seq::dna("ATGCATGCATGC").unwrap();
/// let tops = find_top_alignments(&seq, &Scoring::dna_example(), 3);
/// assert_eq!(tops.alignments.len(), 3);
/// assert!(tops.alignments.iter().all(|t| t.score == 8));
/// assert_eq!(tops.alignments[0].pairs, vec![(0, 4), (1, 5), (2, 6), (3, 7)]);
/// ```
pub fn find_top_alignments(seq: &Seq, scoring: &Scoring, count: usize) -> TopAlignments {
    TopAlignmentFinder::new(seq, scoring, FinderConfig::new(Search::new(count))).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_align::Alphabet;

    fn atgc_scoring() -> Scoring {
        Scoring::dna_example()
    }

    /// `count` tops with the given layers on, default kernel and rows.
    fn config(count: usize, budget: Option<usize>, seed: Option<SeedConfig>) -> FinderConfig {
        FinderConfig::new(Search {
            count,
            checkpoint_budget: budget,
            seed,
        })
    }

    /// The paper's Figure 4 example: ATGCATGCATGC has three equivalent
    /// top alignments of score 8 (4 exact ATGC matches each).
    #[test]
    fn figure4_three_top_alignments() {
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let result = find_top_alignments(&seq, &atgc_scoring(), 3);
        assert_eq!(result.alignments.len(), 3);

        let t1 = &result.alignments[0];
        assert_eq!((t1.r, t1.score), (4, 8));
        assert_eq!(t1.pairs, vec![(0, 4), (1, 5), (2, 6), (3, 7)]);

        let t2 = &result.alignments[1];
        assert_eq!((t2.r, t2.score), (4, 8));
        assert_eq!(t2.pairs, vec![(0, 8), (1, 9), (2, 10), (3, 11)]);

        let t3 = &result.alignments[2];
        assert_eq!((t3.r, t3.score), (8, 8));
        assert_eq!(t3.pairs, vec![(4, 8), (5, 9), (6, 10), (7, 11)]);
    }

    #[test]
    fn top_alignments_never_overlap() {
        let seq = Seq::dna("ATGCATGCATGCATGCATGC").unwrap();
        let result = find_top_alignments(&seq, &atgc_scoring(), 6);
        let mut seen = std::collections::HashSet::new();
        for top in &result.alignments {
            for &pair in &top.pairs {
                assert!(
                    seen.insert(pair),
                    "pair {pair:?} appears in two top alignments"
                );
            }
        }
        assert_eq!(result.triangle.len(), seen.len());
    }

    #[test]
    fn scores_are_non_increasing() {
        let seq = Seq::dna("ACGTTGCAACGTACGTTGCAGGTT").unwrap();
        let result = find_top_alignments(&seq, &atgc_scoring(), 8);
        for w in result.alignments.windows(2) {
            assert!(
                w[0].score >= w[1].score,
                "top alignments must come out best-first"
            );
        }
    }

    #[test]
    fn exhaustion_returns_fewer_alignments() {
        // A sequence with almost no internal similarity: requesting many
        // tops must terminate early rather than loop or panic.
        let seq = Seq::dna("ACGT").unwrap();
        let result = find_top_alignments(&seq, &atgc_scoring(), 10);
        assert!(result.alignments.len() < 10);
        for top in &result.alignments {
            assert!(top.score > 0);
        }
    }

    #[test]
    fn no_positive_alignment_at_all() {
        // All-distinct residues: every off-diagonal pair mismatches.
        let seq = Seq::protein("ARNDCQEGHILKMFPSTWYV").unwrap();
        let scoring = Scoring::new(
            repro_align::ExchangeMatrix::match_mismatch(Alphabet::Protein, 2, -1),
            repro_align::GapPenalties::new(2, 1),
        );
        let result = find_top_alignments(&seq, &scoring, 5);
        assert!(result.alignments.is_empty());
        assert!(result.triangle.is_empty());
    }

    #[test]
    fn pairs_straddle_the_split() {
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let result = find_top_alignments(&seq, &atgc_scoring(), 3);
        for top in &result.alignments {
            for &(p, q) in &top.pairs {
                assert!(p < top.r, "prefix side of pair out of range");
                assert!(q >= top.r, "suffix side of pair out of range");
                assert!(q < seq.len());
            }
        }
    }

    /// Golden trace of Figure 5's scheduling on the Figure 4 example:
    /// every split aligns once (initial ∞ priorities), the best split is
    /// accepted, and between acceptances only the provably-necessary
    /// splits realign.
    #[test]
    fn figure5_scheduling_golden_trace() {
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let scoring = atgc_scoring();
        let mut finder = TopAlignmentFinder::new(&seq, &scoring, config(3, None, None));
        let mut trace = Vec::new();
        loop {
            let step = finder.step();
            if matches!(step, Step::Done) {
                break;
            }
            trace.push(step);
        }
        // Phase 1: the 11 first passes (splits pop in descending-r order
        // among equal ∞ priorities? no — ties break on smaller r).
        let first_passes: Vec<usize> = trace[..11]
            .iter()
            .map(|s| match s {
                Step::Realigned { r, .. } => *r,
                other => panic!("expected realignment, got {other:?}"),
            })
            .collect();
        assert_eq!(first_passes, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        // Acceptance 1: split 4 at score 8, directly off the sweep (all
        // sweep scores are fresh, so the head needs no realignment).
        assert_eq!(trace[11], Step::Accepted { r: 4, score: 8 });
        // Acceptance 2: split 4 again (the second ATGC block), after a
        // single freshness realignment.
        assert_eq!(trace[12], Step::Realigned { r: 4, score: 8 });
        assert_eq!(trace[13], Step::Accepted { r: 4, score: 8 });
        // Acceptance 3: split 8, after realigning only the five splits
        // whose stale upper bounds (8) tie the winner.
        let realigned: Vec<usize> = trace[14..trace.len() - 1]
            .iter()
            .map(|s| match s {
                Step::Realigned { r, .. } => *r,
                other => panic!("expected realignment, got {other:?}"),
            })
            .collect();
        assert_eq!(realigned, vec![4, 5, 6, 7, 8]);
        assert_eq!(*trace.last().unwrap(), Step::Accepted { r: 8, score: 8 });
    }

    /// Known-answer recorder totals on the Figure 4 example: the golden
    /// trace above fixes the schedule (11 first passes, acceptance,
    /// 1 drain realignment, acceptance, 5 drain realignments,
    /// acceptance), so every span entry count and pop counter is exact.
    #[test]
    fn recorder_known_answer_totals() {
        use repro_obs::FlightRecorder;
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let mut rec = FlightRecorder::new();
        let scoring = atgc_scoring();
        let result =
            TopAlignmentFinder::new(&seq, &scoring, config(3, None, None)).run_recorded(&mut rec);
        assert_eq!(result.alignments.len(), 3);
        // Pops: 11 first passes + 6 drain realignments are stale, the
        // 3 acceptances are fresh.
        assert_eq!(result.stats.stale_pops, 17);
        assert_eq!(result.stats.fresh_pops, 3);
        assert_eq!(result.stats.alignments, 17);
        assert_eq!(result.stats.tracebacks, 3);
        // Span entry counts mirror the pops exactly.
        assert_eq!(rec.phase_entries(Phase::FirstSweep), 11);
        assert_eq!(rec.phase_entries(Phase::Drain), 6);
        assert_eq!(rec.phase_entries(Phase::Traceback), 3);
        assert_eq!(rec.phase_entries(Phase::RowRecompute), 0);
        assert!(rec.phase_secs(Phase::FirstSweep) > 0.0);
        assert!(rec.phase_secs(Phase::Traceback) > 0.0);
        // Realignments after an acceptance hit the shadow filter.
        assert!(result.stats.shadow_rejections > 0);
        // Histogram samples mirror the pops: one sweep per stale pop,
        // one round trip per pop of any kind.
        use repro_obs::Metric;
        assert_eq!(rec.hist(Metric::SweepNs).count(), 17);
        assert_eq!(rec.hist(Metric::TaskRoundTripNs).count(), 20);
        assert!(rec.hist(Metric::SweepNs).sum() > 0);
        assert!(rec.hist(Metric::SweepNs).p99() >= rec.hist(Metric::SweepNs).p50());
        // No seeding and no checkpointing in this config.
        assert_eq!(rec.hist(Metric::PruneSlack).count(), 0);
        assert_eq!(rec.hist(Metric::ResumeRows).count(), 0);
        // The recorded run is the same computation: identical output and
        // stats as the unrecorded entry point.
        let plain = find_top_alignments(&seq, &atgc_scoring(), 3);
        assert_eq!(plain.alignments, result.alignments);
        assert_eq!(plain.stats, result.stats);
    }

    #[test]
    fn recorder_sees_row_recompute_phase_in_linear_memory_mode() {
        use repro_obs::FlightRecorder;
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let scoring = atgc_scoring();
        let mut rec = FlightRecorder::new();
        let result =
            TopAlignmentFinder::new(&seq, &scoring, FinderConfig::linear_memory(Search::new(3)))
                .run_recorded(&mut rec);
        assert_eq!(result.alignments.len(), 3);
        assert_eq!(
            rec.phase_entries(Phase::RowRecompute),
            result.stats.row_recomputations
        );
        assert!(rec.phase_entries(Phase::RowRecompute) > 0);
    }

    #[test]
    fn top_alignment_helpers() {
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let result = find_top_alignments(&seq, &atgc_scoring(), 1);
        let top = &result.alignments[0];
        assert_eq!(top.cigar(), "4M");
        assert_eq!(top.prefix_span(), Some(0..4));
        assert_eq!(top.suffix_span(), Some(4..8));
        assert_eq!(top.identity(&seq), 1.0);
    }

    #[test]
    fn all_tasks_aligned_before_first_acceptance() {
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let scoring = atgc_scoring();
        let mut finder = TopAlignmentFinder::new(&seq, &scoring, config(1, None, None));
        let mut realigned = 0;
        loop {
            match finder.step() {
                Step::Realigned { .. } => realigned += 1,
                Step::Accepted { .. } => break,
                other => panic!("should accept one top alignment, got {other:?}"),
            }
        }
        // All m−1 = 11 splits align once before the first acceptance.
        assert_eq!(realigned, 11);
        assert_eq!(finder.stats().realignments_per_top, vec![11]);
    }

    #[test]
    fn realignment_fraction_is_small_on_repetitive_input() {
        let seq = Seq::dna(&"ATGC".repeat(20)).unwrap();
        let result = find_top_alignments(&seq, &atgc_scoring(), 10);
        assert_eq!(result.alignments.len(), 10);
        let frac = result.stats.realignment_fraction(seq.len() - 1);
        assert!(
            frac < 0.5,
            "queue heuristic should skip most realignments, got {frac}"
        );
    }

    #[test]
    fn stats_count_tracebacks() {
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let result = find_top_alignments(&seq, &atgc_scoring(), 3);
        assert_eq!(result.stats.tracebacks, 3);
        assert!(result.stats.traceback_cells > 0);
        assert!(result.stats.alignments >= 11);
    }

    #[test]
    fn empty_and_tiny_sequences() {
        let scoring = atgc_scoring();
        for text in ["", "A", "AC"] {
            let seq = Seq::dna(text).unwrap();
            let result = find_top_alignments(&seq, &scoring, 3);
            assert!(result.alignments.len() <= 1, "input {text:?}");
        }
        // "AA" has one split: A vs A, score 2.
        let seq = Seq::dna("AA").unwrap();
        let result = find_top_alignments(&seq, &scoring, 3);
        assert_eq!(result.alignments.len(), 1);
        assert_eq!(result.alignments[0].pairs, vec![(0, 1)]);
    }

    #[test]
    fn linear_memory_mode_matches_default() {
        // Appendix A's linear-memory option (on-demand row recomputation)
        // must find the exact same alignments, paying extra
        // recomputation work.
        let scoring = atgc_scoring();
        for text in ["ATGCATGCATGC", "ACGTTGCAACGTACGTTGCAGGTT", "AAAAAAAAAA"] {
            let seq = Seq::dna(text).unwrap();
            let default = find_top_alignments(&seq, &scoring, 5);
            let linmem = TopAlignmentFinder::new(
                &seq,
                &scoring,
                FinderConfig::linear_memory(Search::new(5)),
            )
            .run();
            assert_eq!(default.alignments, linmem.alignments, "on {text}");
            assert_eq!(default.triangle, linmem.triangle);
            if !linmem.alignments.is_empty() {
                assert!(
                    linmem.stats.row_recomputations > 0,
                    "recompute mode must actually recompute rows"
                );
                assert_eq!(default.stats.row_recomputations, 0);
            }
        }
    }

    #[test]
    fn recompute_mode_alone_matches_default() {
        let scoring = atgc_scoring();
        let seq = Seq::dna(&"ATGC".repeat(12)).unwrap();
        let default = find_top_alignments(&seq, &scoring, 8);
        let cfg = FinderConfig {
            row_mode: RowMode::Recompute,
            ..config(8, None, None)
        };
        let recompute = TopAlignmentFinder::new(&seq, &scoring, cfg).run();
        assert_eq!(default.alignments, recompute.alignments);
        // Work accounting: the scheduled alignment passes are identical;
        // only the extra recompute passes differ.
        assert_eq!(default.stats.alignments, recompute.stats.alignments);
        assert!(recompute.stats.row_recompute_cells > 0);
    }

    #[test]
    fn count_zero_returns_immediately() {
        let seq = Seq::dna("ATGCATGC").unwrap();
        let result = find_top_alignments(&seq, &atgc_scoring(), 0);
        assert!(result.alignments.is_empty());
        assert_eq!(result.stats.alignments, 0);
    }

    /// The incremental realignment layer must be invisible in the
    /// output: identical alignments, triangle, and schedule-sensitive
    /// stats at every budget — including 0, where every sweep misses.
    #[test]
    fn checkpointing_matches_default_bit_for_bit() {
        let scoring = atgc_scoring();
        for text in [
            "ATGCATGCATGC".to_string(),
            "ACGTTGCAACGTACGTTGCAGGTT".to_string(),
            "ATGC".repeat(20),
            "AAAAAAAAAA".to_string(),
        ] {
            let seq = Seq::dna(&text).unwrap();
            let base = find_top_alignments(&seq, &scoring, 10);
            for budget in [0usize, 4096, repro_align::DEFAULT_CHECKPOINT_BUDGET] {
                let cfg = config(10, Some(budget), None);
                let incr = TopAlignmentFinder::new(&seq, &scoring, cfg).run();
                assert_eq!(
                    base.alignments, incr.alignments,
                    "budget {budget} on {text}"
                );
                assert_eq!(base.triangle, incr.triangle);
                // The schedule (and therefore every schedule-derived
                // count) is untouched; only cells may shrink.
                assert_eq!(base.stats.alignments, incr.stats.alignments);
                assert_eq!(base.stats.stale_pops, incr.stats.stale_pops);
                assert_eq!(base.stats.fresh_pops, incr.stats.fresh_pops);
                assert_eq!(
                    base.stats.realignments_per_top,
                    incr.stats.realignments_per_top
                );
                assert_eq!(
                    base.stats.shadow_rejections, incr.stats.shadow_rejections,
                    "budget {budget} on {text}"
                );
                assert!(incr.stats.cells <= base.stats.cells);
                // Every realignment is either a hit or a miss.
                let drains = incr.stats.stale_pops
                    - incr
                        .stats
                        .realignments_per_top
                        .first()
                        .copied()
                        .unwrap_or(0);
                assert_eq!(
                    incr.stats.checkpoint_hits + incr.stats.checkpoint_misses,
                    drains
                );
                if budget == 0 {
                    assert_eq!(incr.stats.checkpoint_hits, 0);
                    assert_eq!(incr.stats.realign_rows_skipped, 0);
                }
            }
        }
    }

    /// On a sequence with *embedded* repeats (motifs at interior
    /// positions, the realistic shape), accepts dirty only a band of
    /// rows, so realignments full-skip or resume. A perfectly periodic
    /// sequence is the adversarial case — its top alignments all start
    /// at residue 0 and dirty every split from row 0.
    #[test]
    fn checkpointing_skips_rows_on_embedded_repeats() {
        let scoring = atgc_scoring();
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAA{motif}CCAAGGTT{motif}TGCATTGG");
        let seq = Seq::dna(&text).unwrap();
        let cfg = config(10, Some(repro_align::DEFAULT_CHECKPOINT_BUDGET), None);
        let result = TopAlignmentFinder::new(&seq, &scoring, cfg).run();
        assert!(!result.alignments.is_empty());
        assert!(result.stats.checkpoint_hits > 0, "no sweep was served");
        assert!(result.stats.realign_rows_skipped > 0);
        assert!(result.stats.rows_skipped_fraction() > 0.0);
    }

    #[test]
    fn checkpointing_composes_with_linear_memory_mode() {
        let scoring = atgc_scoring();
        let seq = Seq::dna(&"ACGGT".repeat(10)).unwrap();
        let base = find_top_alignments(&seq, &scoring, 6);
        let cfg = FinderConfig {
            row_mode: RowMode::Recompute,
            ..config(6, Some(repro_align::DEFAULT_CHECKPOINT_BUDGET), None)
        };
        let incr = TopAlignmentFinder::new(&seq, &scoring, cfg).run();
        assert_eq!(base.alignments, incr.alignments);
        assert_eq!(base.triangle, incr.triangle);
        assert!(incr.stats.row_recomputations > 0);
    }

    /// The Figure 4 golden schedule survives checkpointing untouched.
    #[test]
    fn checkpointing_preserves_recorder_golden_totals() {
        use repro_obs::FlightRecorder;
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let mut rec = FlightRecorder::new();
        let cfg = config(3, Some(repro_align::DEFAULT_CHECKPOINT_BUDGET), None);
        let result = TopAlignmentFinder::new(&seq, &atgc_scoring(), cfg).run_recorded(&mut rec);
        assert_eq!(result.alignments.len(), 3);
        assert_eq!(result.stats.stale_pops, 17);
        assert_eq!(result.stats.fresh_pops, 3);
        assert_eq!(result.stats.alignments, 17);
        assert_eq!(rec.phase_entries(Phase::FirstSweep), 11);
        assert_eq!(rec.phase_entries(Phase::Drain), 6);
        assert_eq!(rec.phase_entries(Phase::Traceback), 3);
        assert_eq!(
            result.stats.checkpoint_hits + result.stats.checkpoint_misses,
            6,
            "all six drain realignments route through the layer"
        );
        // Output identical to the plain engine.
        let plain = find_top_alignments(&seq, &atgc_scoring(), 3);
        assert_eq!(plain.alignments, result.alignments);
    }

    /// Seeded pruning must be invisible in the output: identical
    /// alignments and triangle on every input shape, whatever the k-mer
    /// width, including inputs that exhaust before `count`.
    #[test]
    fn seeded_pruning_is_output_invisible() {
        let scoring = atgc_scoring();
        let motif = "ATGCATGCATGC";
        for text in [
            "ATGCATGCATGC".to_string(),
            "ACGTTGCAACGTACGTTGCAGGTT".to_string(),
            "ATGC".repeat(20),
            "AAAAAAAAAA".to_string(),
            "ACGT".to_string(),
            format!("GGTTCCAACCGGTTAA{motif}CAGTCCGGAATTCCGG{motif}TTGGACCA"),
        ] {
            let seq = Seq::dna(&text).unwrap();
            let base = find_top_alignments(&seq, &scoring, 10);
            for k in [3usize, 6] {
                let cfg = config(10, None, Some(crate::seed::SeedConfig::new(k)));
                let pruned = TopAlignmentFinder::new(&seq, &scoring, cfg).run();
                assert_eq!(base.alignments, pruned.alignments, "k {k} on {text}");
                assert_eq!(base.triangle, pruned.triangle, "k {k} on {text}");
                // Pop accounting: the three buckets partition all pops.
                assert_eq!(base.stats.fresh_pops, pruned.stats.fresh_pops);
            }
        }
    }

    /// On a low-repeat input with a small requested count, splits whose
    /// seed bound stays below every accepted score are never aligned.
    #[test]
    fn seeded_pruning_skips_splits_on_low_repeat_input() {
        let scoring = atgc_scoring();
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAACCGGTTAACCAGTGCA{motif}{motif}CAGTCCGGAATTCCGGTAACCGT");
        let seq = Seq::dna(&text).unwrap();
        let base = find_top_alignments(&seq, &scoring, 1);
        let cfg = config(1, None, Some(crate::seed::SeedConfig::default()));
        let pruned = TopAlignmentFinder::new(&seq, &scoring, cfg).run();
        assert_eq!(base.alignments, pruned.alignments);
        assert!(
            pruned.stats.splits_pruned > 0,
            "no split was pruned on a low-repeat input"
        );
        // Pruned splits performed no sweep: alignment passes + pruned
        // splits cover all splits at most once before the accept.
        let splits = (seq.len() - 1) as u64;
        let first_passes = pruned
            .stats
            .realignments_per_top
            .first()
            .copied()
            .unwrap_or(0);
        assert_eq!(first_passes + pruned.stats.splits_pruned, splits);
        assert!(pruned.stats.seed_index_build_ns > 0);
    }

    /// Seeding composes with the incremental checkpoint layer and the
    /// linear-memory configuration, still bit-identical.
    #[test]
    fn seeded_pruning_composes_with_other_configs() {
        let scoring = atgc_scoring();
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAACC{motif}GGTTAACCAGT{motif}GCACAGTCCGG");
        let seq = Seq::dna(&text).unwrap();
        let base = find_top_alignments(&seq, &scoring, 4);
        let seeded = crate::seed::SeedConfig::default();
        let combos = [
            config(
                4,
                Some(repro_align::DEFAULT_CHECKPOINT_BUDGET),
                Some(seeded),
            ),
            FinderConfig {
                row_mode: RowMode::Recompute,
                ..config(4, None, Some(seeded))
            },
        ];
        for cfg in combos {
            let got = TopAlignmentFinder::new(&seq, &scoring, cfg.clone()).run();
            assert_eq!(base.alignments, got.alignments, "config {cfg:?}");
            assert_eq!(base.triangle, got.triangle, "config {cfg:?}");
        }
    }

    /// Differential oracle: each accepted alignment's score must equal an
    /// independent masked alignment of its split computed from scratch,
    /// and its pairs must rescore to exactly that value.
    #[test]
    fn accepted_scores_match_independent_recomputation() {
        let seq = Seq::dna("ATGCAATGCATTTGCATGCA").unwrap();
        let scoring = atgc_scoring();
        let result = find_top_alignments(&seq, &scoring, 4);
        let mut triangle = OverrideTriangle::new(seq.len());
        for top in &result.alignments {
            // Recompute the split alignment under the triangle as of the
            // moment this top was accepted.
            let (prefix, suffix) = seq.split(top.r);
            let mask = SplitMask::new(&triangle, top.r);
            let last = repro_align::sw_last_row(prefix, suffix, &scoring, mask);
            assert!(
                top.score <= last.best_in_row,
                "accepted score exceeds what the split can produce"
            );
            for &(p, q) in &top.pairs {
                triangle.set(p, q);
            }
        }
    }

    /// Exhaustive small scope for the box accept: every `{A,C}` string
    /// up to 11 long, under the paper's scoring and a tie-heavy
    /// match/mismatch one, run to exhaustion. At every accept of the
    /// sequential run the accepted pairs equal a full-matrix traceback's
    /// from the same end cell under the triangle of that moment, and the
    /// acceptance swept at most the forward pass plus the split matrix
    /// twice over (reverse pass and box).
    #[test]
    fn box_accept_equals_full_matrix_traceback_on_every_short_string() {
        use repro_align::{traceback, ExchangeMatrix, GapPenalties};
        let tie = Scoring::new(
            ExchangeMatrix::match_mismatch(Alphabet::Dna, 1, -1),
            GapPenalties::new(0, 1),
        );
        let mut accepts = 0;
        for scoring in [atgc_scoring(), tie] {
            for n in 0..=11usize {
                for bits in 0..1u32 << n {
                    let text: String = (0..n)
                        .map(|i| if bits >> i & 1 == 0 { 'A' } else { 'C' })
                        .collect();
                    let seq = Seq::dna(&text).unwrap();
                    let input = ScoredSeq::new(&seq, &scoring);
                    let mut finder =
                        TopAlignmentFinder::new(&seq, &scoring, FinderConfig::new(Search::new(n)));
                    let mut cells = 0;
                    loop {
                        let before = finder.triangle().clone();
                        match finder.step() {
                            Step::Done => break,
                            Step::Accepted { r, score } => {
                                let full = input.split(r).full(SplitMask::new(&before, r));
                                let clean = input.split(r).last_row(NoMask).row;
                                let (s, col) = best_valid_entry(full.last_row(), &clean);
                                assert_eq!(s, score, "{text} split {r}");
                                let (prefix, suffix) = seq.split(r);
                                let end = (r - 1, col.unwrap());
                                let want = traceback(&full, end, prefix, suffix, &scoring);
                                let want: Vec<_> =
                                    want.pairs.iter().map(|p| (p.row, r + p.col)).collect();
                                let top = finder.alignments().last().unwrap();
                                assert_eq!(top.pairs, want, "{text} split {r}");
                                let split_cells = (r * (n - r)) as u64;
                                let swept = finder.stats().traceback_cells - cells;
                                assert!(swept <= 3 * split_cells, "{text} split {r}");
                                cells = finder.stats().traceback_cells;
                                accepts += 1;
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        assert!(accepts > 10_000, "{accepts}");
    }
}
