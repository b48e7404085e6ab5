//! Work accounting.
//!
//! Every engine reports the same counters so the experiments can compare
//! them directly: the paper's "the SSE version hardly computes more
//! alignments than the sequential version (less than 0.70 %)", "up to
//! 8.4 % more alignments" for the distributed scheduler, and the "90–97 %
//! of realignments avoided" claim for the task-queue heuristic all reduce
//! to these counts.

/// Counters accumulated while finding top alignments: the only home of
/// every exact work tally. The recorder's `Counter`s hold observations
/// it alone makes and repeat none of these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Score-only alignment passes performed (first passes + realignments).
    pub alignments: u64,
    /// Matrix cells computed across all score-only passes.
    pub cells: u64,
    /// Acceptance tracebacks (one per accepted top alignment).
    pub tracebacks: u64,
    /// Cells the acceptances swept: each accept's linear-memory forward
    /// pass over its split, its end-anchored reverse pass and the
    /// alignment's box (`repro_align::traceback_in_box`), not the whole
    /// split matrix.
    pub traceback_cells: u64,
    /// Realignments per accepted top alignment, index = top number
    /// (element 0 counts the initial full sweep).
    pub realignments_per_top: Vec<u64>,
    /// Score-pass cells per top number (same indexing); the per-phase
    /// work profile the cluster experiments time-model against.
    pub cells_per_top: Vec<u64>,
    /// Traceback cells per accepted top alignment, in acceptance order.
    pub traceback_cells_per_top: Vec<u64>,
    /// First-pass bottom rows recomputed on demand (only in
    /// [`crate::finder::RowMode::Recompute`], the linear-memory option
    /// of Appendix A).
    pub row_recomputations: u64,
    /// Cells spent on those on-demand recomputations.
    pub row_recompute_cells: u64,
    /// Bottom-row entries rejected by the shadow filter during
    /// realignment acceptance: positions where the realigned row
    /// disagreed with the stored first-pass row (paper App. A).
    pub shadow_rejections: u64,
    /// Queue pops whose upper bound was stale (→ the task was realigned).
    pub stale_pops: u64,
    /// Queue pops whose bound was fresh (→ the head was accepted as a
    /// top alignment without realignment).
    pub fresh_pops: u64,
    /// Queue pops resolved by tightening a never-aligned task's seed
    /// bound without aligning it (the third pop bucket: neither a
    /// realignment nor an acceptance).
    pub pruned_pops: u64,
    /// Splits whose alignment was never computed at all — their seed
    /// bound kept them below every acceptance for the whole run.
    pub splits_pruned: u64,
    /// Post-accept seed-bound recomputations (masked resweeps).
    pub bound_recomputes: u64,
    /// Nanoseconds spent building the split bounds: the two
    /// empty-triangle sweeps of `SplitBounds::build` (0 when seeding is
    /// off). There is no seed index; the name stays because it is the
    /// report key.
    pub seed_index_build_ns: u64,
    /// Cluster task retransmissions that went out, one per item and round.
    pub cluster_retries: u64,
    /// Cluster tasks reassigned away from a dead worker.
    pub cluster_reassignments: u64,
    /// Realignments of a unit, with checkpointing enabled, that some
    /// shortcut served: a lane replayed from its memo (every lane: a
    /// whole-unit skip) or a sweep resumed from a checkpoint below row
    /// 0. With [`Self::checkpoint_misses`] it counts every realignment
    /// exactly once.
    pub checkpoint_hits: u64,
    /// Realignments of a unit, with checkpointing enabled, that swept
    /// every lane from row 0 (no lane clean, no valid checkpoint shared,
    /// or the budget is 0).
    pub checkpoint_misses: u64,
    /// Realignment DP rows actually swept (first passes excluded).
    pub realign_rows_swept: u64,
    /// Realignment DP rows skipped via memo or checkpoint resume.
    pub realign_rows_skipped: u64,
    /// Lanes (splits) replayed from a per-lane memo instead of swept —
    /// clean lanes of partially-dirty packs plus every lane of a
    /// whole-pack skip.
    pub lanes_skipped: u64,
    /// Lanes swept inside a compacted pack: a re-packed subset of a
    /// partially-dirty pack, or a full pack resumed below row 0.
    pub lanes_compacted: u64,
}

impl Stats {
    /// Fresh counters.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Record one score-only pass of `cells` cells, exact under version
    /// `tops_found` (see [`Self::record_alignments`]).
    pub fn record_alignment(&mut self, cells: u64, tops_found: usize) {
        self.record_alignments(1, cells, tops_found);
    }

    /// Record `n` score-only passes of `cells` cells in total, booked
    /// under the version their scores are exact under: `tops_found`, the
    /// number of top alignments behind the triangle they count against.
    /// That is the number existing when the sweep was planned, except
    /// for a first pass delayed past accepts straddling it, which sweeps
    /// clean and books under version 0 — like every paper first pass.
    pub fn record_alignments(&mut self, n: u64, cells: u64, tops_found: usize) {
        self.alignments += n;
        self.cells += cells;
        if self.realignments_per_top.len() <= tops_found {
            self.realignments_per_top.resize(tops_found + 1, 0);
            self.cells_per_top.resize(tops_found + 1, 0);
        }
        self.realignments_per_top[tops_found] += n;
        self.cells_per_top[tops_found] += cells;
    }

    /// Record one traceback pass.
    pub fn record_traceback(&mut self, cells: u64) {
        self.tracebacks += 1;
        self.traceback_cells += cells;
        self.traceback_cells_per_top.push(cells);
    }

    /// Record one on-demand first-pass-row recomputation.
    pub fn record_row_recompute(&mut self, cells: u64) {
        self.row_recomputations += 1;
        self.row_recompute_cells += cells;
    }

    /// Record one realignment through the incremental layer:
    /// `[hits, misses, rows swept, rows skipped]`.
    pub fn record_resume(&mut self, tallies: [u64; 4]) {
        self.checkpoint_hits += tallies[0];
        self.checkpoint_misses += tallies[1];
        self.realign_rows_swept += tallies[2];
        self.realign_rows_skipped += tallies[3];
    }

    /// Merge another engine's counters into this one (used by the
    /// parallel engines to sum per-worker stats).
    pub fn merge(&mut self, other: &Stats) {
        self.alignments += other.alignments;
        self.cells += other.cells;
        self.tracebacks += other.tracebacks;
        self.traceback_cells += other.traceback_cells;
        if self.realignments_per_top.len() < other.realignments_per_top.len() {
            self.realignments_per_top
                .resize(other.realignments_per_top.len(), 0);
            self.cells_per_top.resize(other.cells_per_top.len(), 0);
        }
        for (a, b) in self
            .realignments_per_top
            .iter_mut()
            .zip(&other.realignments_per_top)
        {
            *a += b;
        }
        for (a, b) in self.cells_per_top.iter_mut().zip(&other.cells_per_top) {
            *a += b;
        }
        self.traceback_cells_per_top
            .extend_from_slice(&other.traceback_cells_per_top);
        self.row_recomputations += other.row_recomputations;
        self.row_recompute_cells += other.row_recompute_cells;
        self.shadow_rejections += other.shadow_rejections;
        self.stale_pops += other.stale_pops;
        self.fresh_pops += other.fresh_pops;
        self.pruned_pops += other.pruned_pops;
        self.splits_pruned += other.splits_pruned;
        self.bound_recomputes += other.bound_recomputes;
        self.seed_index_build_ns += other.seed_index_build_ns;
        self.cluster_retries += other.cluster_retries;
        self.cluster_reassignments += other.cluster_reassignments;
        self.checkpoint_hits += other.checkpoint_hits;
        self.checkpoint_misses += other.checkpoint_misses;
        self.realign_rows_swept += other.realign_rows_swept;
        self.realign_rows_skipped += other.realign_rows_skipped;
        self.lanes_skipped += other.lanes_skipped;
        self.lanes_compacted += other.lanes_compacted;
    }

    /// The scalar tallies a run report prints under `stats`, as
    /// `(name, value)` in report order: the one place their names are
    /// written (the report's `stats` block and its validation both
    /// read them from here).
    pub fn tallies(&self) -> [(&'static str, u64); 18] {
        [
            ("alignments", self.alignments),
            ("cells", self.cells),
            ("tracebacks", self.tracebacks),
            ("traceback_cells", self.traceback_cells),
            ("stale_pops", self.stale_pops),
            ("fresh_pops", self.fresh_pops),
            ("shadow_rejections", self.shadow_rejections),
            ("row_recomputations", self.row_recomputations),
            ("cluster_retries", self.cluster_retries),
            ("cluster_reassignments", self.cluster_reassignments),
            ("checkpoint_hits", self.checkpoint_hits),
            ("checkpoint_misses", self.checkpoint_misses),
            ("realign_rows_swept", self.realign_rows_swept),
            ("realign_rows_skipped", self.realign_rows_skipped),
            ("splits_pruned", self.splits_pruned),
            ("pruned_pops", self.pruned_pops),
            ("bound_recomputes", self.bound_recomputes),
            ("seed_index_build_ns", self.seed_index_build_ns),
        ]
    }

    /// Fraction of realignment DP rows the incremental layer skipped
    /// (0.0 when no realignment rows were processed at all).
    pub fn rows_skipped_fraction(&self) -> f64 {
        let total = self.realign_rows_swept + self.realign_rows_skipped;
        if total == 0 {
            return 0.0;
        }
        self.realign_rows_skipped as f64 / total as f64
    }

    /// Total score-pass cells spent up to (and including) finding top
    /// alignment `k` — the sequential-time model used as Figure 8's
    /// baseline numerator (which charges the paper's full-matrix
    /// tracebacks on top).
    pub fn cells_to_top(&self, k: usize) -> u64 {
        self.cells_per_top.iter().take(k).sum()
    }

    /// Fraction of the naive `tops × splits` realignment budget actually
    /// spent after the initial sweep — the quantity the paper reports as
    /// "3–10 % of the matrices need realignment".
    pub fn realignment_fraction(&self, splits: usize) -> f64 {
        if self.realignments_per_top.len() <= 1 || splits == 0 {
            return 0.0;
        }
        let after_first: u64 = self.realignments_per_top[1..].iter().sum();
        let rounds = (self.realignments_per_top.len() - 1) as u64;
        after_first as f64 / (rounds * splits as u64) as f64
    }

    /// [`Self::realignment_fraction`] over the splits that entered the
    /// alignment pipeline at all: seed pruning removes `splits_pruned`
    /// splits from the naive budget, so keeping the full denominator
    /// would overstate "realignments avoided". This is the honest
    /// denominator the prune-aware report band uses.
    pub fn realignment_fraction_effective(&self, splits: usize) -> f64 {
        self.realignment_fraction(splits.saturating_sub(self.splits_pruned as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_fraction() {
        let mut s = Stats::new();
        // Initial sweep: 10 alignments before any top exists.
        for _ in 0..10 {
            s.record_alignment(100, 0);
        }
        // One realignment before top 1, two before top 2.
        s.record_alignment(100, 1);
        s.record_alignment(100, 2);
        s.record_alignment(100, 2);
        assert_eq!(s.alignments, 13);
        assert_eq!(s.cells, 1300);
        assert_eq!(s.realignments_per_top, vec![10, 1, 2]);
        // 3 realignments over 2 rounds × 10 splits = 0.15.
        assert!((s.realignment_fraction(10) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Stats::new();
        a.record_alignment(10, 0);
        a.record_traceback(5);
        let mut b = Stats::new();
        b.record_alignment(20, 0);
        b.record_alignment(30, 1);
        a.shadow_rejections = 2;
        a.stale_pops = 4;
        b.shadow_rejections = 3;
        b.stale_pops = 1;
        b.fresh_pops = 2;
        b.cluster_retries = 5;
        b.cluster_reassignments = 1;
        a.checkpoint_hits = 7;
        b.checkpoint_hits = 2;
        b.checkpoint_misses = 3;
        a.realign_rows_swept = 100;
        b.realign_rows_swept = 50;
        b.realign_rows_skipped = 25;
        a.pruned_pops = 6;
        b.pruned_pops = 4;
        b.splits_pruned = 11;
        b.bound_recomputes = 2;
        b.seed_index_build_ns = 1000;
        a.merge(&b);
        assert_eq!(a.alignments, 3);
        assert_eq!(a.cells, 60);
        assert_eq!(a.tracebacks, 1);
        assert_eq!(a.realignments_per_top, vec![2, 1]);
        assert_eq!(a.shadow_rejections, 5);
        assert_eq!(a.stale_pops, 5);
        assert_eq!(a.fresh_pops, 2);
        assert_eq!(a.cluster_retries, 5);
        assert_eq!(a.cluster_reassignments, 1);
        assert_eq!(a.checkpoint_hits, 9);
        assert_eq!(a.checkpoint_misses, 3);
        assert_eq!(a.realign_rows_swept, 150);
        assert_eq!(a.realign_rows_skipped, 25);
        assert_eq!(a.pruned_pops, 10);
        assert_eq!(a.splits_pruned, 11);
        assert_eq!(a.bound_recomputes, 2);
        assert_eq!(a.seed_index_build_ns, 1000);
        assert!((a.rows_skipped_fraction() - 25.0 / 175.0).abs() < 1e-12);
    }

    #[test]
    fn effective_fraction_shrinks_the_denominator() {
        let mut s = Stats::new();
        // 10 first passes, then 3 realignments over 2 rounds.
        for _ in 0..10 {
            s.record_alignment(100, 0);
        }
        s.record_alignment(100, 1);
        s.record_alignment(100, 2);
        s.record_alignment(100, 2);
        s.splits_pruned = 10;
        // Naive budget: 20 splits; effective: 10 aligned splits.
        assert!((s.realignment_fraction(20) - 3.0 / 40.0).abs() < 1e-12);
        assert!((s.realignment_fraction_effective(20) - 3.0 / 20.0).abs() < 1e-12);
        // Degenerate: everything pruned.
        s.splits_pruned = 20;
        assert_eq!(s.realignment_fraction_effective(20), 0.0);
    }

    #[test]
    fn fraction_degenerate_cases() {
        let s = Stats::new();
        assert_eq!(s.realignment_fraction(10), 0.0);
        assert_eq!(s.realignment_fraction(0), 0.0);
    }
}
