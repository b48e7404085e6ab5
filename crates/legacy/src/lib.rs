//! # repro-legacy — the old `O(n⁴)` Repro algorithm
//!
//! The baseline the paper measures against in Table 1. The 1993 Repro
//! found each top alignment by realigning **every** split from scratch —
//! no upper-bound task queue, no stored bottom rows — and validated
//! candidate end points the expensive way the paper's Appendix A
//! describes: "align the subsequences with and without an override
//! triangle, and use the alignment that yields the best, equal score in
//! both cases". Combined with the pre-Gotoh recurrence of Equation 1
//! (`O(n)` work per matrix cell), each top alignment costs `O(n⁴)`.
//!
//! Because the validity rule is the same (equal score with and without
//! overrides), this crate produces **exactly the same top alignments** as
//! `repro-core` — the paper's key correctness claim for the new
//! algorithm — which the test suite verifies differentially.
//!
//! [`LegacyKernel`] selects the inner loop:
//! * [`LegacyKernel::Naive`] — Equation 1 verbatim, the true `O(n⁴)`
//!   baseline;
//! * [`LegacyKernel::Gotoh`] — the `O(1)`-per-cell inner loop but still
//!   the full per-top sweep, isolating the task-queue effect for the
//!   ablation benchmarks (`Θ(k·n³)`).

#![warn(missing_docs)]

use repro_align::kernel::full::{sw_full, traceback};
use repro_align::{sw_last_row, sw_last_row_naive, NoMask, Score, Scoring, Seq, StoredRow};
use repro_core::{SplitMask, Stats, TopAlignment, TopAlignments};

/// Inner-loop choice for the old algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LegacyKernel {
    /// Equation 1 verbatim: `O(n)` per cell — the authentic `O(n⁴)` path.
    Naive,
    /// Figure 3's incremental recurrence: isolates the cost of the full
    /// per-top sweep from the cost of the naive cell update.
    Gotoh,
}

/// Find `count` nonoverlapping top alignments with the old algorithm.
///
/// Per accepted top alignment the entire set of `m−1` splits is aligned
/// twice (with and without the current override triangle, for shadow
/// validation) — the work pattern whose elimination is the paper's core
/// contribution.
pub fn find_top_alignments_old(
    seq: &Seq,
    scoring: &Scoring,
    count: usize,
    kernel: LegacyKernel,
) -> TopAlignments {
    let m = seq.len();
    let mut triangle = repro_core::OverrideTriangle::new(m);
    let mut stats = Stats::new();
    let mut alignments: Vec<TopAlignment> = Vec::new();

    let align =
        |prefix: &[u8], suffix: &[u8], mask_r: Option<(&repro_core::OverrideTriangle, usize)>| {
            match (kernel, mask_r) {
                (LegacyKernel::Naive, Some((t, r))) => {
                    sw_last_row_naive(prefix, suffix, scoring, SplitMask::new(t, r))
                }
                (LegacyKernel::Naive, None) => sw_last_row_naive(prefix, suffix, scoring, NoMask),
                (LegacyKernel::Gotoh, Some((t, r))) => {
                    sw_last_row(prefix, suffix, scoring, SplitMask::new(t, r))
                }
                (LegacyKernel::Gotoh, None) => sw_last_row(prefix, suffix, scoring, NoMask),
            }
        };

    'tops: while alignments.len() < count {
        let tops_found = alignments.len();
        // Best (score, split, column) over the full sweep; ties resolve to
        // the smaller split then the leftmost column, matching the new
        // algorithm's deterministic ordering.
        let mut best: Option<(Score, usize, usize)> = None;
        for r in 1..m {
            let (prefix, suffix) = seq.split(r);
            let masked = align(prefix, suffix, Some((&triangle, r)));
            stats.record_alignment(masked.cells, tops_found);
            let (score, col) = if triangle.is_empty() {
                (masked.best_in_row, masked.best_in_row_col)
            } else {
                // The expensive validation: realign without overrides and
                // accept only end points whose scores agree.
                let clean = align(prefix, suffix, None);
                stats.record_alignment(clean.cells, tops_found);
                let clean = StoredRow::encode(&clean.row);
                repro_core::bottom::best_valid_entry(&masked.row, &clean)
            };
            if let Some(col) = col {
                if best.is_none_or(|(bs, _, _)| score > bs) {
                    best = Some((score, r, col));
                }
            }
        }
        let Some((score, r, col)) = best else {
            break 'tops; // no positive nonoverlapping alignment remains
        };
        if score <= 0 {
            break 'tops;
        }

        let (prefix, suffix) = seq.split(r);
        let matrix = sw_full(prefix, suffix, scoring, SplitMask::new(&triangle, r));
        stats.record_traceback(matrix.rows() as u64 * matrix.cols() as u64);
        let al = traceback(&matrix, (r - 1, col), prefix, suffix, scoring);
        debug_assert_eq!(al.score, score);
        let pairs: Vec<(usize, usize)> = al.pairs.iter().map(|p| (p.row, r + p.col)).collect();
        for &(p, q) in &pairs {
            triangle.set(p, q);
        }
        alignments.push(TopAlignment {
            index: tops_found,
            r,
            score,
            pairs,
        });
    }

    TopAlignments {
        alignments,
        stats,
        triangle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_core::find_top_alignments;

    #[test]
    fn figure4_example_matches_paper() {
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let scoring = Scoring::dna_example();
        let result = find_top_alignments_old(&seq, &scoring, 3, LegacyKernel::Gotoh);
        assert_eq!(result.alignments.len(), 3);
        assert_eq!(
            result.alignments[0].pairs,
            vec![(0, 4), (1, 5), (2, 6), (3, 7)]
        );
        assert_eq!(
            result.alignments[1].pairs,
            vec![(0, 8), (1, 9), (2, 10), (3, 11)]
        );
        assert_eq!(
            result.alignments[2].pairs,
            vec![(4, 8), (5, 9), (6, 10), (7, 11)]
        );
    }

    /// The paper's central correctness claim: the new algorithm computes
    /// *exactly the same* top alignments as the old one.
    #[test]
    fn old_and_new_agree_exactly() {
        let scoring = Scoring::dna_example();
        for text in [
            "ATGCATGCATGC",
            "ACGTTGCAACGTACGTTGCAGGTT",
            "AAAAAAAAAA",
            "ATATATATATATATAT",
            "ACGGTACGGTAACGGT",
        ] {
            let seq = Seq::dna(text).unwrap();
            let new = find_top_alignments(&seq, &scoring, 5);
            for kernel in [LegacyKernel::Naive, LegacyKernel::Gotoh] {
                let old = find_top_alignments_old(&seq, &scoring, 5, kernel);
                assert_eq!(
                    old.alignments, new.alignments,
                    "old({kernel:?}) and new disagree on {text}"
                );
            }
        }
    }

    #[test]
    fn old_algorithm_does_vastly_more_alignments() {
        let seq = Seq::dna(&"ATGC".repeat(15)).unwrap();
        let scoring = Scoring::dna_example();
        let new = find_top_alignments(&seq, &scoring, 8);
        let old = find_top_alignments_old(&seq, &scoring, 8, LegacyKernel::Gotoh);
        assert_eq!(old.alignments, new.alignments);
        assert!(
            old.stats.alignments > 3 * new.stats.alignments,
            "old {} vs new {}: the task queue should save most realignments",
            old.stats.alignments,
            new.stats.alignments
        );
    }

    #[test]
    fn exhaustion_terminates() {
        let seq = Seq::dna("ACGT").unwrap();
        let scoring = Scoring::dna_example();
        let result = find_top_alignments_old(&seq, &scoring, 10, LegacyKernel::Naive);
        assert!(result.alignments.len() < 10);
    }

    #[test]
    fn empty_sequence() {
        let seq = Seq::dna("").unwrap();
        let scoring = Scoring::dna_example();
        let result = find_top_alignments_old(&seq, &scoring, 3, LegacyKernel::Naive);
        assert!(result.alignments.is_empty());
    }
}
