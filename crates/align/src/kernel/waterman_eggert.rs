//! Waterman–Eggert non-overlapping suboptimal alignments.
//!
//! The prior art the paper builds on (Appendix A): "Waterman and
//! Eggert \[14\] also published an algorithm that overrides matrix
//! entries with zeros; Huang et al. \[5\] followed their approach with an
//! algorithm that reduced the memory requirements ... However, our
//! algorithm rejects shadow alignments."
//!
//! Given one sequence pair, this module returns the `k` best mutually
//! non-overlapping local alignments by repeatedly zeroing the matched
//! cells of each found alignment and recomputing. Unlike the Repro
//! machinery in `repro-core`, there is **no shadow rejection**: a later
//! alignment may be an artifact rerouted around an earlier one's zeroed
//! cells, scoring below what its end point was worth in the clean
//! matrix. The test suite exhibits such a shadow and shows the
//! top-alignment machinery refusing it — the behavioural difference the
//! paper claims as a contribution.

use crate::alignment::Alignment;
use crate::kernel::full::{sw_full, traceback};
use crate::mask::SetMask;
use crate::scoring::Scoring;
use crate::Score;

/// Up to `k` best non-overlapping local alignments of `a` vs `b`, in
/// descending score order, stopping early when nothing scores above
/// `min_score` (use 1 for "anything positive").
pub fn waterman_eggert(
    a: &[u8],
    b: &[u8],
    scoring: &Scoring,
    k: usize,
    min_score: Score,
) -> Vec<Alignment> {
    let min_score = min_score.max(1);
    let mut found = Vec::new();
    let mut mask = SetMask::default();
    for _ in 0..k {
        let matrix = sw_full(a, b, scoring, &mask);
        let Some((y, x, score)) = matrix.best_cell() else {
            break;
        };
        if score < min_score {
            break;
        }
        let al = traceback(&matrix, (y, x), a, b, scoring);
        for p in &al.pairs {
            mask.insert(p.row, p.col);
        }
        found.push(al);
    }
    found
}

/// `true` iff `al` is a **shadow** under `mask`: its score differs from
/// the value its end point has in the clean (unmasked) matrix — i.e.
/// the alignment was artificially rerouted around overridden cells.
/// This is exactly the acceptance test Repro adds on top of
/// Waterman–Eggert (paper Appendix A).
pub fn is_shadow(al: &Alignment, a: &[u8], b: &[u8], scoring: &Scoring) -> bool {
    let Some(end) = al.end() else {
        return false;
    };
    let clean = sw_full(a, b, scoring, crate::mask::NoMask);
    clean.get(end.row, end.col) != al.score
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::Seq;

    #[test]
    fn first_alignment_is_the_smith_waterman_optimum() {
        let a = Seq::dna("ATTGCGA").unwrap();
        let b = Seq::dna("CTTACAGA").unwrap();
        let s = Scoring::dna_example();
        let als = waterman_eggert(a.codes(), b.codes(), &s, 3, 1);
        assert!(!als.is_empty());
        assert_eq!(als[0].score, 6, "paper's worked example optimum");
    }

    #[test]
    fn alignments_do_not_overlap_and_scores_descend() {
        let a = Seq::dna("ATGCATGCATGC").unwrap();
        let s = Scoring::dna_example();
        let als = waterman_eggert(a.codes(), a.codes(), &s, 8, 1);
        let mut seen = std::collections::HashSet::new();
        let mut prev = Score::MAX;
        for al in &als {
            assert!(al.score <= prev);
            prev = al.score;
            assert!(al.is_well_formed());
            for p in &al.pairs {
                assert!(seen.insert((p.row, p.col)), "cell reused across alignments");
            }
        }
    }

    #[test]
    fn paths_rescore_consistently() {
        let a = Seq::protein("MGEKALVPYRLQHCMGEKALVPYR").unwrap();
        let b = Seq::protein("LQHCERSTMGEKALVPYRWW").unwrap();
        let s = Scoring::protein_default();
        for al in waterman_eggert(a.codes(), b.codes(), &s, 5, 1) {
            assert_eq!(al.rescore(a.codes(), b.codes(), &s), al.score);
        }
    }

    #[test]
    fn min_score_threshold_stops_early() {
        // Self-alignment of ATGCATGC: identity diagonal (16), then the
        // two offset-4 diagonals (8 each).
        let a = Seq::dna("ATGCATGC").unwrap();
        let s = Scoring::dna_example();
        let all = waterman_eggert(a.codes(), a.codes(), &s, 20, 1);
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].score, 16);
        let strong = waterman_eggert(a.codes(), a.codes(), &s, 20, 10);
        assert_eq!(strong.len(), 1);
        assert!(strong.iter().all(|al| al.score >= 10));
    }

    #[test]
    fn empty_inputs() {
        let s = Scoring::dna_example();
        assert!(waterman_eggert(&[], &[0, 0], &s, 3, 1).is_empty());
        let a = Seq::dna("AC").unwrap();
        let b = Seq::dna("GT").unwrap();
        assert!(waterman_eggert(a.codes(), b.codes(), &s, 3, 1).is_empty());
    }

    /// The behavioural difference the paper claims: Waterman–Eggert can
    /// emit a *shadow* alignment (rerouted around zeroed cells, worth
    /// less than its end point in the clean matrix), which Repro's
    /// validity check rejects. Shadows need a suboptimal path that
    /// *crosses* an earlier one, so sweep a deterministic corpus of
    /// random pairs and require at least one to exhibit the effect.
    #[test]
    fn waterman_eggert_emits_shadows_that_repro_would_reject() {
        let s = Scoring::dna_example();
        let mut lcg: u64 = 0x2545F4914F6CDD1D;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((lcg >> 33) % 4) as u8
        };
        let mut shadows = 0;
        let mut optimum_shadows = 0;
        for _ in 0..200 {
            let a: Vec<u8> = (0..12).map(|_| next()).collect();
            let b: Vec<u8> = (0..12).map(|_| next()).collect();
            let als = waterman_eggert(&a, &b, &s, 4, 1);
            if let Some(first) = als.first() {
                // The global optimum is never a shadow.
                if is_shadow(first, &a, &b, &s) {
                    optimum_shadows += 1;
                }
            }
            shadows += als
                .iter()
                .skip(1)
                .filter(|al| is_shadow(al, &a, &b, &s))
                .count();
        }
        assert_eq!(optimum_shadows, 0);
        assert!(
            shadows > 0,
            "200 random pairs should produce at least one rerouted shadow"
        );
    }
}
