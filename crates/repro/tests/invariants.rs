//! Cross-crate invariants of the top-alignment machinery, checked with
//! property-based inputs from the workload generator.

use proptest::prelude::*;
use repro::core::SplitMask;
use repro::{find_top_alignments, Scoring, Seq};
use repro_align::{sw_last_row, CellMask, NoMask};

fn arb_dna(max_len: usize) -> impl Strategy<Value = Seq> {
    prop::collection::vec(0u8..4, 2..=max_len)
        .prop_map(|codes| Seq::from_codes(repro::Alphabet::Dna, codes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Top alignments never overlap: every matched residue pair occurs
    /// in exactly one alignment; the final triangle holds exactly the
    /// union of pairs.
    #[test]
    fn no_overlap_and_triangle_consistency(seq in arb_dna(48)) {
        let scoring = Scoring::dna_example();
        let result = find_top_alignments(&seq, &scoring, 6);
        let mut seen = std::collections::HashSet::new();
        for top in &result.alignments {
            for &pair in &top.pairs {
                prop_assert!(seen.insert(pair), "pair {pair:?} reused");
                prop_assert!(pair.0 < pair.1);
            }
        }
        prop_assert_eq!(result.triangle.len(), seen.len());
        for (p, q) in result.triangle.iter() {
            prop_assert!(seen.contains(&(p, q)));
        }
    }

    /// Scores come out non-increasing, are positive, and each equals an
    /// independent rescoring of its path under the scoring scheme.
    #[test]
    fn scores_ordered_and_rescorable(seq in arb_dna(40)) {
        let scoring = Scoring::dna_example();
        let result = find_top_alignments(&seq, &scoring, 5);
        let mut prev = repro_align::Score::MAX;
        for top in &result.alignments {
            prop_assert!(top.score > 0);
            prop_assert!(top.score <= prev);
            prev = top.score;
            // Rescore the pairs: exchange scores plus affine gap costs.
            let mut total = 0;
            let mut last: Option<(usize, usize)> = None;
            for &(p, q) in &top.pairs {
                total += scoring.exch(seq[p], seq[q]);
                if let Some((lp, lq)) = last {
                    let dp = p - lp;
                    let dq = q - lq;
                    if dp > 1 {
                        total -= scoring.gaps.cost(dp - 1);
                    }
                    if dq > 1 {
                        total -= scoring.gaps.cost(dq - 1);
                    }
                }
                last = Some((p, q));
            }
            prop_assert_eq!(total, top.score, "path rescoring mismatch");
        }
    }

    /// The k-th run is a prefix of the (k+1)-th run: asking for more top
    /// alignments never changes the ones already found.
    #[test]
    fn prefix_stability(seq in arb_dna(40), k in 1usize..5) {
        let scoring = Scoring::dna_example();
        let small = find_top_alignments(&seq, &scoring, k);
        let big = find_top_alignments(&seq, &scoring, k + 2);
        prop_assert!(small.alignments.len() <= big.alignments.len());
        prop_assert_eq!(
            &small.alignments[..],
            &big.alignments[..small.alignments.len()]
        );
    }

    /// Each accepted alignment's score equals the best *valid* score its
    /// split could produce under the triangle state of its acceptance
    /// moment (replayed from scratch).
    #[test]
    fn acceptance_replay(seq in arb_dna(36)) {
        let scoring = Scoring::dna_example();
        let result = find_top_alignments(&seq, &scoring, 4);
        let mut triangle = repro::core::OverrideTriangle::new(seq.len());
        for top in &result.alignments {
            let (prefix, suffix) = seq.split(top.r);
            let clean = sw_last_row(prefix, suffix, &scoring, NoMask);
            let masked = sw_last_row(
                prefix,
                suffix,
                &scoring,
                SplitMask::new(&triangle, top.r),
            );
            let clean = repro::align::StoredRow::encode(&clean.row);
            let (valid, _) = repro::core::bottom::best_valid_entry(&masked.row, &clean);
            prop_assert_eq!(valid, top.score, "replayed score differs at r={}", top.r);
            for &(p, q) in &top.pairs {
                triangle.set(p, q);
            }
        }
    }

    /// Alignments avoid previously accepted pairs *as matrix cells*: no
    /// pair of a later alignment is overridden by an earlier one.
    #[test]
    fn later_alignments_respect_the_mask(seq in arb_dna(40)) {
        let scoring = Scoring::dna_example();
        let result = find_top_alignments(&seq, &scoring, 6);
        let mut triangle = repro::core::OverrideTriangle::new(seq.len());
        for top in &result.alignments {
            let mask = SplitMask::new(&triangle, top.r);
            for &(p, q) in &top.pairs {
                prop_assert!(
                    !mask.is_overridden(p, q - top.r),
                    "alignment #{} reuses overridden pair ({p},{q})",
                    top.index
                );
            }
            for &(p, q) in &top.pairs {
                triangle.set(p, q);
            }
        }
    }
}
