//! The counterexample hunt behind the two-sided seed bounds
//! (`repro_core::seed`, DESIGN.md "Seeded split pruning").
//!
//! The written argument: the queue holds, per split, the *task score* —
//! the best shadow-valid entry of the split matrix's bottom row.
//! `F(r)` (row `r − 1` of the forward triangle sweep) dominates it
//! because every bottom-row cell of split `r` is a triangle cell with a
//! superset of predecessors; `G(r)` (column fold of the reversed sweep
//! under the mirrored triangle, read at `m − r`) dominates it because
//! the path behind the entry starts inside the split's rectangle and
//! keeps its score when read backwards (symmetric exchange, side-blind
//! gaps). The properties below hunt for a sequence, scoring model or
//! accept history that breaks either side, the minimum, the index
//! mapping, the on-demand refresh or monotonicity — and check that
//! seeded pruning never changes the finder's output.

use proptest::prelude::*;
use repro_align::{
    tri_initial_state, tri_self_sweep_resume, Alphabet, ExchangeMatrix, GapPenalties, Score,
    Scoring, Seq,
};
use repro_core::seed::{PairMask, SeedConfig, SplitBounds};
use repro_core::{
    align_task, find_top_alignments, FinderConfig, OverrideTriangle, Search, TopAlignmentFinder,
};

fn arb_dna(max: usize) -> impl Strategy<Value = Seq> {
    prop::collection::vec(0u8..4, 0..=max).prop_map(|codes| Seq::from_codes(Alphabet::Dna, codes))
}

fn arb_dna_scoring() -> impl Strategy<Value = Scoring> {
    (1i32..=4, -4i32..=0, 0i32..=4, 1i32..=3).prop_map(|(mat, mis, open, ext)| {
        Scoring::new(
            ExchangeMatrix::match_mismatch(Alphabet::Dna, mat, mis),
            GapPenalties::new(open, ext),
        )
    })
}

/// A random sequence — DNA, or protein over a six-letter subset so that
/// chance repeats still occur — with a random *symmetric* exchange
/// matrix over the whole alphabet and random gap costs.
fn arb_problem(max: usize) -> impl Strategy<Value = (Seq, Scoring)> {
    (0u8..2).prop_flat_map(move |protein| {
        let (alphabet, letters) = if protein == 1 {
            (Alphabet::Protein, 6u8)
        } else {
            (Alphabet::Dna, 4u8)
        };
        let k = alphabet.len();
        (
            prop::collection::vec(0..letters, 0..=max),
            prop::collection::vec(-4i32..=6, k * (k + 1) / 2),
            0i32..=6,
            1i32..=3,
        )
            .prop_map(move |(codes, tri, open, ext)| {
                let exchange = ExchangeMatrix::from_fn(alphabet, |a, b| {
                    let (lo, hi) = (a.min(b) as usize, a.max(b) as usize);
                    tri[hi * (hi + 1) / 2 + lo]
                });
                (
                    Seq::from_codes(alphabet, codes),
                    Scoring::new(exchange, GapPenalties::new(open, ext)),
                )
            })
    })
}

/// `F` and `G` written out from the kernel alone, every sweep from row
/// 0: the reference the struct's checkpointed, mirrored, on-demand
/// bookkeeping must reproduce. `G` *is* the column-max fold of the
/// mirrored problem — reversed residues, pairs `(p, q)` as
/// `(m − 1 − q, m − 1 − p)` — read at split `m − r`.
fn reference_sides(
    codes: &[u8],
    scoring: &Scoring,
    triangle: &OverrideTriangle,
) -> (Vec<Score>, Vec<Score>) {
    let m = codes.len();
    let mut f = vec![0; m];
    let (mut h, mut maxy) = tri_initial_state(m);
    tri_self_sweep_resume(
        codes,
        scoring,
        PairMask(triangle),
        0,
        &mut h,
        &mut maxy,
        &mut |i, row, _| {
            if i + 1 < m {
                f[i + 1] = row[i + 1..].iter().copied().max().unwrap_or(0);
            }
        },
    );

    let rev: Vec<u8> = codes.iter().rev().copied().collect();
    let mut mirror = OverrideTriangle::new(m);
    for (p, q) in triangle.iter() {
        mirror.set(m - 1 - q, m - 1 - p);
    }
    let mut fold = vec![0; m];
    let mut colmax = vec![0; m];
    let (mut h, mut maxy) = tri_initial_state(m);
    tri_self_sweep_resume(
        &rev,
        scoring,
        PairMask(&mirror),
        0,
        &mut h,
        &mut maxy,
        &mut |i, row, _| {
            for j in i + 1..m {
                colmax[j] = colmax[j].max(row[j]);
            }
            if i + 1 < m {
                fold[i + 1] = colmax[i + 1..].iter().copied().max().unwrap_or(0);
            }
        },
    );
    let mut g = vec![0; m];
    for r in 1..m {
        g[r] = fold[m - r];
    }
    (f, g)
}

/// The exact task score of split `r` under `triangle`: shadow-filtered
/// against the clean first-pass row, as every engine computes it.
fn task_score(seq: &Seq, scoring: &Scoring, r: usize, triangle: &OverrideTriangle) -> Score {
    let empty = OverrideTriangle::new(seq.len());
    let clean = align_task(seq, scoring, r, &empty, None);
    if triangle.is_empty() {
        return clean.score;
    }
    let clean_row = clean.first_row.expect("first pass returns its row");
    align_task(seq, scoring, r, triangle, Some(&clean_row)).score
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Freshly built bounds: each side and their minimum dominate the
    /// exact first-pass task score of every split, and the struct's
    /// sides are the from-scratch reference (the index-mapping check).
    #[test]
    fn both_sides_dominate_the_task_score_on_empty_triangle(
        (seq, scoring) in arb_problem(48),
        k in 2usize..8,
    ) {
        let bounds = SplitBounds::build(seq.codes(), &scoring, SeedConfig::new(k));
        let triangle = OverrideTriangle::new(seq.len());
        let (f, g) = reference_sides(seq.codes(), &scoring, &triangle);
        for r in 1..seq.len() {
            let exact = task_score(&seq, &scoring, r, &triangle);
            prop_assert_eq!(bounds.end_bound(r), f[r], "F({}) on {}", r, seq);
            prop_assert_eq!(bounds.start_bound(r), g[r], "G({}) on {}", r, seq);
            prop_assert!(f[r] >= exact, "split {}: F {} < exact {} on {}", r, f[r], exact, seq);
            prop_assert!(g[r] >= exact, "split {}: G {} < exact {} on {}", r, g[r], exact, seq);
            prop_assert_eq!(bounds.bound(r), f[r].min(g[r]));
        }
    }

    /// After every *real* accept (override triangles grown by genuine
    /// top-alignment pair lists) the refreshed sides equal a full
    /// masked resweep from row 0, still dominate the shadow-filtered
    /// masked task score of every split, and never increase — whether
    /// the refresh runs after each accept or once over the accumulated
    /// `(min p, max q)` of several.
    #[test]
    fn refreshed_bounds_stay_admissible_after_accepts(
        (seq, scoring) in arb_problem(40),
        batch in 1usize..4,
    ) {
        let tops = find_top_alignments(&seq, &scoring, 4);
        let mut triangle = OverrideTriangle::new(seq.len());
        let mut bounds = SplitBounds::build(seq.codes(), &scoring, SeedConfig::default());
        let mut before: Vec<Score> = bounds.bounds().to_vec();
        for (n, top) in tops.alignments.iter().enumerate() {
            for &(p, q) in &top.pairs {
                triangle.set(p, q);
            }
            bounds.note_accept(&top.pairs);
            // Stale bounds — computed under an older triangle — remain
            // admissible for the grown one.
            for r in 1..seq.len() {
                let exact = task_score(&seq, &scoring, r, &triangle);
                prop_assert!(bounds.bound(r) >= exact, "stale bound, split {} on {}", r, seq);
            }
            if (n + 1) % batch != 0 && n + 1 < tops.alignments.len() {
                continue;
            }
            prop_assert!(bounds.refresh_before_sweep(seq.codes(), &scoring, &triangle, u64::MAX));
            let (f, g) = reference_sides(seq.codes(), &scoring, &triangle);
            for r in 1..seq.len() {
                prop_assert_eq!(bounds.end_bound(r), f[r], "F({}) after accept {}", r, n);
                prop_assert_eq!(bounds.start_bound(r), g[r], "G({}) after accept {}", r, n);
                prop_assert_eq!(bounds.bound(r), f[r].min(g[r]));
                prop_assert!(bounds.bound(r) <= before[r], "split {}: bound rose", r);
                let exact = task_score(&seq, &scoring, r, &triangle);
                prop_assert!(
                    f[r] >= exact && g[r] >= exact,
                    "split {}: F {} / G {} < masked exact {} on {}",
                    r, f[r], g[r], exact, seq
                );
            }
            before = bounds.bounds().to_vec();
        }
    }

    /// The seeded finder produces bit-identical top alignments to the
    /// unpruned finder on arbitrary inputs, counts, and k-mer widths.
    #[test]
    fn seeded_finder_output_matches_unpruned(
        seq in arb_dna(36),
        scoring in arb_dna_scoring(),
        count in 1usize..6,
        k in 2usize..8,
    ) {
        let base = find_top_alignments(&seq, &scoring, count);
        let cfg = FinderConfig::new(Search {
            seed: Some(SeedConfig::new(k)),
            ..Search::new(count)
        });
        let pruned = TopAlignmentFinder::new(&seq, &scoring, cfg).run();
        prop_assert_eq!(&base.alignments, &pruned.alignments, "k {} on {}", k, seq);
        prop_assert_eq!(&base.triangle, &pruned.triangle);
    }
}

/// The mirror map at the sizes where off-by-ones live: no split at all
/// (`m ∈ {0, 1}`), one split (`m = 2`), and the first size with an
/// interior.
#[test]
fn mirror_mapping_on_tiny_sequences() {
    let scoring = Scoring::dna_example();
    for text in ["", "A", "AA", "AC", "AAA", "ACA", "AACA"] {
        let seq = Seq::dna(text).unwrap();
        let m = seq.len();
        let mut triangle = OverrideTriangle::new(m);
        let mut bounds = SplitBounds::build(seq.codes(), &scoring, SeedConfig::default());
        for round in 0..2 {
            let (f, g) = reference_sides(seq.codes(), &scoring, &triangle);
            for r in 0..=m + 1 {
                let inside = (1..m).contains(&r);
                assert_eq!(
                    bounds.end_bound(r),
                    if inside { f[r] } else { 0 },
                    "{text:?} F({r})"
                );
                assert_eq!(
                    bounds.start_bound(r),
                    if inside { g[r] } else { 0 },
                    "{text:?} G({r})"
                );
                if inside {
                    assert!(bounds.bound(r) >= task_score(&seq, &scoring, r, &triangle));
                }
            }
            if round == 0 && m >= 2 {
                // Mask the corner pair: the mirror of (0, m − 1) is itself.
                triangle.set(0, m - 1);
                bounds.note_accept(&[(0, m - 1)]);
                assert!(bounds.refresh_before_sweep(seq.codes(), &scoring, &triangle, u64::MAX));
            }
        }
    }
}
