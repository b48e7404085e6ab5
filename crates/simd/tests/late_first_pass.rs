//! A first pass that seeded pruning delays past accepts straddling its
//! pack sweeps once, clean, and is stamped at version 0, where its clean
//! scores are exact. Checked exhaustively: every `{A,C}` string up to
//! [`MAX_LEN`], seeded, checkpoint budget `None` and large, 1-lane and
//! ×4 packs. At every such step the requeued score bounds every member's
//! masked score from `align_task` (it stays admissible), never rises
//! above the bound the pack was queued with, and the pass's work is
//! booked under version 0; each run's tops equal the unseeded
//! sequential ones.

use repro_align::{Scoring, Seq};
use repro_core::{
    align_task, find_top_alignments, FinderConfig, OverrideTriangle, PackKernel, PackUnit,
    ScoredSeq, Search, SeedConfig, SplitBounds, Step, TopAlignmentFinder,
};
use repro_simd::{select, GroupSweeper, LaneWidth};

/// The longest strings enumerated: every `{A,C}` string of 2..=11
/// residues (4 092 of them), four configurations each, in about 13 s
/// of a debug build.
const MAX_LEN: usize = 11;

/// Tops requested per run.
const COUNT: usize = 4;

/// Late first passes seen: `[straddled, those whose queued bound sat
/// below their clean score]`.
type Seen = [usize; 2];

/// One seeded run of `unit` over `seq`, checked step by step.
fn check<K: PackKernel>(seq: &Seq, scoring: &Scoring, unit: PackUnit<K>, what: &str) -> Seen {
    let seed = SeedConfig::default();
    let bounds = SplitBounds::build(seq.codes(), scoring, seed);
    let units: Vec<_> = (0..unit.units()).map(|u| unit.splits(u)).collect();
    // The bound each never-swept unit is queued with: its members'
    // initial bound until a pruned pop requeues it lower.
    let mut queued: Vec<_> = units.iter().map(|s| bounds.max_bound(s.clone())).collect();
    let mut swept = vec![false; units.len()];
    let search = Search {
        seed: Some(seed),
        ..Search::new(COUNT)
    };
    let config = FinderConfig::new(search);
    let mut finder = TopAlignmentFinder::with_unit(seq, scoring, config, unit);
    let empty = OverrideTriangle::new(seq.len());
    let mut seen = [0; 2];
    loop {
        let tops = finder.alignments().len();
        let booked = finder.stats().realignments_per_top.clone();
        let (r, score) = match finder.step() {
            Step::Done => break,
            Step::Pruned { r, bound } => {
                let u = units.iter().position(|s| s.start == r).unwrap();
                queued[u] = bound;
                continue;
            }
            Step::Accepted { .. } => continue,
            Step::Realigned { r, score } => (r, score),
        };
        let u = units.iter().position(|s| s.start == r).unwrap();
        if std::mem::replace(&mut swept[u], true) {
            continue; // a realignment, not a first pass
        }
        let members = units[u].clone();
        let mut pairs = finder.alignments().iter().flat_map(|t| &t.pairs);
        let straddled = pairs.any(|&(p, q)| members.clone().any(|r| p < r && r <= q));
        // The pass's work is booked under the version it is exact under.
        let stamp = if straddled { 0 } else { tops };
        let now = &finder.stats().realignments_per_top;
        let grew = now[stamp] - booked.get(stamp).copied().unwrap_or(0);
        assert_eq!(grew, members.len() as u64, "{what}: split {r} stamp");
        if !straddled {
            continue;
        }
        let at = format!("{what}: late first pass of split {r}");
        assert!(score <= queued[u], "{at}: {score} above its bound");
        let mut clean_max = 0;
        for r in members {
            let clean = align_task(seq, scoring, r, &empty, None);
            let row = clean.first_row.unwrap();
            let masked = align_task(seq, scoring, r, finder.triangle(), Some(&row));
            assert!(score >= masked.score, "{at}: {score} below member {r}");
            clean_max = clean_max.max(clean.score);
        }
        seen[0] += 1;
        seen[1] += usize::from(clean_max > queued[u]);
    }
    let want = find_top_alignments(seq, scoring, COUNT).alignments;
    assert_eq!(finder.alignments(), &want[..], "{what}: tops");
    seen
}

#[test]
fn late_first_passes_stay_admissible_on_every_short_string() {
    let scoring = Scoring::dna_example();
    let x4 = select(Some(LaneWidth::X4), None).unwrap();
    let mut seen = [0; 2];
    for len in 2..=MAX_LEN {
        for bits in 0..1u32 << len {
            let text: String = (0..len)
                .map(|i| if bits >> i & 1 == 1 { 'C' } else { 'A' })
                .collect();
            let seq = Seq::dna(&text).unwrap();
            for budget in [None, Some(1 << 20)] {
                let what = format!("{text}, budget {budget:?}");
                let row = PackUnit::new(ScoredSeq::new(&seq, &scoring), budget);
                let lanes = PackUnit::new(GroupSweeper::new(&seq, &scoring, x4), budget);
                let counts = [
                    check(&seq, &scoring, row, &format!("{what}, 1 lane")),
                    check(&seq, &scoring, lanes, &format!("{what}, x4")),
                ];
                for c in counts {
                    seen[0] += c[0];
                    seen[1] += c[1];
                }
            }
        }
    }
    // Guards against a vacuous pass: straddled late first passes must
    // have occurred, some of them requeued below their clean score.
    assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
}
