//! Exhaustive small scope for the one inline driver: **every** sequence
//! over `{A, C}` up to length 12 and over `{A, C, G}` up to length 7
//! (11 216 strings), 3 tops, through both constructors of
//! `TopAlignmentFinder` against the legacy reference algorithm. The
//! scope holds the shapes random inputs rarely hit: no split, one
//! split, a last pack shorter than the lane width, fewer splits than
//! lanes, and all-equal bounds and scores (so every tie-break acts).
//!
//! The entry points are called directly, not through the facade, and
//! the configuration product is thinned — never the string set — to
//! keep the debug-build runtime under 30 s (the full product of 32 runs
//! per string takes 110 s). Every string runs plain through both row
//! modes of the split constructor and both dispatch paths of one lane
//! width, and under one of seeded · checkpointed · both through one
//! configuration of each constructor; the choices rotate with the
//! string's index, so among the hundreds of strings of each length
//! every search × configuration cell is hit.

use repro::core::{FinderConfig, Search, TopAlignmentFinder, TopAlignments};
use repro::obs::NoopRecorder;
use repro::{
    find_top_alignments_old, find_top_alignments_simd, select, DispatchPath, LaneWidth,
    LegacyKernel, Scoring, SeedConfig, Seq,
};

/// Every string over the first `letters` of `ACG` of length `0..=max_len`.
fn strings(letters: usize, max_len: usize) -> Vec<String> {
    let mut all = vec![String::new()];
    let mut from = 0;
    for _ in 0..max_len {
        let upto = all.len();
        for i in from..upto {
            for c in "ACG".chars().take(letters) {
                let mut s = all[i].clone();
                s.push(c);
                all.push(s);
            }
        }
        from = upto;
    }
    all
}

/// What a plain run's schedule is made of.
fn schedule(t: &TopAlignments) -> [u64; 4] {
    let s = &t.stats;
    [s.cells, s.alignments, s.fresh_pops, s.stale_pops]
}

#[test]
fn every_short_string_through_both_constructors() {
    let scoring = Scoring::dna_example();
    let mut texts = strings(2, 12);
    texts.extend(strings(3, 7).into_iter().filter(|s| s.contains('G')));
    assert_eq!(texts.len(), 8191 + 3280 - 255);
    let plain = Search::new(3);
    let seeded = Some(SeedConfig::default());
    let layered = [
        (None, seeded),
        (Some(1 << 20), None),
        (Some(1 << 20), seeded),
    ]
    .map(|(checkpoint_budget, seed)| Search {
        checkpoint_budget,
        seed,
        ..plain
    });
    let row_modes = [FinderConfig::new, FinderConfig::linear_memory];
    // Each width on the portable path and on the one the CPU probe picks.
    let sels = [LaneWidth::X4, LaneWidth::X8, LaneWidth::X16]
        .map(|w| [Some(DispatchPath::Portable), None].map(|path| select(Some(w), path).unwrap()));
    let packs = |seq: &Seq, search: &Search, sel| {
        find_top_alignments_simd(seq, &scoring, search, sel, &mut NoopRecorder)
    };
    for (k, text) in texts.iter().enumerate() {
        let seq = Seq::dna(text).unwrap();
        let want = find_top_alignments_old(&seq, &scoring, 3, LegacyKernel::Gotoh).alignments;

        let [stored, recomputed] =
            row_modes.map(|mode| TopAlignmentFinder::new(&seq, &scoring, mode(plain)).run());
        assert_eq!(stored.alignments, want, "sequential on {text:?}");
        assert_eq!(recomputed.alignments, want, "low-memory on {text:?}");
        assert_eq!(
            schedule(&stored),
            schedule(&recomputed),
            "low-memory on {text:?}"
        );

        let [portable, probed] = sels[k % 3].map(|sel| (sel, packs(&seq, &plain, sel)));
        assert_eq!(portable.1.alignments, want, "{:?} on {text:?}", portable.0);
        assert_eq!(probed.1.alignments, want, "{:?} on {text:?}", probed.0);
        assert_eq!(
            schedule(&portable.1),
            schedule(&probed.1),
            "{:?} on {text:?}",
            probed.0
        );

        let search = layered[k % 3];
        let config = row_modes[k / 3 % 2](search);
        let what = format!("on {text:?} under {search:?}");
        let got = TopAlignmentFinder::new(&seq, &scoring, config.clone()).run();
        assert_eq!(got.alignments, want, "{config:?} {what}");
        let sel = sels[k / 3 % 3][k / 9 % 2];
        assert_eq!(packs(&seq, &search, sel).alignments, want, "{sel:?} {what}");
    }
}
