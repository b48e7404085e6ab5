//! Group-granular top-alignment search (paper §4.1's static scheme).
//!
//! The task queue holds *groups* of neighbouring splits; a group's
//! priority is its best member's (upper-bound) score. Popping a stale
//! group realigns **all** members in one interleaved SIMD sweep — the
//! speculation the paper describes: "if a matrix is scheduled for
//! computation, it is likely that the neighbouring matrices will be
//! scheduled shortly thereafter". A fresh group at the head of the queue
//! yields its best member as the next top alignment.
//!
//! §4.1 changes what a task is, not the loop, so this module holds no
//! loop and no unit: [`GroupSweeper`] is the [`PackKernel`] of the one
//! unit, [`repro_core::PackUnit`], and [`find_top_alignments_simd`]
//! hands that unit to the one inline driver,
//! [`repro_core::TopAlignmentFinder`] (`repro-parallel` hands the same
//! unit to the SMP engine).
//!
//! Sweeps go through a [`GroupSweeper`]: the query profiles (narrow
//! `i16` and wide `i32`) are built once per sequence and shared by all
//! sweeps, the kernel is the runtime-dispatched selection of
//! [`crate::dispatch`], and each pack's lane width is chosen once,
//! before it is swept: `i16` lanes where the pack's score bound
//! ([`pack_fits_i16`]) proves them exact, else wide `i32` lanes — still
//! vectorised, bit-identical to the scalar reference. Scorings whose
//! values don't fit `i16` at all — an exchange score, or a gap model
//! failing [`repro_align::GapPenalties::fit_i16`] — build no narrow
//! profile and sweep every pack wide (they used to panic).
//!
//! Results are identical to the sequential engine: acceptance order is
//! still driven by exact scores under the same deterministic tie-breaks,
//! only the *work grouping* differs. The extra lane-alignments performed
//! show in the common `Stats` and the recorder's sweep counters (the
//! paper measured < 0.70 % extra).

use crate::dispatch::{sweep_group_profile_i16_at, sweep_group_wide_at, SimdSel};
use crate::group::{pack_fits_i16, GroupCapture, GroupResult, GroupResume};
use repro_align::{QueryProfile, Scoring, Seq};
use repro_core::pack::PackSweep;
use repro_core::{
    FinderConfig, OverrideTriangle, PackKernel, PackUnit, Search, TopAlignmentFinder, TopAlignments,
};
use repro_obs::Recorder;
use std::sync::OnceLock;

/// Shared, reusable sweep state for one `(sequence, scoring, kernel)`
/// triple: both query profiles plus the dispatch selection.
///
/// Built once, used by every group sweep of a run — sequential or
/// multi-threaded ([`GroupSweeper`] is `Sync`; the SIMD×SMP engine in
/// `repro-parallel` shares one across workers).
pub struct GroupSweeper<'a> {
    seq: &'a Seq,
    scoring: &'a Scoring,
    sel: SimdSel,
    /// Narrow profile; `None` when some exchange score exceeds `i16`
    /// range or the gap model fails [`repro_align::GapPenalties::fit_i16`],
    /// in which case every pack runs wide.
    prof16: Option<QueryProfile<i16>>,
    /// Wide profile, built lazily by the first pack that runs wide.
    prof32: OnceLock<QueryProfile<i32>>,
}

impl<'a> GroupSweeper<'a> {
    /// Build the sweeper (and the narrow profile) for one run.
    pub fn new(seq: &'a Seq, scoring: &'a Scoring, sel: SimdSel) -> Self {
        GroupSweeper {
            seq,
            scoring,
            sel,
            prof16: scoring
                .gaps
                .fit_i16()
                .then(|| QueryProfile::new_narrow(scoring, seq.codes()))
                .flatten(),
            prof32: OnceLock::new(),
        }
    }

    /// The kernel selection this sweeper routes to.
    pub fn sel(&self) -> SimdSel {
        self.sel
    }

    /// Sweep the ascending split pack `rs` exactly, optionally resuming
    /// mid-matrix and capturing inter-row state; returns the result,
    /// whether it ran on wide `i32` lanes, and the captures.
    ///
    /// The width is chosen once, before the sweep: narrow `i16` lanes
    /// when the narrow profile exists and [`pack_fits_i16`] holds for
    /// `rs`, else wide lanes, which run the scalar recurrence verbatim.
    /// A resume state obeys its lane's bound whichever kernel captured
    /// it, so it needs no check of its own, and nothing is checked
    /// during or after the sweep (DESIGN.md, "Group recurrence bound").
    pub fn sweep_at(
        &self,
        rs: &[usize],
        triangle: Option<&OverrideTriangle>,
        resume: Option<&GroupResume<'_>>,
        capture_rows: &[usize],
    ) -> (GroupResult, bool, Vec<GroupCapture>) {
        let (codes, gaps) = (self.seq.codes(), self.scoring.gaps);
        let narrow = self
            .prof16
            .as_ref()
            .filter(|p16| pack_fits_i16(p16.peak(), codes.len(), rs, gaps));
        if let Some(p16) = narrow {
            let (g, caps) = sweep_group_profile_i16_at(
                self.sel,
                codes,
                self.scoring,
                p16,
                rs,
                triangle,
                resume,
                capture_rows,
            );
            return (g, false, caps);
        }
        let p32 = self
            .prof32
            .get_or_init(|| QueryProfile::new_wide(self.scoring, codes));
        let (g, caps) = sweep_group_wide_at(
            self.sel,
            codes,
            self.scoring,
            p32,
            rs,
            triangle,
            resume,
            capture_rows,
        );
        (g, true, caps)
    }
}

/// The lane kernel: a pack is one interleaved group sweep at the
/// selection's width.
impl PackKernel for GroupSweeper<'_> {
    fn lanes(&self) -> usize {
        self.sel.width.lanes()
    }

    fn splits(&self) -> usize {
        self.seq.len().saturating_sub(1)
    }

    fn sweep(
        &self,
        rs: &[usize],
        triangle: Option<&OverrideTriangle>,
        resume: Option<&GroupResume<'_>>,
        capture_rows: &[usize],
    ) -> (PackSweep, Vec<GroupCapture>) {
        let (group, wide, caps) = self.sweep_at(rs, triangle, resume, capture_rows);
        let sweep = PackSweep {
            rows: group.rows,
            cells: group.cells,
            vector: Some(wide),
        };
        (sweep, caps)
    }
}

/// Find the top alignments `search` asks for with the `sel` kernel
/// (obtain one from [`crate::dispatch::select`]); produces the same
/// alignments as [`repro_core::find_top_alignments`].
///
/// With `search.checkpoint_budget` set, a stale group's lanes are
/// classified individually — clean lanes replay their memoised exact
/// scores, the rest re-pack into a compacted group swept from the
/// deepest checkpoint row shared by the pack (see [`repro_core::pack`]).
/// With `search.seed` set, every group enters the queue at the maximum
/// of its members' seed bounds, a never-swept group popped with a stale
/// bound is requeued at its tightened bound without sweeping (a
/// group-granular `pruned_pops` entry), and a whole lane-pack whose
/// bound stays below every acceptance is never swept at all. Alignments
/// are bit-identical with either layer on or off.
///
/// `rec` receives what the inline driver records for any unit (see
/// [`TopAlignmentFinder::step_recorded`]) plus the lane-pack commit's
/// lane-occupancy counters ([`repro_obs::Counter::LanesActive`] /
/// [`repro_obs::Counter::LanesPadded`]) and its sweep and promotion (wide
/// pack) counts; every exact work tally is in the returned `Stats`. The
/// recorder is monomorphized: against [`repro_obs::NoopRecorder`] all of
/// it compiles out.
///
/// ```
/// use repro_simd::{find_top_alignments_simd, select, LaneWidth};
/// use repro_align::{Scoring, Seq};
/// use repro_core::Search;
/// use repro_obs::{Counter, FlightRecorder};
///
/// let seq = Seq::dna("ATGCATGCATGC").unwrap();
/// let sel = select(Some(LaneWidth::X8), None).unwrap();
/// let mut rec = FlightRecorder::new();
/// let tops =
///     find_top_alignments_simd(&seq, &Scoring::dna_example(), &Search::new(3), sel, &mut rec);
/// assert_eq!(tops.alignments.len(), 3);
/// assert!(rec.counter(Counter::GroupSweeps) > 0);
/// ```
pub fn find_top_alignments_simd<R: Recorder>(
    seq: &Seq,
    scoring: &Scoring,
    search: &Search,
    sel: SimdSel,
    rec: &mut R,
) -> TopAlignments {
    let unit = PackUnit::new(
        GroupSweeper::new(seq, scoring, sel),
        search.checkpoint_budget,
    );
    TopAlignmentFinder::with_unit(seq, scoring, FinderConfig::new(*search), unit).run_recorded(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{select, DispatchPath};
    use crate::group::LaneResume;
    use crate::LaneWidth;
    use repro_core::{find_top_alignments, ScoredSeq, SeedConfig};
    use repro_obs::{Counter, FlightRecorder, NoopRecorder, Phase};
    use std::sync::atomic::{AtomicU64, Ordering};

    const ALL_WIDTHS: [LaneWidth; 3] = [LaneWidth::X4, LaneWidth::X8, LaneWidth::X16];

    fn sel_for(width: LaneWidth) -> SimdSel {
        select(Some(width), None).unwrap()
    }

    /// `count` tops through `sel`, both layers off, nothing recorded.
    fn plain(seq: &Seq, scoring: &Scoring, count: usize, sel: SimdSel) -> TopAlignments {
        find_top_alignments_simd(seq, scoring, &Search::new(count), sel, &mut NoopRecorder)
    }

    /// A run under `search` together with the recorder it filled.
    fn recorded(
        seq: &Seq,
        scoring: &Scoring,
        search: Search,
        sel: SimdSel,
    ) -> (TopAlignments, FlightRecorder) {
        let mut rec = FlightRecorder::new();
        let tops = find_top_alignments_simd(seq, scoring, &search, sel, &mut rec);
        (tops, rec)
    }

    #[test]
    fn figure4_example_matches_sequential() {
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let scoring = Scoring::dna_example();
        let seq_result = find_top_alignments(&seq, &scoring, 3);
        for width in ALL_WIDTHS {
            let simd = plain(&seq, &scoring, 3, sel_for(width));
            assert_eq!(
                simd.alignments, seq_result.alignments,
                "{width:?} disagrees with the sequential engine"
            );
        }
    }

    /// Figure 5's schedule with a lane pack for a task: the ×4 trace of
    /// the sequence whose split trace `repro_core` pins
    /// (`figure5_scheduling_golden_trace`). Eleven splits make the packs
    /// 1–4, 5–8 and 9–11, each named by its first split.
    #[test]
    fn figure5_golden_trace_over_lane_packs() {
        use repro_core::Step::{Accepted, Realigned};
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let scoring = Scoring::dna_example();
        let unit = PackUnit::new(
            GroupSweeper::new(&seq, &scoring, sel_for(LaneWidth::X4)),
            None,
        );
        let config = FinderConfig::new(Search::new(3));
        let mut finder = TopAlignmentFinder::with_unit(&seq, &scoring, config, unit);
        let trace: Vec<_> =
            std::iter::from_fn(|| Some(finder.step()).filter(|s| *s != repro_core::Step::Done))
                .collect();
        assert_eq!(
            trace,
            vec![
                // One first pass per pack, lowest pack first among the
                // equal ∞ priorities; each scores its best member (no
                // alignment of splits 9–11 ends in their bottom row).
                Realigned { r: 1, score: 8 },
                Realigned { r: 5, score: 8 },
                Realigned { r: 9, score: 0 },
                // Packs 1 and 5 tie at 8: the lower pack's best member,
                // split 4, is accepted straight off the sweep, and once
                // more (the second ATGC block) after one freshness
                // realignment of its pack.
                Accepted { r: 4, score: 8 },
                Realigned { r: 1, score: 8 },
                Accepted { r: 4, score: 8 },
                // Split 8, after realigning only the two packs whose
                // stale bounds tie at 8 — the split trace's 4, 5, 6, 7, 8.
                Realigned { r: 1, score: 0 },
                Realigned { r: 5, score: 8 },
                Accepted { r: 8, score: 8 },
            ]
        );
    }

    #[test]
    fn agrees_on_varied_inputs() {
        let scoring = Scoring::dna_example();
        for text in [
            "ACGTTGCAACGTACGTTGCAGGTT",
            "AAAAAAAAAAAAAAA",
            "ATATATATATATATATATAT",
            "ACGGTACGGTAACGGTTTTTACGGT",
            "ACGT",
        ] {
            let seq = Seq::dna(text).unwrap();
            let want = find_top_alignments(&seq, &scoring, 6);
            for width in ALL_WIDTHS {
                let got = plain(&seq, &scoring, 6, sel_for(width));
                assert_eq!(got.alignments, want.alignments, "{width:?} on {text}");
            }
        }
    }

    #[test]
    fn auto_dispatch_matches_sequential() {
        let seq = Seq::dna("ACGGTACGGTAACGGTTTTTACGGTACGT").unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 5);
        let got = plain(&seq, &scoring, 5, select(None, None).unwrap());
        assert_eq!(got.alignments, want.alignments);
    }

    #[test]
    fn portable_path_matches_sequential() {
        let seq = Seq::dna("ACGGTACGGTAACGGTTTTTACGGTACGT").unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 5);
        for width in ALL_WIDTHS {
            let sel = select(Some(width), Some(DispatchPath::Portable)).unwrap();
            let got = plain(&seq, &scoring, 5, sel);
            assert_eq!(got.alignments, want.alignments, "portable {width:?}");
        }
    }

    #[test]
    fn protein_agreement() {
        let seq = Seq::protein("MGEKALVPYRLQHCMGEKALVPYRWWMGEKALVPYR").unwrap();
        let scoring = Scoring::protein_default();
        let want = find_top_alignments(&seq, &scoring, 4);
        for width in [LaneWidth::X8, LaneWidth::X16] {
            let got = plain(&seq, &scoring, 4, sel_for(width));
            assert_eq!(got.alignments, want.alignments, "{width:?}");
        }
    }

    #[test]
    fn speculation_overhead_is_bounded() {
        // The group engine may align more members than the sequential
        // engine aligns tasks, but not catastrophically (paper: < 0.70 %
        // for titin; small inputs allow more slack).
        let seq = Seq::dna(&"ATGC".repeat(30)).unwrap();
        let scoring = Scoring::dna_example();
        let seq_result = find_top_alignments(&seq, &scoring, 10);
        let (simd, rec) = recorded(&seq, &scoring, Search::new(10), sel_for(LaneWidth::X4));
        assert_eq!(simd.alignments, seq_result.alignments);
        let ratio = simd.stats.alignments as f64 / seq_result.stats.alignments as f64;
        assert!(
            ratio < 4.5,
            "group speculation aligned {ratio}× the sequential count"
        );
        assert!(rec.counter(Counter::GroupSweeps) > 0);
    }

    /// Match `match_score`, mismatch −1, gaps (2, 1): the `i16` bound of
    /// a pack is `match_score · pairs + 15 < i16::MAX`.
    fn scaled_match(match_score: repro_align::Score) -> Scoring {
        Scoring::new(
            repro_align::ExchangeMatrix::match_mismatch(
                repro_align::Alphabet::Dna,
                match_score,
                -1,
            ),
            repro_align::GapPenalties::new(2, 1),
        )
    }

    /// Every selectable width × dispatch path on this host.
    fn every_sel() -> Vec<SimdSel> {
        [
            DispatchPath::Portable,
            DispatchPath::Sse2,
            DispatchPath::Avx2,
        ]
        .into_iter()
        .flat_map(|path| ALL_WIDTHS.map(|width| select(Some(width), Some(path))))
        .filter_map(Result::ok)
        .collect()
    }

    /// Past the `i16` bound in its central packs: 120 × `A` under match
    /// 800 runs the packs of splits within 40 of an end narrow and the
    /// others wide, and the tops stay exact.
    #[test]
    fn saturation_fallback_keeps_results_exact() {
        let seq = Seq::dna(&"A".repeat(120)).unwrap();
        let scoring = scaled_match(800);
        let want = find_top_alignments(&seq, &scoring, 2);
        for width in ALL_WIDTHS {
            let (got, rec) = recorded(&seq, &scoring, Search::new(2), sel_for(width));
            assert_eq!(got.alignments, want.alignments, "{width:?}");
            let (sweeps, wide) = (
                rec.counter(Counter::GroupSweeps),
                rec.counter(Counter::PromotedSweeps),
            );
            assert!(
                0 < wide && wide < sweeps,
                "{width:?}: {wide} of {sweeps} sweeps wide, want some and not all"
            );
            assert_eq!(rec.counter(Counter::NarrowSaturations), 0);
        }
    }

    /// A [`GroupSweeper`] that counts its *crossings*: sweeps resumed
    /// below row 0 on narrow lanes whose whole pack runs wide, so the
    /// resume state came from a wide sweep.
    struct Crossings<'a> {
        sweeper: GroupSweeper<'a>,
        seen: &'a AtomicU64,
    }

    impl PackKernel for Crossings<'_> {
        fn lanes(&self) -> usize {
            self.sweeper.lanes()
        }

        fn splits(&self) -> usize {
            self.sweeper.splits()
        }

        fn sweep(
            &self,
            rs: &[usize],
            triangle: Option<&OverrideTriangle>,
            resume: Option<&GroupResume<'_>>,
            capture_rows: &[usize],
        ) -> (PackSweep, Vec<GroupCapture>) {
            let (sweep, caps) = self.sweeper.sweep(rs, triangle, resume, capture_rows);
            let lanes = self.lanes();
            let first = 1 + (rs[0] - 1) / lanes * lanes;
            let pack: Vec<usize> = (first..(first + lanes).min(self.splits() + 1)).collect();
            let (m, scoring) = (self.sweeper.seq.len(), self.sweeper.scoring);
            let pack_wide = !pack_fits_i16(scoring.exchange.max_score(), m, &pack, scoring.gaps);
            if resume.is_some_and(|res| res.row > 0) && sweep.vector == Some(false) && pack_wide {
                self.seen.fetch_add(1, Ordering::Relaxed);
            }
            (sweep, caps)
        }
    }

    /// The width decision at the edge of the `i16` bound, on 180 nt of
    /// pseudo-random DNA with the 15 nt at 145 copied to 163. Under match
    /// 800, mismatch −1200, gaps (2000, 320) a pack fits iff `800 · max
    /// min(r, m − r) + 15 · 320 < i16::MAX`: splits within 34 of an end
    /// run narrow, the central ones wide, and the straddling packs hold
    /// both. The repeat is the first top, owned by split 160; accepting
    /// it dirties lanes 146 on, so at ×16 the straddling pack 145–160
    /// realigns its fitting lanes 146–160 narrow, resumed from the
    /// capture its wide first pass took. A second scoring, match 712 and
    /// extend 1, puts `min(r, m − r) = 46` exactly on the edge (712 · 46 +
    /// 15 = `i16::MAX`), which runs wide. At every width × path:
    ///
    /// * every one-split pack within two pairs of the edge runs the width
    ///   the bound gives and equals the row kernel; every full pack that
    ///   straddles the edge runs wide with a capture, and its lanes that
    ///   fit, resumed from that capture as a compacted pack, run narrow
    ///   and equal the row kernel resumed from it, captures included;
    /// * the engine, with seeds and checkpoints each on and off, finds
    ///   the sequential tops, runs some packs wide and not all, counts no
    ///   saturation, and at ×16 with checkpoints crosses the edge.
    #[test]
    fn width_is_decided_per_pack_at_the_i16_edge() {
        let dna = repro_align::Alphabet::Dna;
        let mut rng = repro_seqgen::Rng::new(1);
        let mut codes = repro_seqgen::random_seq(dna, 180, &mut rng)
            .codes()
            .to_vec();
        codes.copy_within(145..160, 163);
        // Mismatched flanks: the repeat's alignment is rows 145..160.
        for k in 1..=3 {
            codes[145 - k] = (codes[163 - k] + 1) % 4;
        }
        for k in 0..2 {
            codes[160 + k] = (codes[178 + k] + 1) % 4;
        }
        let seq = Seq::from_codes(dna, codes);
        let m = seq.len();
        let strict = Scoring::new(
            repro_align::ExchangeMatrix::match_mismatch(dna, 800, -1200),
            repro_align::GapPenalties::new(2000, 320),
        );
        for (scoring, engine) in [(strict, true), (scaled_match(712), false)] {
            let row_kernel = ScoredSeq::new(&seq, &scoring);
            let wide_at = |pairs: usize| {
                let top = i64::from(scoring.exchange.max_score()) * pairs as i64
                    + 15 * i64::from(scoring.gaps.extend);
                top >= i64::from(i16::MAX)
            };
            let wide_for = |rs: &[usize]| wide_at(rs.iter().map(|&r| r.min(m - r)).max().unwrap());
            let edge = (0..m).find(|&pairs| wide_at(pairs)).unwrap();
            let want = find_top_alignments(&seq, &scoring, 5);
            for sel in every_sel() {
                let sweeper = GroupSweeper::new(&seq, &scoring, sel);
                let check = |rs: &[usize], resume: Option<&GroupResume<'_>>, rows: &[usize]| {
                    let what = format!("{scoring:?} {sel} {rs:?}");
                    let (got, wide, caps) = sweeper.sweep_at(rs, None, resume, rows);
                    assert_eq!(wide, wide_for(rs), "{what}: width");
                    let (exact, exact_caps) = row_kernel.sweep(rs, None, resume, rows);
                    assert_eq!(got.rows, exact.rows, "{what}");
                    assert_eq!(got.cells, exact.cells, "{what}");
                    for (got, exact) in caps.iter().zip(&exact_caps) {
                        assert_eq!((got.row, &got.lanes), (exact.row, &exact.lanes), "{what}");
                    }
                    caps
                };
                for r in (1..m).filter(|&r| r.min(m - r).abs_diff(edge) <= 2) {
                    check(&[r], None, &[]);
                }
                let mut straddling = 0;
                for full in (1..m).collect::<Vec<_>>().chunks(sel.width.lanes()) {
                    let fit: Vec<usize> =
                        full.iter().copied().filter(|&r| !wide_for(&[r])).collect();
                    if fit.is_empty() || fit.len() == full.len() {
                        continue;
                    }
                    straddling += 1;
                    let row = full[0] / 2;
                    let caps = check(full, None, &[row]);
                    let resume = GroupResume {
                        row,
                        lanes: full
                            .iter()
                            .zip(&caps[0].lanes)
                            .filter(|(r, _)| fit.contains(r))
                            .map(|(_, lane)| {
                                let (m, maxy) = lane.as_ref().expect("captured above the pack");
                                LaneResume { m, maxy }
                            })
                            .collect(),
                    };
                    check(&fit, Some(&resume), &[fit[0] - 1]);
                }
                assert!(straddling > 0, "{scoring:?} {sel}: no pack straddles");
                if !engine {
                    continue;
                }
                for seed in [None, Some(SeedConfig::default())] {
                    for budget in [None, Some(1 << 20)] {
                        let search = Search {
                            count: 5,
                            checkpoint_budget: budget,
                            seed,
                        };
                        let what = format!("{sel} {search:?}");
                        let seen = AtomicU64::new(0);
                        let kernel = Crossings {
                            sweeper: GroupSweeper::new(&seq, &scoring, sel),
                            seen: &seen,
                        };
                        let unit = PackUnit::new(kernel, budget);
                        let mut rec = FlightRecorder::new();
                        let got = TopAlignmentFinder::with_unit(
                            &seq,
                            &scoring,
                            FinderConfig::new(search),
                            unit,
                        )
                        .run_recorded(&mut rec);
                        assert_eq!(got.alignments, want.alignments, "{what}");
                        let (sweeps, wide) = (
                            rec.counter(Counter::GroupSweeps),
                            rec.counter(Counter::PromotedSweeps),
                        );
                        assert!(0 < wide && wide < sweeps, "{what}: {wide} of {sweeps} wide");
                        assert_eq!(rec.counter(Counter::NarrowSaturations), 0, "{what}");
                        if sel.width == LaneWidth::X16 && budget.is_some() {
                            assert!(seen.into_inner() > 0, "{what}: no resume crossed the edge");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn un_narrowable_scoring_skips_straight_to_wide() {
        // Scores beyond i16 range used to panic inside the kernel; now
        // the narrow profile refuses to build and every pack runs wide.
        let seq = Seq::dna("ATGCATGCATGCATGC").unwrap();
        let scoring = Scoring::new(
            repro_align::ExchangeMatrix::match_mismatch(repro_align::Alphabet::Dna, 40_000, -1),
            repro_align::GapPenalties::new(2, 1),
        );
        let want = find_top_alignments(&seq, &scoring, 3);
        let (got, rec) = recorded(&seq, &scoring, Search::new(3), sel_for(LaneWidth::X8));
        assert_eq!(got.alignments, want.alignments);
        assert_eq!(
            rec.counter(Counter::PromotedSweeps),
            rec.counter(Counter::GroupSweeps)
        );
        assert_eq!(rec.counter(Counter::NarrowSaturations), 0);
    }

    #[test]
    fn recorded_run_matches_plain_and_counts_lanes() {
        let seq = Seq::dna(&"ATGC".repeat(10)).unwrap(); // 39 splits
        let scoring = Scoring::dna_example();
        let sel = select(Some(LaneWidth::X4), Some(DispatchPath::Portable)).unwrap();
        let plain = plain(&seq, &scoring, 5, sel);
        let (got, rec) = recorded(&seq, &scoring, Search::new(5), sel);
        assert_eq!(plain.alignments, got.alignments);
        assert_eq!(plain.stats, got.stats);
        // 39 splits in X4 groups: 9 full groups + one 3-lane group. Every
        // sweep of the short group pads one lane.
        let active = rec.counter(Counter::LanesActive);
        let padded = rec.counter(Counter::LanesPadded);
        assert!(active > 0);
        assert_eq!(
            (active + padded) % 4,
            0,
            "active+padded must be whole vectors"
        );
        // Pops: every stale pop is one group sweep; every fresh pop is
        // one acceptance.
        let sweeps = rec.counter(Counter::GroupSweeps);
        assert_eq!(got.stats.stale_pops, sweeps);
        assert_eq!(got.stats.fresh_pops, got.alignments.len() as u64);
        assert_eq!(rec.phase_entries(Phase::Traceback), got.stats.tracebacks);
        assert_eq!(
            rec.phase_entries(Phase::FirstSweep) + rec.phase_entries(Phase::Drain),
            sweeps
        );
    }

    /// Whole-group skips must be invisible: identical alignments and
    /// schedule-sensitive stats at every budget, with real skips firing
    /// on an embedded-repeat workload.
    #[test]
    fn checkpointed_run_matches_plain_bit_for_bit() {
        let scoring = Scoring::dna_example();
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAA{motif}CCAAGGTT{motif}TGCATTGG");
        let seq = Seq::dna(&text).unwrap();
        for width in ALL_WIDTHS {
            let sel = sel_for(width);
            let (plain, plain_rec) = recorded(&seq, &scoring, Search::new(8), sel);
            for budget in [Some(0usize), Some(1 << 20)] {
                let search = Search {
                    checkpoint_budget: budget,
                    ..Search::new(8)
                };
                let (got, rec) = recorded(&seq, &scoring, search, sel);
                assert_eq!(
                    got.alignments, plain.alignments,
                    "{width:?} budget {budget:?}"
                );
                assert_eq!(got.stats.alignments, plain.stats.alignments);
                assert_eq!(got.stats.stale_pops, plain.stats.stale_pops);
                assert_eq!(got.stats.fresh_pops, plain.stats.fresh_pops);
                assert_eq!(got.stats.shadow_rejections, plain.stats.shadow_rejections);
                if budget == Some(0) {
                    assert_eq!(got.stats.checkpoint_hits, 0);
                    assert_eq!(got.stats.realign_rows_skipped, 0);
                } else {
                    assert!(
                        got.stats.checkpoint_hits > 0,
                        "{width:?}: no group skip fired"
                    );
                    assert!(got.stats.realign_rows_skipped > 0);
                    assert!(
                        rec.counter(Counter::GroupSweeps) < plain_rec.counter(Counter::GroupSweeps)
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_tiny() {
        let scoring = Scoring::dna_example();
        for text in ["", "A", "AA", "ATG"] {
            let seq = Seq::dna(text).unwrap();
            let want = find_top_alignments(&seq, &scoring, 3);
            let got = plain(&seq, &scoring, 3, sel_for(LaneWidth::X4));
            assert_eq!(got.alignments, want.alignments, "input {text:?}");
        }
    }

    #[test]
    fn seeded_matches_unpruned_at_every_width() {
        let scoring = Scoring::dna_example();
        let motif = "ATGCATGCATGC";
        for text in [
            format!("GGTTCCAACCGGTTAACCAGTGCA{motif}{motif}CAGTCCGGAATTCCGGTAACCGT"),
            "ACGTTGCAACGTACGTTGCAGGTT".to_string(),
            "AAAAAAAAAAAAAAA".to_string(),
            "ATG".to_string(),
        ] {
            let seq = Seq::dna(&text).unwrap();
            for count in [1, 5] {
                let want = find_top_alignments(&seq, &scoring, count);
                for width in ALL_WIDTHS {
                    for budget in [None, Some(1 << 20)] {
                        let search = Search {
                            count,
                            checkpoint_budget: budget,
                            seed: Some(SeedConfig::default()),
                        };
                        let got = find_top_alignments_simd(
                            &seq,
                            &scoring,
                            &search,
                            sel_for(width),
                            &mut NoopRecorder,
                        );
                        assert_eq!(
                            got.alignments, want.alignments,
                            "{width:?} count {count} budget {budget:?} on {text}"
                        );
                        assert_eq!(got.triangle, want.triangle);
                    }
                }
            }
        }
    }

    #[test]
    fn seeded_prunes_whole_groups_on_low_repeat_input() {
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAACCGGTTAACCAGTGCA{motif}{motif}CAGTCCGGAATTCCGGTAACCGT");
        let seq = Seq::dna(&text).unwrap();
        let scoring = Scoring::dna_example();
        let search = Search {
            seed: Some(SeedConfig::default()),
            ..Search::new(1)
        };
        let got = find_top_alignments_simd(
            &seq,
            &scoring,
            &search,
            sel_for(LaneWidth::X4),
            &mut NoopRecorder,
        );
        let s = &got.stats;
        assert!(
            s.splits_pruned > 0,
            "expected whole lane-packs pruned, got {}",
            s.splits_pruned
        );
        // Pruning is lane-pack-granular: the pruned splits are whole
        // groups' worth (the last group may be short).
        assert!(s.seed_index_build_ns > 0);
        let want = find_top_alignments(&seq, &scoring, 1);
        assert_eq!(got.alignments, want.alignments);
    }
}
