//! SIMD × SMP composition: worker threads claim **group** tasks.
//!
//! The paper composes its accelerations — "the improvements are
//! orthogonal: the SIMD kernel speeds up each alignment, the SMP and
//! cluster schemes distribute the alignments". This module is that
//! composition for shared memory: the speculative worker scheme of
//! [`crate::find_top_alignments_parallel`], with the unit of work
//! enlarged from one split to one *group* of neighbouring splits, each
//! realignment running the runtime-dispatched interleaved SIMD sweep
//! ([`repro_simd::GroupSweeper`]).
//!
//! Correctness carries over unchanged from the split-level proof — the
//! scheduler is the same code, `crate::engine`, and its tie-break
//! argument is stated once, at the unit, [`repro_core::PackUnit`].

use crate::engine;
use repro_align::{Scoring, Seq};
use repro_core::{PackUnit, Search, TopAlignments};
use repro_obs::Recorder;
use repro_simd::{GroupSweeper, SimdSel};

/// Find the top alignments `search` asks for with `threads` workers,
/// each realigning whole groups through the `sel`-dispatched SIMD sweep.
/// Produces exactly the same alignments as the sequential engine.
///
/// With `search.checkpoint_budget` set the incremental layer is
/// lane-granular: lanes no accept has straddled since their last sweep
/// replay from a shared memo under the lock, and the remaining lanes
/// re-pack into a compacted group resumed from the deepest shared
/// checkpoint row (see [`repro_core::pack`]). With `search.seed` set,
/// every group enters the schedule at the maximum of its members' seed
/// bounds, and whole lane-packs whose bound stays below every acceptance
/// are never swept by any worker; bounds are refreshed (only ever
/// tightening) under the shared lock when a never-swept group is about
/// to be claimed and [`repro_core::SplitBounds`] judges the resweep worth it, and
/// folded straight into the group state. Alignments are bit-identical
/// with either layer on or off.
///
/// `rec` receives, once the workers have joined, what
/// [`crate::find_top_alignments_parallel`] reports plus the group-sweep,
/// promotion (wide pack) and lane-occupancy counts.
///
/// ```
/// use repro_parallel::find_top_alignments_parallel_simd;
/// use repro_align::{Scoring, Seq};
/// use repro_core::Search;
/// use repro_obs::{Counter, FlightRecorder};
/// use repro_simd::select;
///
/// let seq = Seq::dna("ATGCATGCATGC").unwrap();
/// let sel = select(None, None).unwrap();
/// let mut rec = FlightRecorder::new();
/// let tops = find_top_alignments_parallel_simd(
///     &seq,
///     &Scoring::dna_example(),
///     &Search::new(3),
///     2,
///     sel,
///     &mut rec,
/// );
/// assert_eq!(tops.alignments.len(), 3);
/// assert!(rec.counter(Counter::GroupSweeps) > 0);
/// ```
pub fn find_top_alignments_parallel_simd<R: Recorder>(
    seq: &Seq,
    scoring: &Scoring,
    search: &Search,
    threads: usize,
    sel: SimdSel,
    rec: &mut R,
) -> TopAlignments {
    let unit = PackUnit::new(
        GroupSweeper::new(seq, scoring, sel),
        search.checkpoint_budget,
    );
    engine::run(&unit, seq, scoring, search, threads, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_core::{find_top_alignments, SeedConfig};
    use repro_obs::{Counter, FlightRecorder, NoopRecorder};
    use repro_simd::{select, DispatchPath, LaneWidth};

    fn sel_for(width: LaneWidth) -> SimdSel {
        select(Some(width), None).unwrap()
    }

    /// `count` tops, both layers off, nothing recorded.
    fn plain(
        seq: &Seq,
        scoring: &Scoring,
        count: usize,
        threads: usize,
        sel: SimdSel,
    ) -> TopAlignments {
        let search = Search::new(count);
        find_top_alignments_parallel_simd(seq, scoring, &search, threads, sel, &mut NoopRecorder)
    }

    /// A run under `search` together with the recorder it filled.
    fn recorded(
        seq: &Seq,
        scoring: &Scoring,
        search: Search,
        threads: usize,
        sel: SimdSel,
    ) -> (TopAlignments, FlightRecorder) {
        let mut rec = FlightRecorder::new();
        let tops = find_top_alignments_parallel_simd(seq, scoring, &search, threads, sel, &mut rec);
        (tops, rec)
    }

    #[test]
    fn figure4_example_matches_sequential() {
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 3);
        for threads in [1, 2, 4] {
            for width in [LaneWidth::X4, LaneWidth::X8, LaneWidth::X16] {
                let got = plain(&seq, &scoring, 3, threads, sel_for(width));
                assert_eq!(
                    got.alignments, want.alignments,
                    "{threads} threads × {width:?} disagree with sequential"
                );
            }
        }
    }

    #[test]
    fn agrees_on_varied_inputs_and_thread_counts() {
        let scoring = Scoring::dna_example();
        for text in [
            "ACGTTGCAACGTACGTTGCAGGTT",
            "AAAAAAAAAAAAAAA",
            "ATATATATATATATATATAT",
            "ACGGTACGGTAACGGTTTTTACGGT",
        ] {
            let seq = Seq::dna(text).unwrap();
            let want = find_top_alignments(&seq, &scoring, 6);
            for threads in [1, 2, 3, 8] {
                let (got, rec) = recorded(
                    &seq,
                    &scoring,
                    Search::new(6),
                    threads,
                    sel_for(LaneWidth::X8),
                );
                assert_eq!(
                    got.alignments, want.alignments,
                    "{threads} threads on {text}"
                );
                assert!(rec.counter(Counter::GroupSweeps) > 0);
            }
        }
    }

    #[test]
    fn portable_path_under_threads() {
        let seq = Seq::dna("ACGGTACGGTAACGGTTTTTACGGTACGT").unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 5);
        let sel = select(Some(LaneWidth::X16), Some(DispatchPath::Portable)).unwrap();
        let got = plain(&seq, &scoring, 5, 4, sel);
        assert_eq!(got.alignments, want.alignments);
    }

    /// Past the `i16` bound in its central packs (120 × `A` under match
    /// 800): those run wide, the edge packs narrow, on every worker.
    #[test]
    fn saturating_workload_promotes_and_stays_exact() {
        let seq = Seq::dna(&"A".repeat(120)).unwrap();
        let scoring = Scoring::new(
            repro_align::ExchangeMatrix::match_mismatch(repro_align::Alphabet::Dna, 800, -1),
            repro_align::GapPenalties::new(2, 1),
        );
        let want = find_top_alignments(&seq, &scoring, 2);
        let (got, rec) = recorded(&seq, &scoring, Search::new(2), 3, sel_for(LaneWidth::X8));
        assert_eq!(got.alignments, want.alignments);
        let (sweeps, wide) = (
            rec.counter(Counter::GroupSweeps),
            rec.counter(Counter::PromotedSweeps),
        );
        assert!(0 < wide && wide < sweeps, "{wide} of {sweeps} sweeps wide");
        assert_eq!(rec.counter(Counter::NarrowSaturations), 0);
    }

    #[test]
    fn single_thread_matches_group_engine_work() {
        // One worker never speculates past the sequential fixed point.
        let seq = Seq::dna(&"ATGC".repeat(20)).unwrap();
        let scoring = Scoring::dna_example();
        let (got, rec) = recorded(&seq, &scoring, Search::new(8), 1, sel_for(LaneWidth::X4));
        assert_eq!(rec.counter(Counter::SupersededWork), 0);
        let want = find_top_alignments(&seq, &scoring, 8);
        assert_eq!(got.alignments, want.alignments);
        // Group-level claims: one per sweep, one per acceptance.
        assert_eq!(
            rec.counter(Counter::TaskClaims),
            got.stats.stale_pops + got.stats.fresh_pops
        );
        assert_eq!(got.stats.stale_pops, rec.counter(Counter::GroupSweeps));
        assert_eq!(got.stats.fresh_pops, got.stats.tracebacks);
    }

    #[test]
    fn empty_tiny_and_count_zero() {
        let scoring = Scoring::dna_example();
        for text in ["", "A", "AA"] {
            let seq = Seq::dna(text).unwrap();
            let want = find_top_alignments(&seq, &scoring, 3);
            let got = plain(&seq, &scoring, 3, 2, sel_for(LaneWidth::X4));
            assert_eq!(got.alignments, want.alignments, "input {text:?}");
        }
        let seq = Seq::dna("ATGCATGC").unwrap();
        let got = plain(&seq, &scoring, 0, 4, sel_for(LaneWidth::X8));
        assert!(got.alignments.is_empty());
    }

    #[test]
    fn exhaustion_terminates_with_threads() {
        let seq = Seq::dna("ACGT").unwrap();
        let scoring = Scoring::dna_example();
        let got = plain(&seq, &scoring, 10, 4, sel_for(LaneWidth::X4));
        assert!(got.alignments.len() < 10);
    }

    #[test]
    fn checkpointed_matches_plain_bit_for_bit() {
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAA{motif}CCAAGGTT{motif}TGCATTGG");
        let seq = Seq::dna(&text).unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 6);
        for width in [LaneWidth::X4, LaneWidth::X8] {
            for budget in [Some(0), Some(1 << 20)] {
                for threads in [1, 2, 4] {
                    let search = Search {
                        checkpoint_budget: budget,
                        ..Search::new(6)
                    };
                    let (got, _) = recorded(&seq, &scoring, search, threads, sel_for(width));
                    assert_eq!(
                        got.alignments, want.alignments,
                        "budget {budget:?}, {threads} threads, {width:?}"
                    );
                    let s = &got.stats;
                    if budget == Some(0) {
                        assert_eq!(s.checkpoint_hits, 0, "budget 0 must always miss");
                        assert_eq!(s.realign_rows_skipped, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn seeded_matches_unpruned_across_threads_and_widths() {
        let scoring = Scoring::dna_example();
        let motif = "ATGCATGCATGC";
        for text in [
            format!("GGTTCCAACCGGTTAACCAGTGCA{motif}{motif}CAGTCCGGAATTCCGGTAACCGT"),
            "ACGTTGCAACGTACGTTGCAGGTT".to_string(),
            "AAAAAAAAAAAAAAA".to_string(),
        ] {
            let seq = Seq::dna(&text).unwrap();
            for count in [1, 4] {
                let want = find_top_alignments(&seq, &scoring, count);
                for width in [LaneWidth::X4, LaneWidth::X8] {
                    for threads in [1, 2, 4] {
                        let search = Search {
                            seed: Some(SeedConfig::default()),
                            ..Search::new(count)
                        };
                        let (got, _) = recorded(&seq, &scoring, search, threads, sel_for(width));
                        assert_eq!(
                            got.alignments, want.alignments,
                            "count {count}, {threads} threads, {width:?} on {text}"
                        );
                        assert_eq!(got.triangle, want.triangle);
                    }
                }
            }
        }
    }

    #[test]
    fn seeded_single_thread_prunes_lane_packs() {
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAACCGGTTAACCAGTGCA{motif}{motif}CAGTCCGGAATTCCGGTAACCGT");
        let seq = Seq::dna(&text).unwrap();
        let scoring = Scoring::dna_example();
        let search = Search {
            seed: Some(SeedConfig::default()),
            ..Search::new(1)
        };
        let (got, _) = recorded(&seq, &scoring, search, 1, sel_for(LaneWidth::X4));
        let s = &got.stats;
        assert!(s.splits_pruned > 0, "expected pruned lane-packs");
        assert!(s.seed_index_build_ns > 0);
        let want = find_top_alignments(&seq, &scoring, 1);
        assert_eq!(got.alignments, want.alignments);
    }

    #[test]
    fn checkpointed_single_thread_skips_groups() {
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAA{motif}CCAAGGTT{motif}TGCATTGG");
        let seq = Seq::dna(&text).unwrap();
        let scoring = Scoring::dna_example();
        let sel = sel_for(LaneWidth::X4);
        let (plain, plain_rec) = recorded(&seq, &scoring, Search::new(6), 1, sel);
        let search = Search {
            checkpoint_budget: Some(1 << 20),
            ..Search::new(6)
        };
        let (got, rec) = recorded(&seq, &scoring, search, 1, sel);
        assert_eq!(got.alignments, plain.alignments);
        let s = &got.stats;
        assert!(s.checkpoint_hits > 0, "expected whole-group skips");
        assert!(s.realign_rows_skipped > 0);
        // Every realignment (a stale pop past the one first pass of each
        // pack) is a hit or a miss; a whole-pack replay is a hit that
        // saves its group sweep outright, a resumed or compacted sweep a
        // hit that still sweeps.
        let packs = (seq.len() - 1).div_ceil(LaneWidth::X4.lanes()) as u64;
        assert_eq!(
            s.checkpoint_hits + s.checkpoint_misses,
            s.stale_pops - packs
        );
        let replays = plain_rec.counter(Counter::GroupSweeps) - rec.counter(Counter::GroupSweeps);
        assert!(replays > 0, "expected whole-pack replays");
        assert!(replays <= s.checkpoint_hits);
        // The schedule itself is untouched.
        assert_eq!(s.stale_pops, plain.stats.stale_pops);
        assert_eq!(s.fresh_pops, plain.stats.fresh_pops);
        assert_eq!(s.alignments, plain.stats.alignments);
        assert_eq!(s.shadow_rejections, plain.stats.shadow_rejections);
    }
}
