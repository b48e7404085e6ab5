//! # repro-parallel — the shared-memory engine (paper §4.2)
//!
//! Worker threads share the task state, the override triangle and the
//! bottom-row store. Each idle worker asks the one
//! [`repro_core::Scheduler`] — the inline driver's and the cluster
//! master's too — for its next claim: the highest-scoring *unclaimed,
//! stale* task, realigned speculatively; a top alignment is accepted
//! exactly when the globally best task (by upper bound, over claimed
//! and unclaimed alike) is *fresh* and unclaimed — the same fixed point
//! the sequential loop reaches, so all engines emit identical
//! alignments. Speculative work whose stamp is superseded is
//! not wasted: its (lower) score re-enters the state, pushing the task
//! down the order, exactly as the paper observes.
//!
//! Synchronisation mirrors the paper's observations: the coarse-grained
//! tasks make critical sections negligible, the triangle is read-mostly
//! (an `Arc` snapshot is swapped on each acceptance), and first-pass
//! bottom rows are written once and then immutable
//! ([`repro_core::Common`]).
//!
//! There is **one engine** (the private `engine` module: the worker
//! loop around the scheduler's decisions, the lock, the post-join tally
//! fold), generic over the
//! kernel of the [`repro_core::PackUnit`] it shares with the inline
//! driver, and two constructors of it. The paper calls its accelerations orthogonal —
//! "the SIMD kernel speeds up each alignment, the SMP and cluster
//! schemes distribute the alignments":
//! [`find_top_alignments_parallel`]`(seq, scoring, &search, threads, rec)`
//! schedules 1-lane packs swept by the scalar row step;
//! [`find_top_alignments_parallel_simd`]`(.., threads, sel, rec)`
//! schedules lane packs of neighbouring splits swept by the group
//! kernel — the paper's SIMD × SMP stacking. Both schedule
//! [`repro_core::PackUnit`], both
//! take the shared [`repro_core::Search`] and return plain
//! [`repro_core::TopAlignments`]; with one thread each is count for
//! count the sequential engine of its unit. Workers tally under the
//! shared lock and the engine folds the tallies into `rec` after the
//! thread scope joins: a worker thread cannot hold the caller's `&mut`
//! recorder.

#![warn(missing_docs)]

mod engine;
pub mod simd_smp;

pub use simd_smp::find_top_alignments_parallel_simd;

use repro_align::{Scoring, Seq};
use repro_core::{PackUnit, ScoredSeq, Search, TopAlignments};
use repro_obs::Recorder;

/// Find the top alignments `search` asks for using `threads` worker
/// threads. Produces exactly the same alignments as the sequential
/// engine.
///
/// With `search.checkpoint_budget` set, the packs' lane memos and that
/// many bytes of DP checkpoints are shared under the lock, stamped
/// against the shared top list at plan time, so the stamp a sweep runs
/// under always matches the triangle snapshot it cloned. With `search.seed`
/// set, every task starts at its admissible seed bound instead of
/// infinity, and never-aligned tasks whose bound stays below every
/// acceptance are never swept by any worker; the scheduler refreshes the
/// bounds (only ever tightening) under the shared lock when a
/// never-aligned task is about to be claimed and
/// [`repro_core::SplitBounds`] judges the resweep worth it, and requeues
/// a pick whose bound fell without sweeping it — the same pruned pops as
/// the sequential engine's. Alignments are bit-identical with either
/// layer on or off.
///
/// `rec` receives the workers' tallies once they have joined: task
/// claims, superseded work, the `worker_idle` and `traceback` phases,
/// the `first_sweep` and `drain` seconds (summed across workers, like
/// `worker_idle`) and the latency histograms; every exact work tally
/// is in the returned `Stats`.
///
/// ```
/// use repro_parallel::find_top_alignments_parallel;
/// use repro_align::{Scoring, Seq};
/// use repro_core::Search;
/// use repro_obs::{Counter, FlightRecorder};
///
/// let seq = Seq::dna("ATGCATGCATGC").unwrap();
/// let mut rec = FlightRecorder::new();
/// let tops =
///     find_top_alignments_parallel(&seq, &Scoring::dna_example(), &Search::new(3), 2, &mut rec);
/// assert_eq!(tops.alignments.len(), 3);
/// assert!(rec.counter(Counter::TaskClaims) > 0);
/// ```
pub fn find_top_alignments_parallel<R: Recorder>(
    seq: &Seq,
    scoring: &Scoring,
    search: &Search,
    threads: usize,
    rec: &mut R,
) -> TopAlignments {
    let unit = PackUnit::new(ScoredSeq::new(seq, scoring), search.checkpoint_budget);
    engine::run(&unit, seq, scoring, search, threads, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_core::{find_top_alignments, SeedConfig};
    use repro_obs::{Counter, FlightRecorder, NoopRecorder, Phase};

    /// `count` tops on `threads` workers, both layers off, nothing recorded.
    fn plain(seq: &Seq, scoring: &Scoring, count: usize, threads: usize) -> TopAlignments {
        let search = Search::new(count);
        find_top_alignments_parallel(seq, scoring, &search, threads, &mut NoopRecorder)
    }

    /// A run under `search` together with the recorder it filled.
    fn recorded(
        seq: &Seq,
        scoring: &Scoring,
        search: Search,
        threads: usize,
    ) -> (TopAlignments, FlightRecorder) {
        let mut rec = FlightRecorder::new();
        let tops = find_top_alignments_parallel(seq, scoring, &search, threads, &mut rec);
        (tops, rec)
    }

    #[test]
    fn figure4_example_matches_sequential() {
        let seq = Seq::dna("ATGCATGCATGC").unwrap();
        let scoring = Scoring::dna_example();
        let want = find_top_alignments(&seq, &scoring, 3);
        for threads in [1, 2, 4] {
            let got = plain(&seq, &scoring, 3, threads);
            assert_eq!(
                got.alignments, want.alignments,
                "{threads} threads disagree with sequential"
            );
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
                let got = plain(&seq, &scoring, 6, threads);
                assert_eq!(
                    got.alignments, want.alignments,
                    "{threads} threads on {text}"
                );
            }
        }
    }

    #[test]
    fn single_thread_does_no_superseded_work() {
        let seq = Seq::dna(&"ATGC".repeat(20)).unwrap();
        let scoring = Scoring::dna_example();
        let (got, rec) = recorded(&seq, &scoring, Search::new(8), 1);
        assert_eq!(rec.counter(Counter::SupersededWork), 0);
        let want = find_top_alignments(&seq, &scoring, 8);
        assert_eq!(got.alignments, want.alignments);
        // One worker does exactly the sequential amount of work — the
        // claim accounting must agree with the sequential pop counters.
        assert_eq!(got.stats.alignments, want.stats.alignments);
        assert_eq!(got.stats.stale_pops, want.stats.stale_pops);
        assert_eq!(got.stats.fresh_pops, want.stats.fresh_pops);
        assert_eq!(got.stats.shadow_rejections, want.stats.shadow_rejections);
        assert_eq!(
            rec.counter(Counter::TaskClaims),
            got.stats.stale_pops + got.stats.fresh_pops
        );
    }

    #[test]
    fn claims_and_idle_are_accounted_with_many_threads() {
        let seq = Seq::dna(&"ATGC".repeat(20)).unwrap();
        let scoring = Scoring::dna_example();
        let (got, rec) = recorded(&seq, &scoring, Search::new(8), 4);
        // Every alignment and every acceptance was claimed by some worker.
        assert_eq!(
            rec.counter(Counter::TaskClaims),
            got.stats.stale_pops + got.stats.fresh_pops
        );
        assert_eq!(got.stats.stale_pops, got.stats.alignments);
        assert_eq!(got.stats.fresh_pops, got.stats.tracebacks);
        assert_eq!(rec.phase_entries(Phase::WorkerIdle), 1);
        assert!(rec.phase_secs(Phase::WorkerIdle) >= 0.0);
    }

    #[test]
    fn empty_and_tiny() {
        let scoring = Scoring::dna_example();
        for text in ["", "A", "AA"] {
            let seq = Seq::dna(text).unwrap();
            let want = find_top_alignments(&seq, &scoring, 3);
            let got = plain(&seq, &scoring, 3, 2);
            assert_eq!(got.alignments, want.alignments, "input {text:?}");
        }
    }

    #[test]
    fn count_zero() {
        let seq = Seq::dna("ATGCATGC").unwrap();
        let scoring = Scoring::dna_example();
        let got = plain(&seq, &scoring, 0, 4);
        assert!(got.alignments.is_empty());
    }

    #[test]
    fn protein_with_many_threads() {
        let seq = Seq::protein("MGEKALVPYRLQHCMGEKALVPYRWWMGEKALVPYR").unwrap();
        let scoring = Scoring::protein_default();
        let want = find_top_alignments(&seq, &scoring, 5);
        let got = plain(&seq, &scoring, 5, 6);
        assert_eq!(got.alignments, want.alignments);
    }

    #[test]
    fn checkpointed_matches_plain_bit_for_bit() {
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAA{motif}CCAAGGTT{motif}TGCATTGG");
        let seq = Seq::dna(&text).unwrap();
        let scoring = Scoring::dna_example();
        let want = plain(&seq, &scoring, 6, 2);
        for budget in [Some(0), Some(1 << 20)] {
            for threads in [1, 2, 4] {
                let search = Search {
                    checkpoint_budget: budget,
                    ..Search::new(6)
                };
                let (got, _) = recorded(&seq, &scoring, search, threads);
                assert_eq!(
                    got.alignments, want.alignments,
                    "budget {budget:?}, {threads} threads"
                );
                let s = &got.stats;
                assert!(
                    s.checkpoint_hits + s.checkpoint_misses > 0,
                    "enabled run must account every realignment"
                );
                if budget == Some(0) {
                    assert_eq!(s.checkpoint_hits, 0, "budget 0 must always miss");
                    assert_eq!(s.realign_rows_skipped, 0);
                }
            }
        }
    }

    #[test]
    fn checkpointed_single_thread_skips_rows_on_embedded_repeats() {
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAA{motif}CCAAGGTT{motif}TGCATTGG");
        let seq = Seq::dna(&text).unwrap();
        let scoring = Scoring::dna_example();
        let search = Search {
            checkpoint_budget: Some(1 << 20),
            ..Search::new(6)
        };
        let (got, _) = recorded(&seq, &scoring, search, 1);
        let s = &got.stats;
        assert!(s.checkpoint_hits > 0, "expected memo/checkpoint hits");
        assert!(s.realign_rows_skipped > 0, "expected skipped rows");
        // Schedule counters are untouched by the incremental layer: one
        // worker still does exactly the sequential amount of claiming.
        let want = find_top_alignments(&seq, &scoring, 6);
        assert_eq!(s.alignments, want.stats.alignments);
        assert_eq!(s.stale_pops, want.stats.stale_pops);
        assert_eq!(s.fresh_pops, want.stats.fresh_pops);
        assert_eq!(s.shadow_rejections, want.stats.shadow_rejections);
    }

    #[test]
    fn seeded_matches_unpruned_across_thread_counts() {
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
                for threads in [1, 2, 4] {
                    for budget in [None, Some(1 << 20)] {
                        let search = Search {
                            count,
                            checkpoint_budget: budget,
                            seed: Some(SeedConfig::default()),
                        };
                        let (got, _) = recorded(&seq, &scoring, search, threads);
                        assert_eq!(
                            got.alignments, want.alignments,
                            "count {count}, {threads} threads, budget {budget:?} on {text}"
                        );
                        assert_eq!(got.triangle, want.triangle);
                    }
                }
            }
        }
    }

    #[test]
    fn seeded_single_thread_prunes_splits_on_low_repeat_input() {
        let motif = "ATGCATGCATGC";
        let text = format!("GGTTCCAACCGGTTAACCAGTGCA{motif}{motif}CAGTCCGGAATTCCGGTAACCGT");
        let seq = Seq::dna(&text).unwrap();
        let scoring = Scoring::dna_example();
        let search = Search {
            seed: Some(SeedConfig::default()),
            ..Search::new(1)
        };
        let (got, _) = recorded(&seq, &scoring, search, 1);
        let s = &got.stats;
        assert!(
            s.splits_pruned > 0,
            "expected pruned splits, got {}",
            s.splits_pruned
        );
        assert!(s.seed_index_build_ns > 0);
        assert!((s.splits_pruned as usize) < seq.len() - 1);
        // Unpruned output is preserved.
        let want = find_top_alignments(&seq, &scoring, 1);
        assert_eq!(got.alignments, want.alignments);
    }

    #[test]
    fn exhaustion_terminates_with_threads() {
        let seq = Seq::dna("ACGT").unwrap();
        let scoring = Scoring::dna_example();
        let got = plain(&seq, &scoring, 10, 4);
        assert!(got.alignments.len() < 10);
    }
}
