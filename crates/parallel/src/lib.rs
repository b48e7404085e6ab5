//! # repro-parallel — the shared-memory engine (paper §4.2)
//!
//! Worker threads share the task state, the override triangle and the
//! bottom-row store. Each idle worker claims the highest-scoring
//! *unassigned, stale* task and realigns it speculatively; a top
//! alignment is accepted exactly when the globally best task (by upper
//! bound, over assigned and unassigned alike) is *fresh* — the same
//! fixed point the sequential loop reaches, so all engines emit
//! identical alignments. Speculative work whose stamp is superseded is
//! not wasted: its (lower) score re-enters the state, pushing the task
//! down the order, exactly as the paper observes.
//!
//! Synchronisation mirrors the paper's observations: the coarse-grained
//! tasks make critical sections negligible, the triangle is read-mostly
//! (an `Arc` snapshot is swapped on each acceptance), and first-pass
//! bottom rows are written once and then immutable (`OnceLock`).
//!
//! [`simd_smp`] composes this scheme with the SIMD kernels: workers
//! claim *groups* of neighbouring splits and realign them with the
//! runtime-dispatched vector sweep — the paper's SIMD × SMP stacking.
//!
//! Each engine is one function —
//! [`find_top_alignments_parallel`]`(seq, scoring, &search, threads, rec)`
//! and [`find_top_alignments_parallel_simd`]`(.., threads, sel, rec)` —
//! taking the shared [`repro_core::Search`] and returning plain
//! [`repro_core::TopAlignments`]. Workers tally under the shared lock
//! and the engine folds the tallies into `rec` after the thread scope
//! joins: a worker thread cannot hold the caller's `&mut` recorder.

#![warn(missing_docs)]

pub mod simd_smp;

pub use simd_smp::find_top_alignments_parallel_simd;

use parking_lot::{Condvar, Mutex};
use repro_align::{Score, Scoring, Seq};
use repro_core::{
    late_first_pass, DirtyLog, IncrementalSweeper, OverrideTriangle, ScoredSeq, Search,
    SplitBounds, Stats, TopAlignment, TopAlignments,
};
use repro_obs::{Counter, HistSet, Metric, Phase, Recorder};
use std::sync::Arc;
use std::sync::OnceLock;
use std::time::Instant;

/// The end-of-run fold both SMP engines share: the tallies their workers
/// keep under the shared lock — measured unconditionally, a couple of
/// clock reads per coarse-grained task — plus the `Stats` mirror, into
/// the caller's recorder. It runs after the thread scope has joined
/// because worker threads outlive any one borrow of `rec`.
fn fold_worker_tallies<R: Recorder>(
    rec: &mut R,
    stats: &Stats,
    claims: u64,
    superseded: u64,
    idle_secs: f64,
    traceback_secs: f64,
    hists: &HistSet,
) {
    rec.add(Counter::TaskClaims, claims);
    rec.add(Counter::SupersededWork, superseded);
    rec.add_phase_secs(Phase::WorkerIdle, idle_secs);
    if stats.tracebacks > 0 {
        rec.add_phase_secs(Phase::Traceback, traceback_secs);
    }
    for m in Metric::ALL {
        rec.observe_hist(m, hists.get(m));
    }
    stats.mirror_into(rec);
}

#[derive(Debug, Clone, Copy)]
struct TaskState {
    score: Score,
    aligned_with: usize,
    assigned: bool,
}

struct Shared {
    state: Vec<TaskState>, // index r − 1
    triangle: Arc<OverrideTriangle>,
    tops: Vec<TopAlignment>,
    stats: Stats,
    /// Alignments computed against an already-superseded triangle
    /// version (the speculation overhead; paper: ≤ 8.4 %).
    superseded: u64,
    /// Tasks claimed by workers (acceptances + realignments).
    claims: u64,
    /// Seconds workers spent blocked waiting for claimable work, summed
    /// across workers.
    idle_secs: f64,
    /// Seconds of acceptance recomputation and traceback (the serial
    /// master-side step).
    traceback_secs: f64,
    /// Sweep duration, task round trip, queue wait, resume rows.
    hists: HistSet,
    accept_in_progress: bool,
    done: bool,
    /// `Some` with seeded pruning: the admissible per-split bounds,
    /// told of each accept and refreshed on demand, under the lock.
    bounds: Option<SplitBounds>,
    /// Splits that have completed their first alignment pass.
    first_passes: usize,
}

struct Engine<'a> {
    input: ScoredSeq<'a>,
    count: usize,
    /// Incremental realignment layer budget (`None` = off). Each worker
    /// keeps its own sweeper and dirty-log replica, synced from the
    /// shared top list under the lock.
    checkpoint_budget: Option<usize>,
    shared: Mutex<Shared>,
    wake: Condvar,
    rows: Vec<OnceLock<Vec<Score>>>, // index r − 1, first-pass bottom rows
}

const NEVER: usize = usize::MAX;

/// Find the top alignments `search` asks for using `threads` worker
/// threads. Produces exactly the same alignments as the sequential
/// engine.
///
/// With `search.checkpoint_budget` set, each worker keeps that many
/// bytes of DP checkpoints and a private dirty-log replica synced from
/// the shared top list under the lock, so the stamp a sweep runs under
/// always matches the triangle snapshot it cloned. With `search.seed`
/// set, every task starts at its admissible seed bound instead of
/// infinity, and never-aligned tasks whose bound stays below every
/// acceptance are never swept by any worker; bounds are refreshed (only
/// ever tightening) under the shared lock when a never-aligned task is
/// about to be claimed and [`SplitBounds`] judges the resweep worth it,
/// and folded straight into the task state — the in-place analogue of
/// the sequential engine's bound-refresh pops. Alignments are
/// bit-identical with either layer on or off.
///
/// `rec` receives the workers' tallies once they have joined: task
/// claims, superseded work, the `worker_idle` and `traceback` phases,
/// the latency histograms and the `Stats` mirror.
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
    assert!(threads >= 1, "need at least one worker");
    let m = seq.len();
    let splits = m.saturating_sub(1);

    let bounds = search
        .seed
        .map(|sc| SplitBounds::build(seq.codes(), scoring, sc));
    let state: Vec<TaskState> = (0..splits)
        .map(|i| TaskState {
            score: match &bounds {
                Some(b) => b.bound(i + 1),
                None => Score::MAX,
            },
            aligned_with: NEVER,
            assigned: false,
        })
        .collect();
    let mut stats = Stats::new();
    if let Some(b) = &bounds {
        stats.seed_index_build_ns = b.build_ns();
    }

    let engine = Engine {
        input: ScoredSeq::new(seq, scoring),
        count: search.count,
        checkpoint_budget: search.checkpoint_budget,
        shared: Mutex::new(Shared {
            state,
            triangle: Arc::new(OverrideTriangle::new(m)),
            tops: Vec::new(),
            stats,
            superseded: 0,
            claims: 0,
            idle_secs: 0.0,
            traceback_secs: 0.0,
            hists: HistSet::new(),
            accept_in_progress: false,
            done: false,
            bounds,
            first_passes: 0,
        }),
        wake: Condvar::new(),
        rows: (0..splits).map(|_| OnceLock::new()).collect(),
    };

    if splits > 0 && search.count > 0 {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| engine.worker());
            }
        });
    }

    let mut shared = engine.shared.into_inner();
    if let Some(b) = &shared.bounds {
        shared.stats.splits_pruned = splits.saturating_sub(shared.first_passes) as u64;
        shared.stats.bound_recomputes = b.recomputes();
    }
    fold_worker_tallies(
        rec,
        &shared.stats,
        shared.claims,
        shared.superseded,
        shared.idle_secs,
        shared.traceback_secs,
        &shared.hists,
    );
    TopAlignments {
        alignments: shared.tops,
        stats: shared.stats,
        triangle: Arc::try_unwrap(shared.triangle).unwrap_or_else(|a| (*a).clone()),
    }
}

enum Decision {
    Accept {
        r: usize,
        score: Score,
    },
    Realign {
        r: usize,
        stamp: usize,
        triangle: Arc<OverrideTriangle>,
    },
    Wait,
    Finished,
}

impl Engine<'_> {
    /// Pick the next action under the lock.
    fn decide(&self, shared: &mut Shared) -> Decision {
        loop {
            if shared.done || shared.tops.len() >= self.count {
                shared.done = true;
                return Decision::Finished;
            }
            let tops_found = shared.tops.len();
            // Global argmax over ALL tasks (assigned ones hold their stale
            // upper bound), ties to the smaller split.
            let mut best: Option<(Score, usize)> = None;
            for (i, t) in shared.state.iter().enumerate() {
                if best.is_none_or(|(bs, _)| t.score > bs) {
                    best = Some((t.score, i));
                }
            }
            let Some((best_score, best_i)) = best else {
                shared.done = true;
                return Decision::Finished;
            };
            if best_score <= 0 {
                shared.done = true;
                return Decision::Finished;
            }
            let best_task = shared.state[best_i];
            if best_task.aligned_with == tops_found && !best_task.assigned {
                if shared.accept_in_progress {
                    // Someone is already accepting; speculate below.
                } else {
                    shared.accept_in_progress = true;
                    shared.claims += 1;
                    shared.stats.fresh_pops += 1;
                    return Decision::Accept {
                        r: best_i + 1,
                        score: best_score,
                    };
                }
            }
            // Speculate: best stale unassigned task, if any.
            let mut pick: Option<(Score, usize)> = None;
            for (i, t) in shared.state.iter().enumerate() {
                if !t.assigned
                    && t.aligned_with != tops_found
                    && t.score > 0
                    && pick.is_none_or(|(ps, _)| t.score > ps)
                {
                    pick = Some((t.score, i));
                }
            }
            let Some((_prior, i)) = pick else {
                return Decision::Wait;
            };
            // A never-aligned pick is about to be swept: the moment the
            // seed bounds may spend a refresh. If they do, fold them
            // straight into every never-aligned unassigned task and
            // decide again under the tightened bounds.
            if shared.state[i].aligned_with == NEVER {
                let stake = ((i + 1) * (self.input.seq.len() - i - 1)) as u64;
                if let Some(bounds) = shared.bounds.as_mut() {
                    let codes = self.input.seq.codes();
                    if bounds.refresh_before_sweep(
                        codes,
                        self.input.scoring,
                        &shared.triangle,
                        stake,
                    ) {
                        for (j, t) in shared.state.iter_mut().enumerate() {
                            if t.aligned_with == NEVER && !t.assigned {
                                t.score = bounds.bound(j + 1);
                            }
                        }
                        continue;
                    }
                }
            }
            shared.state[i].assigned = true;
            shared.claims += 1;
            shared.stats.stale_pops += 1;
            return Decision::Realign {
                r: i + 1,
                stamp: tops_found,
                triangle: Arc::clone(&shared.triangle),
            };
        }
    }

    fn worker(&self) {
        // Worker-private incremental state: the sweeper owns this
        // worker's checkpoints and scratch pool; the dirty log is a
        // replica of the shared accept history, appended to under the
        // lock so its version always equals the stamp of the triangle
        // snapshot the worker sweeps under.
        let mut incr = self.checkpoint_budget.map(IncrementalSweeper::new);
        let mut local_dirty = DirtyLog::new();
        let mut guard = self.shared.lock();
        loop {
            match self.decide(&mut guard) {
                Decision::Finished => {
                    if let Some(sweeper) = &incr {
                        guard.stats.pool_reuses += sweeper.pool_reuses();
                    }
                    self.wake.notify_all();
                    return;
                }
                Decision::Wait => {
                    let t0 = Instant::now();
                    self.wake.wait(&mut guard);
                    guard.idle_secs += t0.elapsed().as_secs_f64();
                    guard
                        .hists
                        .observe(Metric::QueueWaitNs, t0.elapsed().as_nanos() as u64);
                }
                Decision::Accept { r, score } => {
                    let claim_t0 = Instant::now();
                    let index = guard.tops.len();
                    let mut triangle = (*guard.triangle).clone();
                    drop(guard);

                    let original = self.rows[r - 1]
                        .get()
                        .expect("accepted split must have a first-pass row");
                    let traceback_t0 = Instant::now();
                    let (top, cells) =
                        self.input
                            .accept_task_with_row(r, score, &mut triangle, original, index);
                    let traceback_secs = traceback_t0.elapsed().as_secs_f64();

                    guard = self.shared.lock();
                    guard.traceback_secs += traceback_secs;
                    guard.stats.record_traceback(cells);
                    guard.triangle = Arc::new(triangle);
                    if let Some(bounds) = guard.bounds.as_mut() {
                        bounds.note_accept(&top.pairs);
                    }
                    guard.tops.push(top);
                    guard.accept_in_progress = false;
                    guard
                        .hists
                        .observe(Metric::TaskRoundTripNs, claim_t0.elapsed().as_nanos() as u64);
                    // The accepted task keeps its score as an upper bound
                    // and is now stale (tops count advanced).
                    self.wake.notify_all();
                }
                Decision::Realign { r, stamp, triangle } => {
                    let claim_t0 = Instant::now();
                    if incr.is_some() {
                        // Catch the replica up to the snapshot we are
                        // about to sweep under: tops is still exactly
                        // `stamp` long (same lock hold as decide()).
                        local_dirty.sync_from(&guard.tops);
                        debug_assert_eq!(local_dirty.version(), stamp as u64);
                    }
                    drop(guard);

                    let sweep_t0 = Instant::now();
                    let is_first = self.rows[r - 1].get().is_none();
                    // (hit, rows swept, rows skipped) — realignments only.
                    let mut inc_stats: Option<(bool, u64, u64)> = None;
                    let (score, shadows, cells) = match (&mut incr, self.rows[r - 1].get()) {
                        (sweeper, None) => {
                            // First pass — with seeded pruning possibly a
                            // late one, after accepts have grown the
                            // triangle: the stored row is the clean one,
                            // the score is masked and shadow-filtered.
                            let res = match sweeper {
                                Some(sweeper) => {
                                    sweeper.first_pass(&self.input, r, &triangle, stamp as u64)
                                }
                                None => late_first_pass(&self.input, r, &triangle, None),
                            };
                            self.rows[r - 1]
                                .set(res.first_row.expect("first pass returns its row"))
                                .expect("first pass runs exactly once per split");
                            (res.score, res.shadow_rejections, res.cells)
                        }
                        (Some(sweeper), Some(original)) => {
                            let sweep = sweeper.realign(
                                &self.input,
                                r,
                                &triangle,
                                original,
                                &local_dirty,
                                stamp as u64,
                            );
                            inc_stats = Some((sweep.hit(), sweep.rows_swept, sweep.rows_skipped));
                            (
                                sweep.result.score,
                                sweep.result.shadow_rejections,
                                sweep.result.cells,
                            )
                        }
                        (None, Some(original)) => {
                            let res = self.input.align_task(r, &triangle, Some(original), None);
                            (res.score, res.shadow_rejections, res.cells)
                        }
                    };

                    // Measure the unlocked sweep before re-acquiring the
                    // lock so contention does not inflate the sample.
                    let sweep_ns = sweep_t0.elapsed().as_nanos() as u64;
                    guard = self.shared.lock();
                    guard.hists.observe(Metric::SweepNs, sweep_ns);
                    if is_first {
                        guard.first_passes += 1;
                    }
                    guard.stats.shadow_rejections += shadows;
                    guard.stats.record_alignment(cells, stamp);
                    if let Some((hit, swept, skipped)) = inc_stats {
                        guard.stats.checkpoint_hits += u64::from(hit);
                        guard.stats.checkpoint_misses += u64::from(!hit);
                        guard.stats.realign_rows_swept += swept;
                        guard.stats.realign_rows_skipped += skipped;
                        guard.hists.observe(Metric::ResumeRows, swept);
                    }
                    if stamp != guard.tops.len() {
                        guard.superseded += 1;
                    }
                    let t = &mut guard.state[r - 1];
                    // Masking monotonicity for realignments, seed-bound
                    // admissibility for first passes.
                    debug_assert!(
                        score <= t.score,
                        "sweep of split {r} rose above its upper bound"
                    );
                    t.score = score;
                    t.aligned_with = stamp;
                    t.assigned = false;
                    guard
                        .hists
                        .observe(Metric::TaskRoundTripNs, claim_t0.elapsed().as_nanos() as u64);
                    self.wake.notify_all();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_core::{find_top_alignments, SeedConfig};
    use repro_obs::{FlightRecorder, NoopRecorder};

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
