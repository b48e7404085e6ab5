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
//! Correctness carries over unchanged from the split-level proof:
//!
//! * a top alignment is accepted only when the globally best group (by
//!   stale upper bound, over assigned and unassigned alike) is *fresh*
//!   (aligned against the current triangle) — the sequential fixed
//!   point;
//! * groups are **contiguous, ordered** ranges of splits, so the
//!   deterministic tie-break (lowest group index, then lowest lane)
//!   selects exactly the smallest split among the top-scoring ones —
//!   the same split the sequential engine accepts;
//! * the query profiles are built once and shared read-only across
//!   workers; first-pass bottom rows are write-once (`OnceLock`).
//!   Unseeded, every first pass completes before the first acceptance
//!   (a never-swept group holds score `Score::MAX` and can never be
//!   fresh); with seeded pruning a group's first sweep can happen after
//!   accepts, in which case the worker sweeps twice — clean for the
//!   shadow store, masked (resumed from the pack's first dirty row) for
//!   the exact scores.

use parking_lot::{Condvar, Mutex};
use repro_align::{Score, Scoring, Seq};
use repro_core::bottom::best_valid_entry_counted;
use repro_core::{
    DirtyLog, OverrideTriangle, ScoredSeq, Search, SplitBounds, Stats, TopAlignment, TopAlignments,
};
use repro_obs::{Counter, HistSet, Metric, Recorder};
use repro_simd::{GroupIncremental, GroupSweeper, LaneMemo, RealignPlan, SimdSel};
use std::sync::Arc;
use std::sync::OnceLock;
use std::time::Instant;

/// Per-group sweep memo: one [`LaneMemo`] per lane — clean lanes replay
/// individually even when sibling lanes must re-sweep.
type GroupMemo = Option<Vec<LaneMemo>>;

/// Group-sweep counts, tallied under the lock like the rest of
/// [`Shared`] and folded into the recorder after the workers join.
#[derive(Default)]
struct SweepTally {
    /// Group sweeps performed (narrow and wide combined).
    group_sweeps: u64,
    /// Groups whose narrow (`i16`) sweep saturated and was redone wide.
    saturations: u64,
    /// Wide (`i32`) promotion sweeps — saturated groups plus every sweep
    /// of a scoring too large for `i16` altogether.
    promoted_sweeps: u64,
}

impl SweepTally {
    /// One finished sweep, by its [`repro_simd::SweepOutcome`] flags.
    fn count(&mut self, saturated_narrow: bool, promoted: bool) {
        self.group_sweeps += 1;
        if saturated_narrow {
            self.saturations += 1;
        }
        if promoted {
            self.promoted_sweeps += 1;
        }
    }
}

#[derive(Debug, Clone)]
struct GroupState {
    /// Best member's upper bound (drives scheduling).
    score: Score,
    /// Per-lane upper bounds from the last sweep.
    members: Vec<Score>,
    aligned_with: usize,
    assigned: bool,
}

struct Shared {
    groups: Vec<GroupState>,
    triangle: Arc<OverrideTriangle>,
    tops: Vec<TopAlignment>,
    stats: Stats,
    simd: SweepTally,
    /// Group sweeps computed against an already-superseded triangle
    /// version (speculation overhead).
    superseded: u64,
    /// Group tasks (sweeps + acceptances) claimed by workers.
    claims: u64,
    /// Seconds workers spent blocked waiting for claimable work, summed
    /// across workers.
    idle_secs: f64,
    /// Seconds of acceptance recomputation and traceback (the serial
    /// master-side step).
    traceback_secs: f64,
    /// Group sweep duration, task round trip, queue wait, resume rows.
    hists: HistSet,
    accept_in_progress: bool,
    done: bool,
    /// Accept history mirrored for the incremental layer; its version
    /// always equals `tops.len()` (appended under the same lock hold).
    dirty: DirtyLog,
    /// Per-group, per-lane sweep memos. A lane untouched since its
    /// stamp replays verbatim — under the lock, no DP — while dirty
    /// siblings re-pack into a compacted sweep.
    group_memo: Vec<GroupMemo>,
    /// Budget-capped checkpoint store shared by all workers; planning
    /// (take) and committing (put) happen under the lock, the sweep
    /// itself runs on taken-out owned state.
    incr: GroupIncremental,
    /// `Some` with seeded pruning: the admissible per-split bounds,
    /// told of each accept and refreshed on demand, under the lock.
    bounds: Option<SplitBounds>,
    /// Splits (not groups) that have completed a first alignment pass.
    first_passes: usize,
}

struct Engine<'a> {
    /// Acceptance traces back through the scalar full-matrix kernel.
    input: ScoredSeq<'a>,
    sweeper: GroupSweeper<'a>,
    count: usize,
    lanes: usize,
    splits: usize,
    /// Incremental layer switch: `None` = off, `Some(0)` = accounting
    /// only (every group re-sweeps), `Some(_)` = whole-group skips. The
    /// interleaved kernel keeps no mid-matrix checkpoints, so groups
    /// skip entirely or re-sweep entirely.
    checkpoint_budget: Option<usize>,
    shared: Mutex<Shared>,
    wake: Condvar,
    rows: Vec<OnceLock<Vec<Score>>>, // index r − 1, first-pass bottom rows
}

const NEVER: usize = usize::MAX;

/// Find the top alignments `search` asks for with `threads` workers,
/// each realigning whole groups through the `sel`-dispatched SIMD sweep.
/// Produces exactly the same alignments as the sequential engine.
///
/// With `search.checkpoint_budget` set the incremental layer is
/// lane-granular: lanes no accept has straddled since their last sweep
/// replay from a shared memo under the lock, and the remaining lanes
/// re-pack into a compacted group resumed from the deepest shared
/// checkpoint row (see [`repro_simd::resume`]). With `search.seed` set,
/// every group enters the schedule at the maximum of its members' seed
/// bounds, and whole lane-packs whose bound stays below every acceptance
/// are never swept by any worker; bounds are refreshed (only ever
/// tightening) under the shared lock when a never-swept group is about
/// to be claimed and [`SplitBounds`] judges the resweep worth it, and
/// folded straight into the group state. Alignments are bit-identical
/// with either layer on or off.
///
/// `rec` receives, once the workers have joined, what
/// [`crate::find_top_alignments_parallel`] reports plus the group-sweep,
/// saturation and promotion counts.
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
    let Search {
        count,
        checkpoint_budget,
        seed,
    } = *search;
    assert!(threads >= 1, "need at least one worker");
    let m = seq.len();
    let splits = m.saturating_sub(1);
    let lanes = sel.width.lanes();
    let ngroups = splits.div_ceil(lanes.max(1));
    let group_lanes = |gi: usize| lanes.min(splits - gi * lanes);
    let group_r0 = |gi: usize| 1 + gi * lanes;

    let bounds = seed.map(|sc| SplitBounds::build(seq.codes(), scoring, sc));
    let mut stats = Stats::new();
    if let Some(b) = &bounds {
        stats.seed_index_build_ns = b.build_ns();
    }

    let engine = Engine {
        input: ScoredSeq::new(seq, scoring),
        sweeper: GroupSweeper::new(seq, scoring, sel),
        count,
        lanes,
        splits,
        checkpoint_budget,
        shared: Mutex::new(Shared {
            groups: (0..ngroups)
                .map(|gi| GroupState {
                    // A group's admissible bound is the max of its
                    // members' split bounds (swept as a unit).
                    score: match &bounds {
                        Some(b) => b.max_bound(group_r0(gi)..group_r0(gi) + group_lanes(gi)),
                        None => Score::MAX,
                    },
                    members: vec![Score::MAX; group_lanes(gi)],
                    aligned_with: NEVER,
                    assigned: false,
                })
                .collect(),
            triangle: Arc::new(OverrideTriangle::new(m)),
            tops: Vec::new(),
            stats,
            simd: SweepTally::default(),
            superseded: 0,
            claims: 0,
            idle_secs: 0.0,
            traceback_secs: 0.0,
            hists: HistSet::new(),
            accept_in_progress: false,
            done: false,
            dirty: DirtyLog::new(),
            group_memo: vec![None; ngroups],
            incr: GroupIncremental::new(checkpoint_budget.unwrap_or(0)),
            bounds,
            first_passes: 0,
        }),
        wake: Condvar::new(),
        rows: (0..splits).map(|_| OnceLock::new()).collect(),
    };

    if splits > 0 && count > 0 {
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
    crate::fold_worker_tallies(
        rec,
        &shared.stats,
        shared.claims,
        shared.superseded,
        shared.idle_secs,
        shared.traceback_secs,
        &shared.hists,
    );
    rec.add(Counter::GroupSweeps, shared.simd.group_sweeps);
    rec.add(Counter::NarrowSaturations, shared.simd.saturations);
    rec.add(Counter::PromotedSweeps, shared.simd.promoted_sweeps);
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
    Sweep {
        gi: usize,
        stamp: usize,
        triangle: Arc<OverrideTriangle>,
    },
    Wait,
    Finished,
}

impl Engine<'_> {
    fn group_r0(&self, gi: usize) -> usize {
        1 + gi * self.lanes
    }

    fn group_lanes(&self, gi: usize) -> usize {
        self.lanes.min(self.splits - gi * self.lanes)
    }

    /// The splits of group `gi`.
    fn group_splits(&self, gi: usize) -> std::ops::Range<usize> {
        self.group_r0(gi)..self.group_r0(gi) + self.group_lanes(gi)
    }

    /// Pick the next action under the lock.
    fn decide(&self, shared: &mut Shared) -> Decision {
        loop {
            if shared.done || shared.tops.len() >= self.count {
                shared.done = true;
                return Decision::Finished;
            }
            let tops_found = shared.tops.len();
            // Global argmax over ALL groups (assigned ones hold their stale
            // upper bound), ties to the smaller group index — which, because
            // groups partition the splits in order, is the smaller split.
            let mut best: Option<(Score, usize)> = None;
            for (gi, g) in shared.groups.iter().enumerate() {
                if best.is_none_or(|(bs, _)| g.score > bs) {
                    best = Some((g.score, gi));
                }
            }
            let Some((best_score, best_gi)) = best else {
                shared.done = true;
                return Decision::Finished;
            };
            if best_score <= 0 {
                shared.done = true;
                return Decision::Finished;
            }
            let best_group = &shared.groups[best_gi];
            if best_group.aligned_with == tops_found && !best_group.assigned {
                if shared.accept_in_progress {
                    // Someone is already accepting; speculate below.
                } else {
                    // Best member, lowest lane on ties ⇒ smallest split.
                    let (best_l, &score) = best_group
                        .members
                        .iter()
                        .enumerate()
                        .max_by(|(la, sa), (lb, sb)| sa.cmp(sb).then(lb.cmp(la)))
                        .expect("groups are never empty");
                    shared.accept_in_progress = true;
                    shared.claims += 1;
                    shared.stats.fresh_pops += 1;
                    return Decision::Accept {
                        r: self.group_r0(best_gi) + best_l,
                        score,
                    };
                }
            }
            // Speculate: best stale unassigned group, if any.
            let mut pick: Option<(Score, usize)> = None;
            for (gi, g) in shared.groups.iter().enumerate() {
                if !g.assigned
                    && g.aligned_with != tops_found
                    && g.score > 0
                    && pick.is_none_or(|(ps, _)| g.score > ps)
                {
                    pick = Some((g.score, gi));
                }
            }
            let Some((_, gi)) = pick else {
                return Decision::Wait;
            };
            // A never-swept pick is about to be swept: the moment the
            // seed bounds may spend a refresh. If they do, lower every
            // never-swept unassigned group to its new (max-member)
            // bound and decide again.
            if shared.groups[gi].aligned_with == NEVER {
                let m = self.input.seq.len();
                if let Some(bounds) = shared.bounds.as_mut() {
                    // The stake in *vector* cells (rows × width): one
                    // kernel step each, like a cell of the scalar
                    // resweep it is weighed against.
                    let splits = self.group_splits(gi);
                    let stake = ((splits.end - 1) * (m - splits.start)) as u64;
                    let codes = self.input.seq.codes();
                    if bounds.refresh_before_sweep(
                        codes,
                        self.input.scoring,
                        &shared.triangle,
                        stake,
                    ) {
                        for (gj, g) in shared.groups.iter_mut().enumerate() {
                            if g.aligned_with == NEVER && !g.assigned {
                                g.score = bounds.max_bound(self.group_splits(gj));
                            }
                        }
                        continue;
                    }
                }
            }
            shared.groups[gi].assigned = true;
            shared.claims += 1;
            shared.stats.stale_pops += 1;
            return Decision::Sweep {
                gi,
                stamp: tops_found,
                triangle: Arc::clone(&shared.triangle),
            };
        }
    }

    fn worker(&self) {
        let mut guard = self.shared.lock();
        loop {
            match self.decide(&mut guard) {
                Decision::Finished => {
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
                    if self.checkpoint_budget.is_some() {
                        guard.dirty.record_accept(&top.pairs);
                    }
                    if let Some(bounds) = guard.bounds.as_mut() {
                        bounds.note_accept(&top.pairs);
                    }
                    guard.tops.push(top);
                    guard.accept_in_progress = false;
                    guard
                        .hists
                        .observe(Metric::TaskRoundTripNs, claim_t0.elapsed().as_nanos() as u64);
                    // The accepted group keeps its score as an upper bound
                    // and is now stale (tops count advanced).
                    self.wake.notify_all();
                }
                Decision::Sweep {
                    gi,
                    stamp,
                    triangle,
                } => {
                    let claim_t0 = Instant::now();
                    let r0 = self.group_r0(gi);
                    let nl = self.group_lanes(gi);
                    let first_pass = self.rows[r0 - 1].get().is_none();
                    let incremental = self.checkpoint_budget.is_some();
                    // The lock has been held since decide(), so the dirty
                    // version still equals the claim stamp; memo and
                    // checkpoint stamps use it so they stay correct even
                    // if the sweep is later superseded.
                    let version = stamp as u64;
                    debug_assert!(!incremental || guard.dirty.version() == version);

                    let shared = &mut *guard;
                    let mut plan = (incremental && !first_pass).then(|| {
                        let stamps: Vec<u64> = shared.group_memo[gi]
                            .as_ref()
                            .expect("realigned group must have a memo")
                            .iter()
                            .map(|lm| lm.stamp)
                            .collect();
                        shared.incr.plan(&shared.dirty, r0, nl, &stamps)
                    });

                    // Whole-group skip (every lane clean): replayed under
                    // the lock — no DP at all — exactly as the
                    // single-threaded SIMD engine.
                    if plan.as_ref().is_some_and(|p| p.full_skip()) {
                        let memo = shared.group_memo[gi].as_mut().expect("checked above");
                        let mut members = Vec::with_capacity(nl);
                        let mut shadows = 0u64;
                        let mut rows_skipped = 0u64;
                        for (l, lm) in memo.iter_mut().enumerate() {
                            lm.stamp = version;
                            members.push(lm.score);
                            shadows += lm.shadows;
                            rows_skipped += (r0 + l) as u64;
                        }
                        shared.stats.shadow_rejections += shadows;
                        for _ in 0..nl {
                            shared.stats.record_alignment(0, stamp);
                        }
                        shared.stats.checkpoint_hits += 1;
                        shared.stats.lanes_skipped += nl as u64;
                        shared.stats.realign_rows_skipped += rows_skipped;
                        let state = &mut shared.groups[gi];
                        state.score = members.iter().copied().max().unwrap_or(0);
                        state.members = members;
                        state.aligned_with = stamp;
                        state.assigned = false;
                        shared
                            .hists
                            .observe(Metric::TaskRoundTripNs, claim_t0.elapsed().as_nanos() as u64);
                        self.wake.notify_all();
                        continue;
                    }
                    let fp_capture_rows = if first_pass && incremental {
                        shared.incr.first_pass_captures(&shared.dirty, r0, nl)
                    } else {
                        Vec::new()
                    };
                    drop(guard);
                    let sweep_t0 = Instant::now();
                    if first_pass {
                        let rs_full: Vec<usize> = (0..nl).map(|l| r0 + l).collect();
                        // Possibly a late first pass: under seeded pruning
                        // a group's first sweep can happen after accepts
                        // have grown the triangle.
                        let fp = self
                            .sweeper
                            .first_pass(&rs_full, &triangle, &fp_capture_rows);
                        let (outcome, masked, caps) = (fp.clean, fp.masked, fp.caps);
                        let g = outcome.group;
                        let total_cells = g.cells + masked.as_ref().map_or(0, |mo| mo.group.cells);
                        let per_lane_cells = total_cells / nl as u64;
                        let mut members = Vec::with_capacity(nl);
                        let mut shadows = 0u64;
                        let mut lane_memo = Vec::with_capacity(nl);
                        for l in 0..nl {
                            let r = r0 + l;
                            let mut lane_shadows = 0u64;
                            self.rows[r - 1]
                                .set(g.rows[l].clone())
                                .expect("first pass runs exactly once per split");
                            let score = if let Some(mo) = &masked {
                                let (s, _, sh) =
                                    best_valid_entry_counted(&mo.group.rows[l], &g.rows[l]);
                                lane_shadows = sh;
                                shadows += sh;
                                s
                            } else {
                                g.rows[l].iter().copied().max().unwrap_or(0).max(0)
                            };
                            lane_memo.push(LaneMemo {
                                stamp: version,
                                score,
                                shadows: lane_shadows,
                            });
                            members.push(score);
                        }

                        // Measure the unlocked sweep before re-acquiring
                        // the lock so contention does not inflate the
                        // sample.
                        let sweep_ns = sweep_t0.elapsed().as_nanos() as u64;
                        guard = self.shared.lock();
                        let shared = &mut *guard;
                        shared.hists.observe(Metric::SweepNs, sweep_ns);
                        shared.stats.shadow_rejections += shadows;
                        for _ in 0..nl {
                            shared.stats.record_alignment(per_lane_cells, stamp);
                        }
                        if incremental {
                            let prios: Vec<Score> = lane_memo.iter().map(|lm| lm.score).collect();
                            shared.incr.commit(&rs_full, Vec::new(), caps, version, &prios);
                            shared.group_memo[gi] = Some(lane_memo);
                        }
                        shared
                            .simd
                            .count(outcome.saturated_narrow, outcome.promoted);
                        if let Some(mo) = &masked {
                            shared.simd.count(mo.saturated_narrow, mo.promoted);
                        }
                        shared.first_passes += nl;
                        if stamp != shared.tops.len() {
                            shared.superseded += 1;
                        }
                        let state = &mut shared.groups[gi];
                        // The live admissibility check: the bound this
                        // pack was claimed at dominates its task scores.
                        debug_assert!(
                            members.iter().all(|&s| s <= state.score),
                            "first sweep of group {gi} rose above its bound"
                        );
                        state.score = members.iter().copied().max().unwrap_or(0);
                        state.members = members;
                        state.aligned_with = stamp;
                        state.assigned = false;
                        shared
                            .hists
                            .observe(Metric::TaskRoundTripNs, claim_t0.elapsed().as_nanos() as u64);
                        self.wake.notify_all();
                    } else {
                        // Realignment: sweep only the lanes the plan says
                        // need work, compacted and resumed from the
                        // deepest shared checkpoint row; clean lanes
                        // replay their memos.
                        let mut p = plan.take().unwrap_or_else(|| RealignPlan {
                            clean: Vec::new(),
                            packed: (0..nl).collect(),
                            rs: (0..nl).map(|l| r0 + l).collect(),
                            resume_row: 0,
                            kept: Vec::new(),
                            capture_rows: Vec::new(),
                        });
                        let npack = p.packed.len();
                        let start = p.resume_row;
                        let (outcome, caps) = {
                            let resume = p.resume();
                            self.sweeper.sweep_at(
                                &p.rs,
                                Some(&*triangle),
                                resume.as_ref(),
                                &p.capture_rows,
                            )
                        };
                        let per_lane_cells = outcome.group.cells / npack as u64;
                        let mut pack_scores = Vec::with_capacity(npack);
                        let mut shadows = 0u64;
                        let mut rows_swept = 0u64;
                        for (i, &l) in p.packed.iter().enumerate() {
                            let r = r0 + l;
                            let original = self.rows[r - 1]
                                .get()
                                .expect("re-swept member must have a stored first-pass row");
                            let (s, _, sh) =
                                best_valid_entry_counted(&outcome.group.rows[i], original);
                            shadows += sh;
                            rows_swept += (r - start) as u64;
                            pack_scores.push((l, s, sh));
                        }
                        let compacted = npack < nl || start > 0;

                        let sweep_ns = sweep_t0.elapsed().as_nanos() as u64;
                        guard = self.shared.lock();
                        let shared = &mut *guard;
                        shared.hists.observe(Metric::SweepNs, sweep_ns);
                        shared.stats.shadow_rejections += shadows;
                        let mut members = vec![0; nl];
                        if incremental {
                            if p.clean.is_empty() && start == 0 {
                                shared.stats.checkpoint_misses += 1;
                            }
                            shared.stats.lanes_skipped += p.clean.len() as u64;
                            if compacted {
                                shared.stats.lanes_compacted += npack as u64;
                            }
                            shared.stats.realign_rows_swept += rows_swept;
                            let memo = shared.group_memo[gi]
                                .as_mut()
                                .expect("realigned group must have a memo");
                            for &l in &p.clean {
                                let lm = &mut memo[l];
                                lm.stamp = version;
                                shared.stats.shadow_rejections += lm.shadows;
                                shared.stats.record_alignment(0, stamp);
                                shared.stats.realign_rows_skipped += (r0 + l) as u64;
                                members[l] = lm.score;
                            }
                            for &(l, s, sh) in &pack_scores {
                                memo[l] = LaneMemo {
                                    stamp: version,
                                    score: s,
                                    shadows: sh,
                                };
                                shared.stats.record_alignment(per_lane_cells, stamp);
                                shared.stats.realign_rows_skipped += start as u64;
                                shared
                                    .hists
                                    .observe(Metric::ResumeRows, ((r0 + l) - start) as u64);
                                members[l] = s;
                            }
                            let prios: Vec<Score> =
                                pack_scores.iter().map(|&(_, s, _)| s).collect();
                            shared.incr.commit(
                                &p.rs,
                                std::mem::take(&mut p.kept),
                                caps,
                                version,
                                &prios,
                            );
                        } else {
                            for &(l, s, _) in &pack_scores {
                                shared.stats.record_alignment(per_lane_cells, stamp);
                                members[l] = s;
                            }
                        }
                        shared
                            .simd
                            .count(outcome.saturated_narrow, outcome.promoted);
                        if stamp != shared.tops.len() {
                            shared.superseded += 1;
                        }
                        let state = &mut shared.groups[gi];
                        state.score = members.iter().copied().max().unwrap_or(0);
                        state.members = members;
                        state.aligned_with = stamp;
                        state.assigned = false;
                        shared
                            .hists
                            .observe(Metric::TaskRoundTripNs, claim_t0.elapsed().as_nanos() as u64);
                        self.wake.notify_all();
                    }
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
        assert!(rec.counter(Counter::NarrowSaturations) > 0);
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
        // Each skip saves a group sweep outright.
        assert_eq!(
            rec.counter(Counter::GroupSweeps) + s.checkpoint_hits,
            plain_rec.counter(Counter::GroupSweeps),
        );
        // The schedule itself is untouched.
        assert_eq!(s.stale_pops, plain.stats.stale_pops);
        assert_eq!(s.fresh_pops, plain.stats.fresh_pops);
        assert_eq!(s.alignments, plain.stats.alignments);
        assert_eq!(s.shadow_rejections, plain.stats.shadow_rejections);
    }
}
