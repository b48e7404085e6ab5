//! The unit of work: *what a task is*, apart from who schedules it.
//!
//! The paper has one best-first algorithm (Figure 5) and §4.1 changes
//! only what a task is — one split matrix, or 4/8/16 neighbouring ones
//! in lock-step lanes. [`Unit`] is that seam. It has two impls —
//! [`SplitUnit`] here, `repro_simd::PackUnit` over lane packs — and three
//! drivers: the inline heap loop of [`crate::TopAlignmentFinder`], the
//! shared-table SMP engine of `repro-parallel` and the message-passing
//! master of `repro-cluster`. Every driver is monomorphised over the
//! unit, never `dyn`.

use crate::bottom::Common;
use crate::dirty::DirtyLog;
use crate::finder::TopAlignment;
use crate::incremental::{SplitOutcome, SplitSweeper};
use crate::stats::Stats;
use crate::triangle::OverrideTriangle;
use repro_align::{Score, Seq};
use repro_obs::{Metric, Recorder};
use std::ops::Range;

/// A unit of work a driver schedules: a contiguous, ordered range of
/// splits swept together. Units partition the splits in order, so the
/// deterministic tie-break (lowest unit, then lowest member) selects
/// the smallest split among the top-scoring ones — the split the
/// paper's sequential loop accepts.
///
/// A (re)alignment is **plan** (under the SMP engine's lock: read and
/// take what the sweep needs out of the shared state), **sweep**
/// (unlocked, on owned state and the triangle snapshot of the claim)
/// and **commit** (under the lock again: fold the result back); the
/// inline driver calls the three back to back. State every worker
/// shares lives in `Locked`; state one worker keeps to itself — a
/// scalar sweeper's checkpoints and its dirty-log replica — in `Local`.
pub trait Unit: Sync {
    /// Shared state, guarded by the SMP engine's lock.
    type Locked: Send;
    /// Per-worker state.
    type Local;
    /// What plan hands to sweep and commit.
    type Plan;
    /// What sweep hands to commit.
    type Swept;

    /// Number of units.
    fn units(&self) -> usize;
    /// The splits of unit `u`.
    fn splits(&self, u: usize) -> Range<usize>;
    /// The shared state a run starts with.
    fn locked(&self) -> Self::Locked;
    /// A worker's private state.
    fn local(&self) -> Self::Local;
    /// Plan the sweep of `u` under the triangle `tops` built (`first`:
    /// the unit has never been swept).
    fn plan(
        &self,
        locked: &mut Self::Locked,
        local: &mut Self::Local,
        u: usize,
        first: bool,
        tops: &[TopAlignment],
    ) -> Self::Plan;
    /// The plan needs no sweep: commit it as it is, still under the lock.
    fn is_replay(_plan: &Self::Plan) -> bool {
        false
    }
    /// Sweep as planned under `triangle`; first passes move their clean
    /// rows into `common`, realignments read them there.
    fn sweep(
        &self,
        common: &Common<'_>,
        local: &mut Self::Local,
        plan: &Self::Plan,
        triangle: &OverrideTriangle,
    ) -> Self::Swept;
    /// Fold a sweep (`None`: a replay) into the shared state, `stats`
    /// and `rec`; returns the unit's new score, its best member's.
    fn commit<R: Recorder>(
        &self,
        locked: &mut Self::Locked,
        stats: &mut Stats,
        rec: &mut R,
        plan: Self::Plan,
        swept: Option<Self::Swept>,
    ) -> Score;
    /// The split and score a fresh unit `u` of score `score` yields.
    fn best_member(&self, locked: &Self::Locked, u: usize, score: Score) -> (usize, Score);
    /// A worker is done: fold what its private state counted.
    fn retire(&self, _local: Self::Local, _stats: &mut Stats) {}
}

/// The split unit of work: unit `u` is split `u + 1`. Each worker keeps
/// its own sweeper — its checkpoints and scratch pool — and a dirty-log
/// replica of the accept history, caught up at plan time so its version
/// always equals the stamp of the triangle the worker sweeps under.
/// Nothing is shared.
#[derive(Debug, Clone, Copy)]
pub struct SplitUnit {
    /// Splits `1..=splits`.
    pub splits: usize,
    /// [`crate::Search::checkpoint_budget`].
    pub checkpoint_budget: Option<usize>,
    /// [`crate::FinderConfig::stripe`]; `None` on the SMP engine.
    pub stripe: Option<usize>,
}

impl SplitUnit {
    /// One unit per split of `seq`.
    pub fn new(seq: &Seq, checkpoint_budget: Option<usize>, stripe: Option<usize>) -> Self {
        let splits = seq.len().saturating_sub(1);
        SplitUnit {
            splits,
            checkpoint_budget,
            stripe,
        }
    }
}

impl Unit for SplitUnit {
    type Locked = ();
    type Local = (SplitSweeper, DirtyLog);
    /// The split, the accepts behind the triangle it is swept under, and
    /// whether this is its first pass.
    type Plan = (usize, usize, bool);
    type Swept = SplitOutcome;

    fn units(&self) -> usize {
        self.splits
    }

    fn splits(&self, u: usize) -> Range<usize> {
        u + 1..u + 2
    }

    fn locked(&self) {}

    fn local(&self) -> Self::Local {
        (SplitSweeper::new(self.checkpoint_budget), DirtyLog::new())
    }

    fn plan(
        &self,
        _: &mut (),
        (sweeper, dirty): &mut Self::Local,
        u: usize,
        first: bool,
        tops: &[TopAlignment],
    ) -> Self::Plan {
        if sweeper.checkpointing() {
            dirty.sync_from(tops);
        }
        (u + 1, tops.len(), first)
    }

    fn sweep(
        &self,
        common: &Common<'_>,
        (sweeper, dirty): &mut Self::Local,
        &(r, _, first): &Self::Plan,
        triangle: &OverrideTriangle,
    ) -> SplitOutcome {
        let original = (!first).then(|| common.row(r));
        let mut out = sweeper.sweep(&common.input, r, triangle, original, dirty, self.stripe);
        if let Some(row) = out.first_row.take() {
            common.set_row(r, row);
        }
        out
    }

    fn commit<R: Recorder>(
        &self,
        _: &mut (),
        stats: &mut Stats,
        rec: &mut R,
        (_, stamp, _): Self::Plan,
        swept: Option<SplitOutcome>,
    ) -> Score {
        let out = swept.expect("a split is never replayed under the lock");
        stats.shadow_rejections += out.shadow_rejections;
        stats.record_alignment(out.cells, stamp);
        if let Some(resume) = out.resume {
            stats.record_resume(resume.tallies());
            rec.observe(Metric::ResumeRows, resume.rows_swept);
        }
        out.score
    }

    fn best_member(&self, _: &(), u: usize, score: Score) -> (usize, Score) {
        (u + 1, score)
    }

    fn retire(&self, (sweeper, _): Self::Local, stats: &mut Stats) {
        stats.pool_reuses += sweeper.pool_reuses();
    }
}
