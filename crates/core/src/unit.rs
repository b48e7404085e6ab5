//! The unit of work: *what a task is*, apart from who schedules it.
//!
//! The paper has one best-first algorithm (Figure 5) and §4.1 changes
//! only what a task is — one split matrix, or 4/8/16 neighbouring ones
//! in lock-step lanes. [`Unit`] is that seam. Its impl is the pack of
//! neighbouring splits, [`crate::pack::PackUnit`], at width 1 over the
//! scalar row step or at 4/8/16 over `repro_simd`'s group kernel; its
//! three drivers are the inline heap loop of
//! [`crate::TopAlignmentFinder`], the shared-table SMP engine of
//! `repro-parallel` and the message-passing master of `repro-cluster`.
//! Every driver is monomorphised over the unit, never `dyn`.

use crate::bottom::Common;
use crate::finder::TopAlignment;
use crate::stats::Stats;
use crate::triangle::OverrideTriangle;
use repro_align::Score;
use repro_obs::Recorder;
use std::ops::Range;

/// A unit of work a driver schedules: a contiguous, ordered range of
/// splits swept together. Units partition the splits in order, so the
/// deterministic tie-break (lowest unit, then lowest member) selects
/// the smallest split among the top-scoring ones — the split the
/// paper's sequential loop accepts.
///
/// A (re)alignment is **plan** (under the SMP engine's lock: read and
/// take what the sweep needs out of the shared state), **sweep**
/// (unlocked, on the plan and the triangle snapshot of the claim) and
/// **commit** (under the lock again: fold the result back); the inline
/// driver calls the three back to back. All state lives in `Locked`.
pub trait Unit: Sync {
    /// Shared state, guarded by the SMP engine's lock.
    type Locked: Send;
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
    /// Plan the sweep of `u` under the triangle `tops` built (`first`:
    /// the unit has never been swept).
    fn plan(
        &self,
        locked: &mut Self::Locked,
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
}
