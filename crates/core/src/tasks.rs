//! The best-first scheduler of Figure 5, written once for every driver.
//!
//! [`Scheduler`] owns the task table (per unit of work: its queued
//! score, the version that score is exact under, whether a driver has
//! claimed it) in one order, [`TaskQueue`], and the rules over it: the
//! acceptance test, the speculative pick, the seed bounds and the
//! tallies of its decisions. The inline driver, the SMP engine and the
//! cluster master only run the claims it hands out.
//!
//! A unit's queued score is an **upper bound** on what it can still
//! achieve under the current override triangle. A unit is *fresh* iff
//! its score is exact under the current version (count of accepted top
//! alignments), and a fresh, unclaimed unit at the head of the order is
//! by construction the next top alignment.
//!
//! ## The bound lattice
//!
//! A unit's score only ever moves **down** a three-step lattice, and
//! every step preserves the invariant "score ≥ anything this unit can
//! still achieve":
//!
//! 1. `Score::MAX` — the paper's initial bound: trivially admissible,
//!    totally uninformative.
//! 2. **seed bound** — the loosest of its members' [`SplitBounds`]:
//!    admissible by the triangular-sweep dominance argument (from both
//!    ends of the path), finite, and refreshed on demand (only ever
//!    tightening) as the override triangle grows.
//! 3. **exact score** — after a (re)alignment, exact under the version
//!    the sweep is stamped with; still an upper bound later because
//!    masking is monotone. A first pass that seeded pruning delayed
//!    past accepts straddling it sweeps clean and is stamped at
//!    version 0: its clean score is exact under the empty triangle and
//!    an upper bound under every later one. It re-enters at the lower
//!    of that score and its queued bound (both admissible; a refreshed
//!    seed bound can sit below the clean score), stale, so a later pick
//!    realigns it under the current triangle.
//!
//! Because stale scores at any lattice level are upper bounds, a fresh
//! unit at the head still beats every possible competitor — pruning
//! changes *which* sweeps happen, never *what* is accepted.
//!
//! **The lazy refresh.** Seed bounds are lowered at the pick, never in
//! place. A never-aligned pick whose queued bound is still current is
//! about to be swept: the moment [`SplitBounds::refresh_before_sweep`]
//! may spend a refresh, staked on that sweep. Either way, a current
//! bound below the queued one requeues that one entry unswept (a
//! **pruned pop**) and the next decision starts over. The refresh
//! attempts fall where lowering every entry in place would make them,
//! with the same stakes.
//!
//! **Tie-breaking.** Ties break on the **smaller unit**, which, because
//! units partition the splits in order, is the smaller split. With
//! finite seed bounds ties are common (e.g. many seedless splits sharing
//! a low bound), and every engine must decide the same way or their
//! accepted-alignment streams diverge. The deterministic order `(score
//! desc, unit asc)` is what lets `engines_agree` demand bit-identical
//! output across all engines with pruning on or off.

use crate::finder::Search;
use crate::pack::{group_splits, PackKernel, PackUnit};
use crate::seed::SplitBounds;
use crate::stats::Stats;
use crate::triangle::OverrideTriangle;
use repro_align::{Score, Scoring, Seq};
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// `aligned_with` of a never-aligned unit (the paper's −1).
const NEVER: usize = usize::MAX;

/// The scheduler's order over units: highest score first, ties to the
/// smaller unit.
#[derive(Debug, Default)]
pub struct TaskQueue {
    order: BTreeSet<(Reverse<Score>, usize)>,
}

impl TaskQueue {
    /// The paper's initial queue (Figure 5, lines 2–7): one unit per
    /// split of a length-`m` sequence, each at the infinite bound.
    pub fn for_sequence_len(m: usize) -> Self {
        let mut queue = TaskQueue::default();
        (1..m).for_each(|r| queue.push(Score::MAX, r - 1));
        queue
    }

    /// Remove and return the first entry: `(score, unit)`.
    pub fn pop(&mut self) -> Option<(Score, usize)> {
        self.order.pop_first().map(|(Reverse(s), u)| (s, u))
    }

    fn push(&mut self, score: Score, unit: usize) {
        self.order.insert((Reverse(score), unit));
    }

    fn iter(&self) -> impl Iterator<Item = (Score, usize)> + '_ {
        self.order.iter().map(|&(Reverse(s), u)| (s, u))
    }

    fn requeue(&mut self, unit: usize, from: Score, to: Score) {
        let queued = self.order.remove(&(Reverse(from), unit));
        debug_assert!(queued, "unit {unit} was not queued at {from}");
        self.push(to, unit);
    }
}

/// One row of the task table.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Upper bound (stale) or exact (fresh); the key in the order.
    score: Score,
    /// The version `score` is exact under; [`NEVER`] before a first pass.
    aligned_with: usize,
    /// The version a driver claimed the unit at, while it runs.
    claimed_at: Option<usize>,
}

/// What a driver does next, about unit `u`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Accept `u`'s best member as the next top alignment; `u` stays
    /// claimed until [`Scheduler::accepted`].
    Accept {
        /// The unit.
        u: usize,
        /// Its score, exact under the current version.
        score: Score,
    },
    /// Sweep stale `u`; it stays claimed until [`Scheduler::settle`] or
    /// [`Scheduler::release`].
    Sweep {
        /// The unit.
        u: usize,
        /// Never aligned: a first pass.
        first: bool,
        /// Its queued upper bound.
        bound: Score,
    },
    /// Never-aligned `u` was requeued at its tightened seed bound
    /// without a sweep; decide again.
    Pruned {
        /// The unit.
        u: usize,
        /// The bound it re-entered at.
        bound: Score,
        /// How far its queued bound overshot that one.
        slack: Score,
    },
    /// Nothing to do until a claim settles: every positive stale unit
    /// is claimed, or the pick would not fit the lanes offered.
    Wait,
    /// The count is reached or nothing positive remains, and nothing is
    /// claimed.
    Done,
}

/// The task table, its order, the acceptance rule, the speculative pick
/// and the seed bounds of one search (see the module docs).
#[derive(Debug)]
pub struct Scheduler<'a> {
    seq: &'a Seq,
    scoring: &'a Scoring,
    /// The units' geometry: splits of the sequence, and per full unit.
    splits: usize,
    lanes: usize,
    count: usize,
    table: Vec<Entry>,
    queue: TaskQueue,
    /// Accepts applied: the current version.
    version: usize,
    /// Units claimed, the one being accepted included.
    claimed: usize,
    accepting: Option<usize>,
    /// Unclaimed positive units, and the fresh ones among them: their
    /// difference is what speculation can pick from.
    positive: usize,
    fresh: usize,
    bounds: Option<SplitBounds>,
    /// Splits (not units) whose first pass has settled.
    first_passes: usize,
}

impl<'a> Scheduler<'a> {
    /// The table of `unit`'s units over `seq`: with `search.seed` set
    /// each unit enters at the loosest of its members' seed bounds (it
    /// is swept whole), else at `Score::MAX`.
    pub fn new<K: PackKernel>(
        unit: &PackUnit<K>,
        seq: &'a Seq,
        scoring: &'a Scoring,
        search: &Search,
    ) -> Self {
        let bounds = search
            .seed
            .map(|sc| SplitBounds::build(seq.codes(), scoring, sc));
        let mut queue = TaskQueue::default();
        let table: Vec<Entry> = (0..unit.units())
            .map(|u| {
                let score = bounds
                    .as_ref()
                    .map_or(Score::MAX, |b| b.max_bound(unit.splits(u)));
                queue.push(score, u);
                Entry {
                    score,
                    aligned_with: NEVER,
                    claimed_at: None,
                }
            })
            .collect();
        Scheduler {
            seq,
            scoring,
            splits: seq.len().saturating_sub(1),
            lanes: unit.lanes(),
            count: search.count,
            positive: table.iter().filter(|e| e.score > 0).count(),
            table,
            queue,
            version: 0,
            claimed: 0,
            accepting: None,
            fresh: 0,
            bounds,
            first_passes: 0,
        }
    }

    /// The next decision, tallied in `stats` (a fresh, stale or pruned
    /// pop). `triangle` is the current override triangle (a refresh
    /// masks with it); `lanes` caps the splits a speculative pick may
    /// cover (0: accept only). The acceptance test — a fresh, unclaimed
    /// head — comes first; else the best stale, unclaimed, positive unit
    /// is picked, walking down past claimed and fresh entries, and a
    /// never-aligned pick meets the lazy refresh.
    pub fn next(&mut self, stats: &mut Stats, triangle: &OverrideTriangle, lanes: usize) -> Next {
        let idle = if self.claimed == 0 {
            Next::Done
        } else {
            Next::Wait
        };
        let Some((score, head)) = self.queue.iter().next() else {
            return idle;
        };
        if self.version >= self.count || score <= 0 {
            return idle; // the head bounds every unit
        }
        let entry = self.table[head];
        if entry.claimed_at.is_none() && entry.aligned_with == self.version {
            debug_assert!(self.accepting.is_none(), "two accepts at once");
            self.claim(head);
            self.accepting = Some(head);
            stats.fresh_pops += 1;
            return Next::Accept { u: head, score };
        }
        let (table, version) = (&self.table, self.version);
        let pick = self
            .queue
            .iter()
            .take_while(|&(score, _)| score > 0)
            .find(|&(_, u)| table[u].claimed_at.is_none() && table[u].aligned_with != version);
        let Some((queued, u)) = pick else {
            return Next::Wait;
        };
        let splits = group_splits(self.splits, self.lanes, u);
        if splits.len() > lanes {
            return Next::Wait;
        }
        let first = self.table[u].aligned_with == NEVER;
        if let Some(bounds) = self.bounds.as_mut().filter(|_| first) {
            // A first pass puts `r(m − r)` cells at stake at one lane, in
            // vector cells (rows × width) — one kernel step each, like a
            // cell of the scalar resweep it is weighed against.
            let stake = ((splits.end - 1) * (self.splits + 1 - splits.start)) as u64;
            let mut bound = bounds.max_bound(splits.clone());
            if bound >= queued
                && bounds.refresh_before_sweep(self.seq.codes(), self.scoring, triangle, stake)
            {
                bound = bounds.max_bound(splits);
            }
            if bound < queued {
                self.count_in(u, false);
                self.queue.requeue(u, queued, bound);
                self.table[u].score = bound;
                self.count_in(u, true);
                stats.pruned_pops += 1;
                let slack = queued - bound;
                return Next::Pruned { u, bound, slack };
            }
        }
        self.claim(u);
        stats.stale_pops += 1;
        Next::Sweep {
            u,
            first,
            bound: queued,
        }
    }

    /// Settle swept unit `u` at `score`, exact under `version`, and
    /// return what it re-enters the order at: the score itself when it
    /// is exact now, else (a first pass stamped below the version it was
    /// claimed at) the tighter of two admissible bounds.
    pub fn settle(&mut self, u: usize, score: Score, version: usize) -> Score {
        let entry = self.table[u];
        let claimed_at = entry.claimed_at.expect("settle of an unclaimed unit");
        // Masking monotonicity for realignments, seed-bound
        // admissibility for first passes: every score exact under the
        // version claimed at or later — the live end-to-end
        // admissibility check.
        debug_assert!(
            version < claimed_at || score <= entry.score,
            "sweep of unit {u} rose above its queued upper bound"
        );
        let score = score.min(entry.score);
        if entry.aligned_with == NEVER {
            self.first_passes += group_splits(self.splits, self.lanes, u).len();
        }
        self.queue.requeue(u, entry.score, score);
        self.table[u] = Entry {
            score,
            aligned_with: version,
            claimed_at: None,
        };
        self.claimed -= 1;
        self.count_in(u, true);
        score
    }

    /// The unit [`Next::Accept`] named was accepted with `pairs`: the
    /// version advances (every fresh unit is stale now), the seed bounds
    /// note the pairs, and the unit is released at its old score — an
    /// upper bound under the grown triangle (Figure 5, line 20).
    pub fn accepted(&mut self, pairs: &[(usize, usize)]) {
        let u = self.accepting.take().expect("no accept in progress");
        if let Some(bounds) = self.bounds.as_mut() {
            bounds.note_accept(pairs);
        }
        self.version += 1;
        self.fresh = 0;
        self.release(u);
    }

    /// Return claimed unit `u` unsettled (its runner died): it keeps its
    /// queued score and may be picked again.
    pub fn release(&mut self, u: usize) {
        let claimed = self.table[u].claimed_at.take();
        debug_assert!(claimed.is_some(), "release of an unclaimed unit");
        self.claimed -= 1;
        self.count_in(u, true);
    }

    /// Accepts applied so far.
    pub fn version(&self) -> usize {
        self.version
    }

    /// Units speculation may pick now: unclaimed, stale and positive.
    pub fn stale_unclaimed(&self) -> usize {
        self.positive - self.fresh
    }

    /// Splits whose first pass has settled.
    pub fn first_passes(&self) -> usize {
        self.first_passes
    }

    /// The end-of-run fold: with seeding, the splits never aligned, the
    /// bound refreshes and the bounds' build time.
    pub fn finish(&self, stats: &mut Stats) {
        if let Some(bounds) = &self.bounds {
            stats.splits_pruned = self.splits.saturating_sub(self.first_passes) as u64;
            stats.bound_recomputes = bounds.recomputes();
            stats.seed_index_build_ns = bounds.build_ns();
        }
    }

    fn claim(&mut self, u: usize) {
        self.count_in(u, false);
        self.table[u].claimed_at = Some(self.version);
        self.claimed += 1;
    }

    /// Add unit `u` to the pick counts, or take it out of them.
    fn count_in(&mut self, u: usize, add: bool) {
        let e = self.table[u];
        let positive = usize::from(e.claimed_at.is_none() && e.score > 0);
        let fresh = positive * usize::from(e.aligned_with == self.version);
        if add {
            (self.positive, self.fresh) = (self.positive + positive, self.fresh + fresh);
        } else {
            (self.positive, self.fresh) = (self.positive - positive, self.fresh - fresh);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finder::ScoredSeq;

    fn scheduler<'a>(seq: &'a Seq, scoring: &'a Scoring, count: usize) -> Scheduler<'a> {
        let unit = PackUnit::new(ScoredSeq::new(seq, scoring), None);
        Scheduler::new(&unit, seq, scoring, &Search::new(count))
    }

    #[test]
    fn initial_tasks_are_infinite_and_stale() {
        let (seq, scoring) = (Seq::dna("ACGTAC").unwrap(), Scoring::dna_example());
        let mut s = scheduler(&seq, &scoring, 1);
        let (mut stats, tri) = (Stats::new(), OverrideTriangle::new(seq.len()));
        let next = s.next(&mut stats, &tri, 1);
        assert_eq!(
            next,
            Next::Sweep {
                u: 0,
                first: true,
                bound: Score::MAX
            }
        );
        assert_eq!((stats.stale_pops, s.stale_unclaimed()), (1, 4));
    }

    #[test]
    fn queue_orders_by_score_descending() {
        let mut q = TaskQueue::default();
        for (u, score) in [(1, 10), (2, 30), (3, 20)] {
            q.push(score, u);
        }
        assert_eq!(q.pop(), Some((30, 2)));
        assert_eq!(q.pop(), Some((20, 3)));
        assert_eq!(q.pop(), Some((10, 1)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_on_smaller_split() {
        let mut q = TaskQueue::default();
        for u in [5, 2, 9] {
            q.push(7, u);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, u)| u).collect();
        assert_eq!(order, vec![2, 5, 9]);
    }

    #[test]
    fn for_sequence_len_seeds_all_splits() {
        let mut q = TaskQueue::for_sequence_len(6);
        let units: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, u)| u).collect();
        assert_eq!(units, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn infinity_outranks_any_real_score() {
        let mut q = TaskQueue::default();
        q.push(Score::MAX - 1, 1);
        q.push(Score::MAX, 2);
        assert_eq!(q.pop(), Some((Score::MAX, 2)));
    }

    /// A unit settled at the current version is fresh: at the head it is
    /// accepted, and the accept makes it stale again.
    #[test]
    fn freshness() {
        let (seq, scoring) = (Seq::dna("ACGTAC").unwrap(), Scoring::dna_example());
        let mut s = scheduler(&seq, &scoring, 2);
        let (mut stats, tri) = (Stats::new(), OverrideTriangle::new(seq.len()));
        let mut claims = Vec::new();
        while let Next::Sweep { u, .. } = s.next(&mut stats, &tri, 1) {
            claims.push(u);
        }
        assert_eq!(claims, vec![0, 1, 2, 3, 4], "every stale unit is claimed");
        assert_eq!(s.next(&mut stats, &tri, 1), Next::Wait);
        for u in claims {
            assert_eq!(s.settle(u, 3 + u as Score % 2, 0), 3 + u as Score % 2);
        }
        assert_eq!(s.stale_unclaimed(), 0, "every unit is fresh");
        assert_eq!(s.next(&mut stats, &tri, 1), Next::Accept { u: 1, score: 4 });
        assert_eq!(
            s.next(&mut stats, &tri, 1),
            Next::Wait,
            "the head is claimed"
        );
        s.accepted(&[]);
        assert_eq!((s.version(), s.stale_unclaimed()), (1, 5));
        let next = s.next(&mut stats, &tri, 1);
        assert_eq!(
            next,
            Next::Sweep {
                u: 1,
                first: false,
                bound: 4
            }
        );
        s.release(1);
        assert_eq!(s.stale_unclaimed(), 5);
        assert_eq!((stats.fresh_pops, stats.stale_pops), (1, 6));
    }

    #[test]
    fn empty_sequence_yields_empty_queue() {
        assert_eq!(TaskQueue::for_sequence_len(0).pop(), None);
        assert_eq!(TaskQueue::for_sequence_len(1).pop(), None);
        let mut q = TaskQueue::for_sequence_len(2);
        assert_eq!((q.pop(), q.pop()), (Some((Score::MAX, 0)), None));
        let (seq, scoring) = (Seq::dna("A").unwrap(), Scoring::dna_example());
        let mut s = scheduler(&seq, &scoring, 3);
        let tri = OverrideTriangle::new(1);
        assert_eq!(s.next(&mut Stats::new(), &tri, usize::MAX), Next::Done);
    }
}
