//! The best-first task queue of Figure 5.
//!
//! One task per split `r`. A task's `score` is an **upper bound** on the
//! score it can achieve under the current override triangle: either the
//! real score from its most recent (re)alignment — whose triangle can
//! only have grown since — or [`SCORE_INFINITY`] if never aligned.
//! `aligned_with` records the version (count of top alignments) its
//! last (re)alignment is exact under; a task is *fresh* iff that count
//! equals the current one, and a fresh task at the head of the queue is
//! by construction the next top alignment.
//!
//! ## The bound lattice
//!
//! A task's score only ever moves **down** a three-step lattice, and
//! every step preserves the queue invariant "score ≥ anything this
//! split can still achieve":
//!
//! 1. `SCORE_INFINITY` — the paper's initial bound: trivially
//!    admissible, totally uninformative.
//! 2. **seed bound** `bound(r)` — from [`crate::seed::SplitBounds`]
//!    ([`Task::initial_bounded`]): admissible by the triangular-sweep
//!    dominance argument (from both ends of the path), finite, and
//!    refreshed on demand (only ever tightening) as the override
//!    triangle grows. A task can re-enter the queue with a tighter
//!    seed bound without being aligned — that is the "pruned pop" fast
//!    path.
//! 3. **exact score** — after a (re)alignment, exact under the version
//!    the sweep is stamped with; still an upper bound later because
//!    masking is monotone. A first pass that seeded pruning delayed
//!    past accepts straddling it sweeps clean and is stamped at
//!    version 0: its clean score is exact under the empty triangle and
//!    an upper bound under every later one. It re-enters at the lower
//!    of that score and its seed bound (both admissible; a refreshed
//!    seed bound can sit below the clean score), stale, so the next pop
//!    realigns it under the current triangle.
//!
//! Because stale scores at any lattice level are upper bounds, a fresh
//! task at the head still beats every possible competitor — pruning
//! changes *which* sweeps happen, never *what* is accepted.
//!
//! ## Tie-breaking
//!
//! Ties break on the **smaller split** (the `Ord` impl below). With finite
//! seed bounds, ties become common (e.g. many seedless splits sharing a
//! low bound), and the sequential finder, SIMD group sweep, SMP
//! workers, and the cluster master must all pop the same task next or
//! their accepted-alignment streams diverge. The deterministic order
//! `(score desc, r asc)` is what lets `engines_agree` demand
//! bit-identical output across all engines with pruning on or off.

use repro_align::Score;
use std::collections::BinaryHeap;

/// Initial score of a never-aligned task (the paper's "infinity").
pub const SCORE_INFINITY: Score = Score::MAX;

/// `aligned_with` value of a never-aligned task (the paper's −1).
pub const NEVER_ALIGNED: usize = usize::MAX;

/// One entry of the task queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Task {
    /// The split this task aligns (`1 ≤ r ≤ m−1`).
    pub r: usize,
    /// Upper bound (stale) or exact (fresh) alignment score.
    pub score: Score,
    /// The version (number of top alignments) the last (re)alignment's
    /// score is exact under; [`NEVER_ALIGNED`] initially.
    pub aligned_with: usize,
}

impl Task {
    /// A brand-new task for split `r`.
    pub fn initial(r: usize) -> Self {
        Task {
            r,
            score: SCORE_INFINITY,
            aligned_with: NEVER_ALIGNED,
        }
    }

    /// A brand-new task for split `r` carrying a finite admissible
    /// bound instead of [`SCORE_INFINITY`] (lattice step 1 → 2; the
    /// bound must dominate the split's true masked score, as
    /// [`crate::seed::SplitBounds`] guarantees).
    pub fn initial_bounded(r: usize, bound: Score) -> Self {
        Task {
            r,
            score: bound,
            aligned_with: NEVER_ALIGNED,
        }
    }

    /// Is this task's score exact under `tops_found` top alignments?
    #[inline]
    pub fn is_fresh(&self, tops_found: usize) -> bool {
        self.aligned_with == tops_found
    }
}

impl Ord for Task {
    /// Highest score first; ties break on the smaller split so every
    /// engine (sequential, SIMD, threads, cluster) pops identically.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .cmp(&other.score)
            .then_with(|| other.r.cmp(&self.r))
    }
}

impl PartialOrd for Task {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Max-heap of tasks keyed by score (deterministic tie-break on split).
#[derive(Debug, Clone, Default)]
pub struct TaskQueue {
    heap: BinaryHeap<Task>,
}

impl TaskQueue {
    /// Queue initialised with one [`Task::initial`] per split of a
    /// length-`m` sequence (Figure 5, lines 2–7).
    pub fn for_sequence_len(m: usize) -> Self {
        let mut heap = BinaryHeap::with_capacity(m.saturating_sub(1));
        for r in 1..m {
            heap.push(Task::initial(r));
        }
        TaskQueue { heap }
    }

    /// An empty queue.
    pub fn new() -> Self {
        TaskQueue::default()
    }

    /// Insert (or re-insert) a task.
    pub fn push(&mut self, task: Task) {
        self.heap.push(task);
    }

    /// Remove and return the highest-score task.
    pub fn pop(&mut self) -> Option<Task> {
        self.heap.pop()
    }

    /// Peek at the highest-score task.
    pub fn peek(&self) -> Option<&Task> {
        self.heap.peek()
    }

    /// Number of queued tasks.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` iff no tasks are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_tasks_are_infinite_and_stale() {
        let t = Task::initial(3);
        assert_eq!(t.score, SCORE_INFINITY);
        assert!(!t.is_fresh(0));
        assert_eq!(t.aligned_with, NEVER_ALIGNED);
    }

    #[test]
    fn queue_orders_by_score_descending() {
        let mut q = TaskQueue::new();
        for (r, score) in [(1, 10), (2, 30), (3, 20)] {
            q.push(Task {
                r,
                score,
                aligned_with: 0,
            });
        }
        assert_eq!(q.pop().unwrap().r, 2);
        assert_eq!(q.pop().unwrap().r, 3);
        assert_eq!(q.pop().unwrap().r, 1);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_on_smaller_split() {
        let mut q = TaskQueue::new();
        for r in [5, 2, 9] {
            q.push(Task {
                r,
                score: 7,
                aligned_with: 0,
            });
        }
        assert_eq!(q.pop().unwrap().r, 2);
        assert_eq!(q.pop().unwrap().r, 5);
        assert_eq!(q.pop().unwrap().r, 9);
    }

    #[test]
    fn for_sequence_len_seeds_all_splits() {
        let mut q = TaskQueue::for_sequence_len(6);
        assert_eq!(q.len(), 5);
        let mut splits: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|t| t.r).collect();
        splits.sort();
        assert_eq!(splits, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn infinity_outranks_any_real_score() {
        let mut q = TaskQueue::new();
        q.push(Task {
            r: 1,
            score: Score::MAX - 1,
            aligned_with: 0,
        });
        q.push(Task::initial(2));
        assert_eq!(q.pop().unwrap().r, 2);
    }

    #[test]
    fn freshness() {
        let t = Task {
            r: 1,
            score: 5,
            aligned_with: 3,
        };
        assert!(t.is_fresh(3));
        assert!(!t.is_fresh(4));
    }

    #[test]
    fn empty_sequence_yields_empty_queue() {
        assert!(TaskQueue::for_sequence_len(0).is_empty());
        assert!(TaskQueue::for_sequence_len(1).is_empty());
        assert_eq!(TaskQueue::for_sequence_len(2).len(), 1);
    }
}
