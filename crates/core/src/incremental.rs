//! The split unit of work, and the checkpointed incremental sweeper
//! behind it.
//!
//! [`SplitSweeper::sweep`] is how one split is (re)aligned — clean first
//! pass, late first pass (clean + masked), memo replay, checkpoint
//! resume or from-scratch sweep, then the Appendix-A shadow filter —
//! decided here once, behind [`crate::SplitUnit`]: every driver of that
//! unit (the sequential finder, the SMP workers, the Figure 8 simulator's
//! workers) reaches it only through the unit's sweep. The module is
//! private; its types surface only as the unit's associated types.
//!
//! With a checkpoint budget it routes through the private
//! `IncrementalSweeper`, which wraps the scalar score-only sweep with
//! three exact shortcuts, all driven by the [`crate::DirtyLog`]:
//!
//! 1. **Full skip** — if no pair accepted since the split's previous
//!    sweep straddles it, the whole matrix (and therefore the sweep's
//!    result) is unchanged: replay the memoised `(score, col, shadows)`
//!    without touching a single cell.
//! 2. **Checkpoint resume** — otherwise, resume from the deepest stored
//!    [`Checkpoint`] whose prefix rows are still clean, sweeping only
//!    `rows − checkpoint.row` rows. Checkpoints are captured during
//!    every sweep at positions adapted to the swept region and held
//!    under a global byte budget with queue-priority eviction.
//! 3. **Scratch pool** — all row buffers are recycled, so steady-state
//!    realignments perform no allocation.
//!
//! A miss (no memo, no valid checkpoint, or budget 0) falls back to the
//! full sweep, so results are always bit-identical to from-scratch
//! computation — the engines' equality tests difference the two paths
//! directly.

use crate::dirty::DirtyLog;
use crate::finder::{ScoredSeq, TaskResult};
use crate::split_mask::SplitMask;
use crate::triangle::OverrideTriangle;
use repro_align::checkpoint::{Checkpoint, CheckpointStore, ScratchPool};
use repro_align::{NoMask, Score, NEG_INF};
use std::collections::HashMap;

/// Result of the previous sweep of one split, replayed verbatim on a
/// full skip. Valid exactly while the dirty log reports no straddling
/// pair since `version`.
#[derive(Debug, Clone)]
struct SweepMemo {
    /// Dirty-log version of the triangle the sweep ran under.
    version: u64,
    score: Score,
    col: Option<usize>,
    shadows: u64,
}

/// What an incremental sweep did, alongside the ordinary [`TaskResult`].
#[derive(Debug)]
struct IncrementalSweep {
    /// The sweep outcome, exactly as [`crate::align_task`] would report.
    result: TaskResult,
    /// `true` if the whole sweep was served from the memo (zero rows).
    full_skip: bool,
    /// Row the DP resumed from (`0` = swept from scratch).
    resumed_at: usize,
    /// Rows actually swept.
    rows_swept: u64,
    /// Rows skipped (memo or checkpoint).
    rows_skipped: u64,
}

impl IncrementalSweep {
    /// Did a checkpoint or memo shortcut fire?
    fn hit(&self) -> bool {
        self.full_skip || self.resumed_at > 0
    }
}

/// Per-engine (or per-worker) incremental realignment state: checkpoint
/// store, sweep memos, and the scratch-buffer pool.
///
/// One sweeper serves one triangle replica: the `version` stamps passed
/// in must count the accepts applied to the triangle the sweeps run
/// under, and the [`DirtyLog`] must contain at least those accepts.
#[derive(Debug)]
struct IncrementalSweeper {
    store: CheckpointStore,
    pool: ScratchPool,
    memo: HashMap<usize, SweepMemo>,
}

/// Checkpoint capture boundaries for a sweep of `start..rows`: an even
/// sixteenth-grid over the swept region, adapted to wherever this sweep
/// actually started. A resume lands on the deepest boundary at or above
/// which every row is clean, so a denser grid loses fewer rows to
/// rounding — the copies are two `memcpy`s per boundary, far below the
/// DP cost of the rows they let a later sweep skip.
fn capture_rows(start: usize, rows: usize) -> Vec<usize> {
    let len = rows - start;
    let mut out: Vec<usize> = (1..16)
        .map(|k| start + k * len / 16)
        .filter(|&c| c > start && c < rows)
        .collect();
    out.dedup();
    out
}

/// Checkpoints kept per split at most; beyond this the shallowest are
/// dropped first (deep checkpoints skip more rows when they survive).
const MAX_CKPTS_PER_SPLIT: usize = 24;

impl IncrementalSweeper {
    /// A sweeper with the given global checkpoint byte budget. Budget 0
    /// is the degenerate enabled-but-empty configuration: every sweep
    /// runs from scratch and counts as a miss.
    fn new(budget: usize) -> Self {
        IncrementalSweeper {
            store: CheckpointStore::new(budget),
            pool: ScratchPool::new(),
            memo: HashMap::new(),
        }
    }

    /// First sweep of split `r`: always sweeps every row, but seeds the
    /// memo and captures checkpoints so later realignments can resume.
    /// Returns the ordinary first-pass [`TaskResult`] (with the clean
    /// bottom row attached for storage).
    ///
    /// The triangle may already have **grown** (`version` accepts in) —
    /// with seeded pruning a split's first sweep can come after accepts.
    /// The stored row must still be the *clean* (empty-triangle) bottom
    /// row, the shadow filter's reference, while the score must reflect
    /// the current mask, shadow-filtered like any realignment: two
    /// sweeps, but they agree on every row above the first one the mask
    /// touches, so the clean sweep snapshots its state there and the
    /// masked sweep resumes from the snapshot instead of row 0 — and
    /// the checkpoints the clean sweep took on the way down serve the
    /// masked recurrence as they are. A split no accepted pair
    /// straddles sweeps once.
    ///
    /// Bit-identical to a clean `sw_last_row` for the row plus
    /// `align_task(.., Some(&clean_row), None)` for the score.
    fn first_pass(
        &mut self,
        input: &ScoredSeq,
        r: usize,
        triangle: &OverrideTriangle,
        version: u64,
    ) -> TaskResult {
        let (score, col, shadows, cells, first_row, merged) =
            match triangle.first_straddling_row(r) {
                None => {
                    let (best, col, row, cells, merged) = self.sweep(input, r, triangle, version);
                    (best, col, 0, cells, row, merged)
                }
                Some(dirty) => {
                    let cols = input.seq.len() - r;
                    // One first pass's worth of checkpoints, wherever
                    // they are taken: above the dirty row by the clean
                    // sweep (plus the snapshot there), below it by the
                    // masked one.
                    let grid = self.planned_captures(0, r, None);
                    let mut rows: Vec<usize> =
                        grid.iter().copied().filter(|&c| c < dirty).collect();
                    if dirty > 0 {
                        rows.push(dirty);
                    }
                    let below: Vec<usize> = grid.into_iter().filter(|&c| c > dirty).collect();
                    let mut above: Vec<Checkpoint> = Vec::new();
                    let m = self.pool.take(cols, 0);
                    let mut maxy = self.pool.take(cols, NEG_INF);
                    let clean = {
                        let pool = &mut self.pool;
                        input.split(r).last_row_resume(
                            NoMask,
                            0,
                            m,
                            &mut maxy,
                            &rows,
                            &mut |row, m, my| above.push(snapshot(pool, row, version, m, my)),
                        )
                    };
                    let mut m = self.pool.take(cols, 0);
                    match above.last() {
                        Some(at_dirty) if dirty > 0 => {
                            m.copy_from_slice(&at_dirty.m);
                            maxy.copy_from_slice(&at_dirty.maxy);
                        }
                        _ => maxy.fill(NEG_INF),
                    }
                    let (row, cells, merged) =
                        self.sweep_from(input, r, triangle, version, dirty, m, maxy, above, &below);
                    let (score, col, shadows) = best_valid(&row, &clean.row);
                    self.pool.give(row);
                    (score, col, shadows, clean.cells + cells, clean.row, merged)
                }
            };
        // Store under the swept score: it is the bound the queue
        // reinserts this split with, so eviction order tracks pop order
        // — the splits realigned soonest keep their checkpoints.
        self.store.put_split(r, score, merged);
        self.memo.insert(
            r,
            SweepMemo {
                version,
                score,
                col,
                shadows,
            },
        );
        TaskResult {
            score,
            col,
            cells,
            first_row: Some(first_row),
            shadow_rejections: shadows,
        }
    }

    /// Incremental realignment of split `r` under `triangle` (whose
    /// accept count is `version`), shadow-filtered against `original`.
    ///
    /// Bit-identical to
    /// `input.align_task(r, triangle, Some(original), None)`,
    /// but skipping every row the dirty log proves unchanged.
    fn realign(
        &mut self,
        input: &ScoredSeq,
        r: usize,
        triangle: &OverrideTriangle,
        original: &[Score],
        dirty: &DirtyLog,
        version: u64,
    ) -> IncrementalSweep {
        let rows = r;
        let enabled = self.store.budget() > 0;

        // Shortcut 1: nothing straddling r changed since our last sweep
        // — the matrix, and thus the result, is identical.
        if enabled {
            if let Some(memo) = self.memo.get_mut(&r) {
                if dirty.dirty_row(r, memo.version).is_none() {
                    memo.version = version;
                    let result = TaskResult {
                        score: memo.score,
                        col: memo.col,
                        cells: 0,
                        first_row: None,
                        shadow_rejections: memo.shadows,
                    };
                    return IncrementalSweep {
                        result,
                        full_skip: true,
                        resumed_at: 0,
                        rows_swept: 0,
                        rows_skipped: rows as u64,
                    };
                }
            }
        }

        // Shortcut 2: resume from the deepest still-valid checkpoint.
        let mut kept: Vec<Checkpoint> = Vec::new();
        let mut start = 0usize;
        if enabled {
            for ckpt in self.store.take_split(r) {
                let valid = dirty.dirty_row(r, ckpt.stamp).is_none_or(|d| d >= ckpt.row);
                if valid {
                    start = start.max(ckpt.row);
                    kept.push(ckpt);
                } else {
                    self.pool.give(ckpt.m);
                    self.pool.give(ckpt.maxy);
                }
            }
        }

        // The dirty frontier: the first row any accept so far has
        // touched for this split. Rows above it have never changed, and
        // workloads whose repeats cluster (the common case — accepts
        // overlap the same region) keep dirtying at or below it, so a
        // checkpoint captured exactly there is both the deepest state
        // the next realignment can reuse and the one most likely to
        // survive future accepts.
        let frontier = dirty.dirty_row(r, 0);

        let resumed_at = start;
        let (score, col, row, cells, shadows_swept, merged) = if start > 0 {
            let seed = kept
                .iter()
                .find(|c| c.row == start)
                .expect("start came from a kept checkpoint");
            let mut m = self.pool.take(seed.m.len(), 0);
            m.copy_from_slice(&seed.m);
            let mut maxy = self.pool.take(seed.maxy.len(), 0);
            maxy.copy_from_slice(&seed.maxy);
            let captures = self.planned_captures(start, rows, frontier);
            let out = self.sweep_from(input, r, triangle, version, start, m, maxy, kept, &captures);
            let (s, c, sh) = best_valid(&out.0, original);
            (s, c, out.0, out.1, sh, out.2)
        } else {
            let out = self.sweep_with_kept(input, r, triangle, version, kept, frontier);
            let (s, c, sh) = best_valid(&out.0, original);
            (s, c, out.0, out.1, sh, out.2)
        };

        if enabled {
            // Store under the shadow-filtered score — the bound this
            // split re-enters the queue with (see `first_pass`).
            self.store.put_split(r, score, merged);
            self.memo.insert(
                r,
                SweepMemo {
                    version,
                    score,
                    col,
                    shadows: shadows_swept,
                },
            );
        }
        self.pool.give(row);

        IncrementalSweep {
            result: TaskResult {
                score,
                col,
                cells,
                first_row: None,
                shadow_rejections: shadows_swept,
            },
            full_skip: false,
            resumed_at,
            rows_swept: (rows - resumed_at) as u64,
            rows_skipped: resumed_at as u64,
        }
    }

    /// Full sweep from row 0 with fresh state (wrapper keeping the
    /// first-pass path simple). Returns (score, col, bottom row, cells,
    /// merged checkpoint set to store).
    #[allow(clippy::type_complexity)]
    fn sweep(
        &mut self,
        input: &ScoredSeq,
        r: usize,
        triangle: &OverrideTriangle,
        version: u64,
    ) -> (Score, Option<usize>, Vec<Score>, u64, Vec<Checkpoint>) {
        let (row, cells, merged) =
            self.sweep_with_kept(input, r, triangle, version, Vec::new(), None);
        let mut best = 0;
        let mut col = None;
        for (x, &v) in row.iter().enumerate() {
            if v > best {
                best = v;
                col = Some(x);
            }
        }
        (best, col, row, cells, merged)
    }

    fn sweep_with_kept(
        &mut self,
        input: &ScoredSeq,
        r: usize,
        triangle: &OverrideTriangle,
        version: u64,
        kept: Vec<Checkpoint>,
        frontier: Option<usize>,
    ) -> (Vec<Score>, u64, Vec<Checkpoint>) {
        let cols = input.seq.len() - r;
        let m = self.pool.take(cols, 0);
        let maxy = self.pool.take(cols, NEG_INF);
        let captures = self.planned_captures(0, r, frontier);
        self.sweep_from(input, r, triangle, version, 0, m, maxy, kept, &captures)
    }

    /// Checkpoint rows for a sweep of `start..rows`: the grid of
    /// [`capture_rows`] plus the dirty `frontier` when it lies inside
    /// the swept region; nothing when the budget stores nothing.
    fn planned_captures(&self, start: usize, rows: usize, frontier: Option<usize>) -> Vec<usize> {
        if self.store.budget() == 0 {
            return Vec::new();
        }
        let mut c = capture_rows(start, rows);
        if let Some(f) = frontier {
            if f > start && f < rows {
                if let Err(at) = c.binary_search(&f) {
                    c.insert(at, f);
                }
            }
        }
        c
    }

    /// The one real sweep: resume at `start` with state `(m, maxy)`,
    /// capture fresh checkpoints at `captures`, and merge them with the
    /// surviving old ones. Returns (bottom row, cells swept, merged checkpoint set);
    /// the caller stores the set under the post-sweep score so eviction
    /// order tracks the queue's pop order.
    #[allow(clippy::too_many_arguments)]
    fn sweep_from(
        &mut self,
        input: &ScoredSeq,
        r: usize,
        triangle: &OverrideTriangle,
        version: u64,
        start: usize,
        m: Vec<Score>,
        mut maxy: Vec<Score>,
        mut kept: Vec<Checkpoint>,
        captures: &[usize],
    ) -> (Vec<Score>, u64, Vec<Checkpoint>) {
        let sides = input.split(r);
        let enabled = self.store.budget() > 0;
        let mut fresh: Vec<Checkpoint> = Vec::new();
        {
            let pool = &mut self.pool;
            let mut capture = |row: usize, m: &[Score], my: &[Score]| {
                fresh.push(snapshot(pool, row, version, m, my));
            };
            // An empty triangle masks nothing: use the zero-cost mask,
            // exactly as the plain first-pass path does.
            let last = if triangle.is_empty() {
                sides.last_row_resume(NoMask, start, m, &mut maxy, captures, &mut capture)
            } else {
                let mask = SplitMask::new(triangle, r);
                sides.last_row_resume(mask, start, m, &mut maxy, captures, &mut capture)
            };
            self.pool.give(maxy);
            let merged = if enabled {
                // Merge: surviving old checkpoints + fresh captures,
                // deduplicated by row (equal rows hold equal state).
                kept.extend(fresh);
                kept.sort_by_key(|c| c.row);
                let mut merged: Vec<Checkpoint> = Vec::with_capacity(kept.len());
                for c in kept {
                    if merged.last().is_some_and(|p| p.row == c.row) {
                        self.pool.give(c.m);
                        self.pool.give(c.maxy);
                    } else {
                        merged.push(c);
                    }
                }
                while merged.len() > MAX_CKPTS_PER_SPLIT {
                    let c = merged.remove(0);
                    self.pool.give(c.m);
                    self.pool.give(c.maxy);
                }
                merged
            } else {
                Vec::new()
            };
            (last.row, last.cells, merged)
        }
    }
}

/// Copy the inter-row state entering `row` into pooled buffers.
fn snapshot(pool: &mut ScratchPool, row: usize, stamp: u64, m: &[Score], my: &[Score]) -> Checkpoint {
    let mut cm = pool.take(m.len(), 0);
    cm.copy_from_slice(m);
    let mut cy = pool.take(my.len(), 0);
    cy.copy_from_slice(my);
    Checkpoint {
        row,
        stamp,
        m: cm,
        maxy: cy,
    }
}

/// `first_pass` under an already **grown** triangle without an
/// incremental layer to seed: the clean bottom row plus the
/// shadow-filtered masked score, nothing kept. The striped kernel has
/// no mid-matrix entry, so with a `stripe` both sweeps start at row 0.
fn late_first_pass(
    input: &ScoredSeq,
    r: usize,
    triangle: &OverrideTriangle,
    stripe: Option<usize>,
) -> TaskResult {
    if stripe.is_none() {
        return IncrementalSweeper::new(0).first_pass(input, r, triangle, 0);
    }
    let clean = input.last_row(r, NoMask, stripe);
    let masked = input.align_task(r, triangle, Some(&clean.row), stripe);
    TaskResult {
        first_row: Some(clean.row),
        cells: clean.cells + masked.cells,
        ..masked
    }
}

/// `best_valid_entry_counted` shadowing, local to keep imports tight.
fn best_valid(current: &[Score], original: &[Score]) -> (Score, Option<usize>, u64) {
    crate::bottom::best_valid_entry_counted(current, original)
}

/// What the incremental layer did for one realignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Resume {
    /// A memo replay or a checkpoint resume fired.
    pub(crate) hit: bool,
    /// Rows actually swept.
    pub(crate) rows_swept: u64,
    /// Rows skipped (memo or checkpoint).
    pub(crate) rows_skipped: u64,
}

impl Resume {
    /// `[hits, misses, rows swept, rows skipped]`: the order of
    /// [`crate::Stats::record_resume`].
    pub(crate) fn tallies(&self) -> [u64; 4] {
        [
            u64::from(self.hit),
            u64::from(!self.hit),
            self.rows_swept,
            self.rows_skipped,
        ]
    }
}

/// The uniform outcome of [`SplitSweeper::sweep`]: the split unit's
/// `Swept`.
#[derive(Debug, Clone)]
pub struct SplitOutcome {
    /// Best valid (non-shadow) bottom-row score under the triangle; 0
    /// if none.
    pub(crate) score: Score,
    /// Bottom-row positions the shadow filter rejected.
    pub(crate) shadow_rejections: u64,
    /// Cells computed.
    pub(crate) cells: u64,
    /// The **clean** (empty-triangle) bottom row — first passes only,
    /// handed over by value for the caller's row store.
    pub(crate) first_row: Option<Vec<Score>>,
    /// `Some` for a realignment through the incremental layer.
    pub(crate) resume: Option<Resume>,
}

/// One split's first pass or realignment under the caller's triangle
/// replica (see the module docs): half of the split unit's `Local`.
/// Holds the replica's incremental state when a checkpoint budget is
/// set, nothing otherwise. A first pass under an already grown triangle
/// seeds the memo and the checkpoint store like a pristine one: it
/// resumes the masked sweep from the clean one's snapshot and keeps
/// both sets of checkpoints.
#[derive(Debug)]
pub struct SplitSweeper {
    incr: Option<IncrementalSweeper>,
}

impl SplitSweeper {
    /// A sweeper for one triangle replica. `checkpoint_budget` is
    /// [`crate::Search::checkpoint_budget`].
    pub(crate) fn new(checkpoint_budget: Option<usize>) -> Self {
        SplitSweeper {
            incr: checkpoint_budget.map(IncrementalSweeper::new),
        }
    }

    /// Whether the incremental layer is on, i.e. whether `sweep` reads
    /// the dirty log it is handed.
    pub(crate) fn checkpointing(&self) -> bool {
        self.incr.is_some()
    }

    /// Row buffers served from the scratch pool instead of the
    /// allocator.
    pub(crate) fn pool_reuses(&self) -> u64 {
        self.incr.as_ref().map_or(0, |s| s.pool.reuses())
    }

    /// Align split `r` under `triangle`: a first pass when `original`
    /// is `None` (the clean row comes back in the outcome), else a
    /// realignment shadow-filtered against `original`, the split's
    /// clean bottom row. Bit-identical to a clean
    /// [`ScoredSeq::align_task`] for the row and a masked one for the
    /// score, whichever route is taken.
    ///
    /// With the incremental layer on, `dirty` must hold exactly the
    /// accepts applied to `triangle` (its version stamps the memo and
    /// the checkpoints) and `stripe` is ignored; with it off, `dirty`
    /// is not read.
    pub(crate) fn sweep(
        &mut self,
        input: &ScoredSeq,
        r: usize,
        triangle: &OverrideTriangle,
        original: Option<&[Score]>,
        dirty: &DirtyLog,
        stripe: Option<usize>,
    ) -> SplitOutcome {
        let mut resume = None;
        let result = match (original, self.incr.as_mut()) {
            (Some(original), Some(incr)) => {
                let sweep = incr.realign(input, r, triangle, original, dirty, dirty.version());
                resume = Some(Resume {
                    hit: sweep.hit(),
                    rows_swept: sweep.rows_swept,
                    rows_skipped: sweep.rows_skipped,
                });
                sweep.result
            }
            (Some(original), None) => input.align_task(r, triangle, Some(original), stripe),
            (None, Some(incr)) => incr.first_pass(input, r, triangle, dirty.version()),
            (None, _) if triangle.is_empty() => input.align_task(r, triangle, None, stripe),
            // Only reachable with seed pruning, which can delay a
            // split's first sweep past an accept.
            (None, _) => late_first_pass(input, r, triangle, stripe),
        };
        SplitOutcome {
            score: result.score,
            shadow_rejections: result.shadow_rejections,
            cells: result.cells,
            first_row: result.first_row,
            resume,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finder::{align_task, find_top_alignments};
    use repro_align::{Scoring, Seq};

    fn dna(text: &str) -> Seq {
        Seq::dna(text).unwrap()
    }

    /// The split unit against the two-sweep oracle, exhaustively in a
    /// small scope: every split of a 36-nt tandem sequence × every
    /// prefix of its accept history × budget {none, 0, binding, large}
    /// × {row-major, striped}. A first pass returns the clean row of an
    /// empty-triangle `align_task` and the score and shadow count of a
    /// masked one — resuming the masked sweep at the first straddled
    /// row — and a realignment after further accepts equals the
    /// from-scratch one, whatever state the first pass left behind.
    #[test]
    fn split_unit_matches_the_two_sweep_oracle_exhaustively() {
        let seq = dna(&"ATGCATGCATGC".repeat(3));
        let scoring = Scoring::dna_example();
        let input = ScoredSeq::new(&seq, &scoring);
        let m = seq.len();
        let tops = find_top_alignments(&seq, &scoring, 5).alignments;
        assert_eq!(tops.len(), 5);
        // The replica after the first `k` accepts, and its accept log.
        let replica = |k: usize| {
            let (mut triangle, mut dirty) = (OverrideTriangle::new(m), DirtyLog::new());
            dirty.sync_from(&tops[..k]);
            for &(p, q) in tops[..k].iter().flat_map(|top| &top.pairs) {
                triangle.set(p, q);
            }
            (triangle, dirty)
        };
        let (empty, _) = replica(0);
        let later = replica(tops.len());
        // Guards against a vacuous pass: late first passes, memo
        // replays and checkpoint resumes must all have occurred.
        let (mut late, mut replayed, mut resumed) = (0, 0, 0);
        for prefix in 0..=tops.len() {
            let (triangle, dirty) = replica(prefix);
            for (budget, stripe) in [None, Some(0), Some(512), Some(1 << 20)]
                .into_iter()
                .flat_map(|b| [(b, None), (b, Some(3))])
            {
                let what = format!("prefix {prefix}, budget {budget:?}, stripe {stripe:?}");
                let mut sweeper = SplitSweeper::new(budget);
                for r in 1..m {
                    let clean = align_task(&seq, &scoring, r, &empty, None, None);
                    let clean_row = clean.first_row.unwrap();
                    let masked = align_task(&seq, &scoring, r, &triangle, Some(&clean_row), None);
                    let first = sweeper.sweep(&input, r, &triangle, None, &dirty, stripe);
                    assert_eq!(first.first_row.as_deref(), Some(&clean_row[..]), "{what} {r}");
                    assert_eq!(
                        (first.score, first.shadow_rejections, first.resume),
                        (masked.score, masked.shadow_rejections, None),
                        "{what}, first pass of split {r}"
                    );
                    if stripe.is_none() || budget.is_some() {
                        let below = triangle
                            .first_straddling_row(r)
                            .map_or(0, |d| (r - d) * (m - r));
                        assert_eq!(first.cells, clean.cells + below as u64, "{what} {r}");
                        late += usize::from(below > 0);
                    }

                    let oracle = align_task(&seq, &scoring, r, &later.0, Some(&clean_row), None);
                    let again =
                        sweeper.sweep(&input, r, &later.0, Some(&clean_row), &later.1, stripe);
                    assert_eq!(
                        (again.score, again.shadow_rejections),
                        (oracle.score, oracle.shadow_rejections),
                        "{what}, realignment of split {r}"
                    );
                    assert_eq!(again.resume.is_some(), budget.is_some(), "{what} {r}");
                    let Some(resume) = again.resume else { continue };
                    assert_eq!(resume.rows_swept + resume.rows_skipped, r as u64);
                    let dirtied = later.1.dirty_row(r, prefix as u64);
                    if budget == Some(0) {
                        // Nothing stored: swept from scratch.
                        assert_eq!((resume.hit, resume.rows_skipped), (false, 0), "{what} {r}");
                    } else if let Some(d) = dirtied {
                        assert!(resume.rows_skipped <= d as u64, "{what} {r}: resumed too deep");
                        // A late first pass left a snapshot at its first
                        // straddled row: while that stays clean (and the
                        // budget evicts nothing) the realignment resumes
                        // there or deeper.
                        let kept = triangle.first_straddling_row(r).filter(|&s| s <= d);
                        let kept = kept.filter(|_| budget == Some(1 << 20)).unwrap_or(0);
                        assert!(resume.rows_skipped >= kept as u64, "{what} {r}");
                        resumed += usize::from(resume.hit);
                    } else {
                        // No accept since the first pass straddles the
                        // split: served entirely from the memo.
                        assert_eq!((resume.hit, again.cells), (true, 0), "{what} {r}");
                        replayed += 1;
                    }
                }
                if budget.is_some_and(|b| b > 0) {
                    assert!(sweeper.pool_reuses() > 0, "{what}: pool must recycle buffers");
                }
            }
        }
        assert!(late > 0 && replayed > 0 && resumed > 0, "{late} {replayed} {resumed}");
    }

    /// A split no accept straddles is served entirely from the memo.
    #[test]
    fn untouched_split_full_skips() {
        let seq = dna("ATGCATGCATGCATGC");
        let scoring = Scoring::dna_example();
        let input = ScoredSeq::new(&seq, &scoring);
        let mut sweeper = SplitSweeper::new(Some(1 << 20));
        let mut triangle = OverrideTriangle::new(seq.len());
        let mut dirty = DirtyLog::new();
        let first = sweeper.sweep(&input, 4, &triangle, None, &dirty, None);
        let orig = first.first_row.unwrap();
        // Accept far away: pairs entirely above split 4? No — straddles
        // need p < 4 ≤ q. Use p ≥ 4 so split 4 stays clean.
        triangle.set(8, 12);
        dirty.record_accept(&[(8, 12)]);
        let inc = sweeper.sweep(&input, 4, &triangle, Some(&orig), &dirty, None);
        let resume = inc.resume.unwrap();
        assert!(resume.hit);
        assert_eq!(inc.cells, 0);
        assert_eq!(resume.rows_skipped, 4);
        let oracle = align_task(&seq, &scoring, 4, &triangle, Some(&orig), None);
        assert_eq!(inc.score, oracle.score);
        assert_eq!(inc.shadow_rejections, oracle.shadow_rejections);
    }

    /// Deep splits resume from a checkpoint instead of row 0 when the
    /// dirty region starts low in the matrix.
    #[test]
    fn dirty_tail_resumes_from_a_checkpoint() {
        let seq = dna(&"ACGT".repeat(16)); // 64 residues
        let scoring = Scoring::dna_example();
        let input = ScoredSeq::new(&seq, &scoring);
        let mut sweeper = SplitSweeper::new(Some(1 << 20));
        let mut triangle = OverrideTriangle::new(seq.len());
        let mut dirty = DirtyLog::new();
        let r = 48;
        let first = sweeper.sweep(&input, r, &triangle, None, &dirty, None);
        let orig = first.first_row.unwrap();
        // Dirty only rows ≥ 40 of split 48 (pair p=40 < 48 ≤ q=50).
        triangle.set(40, 50);
        dirty.record_accept(&[(40, 50)]);
        let inc = sweeper.sweep(&input, r, &triangle, Some(&orig), &dirty, None);
        let resume = inc.resume.unwrap();
        assert!(resume.hit && inc.cells > 0, "expected a checkpoint resume");
        assert!(resume.rows_skipped > 0);
        assert!(resume.rows_skipped <= 40, "resume must stay above the dirty row");
        let oracle = align_task(&seq, &scoring, r, &triangle, Some(&orig), None);
        assert_eq!(inc.score, oracle.score);
        assert_eq!(inc.shadow_rejections, oracle.shadow_rejections);
    }
}
