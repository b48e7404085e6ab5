//! The unit of work — a pack of neighbouring splits swept together —
//! and the per-lane incremental resume behind it.
//!
//! Paper §4.1 changes only *what a task is*: one split matrix, or 4, 8
//! or 16 neighbouring ones in lock-step lanes. That is one unit here,
//! [`PackUnit`], generic over the [`PackKernel`] that sweeps a pack: at
//! width 1 the scalar row step ([`ScoredSeq`], what `seq`, `threads:N`
//! and the Figure 8 simulator run), at 4/8/16 `repro_simd`'s group
//! kernel. How a pack is (re)aligned is decided here once, in the three
//! steps every driver calls, on the unit's [`LanePacks`]:
//!
//! * **plan** (`LanePacks::plan`) — classify the pack's lanes from
//!   their memo stamps and the dirty log, take the packed lanes'
//!   checkpoints out of the store, pick the capture rows and the
//!   version the result is exact under; all lanes clean is a replay
//!   that needs no sweep;
//! * **sweep** (`PackPlan::sweep`) — a pure function of the plan, a
//!   triangle snapshot and the clean bottom rows: one kernel sweep,
//!   which hands each lane's bottom row over in `i32`, then the
//!   per-lane Appendix-A shadow filter against the stored row; a first
//!   pass's rows are encoded into the row store instead
//!   ([`StoredRow::encode`]);
//! * **commit** (`LanePacks::commit`) — lane memos (which hold the
//!   member scores), checkpoint store, `Stats` and the sweep tally.
//!
//! On a stale pop each lane is classified independently against the
//! [`DirtyLog`]:
//!
//! * **clean** — no accept dirtied the lane's split since its memo
//!   stamp: replay the memoised exact score, sweep nothing;
//! * **resumable / from-scratch** — re-pack the remaining lanes into a
//!   *compacted* pack (kernels take arbitrary ascending split sets) and
//!   sweep only them, resuming from the deepest checkpoint row that is
//!   valid **and present for every packed lane** — all lanes of one
//!   interleaved sweep start at the same row.
//!
//! A first pass is always one clean sweep, even when seeded pruning
//! delays it past accepts that straddle its lanes: it stores the clean
//! rows, scores each lane by its clean maximum and is stamped at
//! version 0, under which those scores are exact. A stale score is an
//! upper bound because masking only lowers cells, so the ordinary
//! realignment does the masked work if the pack reaches the head again,
//! resuming from the first pass's captures at the dirty frontiers.
//!
//! Checkpoints are the scalar [`Checkpoint`] verbatim — per-lane `m` /
//! `maxy` over the lane's own columns — so a checkpoint restores into
//! any kernel bit-identically. A first pass captures once, mid-depth,
//! plus at any dirty frontier; a realignment captures at the lanes'
//! dirty frontiers only; no capture
//! lands within `MIN_CAPTURE_STRIDE` (64) rows of the sweep's start.

use crate::bottom::{best_valid_entry_counted, Common};
use crate::dirty::DirtyLog;
use crate::finder::{ScoredSeq, TopAlignment};
use crate::split_mask::SplitMask;
use crate::stats::Stats;
use crate::triangle::OverrideTriangle;
use repro_align::{Checkpoint, CheckpointStore, NoMask, Score, StoredRow, NEG_INF};
use repro_obs::{Counter, Metric, Recorder};
use std::collections::BTreeSet;
use std::ops::Range;

/// Checkpoints kept per split: a mid-depth first-pass capture plus
/// dirty frontiers accumulates fast across realignments; the shallowest
/// are dropped first (deep checkpoints skip more rows).
const MAX_CKPTS: usize = 8;

/// Minimum rows a checkpoint must promise to skip (relative to the
/// sweep's own resume row) before it is captured. Capture cost is
/// O(active columns) per lane *regardless of depth* — for a shallow
/// pack the copies rival the whole sweep's DP, and the vector kernels
/// are fast enough that the bookkeeping was measured eating the entire
/// incremental win. A checkpoint `stride` rows below the resume row
/// saves at most `stride` rows on the next resume, so rows closer than
/// this are not worth storing.
const MIN_CAPTURE_STRIDE: usize = 64;

/// The stamp of a lane memo these [`LanePacks`] never computed. Such a
/// lane is swept, never replayed: a cluster worker can be handed the
/// realignment of a pack another worker first-passed.
const UNSWEPT: u64 = u64::MAX;

/// One packed lane's restored inter-row state: the kernel's `m` and
/// `maxy` over the lane's *own* columns (`q ∈ [r, m)`), exactly the
/// layout of a scalar [`Checkpoint`] for that split.
#[derive(Debug, Clone, Copy)]
pub struct LaneResume<'a> {
    /// `M[row−1][x]` for the lane's columns.
    pub m: &'a [Score],
    /// Per-column vertical-gap running maxima after row `row−1`.
    pub maxy: &'a [Score],
}

/// Resume input for a pack sweep: every packed lane's state after rows
/// `0..row` (one entry per lane, same order as `rs`).
#[derive(Debug, Clone)]
pub struct GroupResume<'a> {
    /// Rows `0..row` are already reflected in the state (`row ≥ 1`).
    pub row: usize,
    /// Per-lane restored state, `lanes[l]` for split `rs[l]`.
    pub lanes: Vec<LaneResume<'a>>,
}

/// One inter-row snapshot captured during a pack sweep, as per-lane
/// scalar state.
#[derive(Debug, Clone)]
pub struct GroupCapture {
    /// The snapshot reflects rows `0..row`.
    pub row: usize,
    /// Per packed lane: `(m, maxy)` over the lane's own columns — the
    /// exact contents of a scalar checkpoint at this row. `None` for
    /// lanes whose split `rs[l] ≤ row` (their matrix ended above it).
    pub lanes: Vec<Option<(Vec<Score>, Vec<Score>)>>,
}

impl GroupCapture {
    /// This snapshot as the resume input of a later sweep of the same
    /// pack. Every lane must extend below the captured row.
    pub fn as_resume(&self) -> GroupResume<'_> {
        GroupResume {
            row: self.row,
            lanes: self
                .lanes
                .iter()
                .map(|lane| {
                    let (m, maxy) = lane.as_ref().expect("lane ends above the captured row");
                    LaneResume { m, maxy }
                })
                .collect(),
        }
    }
}

/// One kernel sweep of a pack.
#[derive(Debug)]
pub struct PackSweep {
    /// Exact bottom row of each swept split, in `rs` order.
    pub rows: Vec<Vec<Score>>,
    /// Logical cells computed: each split's rows below the resume row
    /// times its own columns.
    pub cells: u64,
    /// A vector kernel's width: `Some(true)` when the pack ran on wide
    /// `i32` lanes (promoted), `Some(false)` on `i16` lanes. `None` from
    /// the row kernel, which counts no vector sweeps.
    pub vector: Option<bool>,
}

/// What sweeps a pack: at width 1 the scalar row step ([`ScoredSeq`]),
/// at 4/8/16 lanes `repro_simd::GroupSweeper`.
pub trait PackKernel: Sync {
    /// Splits in a full pack.
    fn lanes(&self) -> usize;
    /// Splits of the sequence swept (`1..=splits`).
    fn splits(&self) -> usize;
    /// Sweep the ascending splits `rs` exactly under `triangle` (`None`:
    /// the clean matrices), from `resume`'s row when given, capturing
    /// the state entering each of `capture_rows` (strictly ascending,
    /// strictly between the resume row and the deepest split).
    fn sweep(
        &self,
        rs: &[usize],
        triangle: Option<&OverrideTriangle>,
        resume: Option<&GroupResume<'_>>,
        capture_rows: &[usize],
    ) -> (PackSweep, Vec<GroupCapture>);
}

/// The row kernel: each split through [`repro_align::Sides::last_row_resume`]
/// (the `i16` body where a bound proves it exact, else `i32`), which
/// never saturates.
impl PackKernel for ScoredSeq<'_> {
    fn lanes(&self) -> usize {
        1
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
        let mut caps: Vec<GroupCapture> = capture_rows
            .iter()
            .map(|&row| GroupCapture {
                row,
                lanes: vec![None; rs.len()],
            })
            .collect();
        let triangle = triangle.filter(|t| !t.is_empty());
        let (start, mut cells, mut rows) = (resume.map_or(0, |res| res.row), 0, Vec::new());
        for (l, &r) in rs.iter().enumerate() {
            let cols = self.seq.len() - r;
            let (m, mut maxy) = match resume {
                Some(res) => (res.lanes[l].m.to_vec(), res.lanes[l].maxy.to_vec()),
                None => (vec![0; cols], vec![NEG_INF; cols]),
            };
            let mut capture = |row: usize, m: &[Score], maxy: &[Score]| {
                let k = capture_rows.binary_search(&row).expect("a requested row");
                caps[k].lanes[l] = Some((m.to_vec(), maxy.to_vec()));
            };
            let sides = self.split(r);
            let last = match triangle {
                Some(t) => {
                    let mask = SplitMask::new(t, r);
                    sides.last_row_resume(mask, start, m, &mut maxy, capture_rows, &mut capture)
                }
                None => {
                    sides.last_row_resume(NoMask, start, m, &mut maxy, capture_rows, &mut capture)
                }
            };
            cells += last.cells;
            rows.push(last.row);
        }
        let sweep = PackSweep {
            rows,
            cells,
            vector: None,
        };
        (sweep, caps)
    }
}

/// One lane's sweep memo: the dirty-log version of its last sweep plus
/// the exact `(score, shadow_rejections)` to replay on a skip. Lane-
/// granular — a lane untouched by accepts since *its* stamp replays its
/// exact score even when sibling lanes must re-sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LaneMemo {
    /// Dirty-log version at the lane's last (re)alignment ([`UNSWEPT`]
    /// before it).
    stamp: u64,
    /// Exact post-shadow score at that version — the member's upper
    /// bound ever after (`Score::MAX` until the first pass).
    score: Score,
    /// Shadow rejections counted when that score was computed.
    shadows: u64,
}

/// The consecutive splits of pack `gi` when splits `1..=splits` are
/// packed `lanes` to a pack (the last pack may be short).
pub(crate) fn group_splits(splits: usize, lanes: usize, gi: usize) -> Range<usize> {
    let r0 = 1 + gi * lanes;
    r0..r0 + lanes.min(splits + 1 - r0)
}

/// Capture positions for a sweep of `rs` resuming at `resume_row`: an
/// even `grid`-point subdivision of the swept rows plus each lane's
/// first-ever dirty row (accepts cluster, so the next realignment's
/// frontier tends to repeat — checkpointing right at it makes that
/// resume free). Rows less than [`MIN_CAPTURE_STRIDE`] below the
/// resume row are dropped: they cost a full capture but can never
/// repay it.
fn plan_captures(dirty: &DirtyLog, rs: &[usize], resume_row: usize, grid: usize) -> Vec<usize> {
    let rmax = *rs.last().expect("non-empty packed set");
    let span = rmax - resume_row;
    let mut rows = BTreeSet::new();
    if span / grid >= MIN_CAPTURE_STRIDE {
        for k in 1..grid {
            rows.insert(resume_row + k * span / grid);
        }
    }
    for &r in rs {
        if let Some(f) = dirty.dirty_row(r, 0) {
            if f >= resume_row + MIN_CAPTURE_STRIDE {
                rows.insert(f);
            }
        }
    }
    rows.into_iter()
        .filter(|&c| c > resume_row && c < rmax)
        .collect()
}

/// The pack unit's state for one run: per-split lane memos (stamp,
/// exact score, shadows — the scores double as the packs' member
/// bounds), the budget-capped checkpoint store and the accept history
/// they are stamped against. One per engine; the SMP engine keeps it
/// under its lock, a cluster worker keeps its own.
#[derive(Debug)]
pub struct LanePacks {
    lanes: usize,
    splits: usize,
    /// Incremental accounting on (`checkpoint_budget` set; a budget of 0
    /// counts every realignment as a miss and shortcuts nothing).
    incremental: bool,
    /// Checkpoints by split; a budget of 0 stores nothing and disables
    /// every shortcut (the documented always-exact fallback).
    store: CheckpointStore,
    /// The accepts so far, caught up from the top list at plan time.
    dirty: DirtyLog,
    /// Per split, at index `r − 1`.
    memo: Vec<LaneMemo>,
}

impl LanePacks {
    /// The packs of `splits` splits at `lanes` per pack.
    fn new(splits: usize, lanes: usize, checkpoint_budget: Option<usize>) -> Self {
        let never = LaneMemo {
            stamp: UNSWEPT,
            score: Score::MAX,
            shadows: 0,
        };
        LanePacks {
            lanes,
            splits,
            incremental: checkpoint_budget.is_some(),
            store: CheckpointStore::new(checkpoint_budget.unwrap_or(0)),
            dirty: DirtyLog::new(),
            memo: vec![never; splits],
        }
    }

    /// Whether shortcuts may fire: a store that can hold a checkpoint.
    fn shortcuts(&self) -> bool {
        self.store.budget() > 0
    }

    /// The splits of pack `gi`.
    fn splits_of(&self, gi: usize) -> Range<usize> {
        group_splits(self.splits, self.lanes, gi)
    }

    /// The memos of the splits `rs`.
    fn memos(&self, rs: Range<usize>) -> &[LaneMemo] {
        &self.memo[rs.start - 1..rs.end - 1]
    }

    /// The split and score a fresh pack `gi` yields as the next top
    /// alignment: its best member, lowest lane on ties — the smallest
    /// split, as the sequential loop breaks them.
    pub fn best_member(&self, gi: usize) -> (usize, Score) {
        let splits = self.splits_of(gi);
        let (l, lm) = self
            .memos(splits.clone())
            .iter()
            .enumerate()
            .max_by(|(la, a), (lb, b)| a.score.cmp(&b.score).then(lb.cmp(la)))
            .expect("packs are never empty");
        (splits.start + l, lm.score)
    }

    /// Plan the sweep of stale pack `gi` under the triangle `tops`
    /// built: a first pass sweeps every lane clean from row 0; a
    /// realignment sweeps only the lanes an accept has dirtied since
    /// their stamp, compacted and resumed from the deepest checkpoint
    /// row they share.
    ///
    /// The plan's [`PackPlan::version`] is the one decision about what
    /// its result is exact under: the current version, except for a
    /// first pass that an accepted pair straddles (seeded pruning
    /// delays first passes past accepts), whose clean scores are exact
    /// under version 0 — the empty triangle.
    pub fn plan(&mut self, gi: usize, first_pass: bool, tops: &[TopAlignment]) -> PackPlan {
        self.dirty.sync_from(tops);
        let splits = self.splits_of(gi);
        let straddled = first_pass && splits.clone().any(|r| self.dirty.dirty_row(r, 0).is_some());
        let version = if straddled { 0 } else { tops.len() as u64 };
        let shortcuts = self.shortcuts();
        let (mut clean, mut rs) = (Vec::new(), Vec::new());
        for r in splits {
            let stamp = self.memo[r - 1].stamp;
            let replay = !first_pass && shortcuts && stamp != UNSWEPT;
            if replay && self.dirty.dirty_row(r, stamp).is_none() {
                clean.push(r);
            } else {
                rs.push(r);
            }
        }
        // Valid checkpoints per packed lane (rows 0..row untouched since
        // capture). Invalid ones are dropped here; valid ones are handed
        // back to the store by `commit`. A first pass has none.
        let kept: Vec<Vec<Checkpoint>> = if first_pass {
            Vec::new()
        } else {
            rs.iter()
                .map(|&r| {
                    let dirty = &self.dirty;
                    self.store
                        .take_split(r)
                        .into_iter()
                        .filter(|c| dirty.dirty_row(r, c.stamp).is_none_or(|d| d >= c.row))
                        .collect()
                })
                .collect()
        };
        // Deepest row present in *every* packed lane's valid set: the
        // shared resume row (0 = from scratch).
        let mut resume_row = 0;
        if let Some(first) = kept.first().filter(|_| kept.iter().all(|v| !v.is_empty())) {
            let mut rows: Vec<usize> = first.iter().map(|c| c.row).collect();
            rows.sort_unstable_by(|a, b| b.cmp(a));
            if let Some(row) = rows
                .into_iter()
                .find(|&row| kept.iter().all(|v| v.iter().any(|c| c.row == row)))
            {
                resume_row = row;
            }
        }
        // A first pass hedges with a single mid-depth capture (grid 2)
        // — each extra capture costs a copy of every lane, but only the
        // one just above the (future) frontier ever gets used — plus
        // the frontiers of accepts that already straddle it, where its
        // realignment resumes. Realignments capture at the dirty
        // frontiers only (grid 1): accepts cluster, so the frontier row
        // is where the next resume wants to start.
        let grid = if first_pass { 2 } else { 1 };
        let capture_rows = if shortcuts && !rs.is_empty() {
            plan_captures(&self.dirty, &rs, resume_row, grid)
        } else {
            Vec::new()
        };
        PackPlan {
            gi,
            first_pass,
            version,
            clean,
            rs,
            resume_row,
            kept,
            capture_rows,
        }
    }

    /// Apply a plan and (unless it was a replay) its sweep: lane memos,
    /// checkpoint store, `stats`, and into `rec` the lanes skipped and
    /// compacted, a vector kernel's sweep, promotion and lane-occupancy
    /// counts, and the rows each re-swept lane of an
    /// incremental realignment covered. A realignment under a checkpoint
    /// budget is a hit when any shortcut fired (a replayed lane or a
    /// resume below row 0), else a miss. Returns the pack's new score,
    /// its best member's.
    pub fn commit<R: Recorder>(
        &mut self,
        stats: &mut Stats,
        rec: &mut R,
        plan: PackPlan,
        swept: Option<PackSwept>,
    ) -> Score {
        let PackPlan {
            gi,
            first_pass,
            version,
            clean,
            rs,
            resume_row: start,
            kept,
            ..
        } = plan;
        let stamp = version as usize;
        // Clean lanes: replay their memo verbatim (and bump the stamp —
        // they were just verified clean up to now).
        for &r in &clean {
            let lm = &mut self.memo[r - 1];
            lm.stamp = version;
            stats.shadow_rejections += lm.shadows;
            stats.record_alignment(0, stamp);
            stats.realign_rows_skipped += r as u64;
        }
        stats.lanes_skipped += clean.len() as u64;
        let accounted = self.incremental && !first_pass;
        if accounted {
            if clean.is_empty() && start == 0 {
                stats.checkpoint_misses += 1;
            } else {
                stats.checkpoint_hits += 1;
            }
        }
        if let Some(swept) = swept {
            let npack = rs.len();
            if accounted && (!clean.is_empty() || start > 0) {
                stats.lanes_compacted += npack as u64;
            }
            let per_lane_cells = swept.cells / npack as u64;
            for (&r, &(score, shadows)) in rs.iter().zip(&swept.scored) {
                stats.shadow_rejections += shadows;
                stats.record_alignment(per_lane_cells, stamp);
                if accounted {
                    let rows = (r - start) as u64;
                    stats.realign_rows_swept += rows;
                    stats.realign_rows_skipped += start as u64;
                    rec.observe(Metric::ResumeRows, rows);
                }
                self.memo[r - 1] = LaneMemo {
                    stamp: version,
                    score,
                    shadows,
                };
            }
            self.store_captures(&rs, kept, swept.caps, version);
            if let Some(promoted) = swept.vector {
                rec.add(Counter::GroupSweeps, 1);
                rec.add(Counter::PromotedSweeps, u64::from(promoted));
                rec.add(Counter::LanesActive, npack as u64);
                rec.add(Counter::LanesPadded, (self.lanes - npack) as u64);
            }
        }
        let splits = self.splits_of(gi);
        self.memos(splits)
            .iter()
            .map(|lm| lm.score)
            .max()
            .unwrap_or(0)
    }

    /// Merge a sweep's fresh captures with the plan's kept checkpoints
    /// and hand everything back to the store, each split's set under its
    /// new score (the store's eviction key: the splits realigned soonest
    /// keep their checkpoints). `kept[i]` pairs with `rs[i]` and each
    /// capture's lane `i`; `stamp` is the sweep's dirty-log version.
    fn store_captures(
        &mut self,
        rs: &[usize],
        mut kept: Vec<Vec<Checkpoint>>,
        mut captures: Vec<GroupCapture>,
        stamp: u64,
    ) {
        if !self.shortcuts() {
            return;
        }
        kept.resize_with(rs.len(), Vec::new);
        for (i, (&r, old)) in rs.iter().zip(kept).enumerate() {
            // Each lane's capture buffers are moved into the store, not
            // cloned — the sweep already allocated them once.
            let mut merged: Vec<Checkpoint> = captures
                .iter_mut()
                .filter_map(|cap| {
                    cap.lanes[i].take().map(|(m, maxy)| Checkpoint {
                        row: cap.row,
                        stamp,
                        m,
                        maxy,
                    })
                })
                .collect();
            // Fresh captures win row collisions (newer stamps stay valid
            // longer); old checkpoints at other rows are kept.
            for c in old {
                if !merged.iter().any(|f| f.row == c.row) {
                    merged.push(c);
                }
            }
            merged.sort_by_key(|c| c.row);
            if merged.len() > MAX_CKPTS {
                merged.drain(..merged.len() - MAX_CKPTS); // shallowest first
            }
            self.store.put_split(r, self.memo[r - 1].score, merged);
        }
    }
}

/// What `LanePacks::plan` decided for one stale pack: owned, so the
/// sweep can run outside whatever lock guards the packs.
#[derive(Debug)]
pub struct PackPlan {
    gi: usize,
    first_pass: bool,
    /// See [`PackPlan::version`].
    version: u64,
    /// Splits replayable from their memo (no dirty row), ascending.
    clean: Vec<usize>,
    /// Splits to sweep, ascending.
    rs: Vec<usize>,
    /// Shared resume row for the packed sweep (0 = from scratch).
    resume_row: usize,
    /// Still-valid checkpoints per packed lane (the resume state borrows
    /// from these; `commit` hands them back to the store).
    kept: Vec<Vec<Checkpoint>>,
    /// Inter-row capture positions for the packed sweep.
    capture_rows: Vec<usize>,
}

impl PackPlan {
    /// Every lane replays its memo: commit it as it is, without a sweep
    /// — no DP at all, and on the SMP engine under the lock.
    pub fn is_replay(&self) -> bool {
        self.rs.is_empty()
    }

    /// The splits [`Self::sweep`] sweeps, ascending.
    fn splits(&self) -> &[usize] {
        &self.rs
    }

    /// The resume input for the packed sweep, borrowing the kept
    /// checkpoints at the resume row; `None` when sweeping from scratch.
    fn resume(&self) -> Option<GroupResume<'_>> {
        if self.resume_row == 0 {
            return None;
        }
        let lanes = self
            .kept
            .iter()
            .map(|set| {
                let c = set
                    .iter()
                    .find(|c| c.row == self.resume_row)
                    .expect("resume row is present in every packed lane");
                LaneResume {
                    m: &c.m,
                    maxy: &c.maxy,
                }
            })
            .collect();
        Some(GroupResume {
            row: self.resume_row,
            lanes,
        })
    }

    /// The dirty-log version the plan's result is exact under: the
    /// stamp of every memo and checkpoint its commit leaves, and the one
    /// a driver requeues and reports the result under. Below the current
    /// version only for a first pass an accept straddles (version 0).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Sweep the planned lanes with `kernel` once. A first pass sweeps
    /// clean, whatever the accepts so far: its rows are the lanes'
    /// shadow-store originals and each lane scores its clean maximum,
    /// exact under version 0 and an upper bound ever after, since
    /// masking only lowers cells. A realignment sweeps under `triangle`
    /// and shadow-filters each bottom row against `clean_row(r)`.
    fn sweep<'r, K: PackKernel>(
        &self,
        kernel: &K,
        triangle: &OverrideTriangle,
        clean_row: impl Fn(usize) -> &'r StoredRow,
    ) -> PackSwept {
        let rs = &self.rs;
        if self.first_pass {
            let (sweep, caps) = kernel.sweep(rs, None, None, &self.capture_rows);
            return PackSwept {
                scored: sweep
                    .rows
                    .iter()
                    .map(|row| (row.iter().copied().max().unwrap_or(0), 0))
                    .collect(),
                first_rows: sweep.rows,
                cells: sweep.cells,
                caps,
                vector: sweep.vector,
            };
        }
        let resume = self.resume();
        let (sweep, caps) = kernel.sweep(rs, Some(triangle), resume.as_ref(), &self.capture_rows);
        let scored = rs
            .iter()
            .zip(&sweep.rows)
            .map(|(&r, row)| {
                let (score, _, shadows) = best_valid_entry_counted(row, clean_row(r));
                (score, shadows)
            })
            .collect();
        PackSwept {
            first_rows: Vec::new(),
            scored,
            cells: sweep.cells,
            caps,
            vector: sweep.vector,
        }
    }
}

/// The outcome of `PackPlan::sweep`, for `LanePacks::commit`.
#[derive(Debug)]
pub struct PackSwept {
    /// First pass only: each swept split's clean bottom row, parallel to
    /// `PackPlan::splits`, for the row store (taken before committing).
    first_rows: Vec<Vec<Score>>,
    /// Per swept lane: exact post-shadow score and shadow rejections.
    scored: Vec<(Score, u64)>,
    /// Logical cells computed, all lanes together.
    cells: u64,
    caps: Vec<GroupCapture>,
    /// The sweep's [`PackSweep::vector`].
    vector: Option<bool>,
}

/// The unit of work: unit `u` is pack `u` of the [`LanePacks`] — lane
/// memos and the budget-capped checkpoint store, which the SMP engine
/// keeps under its lock, where plan takes state out and commit puts it
/// back; the sweep runs on that owned state through the kernel all
/// workers share read-only. A worker keeps nothing to itself.
///
/// Units are contiguous, ordered ranges of splits that partition them
/// in order, so the deterministic tie-break (lowest unit, then lowest
/// member) selects the smallest split among the top-scoring ones — the
/// split the paper's sequential loop accepts.
///
/// A (re)alignment is **plan** ([`LanePacks::plan`], under the SMP
/// engine's lock: read and take what the sweep needs out of the shared
/// state), **sweep** ([`Self::sweep`], unlocked, on the plan and the
/// triangle snapshot of the claim) and **commit** ([`LanePacks::commit`],
/// under the lock again: fold the result back); the inline driver calls
/// the three back to back. All state lives in the [`LanePacks`].
pub struct PackUnit<K> {
    kernel: K,
    checkpoint_budget: Option<usize>,
}

impl<K: PackKernel> PackUnit<K> {
    /// The packs `kernel` sweeps, checkpointing within
    /// `checkpoint_budget` ([`crate::Search::checkpoint_budget`]).
    pub fn new(kernel: K, checkpoint_budget: Option<usize>) -> Self {
        PackUnit {
            kernel,
            checkpoint_budget,
        }
    }

    /// Number of units.
    pub fn units(&self) -> usize {
        self.kernel.splits().div_ceil(self.kernel.lanes())
    }

    /// The splits of unit `u`.
    pub fn splits(&self, u: usize) -> Range<usize> {
        group_splits(self.kernel.splits(), self.kernel.lanes(), u)
    }

    /// Splits in a full pack.
    pub(crate) fn lanes(&self) -> usize {
        self.kernel.lanes()
    }

    /// The shared state a run starts with.
    pub fn packs(&self) -> LanePacks {
        let (splits, lanes) = (self.kernel.splits(), self.kernel.lanes());
        LanePacks::new(splits, lanes, self.checkpoint_budget)
    }

    /// Sweep as planned under `triangle`; first passes store their clean
    /// rows in `common`, realignments read them there.
    pub fn sweep(
        &self,
        common: &Common<'_>,
        plan: &PackPlan,
        triangle: &OverrideTriangle,
    ) -> PackSwept {
        let mut swept = plan.sweep(&self.kernel, triangle, |r| common.row(r));
        // A first pass's clean rows go into the write-once store.
        for (&r, row) in plan.splits().iter().zip(swept.first_rows.drain(..)) {
            common.set_row(r, StoredRow::encode(&row));
        }
        swept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finder::{align_task, find_top_alignments};
    use repro_align::{Scoring, Seq};
    use repro_obs::NoopRecorder;

    fn dna(text: &str) -> Seq {
        Seq::dna(text).unwrap()
    }

    fn ckpt(row: usize, stamp: u64) -> Checkpoint {
        Checkpoint {
            row,
            stamp,
            m: vec![0; 4],
            maxy: vec![-3; 4],
        }
    }

    /// A top alignment made of `pairs`, for the dirty log.
    fn top(pairs: &[(usize, usize)]) -> TopAlignment {
        TopAlignment {
            index: 0,
            r: pairs[0].0 + 1,
            score: 1,
            pairs: pairs.to_vec(),
        }
    }

    /// Plan · sweep · commit of unit `u` under the triangle `tops`
    /// built: the unit's new score and what its commit grew.
    fn run<K: PackKernel>(
        unit: &PackUnit<K>,
        (packs, common): (&mut LanePacks, &Common),
        (u, first): (usize, bool),
        (triangle, tops): (&OverrideTriangle, &[TopAlignment]),
    ) -> (Score, u64, Stats) {
        let plan = packs.plan(u, first, tops);
        let version = plan.version();
        let swept = (!plan.is_replay()).then(|| unit.sweep(common, &plan, triangle));
        let mut grown = Stats::new();
        let score = packs.commit(&mut grown, &mut NoopRecorder, plan, swept);
        (score, version, grown)
    }

    /// The 1-lane pack against the two-sweep oracle, exhaustively in a
    /// small scope: every split × every prefix of the accept history ×
    /// budget {none, 0, binding, large}. A first pass is one clean sweep
    /// whatever the prefix: it stores the clean row of an empty-triangle
    /// `align_task`, scores its clean maximum, costs its cells and is
    /// stamped at version 0 exactly when a prefix accept straddles the
    /// split (at the prefix otherwise). The realignment one accept later
    /// equals the masked oracle, whatever state the first pass left
    /// behind, counted once as a hit or a miss. The 36-nt tandem
    /// input has no row a capture may take (64-row stride); the 136-nt
    /// flanked one resumes.
    #[test]
    fn one_lane_pack_matches_the_two_sweep_oracle_exhaustively() {
        let flank = "GCTAAAGACAATTACATAACATACACGTCAGCACGAAACTTGTTGGCCCAGTGTGAATC\
                     GCTTAAGGGTTAAGTAAGTGTGATGCATACGCCTTTACTTG";
        let mut guards = [0; 3];
        for text in [
            "ATGCATGCATGC".repeat(3),
            format!("{flank}{}", "GATTACAGGCTA".repeat(3)),
        ] {
            let counts = oracle_check(&dna(&text));
            guards.iter_mut().zip(counts).for_each(|(g, c)| *g += c);
        }
        // Guards against a vacuous pass: straddled first passes, memo
        // replays and checkpoint resumes must all have occurred.
        assert!(guards.iter().all(|&g| g > 0), "{guards:?}");
    }

    /// [`one_lane_pack_matches_the_two_sweep_oracle_exhaustively`] on
    /// one input: `[straddled first passes, replays, resumes]` seen.
    fn oracle_check(seq: &Seq) -> [usize; 3] {
        let scoring = Scoring::dna_example();
        let m = seq.len();
        let tops = find_top_alignments(seq, &scoring, 5).alignments;
        assert_eq!(tops.len(), 5);
        // The triangle after the first `k` accepts.
        let triangle = |k: usize| {
            let mut triangle = OverrideTriangle::new(m);
            for &(p, q) in tops[..k].iter().flat_map(|top| &top.pairs) {
                triangle.set(p, q);
            }
            triangle
        };
        let empty = triangle(0);
        let (mut late, mut replayed, mut resumed) = (0, 0, 0);
        for prefix in 0..=tops.len() {
            // The realignments run one accept later (every split of
            // these inputs is straddled by some top, so a replay needs
            // an accept that leaves the split alone).
            let next = (prefix + 1).min(tops.len());
            let (now, later) = (triangle(prefix), triangle(next));
            let mut log = DirtyLog::new();
            log.sync_from(&tops[..next]);
            let straddled = |r: usize| {
                let mut pairs = tops[..prefix].iter().flat_map(|top| &top.pairs);
                pairs.any(|&(p, q)| p < r && r <= q)
            };
            for budget in [None, Some(0), Some(512), Some(1 << 20)] {
                let what = format!("{m} nt, prefix {prefix}, budget {budget:?}");
                let unit = PackUnit::new(ScoredSeq::new(seq, &scoring), budget);
                let (mut packs, common) = (unit.packs(), Common::new(seq, &scoring));
                // Every first pass under the prefix, then every
                // realignment one accept later: the accepts the packs
                // see only ever grow, as in a run.
                let mut stamps = Vec::new();
                for r in 1..m {
                    let state = (&mut packs, &common);
                    let (score, stamp, grown) =
                        run(&unit, state, (r - 1, true), (&now, &tops[..prefix]));
                    let clean = align_task(seq, &scoring, r, &empty, None);
                    assert_eq!(Some(common.row(r)), clean.first_row.as_ref(), "{what} {r}");
                    assert_eq!(
                        (
                            score,
                            grown.shadow_rejections,
                            grown.cells,
                            grown.checkpoint_hits + grown.checkpoint_misses
                        ),
                        (clean.score, 0, clean.cells, 0),
                        "{what}, first pass of split {r}"
                    );
                    let late_pass = straddled(r);
                    let want = if late_pass { 0 } else { prefix as u64 };
                    assert_eq!(stamp, want, "{what}, stamp of split {r}'s first pass");
                    late += usize::from(late_pass);
                    stamps.push(stamp);
                }
                for (r, &stamp) in (1..m).zip(&stamps) {
                    let oracle = align_task(seq, &scoring, r, &later, Some(common.row(r)));
                    let state = (&mut packs, &common);
                    let (score, again_stamp, again) =
                        run(&unit, state, (r - 1, false), (&later, &tops[..next]));
                    assert_eq!(again_stamp, next as u64, "{what} {r}");
                    assert_eq!(
                        (score, again.shadow_rejections),
                        (oracle.score, oracle.shadow_rejections),
                        "{what}, realignment of split {r}"
                    );
                    let (hit, miss) = (again.checkpoint_hits, again.checkpoint_misses);
                    let skipped = again.realign_rows_skipped;
                    if budget.is_none() {
                        assert_eq!((hit, miss, again.realign_rows_swept, skipped), (0, 0, 0, 0));
                        continue;
                    }
                    assert_eq!(hit + miss, 1, "{what} {r}: one realignment, counted once");
                    assert_eq!(again.realign_rows_swept + skipped, r as u64);
                    if budget == Some(0) {
                        // Nothing stored: swept from scratch.
                        assert_eq!((hit, skipped), (0, 0), "{what} {r}");
                    } else if let Some(d) = log.dirty_row(r, stamp) {
                        assert!(skipped <= d as u64, "{what} {r}: resumed too deep");
                        assert_eq!(hit, u64::from(skipped > 0), "{what} {r}");
                        resumed += hit as usize;
                    } else {
                        // No accept since the first pass's stamp
                        // straddles the split: served from the memo.
                        assert_eq!((hit, again.cells, skipped), (1, 0, r as u64), "{what} {r}");
                        replayed += 1;
                    }
                }
            }
        }
        [late, replayed, resumed]
    }

    /// A split no accept straddles is served entirely from the memo.
    #[test]
    fn untouched_split_full_skips() {
        let seq = dna("ATGCATGCATGCATGC");
        let scoring = Scoring::dna_example();
        let unit = PackUnit::new(ScoredSeq::new(&seq, &scoring), Some(1 << 20));
        let (mut packs, common) = (unit.packs(), Common::new(&seq, &scoring));
        let mut triangle = OverrideTriangle::new(seq.len());
        run(&unit, (&mut packs, &common), (3, true), (&triangle, &[]));
        // Straddling needs p < 4 ≤ q: an accept with p ≥ 4 leaves
        // split 4 clean.
        triangle.set(8, 12);
        let tops = [top(&[(8, 12)])];
        let (score, _, s) = run(&unit, (&mut packs, &common), (3, false), (&triangle, &tops));
        assert_eq!(
            (s.checkpoint_hits, s.cells, s.realign_rows_skipped),
            (1, 0, 4)
        );
        assert_eq!(s.lanes_skipped, 1);
        let oracle = align_task(&seq, &scoring, 4, &triangle, Some(common.row(4)));
        assert_eq!(
            (score, s.shadow_rejections),
            (oracle.score, oracle.shadow_rejections)
        );
    }

    /// Deep splits resume from a checkpoint instead of row 0 when the
    /// dirty region starts low in the matrix: the first pass's mid-depth
    /// capture (96 of split 192's rows) survives an accept that dirties
    /// rows ≥ 160. (A 64-row minimum stride needs a matrix over 128
    /// rows deep.)
    #[test]
    fn dirty_tail_resumes_from_a_checkpoint() {
        let seq = dna(&"ACGT".repeat(64)); // 256 residues
        let scoring = Scoring::dna_example();
        let unit = PackUnit::new(ScoredSeq::new(&seq, &scoring), Some(1 << 20));
        let (mut packs, common) = (unit.packs(), Common::new(&seq, &scoring));
        let mut triangle = OverrideTriangle::new(seq.len());
        let r = 192;
        run(
            &unit,
            (&mut packs, &common),
            (r - 1, true),
            (&triangle, &[]),
        );
        // Dirty only rows ≥ 160 of split 192 (pair p=160 < 192 ≤ q=200).
        triangle.set(160, 200);
        let tops = [top(&[(160, 200)])];
        let (score, _, s) = run(
            &unit,
            (&mut packs, &common),
            (r - 1, false),
            (&triangle, &tops),
        );
        assert_eq!(s.checkpoint_hits, 1, "expected a checkpoint resume");
        assert!(s.cells > 0);
        assert_eq!(s.realign_rows_skipped, 96);
        assert_eq!(s.lanes_compacted, 1);
        let oracle = align_task(&seq, &scoring, r, &triangle, Some(common.row(r)));
        assert_eq!(
            (score, s.shadow_rejections),
            (oracle.score, oracle.shadow_rejections)
        );
    }

    /// A kernel of `lanes` lanes over a sequence of `m` residues, for the
    /// unit geometry alone: it is never swept.
    struct Geometry {
        lanes: usize,
        m: usize,
    }

    impl PackKernel for Geometry {
        fn lanes(&self) -> usize {
            self.lanes
        }

        fn splits(&self) -> usize {
            self.m.saturating_sub(1)
        }

        fn sweep(
            &self,
            _: &[usize],
            _: Option<&OverrideTriangle>,
            _: Option<&GroupResume<'_>>,
            _: &[usize],
        ) -> (PackSweep, Vec<GroupCapture>) {
            unreachable!("geometry only")
        }
    }

    /// Units partition the splits in order — ascending, contiguous,
    /// non-empty, at most one pack wide and covering exactly `1..m` — so
    /// the lowest unit's lowest member is the smallest split, the one the
    /// paper's sequential loop accepts on a tie.
    #[test]
    fn units_partition_the_splits_in_order() {
        for lanes in [1, 4, 8, 16] {
            for m in 0..=40 {
                let unit = PackUnit::new(Geometry { lanes, m }, None);
                let what = format!("m {m}, width {lanes}");
                if m <= 1 {
                    assert_eq!(unit.units(), 0, "{what}");
                }
                let mut next = 1;
                for u in 0..unit.units() {
                    let splits = unit.splits(u);
                    assert_eq!(splits.start, next, "{what}, unit {u}");
                    assert!(
                        !splits.is_empty() && splits.len() <= lanes,
                        "{what}, unit {u}"
                    );
                    next = splits.end;
                }
                assert_eq!(next, m.max(1), "{what}: units cover 1..m");
            }
        }
    }

    /// Packs whose lane memos hold `stamp` for every split.
    fn stamped(splits: usize, lanes: usize, budget: usize, stamp: u64) -> LanePacks {
        let mut packs = LanePacks::new(splits, lanes, Some(budget));
        packs.memo.iter_mut().for_each(|lm| lm.stamp = stamp);
        packs
    }

    #[test]
    fn budget_zero_plans_full_sweeps() {
        let mut packs = stamped(10, 4, 0, 0);
        let plan = packs.plan(1, false, &[]);
        assert!(plan.clean.is_empty());
        assert_eq!(plan.rs, vec![5, 6, 7, 8]);
        assert_eq!(plan.resume_row, 0);
        assert!(plan.capture_rows.is_empty());
        assert!(plan.resume().is_none());
    }

    #[test]
    fn clean_lanes_are_partitioned_out() {
        let mut packs = stamped(10, 4, 1 << 20, 0);
        // An accept touching prefix rows 2..=4: splits > 2 are dirtied
        // at rows ≥ 2, splits ≤ 2 see nothing.
        let plan = packs.plan(0, false, &[top(&[(2, 10), (3, 11), (4, 12)])]);
        assert_eq!(plan.clean, vec![1, 2]);
        assert_eq!(plan.rs, vec![3, 4]);
    }

    /// A realignment planned on packs that never swept the pack — a
    /// cluster worker handed a unit another worker first-passed — packs
    /// every lane, even those no accept has straddled: their memos hold
    /// no score to replay.
    #[test]
    fn a_group_these_packs_never_swept_is_swept_not_replayed() {
        let mut packs = LanePacks::new(40, 4, Some(1 << 20));
        // Straddles splits 31..=35 only; pack 1 is splits 5..=8.
        let plan = packs.plan(1, false, &[top(&[(30, 35), (31, 36)])]);
        assert!(plan.clean.is_empty());
        assert_eq!(plan.splits(), &[5, 6, 7, 8]);
        assert!(!plan.is_replay());
    }

    #[test]
    fn shared_resume_row_is_max_of_intersection() {
        let mut packs = stamped(10, 2, 1 << 20, 0);
        // The accept dirties both splits (row 1), staling the stamp-0
        // lane memos; the checkpoints are stamped *after* it (version 1)
        // so they stay valid.
        packs.store.put_split(5, 10, vec![ckpt(2, 1), ckpt(4, 1)]);
        packs.store.put_split(6, 10, vec![ckpt(2, 1), ckpt(3, 1)]);
        let plan = packs.plan(2, false, &[top(&[(1, 30), (2, 31)])]);
        assert_eq!(plan.rs, vec![5, 6]);
        // Rows {2,4} ∩ {2,3} = {2}.
        assert_eq!(plan.resume_row, 2);
        assert!(plan.resume().is_some());
    }

    #[test]
    fn invalid_checkpoints_are_dropped() {
        let mut packs = stamped(10, 1, 1 << 20, 0);
        packs.store.put_split(5, 10, vec![ckpt(4, 0)]);
        // An accept at prefix row 1 dirties rows ≥ 1 of split 5: the
        // stamp-0 checkpoint at row 4 covers rows 0..4 ⊇ row 1 ⇒ invalid.
        let plan = packs.plan(4, false, &[top(&[(1, 30)])]);
        assert_eq!(plan.resume_row, 0);
        assert!(plan.kept[0].is_empty());
    }

    #[test]
    fn commit_caps_and_prefers_fresh() {
        let mut packs = LanePacks::new(20, 1, Some(1 << 20));
        let old: Vec<Checkpoint> = (1..=MAX_CKPTS).map(|i| ckpt(i, 0)).collect();
        // One capture colliding with old row 3, one at a new row: the
        // merge overflows the cap by exactly one entry.
        let caps = [
            GroupCapture {
                row: 3,
                lanes: vec![Some((vec![7; 4], vec![-1; 4]))],
            },
            GroupCapture {
                row: 10,
                lanes: vec![Some((vec![9; 4], vec![-2; 4]))],
            },
        ];
        packs.store_captures(&[12], vec![old], caps.to_vec(), 5);
        let got = packs.store.take_split(12);
        assert_eq!(got.len(), MAX_CKPTS);
        let at3 = got.iter().find(|c| c.row == 3).unwrap();
        assert_eq!(at3.stamp, 5, "fresh capture wins the row collision");
        assert_eq!(at3.m, vec![7; 4]);
        assert!(got.iter().any(|c| c.row == 10));
        // Shallowest old row dropped to fit the cap.
        assert!(!got.iter().any(|c| c.row == 1));
    }
}
