//! The lane-pack unit of work, and the per-lane incremental resume
//! behind it.
//!
//! How one stale group is (re)aligned is decided here once, in three
//! steps both SIMD engines call on a [`LanePacks`]:
//!
//! * **plan** ([`LanePacks::plan`]) — classify the group's lanes from
//!   their memo stamps and the dirty log, take the packed lanes'
//!   checkpoints out of the store, pick the capture rows; all lanes
//!   clean is a replay that needs no sweep;
//! * **sweep** ([`PackPlan::sweep`]) — a pure function of the plan, a
//!   triangle snapshot and the clean bottom rows: the kernel sweep(s),
//!   then the per-lane Appendix-A shadow filter;
//! * **commit** ([`LanePacks::commit`]) — lane memos (which hold the
//!   member scores), checkpoint store, `Stats` and the sweep tally.
//!
//! [`crate::find_top_alignments_simd`] calls them back to back; the
//! SMP engine calls plan and commit under its lock and sweep outside
//! it. The rest of this module is the layer plan and commit stand on.
//!
//! The incremental layer used to be group-granular: a stale group was
//! either replayed whole (every lane clean since its last sweep) or
//! re-swept whole. Measured on embedded-repeat workloads that memo hit
//! rate is ~2 %, and a miss sweeps every lane's full matrix — a median
//! of ~10 k rows per realignment versus ~350 for the sequential engine.
//!
//! This module fixes the granularity mismatch. On a stale pop each lane
//! is classified independently against the [`DirtyLog`]:
//!
//! * **clean** — no accept dirtied the lane's split since its memo
//!   stamp: replay the memoised exact score, sweep nothing;
//! * **resumable / from-scratch** — re-pack the remaining lanes into a
//!   *compacted* group (the kernel is generic over arbitrary ascending
//!   split sets) and sweep only them, resuming from the deepest
//!   checkpoint row that is valid **and present for every packed
//!   lane** — all lanes of one interleaved sweep must start at the same
//!   row, so the shared resume row is the max over the intersection of
//!   the lanes' valid checkpoint rows (group sweeps capture all lanes
//!   at the same rows, so the sets align naturally).
//!
//! Checkpoints are the scalar [`Checkpoint`] verbatim — per-lane `m` /
//! `maxy` over the lane's own columns. Columns left of a lane's split
//! are reconstructed analytically (`m = 0`, `maxy = −open − ext`; see
//! [`crate::group`]), so nothing interleaved is ever stored, and a
//! checkpoint captured by a narrow sweep, a wide sweep or the scalar
//! kernel restores into any of them bit-identically.

use crate::engine::{GroupSweeper, SweepOutcome};
use crate::group::{GroupCapture, GroupResume, LaneResume};
use repro_align::{Checkpoint, CheckpointStore, Score};
use repro_core::bottom::best_valid_entry_counted;
use repro_core::{DirtyLog, OverrideTriangle, Stats, TopAlignment};
use repro_obs::{Counter, Metric, Recorder};
use std::collections::BTreeSet;
use std::ops::Range;

/// Checkpoints kept per split: a quarter-grid per sweep plus dirty
/// frontiers accumulates fast across realignments; the shallowest are
/// dropped first (deep checkpoints skip more rows).
pub const SIMD_MAX_CKPTS: usize = 8;

/// Minimum rows a checkpoint must promise to skip (relative to the
/// sweep's own resume row) before it is captured. Capture cost is
/// O(active columns) per lane *regardless of depth* — for a shallow
/// group the three quarter-grid copies rival the whole sweep's DP, and
/// the SIMD kernels are fast enough that the bookkeeping was measured
/// eating the entire incremental win. A checkpoint `stride` rows below
/// the resume row saves at most `stride` rows on the next resume, so
/// rows closer than this are not worth storing.
pub const MIN_CAPTURE_STRIDE: usize = 64;

/// The stamp of a lane memo this [`LanePacks`] never computed. Such a
/// lane is swept, never replayed: a cluster worker can be handed the
/// realignment of a group another worker first-passed.
const UNSWEPT: u64 = u64::MAX;

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

/// Shared per-run incremental state for the group engines: the
/// budget-capped checkpoint store. A budget of 0 keeps the type usable
/// but disables every shortcut (accounting-only mode, the documented
/// always-exact fallback).
#[derive(Debug)]
struct GroupIncremental {
    store: CheckpointStore,
    enabled: bool,
}

impl GroupIncremental {
    /// A store with the given global byte budget (0 disables shortcuts).
    fn new(budget: usize) -> Self {
        GroupIncremental {
            store: CheckpointStore::new(budget),
            enabled: budget > 0,
        }
    }

    /// Classify a stale group's lanes and pull the packed lanes'
    /// checkpoints out of the store. `stamps[l]` is lane `l`'s memo
    /// stamp (its last sweep's dirty-log version).
    fn plan(&mut self, dirty: &DirtyLog, r0: usize, nl: usize, stamps: &[u64]) -> RealignPlan {
        debug_assert_eq!(stamps.len(), nl);
        let mut clean = Vec::new();
        let mut packed = Vec::new();
        let mut rs = Vec::new();
        for (l, &stamp) in stamps.iter().enumerate() {
            let r = r0 + l;
            if self.enabled && stamp != UNSWEPT && dirty.dirty_row(r, stamp).is_none() {
                clean.push(l);
            } else {
                packed.push(l);
                rs.push(r);
            }
        }
        // Valid checkpoints per packed lane (rows 0..row untouched since
        // capture). Invalid ones are dropped here; valid ones are handed
        // back to the store by `commit`.
        let valid: Vec<Vec<Checkpoint>> = rs
            .iter()
            .map(|&r| {
                self.store
                    .take_split(r)
                    .into_iter()
                    .filter(|c| dirty.dirty_row(r, c.stamp).is_none_or(|d| d >= c.row))
                    .collect()
            })
            .collect();
        // Deepest row present in *every* packed lane's valid set: the
        // shared resume row (0 = from scratch).
        let mut resume_row = 0;
        if self.enabled && !valid.is_empty() && valid.iter().all(|v| !v.is_empty()) {
            let mut rows: Vec<usize> = valid[0].iter().map(|c| c.row).collect();
            rows.sort_unstable_by(|a, b| b.cmp(a));
            for row in rows {
                if valid.iter().all(|v| v.iter().any(|c| c.row == row)) {
                    resume_row = row;
                    break;
                }
            }
        }
        // Realignment sweeps capture at the dirty frontiers only
        // (grid 1): accepts cluster, so the frontier row is where the
        // next resume wants to start, while evenly-spaced rows were
        // measured costing more in transpose work across ~2k realigns
        // than their occasional deeper resume ever repaid.
        let capture_rows = if self.enabled && !rs.is_empty() {
            plan_captures(dirty, &rs, resume_row, 1)
        } else {
            Vec::new()
        };
        RealignPlan {
            clean,
            packed,
            rs,
            resume_row,
            kept: valid,
            capture_rows,
        }
    }

    /// Capture rows for a first-pass sweep of the consecutive group
    /// `r0..r0+nl` (resume row 0, no prior checkpoints). The first pass
    /// has no dirty frontier to aim at, so it hedges with a single
    /// mid-depth capture — each extra first-pass row costs a transpose
    /// of the whole group but only the one just below the (future)
    /// frontier ever gets used; realignment sweeps re-checkpoint at the
    /// actual frontier with the full grid.
    fn first_pass_captures(&self, dirty: &DirtyLog, r0: usize, nl: usize) -> Vec<usize> {
        if !self.enabled || nl == 0 {
            return Vec::new();
        }
        let rs: Vec<usize> = (0..nl).map(|l| r0 + l).collect();
        plan_captures(dirty, &rs, 0, 2)
    }

    /// Merge fresh captures with the plan's kept checkpoints and hand
    /// everything back to the store. `rs[i]`/`kept[i]` pair with the
    /// capture entries at lane position `i`; `stamp` is the sweep's
    /// dirty-log version and `priority[i]` the lane's post-sweep score
    /// (the store's eviction key).
    fn commit(
        &mut self,
        rs: &[usize],
        kept: Vec<Vec<Checkpoint>>,
        mut captures: Vec<GroupCapture>,
        stamp: u64,
        priority: &[Score],
    ) {
        if !self.enabled {
            return;
        }
        debug_assert_eq!(rs.len(), priority.len());
        let mut kept = kept;
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
            while merged.len() > SIMD_MAX_CKPTS {
                merged.remove(0); // shallowest first
            }
            self.store.put_split(r, priority[i], merged);
        }
    }
}

/// One stale group's per-lane realignment plan.
#[derive(Debug)]
struct RealignPlan {
    /// Lane indices replayable from their memo (no dirty row).
    clean: Vec<usize>,
    /// Lane indices to sweep, ascending.
    packed: Vec<usize>,
    /// The packed lanes' splits (parallel to `packed`).
    rs: Vec<usize>,
    /// Shared resume row for the packed sweep (0 = from scratch).
    resume_row: usize,
    /// Still-valid checkpoints per packed lane (the resume states borrow
    /// from these; `commit` hands them back to the store).
    kept: Vec<Vec<Checkpoint>>,
    /// Inter-row capture positions for the packed sweep.
    capture_rows: Vec<usize>,
}

impl RealignPlan {
    /// The resume input for the packed sweep, borrowing the kept
    /// checkpoints at [`RealignPlan::resume_row`]; `None` when sweeping
    /// from scratch.
    fn resume(&self) -> Option<GroupResume<'_>> {
        if self.resume_row == 0 {
            return None;
        }
        let lanes: Vec<LaneResume<'_>> = self
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

    /// Whether every lane was clean — the whole-group skip.
    fn full_skip(&self) -> bool {
        self.packed.is_empty()
    }
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

/// The consecutive splits of group `gi` when splits `1..=splits` are
/// packed `lanes` to a group (the last group may be short).
pub fn group_splits(splits: usize, lanes: usize, gi: usize) -> Range<usize> {
    let r0 = 1 + gi * lanes;
    r0..r0 + lanes.min(splits + 1 - r0)
}

/// The lane-pack unit's state for one run: per-lane memos (stamp, exact
/// score, shadows — the scores double as the groups' member bounds),
/// the budget-capped checkpoint store and the accept history they are
/// stamped against. One per engine; the SMP engine keeps it under its
/// lock.
#[derive(Debug)]
pub struct LanePacks {
    lanes: usize,
    splits: usize,
    /// Incremental accounting on (`checkpoint_budget` set; a budget of 0
    /// counts every realignment as a miss and shortcuts nothing).
    incremental: bool,
    incr: GroupIncremental,
    /// The accepts so far, caught up from the top list at plan time.
    dirty: DirtyLog,
    /// Per group, per lane.
    memo: Vec<Vec<LaneMemo>>,
}

impl LanePacks {
    /// The packs of `splits` splits at `lanes` per group.
    pub fn new(splits: usize, lanes: usize, checkpoint_budget: Option<usize>) -> Self {
        let never = LaneMemo {
            stamp: UNSWEPT,
            score: Score::MAX,
            shadows: 0,
        };
        LanePacks {
            lanes,
            splits,
            incremental: checkpoint_budget.is_some(),
            incr: GroupIncremental::new(checkpoint_budget.unwrap_or(0)),
            dirty: DirtyLog::new(),
            memo: (0..splits.div_ceil(lanes))
                .map(|gi| vec![never; group_splits(splits, lanes, gi).len()])
                .collect(),
        }
    }

    /// The splits of group `gi`.
    pub fn splits_of(&self, gi: usize) -> Range<usize> {
        group_splits(self.splits, self.lanes, gi)
    }

    /// The split and score a fresh group `gi` yields as the next top
    /// alignment: its best member, lowest lane on ties — the smallest
    /// split, as the sequential engine breaks them.
    pub fn best_member(&self, gi: usize) -> (usize, Score) {
        let (l, lm) = self.memo[gi]
            .iter()
            .enumerate()
            .max_by(|(la, a), (lb, b)| a.score.cmp(&b.score).then(lb.cmp(la)))
            .expect("groups are never empty");
        (self.splits_of(gi).start + l, lm.score)
    }

    /// Plan the sweep of stale group `gi` under the triangle `tops`
    /// built: a first pass sweeps every lane from row 0; a realignment
    /// sweeps only the lanes an accept has dirtied since their stamp,
    /// compacted and resumed from the deepest checkpoint row they share.
    pub fn plan(&mut self, gi: usize, first_pass: bool, tops: &[TopAlignment]) -> PackPlan {
        if self.incremental {
            self.dirty.sync_from(tops);
        }
        let splits = self.splits_of(gi);
        let (r0, nl) = (splits.start, splits.len());
        let lanes = if first_pass {
            RealignPlan {
                clean: Vec::new(),
                packed: (0..nl).collect(),
                rs: splits.collect(),
                resume_row: 0,
                kept: Vec::new(),
                capture_rows: self.incr.first_pass_captures(&self.dirty, r0, nl),
            }
        } else {
            // With the layer off or at budget 0 nothing is clean and
            // nothing is stored: the whole group, from scratch.
            let stamps: Vec<u64> = self.memo[gi].iter().map(|lm| lm.stamp).collect();
            self.incr.plan(&self.dirty, r0, nl, &stamps)
        };
        PackPlan {
            gi,
            r0,
            first_pass,
            version: tops.len() as u64,
            lanes,
        }
    }

    /// Apply a plan and (unless it was a replay) its sweep: lane memos,
    /// checkpoint store, `stats`, and into `rec` the sweep, saturation,
    /// promotion and lane-occupancy counts plus the rows each re-swept
    /// lane of an incremental realignment covered. Returns the group's
    /// new score, its best member's.
    pub fn commit<R: Recorder>(
        &mut self,
        stats: &mut Stats,
        rec: &mut R,
        plan: PackPlan,
        swept: Option<PackSwept>,
    ) -> Score {
        let PackPlan {
            gi,
            r0,
            first_pass,
            version,
            lanes: mut p,
        } = plan;
        let stamp = version as usize;
        let memo = &mut self.memo[gi];
        // Clean lanes: replay their memo verbatim (and bump the stamp —
        // they were just verified clean up to now).
        for &l in &p.clean {
            let lm = &mut memo[l];
            lm.stamp = version;
            stats.shadow_rejections += lm.shadows;
            stats.record_alignment(0, stamp);
            stats.realign_rows_skipped += (r0 + l) as u64;
        }
        stats.lanes_skipped += p.clean.len() as u64;
        rec.add(Counter::LanesSkipped, p.clean.len() as u64);
        let accounted = self.incremental && !first_pass;
        match swept {
            // Every lane clean: the whole-group skip.
            None => stats.checkpoint_hits += 1,
            Some(swept) => {
                let npack = p.packed.len();
                let per_lane_cells = swept.cells / npack as u64;
                let start = p.resume_row;
                if accounted && p.clean.is_empty() && start == 0 {
                    stats.checkpoint_misses += 1;
                }
                if accounted && (npack < memo.len() || start > 0) {
                    stats.lanes_compacted += npack as u64;
                    rec.add(Counter::LanesCompacted, npack as u64);
                }
                for (&l, &(score, shadows)) in p.packed.iter().zip(&swept.scored) {
                    stats.shadow_rejections += shadows;
                    stats.record_alignment(per_lane_cells, stamp);
                    if accounted {
                        let rows = (r0 + l - start) as u64;
                        stats.realign_rows_swept += rows;
                        stats.realign_rows_skipped += start as u64;
                        rec.observe(Metric::ResumeRows, rows);
                    }
                    memo[l] = LaneMemo {
                        stamp: version,
                        score,
                        shadows,
                    };
                }
                let prios: Vec<Score> = swept.scored.iter().map(|&(score, _)| score).collect();
                let kept = std::mem::take(&mut p.kept);
                self.incr.commit(&p.rs, kept, swept.caps, version, &prios);
                for (saturated_narrow, promoted) in swept.kernels {
                    rec.add(Counter::GroupSweeps, 1);
                    rec.add(Counter::NarrowSaturations, u64::from(saturated_narrow));
                    rec.add(Counter::PromotedSweeps, u64::from(promoted));
                    rec.add(Counter::LanesActive, npack as u64);
                    rec.add(Counter::LanesPadded, (self.lanes - npack) as u64);
                }
            }
        }
        memo.iter().map(|lm| lm.score).max().unwrap_or(0)
    }
}

/// What [`LanePacks::plan`] decided for one stale group: owned, so the
/// sweep can run outside whatever lock guards the packs.
#[derive(Debug)]
pub struct PackPlan {
    gi: usize,
    r0: usize,
    first_pass: bool,
    /// Accepts behind the triangle the sweep runs under: the stamp of
    /// every memo and checkpoint it leaves.
    version: u64,
    lanes: RealignPlan,
}

impl PackPlan {
    /// Every lane replays its memo: commit without sweeping.
    pub fn is_replay(&self) -> bool {
        self.lanes.full_skip()
    }

    /// The splits [`Self::sweep`] sweeps, ascending.
    pub fn splits(&self) -> &[usize] {
        &self.lanes.rs
    }

    /// Sweep the planned lanes under `triangle` and shadow-filter each
    /// bottom row against the lane's clean one — `clean_row(r)` for a
    /// realignment, the sweep's own clean rows for a first pass, which
    /// under seeded pruning can come after accepts: the pack is then
    /// swept twice, clean for the shadow store and masked for the
    /// scores (see [`GroupSweeper::first_pass`]).
    pub fn sweep<'r>(
        &self,
        sweeper: &GroupSweeper<'_>,
        triangle: &OverrideTriangle,
        clean_row: impl Fn(usize) -> &'r [Score],
    ) -> PackSwept {
        let p = &self.lanes;
        let flags = |o: &SweepOutcome| (o.saturated_narrow, o.promoted);
        let (first_rows, current, cells, caps, kernels) = if self.first_pass {
            let fp = sweeper.first_pass(&p.rs, triangle, &p.capture_rows);
            let mut kernels = vec![flags(&fp.clean)];
            let mut cells = fp.clean.group.cells;
            let masked = fp.masked.map(|mo| {
                kernels.push(flags(&mo));
                cells += mo.group.cells;
                mo.group.rows
            });
            (fp.clean.group.rows, masked, cells, fp.caps, kernels)
        } else {
            let resume = p.resume();
            let (outcome, caps) =
                sweeper.sweep_at(&p.rs, Some(triangle), resume.as_ref(), &p.capture_rows);
            let kernels = vec![flags(&outcome)];
            let group = outcome.group;
            (Vec::new(), Some(group.rows), group.cells, caps, kernels)
        };
        let scored = (0..p.rs.len())
            .map(|i| {
                let original = first_rows
                    .get(i)
                    .map_or_else(|| clean_row(p.rs[i]), |row| &row[..]);
                match &current {
                    Some(rows) => {
                        let (score, _, shadows) = best_valid_entry_counted(&rows[i], original);
                        (score, shadows)
                    }
                    None => (original.iter().copied().max().unwrap_or(0).max(0), 0),
                }
            })
            .collect();
        PackSwept {
            first_rows,
            scored,
            cells,
            caps,
            kernels,
        }
    }
}

/// The outcome of [`PackPlan::sweep`], for [`LanePacks::commit`].
#[derive(Debug)]
pub struct PackSwept {
    /// First pass only: each swept split's clean bottom row, parallel to
    /// [`PackPlan::splits`] — handed over by value for the caller's row
    /// store (take them before committing).
    pub first_rows: Vec<Vec<Score>>,
    /// Per swept lane: exact post-shadow score and shadow rejections.
    scored: Vec<(Score, u64)>,
    /// Logical cells computed, all sweeps and lanes together.
    cells: u64,
    caps: Vec<GroupCapture>,
    /// `(saturated narrow, promoted)` of each kernel sweep run: a narrow
    /// `i16` sweep that saturated and was redone wide; a wide `i32`
    /// sweep (saturation, or a scoring too large for `i16`).
    kernels: Vec<(bool, bool)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ckpt(row: usize, stamp: u64) -> Checkpoint {
        Checkpoint {
            row,
            stamp,
            m: vec![0; 4],
            maxy: vec![-3; 4],
        }
    }

    #[test]
    fn budget_zero_plans_full_sweeps() {
        let mut incr = GroupIncremental::new(0);
        let dirty = DirtyLog::new();
        let plan = incr.plan(&dirty, 3, 4, &[0; 4]);
        assert!(plan.clean.is_empty());
        assert_eq!(plan.packed, vec![0, 1, 2, 3]);
        assert_eq!(plan.rs, vec![3, 4, 5, 6]);
        assert_eq!(plan.resume_row, 0);
        assert!(plan.capture_rows.is_empty());
        assert!(plan.resume().is_none());
    }

    #[test]
    fn clean_lanes_are_partitioned_out() {
        let mut incr = GroupIncremental::new(1 << 20);
        let mut dirty = DirtyLog::new();
        // Accept touching prefix rows 2..=4: splits > 2 are dirtied at
        // rows ≥ 2... splits ≤ 2 see nothing.
        dirty.record_accept(&[(2, 10), (3, 11), (4, 12)]);
        let plan = incr.plan(&dirty, 1, 4, &[0; 4]);
        // Splits 1 and 2: prefix rows 0..r contain no dirty row ⇒ clean.
        assert_eq!(plan.clean, vec![0, 1]);
        assert_eq!(plan.rs, vec![3, 4]);
    }

    /// A realignment planned on packs that never swept the group — a
    /// cluster worker handed a unit another worker first-passed — packs
    /// every lane, even those no accept has straddled: their memos hold
    /// no score to replay.
    #[test]
    fn a_group_these_packs_never_swept_is_swept_not_replayed() {
        let mut packs = LanePacks::new(40, 4, Some(1 << 20));
        // Straddles splits 31..=35 only; group 1 is splits 5..=8.
        let tops = [TopAlignment {
            index: 0,
            r: 30,
            score: 9,
            pairs: vec![(30, 35), (31, 36)],
        }];
        let plan = packs.plan(1, false, &tops);
        assert!(plan.lanes.clean.is_empty());
        assert_eq!(plan.lanes.packed, vec![0, 1, 2, 3]);
        assert_eq!(plan.splits(), &[5, 6, 7, 8]);
        assert!(!plan.is_replay());
    }

    #[test]
    fn shared_resume_row_is_max_of_intersection() {
        let mut incr = GroupIncremental::new(1 << 20);
        let mut dirty = DirtyLog::new();
        // The accept dirties both splits (row 1), staling the stamp-0
        // lane memos; the checkpoints are stamped *after* it (version 1)
        // so they stay valid.
        dirty.record_accept(&[(1, 30), (2, 31)]);
        incr.store
            .put_split(5, 10, vec![ckpt(2, 1), ckpt(4, 1)]);
        incr.store.put_split(6, 10, vec![ckpt(2, 1), ckpt(3, 1)]);
        let plan = incr.plan(&dirty, 5, 2, &[0, 0]);
        assert_eq!(plan.packed, vec![0, 1]);
        // Rows {2,4} ∩ {2,3} = {2}.
        assert_eq!(plan.resume_row, 2);
        assert!(plan.resume().is_some());
    }

    #[test]
    fn invalid_checkpoints_are_dropped() {
        let mut incr = GroupIncremental::new(1 << 20);
        let mut dirty = DirtyLog::new();
        incr.store.put_split(5, 10, vec![ckpt(4, 0)]);
        // Accept at prefix row 1 dirties rows ≥ 1 of split 5: the stamp-0
        // checkpoint at row 4 covers rows 0..4 ⊇ row 1 ⇒ invalid.
        dirty.record_accept(&[(1, 30)]);
        let plan = incr.plan(&dirty, 5, 1, &[0]);
        assert_eq!(plan.resume_row, 0);
        assert!(plan.kept[0].is_empty());
    }

    #[test]
    fn commit_caps_and_prefers_fresh() {
        let mut incr = GroupIncremental::new(1 << 20);
        let old: Vec<Checkpoint> = (1..=SIMD_MAX_CKPTS).map(|i| ckpt(i, 0)).collect();
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
        incr.commit(&[12], vec![old], caps.to_vec(), 5, &[50]);
        let got = incr.store.take_split(12);
        assert_eq!(got.len(), SIMD_MAX_CKPTS);
        let at3 = got.iter().find(|c| c.row == 3).unwrap();
        assert_eq!(at3.stamp, 5, "fresh capture wins the row collision");
        assert_eq!(at3.m, vec![7; 4]);
        assert!(got.iter().any(|c| c.row == 10));
        // Shallowest old row dropped to fit the cap.
        assert!(!got.iter().any(|c| c.row == 1));
    }
}
