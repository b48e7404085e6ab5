//! # repro-core — the paper's `O(n³)` top-alignment algorithm
//!
//! This crate implements Section 3 and Appendix A of Romein, Heringa &
//! Bal (SC 2003): finding a user-defined number of **nonoverlapping top
//! alignments** of a sequence against itself, the computation that
//! dominates the Repro internal-repeat method.
//!
//! * [`triangle`] — the **override triangle**: a packed bit-triangle over
//!   residue-position pairs recording which pairs already belong to a top
//!   alignment; realignments force those cells to zero.
//! * [`bottom`] — the **bottom-row store** ([`Common`]): the first-pass
//!   (empty-triangle) bottom row of every split matrix, kept for
//!   shadow-alignment rejection (the largest data structure, `m(m−1)/2`
//!   scores, exactly as App. A) — one store for every shared-memory
//!   engine.
//! * [`split_mask`] — adapts the triangle to the kernel-level
//!   [`repro_align::CellMask`] for a given split.
//! * [`tasks`] — the best-first [`Scheduler`] of Figure 5, the one every
//!   driver decides with: one entry per unit of work, ordered by
//!   (upper-bound) score, with the `AlignedWithTopNum` freshness stamp;
//!   the acceptance rule, the speculative pick and the seed bounds.
//! * [`pack`] — the **unit of work**, [`PackUnit`]: what a task is,
//!   apart from who schedules it — a pack of neighbouring splits, swept
//!   by a [`PackKernel`] (the scalar row step at width 1, [`ScoredSeq`];
//!   `repro_simd`'s group kernel at 4/8/16) with lane-granular memo
//!   replay and checkpointed mid-matrix resume under a budget-capped
//!   store (bit-identical by construction).
//! * [`finder`] — [`finder::TopAlignmentFinder`], Figure 5's loop written
//!   once as the inline driver generic over the kernel, plus the
//!   task-alignment primitives shared with the parallel engines.
//! * [`dirty`] — per-accept **dirty bounds**: for each split, where the
//!   newly overridden pairs can first perturb the DP matrix.
//! * [`seed`] — seeded split pruning: admissible two-sided per-split
//!   score bounds from two triangular self-sweeps (forward and
//!   reversed), refreshed on demand, so splits that cannot hold a top
//!   are never aligned at all; plus a diagnostic k-mer/diagonal index.
//! * [`stats`] — work accounting (alignments, cells, realignment rates:
//!   the quantities behind the paper's "90–97 % fewer realignments" and
//!   "3–10 % need realignment" claims).
//! * [`mod@delineate`] — repeat delineation from top alignments (the second
//!   half of the Repro method; the paper defers it to future work, we
//!   provide a working implementation).

#![warn(missing_docs)]

pub mod bottom;
pub mod consensus;
pub mod delineate;
pub mod dirty;
pub mod finder;
pub mod pack;
pub mod seed;
pub mod split_mask;
pub mod stats;
pub mod tasks;
pub mod triangle;

pub use bottom::{best_valid_entry_counted, Common};
pub use consensus::{unit_consensus, Consensus};
pub use delineate::{delineate, RepeatReport, RepeatUnit};
pub use dirty::DirtyLog;
pub use finder::{
    align_task, find_top_alignments, FinderConfig, RowMode, ScoredSeq, Search, Step, TaskResult,
    TopAlignment, TopAlignmentFinder, TopAlignments,
};
pub use pack::{LanePacks, PackKernel, PackUnit};
pub use seed::{PairMask, SeedConfig, SplitBounds};
pub use split_mask::SplitMask;
pub use stats::Stats;
pub use tasks::{Next, Scheduler, TaskQueue};
pub use triangle::OverrideTriangle;
