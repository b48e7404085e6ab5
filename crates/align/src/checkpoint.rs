//! Checkpointed DP row state for incremental realignment.
//!
//! A realignment of split `r` recomputes the whole `r × (m−r)` matrix
//! even though the override triangle only grew by one alignment's worth
//! of pairs since the previous sweep — every row above the first newly
//! overridden prefix position is bit-identical to the last time. This
//! module stores the kernel's inter-row state at a few row boundaries so
//! [`crate::sw_last_row_resume`] can restart mid-matrix:
//!
//! * [`Checkpoint`] — the Gotoh kernel's complete inter-row state
//!   (previous-row scores `m` and per-column vertical-gap maxima `maxy`)
//!   captured after some prefix of rows, stamped with an opaque version;
//! * [`CheckpointStore`] — a global-byte-budget cache of checkpoints,
//!   keyed by split and evicted whole-split by queue priority (the
//!   split's current upper-bound score: low-priority splits are popped
//!   last, so their checkpoints are the least likely to be needed soon).
//!
//! Validity of a checkpoint (has anything above its row boundary been
//! dirtied since its stamp?) is the caller's concern — the store treats
//! stamps as opaque so this crate stays ignorant of the override
//! triangle's accept log.

use crate::Score;
use std::collections::HashMap;

/// Default global byte budget for a [`CheckpointStore`]: enough for a
/// few row-state snapshots per split on kilobase-scale sequences while
/// staying far below the bottom-row store it sits next to.
pub const DEFAULT_CHECKPOINT_BUDGET: usize = 32 * 1024 * 1024;

/// The Gotoh kernel's complete inter-row state after some prefix of
/// rows: resuming [`crate::sw_last_row_resume`] at `row` with this state
/// replays the remaining rows bit-identically to a full sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Row boundary: the state below reflects rows `0..row`.
    pub row: usize,
    /// Opaque version at capture (the caller's accept-log length); used
    /// by the caller to decide whether rows `0..row` are still clean.
    pub stamp: u64,
    /// `M[row−1][x]` for every column `x`.
    pub m: Vec<Score>,
    /// The per-column vertical-gap running maxima after row `row−1`.
    pub maxy: Vec<Score>,
}

impl Checkpoint {
    /// Heap bytes this checkpoint pins (what the store's budget counts).
    pub fn bytes(&self) -> usize {
        (self.m.capacity() + self.maxy.capacity()) * std::mem::size_of::<Score>()
    }
}

#[derive(Debug)]
struct SplitEntry {
    priority: Score,
    bytes: usize,
    ckpts: Vec<Checkpoint>,
}

/// Budget-capped cache of [`Checkpoint`]s, keyed by split.
///
/// Checkpoints are inserted and removed a whole split at a time (a sweep
/// of split `r` consumes and replaces `r`'s set). When the global byte
/// budget is exceeded, the split with the lowest queue priority is
/// evicted — including, possibly, the one just inserted. A budget of 0
/// therefore stores nothing: every lookup misses and every sweep runs
/// from row 0, which is the documented always-exact fallback.
#[derive(Debug)]
pub struct CheckpointStore {
    budget: usize,
    used: usize,
    splits: HashMap<usize, SplitEntry>,
    evictions: u64,
}

impl CheckpointStore {
    /// An empty store with the given global byte budget.
    pub fn new(budget: usize) -> Self {
        CheckpointStore {
            budget,
            used: 0,
            splits: HashMap::new(),
            evictions: 0,
        }
    }

    /// The configured global byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Bytes currently pinned by stored checkpoints.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Splits that currently hold at least one checkpoint.
    pub fn splits_held(&self) -> usize {
        self.splits.len()
    }

    /// Whole-split evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Remove and return every checkpoint stored for split `r` (empty if
    /// none). The caller filters for validity, resumes from the deepest
    /// valid one, and hands the set back via [`Self::put_split`].
    pub fn take_split(&mut self, r: usize) -> Vec<Checkpoint> {
        match self.splits.remove(&r) {
            Some(entry) => {
                self.used -= entry.bytes;
                entry.ckpts
            }
            None => Vec::new(),
        }
    }

    /// Store split `r`'s checkpoint set under queue priority `priority`
    /// (the split's current upper-bound score), then evict
    /// lowest-priority splits until the global budget holds.
    pub fn put_split(&mut self, r: usize, priority: Score, ckpts: Vec<Checkpoint>) {
        if ckpts.is_empty() {
            return;
        }
        let bytes: usize = ckpts.iter().map(Checkpoint::bytes).sum();
        if let Some(old) = self.splits.insert(
            r,
            SplitEntry {
                priority,
                bytes,
                ckpts,
            },
        ) {
            self.used -= old.bytes;
        }
        self.used += bytes;
        while self.used > self.budget {
            // Lowest priority first; ties evict the larger split, whose
            // checkpoints are cheapest to regain proportionally.
            let victim = self
                .splits
                .iter()
                .min_by_key(|(r, e)| (e.priority, std::cmp::Reverse(**r)))
                .map(|(r, _)| *r)
                .expect("used > budget implies a nonempty store");
            let entry = self.splits.remove(&victim).expect("victim exists");
            self.used -= entry.bytes;
            self.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ckpt(row: usize, stamp: u64, cols: usize) -> Checkpoint {
        Checkpoint {
            row,
            stamp,
            m: vec![1; cols],
            maxy: vec![-2; cols],
        }
    }

    #[test]
    fn take_put_roundtrip() {
        let mut store = CheckpointStore::new(1 << 20);
        assert!(store.take_split(3).is_empty());
        store.put_split(3, 50, vec![ckpt(2, 0, 8), ckpt(4, 0, 8)]);
        assert_eq!(store.splits_held(), 1);
        assert!(store.used_bytes() > 0);
        let got = store.take_split(3);
        assert_eq!(got.len(), 2);
        assert_eq!(store.used_bytes(), 0);
        assert!(store.take_split(3).is_empty());
    }

    #[test]
    fn replacing_a_split_does_not_leak_bytes() {
        let mut store = CheckpointStore::new(1 << 20);
        store.put_split(3, 50, vec![ckpt(2, 0, 100)]);
        let first = store.used_bytes();
        store.put_split(3, 60, vec![ckpt(2, 1, 100)]);
        assert_eq!(store.used_bytes(), first);
    }

    #[test]
    fn budget_zero_stores_nothing() {
        let mut store = CheckpointStore::new(0);
        store.put_split(1, 99, vec![ckpt(1, 0, 16)]);
        assert!(store.take_split(1).is_empty());
        assert_eq!(store.used_bytes(), 0);
        assert!(store.evictions() > 0);
    }

    #[test]
    fn eviction_prefers_low_priority() {
        // Each split's set is ~2*16*4 = 128 bytes; budget fits two.
        let one = ckpt(1, 0, 16).bytes();
        let mut store = CheckpointStore::new(2 * one);
        store.put_split(10, 90, vec![ckpt(4, 0, 16)]);
        store.put_split(20, 10, vec![ckpt(4, 0, 16)]);
        store.put_split(30, 50, vec![ckpt(4, 0, 16)]);
        // Split 20 (priority 10) was evicted; 10 and 30 survive.
        assert!(store.take_split(20).is_empty());
        assert!(!store.take_split(10).is_empty());
        assert!(!store.take_split(30).is_empty());
        assert_eq!(store.evictions(), 1);
    }

    #[test]
    fn a_low_priority_insert_can_evict_itself() {
        let one = ckpt(1, 0, 16).bytes();
        let mut store = CheckpointStore::new(one);
        store.put_split(10, 90, vec![ckpt(4, 0, 16)]);
        store.put_split(20, 5, vec![ckpt(4, 0, 16)]);
        assert!(!store.take_split(10).is_empty());
        assert!(store.take_split(20).is_empty());
    }
}
