//! Per-accept **dirty bounds** for incremental realignment.
//!
//! When top alignment number `k` commits, every matched pair `(p, q)` it
//! sets in the override triangle masks exactly one cell per split it
//! *straddles*: in split `r`'s matrix the pair occupies cell
//! `(row = p, col = q − r)`, which exists iff `p < r ≤ q`. A pair that
//! does not straddle `r` cannot touch `r`'s matrix at all — so between
//! two sweeps of the same split, every DP row above the smallest
//! straddling `p` is bit-identical to the previous sweep.
//!
//! [`DirtyLog`] records the accepted pair lists in commit order and
//! answers, for any split and any past version, the first row the
//! dirty region touches. Because traceback emits pairs in path order,
//! each accept's list is strictly ascending in *both* coordinates,
//! which makes every query a binary search: the first pair with `q ≥ r`
//! is the straddling pair with the smallest `p` — later pairs only have
//! larger `p`.

use crate::finder::TopAlignment;

/// Append-only log of accepted alignments' pair lists, answering
/// "where does the mask first touch split `r` since version `v`?".
///
/// The *version* is simply the number of accepts recorded; engines that
/// replicate the log (SMP workers from the shared top list, cluster
/// workers from `ACCEPTED` broadcasts) keep it in lock-step with their
/// override-triangle replica, so a version stamp identifies a triangle
/// state exactly.
#[derive(Debug, Clone, Default)]
pub struct DirtyLog {
    accepts: Vec<Vec<(usize, usize)>>,
}

impl DirtyLog {
    /// An empty log (version 0 — the empty triangle).
    pub fn new() -> Self {
        DirtyLog::default()
    }

    /// Number of accepts recorded; stamps returned to callers.
    pub fn version(&self) -> u64 {
        self.accepts.len() as u64
    }

    /// Record one accepted alignment's matched pairs (path order, so
    /// strictly ascending in both coordinates).
    pub fn record_accept(&mut self, pairs: &[(usize, usize)]) {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1),
            "accepted pairs must ascend in both coordinates"
        );
        self.accepts.push(pairs.to_vec());
    }

    /// Catch this replica up to a shared top-alignment list (the SMP
    /// engines' accept source): appends the pairs of every top beyond
    /// the current version.
    pub fn sync_from(&mut self, tops: &[TopAlignment]) {
        for top in &tops[self.accepts.len().min(tops.len())..] {
            self.accepts.push(top.pairs.clone());
        }
    }

    /// Where the mask first touches split `r` since version `since`:
    /// the first dirty prefix row if any pair accepted after `since`
    /// straddles `r`, else `None` — meaning `r`'s matrix (and therefore
    /// its realignment result) is unchanged since then.
    ///
    /// Rows `0..first_dirty_row` of the split matrix are bit-identical
    /// to any sweep at or after `since`, so checkpointed state at or
    /// below that boundary is still exact.
    pub fn dirty_row(&self, r: usize, since: u64) -> Option<usize> {
        self.accepts[(since as usize).min(self.accepts.len())..]
            .iter()
            .filter_map(|pairs| {
                // First pair with q ≥ r; ascending p means it carries the
                // minimal p among all pairs with q ≥ r. If even that p is
                // ≥ r, no pair of this accept straddles r.
                let i = pairs.partition_point(|&(_, q)| q < r);
                pairs.get(i).map(|&(p, _)| p).filter(|&p| p < r)
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_log_is_clean_everywhere() {
        let log = DirtyLog::new();
        assert_eq!(log.version(), 0);
        assert_eq!(log.dirty_row(5, 0), None);
    }

    #[test]
    fn straddling_pairs_set_the_bounds() {
        let mut log = DirtyLog::new();
        // An accept matching prefix positions 2..=4 to suffix 7..=9.
        log.record_accept(&[(2, 7), (3, 8), (4, 9)]);
        assert_eq!(log.version(), 1);
        // Split 5: all three pairs straddle (p < 5 ≤ q); the first pair
        // has the minimal p = 2.
        assert_eq!(log.dirty_row(5, 0), Some(2));
        // Split 8: only pairs with q ≥ 8 qualify → (3, 8): row 3.
        assert_eq!(log.dirty_row(8, 0), Some(3));
        // Split 2: no pair has p < 2.
        assert_eq!(log.dirty_row(2, 0), None);
        // Split 10: no pair has q ≥ 10.
        assert_eq!(log.dirty_row(10, 0), None);
        // Since version 1 (after the accept) everything is clean again.
        assert_eq!(log.dirty_row(5, 1), None);
    }

    #[test]
    fn bounds_minimise_over_multiple_accepts() {
        let mut log = DirtyLog::new();
        log.record_accept(&[(10, 20)]);
        log.record_accept(&[(3, 30)]);
        // Split 15: accept 0 dirties row 10, accept 1 row 3.
        assert_eq!(log.dirty_row(15, 0), Some(3));
        // Relative to version 1 only accept 1 counts.
        assert_eq!(log.dirty_row(15, 1), Some(3));
        // Split 25: only accept 1 straddles it.
        assert_eq!(log.dirty_row(25, 0), Some(3));
        // Split 11: accept 0 straddles it, accept 1 (p = 12) does not;
        // split 13: both do, and the earlier accept's row is the minimum.
        let mut log = DirtyLog::new();
        log.record_accept(&[(10, 20)]);
        log.record_accept(&[(12, 30)]);
        assert_eq!(log.dirty_row(11, 0), Some(10));
        assert_eq!(log.dirty_row(13, 0), Some(10));
        assert_eq!(log.dirty_row(13, 1), Some(12));
    }

    #[test]
    fn sync_from_appends_only_new_tops() {
        let top = |index: usize, pairs: Vec<(usize, usize)>| TopAlignment {
            index,
            r: 4,
            score: 8,
            pairs,
        };
        let tops = vec![top(0, vec![(0, 5)]), top(1, vec![(1, 6)])];
        let mut log = DirtyLog::new();
        log.sync_from(&tops[..1]);
        assert_eq!(log.version(), 1);
        log.sync_from(&tops);
        assert_eq!(log.version(), 2);
        // Re-syncing is idempotent.
        log.sync_from(&tops);
        assert_eq!(log.version(), 2);
        assert_eq!(log.dirty_row(5, 0), Some(0));
        assert_eq!(log.dirty_row(5, 1), Some(1));
        assert_eq!(log.dirty_row(5, 2), None);
    }
}
