//! The override triangle (paper §3).
//!
//! A triangular boolean set over unordered residue-position pairs
//! `(p, q)` with `p < q < m`: member ⇔ the pair is matched by an
//! already-accepted top alignment, so realignments must force the
//! corresponding matrix cell to zero.
//!
//! "Since the triangle is sparse, it can be compressed" (§3): only some
//! tens of alignment paths are ever marked, a few thousand pairs
//! whatever `m`. The one representation is therefore **row-sorted**:
//! for each `p`, its overridden `q` ascending, all rows in one flat
//! column array behind a row-offset table (CSR). Memory is
//! `O(pairs + m)`, and — what the kernels need —
//! [`OverrideTriangle::row`] hands a DP row its overridden columns as a
//! sorted slice, so a sweep walks the segments *between* hits instead
//! of probing every cell.

use std::fmt;

/// Triangular boolean set over position pairs `(p, q)`, `p < q`.
#[derive(Clone, PartialEq, Eq)]
pub struct OverrideTriangle {
    m: usize,
    /// Row `p`'s columns are `cols[row_off[p]..row_off[p + 1]]`.
    row_off: Vec<u32>,
    /// Overridden `q` of every row, ascending within a row.
    cols: Vec<u32>,
}

impl OverrideTriangle {
    /// An empty triangle for a sequence of length `m`.
    pub fn new(m: usize) -> Self {
        assert!(
            u32::try_from(m).is_ok(),
            "sequence length {m} exceeds the triangle's u32 columns"
        );
        OverrideTriangle {
            m,
            row_off: vec![0; m + 1],
            cols: Vec::new(),
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        (self.row_off.capacity() + self.cols.capacity()) * std::mem::size_of::<u32>()
    }

    /// Sequence length this triangle covers.
    #[inline]
    pub fn seq_len(&self) -> usize {
        self.m
    }

    /// Number of overridden pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// `true` iff no pair is overridden.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// The overridden `q` of row `p`, strictly ascending (all `> p`).
    /// Rows at or past the sequence end are empty.
    #[inline(always)]
    pub fn row(&self, p: usize) -> &[u32] {
        if p < self.m {
            &self.cols[self.row_off[p] as usize..self.row_off[p + 1] as usize]
        } else {
            &[]
        }
    }

    /// The part of [`Self::row`] with `lo ≤ q < hi` — the row query the
    /// kernel masks answer from.
    #[inline(always)]
    pub fn row_range(&self, p: usize, lo: usize, hi: usize) -> &[u32] {
        let row = self.row(p);
        let row = &row[row.partition_point(|&q| (q as usize) < lo)..];
        &row[..row.partition_point(|&q| (q as usize) < hi)]
    }

    /// Is pair `(p, q)` overridden? Requires `p < q < m`.
    #[inline]
    pub fn get(&self, p: usize, q: usize) -> bool {
        debug_assert!(p < q && q < self.m, "pair ({p},{q}) out of triangle");
        self.row(p).binary_search(&(q as u32)).is_ok()
    }

    /// Override pair `(p, q)`. Returns `true` if the pair was newly set.
    ///
    /// `O(pairs + m)`: the flat arrays shift behind the insertion. An
    /// accepted alignment sets a few hundred pairs between sweeps of
    /// millions of cells, so the kernels' read side is what is kept
    /// cheap.
    pub fn set(&mut self, p: usize, q: usize) -> bool {
        assert!(p < q && q < self.m, "pair ({p},{q}) out of triangle");
        let lo = self.row_off[p] as usize;
        match self.row(p).binary_search(&(q as u32)) {
            Ok(_) => false,
            Err(at) => {
                self.cols.insert(lo + at, q as u32);
                for off in &mut self.row_off[p + 1..] {
                    *off += 1;
                }
                true
            }
        }
    }

    /// Iterate over all overridden pairs (ascending `p`, then `q`).
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.m).flat_map(move |p| self.row(p).iter().map(move |&q| (p, q as usize)))
    }
}

impl fmt::Debug for OverrideTriangle {
    /// Compact Debug: size and population, not the pair list.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "OverrideTriangle(m={}, {} pairs set)",
            self.m,
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty() {
        let t = OverrideTriangle::new(100);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        for q in 1..100 {
            for p in 0..q {
                assert!(!t.get(p, q));
            }
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut t = OverrideTriangle::new(50);
        assert!(t.set(3, 17));
        assert!(t.get(3, 17));
        assert!(!t.get(3, 18));
        assert!(!t.get(2, 17));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn double_set_is_idempotent() {
        let mut t = OverrideTriangle::new(10);
        assert!(t.set(0, 1));
        assert!(!t.set(0, 1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn all_pairs_are_distinct() {
        let mut t = OverrideTriangle::new(40);
        let mut n = 0;
        for q in 1..40 {
            for p in 0..q {
                assert!(t.set(p, q), "pair ({p},{q}) collided");
                n += 1;
            }
        }
        assert_eq!(t.len(), n);
        assert_eq!(n, 40 * 39 / 2);
    }

    /// The row index against a plain set oracle: random insertion order
    /// with repeats; every row sorted, duplicate-free and in agreement
    /// with `get`, `iter()` and `len()`.
    #[test]
    fn rows_are_sorted_unique_and_agree_with_get_iter_len() {
        let mut seed = 0x2545f4914f6cdd1du64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for m in [2usize, 3, 17, 64] {
            let mut t = OverrideTriangle::new(m);
            let mut oracle = std::collections::BTreeSet::new();
            for _ in 0..m * 6 {
                let p = rng() as usize % (m - 1);
                let q = p + 1 + rng() as usize % (m - p - 1);
                assert_eq!(t.set(p, q), oracle.insert((p, q)), "set({p},{q})");
            }
            assert_eq!(t.len(), oracle.len());
            assert!(t.iter().eq(oracle.iter().copied()), "iter order, m={m}");
            for p in 0..m {
                let row = t.row(p);
                assert!(row.windows(2).all(|w| w[0] < w[1]), "row {p} unsorted");
                for q in p + 1..m {
                    let want = oracle.contains(&(p, q));
                    assert_eq!(t.get(p, q), want);
                    assert_eq!(row.contains(&(q as u32)), want);
                }
            }
            assert!(t.row(m).is_empty() && t.row(m + 7).is_empty());
            let p = rng() as usize % (m - 1);
            let (lo, hi) = (rng() as usize % m, rng() as usize % (m + 2));
            let want: Vec<u32> = (lo..hi.min(m))
                .filter(|&q| oracle.contains(&(p, q)))
                .map(|q| q as u32)
                .collect();
            assert_eq!(t.row_range(p, lo, hi), want, "row_range({p},{lo},{hi})");
        }
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let pairs = [(0, 1), (5, 40), (39, 40), (62, 63), (0, 63)];
        let mut a = OverrideTriangle::new(64);
        let mut b = OverrideTriangle::new(64);
        for &(p, q) in &pairs {
            a.set(p, q);
        }
        for &(p, q) in pairs.iter().rev() {
            b.set(p, q);
        }
        assert_eq!(a, b);
        b.set(1, 2);
        assert_ne!(a, b);
        assert_ne!(OverrideTriangle::new(3), OverrideTriangle::new(4));
    }

    #[test]
    fn memory_follows_pairs_not_m_squared() {
        let m = 4000;
        let mut t = OverrideTriangle::new(m);
        for i in 0..100 {
            t.set(i, i + 2000);
        }
        let bitset = m * (m - 1) / 2 / 8;
        assert!(
            t.heap_bytes() < bitset / 10,
            "{} bytes vs a {bitset}-byte bitset",
            t.heap_bytes()
        );
    }

    #[test]
    fn tiny_sizes() {
        assert!(OverrideTriangle::new(0).is_empty());
        assert!(OverrideTriangle::new(0).row(0).is_empty());
        let mut t = OverrideTriangle::new(2);
        assert!(t.set(0, 1));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(0, 1)]);
    }

    #[test]
    fn debug_is_compact() {
        let t = OverrideTriangle::new(1000);
        assert_eq!(format!("{t:?}"), "OverrideTriangle(m=1000, 0 pairs set)");
    }

    #[test]
    #[should_panic(expected = "out of triangle")]
    fn out_of_range_panics() {
        OverrideTriangle::new(5).set(2, 5);
    }
}
