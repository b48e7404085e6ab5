//! Query profiles: the exchange matrix re-laid out along the sequence.
//!
//! A *query profile* (the exact-acceleration device of striped
//! Smith–Waterman implementations) hoists the per-cell substitution
//! lookup `E(S[p], S[q])` out of the inner loop: for every residue code
//! `a` of the alphabet, the profile stores the row `q ↦ E(a, S[q])`
//! contiguously. A sweep over columns `q ∈ [r0, m)` then reads one
//! contiguous slice per matrix row — a streaming load instead of the
//! dependent `seq[q] → table[a][seq[q]]` gather — and the whole
//! exchange matrix disappears from the hot loop.
//!
//! The profile is built **once per sequence** (`O(k·m)` space, `k` the
//! alphabet size); every split group indexes into it with its own
//! column offset, so the per-group cost of the interleaved SIMD sweep
//! drops to zero setup.
//!
//! Two element widths exist, mirroring the SIMD kernels: `i16` (the
//! paper's "shorts", built with a checked narrowing that fails if any
//! score is out of range) and `i32` (the wide element, always
//! buildable).

use crate::scoring::Scoring;
use crate::Score;

/// The exchange matrix unrolled along a sequence: `row(a)[q] = E(a, S[q])`.
#[derive(Debug, Clone)]
pub struct QueryProfile<T> {
    /// Sequence length (row stride).
    m: usize,
    /// `k × m` scores, row-major by residue code.
    data: Vec<T>,
    /// The largest positive exchange score (0 if none).
    peak: Score,
}

impl<T: Copy> QueryProfile<T> {
    fn build(
        scoring: &Scoring,
        codes: &[u8],
        mut narrow: impl FnMut(Score) -> Option<T>,
    ) -> Option<Self> {
        let k = scoring.exchange.alphabet().len();
        let m = codes.len();
        let mut data = Vec::with_capacity(k * m);
        for a in 0..k as u8 {
            let row = scoring.exchange.row(a);
            for &q in codes {
                data.push(narrow(row[q as usize])?);
            }
        }
        let peak = scoring.exchange.max_score().max(0);
        Some(QueryProfile { m, data, peak })
    }

    /// The scoring row of residue code `a` against columns `q ∈ [q0, m)`:
    /// entry `i` is `E(a, S[q0 + i])`, laid out contiguously.
    #[inline(always)]
    pub fn row(&self, a: u8, q0: usize) -> &[T] {
        let base = a as usize * self.m;
        &self.data[base + q0..base + self.m]
    }

    /// Number of columns (the profiled sequence's length).
    pub fn len(&self) -> usize {
        self.m
    }

    /// The largest positive exchange score (0 if none).
    pub fn peak(&self) -> Score {
        self.peak
    }

    /// `true` for the profile of an empty sequence.
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }
}

impl QueryProfile<i16> {
    /// Build a narrow (16-bit) profile; `None` if any exchange score is
    /// outside `i16` range, in which case callers must use the wide
    /// profile (the SIMD engines then run every pack on wide lanes
    /// instead of panicking as the narrow kernels would).
    pub fn new_narrow(scoring: &Scoring, codes: &[u8]) -> Option<Self> {
        Self::build(scoring, codes, |s| i16::try_from(s).ok())
    }
}

impl QueryProfile<i32> {
    /// Build a wide (32-bit) profile; infallible, exactly the scalar
    /// kernels' scores.
    pub fn new_wide(scoring: &Scoring, codes: &[u8]) -> Self {
        Self::build(scoring, codes, Some).expect("i32 profile construction cannot fail")
    }
}

/// Widest k-mer [`kmer_keys`] can pack (5 bits per residue code into a
/// `u64`, leaving headroom for protein's 25-letter alphabet).
pub const MAX_KMER_K: usize = 12;

/// Packed k-mer keys along a sequence: entry `i` is the window
/// `codes[i..i + k]` packed 5 bits per residue code, so equal keys ⇔
/// equal k-mers for every alphabet up to 32 letters. Empty when the
/// sequence is shorter than `k`. This is the profile-layer hook the
/// seed index in `repro-core` builds on — like [`QueryProfile`], it is
/// computed once per sequence and shared by every split.
///
/// # Panics
/// If `k == 0` or `k > MAX_KMER_K`.
pub fn kmer_keys(codes: &[u8], k: usize) -> Vec<u64> {
    assert!(
        (1..=MAX_KMER_K).contains(&k),
        "k-mer width {k} out of range"
    );
    if codes.len() < k {
        return Vec::new();
    }
    let mask: u64 = if k == MAX_KMER_K {
        u64::MAX >> (64 - 5 * MAX_KMER_K)
    } else {
        (1u64 << (5 * k)) - 1
    };
    let mut keys = Vec::with_capacity(codes.len() - k + 1);
    let mut key: u64 = 0;
    for (i, &c) in codes.iter().enumerate() {
        debug_assert!(c < 32, "residue code {c} does not fit 5 bits");
        key = ((key << 5) | u64::from(c)) & mask;
        if i + 1 >= k {
            keys.push(key);
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::Seq;

    #[test]
    fn kmer_keys_equal_iff_windows_equal() {
        let seq = Seq::dna("ATGCATGCATTT").unwrap();
        let k = 4;
        let keys = kmer_keys(seq.codes(), k);
        assert_eq!(keys.len(), seq.len() - k + 1);
        for i in 0..keys.len() {
            for j in 0..keys.len() {
                let same = seq.codes()[i..i + k] == seq.codes()[j..j + k];
                assert_eq!(keys[i] == keys[j], same, "windows {i} vs {j}");
            }
        }
    }

    #[test]
    fn kmer_keys_short_sequence_is_empty() {
        let seq = Seq::dna("ATG").unwrap();
        assert!(kmer_keys(seq.codes(), 4).is_empty());
        assert_eq!(kmer_keys(seq.codes(), 3).len(), 1);
    }

    #[test]
    fn narrow_profile_matches_matrix() {
        let seq = Seq::dna("ATGCATGC").unwrap();
        let scoring = Scoring::dna_example();
        let prof = QueryProfile::new_narrow(&scoring, seq.codes()).unwrap();
        assert_eq!(prof.len(), 8);
        for a in 0..4u8 {
            for (i, &q) in seq.codes().iter().enumerate() {
                assert_eq!(
                    prof.row(a, 0)[i] as Score,
                    scoring.exch(a, q),
                    "residue {a} vs column {i}"
                );
            }
        }
        // Offsets slice the same row.
        assert_eq!(prof.row(2, 3), &prof.row(2, 0)[3..]);
    }

    #[test]
    fn wide_profile_matches_matrix() {
        let seq = Seq::protein("MGEKALVPYR").unwrap();
        let scoring = Scoring::protein_default();
        let prof = QueryProfile::new_wide(&scoring, seq.codes());
        for a in 0..20u8 {
            for (i, &q) in seq.codes().iter().enumerate() {
                assert_eq!(prof.row(a, 0)[i], scoring.exch(a, q));
            }
        }
    }

    #[test]
    fn out_of_range_scores_refuse_narrow() {
        let big = Scoring::new(
            crate::ExchangeMatrix::match_mismatch(crate::Alphabet::Dna, 40000, -1),
            crate::GapPenalties::new(2, 1),
        );
        let seq = Seq::dna("ACGT").unwrap();
        assert!(QueryProfile::new_narrow(&big, seq.codes()).is_none());
        let wide = QueryProfile::new_wide(&big, seq.codes());
        assert_eq!(wide.row(0, 0)[0], 40000);
    }

    #[test]
    fn empty_sequence_profile() {
        let scoring = Scoring::dna_example();
        let prof = QueryProfile::new_narrow(&scoring, &[]).unwrap();
        assert!(prof.is_empty());
        assert!(prof.row(3, 0).is_empty());
    }
}
