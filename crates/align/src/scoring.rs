//! The affine gap model and the combined scoring parameters.

use crate::matrix::ExchangeMatrix;
use crate::{Score, NEG_INF};
use std::fmt;

/// Affine gap penalties, exactly as in the paper (§2.1): a gap of length
/// `g ≥ 1` costs `open + extend · g`.
///
/// Note the convention: *opening* a gap already pays one extension, i.e.
/// the paper's example (`open = 2`, `extend = 1`) charges 3 for a
/// single-residue gap. Both penalties are stored as non-negative
/// magnitudes and *subtracted* from alignment scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapPenalties {
    /// One-time cost of starting a gap.
    pub open: Score,
    /// Per-residue cost of lengthening a gap (paid from length 1).
    pub extend: Score,
}

impl GapPenalties {
    /// Construct; both magnitudes must be non-negative and `extend` must be
    /// strictly positive so gap costs grow with length (required for the
    /// incremental `MaxX`/`MaxY` recurrence to terminate its usefulness —
    /// and biologically, a free-extension gap model is meaningless here).
    pub fn new(open: Score, extend: Score) -> Self {
        assert!(open >= 0, "gap-open penalty must be non-negative");
        assert!(extend > 0, "gap-extend penalty must be positive");
        GapPenalties { open, extend }
    }

    /// Total cost of a gap of length `g ≥ 1`.
    #[inline(always)]
    pub fn cost(&self, g: usize) -> Score {
        debug_assert!(g >= 1);
        self.open + self.extend * g as Score
    }

    /// Does the gap model fit the 16-lane `i16` kernels (the row step's
    /// and the lane kernels')? `open + 16·extend ≤ i16::MAX` keeps every
    /// gap constant they form exact; else they take the `i32` path.
    pub fn fit_i16(&self) -> bool {
        i64::from(self.open) + 16 * i64::from(self.extend) <= i64::from(i16::MAX)
    }
}

/// Everything needed to score an alignment: the exchange matrix and the
/// gap penalties.
#[derive(Debug, Clone, PartialEq)]
pub struct Scoring {
    /// Residue-pair scores.
    pub exchange: ExchangeMatrix,
    /// Affine gap penalties.
    pub gaps: GapPenalties,
}

impl Scoring {
    /// Combine an exchange matrix with gap penalties.
    pub fn new(exchange: ExchangeMatrix, gaps: GapPenalties) -> Self {
        Scoring { exchange, gaps }
    }

    /// The paper's worked-example scheme for DNA: +2 match, −1 mismatch,
    /// gap open 2, gap extend 1.
    pub fn dna_example() -> Self {
        Scoring::new(ExchangeMatrix::dna_default(), GapPenalties::new(2, 1))
    }

    /// A standard protein scheme: BLOSUM62 with gap open 10, extend 1
    /// (close to the Repro server's defaults).
    pub fn protein_default() -> Self {
        Scoring::new(ExchangeMatrix::blosum62(), GapPenalties::new(10, 1))
    }

    /// Exchange score of residue codes `a` vs `b`.
    #[inline(always)]
    pub fn exch(&self, a: u8, b: u8) -> Score {
        self.exchange.score(a, b)
    }

    /// Can every score the `i32` kernels form over a sequence of `len`
    /// residues be represented exactly? Requires
    /// `s·len + open + extend·(len + 8) < 2²⁹` with `s` the largest
    /// exchange-score magnitude (the derivation sits at
    /// [`crate::NEG_INF`]). The facade and the cluster job decoder call
    /// this before any kernel runs, so an overflowing scoring/length
    /// pair is a typed error, never a wrap or a panic.
    pub fn check_range(&self, len: usize) -> Result<(), ScoreRangeError> {
        let alphabet = self.exchange.alphabet();
        let max_abs_score = (0..alphabet.len() as u8)
            .flat_map(|a| self.exchange.row(a))
            .map(|s| s.unsigned_abs())
            .max()
            .unwrap_or(0);
        // i128: `len` is caller-supplied and may be anything a usize holds.
        let len_wide = len as i128;
        let (open, extend) = (i128::from(self.gaps.open), i128::from(self.gaps.extend));
        let reach = i128::from(max_abs_score) * len_wide + open + extend * (len_wide + 8);
        if reach < -i128::from(NEG_INF) {
            Ok(())
        } else {
            Err(ScoreRangeError {
                len,
                max_abs_score,
                gaps: self.gaps,
            })
        }
    }
}

/// A scoring scheme and sequence length whose scores could leave the
/// range the `i32` kernels compute exactly in
/// ([`Scoring::check_range`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoreRangeError {
    /// Sequence length the check was made for.
    pub len: usize,
    /// Largest exchange-score magnitude of the rejected scoring.
    pub max_abs_score: u32,
    /// Its gap penalties.
    pub gaps: GapPenalties,
}

impl fmt::Display for ScoreRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scores could overflow 32 bits: {} residues at up to {} per pair with gap open {} \
             and extend {} reach past {}",
            self.len,
            self.max_abs_score,
            self.gaps.open,
            self.gaps.extend,
            -i64::from(NEG_INF),
        )
    }
}

impl std::error::Error for ScoreRangeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_cost_is_affine() {
        let g = GapPenalties::new(2, 1);
        assert_eq!(g.cost(1), 3);
        assert_eq!(g.cost(2), 4);
        assert_eq!(g.cost(10), 12);
    }

    #[test]
    fn paper_example_scheme() {
        let s = Scoring::dna_example();
        assert_eq!(s.gaps.open, 2);
        assert_eq!(s.gaps.extend, 1);
        // The worked alignment TTACAGA / TTGC-GA scores
        // 5 matches, 1 mismatch, 1 gap of length 1: 10 - 1 - 3 = 6.
        assert_eq!(5 * 2 - 1 - s.gaps.cost(1), 6);
    }

    #[test]
    fn range_check_accepts_real_inputs_and_rejects_the_i32_edge() {
        // BLOSUM62 on a 10-Mb sequence is far inside the range.
        assert!(Scoring::protein_default().check_range(10_000_000).is_ok());
        assert!(Scoring::dna_example().check_range(0).is_ok());
        let big = |score, open, extend| {
            Scoring::new(
                ExchangeMatrix::match_mismatch(crate::Alphabet::Dna, score, -score),
                GapPenalties::new(open, extend),
            )
        };
        // 2²⁹ = 536 870 912: the first rejected reach.
        assert!(big(1 << 19, 0, 1).check_range(1023).is_ok());
        let err = big(1 << 19, 0, 1).check_range(1024).unwrap_err();
        assert_eq!((err.len, err.max_abs_score), (1024, 1 << 19));
        assert!(err.to_string().contains("overflow 32 bits"), "{err}");
        // Each term alone can trip it, magnitudes and usize::MAX included.
        assert!(big(1, i32::MAX, 1).check_range(10).is_err());
        assert!(big(1, 0, i32::MAX).check_range(10).is_err());
        assert!(big(i32::MIN + 1, 0, 1).check_range(1).is_err());
        assert!(big(1, 0, 1).check_range(usize::MAX).is_err());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extend_rejected() {
        GapPenalties::new(2, 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_open_rejected() {
        GapPenalties::new(-1, 1);
    }
}
