//! Output checking: a stable digest of a run's top alignments and a
//! structural checker that needs no second engine.

use repro::{Scoring, Seq, TopAlignment};
use std::collections::HashSet;

/// FNV-1a over fixed-width little-endian words. Written out here, not
/// borrowed from the program, so `golden.json` only changes when the
/// alignments do.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of one run's top alignments: their count and each one's
/// defining fields (`r`, `score`, every pair).
pub fn tops_digest(tops: &[TopAlignment]) -> u64 {
    let mut h = Fnv::new();
    h.word(tops.len() as u64);
    for top in tops {
        h.word(top.r as u64);
        h.word(top.score as i64 as u64);
        h.word(top.pairs.len() as u64);
        for &(p, q) in &top.pairs {
            h.word(p as u64);
            h.word(q as u64);
        }
    }
    h.0
}

/// Digest of a batch: the per-sequence digests, in order.
pub fn batch_digest(per_sequence: &[u64]) -> u64 {
    let mut h = Fnv::new();
    h.word(per_sequence.len() as u64);
    for &d in per_sequence {
        h.word(d);
    }
    h.0
}

/// Digests travel as 16 hex digits (JSON numbers are `f64`).
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Check everything about a set of top alignments that can be checked
/// from the input alone: the requested count was found, scores do not
/// increase, every path lies inside its split matrix (`p < r ≤ q < m`),
/// advances strictly in both coordinates, shares no residue pair with
/// another top alignment, and re-scores to its reported score under
/// the gaps-between-matches model (one gap, in one direction, between
/// consecutive matched pairs).
pub fn check_tops(
    seq: &Seq,
    scoring: &Scoring,
    requested: usize,
    tops: &[TopAlignment],
) -> Result<(), String> {
    if tops.len() != requested {
        return Err(format!(
            "found {} top alignments, want {requested}",
            tops.len()
        ));
    }
    let codes = seq.codes();
    let m = codes.len();
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    for (i, top) in tops.iter().enumerate() {
        if i > 0 && top.score > tops[i - 1].score {
            return Err(format!(
                "top {i} scores {} after {}: scores must not increase",
                top.score,
                tops[i - 1].score
            ));
        }
        let Some(&(p0, q0)) = top.pairs.first() else {
            return Err(format!("top {i} has no pairs"));
        };
        let mut score = i64::from(scoring.exch(codes_at(codes, p0, i)?, codes_at(codes, q0, i)?));
        for w in top.pairs.windows(2) {
            let ((p1, q1), (p2, q2)) = (w[0], w[1]);
            if p2 <= p1 || q2 <= q1 {
                return Err(format!(
                    "top {i}: pair ({p2},{q2}) does not advance past ({p1},{q1})"
                ));
            }
            let (dp, dq) = (p2 - p1 - 1, q2 - q1 - 1);
            if dp > 0 && dq > 0 {
                return Err(format!(
                    "top {i}: gaps on both sides between ({p1},{q1}) and ({p2},{q2})"
                ));
            }
            if dp + dq > 0 {
                score -= i64::from(scoring.gaps.cost(dp + dq));
            }
            score += i64::from(scoring.exch(codes_at(codes, p2, i)?, codes_at(codes, q2, i)?));
        }
        for &(p, q) in &top.pairs {
            if !(p < top.r && top.r <= q && q < m) {
                return Err(format!(
                    "top {i}: pair ({p},{q}) outside split {} of {m}",
                    top.r
                ));
            }
            if !seen.insert((p, q)) {
                return Err(format!(
                    "top {i}: pair ({p},{q}) already used by an earlier top"
                ));
            }
        }
        if score != i64::from(top.score) {
            return Err(format!(
                "top {i}: path re-scores to {score}, reported {}",
                top.score
            ));
        }
    }
    Ok(())
}

fn codes_at(codes: &[u8], pos: usize, top: usize) -> Result<u8, String> {
    codes
        .get(pos)
        .copied()
        .ok_or_else(|| format!("top {top}: position {pos} beyond the sequence"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro::Repro;

    fn fixture() -> (Seq, Scoring, Vec<TopAlignment>) {
        let seq = repro_seqgen::titin_like(240, 5);
        let scoring = Scoring::protein_default();
        let tops = Repro::new(scoring.clone())
            .top_alignments(4)
            .run(&seq)
            .tops
            .alignments;
        (seq, scoring, tops)
    }

    #[test]
    fn accepts_a_real_run() {
        let (seq, scoring, tops) = fixture();
        check_tops(&seq, &scoring, 4, &tops).unwrap();
    }

    #[test]
    fn rejects_a_wrong_count() {
        let (seq, scoring, tops) = fixture();
        let err = check_tops(&seq, &scoring, 5, &tops).unwrap_err();
        assert!(err.contains("want 5"), "{err}");
    }

    #[test]
    fn rejects_a_swapped_pair() {
        let (seq, scoring, mut tops) = fixture();
        tops[1].pairs.swap(0, 1);
        let err = check_tops(&seq, &scoring, 4, &tops).unwrap_err();
        assert!(err.contains("does not advance"), "{err}");
    }

    #[test]
    fn rejects_overlapping_tops() {
        let (seq, scoring, mut tops) = fixture();
        tops[1] = TopAlignment {
            index: 1,
            ..tops[0].clone()
        };
        let err = check_tops(&seq, &scoring, 4, &tops).unwrap_err();
        assert!(err.contains("already used"), "{err}");
    }

    #[test]
    fn rejects_a_wrong_score() {
        let (seq, scoring, mut tops) = fixture();
        // Keep the order legal so only the re-scoring can object.
        tops[3].score -= 1;
        let err = check_tops(&seq, &scoring, 4, &tops).unwrap_err();
        assert!(err.contains("re-scores"), "{err}");
    }

    #[test]
    fn rejects_a_pair_outside_its_split() {
        let (seq, scoring, mut tops) = fixture();
        tops[0].r = 0;
        let err = check_tops(&seq, &scoring, 4, &tops).unwrap_err();
        assert!(err.contains("outside split"), "{err}");
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let tops = vec![
            TopAlignment {
                index: 0,
                r: 4,
                score: 8,
                pairs: vec![(0, 4), (1, 5), (2, 6), (3, 7)],
            },
            TopAlignment {
                index: 1,
                r: 2,
                score: 3,
                pairs: vec![(1, 3)],
            },
        ];
        // Pinned: golden.json is only meaningful while this holds.
        assert_eq!(digest_hex(tops_digest(&tops)), "a0c8558097487e8d");
        let mut other = tops.clone();
        other[1].pairs[0].1 = 4;
        assert_ne!(tops_digest(&tops), tops_digest(&other));
        assert_ne!(tops_digest(&tops[..1]), tops_digest(&tops));
        let (a, b) = (tops_digest(&tops), tops_digest(&other));
        assert_ne!(
            batch_digest(&[a, b]),
            batch_digest(&[b, a]),
            "batch order matters"
        );
    }
}
