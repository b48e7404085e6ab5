//! Repeat delineation from top alignments — the second half of the Repro
//! method.
//!
//! The paper computes top alignments and defers delineation tuning to
//! future work (§6, including the `AACAACAAC` unit-size question). This
//! module implements a working delineation pass:
//!
//! 1. every matched pair `(p, q)` of every top alignment votes for the
//!    offset `q − p`; the repeat period is recovered as the approximate
//!    common divisor that explains the most votes (offsets of a tandem
//!    repeat are noisy multiples of the unit length — and the pairwise
//!    *differences* between alignment offsets expose the unit itself,
//!    which resolves `AACAAC` down to `AAC`);
//! 2. every matched position then votes for its residue class modulo
//!    the period; the modal **phase** anchors a unit grid;
//! 3. the aligned span is tiled with period-length windows on that
//!    phase; windows that are mostly aligned territory are the units.
//!
//! Unit boundaries are phase-shifted by the (unknowable) offset of the
//! anchor column within the ancestral unit — the paper itself notes that
//! "the boundaries are often vague". Scoring against planted ground truth
//! therefore compares periods and copy counts, not exact boundaries.

use crate::finder::TopAlignment;
use repro_align::Seq;
use std::ops::Range;

/// One delineated repeat unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepeatUnit {
    /// Residue range of the unit within the sequence.
    pub range: Range<usize>,
}

/// The delineation result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepeatReport {
    /// Estimated repeat period (approximate common divisor of the
    /// alignment offsets); `None` when no alignment pairs exist.
    pub period: Option<usize>,
    /// The delineated units, in sequence order.
    pub units: Vec<RepeatUnit>,
    /// Number of residues covered by at least one top-alignment pair.
    pub aligned_residues: usize,
}

impl RepeatReport {
    /// Number of repeat copies found.
    pub fn copies(&self) -> usize {
        self.units.len()
    }

    /// Fraction of the sequence covered by top-alignment pairs.
    pub fn coverage(&self, seq_len: usize) -> f64 {
        if seq_len == 0 {
            0.0
        } else {
            self.aligned_residues as f64 / seq_len as f64
        }
    }

    /// Render the units as GFF3 `repeat_unit` features (1-based,
    /// end-inclusive coordinates, as GFF requires).
    pub fn to_gff(&self, seq_id: &str) -> String {
        let mut out = String::from("##gff-version 3\n");
        for (i, unit) in self.units.iter().enumerate() {
            out.push_str(&format!(
                "{seq_id}\trepro\trepeat_unit\t{}\t{}\t.\t+\t.\tID=unit{};period={}\n",
                unit.range.start + 1,
                unit.range.end,
                i + 1,
                self.period.map_or_else(|| ".".into(), |p| p.to_string()),
            ));
        }
        out
    }
}

/// Estimate the repeat period from top-alignment offsets.
///
/// Candidate periods are the per-alignment median offsets, their
/// pairwise differences, and integer fractions of both; each candidate
/// is scored by how many matched-pair offsets it explains as a near
/// multiple. Returns the *largest* best-scoring candidate, so that a
/// multiple-rich candidate set (`4, 8, 12, …` all explaining an exact
/// `ATGC` tandem) resolves to the true unit, not to 1.
fn estimate_period(tops: &[TopAlignment]) -> Option<usize> {
    // Per-alignment median offsets.
    let mut medians: Vec<i64> = tops
        .iter()
        .filter(|t| !t.pairs.is_empty())
        .map(|t| {
            let mut offs: Vec<i64> = t.pairs.iter().map(|&(p, q)| (q - p) as i64).collect();
            offs.sort_unstable();
            offs[offs.len() / 2]
        })
        .collect();
    if medians.is_empty() {
        return None;
    }
    medians.sort_unstable();
    medians.dedup();

    // All pair offsets, the voting population, as runs of one offset
    // and its number of pairs: the offsets of one alignment are nearly
    // constant, so there are far fewer distinct offsets than pairs.
    let mut offsets: Vec<i64> = tops
        .iter()
        .flat_map(|t| t.pairs.iter().map(|&(p, q)| (q - p) as i64))
        .collect();
    let voters = offsets.len() as f64;
    offsets.sort_unstable();
    let mut runs: Vec<(i64, f64)> = Vec::new();
    for o in offsets {
        match runs.last_mut() {
            Some((v, n)) if *v == o => *n += 1.0,
            _ => runs.push((o, 1.0)),
        }
    }

    let mut candidates: Vec<i64> = Vec::new();
    for (i, &a) in medians.iter().enumerate() {
        for k in 1..=8 {
            candidates.push(a / k);
        }
        for &b in &medians[i + 1..] {
            let d = b - a;
            for k in 1..=4 {
                candidates.push(d / k);
            }
        }
    }
    candidates.retain(|&d| d >= 2);
    candidates.sort_unstable();
    candidates.dedup();
    if candidates.is_empty() {
        return None; // caller falls back to anchor-gap estimation
    }

    // Fractional fit: each offset contributes 1 − dev/tol (clamped at
    // zero), so a divisor must *explain* offsets, not merely sit within
    // an absolute slack of them — a binary tolerance would make every
    // tiny divisor a universal fitter. A run contributes its offset's
    // share once per pair.
    let score = |d: i64| -> f64 {
        let tol = (d as f64 * 0.12).max(1.0);
        runs.iter()
            .map(|&(o, n)| {
                let k = ((o as f64 / d as f64).round() as i64).max(1);
                let dev = (o - k * d).abs() as f64;
                n * (1.0 - dev / tol).max(0.0)
            })
            .sum()
    };
    // The fit is O(distinct offsets) per candidate: score each
    // candidate once.
    let scores: Vec<f64> = candidates.iter().map(|&d| score(d)).collect();
    let best_score = scores.iter().copied().fold(0.0f64, f64::max);
    // Periodicity must explain a substantial share of the offsets, or
    // the offsets simply are not periodic.
    if best_score < 0.4 * voters {
        return None;
    }
    // Largest candidate achieving (almost) the best score wins: for an
    // exact ATGC tandem, 2 and 4 both explain everything — 4 is the unit.
    let threshold = best_score * 0.95;
    let winner = scores.iter().rposition(|&s| s >= threshold)?;
    Some(candidates[winner] as usize)
}

/// Delineate repeats in `seq` from its top alignments.
///
/// ```
/// use repro_core::{delineate, find_top_alignments};
/// use repro_align::{Scoring, Seq};
///
/// let seq = Seq::dna(&"ATGC".repeat(10)).unwrap();
/// let tops = find_top_alignments(&seq, &Scoring::dna_example(), 8);
/// let report = delineate(&seq, &tops.alignments);
/// assert_eq!(report.period, Some(4));
/// assert!(report.copies() >= 8);
/// ```
pub fn delineate(seq: &Seq, tops: &[TopAlignment]) -> RepeatReport {
    let m = seq.len();
    if m == 0 || tops.is_empty() {
        return RepeatReport {
            period: None,
            units: Vec::new(),
            aligned_residues: 0,
        };
    }

    let mut touched = vec![false; m];
    let mut weight = vec![0u64; m]; // per-position alignment depth
    for top in tops {
        for &(p, q) in &top.pairs {
            touched[p] = true;
            touched[q] = true;
            weight[p] += 1;
            weight[q] += 1;
        }
    }
    let aligned_residues = touched.iter().filter(|&&t| t).count();

    // Offset voting; for non-periodic offset structure (e.g. a single
    // isolated duplication) fall back to the strongest alignment's own
    // median offset as "the" period.
    let period = estimate_period(tops).or_else(|| {
        tops.first().map(|t| {
            let mut offs: Vec<usize> = t.pairs.iter().map(|&(p, q)| q - p).collect();
            offs.sort_unstable();
            offs.get(offs.len() / 2).copied().unwrap_or(1).max(1)
        })
    });
    let Some(period) = period.filter(|&p| p >= 1) else {
        return RepeatReport {
            period: None,
            units: Vec::new(),
            aligned_residues,
        };
    };

    // Phase voting: each matched position supports its residue class
    // modulo the period; the modal phase anchors the unit grid. (The
    // grid's phase relative to the *biological* unit start is unknowable
    // from alignments alone — the paper notes the boundaries are vague.)
    let mut votes = vec![0u64; period];
    for top in tops {
        for &(p, q) in &top.pairs {
            votes[p % period] += 1;
            votes[q % period] += 1;
        }
    }
    let phase = votes
        .iter()
        .enumerate()
        .max_by(|(ia, va), (ib, vb)| va.cmp(vb).then(ib.cmp(ia)))
        .map(|(i, _)| i)
        .unwrap_or(0);

    // Tile the aligned span with period-length windows on that phase.
    // Real repeat copies carry deep alignment coverage (several top
    // alignments cross every copy); windows over flanks or spacers are
    // shallow, so windows are kept by *weighted* coverage relative to
    // the deepest window.
    let lo = touched.iter().position(|&t| t).unwrap_or(0);
    let hi = touched.iter().rposition(|&t| t).map_or(0, |p| p + 1);
    let mut start = lo as i64 - (lo as i64 - phase as i64).rem_euclid(period as i64);
    let mut windows: Vec<(Range<usize>, u64)> = Vec::new();
    while start < hi as i64 && start < m as i64 {
        let s = start.max(0) as usize;
        let e = ((start + period as i64) as usize).min(m);
        if e > s {
            let w: u64 = weight[s..e].iter().sum();
            windows.push((s..e, w));
        }
        start += period as i64;
    }
    let max_weight = windows.iter().map(|(_, w)| *w).max().unwrap_or(0);
    let keep = (max_weight * 7 / 20).max(1); // 35 % of the deepest window
    let units: Vec<RepeatUnit> = windows
        .into_iter()
        .filter(|(_, w)| *w >= keep)
        .map(|(range, _)| RepeatUnit { range })
        .collect();

    RepeatReport {
        period: Some(period),
        units,
        aligned_residues,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finder::find_top_alignments;
    use repro_align::Scoring;

    #[test]
    fn empty_inputs() {
        let seq = Seq::dna("ACGT").unwrap();
        let report = delineate(&seq, &[]);
        assert_eq!(report.copies(), 0);
        assert_eq!(report.period, None);
        assert_eq!(report.coverage(4), 0.0);
    }

    #[test]
    fn exact_tandem_resolves_to_the_smallest_unit() {
        // ATGC × 20: transitive closure over several top alignments must
        // resolve the period down to 4 (the paper's AACAAC-vs-AAC issue).
        let seq = Seq::dna(&"ATGC".repeat(20)).unwrap();
        let scoring = Scoring::dna_example();
        let tops = find_top_alignments(&seq, &scoring, 12);
        let report = delineate(&seq, &tops.alignments);
        assert_eq!(report.period, Some(4), "period should collapse to 4");
        // All anchors sample the same residue of the unit.
        let first = seq.codes()[report.units[0].range.start];
        for u in &report.units {
            assert_eq!(seq.codes()[u.range.start], first);
        }
        assert!(
            report.copies() >= 15,
            "found only {} of ~20 copies",
            report.copies()
        );
    }

    #[test]
    fn units_are_disjoint_and_ordered() {
        let seq = Seq::dna(&"ACGGT".repeat(12)).unwrap();
        let scoring = Scoring::dna_example();
        let tops = find_top_alignments(&seq, &scoring, 10);
        let report = delineate(&seq, &tops.alignments);
        for w in report.units.windows(2) {
            assert!(w[0].range.end <= w[1].range.start);
        }
        for u in &report.units {
            assert!(u.range.start < u.range.end);
            assert!(u.range.end <= seq.len());
        }
    }

    #[test]
    fn coverage_reflects_aligned_pairs() {
        let seq = Seq::dna(&"ATGC".repeat(10)).unwrap();
        let scoring = Scoring::dna_example();
        let tops = find_top_alignments(&seq, &scoring, 5);
        let report = delineate(&seq, &tops.alignments);
        let cov = report.coverage(seq.len());
        assert!(
            cov > 0.5,
            "repetitive sequence should be well covered: {cov}"
        );
        assert!(cov <= 1.0);
    }

    #[test]
    fn gff_output_is_one_based_inclusive() {
        let seq = Seq::dna(&"ATGC".repeat(4)).unwrap();
        let scoring = Scoring::dna_example();
        let tops = find_top_alignments(&seq, &scoring, 4);
        let report = delineate(&seq, &tops.alignments);
        let gff = report.to_gff("chr_test");
        assert!(gff.starts_with("##gff-version 3\n"));
        let first = gff.lines().nth(1).expect("at least one unit");
        let cols: Vec<&str> = first.split('\t').collect();
        assert_eq!(cols[0], "chr_test");
        assert_eq!(cols[2], "repeat_unit");
        // Unit 0..4 renders as 1..4 in GFF coordinates.
        assert_eq!(cols[3], "1");
        assert_eq!(cols[4], "4");
        assert!(cols[8].contains("period=4"));
        assert_eq!(gff.lines().count(), 1 + report.copies());
    }

    /// `estimate_period` as it was before its candidate scores were
    /// kept: the fit evaluated over every candidate for the best score,
    /// then again from the largest candidate down.
    fn estimate_period_scoring_twice(tops: &[TopAlignment]) -> Option<usize> {
        let mut medians: Vec<i64> = tops
            .iter()
            .filter(|t| !t.pairs.is_empty())
            .map(|t| {
                let mut offs: Vec<i64> = t.pairs.iter().map(|&(p, q)| (q - p) as i64).collect();
                offs.sort_unstable();
                offs[offs.len() / 2]
            })
            .collect();
        if medians.is_empty() {
            return None;
        }
        medians.sort_unstable();
        medians.dedup();
        let offsets: Vec<i64> = tops
            .iter()
            .flat_map(|t| t.pairs.iter().map(|&(p, q)| (q - p) as i64))
            .collect();
        let mut candidates: Vec<i64> = Vec::new();
        for (i, &a) in medians.iter().enumerate() {
            for k in 1..=8 {
                candidates.push(a / k);
            }
            for &b in &medians[i + 1..] {
                let d = b - a;
                for k in 1..=4 {
                    candidates.push(d / k);
                }
            }
        }
        candidates.retain(|&d| d >= 2);
        candidates.sort_unstable();
        candidates.dedup();
        if candidates.is_empty() {
            return None;
        }
        let score = |d: i64| -> f64 {
            let tol = (d as f64 * 0.12).max(1.0);
            offsets
                .iter()
                .map(|&o| {
                    let k = ((o as f64 / d as f64).round() as i64).max(1);
                    let dev = (o - k * d).abs() as f64;
                    (1.0 - dev / tol).max(0.0)
                })
                .sum()
        };
        let best_score = candidates.iter().map(|&d| score(d)).fold(0.0f64, f64::max);
        if best_score < 0.4 * offsets.len() as f64 {
            return None;
        }
        let threshold = best_score * 0.95;
        candidates
            .into_iter()
            .rev()
            .find(|&d| score(d) >= threshold)
            .map(|d| d as usize)
    }

    #[test]
    fn period_estimate_equals_the_double_evaluation() {
        use repro_seqgen::{PlantedRepeats, RepeatSpec};
        let dna = Scoring::dna_example();
        let protein = Scoring::protein_default();
        let dense = repro_seqgen::titin::TitinParams {
            families: 1,
            domain_len: (95, 95),
            linker_len: (5, 5),
            substitution_rate: 0.4,
            ..Default::default()
        };
        let inputs = [
            (Seq::dna(&"ATGC".repeat(20)).unwrap(), &dna, 12),
            (repro_seqgen::titin_like(240, 1), &protein, 12),
            (repro_seqgen::titin_like(200, 9), &protein, 5),
            (
                PlantedRepeats::generate(&RepeatSpec::dna_tandem(25, 8), 3).seq,
                &dna,
                10,
            ),
            (
                PlantedRepeats::generate(&RepeatSpec::protein_sparse_island(12, 3), 7).seq,
                &protein,
                3,
            ),
            (
                PlantedRepeats::generate(&RepeatSpec::dna_sparse_island(12, 4), 2).seq,
                &dna,
                6,
            ),
            // The benchmark's dense chain (one family, fixed domain
            // and linker lengths) and its tandem DNA, at smaller sizes.
            (
                repro_seqgen::titin::titin_like_with(200, 3, &dense),
                &protein,
                12,
            ),
            (
                PlantedRepeats::generate(&RepeatSpec::dna_tandem(25, 8), 11).seq,
                &dna,
                18,
            ),
        ];
        let mut periodic = 0;
        for (seq, scoring, count) in &inputs {
            let tops = find_top_alignments(seq, scoring, *count).alignments;
            // Every prefix of the tops: more candidate sets, including
            // the empty and the single-alignment one.
            for n in 0..=tops.len() {
                let got = estimate_period(&tops[..n]);
                assert_eq!(got, estimate_period_scoring_twice(&tops[..n]), "{n} tops");
                periodic += usize::from(got.is_some());
            }
        }
        assert!(periodic > 10, "only {periodic} periodic cases exercised");
    }

    #[test]
    fn non_repetitive_sequence_yields_little() {
        let seq = Seq::dna("ACGTTGCA").unwrap();
        let scoring = Scoring::dna_example();
        let tops = find_top_alignments(&seq, &scoring, 3);
        let report = delineate(&seq, &tops.alignments);
        // Whatever tiny alignments exist, the report stays consistent.
        assert!(report.copies() <= 4);
        assert!(report.aligned_residues <= seq.len());
    }
}
