//! Property-based tests over the alignment kernels.
//!
//! Strategy: generate small random sequence pairs, scoring schemes and
//! masks, and check that every kernel agrees with every other and with
//! independent oracles. Sizes stay small (≤ 24) because the naive kernel
//! is cubic, but the properties quantify over structure, not size.

use proptest::prelude::*;
use repro_align::fasta::{format_fasta, FastaError};
use repro_align::kernel::full::{sw_align, sw_full};
use repro_align::kernel::linmem::sw_align_linmem;
use repro_align::{
    parse_fasta, read_fasta, sw_last_row, sw_last_row_naive, sw_last_row_striped, Alphabet,
    ExchangeMatrix, FastaRecord, GapPenalties, NoMask, Scoring, Seq, SetMask,
};

fn arb_dna(max_len: usize) -> impl Strategy<Value = Seq> {
    prop::collection::vec(0u8..4, 0..=max_len)
        .prop_map(|codes| Seq::from_codes(Alphabet::Dna, codes))
}

fn arb_scoring() -> impl Strategy<Value = Scoring> {
    (1i32..=4, -3i32..=0, 0i32..=4, 1i32..=3).prop_map(|(m, mm, open, ext)| {
        Scoring::new(
            ExchangeMatrix::match_mismatch(Alphabet::Dna, m, mm),
            GapPenalties::new(open, ext),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The incremental (Figure 3) and naive (Equation 1) kernels compute
    /// bit-identical results, masked or not.
    #[test]
    fn gotoh_equals_naive(
        (a, b, s) in (arb_dna(20), arb_dna(20), arb_scoring()),
        seed_mask in prop::collection::vec((0usize..20, 0usize..20), 0..6),
    ) {
        let mask = SetMask::from_cells(seed_mask);
        let fast = sw_last_row(a.codes(), b.codes(), &s, &mask);
        let naive = sw_last_row_naive(a.codes(), b.codes(), &s, &mask);
        prop_assert_eq!(fast, naive);
    }

    /// Striping is a pure traversal-order change.
    #[test]
    fn striped_equals_row_major(
        (a, b, s) in (arb_dna(24), arb_dna(24), arb_scoring()),
        stripe in 1usize..30,
    ) {
        let reference = sw_last_row(a.codes(), b.codes(), &s, NoMask);
        let striped = sw_last_row_striped(a.codes(), b.codes(), &s, NoMask, stripe);
        prop_assert_eq!(reference, striped);
    }

    /// The full matrix summarises to exactly the score-only result.
    #[test]
    fn full_summary_equals_last_row(
        (a, b, s) in (arb_dna(20), arb_dna(20), arb_scoring()),
    ) {
        let full = sw_full(a.codes(), b.codes(), &s, NoMask).summarize();
        let fast = sw_last_row(a.codes(), b.codes(), &s, NoMask);
        prop_assert_eq!(full, fast);
    }

    /// A traced-back path independently rescores to the matrix score, and
    /// is structurally well formed.
    #[test]
    fn traceback_rescores_to_matrix_score(
        (a, b, s) in (arb_dna(20), arb_dna(20), arb_scoring()),
    ) {
        let al = sw_align(a.codes(), b.codes(), &s, NoMask);
        prop_assert!(al.is_well_formed());
        if !al.is_empty() {
            prop_assert_eq!(al.rescore(a.codes(), b.codes(), &s), al.score);
            let best = sw_last_row(a.codes(), b.codes(), &s, NoMask).best;
            prop_assert_eq!(al.score, best);
        }
    }

    /// Masked traceback never touches a masked cell and still rescores.
    #[test]
    fn masked_traceback_avoids_mask(
        (a, b, s) in (arb_dna(18), arb_dna(18), arb_scoring()),
        seed_mask in prop::collection::vec((0usize..18, 0usize..18), 0..8),
    ) {
        let mask = SetMask::from_cells(seed_mask);
        let al = sw_align(a.codes(), b.codes(), &s, &mask);
        use repro_align::CellMask;
        for p in &al.pairs {
            prop_assert!(!mask.is_overridden(p.row, p.col),
                "path goes through masked cell ({}, {})", p.row, p.col);
        }
        if !al.is_empty() {
            prop_assert_eq!(al.rescore(a.codes(), b.codes(), &s), al.score);
        }
    }

    /// Linear-memory traceback agrees with the full traceback score.
    #[test]
    fn linmem_equals_full_score(
        (a, b, s) in (arb_dna(20), arb_dna(20), arb_scoring()),
    ) {
        let lin = sw_align_linmem(a.codes(), b.codes(), &s, NoMask);
        let full = sw_align(a.codes(), b.codes(), &s, NoMask);
        prop_assert_eq!(lin.score, full.score);
        if !lin.is_empty() {
            prop_assert_eq!(lin.rescore(a.codes(), b.codes(), &s), lin.score);
        }
    }

    /// Growing the mask can only lower (or keep) every bottom-row entry —
    /// the monotonicity the paper's upper-bound task queue relies on.
    #[test]
    fn masking_is_monotone(
        (a, b, s) in (arb_dna(20), arb_dna(20), arb_scoring()),
        m1 in prop::collection::vec((0usize..20, 0usize..20), 0..5),
        m2 in prop::collection::vec((0usize..20, 0usize..20), 0..5),
    ) {
        let small = SetMask::from_cells(m1.clone());
        let big = SetMask::from_cells(m1.into_iter().chain(m2));
        let rs = sw_last_row(a.codes(), b.codes(), &s, &small);
        let rb = sw_last_row(a.codes(), b.codes(), &s, &big);
        prop_assert!(rb.best <= rs.best);
        for (vs, vb) in rs.row.iter().zip(rb.row.iter()) {
            prop_assert!(vb <= vs, "bottom row rose under a larger mask");
        }
    }

    /// Alignment score is invariant under swapping the two sequences
    /// (the matrix transposes; gap penalties are symmetric).
    #[test]
    fn score_is_symmetric(
        (a, b, s) in (arb_dna(20), arb_dna(20), arb_scoring()),
    ) {
        let ab = sw_last_row(a.codes(), b.codes(), &s, NoMask).best;
        let ba = sw_last_row(b.codes(), a.codes(), &s, NoMask).best;
        prop_assert_eq!(ab, ba);
    }

    /// Alignment score is invariant under reversing both sequences.
    #[test]
    fn score_is_reversal_invariant(
        (a, b, s) in (arb_dna(20), arb_dna(20), arb_scoring()),
    ) {
        let fwd = sw_last_row(a.codes(), b.codes(), &s, NoMask).best;
        let ra = a.reversed();
        let rb = b.reversed();
        let rev = sw_last_row(ra.codes(), rb.codes(), &s, NoMask).best;
        prop_assert_eq!(fwd, rev);
    }

    /// Global (NW) score-only equals global traceback score, the path is
    /// complete, and no alignment beats the match-count upper bound.
    /// (Global is NOT bounded by the local kernel's best: the 3-state
    /// global model allows adjacent gaps, which the gaps-between-matches
    /// local recurrence of the paper forbids.)
    #[test]
    fn global_properties(
        (a, b, s) in (arb_dna(16), arb_dna(16), arb_scoring()),
    ) {
        let al = repro_align::nw_align(a.codes(), b.codes(), &s);
        prop_assert_eq!(repro_align::nw_score(a.codes(), b.codes(), &s), al.score);
        prop_assert_eq!(al.rescore(a.codes(), b.codes(), &s), al.score);
        prop_assert!(al.is_complete(a.len(), b.len()));
        // Every pair scores at most the exchange maximum; gaps only cost.
        let bound = a.len().min(b.len()) as i32 * s.exchange.max_score().max(0);
        prop_assert!(al.score <= bound);
        // Self-alignment with a positive diagonal is the identity.
        if !a.is_empty() {
            let self_score = repro_align::nw_score(a.codes(), a.codes(), &s);
            let identity: i32 = a.codes().iter().map(|&c| s.exch(c, c)).sum();
            prop_assert_eq!(self_score, identity);
        }
    }
}

/// Bytes a FASTA reader has to survive: record and line structure
/// (`>`, LF, CR), NUL, invalid UTF-8 (a lone continuation byte, a cut
/// two-byte lead, `0xFF`), blanks, residues of both alphabets and a
/// non-residue, drawn often, plus any byte at all.
fn arb_hostile_fasta() -> impl Strategy<Value = Vec<u8>> {
    const PICKS: &[u8] = b">\n\r\0\x80\xC3\xFF \tACGTNMWx9*";
    prop::collection::vec((0usize..2 * PICKS.len(), any::<u8>()), 0..96).prop_map(|draws| {
        draws
            .into_iter()
            .map(|(i, b)| PICKS.get(i).copied().unwrap_or(b))
            .collect()
    })
}

/// A record [`format_fasta`] writes and the reader must give back: an
/// id with no surrounding whitespace (the reader trims it) and no line
/// break, any residues.
fn arb_record(alphabet: Alphabet) -> impl Strategy<Value = FastaRecord> {
    let id = prop::collection::vec(0x20u8..0x7F, 0..16)
        .prop_map(|id| String::from_utf8(id).unwrap().trim().to_string());
    let codes = prop::collection::vec(0..alphabet.len() as u8, 0..40);
    (id, codes).prop_map(move |(id, codes)| FastaRecord {
        id,
        seq: Seq::from_codes(alphabet, codes),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Arbitrary bytes through `read_fasta` (and their lossy text through
    /// `parse_fasta`): a typed `FastaError` or records, never a panic,
    /// and whatever records come back survive `format_fasta` unchanged.
    #[test]
    fn hostile_fasta_is_typed_and_what_parses_round_trips(
        bytes in arb_hostile_fasta(),
        width in 1usize..70,
        protein in any::<bool>(),
    ) {
        let alphabet = if protein { Alphabet::Protein } else { Alphabet::Dna };
        let text = String::from_utf8_lossy(&bytes).into_owned();
        for parsed in [read_fasta(&bytes[..], alphabet), parse_fasta(&text, alphabet)] {
            match parsed {
                Ok(records) => {
                    let again = parse_fasta(&format_fasta(&records, width), alphabet);
                    prop_assert_eq!(again.unwrap(), records);
                }
                Err(FastaError::Io(e)) => {
                    prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                }
                Err(FastaError::MissingHeader(line) | FastaError::BadResidue { line, .. }) => {
                    prop_assert!(line >= 1);
                }
            }
        }
    }

    /// Valid records round-trip through `format_fasta` at any wrap width.
    #[test]
    fn valid_records_round_trip(
        dna in prop::collection::vec(arb_record(Alphabet::Dna), 0..4),
        protein in prop::collection::vec(arb_record(Alphabet::Protein), 0..4),
        width in 1usize..70,
    ) {
        for (records, alphabet) in [(dna, Alphabet::Dna), (protein, Alphabet::Protein)] {
            let text = format_fasta(&records, width);
            prop_assert_eq!(parse_fasta(&text, alphabet).unwrap(), records);
        }
    }
}
