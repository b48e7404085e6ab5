//! # repro-align — sequence-alignment substrate
//!
//! This crate implements everything the Repro top-alignment algorithm
//! (Romein, Heringa & Bal, *A Million-Fold Speed Improvement in Genomic
//! Repeats Detection*, SC 2003) needs from classical sequence alignment:
//!
//! * [`alphabet`] — DNA and protein alphabets with compact residue codes;
//! * [`seq`] — validated, alphabet-tagged sequences;
//! * [`fasta`] — FASTA reading and writing;
//! * [`matrix`] — exchange (substitution) matrices: match/mismatch,
//!   BLOSUM62, arbitrary tables, and an NCBI-format parser;
//! * [`scoring`] — the affine gap model used throughout the paper
//!   (`gap(len) = open + extend * len`);
//! * [`kernel`] — the alignment kernels themselves:
//!   * [`kernel::row`] — one row of the paper's Figure-3 recurrence from
//!     the row above it, vectorised along the row (the one recurrence body
//!     under `gotoh`, `full` and `tri`),
//!   * [`kernel::gotoh`] — the `O(1)`-per-cell Smith–Waterman recurrence of
//!     the paper's Figure 3 (score-only, linear memory, returns the bottom
//!     row needed by the top-alignment machinery),
//!   * [`kernel::naive`] — the `O(n)`-per-cell recurrence of Equation 1
//!     (used by the old-algorithm baseline and as a differential oracle),
//!   * [`kernel::full`] — full-matrix computation plus traceback,
//!   * [`kernel::striped`] — the cache-aware vertical-striping variant
//!     (paper §4.1),
//!   * [`kernel::nw`] — Needleman–Wunsch global alignment (paper §2.1),
//!   * [`kernel::linmem`] — linear-memory local traceback
//!     (end-point location + divide and conquer);
//! * [`mask`] — cell masks: the hook through which the override triangle
//!   forces already-used residue pairs to zero;
//! * [`alignment`] — alignment paths, scores and pretty-printing.
//!
//! ## The recurrence
//!
//! All local kernels compute the *gaps-between-matches* form of
//! Smith–Waterman used by the paper (its Equation 1): the value of cell
//! `(i, j)` is the score of the best local alignment that **ends with the
//! aligned pair** `(aᵢ, bⱼ)`:
//!
//! ```text
//! M[i][j] = max(0, E(aᵢ,bⱼ) + max( M[i−1][j−1],
//!                                  max_{g≥1} M[i−1][j−1−g] − gap(g),
//!                                  max_{g≥1} M[i−1−g][j−1] − gap(g) ))
//! gap(g)  = open + extend · g
//! ```
//!
//! Because every positive cell ends in a match, overriding a *residue pair*
//! (the core idea of the paper) is exactly "force one cell to zero", and the
//! best alignment in the matrix always ends in some matched pair — which is
//! what makes the bottom-row argument of the paper's Appendix A work.
//!
//! The worked example of the paper (Figure 2, `CTTACAGA` × `ATTGCGA`,
//! +2/−1 with gap open 2 and extend 1, best score 6) is reproduced verbatim
//! in this crate's tests.

#![warn(missing_docs)]

pub mod alignment;
pub mod alphabet;
pub mod checkpoint;
pub mod fasta;
pub mod kernel;
pub mod mask;
pub mod matrix;
pub mod profile;
pub mod scoring;
pub mod seq;

pub use alignment::{AlignedPair, Alignment, GapSide};
pub use alphabet::Alphabet;
pub use checkpoint::{Checkpoint, CheckpointStore, DEFAULT_CHECKPOINT_BUDGET};
pub use fasta::{parse_fasta, read_fasta, write_fasta, FastaRecord};
pub use kernel::full::{sw_align, sw_full, traceback, FullMatrix};
pub use kernel::gotoh::{sw_last_row, sw_last_row_resume, sw_score};
pub use kernel::linmem::{sw_align_linmem, traceback_in_box};
pub use kernel::naive::sw_last_row_naive;
pub use kernel::nw::{nw_align, nw_score, NwAlignment, NwOp};
pub use kernel::striped::{
    stripe_for_bytes, sw_last_row_striped, DEFAULT_STRIPE, STRIPE_L1_BUDGET,
};
pub use kernel::tri::{tri_initial_state, tri_self_sweep_resume};
pub use kernel::waterman_eggert::{is_shadow, waterman_eggert};
pub use kernel::{delta_entries, LastRow, Sides, StoredRow};
pub use mask::{CellMask, NoMask, SetMask};
pub use matrix::ExchangeMatrix;
pub use profile::{kmer_keys, QueryProfile, MAX_KMER_K};
pub use scoring::{GapPenalties, ScoreRangeError, Scoring};
pub use seq::Seq;

/// Scalar score type used by the reference kernels.
///
/// The SIMD kernels in `repro-simd` sweep a pack in saturating `i16`
/// (the paper's "shorts") only where a static score bound proves it
/// exact (`kernel::row::NarrowBody::exact_for`), else in `i32`; the
/// scalar reference uses `i32`, so differential tests compare against
/// unclamped values.
pub type Score = i32;

/// Sentinel for "no predecessor yet" in running gap maxima: `−2²⁹`.
///
/// ## Value ranges
///
/// Why no kernel sum can wrap and the sentinel can never change a
/// result, given [`Scoring::check_range`] (which the facade and the job
/// decoder enforce, with `s` the largest exchange-score magnitude and
/// `len` the sequence length): `s·len + open + ext·(len + 8) < 2²⁹`.
///
/// * Every matrix value is in `0 ..= s·len` — a cell is clamped at 0 and
///   a path has at most `len` pairs — and so is every diagonal `D` the
///   row step reads, seeds included.
/// * A real gap candidate is some `D − open − ext·g` with `1 ≤ g ≤ len`,
///   so it lies in `−(open + ext·len) ..= s·len`: strictly above
///   `NEG_INF`, and negative `MaxX`/`MaxY` values never win the `max3`
///   against `D ≥ 0`. The sentinel itself only ever meets `max`: the
///   first update of a gap maximum is `max(D − open, NEG_INF) − ext`,
///   which takes the real candidate. It is never decremented, so it
///   cannot drift towards `i32::MIN` however long the row or column.
/// * Both row-step bodies enter a candidate into the running maximum as
///   `D + ext·k`, with `k` counted from the start of the current chunk
///   (AVX2: 8 cells) or block (portable: 128 cells, and never more than
///   the row has) — at most `s·len + ext·len` — and carry the maximum
///   across that boundary already decayed, a real candidate from the
///   row's first cell on. No `ext·x` ramp over a whole row is formed.
/// * `pred + E ≥ −(open + ext·len) − s` and `≤ s·len + s`.
///
/// All of these are below `2²⁹` in magnitude, so every addition is
/// exact and the vectorised prefix maximum — `max` being associative —
/// equals the per-cell loop's bit for bit.
pub const NEG_INF: Score = i32::MIN / 4;
