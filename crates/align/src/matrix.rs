//! Exchange (substitution) matrices.
//!
//! The paper's "exchange matrix" `E` scores a pair of residues: high for
//! identical or similar residues, low or negative for unrelated ones
//! (§2.1). Internally a flat `k × k` table of [`Score`] indexed by residue
//! codes, so the hot loop does a single bounds-checked load.

use crate::alphabet::Alphabet;
use crate::Score;
use std::fmt;

/// A symmetric residue-pair scoring table for one [`Alphabet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeMatrix {
    alphabet: Alphabet,
    k: usize,
    table: Vec<Score>,
}

impl ExchangeMatrix {
    /// The simplistic matrix of the paper's worked example: `+match_score`
    /// for identical residues, `mismatch_score` otherwise. The ambiguity
    /// code (`N`/`X`) scores `mismatch_score` against everything,
    /// including itself, so unknown residues never *create* signal.
    pub fn match_mismatch(alphabet: Alphabet, match_score: Score, mismatch_score: Score) -> Self {
        let k = alphabet.len();
        let unknown = alphabet.unknown_code() as usize;
        let mut table = vec![mismatch_score; k * k];
        for i in 0..k {
            if i != unknown {
                table[i * k + i] = match_score;
            }
        }
        ExchangeMatrix { alphabet, k, table }
    }

    /// Build from an arbitrary scoring function. The function is required
    /// to be symmetric; this is checked once at construction.
    pub fn from_fn(alphabet: Alphabet, f: impl Fn(u8, u8) -> Score) -> Self {
        let k = alphabet.len();
        let mut table = vec![0; k * k];
        for i in 0..k {
            for j in 0..k {
                table[i * k + j] = f(i as u8, j as u8);
            }
        }
        let m = ExchangeMatrix { alphabet, k, table };
        m.assert_symmetric();
        m
    }

    /// The BLOSUM62 protein matrix (the de-facto standard for protein
    /// local alignment). `X` rows/columns score −1 against everything.
    pub fn blosum62() -> Self {
        // Row order ARNDCQEGHILKMFPSTWYV; X handled separately.
        const B62: [[Score; 20]; 20] = [
            [
                4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0,
            ],
            [
                -1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3,
            ],
            [
                -2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3,
            ],
            [
                -2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3,
            ],
            [
                0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1,
            ],
            [
                -1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2,
            ],
            [
                -1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2,
            ],
            [
                0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3,
            ],
            [
                -2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3,
            ],
            [
                -1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3,
            ],
            [
                -1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1,
            ],
            [
                -1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2,
            ],
            [
                -1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1,
            ],
            [
                -2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1,
            ],
            [
                -1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2,
            ],
            [
                1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2,
            ],
            [
                0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0,
            ],
            [
                -3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3,
            ],
            [
                -2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -1,
            ],
            [
                0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -1, 4,
            ],
        ];
        ExchangeMatrix::from_fn(Alphabet::Protein, |a, b| {
            let (a, b) = (a as usize, b as usize);
            if a >= 20 || b >= 20 {
                -1
            } else {
                B62[a][b]
            }
        })
    }

    /// A reasonable default DNA matrix: +2 match, −1 mismatch (the paper's
    /// example scheme), `N` neutral-negative.
    pub fn dna_default() -> Self {
        ExchangeMatrix::match_mismatch(Alphabet::Dna, 2, -1)
    }

    /// Parse an NCBI-format matrix file (as distributed with BLAST:
    /// `#` comments, a header line of letters, then one labelled row per
    /// letter). Letters absent from `alphabet` are ignored; alphabet
    /// letters absent from the file default to −1.
    ///
    /// The table must come out symmetric — a file that is not, or that
    /// lists a letter's column but not its row (one side then keeps the
    /// −1 default), is rejected with [`MatrixParseError::Asymmetric`].
    /// This is where symmetry is enforced for user input ([`Self::from_fn`]
    /// enforces it for built-in tables): the reversed-sweep split bound
    /// of `repro-core::seed` is admissible only because reversing a path
    /// swaps the two residues of every matched pair without changing
    /// its score.
    pub fn parse_ncbi(alphabet: Alphabet, text: &str) -> Result<Self, MatrixParseError> {
        let mut header: Option<Vec<u8>> = None;
        let k = alphabet.len();
        let mut table = vec![-1; k * k];
        let code_of = |ch: u8| -> Option<u8> {
            let up = ch.to_ascii_uppercase();
            alphabet
                .letters()
                .iter()
                .position(|&l| l == up)
                .map(|p| p as u8)
        };
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            match &header {
                None => {
                    let cols: Vec<u8> = line
                        .split_whitespace()
                        .map(|f| {
                            if f.len() == 1 {
                                Ok(f.as_bytes()[0])
                            } else {
                                Err(MatrixParseError::BadHeader(lineno + 1))
                            }
                        })
                        .collect::<Result<_, _>>()?;
                    header = Some(cols);
                }
                Some(cols) => {
                    let row_letter = fields
                        .next()
                        .ok_or(MatrixParseError::BadRow(lineno + 1))?
                        .as_bytes();
                    if row_letter.len() != 1 {
                        return Err(MatrixParseError::BadRow(lineno + 1));
                    }
                    let Some(ri) = code_of(row_letter[0]) else {
                        continue; // letter not in our alphabet (e.g. B, Z, *)
                    };
                    for (col, field) in cols.iter().zip(fields) {
                        let v: Score = field
                            .parse()
                            .map_err(|_| MatrixParseError::BadValue(lineno + 1))?;
                        if let Some(ci) = code_of(*col) {
                            table[ri as usize * k + ci as usize] = v;
                        }
                    }
                }
            }
        }
        if header.is_none() {
            return Err(MatrixParseError::Empty);
        }
        let m = ExchangeMatrix { alphabet, k, table };
        match m.first_asymmetry() {
            Some((i, j)) => {
                let letter = |code: usize| alphabet.letters()[code] as char;
                Err(MatrixParseError::Asymmetric {
                    a: letter(j),
                    b: letter(i),
                })
            }
            None => Ok(m),
        }
    }

    /// The alphabet this matrix scores.
    #[inline]
    pub fn alphabet(&self) -> Alphabet {
        self.alphabet
    }

    /// Score of residue codes `a` vs `b`.
    #[inline(always)]
    pub fn score(&self, a: u8, b: u8) -> Score {
        self.table[a as usize * self.k + b as usize]
    }

    /// One full row of the table (all scores against residue `a`).
    ///
    /// The SIMD kernels use this to hoist the exchange lookup out of the
    /// lane loop: all lanes align the same residue pair (paper §4.1).
    #[inline(always)]
    pub fn row(&self, a: u8) -> &[Score] {
        &self.table[a as usize * self.k..(a as usize + 1) * self.k]
    }

    /// Largest score in the table (used for score-bound reasoning, such
    /// as the `i16` bound of the row and lane kernels).
    pub fn max_score(&self) -> Score {
        self.table.iter().copied().max().unwrap_or(0)
    }

    /// The first code pair `(i, j)`, `j < i`, scored differently in the
    /// two orders (row-major), if any.
    fn first_asymmetry(&self) -> Option<(usize, usize)> {
        (0..self.k)
            .flat_map(|i| (0..i).map(move |j| (i, j)))
            .find(|&(i, j)| self.table[i * self.k + j] != self.table[j * self.k + i])
    }

    fn assert_symmetric(&self) {
        if let Some((i, j)) = self.first_asymmetry() {
            panic!("exchange matrix must be symmetric (violated at {i},{j})");
        }
    }
}

impl fmt::Display for ExchangeMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "  ")?;
        for &l in self.alphabet.letters() {
            write!(f, " {:>3}", l as char)?;
        }
        writeln!(f)?;
        for (i, &l) in self.alphabet.letters().iter().enumerate() {
            write!(f, " {}", l as char)?;
            for j in 0..self.k {
                write!(f, " {:>3}", self.table[i * self.k + j])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Errors from [`ExchangeMatrix::parse_ncbi`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixParseError {
    /// The header line could not be parsed (multi-character column label).
    BadHeader(usize),
    /// A data row was missing its row label.
    BadRow(usize),
    /// A score failed integer parsing.
    BadValue(usize),
    /// No header line found at all.
    Empty,
    /// Letters `a` and `b` score differently in the two orders (also
    /// what a file listing a letter's column but not its row produces).
    Asymmetric {
        /// The offending pair's earlier letter in alphabet code order.
        a: char,
        /// The later letter.
        b: char,
    },
}

impl fmt::Display for MatrixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixParseError::BadHeader(l) => write!(f, "line {l}: bad matrix header"),
            MatrixParseError::BadRow(l) => write!(f, "line {l}: bad matrix row"),
            MatrixParseError::BadValue(l) => write!(f, "line {l}: bad score value"),
            MatrixParseError::Empty => write!(f, "no matrix header found"),
            MatrixParseError::Asymmetric { a, b } => {
                write!(f, "matrix is not symmetric: {a}/{b} and {b}/{a} differ")
            }
        }
    }
}

impl std::error::Error for MatrixParseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::PROTEIN_LETTERS;

    #[test]
    fn match_mismatch_scores() {
        let m = ExchangeMatrix::dna_default();
        let a = Alphabet::Dna.encode(b'A').unwrap();
        let c = Alphabet::Dna.encode(b'C').unwrap();
        let n = Alphabet::Dna.encode(b'N').unwrap();
        assert_eq!(m.score(a, a), 2);
        assert_eq!(m.score(a, c), -1);
        assert_eq!(m.score(n, n), -1, "N must not match itself");
    }

    #[test]
    fn blosum62_known_entries() {
        let m = ExchangeMatrix::blosum62();
        let code = |ch: u8| Alphabet::Protein.encode(ch).unwrap();
        assert_eq!(m.score(code(b'W'), code(b'W')), 11);
        assert_eq!(m.score(code(b'A'), code(b'A')), 4);
        assert_eq!(m.score(code(b'C'), code(b'C')), 9);
        assert_eq!(m.score(code(b'E'), code(b'D')), 2);
        assert_eq!(m.score(code(b'W'), code(b'G')), -2);
        assert_eq!(m.score(code(b'X'), code(b'A')), -1);
        assert_eq!(m.max_score(), 11);
    }

    #[test]
    fn blosum62_is_symmetric_with_positive_diagonal() {
        let m = ExchangeMatrix::blosum62();
        for i in 0..20u8 {
            assert!(m.score(i, i) > 0, "diagonal must be positive");
            for j in 0..21u8 {
                assert_eq!(m.score(i, j), m.score(j, i));
            }
        }
    }

    #[test]
    fn row_agrees_with_score() {
        let m = ExchangeMatrix::blosum62();
        for a in 0..Alphabet::Protein.len() as u8 {
            let row = m.row(a);
            for b in 0..Alphabet::Protein.len() as u8 {
                assert_eq!(row[b as usize], m.score(a, b));
            }
        }
    }

    #[test]
    fn parse_ncbi_roundtrip_fragment() {
        let text = "# comment\n   A  R  N\nA  4 -1 -2\nR -1  5  0\nN -2  0  6\n";
        let m = ExchangeMatrix::parse_ncbi(Alphabet::Protein, text).unwrap();
        let code = |ch: u8| Alphabet::Protein.encode(ch).unwrap();
        assert_eq!(m.score(code(b'A'), code(b'A')), 4);
        assert_eq!(m.score(code(b'R'), code(b'N')), 0);
        // Letters absent from the file default to -1.
        assert_eq!(m.score(code(b'W'), code(b'W')), -1);
    }

    #[test]
    fn parse_ncbi_rejects_garbage() {
        assert_eq!(
            ExchangeMatrix::parse_ncbi(Alphabet::Protein, "# only comments\n"),
            Err(MatrixParseError::Empty)
        );
        let bad = "A R\nA x 1\nR 1 0\n";
        assert!(matches!(
            ExchangeMatrix::parse_ncbi(Alphabet::Protein, bad),
            Err(MatrixParseError::BadValue(_))
        ));
    }

    #[test]
    fn parse_ncbi_rejects_asymmetric_and_truncated_tables() {
        let skewed = "   A  R\nA  4 -1\nR  2  5\n";
        assert_eq!(
            ExchangeMatrix::parse_ncbi(Alphabet::Protein, skewed),
            Err(MatrixParseError::Asymmetric { a: 'A', b: 'R' })
        );
        // Column N present, row N missing: N/A keeps the −1 default
        // while A/N reads −2.
        let truncated = "   A  R  N\nA  4 -1 -2\nR -1  5  0\n";
        let err = ExchangeMatrix::parse_ncbi(Alphabet::Protein, truncated).unwrap_err();
        assert_eq!(err, MatrixParseError::Asymmetric { a: 'A', b: 'N' });
        assert_eq!(
            err.to_string(),
            "matrix is not symmetric: A/N and N/A differ"
        );
    }

    #[test]
    fn display_contains_all_letters() {
        let m = ExchangeMatrix::blosum62();
        let s = format!("{m}");
        for &l in PROTEIN_LETTERS {
            assert!(s.contains(l as char));
        }
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn from_fn_asserts_symmetry() {
        ExchangeMatrix::from_fn(Alphabet::Dna, |a, b| (a as Score) - (b as Score));
    }
}
