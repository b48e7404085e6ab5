//! The row step ([`repro_align::kernel::row`]) and the three kernels
//! built on it, against the cell-by-cell recurrence.
//!
//! Two references: Figure 3's per-cell loop written out here in `i64`
//! (so an `i32` wrap inside a body would show up as a difference, and
//! so the inter-row state `MaxY` can be compared, not just the row),
//! and the `O(n)`-per-cell [`sw_last_row_naive`] kernel, which shares
//! nothing with the row step. Both bodies are driven directly through
//! [`Body::step`]; the kernels run whichever body the process selected
//! (the `portable-only` CI leg runs them on the portable one).

use proptest::prelude::*;
use repro_align::kernel::full::traceback;
use repro_align::kernel::row::Body;
use repro_align::{
    sw_full, sw_last_row, sw_last_row_naive, sw_last_row_resume, tri_initial_state,
    tri_self_sweep_resume, Alphabet, CellMask, ExchangeMatrix, GapPenalties, NoMask, Score,
    Scoring, SetMask, NEG_INF,
};

fn bodies() -> Vec<Body> {
    let mut all = vec![Body::PORTABLE];
    all.extend(Body::avx2());
    all
}

fn rng(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

/// A symmetric exchange matrix with entries drawn from `lo..=hi`.
fn random_symmetric(alphabet: Alphabet, lo: Score, hi: Score, seed: &mut u64) -> ExchangeMatrix {
    let k = alphabet.len();
    let span = (i64::from(hi) - i64::from(lo) + 1) as u64;
    let table: Vec<Score> = (0..k * k)
        .map(|_| (i64::from(lo) + (rng(seed) % span) as i64) as Score)
        .collect();
    ExchangeMatrix::from_fn(alphabet, |a, b| {
        let (a, b) = (a.min(b) as usize, a.max(b) as usize);
        table[a * k + b]
    })
}

fn scorings(seed: &mut u64) -> Vec<Scoring> {
    let mut all = vec![Scoring::dna_example(), Scoring::protein_default()];
    for (open, ext) in [(0, 1), (3, 2), (11, 1)] {
        let alphabet = if open == 3 {
            Alphabet::Dna
        } else {
            Alphabet::Protein
        };
        all.push(Scoring::new(
            random_symmetric(alphabet, -6, 9, seed),
            GapPenalties::new(open, ext),
        ));
    }
    all
}

/// Mostly the first residue, so most cells are positive and a wrong
/// gap maximum anywhere changes the rows below it.
fn random_codes(alphabet: Alphabet, len: usize, seed: &mut u64) -> Vec<u8> {
    let k = alphabet.len() as u64;
    (0..len)
        .map(|_| {
            if rng(seed).is_multiple_of(4) {
                (rng(seed) % k.min(20)) as u8
            } else {
                0
            }
        })
        .collect()
}

/// Figure 3's loop over one row, cell by cell, in `i64`.
fn step_cells(
    prev: &[Score],
    seed: Score,
    maxy: &mut [i64],
    e: &[Score],
    gaps: GapPenalties,
) -> (Vec<i64>, i64) {
    let (open, ext) = (i64::from(gaps.open), i64::from(gaps.extend));
    let mut maxx = i64::from(NEG_INF);
    let mut diag = i64::from(seed);
    let mut out = Vec::with_capacity(prev.len());
    let mut best = 0;
    for x in 0..prev.len() {
        let v = (diag.max(maxx).max(maxy[x]) + i64::from(e[x])).max(0);
        out.push(v);
        best = best.max(v);
        let cand = diag - open;
        maxx = cand.max(maxx) - ext;
        maxy[x] = cand.max(maxy[x]) - ext;
        diag = i64::from(prev[x]);
    }
    (out, best)
}

/// Drive `rows` consecutive steps of every body over `cols` columns
/// from the given starting state, against [`step_cells`].
fn check_steps(
    scoring: &Scoring,
    a: &[u8],
    b: &[u8],
    prev0: &[Score],
    maxy0: &[Score],
    seeds: &[Score],
) {
    let cols = b.len();
    for body in bodies() {
        let mut prev = prev0.to_vec();
        let mut maxy = maxy0.to_vec();
        let mut want_maxy: Vec<i64> = maxy0.iter().map(|&v| i64::from(v)).collect();
        for (y, &res) in a.iter().enumerate() {
            let e: Vec<Score> = b.iter().map(|&q| scoring.exch(res, q)).collect();
            let seed = seeds[y % seeds.len()];
            let (want, want_best) = step_cells(&prev, seed, &mut want_maxy, &e, scoring.gaps);
            let mut out = vec![-1; cols];
            let best = body.step(&prev, seed, &mut out, &mut maxy, &e, scoring.gaps);
            let got: Vec<i64> = out.iter().map(|&v| i64::from(v)).collect();
            let got_maxy: Vec<i64> = maxy.iter().map(|&v| i64::from(v)).collect();
            let ctx = format!("{} body, {cols} cols, row {y}", body.name());
            assert_eq!(got, want, "row: {ctx}");
            assert_eq!(got_maxy, want_maxy, "MaxY: {ctx}");
            assert_eq!(i64::from(best), want_best, "row maximum: {ctx}");
            prev = out;
        }
    }
}

/// Column counts around every boundary a body has: the AVX2 chunk (8),
/// its tail hand-over, and the portable staging block (128).
fn tail_lengths() -> Vec<usize> {
    let mut lens: Vec<usize> = (0..=17).collect();
    lens.extend([31, 32, 33, 127, 128, 129, 130, 257]);
    lens
}

#[test]
fn both_bodies_match_the_per_cell_loop_at_every_tail_length() {
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    for scoring in scorings(&mut seed) {
        let alphabet = scoring.exchange.alphabet();
        for cols in tail_lengths() {
            for rows in [1usize, 5] {
                let a = random_codes(alphabet, rows, &mut seed);
                let b = random_codes(alphabet, cols, &mut seed);
                // A fresh sweep's state, and a mid-matrix one: arbitrary
                // non-negative cells, gap maxima anywhere a sweep can
                // leave them (untouched, negative, positive).
                check_steps(&scoring, &a, &b, &vec![0; cols], &vec![NEG_INF; cols], &[0]);
                let prev: Vec<Score> = (0..cols)
                    .map(|_| (rng(&mut seed) % 3 * (rng(&mut seed) % 40)) as Score)
                    .collect();
                let maxy: Vec<Score> = (0..cols)
                    .map(|_| match rng(&mut seed) % 3 {
                        0 => NEG_INF,
                        _ => (rng(&mut seed) % 60) as Score - 25,
                    })
                    .collect();
                check_steps(&scoring, &a, &b, &prev, &maxy, &[0, 17, 3]);
            }
        }
    }
}

/// The per-cell sweep with a per-cell mask probe: the bottom row plus
/// the `(m, maxy)` state entering every row — what a capture must hold.
#[allow(clippy::type_complexity)]
fn reference_sweep<M: CellMask>(
    a: &[u8],
    b: &[u8],
    scoring: &Scoring,
    mask: M,
) -> (Vec<Score>, Vec<(Vec<Score>, Vec<Score>)>) {
    let cols = b.len();
    let mut m = vec![0 as Score; cols];
    let mut maxy = vec![i64::from(NEG_INF); cols];
    let mut states = Vec::new();
    for (y, &res) in a.iter().enumerate() {
        states.push((m.clone(), maxy.iter().map(|&v| v as Score).collect()));
        let e: Vec<Score> = b.iter().map(|&q| scoring.exch(res, q)).collect();
        let (row, _) = step_cells(&m, 0, &mut maxy, &e, scoring.gaps);
        for (x, v) in row.into_iter().enumerate() {
            m[x] = if mask.is_overridden(y, x) {
                0
            } else {
                v as Score
            };
        }
    }
    (m, states)
}

/// The shapes a row's hit list can take against the chunked bodies.
fn crafted_masks(rows: usize, cols: usize) -> Vec<SetMask> {
    let last = cols.saturating_sub(1);
    let y = rows / 2;
    let mut masks = vec![
        SetMask::default(),
        SetMask::from_cells([(0, 0), (y, 0)]),
        SetMask::from_cells([(0, last), (y, last), (rows - 1, last)]),
        SetMask::from_cells([(y, 0), (y, 1.min(last)), (y, 2.min(last))]),
        SetMask::from_cells((0..cols).map(|x| (y, x))),
        SetMask::from_cells((0..rows).flat_map(|y| (0..cols).map(move |x| (y, x)))),
    ];
    if cols > 8 {
        masks.push(SetMask::from_cells([(0, 7), (0, 8), (y, 8), (rows - 1, 7)]));
    }
    masks
}

#[test]
fn last_row_kernel_matches_naive_and_resumes_from_every_capture() {
    let mut seed = 0x0f1e_2d3c_4b5a_6978u64;
    for scoring in scorings(&mut seed) {
        let alphabet = scoring.exchange.alphabet();
        for cols in [1usize, 7, 8, 9, 16, 17, 33] {
            for rows in [1usize, 6] {
                let a = random_codes(alphabet, rows, &mut seed);
                let b = random_codes(alphabet, cols, &mut seed);
                for mask in crafted_masks(rows, cols) {
                    let want = sw_last_row_naive(&a, &b, &scoring, &mask);
                    assert_eq!(sw_last_row(&a, &b, &scoring, &mask), want);
                    let (bottom, states) = reference_sweep(&a, &b, &scoring, &mask);
                    assert_eq!(bottom, want.row);

                    let capture_rows: Vec<usize> = (0..rows).collect();
                    let mut snaps = Vec::new();
                    let mut maxy = vec![NEG_INF; cols];
                    let swept = sw_last_row_resume(
                        &a,
                        &b,
                        &scoring,
                        &mask,
                        0,
                        vec![0; cols],
                        &mut maxy,
                        &capture_rows,
                        &mut |y, m, my| snaps.push((y, m.to_vec(), my.to_vec())),
                    );
                    assert_eq!(swept, want);
                    assert_eq!(snaps.len(), rows);
                    for (y, m, mut my) in snaps {
                        assert_eq!((&m, &my), (&states[y].0, &states[y].1), "capture {y}");
                        let resumed = sw_last_row_resume(
                            &a,
                            &b,
                            &scoring,
                            &mask,
                            y,
                            m,
                            &mut my,
                            &[],
                            &mut |_, _, _| {},
                        );
                        assert_eq!(resumed.row, want.row, "resume at row {y}");
                        assert_eq!(resumed.best_in_row, want.best_in_row);
                        assert_eq!(resumed.best_in_row_col, want.best_in_row_col);
                    }
                }
            }
        }
    }
}

#[test]
fn full_matrix_matches_naive_in_every_cell_and_traces_back_the_same_path() {
    let mut seed = 0x1234_5678_9abc_def1u64;
    for scoring in scorings(&mut seed) {
        let alphabet = scoring.exchange.alphabet();
        for (rows, cols) in [(1usize, 1usize), (1, 9), (7, 8), (9, 17), (12, 33)] {
            let a = random_codes(alphabet, rows, &mut seed);
            let b = random_codes(alphabet, cols, &mut seed);
            for mask in crafted_masks(rows, cols) {
                let matrix = sw_full(&a, &b, &scoring, &mask);
                for y in 0..rows {
                    let upto = sw_last_row_naive(&a[..=y], &b, &scoring, &mask);
                    let row: Vec<Score> = (0..cols).map(|x| matrix.get(y, x)).collect();
                    assert_eq!(row, upto.row, "row {y} of {rows} x {cols}");
                }
                // The traceback is a function of the matrix alone, so
                // equal cells mean equal paths; check the one from the
                // best cell is a path worth its score.
                if let Some((y, x, score)) = matrix.best_cell() {
                    let al = traceback(&matrix, (y, x), &a, &b, &scoring);
                    assert!(al.is_well_formed());
                    assert_eq!(al.score, score);
                    assert_eq!(al.rescore(&a, &b, &scoring), score);
                    assert!(al.pairs.iter().all(|p| !mask.is_overridden(p.row, p.col)));
                }
            }
        }
    }
}

#[test]
fn triangular_sweep_matches_naive_in_every_row_and_resumes_from_each() {
    let mut seed = 0x7f4a_7c15_9e37_79b9u64;
    for scoring in scorings(&mut seed) {
        let alphabet = scoring.exchange.alphabet();
        for len in [0usize, 1, 2, 3, 9, 10, 17, 26, 40] {
            let codes = random_codes(alphabet, len, &mut seed);
            // Random pairs p < q, plus (long enough sequences) the first
            // and last column of a row and a run across a chunk edge.
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            if len >= 2 {
                for _ in 0..len {
                    let p = rng(&mut seed) as usize % (len - 1);
                    pairs.push((p, p + 1 + rng(&mut seed) as usize % (len - p - 1)));
                }
            }
            if len > 12 {
                pairs.extend([(0, 1), (0, len - 1), (2, 10), (2, 11), (2, 12)]);
            }
            for pairs in [Vec::new(), pairs] {
                let mask = SetMask::from_cells(pairs.iter().copied());
                // The triangle is the square self-comparison with every
                // cell on or below the diagonal forced to zero.
                let lower = (0..len).flat_map(|y| (0..=y).map(move |x| (y, x)));
                let square = SetMask::from_cells(lower.chain(pairs.iter().copied()));

                let (mut m, mut maxy) = tri_initial_state(len);
                let mut states = Vec::new();
                let cells = tri_self_sweep_resume(
                    &codes,
                    &scoring,
                    &mask,
                    0,
                    &mut m,
                    &mut maxy,
                    &mut |_, row, my| states.push((row.to_vec(), my.to_vec())),
                );
                assert_eq!(cells, (len * len.saturating_sub(1) / 2) as u64);
                assert_eq!(states.len(), len);
                for (i, (row, _)) in states.iter().enumerate() {
                    let want = sw_last_row_naive(&codes[..=i], &codes, &scoring, &square);
                    assert_eq!(row[i + 1..], want.row[i + 1..], "tri row {i} of {len}");
                }
                for start in 1..len {
                    let (mut m, mut maxy) = states[start - 1].clone();
                    tri_self_sweep_resume(
                        &codes,
                        &scoring,
                        &mask,
                        start,
                        &mut m,
                        &mut maxy,
                        &mut |i, row, my| {
                            assert_eq!(row[i + 1..], states[i].0[i + 1..], "resumed row {i}");
                            assert_eq!(my[i + 1..], states[i].1[i + 1..], "resumed MaxY {i}");
                        },
                    );
                }
            }
        }
    }
}

/// Gap penalties that stress a different term of the range bound each.
fn arb_gaps() -> impl Strategy<Value = (Score, Score)> {
    (0usize..5, 1i32..1000).prop_map(|(shape, small)| match shape {
        0 => (0, 1),
        1 => (small, 1),
        2 => (1 << 27, small),
        3 => (0, 1 << 21),
        _ => (small, small),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// At the edge of `Scoring::check_range` — scores as large as the
    /// gap costs and lengths leave room for — both bodies still equal
    /// the `i64` loop: nothing wrapped, and the sentinel never won.
    #[test]
    fn both_bodies_are_exact_at_the_i32_edge(
        (rows, cols) in (1usize..6, 1usize..40),
        (open, ext) in arb_gaps(),
        matrix_seed in 0u64..u64::MAX,
        all_positive in 0usize..2,
    ) {
        let len = rows + cols; // the sequence a split of this shape comes from
        let room = (1i64 << 29) - 1 - i64::from(open) - i64::from(ext) * (len as i64 + 8);
        let s = (room / len as i64) as Score;
        prop_assume!(s >= 1);
        let mut seed = matrix_seed | 1;
        let lo = if all_positive == 1 { s - s / 8 } else { -s };
        let exchange = random_symmetric(Alphabet::Dna, lo, s, &mut seed);
        let scoring = Scoring::new(exchange, GapPenalties::new(open, ext));
        prop_assert!(scoring.check_range(len).is_ok());

        let a = random_codes(Alphabet::Dna, rows, &mut seed);
        let b = random_codes(Alphabet::Dna, cols, &mut seed);
        check_steps(&scoring, &a, &b, &vec![0; cols], &vec![NEG_INF; cols], &[0]);
        // And through a kernel, against the kernel that shares no code.
        let want = sw_last_row_naive(&a, &b, &scoring, NoMask);
        prop_assert_eq!(sw_last_row(&a, &b, &scoring, NoMask), want);
    }
}
