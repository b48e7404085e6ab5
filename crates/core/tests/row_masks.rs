//! The segment-walking scalar kernels against the per-cell `naive`
//! reference under override triangles.
//!
//! The production kernels ask the mask once per row for its overridden
//! columns ([`repro_align::CellMask::row_hits`], answered by the
//! triangle's row index) and never probe single cells; the naive kernel
//! probes every cell of a plain `SetMask` built from the pair list. Any
//! disagreement between the row index, the split shift and the segment
//! walk shows up as a differing matrix.

use repro_align::kernel::row::Body;
use repro_align::{
    sw_align_linmem, sw_full, sw_last_row, sw_last_row_naive, sw_last_row_resume,
    tri_initial_state, tri_self_sweep_resume, Alphabet, ExchangeMatrix, GapPenalties, LastRow,
    Score, Scoring, Seq, SetMask, NEG_INF,
};
use repro_core::{find_top_alignments, OverrideTriangle, PairMask, ScoredSeq, SplitMask};

fn rng(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

/// Mostly `A`: nearly every cell is positive, so a zero in the wrong
/// place (or missing) changes the rows below it.
fn random_seq(len: usize, seed: &mut u64) -> Seq {
    let codes = (0..len)
        .map(|_| (rng(seed) % 16).saturating_sub(12) as u8)
        .collect();
    Seq::from_codes(Alphabet::Dna, codes)
}

fn triangle_of(m: usize, pairs: &[(usize, usize)]) -> OverrideTriangle {
    let mut t = OverrideTriangle::new(m);
    for &(p, q) in pairs {
        t.set(p, q);
    }
    t
}

/// The shapes a row's hit list can take, for a sequence of length `m`
/// viewed from split `r`: first and last column, adjacent hits, many
/// hits in one row, a row whose only hits lie left of the split, and
/// nothing at all.
fn crafted_triangles(m: usize, r: usize) -> Vec<OverrideTriangle> {
    assert!(r >= 4 && r + 6 < m);
    vec![
        triangle_of(m, &[]),
        triangle_of(m, &[(0, r), (1, m - 1), (r - 1, r), (r - 1, m - 1)]),
        triangle_of(m, &[(2, r + 2), (2, r + 3), (3, r + 3), (3, r + 4)]),
        triangle_of(m, &[(1, r), (1, r + 1), (1, r + 3), (1, r + 5), (1, m - 1)]),
        triangle_of(m, &[(0, 2), (0, r - 1), (1, 3), (2, r - 1)]),
        triangle_of(m, &[(0, r - 1), (0, r), (r - 2, r - 1), (r - 2, r + 1)]),
    ]
}

fn random_triangle(m: usize, pairs: usize, seed: &mut u64) -> OverrideTriangle {
    let mut t = OverrideTriangle::new(m);
    for _ in 0..pairs {
        let p = rng(seed) as usize % (m - 1);
        let q = p + 1 + rng(seed) as usize % (m - p - 1);
        t.set(p, q);
    }
    t
}

/// The triangle as a plain cell set in split-`r` matrix coordinates.
fn split_cells(t: &OverrideTriangle, r: usize) -> SetMask {
    SetMask::from_cells(
        t.iter()
            .filter(|&(p, q)| p < r && q >= r)
            .map(|(p, q)| (p, q - r)),
    )
}

fn check_split(seq: &Seq, scoring: &Scoring, t: &OverrideTriangle, r: usize) {
    let (a, b) = seq.split(r);
    let cols = b.len();
    let cells = split_cells(t, r);
    let mask = SplitMask::new(t, r);
    let want = sw_last_row_naive(a, b, scoring, &cells);

    assert_eq!(
        sw_last_row(a, b, scoring, mask),
        want,
        "sw_last_row r={r} {t:?}"
    );

    // Capture before every row on the way down, then resume from a
    // mid-matrix capture: the bottom row must not change by a bit.
    let capture_rows: Vec<usize> = (1..r).collect();
    let mut snaps = Vec::new();
    let mut maxy = vec![NEG_INF; cols];
    let swept = sw_last_row_resume(
        a,
        b,
        scoring,
        mask,
        0,
        vec![0; cols],
        &mut maxy,
        &capture_rows,
        &mut |y, m, my| snaps.push((y, m.to_vec(), my.to_vec())),
    );
    assert_eq!(swept, want, "captured sweep r={r}");
    for (y, m, mut my) in snaps.into_iter().skip(r / 2).take(2) {
        let resumed =
            sw_last_row_resume(a, b, scoring, mask, y, m, &mut my, &[], &mut |_, _, _| {});
        assert_eq!(resumed.row, want.row, "resume at row {y} of split {r}");
        assert_eq!(resumed.best_in_row_col, want.best_in_row_col);
    }

    // The traceback fill, row by row: row y of the full matrix is the
    // bottom row of the naive matrix over the first y + 1 prefix rows.
    let matrix = sw_full(a, b, scoring, mask);
    assert_eq!(matrix.summarize(), want, "sw_full r={r} {t:?}");
    for y in 0..r {
        let upto = sw_last_row_naive(&a[..=y], b, scoring, &cells);
        let row: Vec<Score> = (0..cols).map(|x| matrix.get(y, x)).collect();
        assert_eq!(row, upto.row, "sw_full row {y} of split {r}");
    }
}

#[test]
fn split_kernels_match_naive_on_crafted_triangles() {
    let scoring = Scoring::dna_example();
    let mut seed = 0x1234_5678_9abc_def1u64;
    let seq = random_seq(26, &mut seed);
    let m = seq.len();
    for r in [4, 9, m - 7] {
        for t in crafted_triangles(m, r) {
            for split in [r - 1, r, r + 1] {
                check_split(&seq, &scoring, &t, split);
            }
        }
    }
}

#[test]
fn split_kernels_match_naive_on_random_triangles() {
    let scoring = Scoring::dna_example();
    let mut seed = 0x0f1e_2d3c_4b5a_6978u64;
    for case in 0..10 {
        let seq = random_seq(12 + case * 2, &mut seed);
        let m = seq.len();
        let t = random_triangle(m, 3 + case * 4, &mut seed);
        for r in 1..m {
            check_split(&seq, &scoring, &t, r);
        }
    }
}

/// Split `r` through the production row loop against the naive kernel,
/// resumed at every row from 0 to `r`. A resume sweeps rows `y..r` only,
/// so its `best`/`best_row` are those rows' and its `cells` theirs; the
/// naive kernel gives each row as the bottom row over the rows above it.
fn check_every_resume(scored: &ScoredSeq, t: &OverrideTriangle, r: usize) {
    let (a, b) = scored.seq.split(r);
    let (cols, cells) = (b.len(), split_cells(t, r));
    let rows: Vec<LastRow> = (1..=r)
        .map(|n| sw_last_row_naive(&a[..n], b, scored.scoring, &cells))
        .collect();
    let want = &rows[r - 1];
    let (sides, mask) = (scored.split(r), SplitMask::new(t, r));
    let capture_rows: Vec<usize> = (1..r).collect();
    // Resume states: fresh at row 0, captured before rows 1..r, final at r.
    let mut snaps = vec![(0, vec![0; cols], vec![NEG_INF; cols])];
    let mut maxy = vec![NEG_INF; cols];
    let mut keep = |y: usize, m: &[Score], my: &[Score]| snaps.push((y, m.to_vec(), my.to_vec()));
    let swept = sides.last_row_resume(mask, 0, vec![0; cols], &mut maxy, &capture_rows, &mut keep);
    snaps.push((r, swept.row, maxy));
    for (y, m, mut my) in snaps {
        let best = rows[y..].iter().map(|l| l.best_in_row).max().unwrap_or(0);
        let first = rows[y..].iter().position(|l| l.best_in_row == best);
        let expect = LastRow {
            best,
            best_row: first.filter(|_| best > 0).map(|k| y + k),
            cells: ((r - y) * cols) as u64,
            ..want.clone()
        };
        let resumed = sides.last_row_resume(mask, y, m, &mut my, &[], &mut |_, _, _| {});
        assert_eq!(resumed, expect, "split {r}, resume at {y}, {t:?}");
    }

    // The linear-memory traceback ends at the full matrix's best cell.
    let lin = sw_align_linmem(a, b, scored.scoring, mask);
    let end = lin.pairs.last().map(|p| (p.row, p.col, lin.score));
    assert_eq!(
        end,
        sw_full(a, b, scored.scoring, &cells).best_cell(),
        "linmem split {r}"
    );
}

/// Every `{A,C}` string to length 9, every split, every resume row, under
/// an empty triangle and under the one the first top leaves, through both
/// row bodies: the paper's DNA scoring runs the `i16` one on every split
/// (where the process has it); a scoring 2 500 times larger per match
/// passes its bound at up to 3 pairs and not at 4, so the `i32` one runs
/// on the middle splits of the longer strings.
#[test]
fn row_loop_matches_naive_on_every_short_string() {
    let scaled = Scoring::new(
        ExchangeMatrix::match_mismatch(Alphabet::Dna, 5000, -2500),
        GapPenalties::new(5000, 1000),
    );
    let mut splits_per_body = [0usize; 2]; // [i32, i16]
    for scoring in [Scoring::dna_example(), scaled] {
        for len in 2..=9 {
            for bits in 0u32..1 << len {
                let codes = (0..len).map(|i| (bits >> i & 1) as u8).collect();
                let seq = Seq::from_codes(Alphabet::Dna, codes);
                let scored = ScoredSeq::new(&seq, &scoring);
                let tops = find_top_alignments(&seq, &scoring, 1).alignments;
                let first = tops.first().map_or(&[][..], |top| &top.pairs[..]);
                for t in [triangle_of(len, &[]), triangle_of(len, first)] {
                    for r in 1..len {
                        splits_per_body[usize::from(scored.split(r).narrow_body().is_some())] += 1;
                        check_every_resume(&scored, &t, r);
                    }
                }
            }
        }
    }
    let has_narrow = Body::selected().narrow(GapPenalties::new(2, 1)).is_some();
    assert!(
        splits_per_body[0] > 0 && (splits_per_body[1] > 0) == has_narrow,
        "splits per row body [i32, i16]: {splits_per_body:?}"
    );
}

/// The triangular self-sweep is the square self-comparison with every
/// cell on or below the diagonal forced to zero (those cells offer only
/// negative gap candidates next to the non-negative diagonal one), so
/// row `i` of the sweep is the naive kernel's bottom row over the first
/// `i + 1` rows, right of the diagonal.
#[test]
fn triangular_self_sweep_matches_naive() {
    let scoring = Scoring::dna_example();
    let mut seed = 0x7f4a_7c15_9e37_79b9u64;
    for case in 0..8 {
        let seq = random_seq(10 + case * 3, &mut seed);
        let codes = seq.codes();
        let len = codes.len();
        let mut triangles = vec![random_triangle(len, 2 + case * 3, &mut seed)];
        triangles.push(triangle_of(len, &[]));
        triangles.push(triangle_of(
            len,
            &[
                (0, 1),
                (0, len - 1),
                (2, 3),
                (2, 4),
                (2, 5),
                (len - 2, len - 1),
            ],
        ));
        for t in triangles {
            let lower = (0..len).flat_map(|y| (0..=y).map(move |x| (y, x)));
            let cells = SetMask::from_cells(lower.chain(t.iter()));
            let (mut m, mut maxy) = tri_initial_state(len);
            let mut rows: Vec<Vec<Score>> = Vec::new();
            let mut states = Vec::new();
            let mut keep = |_: usize, row: &[Score], my: &[Score]| {
                rows.push(row.to_vec());
                states.push((row.to_vec(), my.to_vec()));
            };
            tri_self_sweep_resume(
                codes,
                &scoring,
                PairMask(&t),
                0,
                &mut m,
                &mut maxy,
                &mut keep,
            );
            for (i, row) in rows.iter().enumerate() {
                let want = sw_last_row_naive(&codes[..=i], codes, &scoring, &cells);
                assert_eq!(row[i + 1..], want.row[i + 1..], "tri row {i} {t:?}");
            }
            // Resume below a mid row: the remaining rows repeat exactly.
            let start = len / 2;
            let (mut m, mut maxy) = states[start - 1].clone();
            let mut same = |i: usize, row: &[Score], _: &[Score]| {
                assert_eq!(row[i + 1..], rows[i][i + 1..], "resumed tri row {i}");
            };
            let mask = PairMask(&t);
            tri_self_sweep_resume(codes, &scoring, mask, start, &mut m, &mut maxy, &mut same);
        }
    }
}
