//! **SIMD sweep** — machine-readable kernel × lane-width × dispatch-path
//! throughput matrix.
//!
//! Measures lane-cells/second for every selectable `i16` kernel
//! (lookup-based and query-profile-based sweeps, at 4/8/16 lanes, on
//! every dispatch path the host CPU supports), each both unmasked (the
//! first pass) and **masked** (a realignment: an override triangle
//! holding one diagonal alignment path through the measured group), the
//! wide `i32` sweeps (what a pack past the `i16` bound runs; portable
//! and inside the AVX2 trampoline), the scalar
//! **row step** (one matrix's row vectorised along the row: its portable
//! and AVX2 bodies against
//! the per-cell loop it replaced, kept here as the reference, and its
//! 16 × `i16` body against the 8 × `i32` AVX2 one), the
//! **chain** legs (what an engine sweeps: every group of one 600-residue
//! chain through [`GroupSweeper::sweep_at`] — clean, capturing, masked,
//! resumed — in useful cells/s, where the central-group points above
//! count vector cells), the **split** legs (the width-1 engines' sweep
//! of whole splits, `ScoredSeq`'s [`PackKernel::sweep`], against the
//! bare row loop around the same body), and the engine-level composition
//! (sequential vs auto-dispatched SIMD vs SIMD × SMP). Emits `BENCH_simd.json` — the
//! checked-in copy lives under `results/`.
//!
//! Usage: `cargo run --release -p repro-bench --bin simd_sweep --
//! [--scale small|medium|full] [--out results/BENCH_simd.json] [--check]`.
//! `--check` exits non-zero if any masked sweep runs below
//! [`MIN_MASKED_OVER_UNMASKED`] of its unmasked twin, a row-step body
//! below its floor relative to the per-cell loop
//! ([`MIN_AVX2_ROW_OVER_CELL`], [`MIN_PORTABLE_ROW_OVER_CELL`]), the
//! `i16` row body below [`MIN_NARROW_ROW_OVER_AVX2`] of the AVX2 one, a
//! chain leg below its floor ([`MIN_NARROWEST_OVER_CENTRAL`],
//! [`MIN_CHAIN_LEG_OVER_CLEAN`]), a split sweep below
//! [`MIN_SPLIT_OVER_ROW_LOOP`] of the bare row loop, or the AVX2 wide
//! `i32` lanes below [`MIN_WIDE_AVX2_OVER_I16`] of the `i16` sweep.

use repro::align::kernel::row::{Body, NarrowBody};
use repro::align::{CellMask, NoMask, QueryProfile, Score, Sides, NEG_INF};
use repro::core::{
    find_top_alignments, OverrideTriangle, PackKernel, ScoredSeq, Search, SplitMask,
};
use repro::obs::NoopRecorder;
use repro::simd::dispatch::{
    available, max_width, sweep_group_lookup_i16, sweep_group_profile_i16, sweep_group_wide,
};
use repro::simd::{
    find_top_alignments_simd, pack_fits_i16, select, DispatchPath, GroupCapture, GroupSweeper,
    LaneWidth, SimdSel,
};
use repro::{find_top_alignments_parallel_simd, Scoring};
use repro_bench::{host, time_min, time_min_each, time_min_pair, Scale};
use repro_seqgen::{PlantedRepeats, RepeatSpec};
use std::time::Duration;

const PATHS: [DispatchPath; 3] = [
    DispatchPath::Portable,
    DispatchPath::Sse2,
    DispatchPath::Avx2,
];
const WIDTHS: [LaneWidth; 3] = [LaneWidth::X4, LaneWidth::X8, LaneWidth::X16];

/// Floor, under `--check`, on a masked sweep's lane-cells/s relative to
/// the same kernel unmasked: the override triangle is sparse, so a
/// realignment sweep must cost about what a first pass costs.
const MIN_MASKED_OVER_UNMASKED: f64 = 0.80;

/// Floors, under `--check`, on a row-step sweep's cells/s relative to
/// the per-cell loop on the same matrix: the AVX2 body must clearly pay
/// for itself, the portable one must never lose. The portable floor
/// gates where the portable body is the one production sweeps run — a
/// host or build without the AVX2 body; next to it the ratio is only
/// reported (built with `-C target-cpu=native` on an AVX-512 host the
/// portable body reads 0.53x, and never runs).
const MIN_AVX2_ROW_OVER_CELL: f64 = 2.0;
const MIN_PORTABLE_ROW_OVER_CELL: f64 = 0.95;

/// Floor, under `--check`, on the 16 × `i16` row body's cells/s relative
/// to the 8 × `i32` AVX2 body on the same matrix, where the host has
/// both: twice the cells per vector must buy at least a quarter more
/// throughput, or the narrow body does not pay for its bound.
const MIN_NARROW_ROW_OVER_AVX2: f64 = 1.25;

/// Floor, under `--check`, on the wide `i32` lanes inside the AVX2
/// trampoline, in lane-cells/s relative to the `i16` profile sweep of
/// the same pack at the same width, where the host has AVX2. Built for
/// the baseline target the same lanes read ≈ 0.03–0.05 (no `i32`
/// `PMAXSD`); inside the trampoline the slowest width reads 0.34–0.46
/// (×16, half the cells per vector of the `i16` lanes) on a noisy
/// 2-vCPU host.
const MIN_WIDE_AVX2_OVER_I16: f64 = 0.15;

/// Floors, under `--check`, on the chain legs (useful cells/s, both
/// sides of each ratio from the same rotation of reps). The narrowest
/// full group of a chain is `LANES − 1` bordered columns out of
/// `LANES + 7`: it runs at a fair share of the central group's rate
/// only while the left-border correction costs about what a plain cell
/// costs (0.24 with the per-lane scalar correction, 0.5–0.6 with the
/// kill vectors). A capture and an override mask must each stay noise
/// next to the clean sweep of the whole chain.
const MIN_NARROWEST_OVER_CENTRAL: f64 = 0.40;
const MIN_CHAIN_LEG_OVER_CLEAN: f64 = 0.85;

/// Floor, under `--check`, on a whole-split sweep's cells/s relative to
/// the bare row loop around the same body, unmasked and masked: the
/// loop's own bookkeeping (the best score and its row) must stay noise
/// next to the row step. A per-row scan for the best cell's column read
/// about 0.73x.
const MIN_SPLIT_OVER_ROW_LOOP: f64 = 0.85;

/// The score pass as it was before the row step: Figure 3's loop cell
/// by cell over the segments between a row's overridden columns. Kept
/// only here, as the reference the `row` legs are measured against.
fn last_row_per_cell<M: CellMask>(sides: &Sides, mask: M) -> Vec<Score> {
    let cols = sides.cols();
    let (open, ext) = (sides.gaps.open, sides.gaps.extend);
    let mut m = vec![0 as Score; cols];
    let mut maxy = vec![NEG_INF; cols];
    for y in 0..sides.rows.len() {
        let e = sides.scores(y);
        let mut maxx = NEG_INF;
        let mut diag = 0;
        let mut hits = mask.row_hits(y, 0, cols);
        let mut x0 = 0;
        loop {
            let hit = hits.next();
            let stop = hit.unwrap_or(cols);
            let segment = m[x0..stop]
                .iter_mut()
                .zip(&mut maxy[x0..stop])
                .zip(&e[x0..stop]);
            for ((mx, my), &ex) in segment {
                let up = *mx;
                *mx = (diag.max(maxx).max(*my) + ex).max(0);
                let cand = diag - open;
                maxx = cand.max(maxx) - ext;
                *my = cand.max(*my) - ext;
                diag = up;
            }
            let Some(hit) = hit else { break };
            let cand = diag - open;
            maxx = cand.max(maxx) - ext;
            maxy[hit] = cand.max(maxy[hit]) - ext;
            diag = std::mem::replace(&mut m[hit], 0);
            x0 = hit + 1;
        }
    }
    m
}

/// The same pass as a row loop around one chosen body of the row step
/// (the library's own loop always runs the body the process selected).
fn last_row_stepped<M: CellMask>(body: Body, sides: &Sides, mask: M) -> Vec<Score> {
    let cols = sides.cols();
    let mut m = vec![0 as Score; cols];
    let mut next = vec![0 as Score; cols];
    let mut maxy = vec![NEG_INF; cols];
    for y in 0..sides.rows.len() {
        body.step(&m, 0, &mut next, &mut maxy, sides.scores(y), sides.gaps);
        for hit in mask.row_hits(y, 0, cols) {
            next[hit] = 0;
        }
        std::mem::swap(&mut m, &mut next);
    }
    m
}

/// The same pass around the 16 × `i16` body, over the `i16` profile the
/// sides carry (on a matrix [`NarrowBody::exact_for`] admits); returns
/// the bottom row widened.
fn last_row_narrow<M: CellMask>(body: &NarrowBody, sides: &Sides, mask: M) -> Vec<Score> {
    let (cols, profile) = (sides.cols(), sides.narrow.expect("an i16 profile"));
    let mut m = vec![0i16; cols];
    let mut next = vec![0i16; cols];
    let mut maxy = vec![i16::MIN; cols];
    for y in 0..sides.rows.len() {
        let e = profile.row(sides.rows[y], sides.q0);
        body.step(&m, &mut next, &mut maxy, e);
        for hit in mask.row_hits(y, 0, cols) {
            next[hit] = 0;
        }
        std::mem::swap(&mut m, &mut next);
    }
    m.into_iter().map(Score::from).collect()
}

/// One row-step measurement, already formatted as a JSON object.
struct RowPoint {
    cols: usize,
    masked: bool,
    kernel: &'static str,
    secs: f64,
    cells_per_sec: f64,
}

impl RowPoint {
    fn json(&self) -> String {
        format!(
            "{{\"cols\": {}, \"masked\": {}, \"kernel\": \"{}\", \"secs\": {:e}, \"cells_per_sec\": {:.0}}}",
            self.cols, self.masked, self.kernel, self.secs, self.cells_per_sec
        )
    }
}

/// The worst ratios of the `row` legs: each `i32` body's to the
/// per-cell loop, and the `i16` body's to the AVX2 one.
struct RowRatios {
    portable_over_cell: f64,
    avx2_over_cell: Option<f64>,
    narrow_over_avx2: Option<f64>,
}

/// The `row` legs: `ROW_LEG_ROWS` rows against 200 and 1 350 columns
/// of a titin-like sequence, unmasked and under one overridden cell
/// per row, each `i32` body alternating rep by rep with the per-cell
/// loop and the `i16` body with the AVX2 one.
fn row_legs(scoring: &Scoring, budget: Duration) -> (Vec<RowPoint>, RowRatios) {
    const ROW_LEG_ROWS: usize = 300;
    let mut points = Vec::new();
    let mut worst_portable = f64::INFINITY;
    let mut worst_avx2 = Body::avx2().map(|_| f64::INFINITY);
    let narrow = Body::avx2().and_then(|b| b.narrow(scoring.gaps));
    let mut worst_narrow = narrow.map(|_| f64::INFINITY);
    for cols in [200usize, 1350] {
        let len = ROW_LEG_ROWS + cols;
        let seq = repro_seqgen::titin_like(len, 3);
        let profile = QueryProfile::<i32>::new_wide(scoring, seq.codes());
        let profile16 = QueryProfile::new_narrow(scoring, seq.codes());
        let sides = Sides {
            rows: &seq.codes()[..ROW_LEG_ROWS],
            profile: &profile,
            narrow: profile16.as_ref(),
            q0: ROW_LEG_ROWS,
            gaps: scoring.gaps,
        };
        let mut triangle = OverrideTriangle::new(len);
        for y in 0..ROW_LEG_ROWS {
            triangle.set(y, ROW_LEG_ROWS + (y * 7) % cols);
        }
        let cells = (ROW_LEG_ROWS * cols) as f64;
        for masked in [false, true] {
            let split = SplitMask::new(&triangle, ROW_LEG_ROWS);
            let run = |body: Option<Body>| match (body, masked) {
                (None, false) => last_row_per_cell(&sides, NoMask),
                (None, true) => last_row_per_cell(&sides, split),
                (Some(b), false) => last_row_stepped(b, &sides, NoMask),
                (Some(b), true) => last_row_stepped(b, &sides, split),
            };
            let want = run(None);
            let mut cell_secs = f64::INFINITY;
            let mut bodies = vec![("portable", Body::PORTABLE)];
            bodies.extend(Body::avx2().map(|b| ("avx2", b)));
            for (kernel, body) in bodies {
                assert_eq!(
                    run(Some(body)),
                    want,
                    "{kernel} row step differs from the loop"
                );
                let (t_cell, t_body) = time_min_pair(
                    budget,
                    || drop(std::hint::black_box(run(None))),
                    || drop(std::hint::black_box(run(Some(body)))),
                );
                cell_secs = cell_secs.min(t_cell);
                let ratio = t_cell / t_body;
                if kernel == "avx2" {
                    worst_avx2 = worst_avx2.map(|w| w.min(ratio));
                } else {
                    worst_portable = worst_portable.min(ratio);
                }
                points.push(RowPoint {
                    cols,
                    masked,
                    kernel,
                    secs: t_body,
                    cells_per_sec: cells / t_body,
                });
            }
            points.push(RowPoint {
                cols,
                masked,
                kernel: "cell",
                secs: cell_secs,
                cells_per_sec: cells / cell_secs,
            });
            if let (Some(body), Some(avx2)) = (&narrow, Body::avx2()) {
                let gaps = sides.gaps;
                let peak = sides.profile.peak();
                assert!(NarrowBody::exact_for(peak, ROW_LEG_ROWS.min(cols), gaps));
                let run16 = || match masked {
                    false => last_row_narrow(body, &sides, NoMask),
                    true => last_row_narrow(body, &sides, split),
                };
                assert_eq!(run16(), want, "i16 row step differs from the loop");
                let (t_wide, t_narrow) = time_min_pair(
                    budget,
                    || drop(std::hint::black_box(run(Some(avx2)))),
                    || drop(std::hint::black_box(run16())),
                );
                worst_narrow = worst_narrow.map(|w| w.min(t_wide / t_narrow));
                points.push(RowPoint {
                    cols,
                    masked,
                    kernel: "avx2_i16",
                    secs: t_narrow,
                    cells_per_sec: cells / t_narrow,
                });
            }
        }
    }
    for p in &points {
        eprintln!(
            "  row {} x{}{}: {:.0} M cells/s",
            p.kernel,
            p.cols,
            if p.masked { " masked" } else { "" },
            p.cells_per_sec / 1e6
        );
    }
    let ratios = RowRatios {
        portable_over_cell: worst_portable,
        avx2_over_cell: worst_avx2,
        narrow_over_avx2: worst_narrow,
    };
    (points, ratios)
}

/// One split-leg measurement, already formatted as a JSON object.
struct SplitPoint {
    masked: bool,
    secs: f64,
    cells_per_sec: f64,
}

impl SplitPoint {
    fn json(&self) -> String {
        format!(
            "{{\"masked\": {}, \"secs\": {:e}, \"cells_per_sec\": {:.0}}}",
            self.masked, self.secs, self.cells_per_sec
        )
    }
}

/// The `split` legs: every split of a 400-nt DNA island (the
/// `dna_loose_seq` shape, four 50-nt copies between 100-nt flanks,
/// where chance matches keep raising a matrix's best) through
/// `ScoredSeq`'s [`PackKernel::sweep`], the sweep of `seq`, `threads:N`
/// and the Figure 8 simulator, clean and under the first top's
/// triangle, alternating rep by rep with the bare row loop around the
/// body the process selected. Returns the points and the worst ratio of
/// the sweep's cells/s to the loop's.
fn split_legs(budget: Duration) -> (Vec<SplitPoint>, f64) {
    let spec = RepeatSpec {
        flank: 100,
        ..RepeatSpec::dna_sparse_island(50, 4)
    };
    let seq = PlantedRepeats::generate(&spec, 1).seq;
    let scoring = Scoring::dna_example();
    let (kernel, m) = (ScoredSeq::new(&seq, &scoring), seq.len());
    let mut triangle = OverrideTriangle::new(m);
    for &(p, q) in &find_top_alignments(&seq, &scoring, 1).alignments[0].pairs {
        triangle.set(p, q);
    }
    let splits: Vec<usize> = (1..m).collect();
    let cells = splits.iter().map(|&r| r * (m - r)).sum::<usize>() as f64;
    let mut worst = f64::INFINITY;
    let mut points = Vec::new();
    for masked in [false, true] {
        let tri = masked.then_some(&triangle);
        let bare = || -> Vec<Vec<Score>> {
            let body = Body::selected();
            let row = |&r: &usize| match tri {
                Some(t) => last_row_stepped(body, &kernel.split(r), SplitMask::new(t, r)),
                None => last_row_stepped(body, &kernel.split(r), NoMask),
            };
            splits.iter().map(row).collect()
        };
        let sweep = || kernel.sweep(&splits, tri, None, &[]).0.rows;
        assert_eq!(sweep(), bare(), "the split sweep differs from the loop");
        let (t_loop, t_split) = time_min_pair(
            budget,
            || drop(std::hint::black_box(bare())),
            || drop(std::hint::black_box(sweep())),
        );
        worst = worst.min(t_loop / t_split);
        eprintln!(
            "  split{}: {:.0} M cells/s, {:.2}x the bare row loop",
            if masked { " masked" } else { "" },
            cells / t_split / 1e6,
            t_loop / t_split
        );
        points.push(SplitPoint {
            masked,
            secs: t_split,
            cells_per_sec: cells / t_split,
        });
    }
    (points, worst)
}

/// One chain-leg measurement, already formatted as a JSON object.
struct ChainPoint {
    path: DispatchPath,
    lanes: usize,
    leg: &'static str,
    secs: f64,
    useful_cells_per_sec: f64,
}

impl ChainPoint {
    fn json(&self) -> String {
        format!(
            "{{\"path\": \"{}\", \"lanes\": {}, \"leg\": \"{}\", \"secs\": {:e}, \"useful_cells_per_sec\": {:.0}}}",
            self.path, self.lanes, self.leg, self.secs, self.useful_cells_per_sec
        )
    }
}

/// The `chain` legs of one kernel selection: every group of a
/// 600-residue titin-like chain (the benchmark's `protein_dense` shape)
/// through the engines' own entry point — from row 0 (`clean`), with
/// one capture halfway down the group's shallowest split (`capture`),
/// under an override triangle (`masked`), resumed from that capture
/// (`resumed`) — plus the central group and the narrowest full group
/// on their own. Rates are *useful* cells per second: Σ over lanes of
/// the split's own `r × (m − r)`, for the resumed leg too (what the
/// resume stands in for), so border columns, dead rows and skipped
/// rows all show as rate.
fn chain_legs(sel: SimdSel, scoring: &Scoring, budget: Duration) -> Vec<ChainPoint> {
    const CHAIN_LEN: usize = 600;
    let seq = repro_seqgen::titin_like(CHAIN_LEN, 5);
    let m = seq.len();
    let lanes = sel.width.lanes();
    let sweeper = GroupSweeper::new(&seq, scoring, sel);
    // One accepted alignment: an ungapped diagonal of m/4 pairs from
    // (m/8, 5m/8), straddling the splits of the chain's middle half.
    let mut triangle = OverrideTriangle::new(m);
    for i in 0..m / 4 {
        triangle.set(m / 8 + i, 5 * m / 8 + i);
    }
    let groups: Vec<Vec<usize>> = (1..m)
        .collect::<Vec<_>>()
        .chunks(lanes)
        .map(<[usize]>::to_vec)
        .collect();
    // Capture rows and the captures themselves (the resumed leg's
    // input), made outside the timed region. A group whose shallowest
    // split is 1 has no row to capture at and always sweeps clean.
    let cap_rows: Vec<Vec<usize>> = groups
        .iter()
        .map(|rs| Some(rs[0] / 2).filter(|&c| c > 0).into_iter().collect())
        .collect();
    let mut useful = Vec::with_capacity(groups.len());
    let mut caps: Vec<Option<GroupCapture>> = Vec::with_capacity(groups.len());
    for (rs, rows) in groups.iter().zip(&cap_rows) {
        assert!(
            pack_fits_i16(scoring.exchange.max_score(), m, rs, scoring.gaps),
            "the i16 bound must admit every benchmark pack"
        );
        let (out, _, mut cap) = sweeper.sweep_at(rs, None, None, rows);
        useful.push(out.cells as f64);
        caps.push(cap.pop());
    }
    let central = groups.len() / 2;
    let narrowest = groups
        .iter()
        .rposition(|rs| rs.len() == lanes)
        .expect("a chain has at least one full group");

    let sweep = |gi: usize, tri: Option<&OverrideTriangle>, resumed: bool, capture: bool| {
        let resume = caps[gi]
            .as_ref()
            .filter(|_| resumed)
            .map(GroupCapture::as_resume);
        let rows: &[usize] = if capture { &cap_rows[gi] } else { &[] };
        std::hint::black_box(sweeper.sweep_at(&groups[gi], tri, resume.as_ref(), rows));
    };
    let all = 0..groups.len();
    let secs = time_min_each(
        budget,
        &mut [
            &mut || all.clone().for_each(|gi| sweep(gi, None, false, false)),
            &mut || all.clone().for_each(|gi| sweep(gi, None, false, true)),
            &mut || {
                all.clone()
                    .for_each(|gi| sweep(gi, Some(&triangle), false, false))
            },
            &mut || all.clone().for_each(|gi| sweep(gi, None, true, false)),
            &mut || sweep(central, None, false, false),
            &mut || sweep(narrowest, None, false, false),
        ],
    );
    let chain_cells: f64 = useful.iter().sum();
    let cells = [
        chain_cells,
        chain_cells,
        chain_cells,
        chain_cells,
        useful[central],
        useful[narrowest],
    ];
    [
        "clean",
        "capture",
        "masked",
        "resumed",
        "central",
        "narrowest",
    ]
    .into_iter()
    .zip(secs.into_iter().zip(cells))
    .map(|(leg, (secs, cells))| {
        let p = ChainPoint {
            path: sel.path,
            lanes,
            leg,
            secs,
            useful_cells_per_sec: cells / secs,
        };
        eprintln!(
            "  chain {} x{lanes} {leg}: {:.0} M useful cells/s",
            p.path,
            p.useful_cells_per_sec / 1e6
        );
        p
    })
    .collect()
}

fn out_path() -> String {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "BENCH_simd.json".to_string())
}

/// One kernel measurement, already formatted as a JSON object.
struct KernelPoint {
    path: DispatchPath,
    lanes: usize,
    kernel: &'static str,
    secs: f64,
    lane_cells_per_sec: f64,
}

impl KernelPoint {
    fn json(&self) -> String {
        format!(
            "{{\"path\": \"{}\", \"lanes\": {}, \"kernel\": \"{}\", \"secs\": {:e}, \"lane_cells_per_sec\": {:.0}}}",
            self.path, self.lanes, self.kernel, self.secs, self.lane_cells_per_sec
        )
    }
}

fn main() {
    let scale = Scale::from_args();
    let (m, budget) = match scale {
        Scale::Small => (600, Duration::from_millis(150)),
        Scale::Medium => (2400, Duration::from_secs(1)),
        Scale::Full => (8000, Duration::from_secs(5)),
    };
    let seq = repro_seqgen::titin_like(m, 2);
    let scoring = Scoring::protein_default();
    let r_mid = m / 2;

    let prof16 =
        QueryProfile::<i16>::new_narrow(&scoring, seq.codes()).expect("protein defaults fit i16");
    let prof32 = QueryProfile::<i32>::new_wide(&scoring, seq.codes());

    // The masked legs' triangle: one accepted alignment, an ungapped
    // diagonal of m/4 pairs crossing every split of the measured groups
    // (prefix rows just above the widest group, suffix columns just
    // below it) — one overridden cell in each of m/4 consecutive rows.
    let mut masked = OverrideTriangle::new(m);
    let path_len = m / 4;
    for i in 0..path_len {
        masked.set(r_mid - 16 - path_len + i, r_mid + 16 + i);
    }

    eprintln!("SIMD sweep: {m}-residue titin-like, central group, budget {budget:?} per point");

    // Kernel matrix: every (path, width, kernel) the host can run.
    let mut points: Vec<KernelPoint> = Vec::new();
    for path in PATHS {
        if !available(path) {
            eprintln!("  {path}: unavailable on this host, skipped");
            continue;
        }
        for width in WIDTHS {
            let lanes = width.lanes();
            if lanes > max_width(path).lanes() {
                continue;
            }
            let sel = select(Some(width), Some(path)).expect("probed available above");
            let r0 = r_mid - lanes / 2;
            let sample = sweep_group_lookup_i16(sel, seq.codes(), &scoring, r0, lanes, None);
            // The i16 sweeps time exact work: the measured group equals
            // its wide sweep (at `--scale full` the central group is past
            // the static bound, yet its scores never clamp).
            let exact = sweep_group_wide(sel, seq.codes(), &scoring, &prof32, r0, lanes, None);
            assert_eq!(
                sample.rows, exact.rows,
                "the i16 kernels must be exact here"
            );
            // `vector_cells` counts vector ops; each covers `lanes` cells.
            let lane_cells = (sample.vector_cells * lanes as u64) as f64;

            let lookup = |tri: Option<&OverrideTriangle>| {
                std::hint::black_box(sweep_group_lookup_i16(
                    sel,
                    seq.codes(),
                    &scoring,
                    r0,
                    lanes,
                    tri,
                ));
            };
            let profile = |tri: Option<&OverrideTriangle>| {
                std::hint::black_box(sweep_group_profile_i16(
                    sel,
                    seq.codes(),
                    &scoring,
                    &prof16,
                    r0,
                    lanes,
                    tri,
                ));
            };
            // Unmasked and masked alternate rep by rep: their ratio is
            // what `--check` gates.
            let (t_lookup, t_lookup_masked) =
                time_min_pair(budget, || lookup(None), || lookup(Some(&masked)));
            let (t_profile, t_profile_masked) =
                time_min_pair(budget, || profile(None), || profile(Some(&masked)));
            for (kernel, secs) in [
                ("lookup", t_lookup),
                ("lookup_masked", t_lookup_masked),
                ("profile", t_profile),
                ("profile_masked", t_profile_masked),
            ] {
                eprintln!(
                    "  {path} x{lanes} {kernel}: {:.0} M lane-cells/s",
                    lane_cells / secs / 1e6
                );
                points.push(KernelPoint {
                    path,
                    lanes,
                    kernel,
                    secs,
                    lane_cells_per_sec: lane_cells / secs,
                });
            }
        }
    }

    // Wide i32 sweeps: the portable lanes as the baseline target builds
    // them, and the same lanes inside the AVX2 trampoline.
    let mut wide: Vec<String> = Vec::new();
    let mut wide_avx2_over_i16: Option<f64> = None;
    for path in [DispatchPath::Portable, DispatchPath::Avx2] {
        if !available(path) {
            continue;
        }
        for width in WIDTHS {
            let lanes = width.lanes();
            let sel = SimdSel { width, path };
            let r0 = r_mid - lanes / 2;
            let sample = sweep_group_wide(sel, seq.codes(), &scoring, &prof32, r0, lanes, None);
            let lane_cells = (sample.vector_cells * lanes as u64) as f64;
            let t = time_min(budget, || {
                std::hint::black_box(sweep_group_wide(
                    sel,
                    seq.codes(),
                    &scoring,
                    &prof32,
                    r0,
                    lanes,
                    None,
                ));
            });
            eprintln!(
                "  wide i32 {path} x{lanes}: {:.0} M lane-cells/s",
                lane_cells / t / 1e6
            );
            wide.push(format!(
                "{{\"path\": \"{path}\", \"lanes\": {lanes}, \"secs\": {t:e}, \"lane_cells_per_sec\": {:.0}}}",
                lane_cells / t
            ));
            if path == DispatchPath::Avx2 {
                // Against the i16 profile sweep of the same pack on the
                // fastest path that has this width.
                let narrow = points
                    .iter()
                    .filter(|p| p.lanes == lanes && p.kernel == "profile")
                    .map(|p| p.lane_cells_per_sec)
                    .fold(0.0, f64::max);
                let r = lane_cells / t / narrow;
                wide_avx2_over_i16 = Some(wide_avx2_over_i16.map_or(r, |w: f64| w.min(r)));
            }
        }
    }

    // What an engine sweeps: the chain legs, per path at its widest. One
    // rotation of the six legs takes ~25 ms, so the small scale's
    // per-point budget would leave each minimum half a dozen samples.
    let chain_budget = budget.max(Duration::from_millis(600));
    let mut chain: Vec<ChainPoint> = Vec::new();
    for path in PATHS.into_iter().filter(|&p| available(p)) {
        let sel = select(None, Some(path)).expect("probed available above");
        chain.extend(chain_legs(sel, &scoring, chain_budget));
    }

    // The scalar row step against the per-cell loop, and whole splits
    // against the bare row loop.
    let (row_points, row_ratios) = row_legs(&scoring, budget);
    let RowRatios {
        portable_over_cell,
        avx2_over_cell,
        narrow_over_avx2,
    } = row_ratios;
    let (split_points, split_over_row_loop) = split_legs(budget);

    // Engine-level composition on a smaller instance (full runs are
    // O(m³) per engine).
    let em = (m / 4).max(120);
    let eseq = repro_seqgen::titin_like(em, 7);
    let search = Search::new(6);
    let mut engines: Vec<String> = Vec::new();
    let t_seq = time_min(budget, || {
        std::hint::black_box(find_top_alignments(&eseq, &scoring, search.count));
    });
    engines.push(format!(
        "{{\"engine\": \"seq\", \"secs\": {t_seq:e}, \"vs_seq\": 1.00}}"
    ));
    let auto = select(None, None).expect("auto selection never fails");
    let t_simd = time_min(budget, || {
        std::hint::black_box(find_top_alignments_simd(
            &eseq,
            &scoring,
            &search,
            auto,
            &mut NoopRecorder,
        ));
    });
    engines.push(format!(
        "{{\"engine\": \"simd {auto}\", \"secs\": {t_simd:e}, \"vs_seq\": {:.2}}}",
        t_seq / t_simd
    ));
    for threads in [1usize, 2, 4] {
        let t = time_min(budget, || {
            std::hint::black_box(find_top_alignments_parallel_simd(
                &eseq,
                &scoring,
                &search,
                threads,
                auto,
                &mut NoopRecorder,
            ));
        });
        engines.push(format!(
            "{{\"engine\": \"simd-threads:{threads} {auto}\", \"secs\": {t:e}, \"vs_seq\": {:.2}}}",
            t_seq / t
        ));
    }

    // Acceptance checks.
    let rate = |path: DispatchPath, lanes: usize, kernel: &str| {
        points
            .iter()
            .find(|p| p.path == path && p.lanes == lanes && p.kernel == kernel)
            .map(|p| p.lane_cells_per_sec)
    };
    let x16_vs_x8 = match (
        rate(DispatchPath::Avx2, 16, "profile"),
        rate(DispatchPath::Sse2, 8, "profile"),
    ) {
        (Some(a), Some(b)) => Some(a / b),
        _ => None,
    };
    // At every lane width, on the path the dispatcher selects for that
    // width, the profile sweep must outrun the lookup sweep. (On the
    // portable path the two compile to near-identical code — the
    // profile's win is removing the dependent table load, which only
    // exists as a load in the explicit-intrinsics kernels.)
    let profile_beats_lookup = WIDTHS.iter().all(|&w| {
        let sel = select(Some(w), None).expect("width-only selection never fails");
        match (
            rate(sel.path, w.lanes(), "profile"),
            rate(sel.path, w.lanes(), "lookup"),
        ) {
            (Some(p), Some(l)) => p >= l,
            _ => false,
        }
    });

    // The slowest masked sweep relative to its unmasked twin, over every
    // path × width × kernel measured.
    let masked_over_unmasked = points
        .iter()
        .filter_map(|p| {
            let twin = rate(p.path, p.lanes, &format!("{}_masked", p.kernel))?;
            Some(twin / p.lane_cells_per_sec)
        })
        .fold(f64::INFINITY, f64::min);

    // The chain ratios `--check` gates, each the worst over the paths
    // measured; chain ÷ central is reported only (the central group of a
    // 600-residue chain pays the border too).
    let chain_ratio = |num: &str, den: &str| {
        let rate = |path: DispatchPath, leg: &str| {
            chain
                .iter()
                .find(|p| p.path == path && p.leg == leg)
                .map(|p| p.useful_cells_per_sec)
        };
        PATHS
            .iter()
            .filter_map(|&path| Some(rate(path, num)? / rate(path, den)?))
            .fold(f64::INFINITY, f64::min)
    };
    let narrowest_over_central = chain_ratio("narrowest", "central");
    let capture_over_clean = chain_ratio("capture", "clean");
    let chain_masked_over_clean = chain_ratio("masked", "clean");
    let chain_over_central = chain_ratio("clean", "central");

    let json = format!(
        "{{\n  \"bench\": \"simd_sweep\",\n  \"scale\": \"{scale:?}\",\n  \
         \"host\": {},\n  \
         \"sequence\": {{\"kind\": \"titin_like\", \"residues\": {m}}},\n  \
         \"paths_available\": [{}],\n  \
         \"kernels\": [\n    {}\n  ],\n  \
         \"wide_i32\": [\n    {}\n  ],\n  \
         \"chain\": [\n    {}\n  ],\n  \
         \"row\": [\n    {}\n  ],\n  \
         \"split\": [\n    {}\n  ],\n  \
         \"engines\": [\n    {}\n  ],\n  \
         \"checks\": {{\n    \"avx2_x16_over_sse2_x8\": {},\n    \
         \"profile_beats_lookup_at_every_width\": {},\n    \
         \"min_masked_over_unmasked\": {:.2},\n    \
         \"chain\": {{\"min_narrowest_over_central\": {narrowest_over_central:.2}, \
         \"min_capture_over_clean\": {capture_over_clean:.2}, \
         \"min_masked_over_clean\": {chain_masked_over_clean:.2}, \
         \"min_chain_over_central\": {chain_over_central:.2}}},\n    \
         \"min_row_over_cell\": {{\"portable\": {:.2}, \"avx2\": {}}},\n    \
         \"min_i16_row_over_avx2\": {},\n    \
         \"min_split_over_row_loop\": {split_over_row_loop:.2},\n    \
         \"min_wide_avx2_over_i16\": {}\n  }}\n}}\n",
        host().to_string_compact(),
        PATHS
            .iter()
            .filter(|&&p| available(p))
            .map(|p| format!("\"{p}\""))
            .collect::<Vec<_>>()
            .join(", "),
        points
            .iter()
            .map(KernelPoint::json)
            .collect::<Vec<_>>()
            .join(",\n    "),
        wide.join(",\n    "),
        chain
            .iter()
            .map(ChainPoint::json)
            .collect::<Vec<_>>()
            .join(",\n    "),
        row_points
            .iter()
            .map(RowPoint::json)
            .collect::<Vec<_>>()
            .join(",\n    "),
        split_points
            .iter()
            .map(SplitPoint::json)
            .collect::<Vec<_>>()
            .join(",\n    "),
        engines.join(",\n    "),
        x16_vs_x8
            .map(|r| format!("{r:.2}"))
            .unwrap_or_else(|| "null".into()),
        profile_beats_lookup,
        masked_over_unmasked,
        portable_over_cell,
        avx2_over_cell
            .map(|r| format!("{r:.2}"))
            .unwrap_or_else(|| "null".into()),
        narrow_over_avx2
            .map(|r| format!("{r:.2}"))
            .unwrap_or_else(|| "null".into()),
        wide_avx2_over_i16
            .map(|r| format!("{r:.2}"))
            .unwrap_or_else(|| "null".into()),
    );

    let out = out_path();
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("{json}");
    eprintln!("wrote {out}");
    if let Some(r) = x16_vs_x8 {
        eprintln!("check: avx2 x16 / sse2 x8 = {r:.2}x (target >= 1.5x)");
    }
    eprintln!("check: profile >= lookup at every width: {profile_beats_lookup}");
    eprintln!(
        "check: slowest masked / unmasked = {masked_over_unmasked:.2}x \
         (floor {MIN_MASKED_OVER_UNMASKED:.2}x)"
    );
    eprintln!(
        "check: chain narrowest / central = {narrowest_over_central:.2}x \
         (floor {MIN_NARROWEST_OVER_CENTRAL:.2}x), capture / clean = {capture_over_clean:.2}x, \
         masked / clean = {chain_masked_over_clean:.2}x (floor {MIN_CHAIN_LEG_OVER_CLEAN:.2}x); \
         chain / central = {chain_over_central:.2}x (not gated)"
    );
    eprintln!(
        "check: slowest portable row step / per-cell loop = {portable_over_cell:.2}x \
         (floor {MIN_PORTABLE_ROW_OVER_CELL:.2}x where it is the body that runs)"
    );
    if let Some(r) = avx2_over_cell {
        eprintln!(
            "check: slowest avx2 row step / per-cell loop = {r:.2}x \
             (floor {MIN_AVX2_ROW_OVER_CELL:.2}x)"
        );
    }
    if let Some(r) = narrow_over_avx2 {
        eprintln!(
            "check: slowest i16 row step / avx2 row step = {r:.2}x \
             (floor {MIN_NARROW_ROW_OVER_AVX2:.2}x)"
        );
    }
    eprintln!(
        "check: slowest split sweep / bare row loop = {split_over_row_loop:.2}x \
         (floor {MIN_SPLIT_OVER_ROW_LOOP:.2}x)"
    );
    if let Some(r) = wide_avx2_over_i16 {
        eprintln!(
            "check: slowest avx2 wide i32 / i16 profile sweep = {r:.2}x \
             (floor {MIN_WIDE_AVX2_OVER_I16:.2}x)"
        );
    }
    if std::env::args().any(|a| a == "--check") {
        let mut failed = false;
        if masked_over_unmasked < MIN_MASKED_OVER_UNMASKED {
            eprintln!("CHECK FAILED: a masked sweep runs below the floor");
            failed = true;
        }
        if narrowest_over_central < MIN_NARROWEST_OVER_CENTRAL
            || capture_over_clean < MIN_CHAIN_LEG_OVER_CLEAN
            || chain_masked_over_clean < MIN_CHAIN_LEG_OVER_CLEAN
        {
            eprintln!("CHECK FAILED: a chain leg runs below its floor");
            failed = true;
        }
        let portable_runs = Body::avx2().is_none();
        if (portable_runs && portable_over_cell < MIN_PORTABLE_ROW_OVER_CELL)
            || avx2_over_cell.is_some_and(|r| r < MIN_AVX2_ROW_OVER_CELL)
            || narrow_over_avx2.is_some_and(|r| r < MIN_NARROW_ROW_OVER_AVX2)
        {
            eprintln!("CHECK FAILED: a row-step body runs below its floor");
            failed = true;
        }
        if split_over_row_loop < MIN_SPLIT_OVER_ROW_LOOP {
            eprintln!("CHECK FAILED: a split sweep runs below the bare row loop's floor");
            failed = true;
        }
        if wide_avx2_over_i16.is_some_and(|r| r < MIN_WIDE_AVX2_OVER_I16) {
            eprintln!("CHECK FAILED: the AVX2 wide i32 lanes run below their floor");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
    }
}
