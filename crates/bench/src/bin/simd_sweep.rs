//! **SIMD sweep** — machine-readable kernel × lane-width × dispatch-path
//! throughput matrix.
//!
//! Measures lane-cells/second for every selectable `i16` kernel
//! (lookup-based and query-profile-based sweeps, at 4/8/16 lanes, on
//! every dispatch path the host CPU supports), each both unmasked (the
//! first pass) and **masked** (a realignment: an override triangle
//! holding one diagonal alignment path through the measured group), the
//! promoted `i32` wide sweeps, the scalar **row step** (one matrix's
//! row vectorised along the row: its portable and AVX2 bodies against
//! the per-cell loop it replaced, kept here as the reference), and the
//! engine-level composition (sequential vs auto-dispatched SIMD vs
//! SIMD × SMP). Emits `BENCH_simd.json` — the checked-in copy lives
//! under `results/`.
//!
//! Usage: `cargo run --release -p repro-bench --bin simd_sweep --
//! [--scale small|medium|full] [--out results/BENCH_simd.json] [--check]`.
//! `--check` exits non-zero if any masked sweep runs below
//! [`MIN_MASKED_OVER_UNMASKED`] of its unmasked twin, or a row-step
//! body below its floor relative to the per-cell loop
//! ([`MIN_AVX2_ROW_OVER_CELL`], [`MIN_PORTABLE_ROW_OVER_CELL`]).

use repro::align::kernel::row::Body;
use repro::align::{CellMask, NoMask, QueryProfile, Score, Sides, NEG_INF};
use repro::core::{find_top_alignments, OverrideTriangle, SplitMask};
use repro::simd::dispatch::{
    available, max_width, sweep_group_lookup_i16, sweep_group_profile_i16, sweep_group_wide,
};
use repro::simd::{find_top_alignments_simd_sel, select, DispatchPath, LaneWidth};
use repro::{find_top_alignments_parallel_simd, Scoring};
use repro_bench::{time_min, time_min_pair, Scale};
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
/// for itself, the portable one must never lose.
const MIN_AVX2_ROW_OVER_CELL: f64 = 2.0;
const MIN_PORTABLE_ROW_OVER_CELL: f64 = 0.95;

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

/// The `row` legs: `ROW_LEG_ROWS` rows against 200 and 1 350 columns
/// of a titin-like sequence, unmasked and under one overridden cell
/// per row, each body alternating rep by rep with the per-cell loop.
/// Returns the points and each body's worst ratio to the loop.
fn row_legs(scoring: &Scoring, budget: Duration) -> (Vec<RowPoint>, f64, Option<f64>) {
    const ROW_LEG_ROWS: usize = 300;
    let mut points = Vec::new();
    let mut worst_portable = f64::INFINITY;
    let mut worst_avx2 = Body::avx2().map(|_| f64::INFINITY);
    for cols in [200usize, 1350] {
        let len = ROW_LEG_ROWS + cols;
        let seq = repro_seqgen::titin_like(len, 3);
        let profile = QueryProfile::<i32>::new_wide(scoring, seq.codes());
        let sides = Sides {
            rows: &seq.codes()[..ROW_LEG_ROWS],
            profile: &profile,
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
    (points, worst_portable, worst_avx2)
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
            assert!(!sample.saturated, "benchmark workload must not saturate");
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

    // Promoted i32 wide sweeps (always portable lanes).
    let mut wide: Vec<String> = Vec::new();
    for width in WIDTHS {
        let lanes = width.lanes();
        let r0 = r_mid - lanes / 2;
        let sample = sweep_group_wide(width, seq.codes(), &scoring, &prof32, r0, lanes, None);
        let lane_cells = (sample.vector_cells * lanes as u64) as f64;
        let t = time_min(budget, || {
            std::hint::black_box(sweep_group_wide(
                width,
                seq.codes(),
                &scoring,
                &prof32,
                r0,
                lanes,
                None,
            ));
        });
        eprintln!(
            "  wide i32 x{lanes}: {:.0} M lane-cells/s",
            lane_cells / t / 1e6
        );
        wide.push(format!(
            "{{\"lanes\": {lanes}, \"secs\": {t:e}, \"lane_cells_per_sec\": {:.0}}}",
            lane_cells / t
        ));
    }

    // The scalar row step against the per-cell loop.
    let (row_points, portable_over_cell, avx2_over_cell) = row_legs(&scoring, budget);

    // Engine-level composition on a smaller instance (full runs are
    // O(m³) per engine).
    let em = (m / 4).max(120);
    let eseq = repro_seqgen::titin_like(em, 7);
    let count = 6;
    let mut engines: Vec<String> = Vec::new();
    let t_seq = time_min(budget, || {
        std::hint::black_box(find_top_alignments(&eseq, &scoring, count));
    });
    engines.push(format!(
        "{{\"engine\": \"seq\", \"secs\": {t_seq:e}, \"vs_seq\": 1.00}}"
    ));
    let auto = select(None, None).expect("auto selection never fails");
    let t_simd = time_min(budget, || {
        std::hint::black_box(find_top_alignments_simd_sel(&eseq, &scoring, count, auto));
    });
    engines.push(format!(
        "{{\"engine\": \"simd {auto}\", \"secs\": {t_simd:e}, \"vs_seq\": {:.2}}}",
        t_seq / t_simd
    ));
    for threads in [1usize, 2, 4] {
        let t = time_min(budget, || {
            std::hint::black_box(find_top_alignments_parallel_simd(
                &eseq, &scoring, count, threads, auto,
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

    let json = format!(
        "{{\n  \"bench\": \"simd_sweep\",\n  \"scale\": \"{scale:?}\",\n  \
         \"sequence\": {{\"kind\": \"titin_like\", \"residues\": {m}}},\n  \
         \"paths_available\": [{}],\n  \
         \"kernels\": [\n    {}\n  ],\n  \
         \"wide_i32\": [\n    {}\n  ],\n  \
         \"row\": [\n    {}\n  ],\n  \
         \"engines\": [\n    {}\n  ],\n  \
         \"checks\": {{\n    \"avx2_x16_over_sse2_x8\": {},\n    \
         \"profile_beats_lookup_at_every_width\": {},\n    \
         \"min_masked_over_unmasked\": {:.2},\n    \
         \"min_row_over_cell\": {{\"portable\": {:.2}, \"avx2\": {}}}\n  }}\n}}\n",
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
        row_points
            .iter()
            .map(RowPoint::json)
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
        "check: slowest portable row step / per-cell loop = {portable_over_cell:.2}x \
         (floor {MIN_PORTABLE_ROW_OVER_CELL:.2}x)"
    );
    if let Some(r) = avx2_over_cell {
        eprintln!(
            "check: slowest avx2 row step / per-cell loop = {r:.2}x \
             (floor {MIN_AVX2_ROW_OVER_CELL:.2}x)"
        );
    }
    if std::env::args().any(|a| a == "--check") {
        let mut failed = false;
        if masked_over_unmasked < MIN_MASKED_OVER_UNMASKED {
            eprintln!("CHECK FAILED: a masked sweep runs below the floor");
            failed = true;
        }
        if portable_over_cell < MIN_PORTABLE_ROW_OVER_CELL
            || avx2_over_cell.is_some_and(|r| r < MIN_AVX2_ROW_OVER_CELL)
        {
            eprintln!("CHECK FAILED: a row-step body runs below its floor");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
    }
}
