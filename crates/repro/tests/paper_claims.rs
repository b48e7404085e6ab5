//! The paper's quantitative claims, recast as deterministic tests.
//!
//! Wall-clock comparisons live in `repro-bench` (they depend on the
//! host); everything here is counted in *alignment passes* and *cells*,
//! which are machine-independent, so these shape claims hold in CI
//! forever.

use repro::obs::NoopRecorder;
use repro::{
    find_top_alignments, find_top_alignments_old, find_top_alignments_simd, select, LaneWidth,
    LegacyKernel, Scoring, Search,
};
use repro_seqgen::titin_like;

/// Table 1's engine of growth: the old algorithm's work grows one order
/// of magnitude faster than the new one's, measured in cells (the
/// naive inner loop adds another factor on top at runtime).
#[test]
fn table1_work_ratio_grows_with_length() {
    let scoring = Scoring::protein_default();
    let seq = titin_like(240, 1);
    let mut ratios = Vec::new();
    for n in [80usize, 160, 240] {
        let prefix = seq.prefix(n);
        let new = find_top_alignments(&prefix, &scoring, 8);
        let old = find_top_alignments_old(&prefix, &scoring, 8, LegacyKernel::Gotoh);
        assert_eq!(new.alignments, old.alignments);
        ratios.push(old.stats.cells as f64 / new.stats.cells.max(1) as f64);
    }
    assert!(
        ratios.windows(2).all(|w| w[1] > w[0] * 0.8),
        "old/new work ratio should not shrink with length: {ratios:?}"
    );
    assert!(
        ratios.last().unwrap() > &3.0,
        "per-top full sweeps must cost several times the queue-driven work"
    );
}

/// §3: "it typically reduces the number of realignments by 90–97%" and
/// "only 3–10% of the matrices need realignment ... before the next top
/// alignment is found". Counted exactly.
#[test]
fn queue_heuristic_bands() {
    let scoring = Scoring::protein_default();
    let seq = titin_like(320, 6);
    let splits = seq.len() - 1;
    let new = find_top_alignments(&seq, &scoring, 15);
    assert_eq!(new.alignments.len(), 15);
    let frac = new.stats.realignment_fraction(splits);
    assert!(
        (0.005..=0.20).contains(&frac),
        "realignment fraction {frac} outside a generous paper band"
    );
    let old = find_top_alignments_old(&seq, &scoring, 15, LegacyKernel::Gotoh);
    let avoided = 1.0 - new.stats.alignments as f64 / old.stats.alignments as f64;
    assert!(
        avoided > 0.85,
        "queue should avoid ≥85% of the old algorithm's passes, got {avoided}"
    );
}

/// §5.1: group speculation performs bounded extra work and zero extra
/// acceptances; overhead shrinks as the split count grows relative to
/// the group size.
#[test]
fn simd_speculation_overhead_shrinks_with_size() {
    let scoring = Scoring::protein_default();
    let sel = select(Some(LaneWidth::X4), None).unwrap();
    let mut overheads = Vec::new();
    for n in [200usize, 400] {
        let seq = titin_like(n, 9);
        let base = find_top_alignments(&seq, &scoring, 10);
        let simd =
            find_top_alignments_simd(&seq, &scoring, &Search::new(10), sel, &mut NoopRecorder);
        assert_eq!(simd.alignments, base.alignments);
        overheads.push(simd.stats.alignments as f64 / base.stats.alignments as f64 - 1.0);
    }
    assert!(
        overheads[1] < overheads[0],
        "group overhead should shrink with more splits: {overheads:?}"
    );
    assert!(overheads[1] < 0.35, "overhead {overheads:?} too large");
}

/// §5.2: the first top alignment offers near-perfect parallelism —
/// the initial sweep is `m − 1` independent tasks; later rounds have
/// only the realignment fraction's worth of parallel work. Counted via
/// the per-top work profile.
#[test]
fn parallelism_profile_matches_figure8_story() {
    let scoring = Scoring::protein_default();
    let seq = titin_like(500, 12);
    let run = find_top_alignments(&seq, &scoring, 10);
    let per_top = &run.stats.realignments_per_top;
    // Round 0: the full sweep (m − 1 alignments).
    assert_eq!(per_top[0], (seq.len() - 1) as u64);
    // Later rounds: a small fraction of that.
    let later: u64 = per_top[1..].iter().sum();
    let avg_later = later as f64 / (per_top.len() - 1) as f64;
    assert!(
        avg_later < per_top[0] as f64 * 0.25,
        "later rounds should offer far less parallel work: avg {avg_later} vs {}",
        per_top[0]
    );
}

/// §5.2: "up to 64 KB/s" per slave — communication stays trivial next
/// to compute. In the virtual-time cluster: bytes over the link per
/// unit of compute-cell work is tiny.
#[test]
fn cluster_communication_is_negligible() {
    use repro::cluster::{simulate_cluster, AlignCache, CostModel};
    use repro::xmpi::virtual_time::LinkModel;
    use std::cell::RefCell;
    use std::rc::Rc;

    let scoring = Scoring::protein_default();
    let seq = titin_like(400, 15);
    let seq_run = find_top_alignments(&seq, &scoring, 5);
    let report = simulate_cluster(
        &seq,
        &scoring,
        5,
        9,
        CostModel::das2(),
        LinkModel::default(),
        &seq_run.stats,
        Rc::new(RefCell::new(AlignCache::new())),
    );
    // Bytes per alignment cell computed: orders of magnitude below 1.
    let bytes_per_cell = report.bytes as f64 / seq_run.stats.cells as f64;
    assert!(
        bytes_per_cell < 0.05,
        "communication {bytes_per_cell} bytes/cell should be negligible"
    );
    // And the master is not the bottleneck: total time beats 1 worker's.
    assert!(report.speedup_vs_sse > 1.0);
}

/// Appendix A: the first top alignment always ends in some matrix's
/// bottom row — checking bottom rows only is lossless. Verified by
/// comparing against a full-matrix global-best search.
#[test]
fn bottom_row_argument_is_lossless() {
    use repro::align::{sw_last_row, NoMask};
    let scoring = Scoring::protein_default();
    for seed in [3u64, 4, 5] {
        let seq = titin_like(120, seed);
        let m = seq.len();
        // Global best over all cells of all split matrices.
        let mut best_anywhere = 0;
        let mut best_bottom = 0;
        for r in 1..m {
            let (prefix, suffix) = seq.split(r);
            let last = sw_last_row(prefix, suffix, &scoring, NoMask);
            best_anywhere = best_anywhere.max(last.best);
            best_bottom = best_bottom.max(last.best_in_row);
        }
        assert_eq!(
            best_bottom, best_anywhere,
            "seed {seed}: the best alignment must surface in some bottom row"
        );
    }
}
