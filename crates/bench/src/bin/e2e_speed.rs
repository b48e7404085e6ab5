//! **End-to-end incremental-realignment speed** — wall time and DP-row
//! accounting for every engine with the checkpointed resume layer off
//! vs on at the default budget
//! ([`repro::align::checkpoint::DEFAULT_CHECKPOINT_BUDGET`]).
//!
//! The layer is an exact shortcut: a realignment whose dirty rows lie
//! at or above a stored checkpoint resumes mid-matrix instead of
//! re-sweeping from row 0, and a split whose triangle is untouched
//! since its last sweep replays its memoised score outright. Both paths
//! are bit-identical to the from-scratch sweep — this binary measures
//! how much *work* they remove on a repeat-rich workload.
//!
//! Two modes:
//!
//! * default: run every engine off-vs-on on a titin-like workload and
//!   write `BENCH_e2e.json` (the checked-in copy lives under
//!   `results/`), reporting per engine the wall times, checkpoint
//!   hits/misses, and realignment DP rows swept vs skipped.
//! * `--check`: additionally exit non-zero if the sequential engine's
//!   rows-skipped fraction falls below [`MIN_ROWS_SKIPPED`], if any
//!   engine's checkpointed wall time exceeds
//!   [`MAX_SLOWDOWN`]× its plain wall time, or if a SIMD engine's
//!   checkpointed speedup falls below [`MIN_SIMD_SPEEDUP`] — the
//!   lane-granular resume layer must actually win where it applies.
//!   This is the CI gate proving the layer keeps paying for itself
//!   end to end.
//!
//! Usage: `cargo run --release -p repro-bench --bin e2e_speed --
//! [--scale small|medium|full] [--out BENCH_e2e.json] [--check]`.

use repro::align::checkpoint::DEFAULT_CHECKPOINT_BUDGET;
use repro::obs::json::Json;
use repro::{Engine, Repro, Scoring, Stats};
use repro_bench::{host, secs, time_min_pair, Scale, Table};
use repro_seqgen::{PlantedRepeats, RepeatKind, RepeatSpec};
use std::time::Duration;

/// Minimum fraction of realignment DP rows the sequential engine must
/// skip (checkpoint resumes + whole-sweep memo replays) on the
/// repeat-rich workload, enforced under `--check`.
const MIN_ROWS_SKIPPED: f64 = 0.30;

/// Maximum checkpointed-over-plain wall-time ratio tolerated per
/// engine under `--check`. The layer should be at worst neutral; the
/// headroom is for noisy CI machines and the threaded engines'
/// scheduling variance.
const MAX_SLOWDOWN: f64 = 1.5;

/// Minimum off/on wall-time speedup the SIMD engines must reach under
/// `--check`. With lane-granular resume (clean lanes replay their memo,
/// the rest re-sweep as a compacted pack from the deepest shared
/// checkpoint) the layer must actually *win* on the SIMD engines, not
/// merely stay within the slowdown budget.
const MIN_SIMD_SPEEDUP: f64 = 1.0;

/// Measurement-noise allowance on [`MIN_SIMD_SPEEDUP`]. At the small
/// scale a SIMD run is under 20 ms, and even interleaved min-of-reps
/// timing jitters a couple of percent on shared runners; the gate fails
/// at `MIN_SIMD_SPEEDUP - SIMD_NOISE_MARGIN` so it trips on real
/// regressions (the pre-resume layer sat at 0.87–0.96×) without
/// flaking on timer noise around the floor.
const SIMD_NOISE_MARGIN: f64 = 0.03;

struct EngineRow {
    label: String,
    off_secs: f64,
    on_secs: f64,
    stats: Stats,
    /// Median rows swept per checkpointed realignment (`resume_rows`
    /// p50 from the run report) — the lane-granular resume headline.
    resume_rows_p50: u64,
}

impl EngineRow {
    fn skipped_fraction(&self) -> f64 {
        let total = self.stats.realign_rows_swept + self.stats.realign_rows_skipped;
        if total == 0 {
            0.0
        } else {
            self.stats.realign_rows_skipped as f64 / total as f64
        }
    }
}

fn measure(
    seq: &repro::Seq,
    scoring: &Scoring,
    tops: usize,
    engine: Engine,
    timing_budget: Duration,
) -> EngineRow {
    let plain = Repro::new(scoring.clone())
        .top_alignments(tops)
        .engine(engine);
    let ckpt = plain
        .clone()
        .checkpoint_budget(Some(DEFAULT_CHECKPOINT_BUDGET));
    // One untimed run collects the work tallies; the timed loop
    // alternates off/on rep-by-rep (minimum of each) so scheduler noise
    // and frequency drift cancel out of the speedup ratio.
    let analysis = ckpt.run(seq);
    let (off_secs, on_secs) = time_min_pair(
        timing_budget,
        || {
            std::hint::black_box(plain.run(seq));
        },
        || {
            std::hint::black_box(ckpt.run(seq));
        },
    );
    EngineRow {
        label: plain.engine_label(),
        off_secs,
        on_secs,
        resume_rows_p50: analysis.run.batching.resume_rows_p50,
        stats: analysis.tops.stats,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let out = args
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "BENCH_e2e.json".to_string());

    let scale = Scale::from_args();
    let (unit, copies, flank, tops, timing_budget) = match scale {
        Scale::Small => (30, 4, 150, 10, Duration::from_millis(300)),
        Scale::Medium => (60, 6, 400, 15, Duration::from_millis(1500)),
        Scale::Full => (80, 10, 800, 25, Duration::from_secs(5)),
    };
    let scoring = Scoring::protein_default();
    // A planted repeat island in a random sea: interspersed copies with
    // unrelated flanks on both sides (the paper's introduction's
    // workload). The flanks matter to this bench — every accepted
    // alignment's pairs lie inside the island, so the dirty rows of
    // every straddled split start well below the matrix top and the
    // checkpointed resumes have rows to skip. A workload whose repeats
    // start at residue 0 (e.g. flankless tandem arrays) legitimately
    // yields no skips: every accept dirties row 0.
    let spec = RepeatSpec {
        flank,
        kind: RepeatKind::Interspersed {
            min_spacer: unit / 2,
            max_spacer: unit,
        },
        ..RepeatSpec::protein_interspersed(unit, copies)
    };
    let planted = PlantedRepeats::generate(&spec, 1);
    let seq = planted.seq;
    let len = seq.len();

    let engines: Vec<Engine> = vec![
        Engine::Sequential,
        Engine::SimdDispatch {
            width: None,
            path: None,
        },
        Engine::SimdThreads {
            threads: 2,
            width: None,
            path: None,
        },
        Engine::Threads(2),
        Engine::Cluster { workers: 2 },
    ];

    println!(
        "End-to-end incremental realignment — planted interspersed repeats \
         ({len} aa: {copies}x{unit} unit, flank {flank}), {tops} top alignments, \
         budget {DEFAULT_CHECKPOINT_BUDGET} B\n"
    );
    let table = Table::new(&[
        "engine",
        "off",
        "on",
        "speedup",
        "hits",
        "misses",
        "rows skip",
        "skip frac",
        "resume p50",
    ]);

    let mut rows: Vec<EngineRow> = Vec::new();
    for engine in engines {
        let row = measure(&seq, &scoring, tops, engine, timing_budget);
        table.row(&[
            row.label.clone(),
            secs(row.off_secs),
            secs(row.on_secs),
            format!("{:.2}x", row.off_secs / row.on_secs.max(1e-12)),
            row.stats.checkpoint_hits.to_string(),
            row.stats.checkpoint_misses.to_string(),
            row.stats.realign_rows_skipped.to_string(),
            format!("{:.1}%", 100.0 * row.skipped_fraction()),
            row.resume_rows_p50.to_string(),
        ]);
        rows.push(row);
    }

    let doc = Json::Obj(vec![
        ("bench".to_string(), Json::Str("e2e_speed".to_string())),
        ("scale".to_string(), Json::Str(format!("{scale:?}"))),
        ("host".to_string(), host()),
        (
            "sequence".to_string(),
            Json::Obj(vec![
                (
                    "kind".to_string(),
                    Json::Str("planted_interspersed_protein".to_string()),
                ),
                ("residues".to_string(), Json::Num(len as f64)),
                ("unit".to_string(), Json::Num(unit as f64)),
                ("copies".to_string(), Json::Num(copies as f64)),
                ("flank".to_string(), Json::Num(flank as f64)),
                ("tops".to_string(), Json::Num(tops as f64)),
            ]),
        ),
        (
            "checkpoint_budget".to_string(),
            Json::Num(DEFAULT_CHECKPOINT_BUDGET as f64),
        ),
        (
            "engines".to_string(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("engine".to_string(), Json::Str(r.label.clone())),
                            ("off_secs".to_string(), Json::Num(r.off_secs)),
                            ("on_secs".to_string(), Json::Num(r.on_secs)),
                            (
                                "speedup".to_string(),
                                Json::Num(r.off_secs / r.on_secs.max(1e-12)),
                            ),
                            (
                                "checkpoint_hits".to_string(),
                                Json::Num(r.stats.checkpoint_hits as f64),
                            ),
                            (
                                "checkpoint_misses".to_string(),
                                Json::Num(r.stats.checkpoint_misses as f64),
                            ),
                            (
                                "realign_rows_swept".to_string(),
                                Json::Num(r.stats.realign_rows_swept as f64),
                            ),
                            (
                                "realign_rows_skipped".to_string(),
                                Json::Num(r.stats.realign_rows_skipped as f64),
                            ),
                            (
                                "rows_skipped_fraction".to_string(),
                                Json::Num(r.skipped_fraction()),
                            ),
                            (
                                "resume_rows_p50".to_string(),
                                Json::Num(r.resume_rows_p50 as f64),
                            ),
                            (
                                "lanes_skipped".to_string(),
                                Json::Num(r.stats.lanes_skipped as f64),
                            ),
                            (
                                "lanes_compacted".to_string(),
                                Json::Num(r.stats.lanes_compacted as f64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut text = doc.to_string_compact();
    text.push('\n');
    std::fs::write(&out, text).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("\nwrote {out}");

    if check {
        let mut failed = false;
        let sequential = &rows[0];
        let frac = sequential.skipped_fraction();
        if frac < MIN_ROWS_SKIPPED {
            eprintln!(
                "CHECK FAILED: sequential rows-skipped fraction {frac:.3} below \
                 {MIN_ROWS_SKIPPED} — the checkpoint layer stopped removing work"
            );
            failed = true;
        }
        for row in &rows {
            let ratio = row.on_secs / row.off_secs.max(1e-12);
            if ratio > MAX_SLOWDOWN {
                eprintln!(
                    "CHECK FAILED: {} checkpointed run is {ratio:.2}x the plain run \
                     (threshold {MAX_SLOWDOWN}x)",
                    row.label
                );
                failed = true;
            }
            // The SIMD engines carry the lane-granular resume layer:
            // they must come out ahead, not just break even.
            if row.label.starts_with("simd") {
                let speedup = row.off_secs / row.on_secs.max(1e-12);
                if speedup < MIN_SIMD_SPEEDUP - SIMD_NOISE_MARGIN {
                    eprintln!(
                        "CHECK FAILED: {} checkpointed speedup {speedup:.2}x below \
                         {MIN_SIMD_SPEEDUP}x (noise margin {SIMD_NOISE_MARGIN}) — \
                         lane-granular resume stopped winning",
                        row.label
                    );
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check: rows-skipped fraction, SIMD speedups, and wall-time ratios all within bounds"
        );
    }
}
