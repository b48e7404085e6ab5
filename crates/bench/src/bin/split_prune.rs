//! **Seeded split pruning** — how many splits each engine never aligns
//! at all once the admissible two-sided split bounds are on, and what
//! that costs on a workload where little can be pruned.
//!
//! The seed layer computes, per split, an upper bound proven to
//! dominate the split's task score: the minimum of the best path
//! *ending* in the split's bottom row (forward triangular self-sweep)
//! and the best path *starting* in its rectangle (the same sweep over
//! the reversed sequence), both refreshed on demand under the override
//! triangle. A split whose bound never rises above the acceptance
//! frontier is dropped without a single DP cell — the quantity reported
//! here as the *prune fraction*. Pruning is an exact shortcut: the top
//! alignments must match the unseeded run byte for byte, and this
//! binary asserts that on every engine/workload pair before writing a
//! single number.
//!
//! Four workloads:
//!
//! * **sparse island** ([`RepeatSpec::protein_sparse_island`], two
//!   copies): a short tandem block in long unrelated flanks. Flank
//!   splits see no repeated material across the cut, their bounds stay
//!   near zero, and nearly all of them prune — the original headline
//!   case, shaped so that even a one-sided bound did well.
//! * **DNA sparse island** ([`RepeatSpec::dna_sparse_island`]) and
//!   **three-copy protein island**: the two shapes the one-sided bound
//!   was loose on — chance 1-in-4 self-matches let DNA noise alignments
//!   drift the flank bounds upward, and with three tandem copies the
//!   overlapping self-alignment (copies 1+2 against 2+3, about twice
//!   any legal top) kept a whole flank above the frontier through its
//!   slowly decaying tail. Each tail reaches only one flank per side of
//!   the bound, so the minimum collapses on both.
//! * **dense** (titin-like): wall-to-wall repeats where every split is
//!   seeded and bounds run high. This gates the wall-clock side: seeded
//!   runs must not regress on repeat-dense inputs. (In practice even
//!   this workload prunes — only a handful of tops are requested, so
//!   splits whose bound trails the acceptance frontier still drop.)
//!
//! Two modes:
//!
//! * default: run the engine × workload matrix off-vs-on and write
//!   `BENCH_prune.json` (checked-in copy under `results/`), including
//!   each seeded run's `prune_slack` histogram (how far a requeued
//!   never-aligned split's queued bound overshot its refreshed one).
//! * `--check`: additionally exit non-zero if the sequential engine
//!   prunes less than its floor of an island's splits
//!   ([`MIN_PRUNED_SPARSE`], [`MIN_PRUNED_DNA`],
//!   [`MIN_PRUNED_THREE_COPY`]), if any engine/workload pair's
//!   alignments differ, or if an engine's seeded wall time on the dense
//!   workload exceeds [`MAX_DENSE_SLOWDOWN`]× its unseeded time
//!   ([`MAX_DENSE_SLOWDOWN_THREADED`]× on the threaded engines). This is
//!   the CI gate proving the bounds keep removing work without changing
//!   answers.
//!
//! Usage: `cargo run --release -p repro-bench --bin split_prune --
//! [--scale small|medium|full] [--out BENCH_prune.json] [--check]`.

use repro::obs::json::Json;
use repro::obs::Metric;
use repro::report::HistogramSummary;
use repro::{Engine, Repro, Scoring, SeedConfig, Stats};
use repro_bench::{host, secs, time_min, Scale, Table};
use repro_seqgen::{titin_like, PlantedRepeats, RepeatSpec};
use std::time::Duration;

/// Minimum fraction of the two-copy protein island's splits the
/// sequential engine must never align under `--check` (PR 7's floor).
const MIN_PRUNED_SPARSE: f64 = 0.50;

/// The same floor on the DNA island (measured 0.83–0.90 across scales;
/// 0.43 with the one-sided bound).
const MIN_PRUNED_DNA: f64 = 0.80;

/// The same floor on the three-copy protein island (measured 0.96 at
/// every scale; 0.48 with the one-sided bound).
const MIN_PRUNED_THREE_COPY: f64 = 0.90;

/// Maximum seeded-over-unseeded wall-time ratio tolerated on the dense
/// workload under `--check` for the single-threaded engines.
const MAX_DENSE_SLOWDOWN: f64 = 1.10;

/// The same for the threaded engines, whose walls carry scheduling
/// noise on shared CI runners.
const MAX_DENSE_SLOWDOWN_THREADED: f64 = 1.5;

struct Row {
    workload: &'static str,
    label: String,
    off_secs: f64,
    on_secs: f64,
    splits: usize,
    stats: Stats,
    /// The seeded run's `prune_slack` histogram.
    prune_slack: HistogramSummary,
    alignments_match: bool,
}

impl Row {
    fn prune_fraction(&self) -> f64 {
        if self.splits == 0 {
            0.0
        } else {
            self.stats.splits_pruned as f64 / self.splits as f64
        }
    }
}

fn measure(
    workload: &'static str,
    seq: &repro::Seq,
    scoring: &Scoring,
    tops: usize,
    engine: Engine,
    timing_budget: Duration,
) -> Row {
    let plain = Repro::new(scoring.clone())
        .top_alignments(tops)
        .engine(engine);
    let seeded = plain.clone().seed_config(Some(SeedConfig::default()));
    // One untimed pair collects the work tallies and the byte-identity
    // verdict; the timed loops take the minimum over repeated runs.
    let base = plain.run(seq);
    let analysis = seeded.run(seq);
    let alignments_match = base.tops.alignments == analysis.tops.alignments;
    let off_secs = time_min(timing_budget, || {
        std::hint::black_box(plain.run(seq));
    });
    let on_secs = time_min(timing_budget, || {
        std::hint::black_box(seeded.run(seq));
    });
    Row {
        workload,
        label: plain.engine_label(),
        off_secs,
        on_secs,
        splits: seq.len().saturating_sub(1),
        prune_slack: analysis
            .run
            .histograms
            .iter()
            .find(|h| h.metric == Metric::PruneSlack.name())
            .expect("every run report carries every metric")
            .clone(),
        stats: analysis.tops.stats,
        alignments_match,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let out = args
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "BENCH_prune.json".to_string());

    let scale = Scale::from_args();
    // The islands scale by unit and flank length (flanks are four
    // island-lengths a side).
    let (unit, dense_len, dense_tops, timing_budget) = match scale {
        Scale::Small => (24, 160, 2, Duration::from_millis(300)),
        Scale::Medium => (64, 400, 3, Duration::from_millis(1000)),
        Scale::Full => (96, 900, 5, Duration::from_secs(3)),
    };
    // An island plants exactly one repeat family, so one top alignment
    // is the natural ask — requesting more forces the queue to align
    // noise-level splits just to rank them, diluting the prune floor.
    let island_tops = 1;

    let sparse_seq = PlantedRepeats::generate(&RepeatSpec::protein_sparse_island(unit, 2), 11).seq;
    let three_seq = PlantedRepeats::generate(&RepeatSpec::protein_sparse_island(unit, 3), 11).seq;
    let dna_seq = PlantedRepeats::generate(&RepeatSpec::dna_sparse_island(unit, 2), 11).seq;
    let protein_scoring = Scoring::protein_default();
    let dna_scoring = Scoring::dna_example();
    // Dense: titin-like, repeats wall to wall — nothing to prune, so
    // any seeded slowdown is pure bound-layer overhead.
    let dense_seq = titin_like(dense_len, 3);

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
        "Seeded split pruning — islands of {unit}-residue tandem copies in flanks of \
         four island-lengths ({island_tops} top): protein x2 ({} aa), protein x3 ({} aa), \
         DNA x2 ({} nt) — vs dense titin-like ({} aa, {dense_tops} tops)\n",
        sparse_seq.len(),
        three_seq.len(),
        dna_seq.len(),
        dense_seq.len(),
    );
    let table = Table::new(&[
        &format!("{:>20}", "workload"),
        &format!("{:>14}", "engine"),
        "off",
        "on",
        "ratio",
        "pruned",
        "frac",
        "match",
    ]);

    let mut rows: Vec<Row> = Vec::new();
    for engine in &engines {
        for (workload, seq, scoring, tops) in [
            ("sparse_island", &sparse_seq, &protein_scoring, island_tops),
            ("dna_sparse_island", &dna_seq, &dna_scoring, island_tops),
            (
                "protein_island_3copy",
                &three_seq,
                &protein_scoring,
                island_tops,
            ),
            ("dense_titin", &dense_seq, &protein_scoring, dense_tops),
        ] {
            let row = measure(workload, seq, scoring, tops, *engine, timing_budget);
            table.row(&[
                row.workload.to_string(),
                row.label.clone(),
                secs(row.off_secs),
                secs(row.on_secs),
                format!("{:.2}x", row.on_secs / row.off_secs.max(1e-12)),
                row.stats.splits_pruned.to_string(),
                format!("{:.1}%", 100.0 * row.prune_fraction()),
                if row.alignments_match { "yes" } else { "NO" }.to_string(),
            ]);
            rows.push(row);
        }
    }

    let doc = Json::Obj(vec![
        ("bench".to_string(), Json::Str("split_prune".to_string())),
        ("scale".to_string(), Json::Str(format!("{scale:?}"))),
        ("host".to_string(), host()),
        (
            "seed_k".to_string(),
            Json::Num(SeedConfig::default().k as f64),
        ),
        (
            "workloads".to_string(),
            Json::Obj(
                [
                    ("sparse_island", &sparse_seq, 2),
                    ("dna_sparse_island", &dna_seq, 2),
                    ("protein_island_3copy", &three_seq, 3),
                ]
                .into_iter()
                .map(|(name, seq, copies)| {
                    (
                        name.to_string(),
                        Json::Obj(vec![
                            ("residues".to_string(), Json::Num(seq.len() as f64)),
                            ("unit".to_string(), Json::Num(unit as f64)),
                            ("copies".to_string(), Json::Num(copies as f64)),
                            ("tops".to_string(), Json::Num(island_tops as f64)),
                        ]),
                    )
                })
                .chain([(
                    "dense_titin".to_string(),
                    Json::Obj(vec![
                        ("residues".to_string(), Json::Num(dense_seq.len() as f64)),
                        ("tops".to_string(), Json::Num(dense_tops as f64)),
                    ]),
                )])
                .collect(),
            ),
        ),
        (
            "rows".to_string(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("workload".to_string(), Json::Str(r.workload.to_string())),
                            ("engine".to_string(), Json::Str(r.label.clone())),
                            ("off_secs".to_string(), Json::Num(r.off_secs)),
                            ("on_secs".to_string(), Json::Num(r.on_secs)),
                            (
                                "wall_ratio".to_string(),
                                Json::Num(r.on_secs / r.off_secs.max(1e-12)),
                            ),
                            ("splits".to_string(), Json::Num(r.splits as f64)),
                            (
                                "splits_pruned".to_string(),
                                Json::Num(r.stats.splits_pruned as f64),
                            ),
                            ("prune_fraction".to_string(), Json::Num(r.prune_fraction())),
                            (
                                "pruned_pops".to_string(),
                                Json::Num(r.stats.pruned_pops as f64),
                            ),
                            (
                                "bound_recomputes".to_string(),
                                Json::Num(r.stats.bound_recomputes as f64),
                            ),
                            (
                                "seed_index_build_ns".to_string(),
                                Json::Num(r.stats.seed_index_build_ns as f64),
                            ),
                            (
                                "prune_slack".to_string(),
                                Json::Obj(
                                    [
                                        ("count", r.prune_slack.count),
                                        ("sum", r.prune_slack.sum),
                                        ("p50", r.prune_slack.p50),
                                        ("p90", r.prune_slack.p90),
                                        ("p99", r.prune_slack.p99),
                                    ]
                                    .into_iter()
                                    .map(|(k, v)| (k.to_string(), Json::Num(v as f64)))
                                    .collect(),
                                ),
                            ),
                            (
                                "alignments_match".to_string(),
                                Json::Bool(r.alignments_match),
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
        for row in &rows {
            if !row.alignments_match {
                eprintln!(
                    "CHECK FAILED: {} on {} changed the top alignments under pruning",
                    row.label, row.workload
                );
                failed = true;
            }
        }
        for (workload, floor) in [
            ("sparse_island", MIN_PRUNED_SPARSE),
            ("dna_sparse_island", MIN_PRUNED_DNA),
            ("protein_island_3copy", MIN_PRUNED_THREE_COPY),
        ] {
            let frac = rows
                .iter()
                .find(|r| r.workload == workload && r.label == "sequential")
                .expect("sequential island row present")
                .prune_fraction();
            if frac < floor {
                eprintln!(
                    "CHECK FAILED: sequential pruned {frac:.3} of {workload}'s splits, \
                     below the {floor} floor — the bounds stopped removing work"
                );
                failed = true;
            }
        }
        for row in rows.iter().filter(|r| r.workload == "dense_titin") {
            let single_threaded = matches!(row.label.as_str(), "sequential" | "simd-dispatch");
            let limit = if single_threaded {
                MAX_DENSE_SLOWDOWN
            } else {
                MAX_DENSE_SLOWDOWN_THREADED
            };
            let ratio = row.on_secs / row.off_secs.max(1e-12);
            if ratio > limit {
                eprintln!(
                    "CHECK FAILED: {} seeded run is {ratio:.2}x the plain run on the \
                     dense workload (threshold {limit}x)",
                    row.label
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("check: prune floors + byte-identity + dense overhead all within bounds");
    }
}
