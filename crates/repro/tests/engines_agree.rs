//! Cross-crate integration: every engine — sequential, SIMD at every
//! lane width (auto-dispatched and pinned to the portable path, so the
//! `core::arch` and array kernels are differenced against each other on
//! every workload), SIMD × SMP, threads, distributed, legacy — must
//! produce identical top alignments on realistic workloads. This is
//! the paper's correctness backbone: parallelisation and the `O(n³)`
//! rewrite change *work*, not *answers*.

use repro::align::{NoMask, StoredRow};
use repro::core::Common;
use repro::obs::json::Json;
use repro::{
    DispatchPath, Engine, LaneWidth, LegacyKernel, Repro, Scoring, SeedConfig, Seq, Transport,
};
use repro_seqgen::{titin_like, PlantedRepeats, RepeatSpec, Rng};

fn all_engines() -> Vec<Engine> {
    let mut engines = vec![Engine::Sequential];
    // Each width on the fastest path that has it, then whatever the CPU
    // probe picks outright (AVX2 ×16 where available)…
    for width in [
        Some(LaneWidth::X4),
        Some(LaneWidth::X8),
        Some(LaneWidth::X16),
        None,
    ] {
        engines.push(Engine::SimdDispatch { width, path: None });
    }
    engines.extend([
        Engine::SimdThreads {
            threads: 3,
            width: None,
            path: None,
        },
        Engine::Threads(1),
        Engine::Threads(3),
        Engine::Cluster { workers: 1 },
        Engine::Cluster { workers: 3 },
        Engine::Hybrid {
            nodes: 2,
            threads_per_node: 2,
        },
        Engine::Legacy(LegacyKernel::Gotoh),
    ]);
    // …differenced against the portable kernels at every width.
    for width in [LaneWidth::X4, LaneWidth::X8, LaneWidth::X16] {
        engines.push(Engine::SimdDispatch {
            width: Some(width),
            path: Some(DispatchPath::Portable),
        });
    }
    engines
}

fn assert_all_agree(seq: &Seq, scoring: &Scoring, count: usize) {
    let base = Repro::new(scoring.clone()).top_alignments(count).run(seq);
    for top in &base.tops.alignments {
        assert!(top.score > 0);
    }
    for engine in all_engines() {
        let analysis = Repro::new(scoring.clone())
            .top_alignments(count)
            .engine(engine)
            .run(seq);
        assert_eq!(
            analysis.tops.alignments,
            base.tops.alignments,
            "{engine:?} disagrees on {}…",
            &seq.to_text()[..seq.len().min(30)]
        );
    }
}

/// The incremental-realignment layer is an exact shortcut: at any
/// budget (including the enabled-but-always-missing zero budget) every
/// engine must reproduce the plain run's alignments bit for bit, and
/// the acceptance schedule (alignment count, fresh pops) must be
/// untouched — checkpointing changes which DP rows are *swept*, never
/// which scores are *seen*.
fn assert_checkpointing_is_transparent(seq: &Seq, scoring: &Scoring, count: usize) {
    let base = Repro::new(scoring.clone()).top_alignments(count).run(seq);
    for engine in all_engines() {
        // The schedule comparison is per-engine (SIMD realigns whole
        // groups, so its logical-alignment tally legitimately differs
        // from the sequential engine's) and only meaningful for the
        // single-threaded engines: the speculative thread/cluster
        // engines' work tallies vary with scheduling luck even without
        // checkpointing. Their bit-identical *answers* are still
        // asserted for every engine.
        let deterministic = matches!(engine, Engine::Sequential | Engine::SimdDispatch { .. });
        let plain = Repro::new(scoring.clone())
            .top_alignments(count)
            .engine(engine)
            .run(seq);
        for budget in [Some(0), Some(1 << 20)] {
            let analysis = Repro::new(scoring.clone())
                .top_alignments(count)
                .engine(engine)
                .checkpoint_budget(budget)
                .run(seq);
            assert_eq!(
                analysis.tops.alignments, base.tops.alignments,
                "{engine:?} with budget {budget:?} disagrees"
            );
            if deterministic {
                assert_eq!(
                    analysis.tops.stats.alignments, plain.tops.stats.alignments,
                    "{engine:?} with budget {budget:?} changed the schedule"
                );
                assert_eq!(
                    analysis.run.stats.fresh_pops, plain.run.stats.fresh_pops,
                    "{engine:?} with budget {budget:?} changed fresh pops"
                );
            }
        }
    }
}

/// Seeded split pruning is an exact shortcut in the same sense: the
/// seed bound provably dominates each split's true score, so with
/// pruning on, every engine must reproduce the unseeded run's top
/// alignments bit for bit — pruning changes which splits are *swept*,
/// never which alignments are *accepted*. ([`Engine::Legacy`] ignores
/// the seed configuration; it rides along as a no-op.)
fn assert_pruning_is_transparent(seq: &Seq, scoring: &Scoring, count: usize) {
    let base = Repro::new(scoring.clone()).top_alignments(count).run(seq);
    for engine in all_engines() {
        for k in [3, 6] {
            let analysis = Repro::new(scoring.clone())
                .top_alignments(count)
                .engine(engine)
                .seed_config(Some(SeedConfig::new(k)))
                .run(seq);
            assert_eq!(
                analysis.tops.alignments,
                base.tops.alignments,
                "{engine:?} with seed k={k} disagrees on {}…",
                &seq.to_text()[..seq.len().min(30)]
            );
        }
        // Both exact shortcuts at once: pruning delays first passes
        // past accepts, and those late first passes seed the
        // checkpoints the realignments then resume from.
        let analysis = Repro::new(scoring.clone())
            .top_alignments(count)
            .engine(engine)
            .seed_config(Some(SeedConfig::default()))
            .checkpoint_budget(Some(1 << 20))
            .run(seq);
        assert_eq!(
            analysis.tops.alignments,
            base.tops.alignments,
            "{engine:?} seeded and checkpointed disagrees on {}…",
            &seq.to_text()[..seq.len().min(30)]
        );
    }
}

/// What every engine owes its recorder, checked once for all of them on
/// a checkpointed and seeded run, through the JSON keys the benchmark's
/// per-layer table reads by string (`benchmark/src/layers.rs`): a key
/// that goes quiet fails here, not as `missing` in a later benchmark
/// run. The sockets transport rides along as a sixteenth config.
#[test]
fn every_engine_folds_its_tallies_under_the_keys_the_benchmark_reads() {
    let seq = titin_like(220, 7);
    assert_eq!(all_engines().len(), 15);
    let mut configs: Vec<(Engine, Transport)> = all_engines()
        .into_iter()
        .map(|e| (e, Transport::Sim))
        .collect();
    configs.push((Engine::Cluster { workers: 2 }, Transport::Proc));
    for (engine, transport) in configs {
        let analysis = Repro::new(Scoring::protein_default())
            .top_alignments(5)
            .engine(engine)
            .transport(transport)
            .checkpoint_budget(Some(1 << 20))
            .seed_config(Some(SeedConfig::default()))
            .run(&seq);
        let report = analysis.run.to_json();
        let at = |path: &[&str]| -> f64 {
            path.iter()
                .try_fold(&report, |json, key| json.get(key))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{engine:?}: report has no {path:?}"))
        };
        let phase = |name: &str, field: &str| -> f64 {
            let Some(Json::Arr(phases)) = report.get("phases") else {
                panic!("{engine:?}: report has no phases");
            };
            phases
                .iter()
                .find(|p| p.get("name").and_then(Json::as_str) == Some(name))
                .and_then(|p| p.get(field)?.as_f64())
                .unwrap_or_else(|| panic!("{engine:?}: no phase {name}.{field}"))
        };

        // The report prints each exact tally once, from the result's
        // `Stats`.
        let s = &analysis.tops.stats;
        for (name, want) in [
            ("checkpoint_hits", s.checkpoint_hits),
            ("checkpoint_misses", s.checkpoint_misses),
            ("realign_rows_swept", s.realign_rows_swept),
            ("realign_rows_skipped", s.realign_rows_skipped),
            ("splits_pruned", s.splits_pruned),
            ("pruned_pops", s.pruned_pops),
            ("bound_recomputes", s.bound_recomputes),
            ("seed_index_build_ns", s.seed_index_build_ns),
        ] {
            assert_eq!(at(&["stats", name]), want as f64, "{engine:?} stat {name}");
        }
        if matches!(engine, Engine::Legacy(_)) {
            continue; // the reference algorithm records nothing
        }
        let smp = matches!(engine, Engine::Threads(_) | Engine::SimdThreads { .. });
        // Cluster workers and the hybrid's node threads sweep lane packs,
        // over either transport.
        let cluster = matches!(engine, Engine::Cluster { .. } | Engine::Hybrid { .. });
        let simd = cluster
            || matches!(
                engine,
                Engine::SimdDispatch { .. } | Engine::SimdThreads { .. }
            );
        // Each line: what the report shows, and which engines must show it.
        let check = |shown: bool, wanted: bool, what: &str| {
            assert_eq!(shown, wanted, "{engine:?}: {what}");
        };
        let counted = |name: &str| at(&["counters", name]) > 0.0;
        let sampled = |metric: &str| at(&["histograms", metric, "count"]) > 0.0;
        let entered = |name: &str| phase(name, "entries") > 0.0;
        let accounted = s.checkpoint_hits + s.checkpoint_misses > 0;
        check(accounted, true, "realignments accounted");
        check(s.seed_index_build_ns > 0, true, "bounds built");
        check(sampled("task_round_trip_ns"), true, "round trips");
        check(sampled("sweep_ns"), true, "sweep_ns");
        check(entered("traceback"), true, "traceback phase");
        check(entered("delineate"), true, "delineate phase");
        check(entered("consensus"), true, "consensus phase");
        // The single-threaded engines span their sweeps; the SMP engines
        // fold their workers' unlocked sweep seconds, by kind.
        let swept_here = smp || matches!(engine, Engine::Sequential | Engine::SimdDispatch { .. });
        check(entered("first_sweep"), swept_here, "first_sweep phase");
        check(entered("drain"), swept_here, "drain phase");
        check(counted("task_claims"), smp, "task_claims");
        check(entered("worker_idle"), smp, "worker_idle phase");
        if smp {
            // Queue waits and idle seconds are sampled at the same site,
            // and only when a worker actually waited: carried through
            // together or not at all.
            let idled = phase("worker_idle", "secs") > 0.0;
            check(sampled("queue_wait_ns"), idled, "queue_wait_ns");
            // One worker of a sequential schedule supersedes nothing;
            // more may, and the key must be there either way.
            at(&["counters", "superseded_work"]);
        }
        check(counted("group_sweeps"), simd, "group_sweeps");
        check(counted("lanes_active"), simd, "lanes_active");
        // BLOSUM scores on 220 residues never saturate an `i16` lane.
        check(counted("promoted_sweeps"), false, "promoted_sweeps");
        check(counted("narrow_saturations"), false, "narrow_saturations");
        check(entered("recovery"), cluster, "recovery phase");
        check(at(&["batching", "batches"]) > 0.0, cluster, "batches");
        let per_trip = at(&["batching", "tasks_per_round_trip"]);
        check(per_trip > 0.0, cluster, "tasks per round trip");
    }
}

/// One SMP worker *is* the sequential engine of the same unit of work,
/// count for count: `threads:1` against the sequential engine (1-lane
/// packs, the row kernel) and `simd-threads:1` against `simd` at every
/// width (the lane kernel), plain, checkpointed under a budget that binds and
/// one that does not, seeded, and both. Who runs a claim differs; the
/// tops and every count — what proves the two callers of each unit
/// share it, the one row store its rows are moved into, and the one
/// scheduler that decides, pruned pops included — may not.
#[test]
fn one_worker_is_the_sequential_engine_count_for_count() {
    let seq = titin_like(300, 12);
    let mut pairs = vec![(Engine::Sequential, Engine::Threads(1))];
    for width in [LaneWidth::X4, LaneWidth::X8, LaneWidth::X16].map(Some) {
        let path = None;
        let smp = Engine::SimdThreads {
            threads: 1,
            width,
            path,
        };
        pairs.push((Engine::SimdDispatch { width, path }, smp));
    }
    let seeded = Some(SeedConfig::default());
    for (budget, seed) in [
        (None, None),
        (Some(16 << 10), None),
        (Some(1 << 20), None),
        (None, seeded),
        (Some(1 << 20), seeded),
    ] {
        for &(sequential, one_worker) in &pairs {
            let [want, got] = [sequential, one_worker].map(|engine| {
                Repro::new(Scoring::protein_default())
                    .top_alignments(8)
                    .engine(engine)
                    .checkpoint_budget(budget)
                    .seed_config(seed)
                    .run(&seq)
            });
            let what = format!("{one_worker:?} with budget {budget:?}, seed {seed:?}");
            assert_eq!(got.tops.alignments, want.tops.alignments, "{what}");
            let counter = |a: &repro::Analysis, name: &str| {
                let found = a.run.counters.iter().find(|c| c.0 == name);
                found.expect("every counter is reported").1
            };
            let counts = |a: &repro::Analysis| {
                let s = &a.tops.stats;
                [
                    ("cells", s.cells),
                    ("alignments", s.alignments),
                    ("fresh_pops", s.fresh_pops),
                    ("stale_pops", s.stale_pops),
                    ("pruned_pops", s.pruned_pops),
                    ("checkpoint_hits", s.checkpoint_hits),
                    ("checkpoint_misses", s.checkpoint_misses),
                    ("realign_rows_swept", s.realign_rows_swept),
                    ("realign_rows_skipped", s.realign_rows_skipped),
                    ("lanes_skipped", s.lanes_skipped),
                    ("lanes_compacted", s.lanes_compacted),
                    ("shadow_rejections", s.shadow_rejections),
                    ("splits_pruned", s.splits_pruned),
                    ("bound_recomputes", s.bound_recomputes),
                    ("tracebacks", s.tracebacks),
                    ("traceback_cells", s.traceback_cells),
                    ("group_sweeps", counter(a, "group_sweeps")),
                ]
            };
            assert_eq!(counts(&got), counts(&want), "{what}");
            // A single worker is speculation-free.
            assert_eq!(counter(&got, "superseded_work"), 0, "{what}");
        }
    }
}

#[test]
fn pruning_transparent_on_sparse_repeat_island() {
    // Two motif copies in long non-repetitive flanks: most splits carry
    // no seed and are actually pruned, so this exercises the pruned
    // path, not just the seeded bookkeeping.
    let motif = "ATGCATGCATGC";
    let seq = Seq::dna(&format!(
        "GGTTCCAACCGGTTAACCAGTGCA{motif}{motif}CAGTCCGGAATTCCGGTAACCGT"
    ))
    .unwrap();
    assert_pruning_is_transparent(&seq, &Scoring::dna_example(), 2);
}

#[test]
fn pruning_transparent_on_embedded_repeats() {
    let motif = "ATGCATGCATGC";
    let seq = Seq::dna(&format!(
        "GGTTCCAA{motif}CCAAGGTT{motif}TGCATTGG{motif}AACCGGTT"
    ))
    .unwrap();
    assert_pruning_is_transparent(&seq, &Scoring::dna_example(), 6);
}

#[test]
fn pruning_transparent_on_titin_like() {
    let seq = titin_like(220, 7);
    assert_pruning_is_transparent(&seq, &Scoring::protein_default(), 5);
}

#[test]
fn titin_like_protein() {
    let seq = titin_like(300, 11);
    assert_all_agree(&seq, &Scoring::protein_default(), 8);
}

#[test]
fn checkpointing_transparent_on_embedded_repeats() {
    // Interior motifs (repeats that do not start at residue 0) make the
    // dirty bounds non-trivial, so checkpoint hits actually occur.
    let motif = "ATGCATGCATGC";
    let seq = Seq::dna(&format!(
        "GGTTCCAA{motif}CCAAGGTT{motif}TGCATTGG{motif}AACCGGTT"
    ))
    .unwrap();
    assert_checkpointing_is_transparent(&seq, &Scoring::dna_example(), 6);
}

#[test]
fn checkpointing_transparent_on_titin_like() {
    let seq = titin_like(220, 7);
    assert_checkpointing_is_transparent(&seq, &Scoring::protein_default(), 5);
}

#[test]
fn planted_tandem_dna() {
    let planted = PlantedRepeats::generate(&RepeatSpec::dna_tandem(25, 6), 3);
    assert_all_agree(&planted.seq, &Scoring::dna_example(), 10);
}

#[test]
fn planted_interspersed_protein() {
    let planted = PlantedRepeats::generate(&RepeatSpec::protein_interspersed(30, 4), 5);
    assert_all_agree(&planted.seq, &Scoring::protein_default(), 6);
}

#[test]
fn random_dna_little_signal() {
    let mut rng = Rng::new(17);
    let seq = repro_seqgen::random_seq(repro::Alphabet::Dna, 120, &mut rng);
    assert_all_agree(&seq, &Scoring::dna_example(), 5);
}

#[test]
fn pathological_homopolymer() {
    let seq = Seq::dna(&"A".repeat(60)).unwrap();
    assert_all_agree(&seq, &Scoring::dna_example(), 5);
}

#[test]
fn two_residue_period() {
    let seq = Seq::dna(&"AT".repeat(40)).unwrap();
    assert_all_agree(&seq, &Scoring::dna_example(), 6);
}

/// The paper's DNA scoring scaled ×8 (match 40, mismatch −32, gap
/// open 16, extend 8) puts one 140-nt sequence's first-pass rows in both
/// stored forms: a row is kept as `i8` deltas unless some neighbour
/// difference falls outside `i8`, and here rows of both forms occur
/// along the sequence, the short rows near the right end mostly as
/// deltas. Repeats planted near an end and in the middle are accepted
/// from rows of both forms, and every engine, plain and seeded with
/// checkpoints, returns `find_top_alignments`' tops.
#[test]
fn rows_stored_as_deltas_and_plain() {
    let dna = repro::Alphabet::Dna;
    let mut rng = Rng::new(29);
    let mut codes = repro_seqgen::random_seq(dna, 140, &mut rng)
        .codes()
        .to_vec();
    codes.copy_within(2..14, 16); // accepted near the left end
    codes.copy_within(44..64, 70); // accepted from a central split
    let seq = Seq::from_codes(dna, codes);
    let m = seq.len();
    let scoring = Scoring::new(
        repro::ExchangeMatrix::match_mismatch(dna, 40, -32),
        repro::GapPenalties::new(16, 8),
    );
    let common = Common::new(&seq, &scoring);
    for r in 1..m {
        common.set_row(r, common.input.split(r).last_row(NoMask).row);
    }
    let delta = |r: usize| matches!(common.row(r), StoredRow::Delta(_));
    let deltas = (1..m).filter(|&r| delta(r)).count();
    assert!(deltas > 20 && deltas < m - 21, "{deltas} of {} rows", m - 1);

    let want = repro::core::find_top_alignments(&seq, &scoring, 4);
    assert!(want.alignments.iter().any(|t| delta(t.r)));
    assert!(want.alignments.iter().any(|t| !delta(t.r)));
    for engine in all_engines() {
        for (seed, budget) in [(None, None), (Some(SeedConfig::default()), Some(1 << 20))] {
            let analysis = Repro::new(scoring.clone())
                .top_alignments(4)
                .engine(engine)
                .seed_config(seed)
                .checkpoint_budget(budget)
                .run(&seq);
            assert_eq!(
                analysis.tops.alignments, want.alignments,
                "{engine:?} {seed:?}"
            );
        }
    }
}
