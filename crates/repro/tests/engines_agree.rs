//! Cross-crate integration: every engine — sequential, SIMD at every
//! lane width (auto-dispatched and pinned to the portable path, so the
//! `core::arch` and array kernels are differenced against each other on
//! every workload), SIMD × SMP, threads, distributed, legacy — must
//! produce identical top alignments on realistic workloads. This is
//! the paper's correctness backbone: parallelisation and the `O(n³)`
//! rewrite change *work*, not *answers*.

use repro::{DispatchPath, Engine, LaneWidth, LegacyKernel, Repro, Scoring, SeedConfig, Seq};
use repro_seqgen::{titin_like, PlantedRepeats, RepeatSpec, Rng};

fn all_engines() -> Vec<Engine> {
    let mut engines = vec![
        Engine::Sequential,
        Engine::Simd(LaneWidth::X4),
        Engine::Simd(LaneWidth::X8),
        Engine::Simd(LaneWidth::X16),
        // Whatever the CPU probe picks (AVX2 where available)…
        Engine::SimdDispatch {
            width: None,
            path: None,
        },
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
    ];
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
        let deterministic = matches!(
            engine,
            Engine::Sequential | Engine::Simd(_) | Engine::SimdDispatch { .. }
        );
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
                    analysis.run.fresh_pops, plain.run.fresh_pops,
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
                analysis.tops.alignments, base.tops.alignments,
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
            analysis.tops.alignments, base.tops.alignments,
            "{engine:?} seeded and checkpointed disagrees on {}…",
            &seq.to_text()[..seq.len().min(30)]
        );
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
