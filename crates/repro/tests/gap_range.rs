//! A gap model past the 16-lane `i16` kernels' range
//! ([`GapPenalties::fit_i16`] fails) is still a valid scoring when
//! [`Scoring::check_range`] accepts it: the SIMD engines sweep it on
//! their wide `i32` path instead of panicking, and every engine returns
//! the sequential engine's tops.

use repro::{
    DispatchPath, Engine, ExchangeMatrix, GapPenalties, LaneWidth, LegacyKernel, Repro, Scoring,
    Transport,
};
use repro_seqgen::{PlantedRepeats, RepeatSpec};

#[test]
fn every_engine_returns_the_sequential_tops_under_a_gap_open_past_i16() {
    let scoring = Scoring::new(ExchangeMatrix::dna_default(), GapPenalties::new(40_000, 1));
    let spec = RepeatSpec {
        flank: 24,
        ..RepeatSpec::dna_sparse_island(20, 3)
    };
    let seq = PlantedRepeats::generate(&spec, 5).seq;
    assert!(!scoring.gaps.fit_i16());
    assert!(scoring.check_range(seq.len()).is_ok());

    let base = Repro::new(scoring.clone()).top_alignments(4).run(&seq);
    assert_eq!(base.tops.alignments.len(), 4);
    let mut configs: Vec<(Engine, Transport)> = [
        Engine::SimdDispatch {
            width: Some(LaneWidth::X4),
            path: None,
        },
        Engine::SimdDispatch {
            width: Some(LaneWidth::X8),
            path: None,
        },
        Engine::SimdDispatch {
            width: Some(LaneWidth::X16),
            path: None,
        },
        Engine::SimdDispatch {
            width: Some(LaneWidth::X16),
            path: Some(DispatchPath::Portable),
        },
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
        Engine::Hybrid {
            nodes: 2,
            threads_per_node: 2,
        },
        Engine::Legacy(LegacyKernel::Gotoh),
    ]
    .into_iter()
    .map(|e| (e, Transport::Sim))
    .collect();
    configs.push((Engine::Cluster { workers: 2 }, Transport::Proc));
    for (engine, transport) in configs {
        let analysis = Repro::new(scoring.clone())
            .top_alignments(4)
            .engine(engine)
            .transport(transport)
            .run(&seq);
        assert_eq!(
            analysis.tops.alignments, base.tops.alignments,
            "{engine:?} over {transport:?}"
        );
    }
}
