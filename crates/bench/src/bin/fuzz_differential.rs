//! Differential fuzzing across every engine.
//!
//! Generates random workloads (sequences, scorings, top-counts) and
//! asserts that all engines — sequential, linear-memory, SIMD at every
//! lane width (auto-dispatched, pinned portable), SIMD × SMP, threads,
//! cluster, hybrid, legacy — return identical top alignments.
//! Deterministic: the case stream derives from `--seed`.
//!
//! Usage: `cargo run --release -p repro-bench --bin fuzz_differential
//! -- [--cases N] [--seed S]`.

use repro::core::{FinderConfig, Search, TopAlignmentFinder};
use repro::{Engine, LaneWidth, LegacyKernel, Repro, Scoring, Seq};
use repro_seqgen::Rng;

fn arg(name: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == name)
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(default)
}

fn main() {
    let cases = arg("--cases", 200);
    let seed = arg("--seed", 2026);
    let mut rng = Rng::new(seed);

    let simd = |width| Engine::SimdDispatch { width, path: None };
    let engines = [
        simd(Some(LaneWidth::X4)),
        simd(Some(LaneWidth::X8)),
        simd(Some(LaneWidth::X16)),
        simd(None),
        Engine::SimdDispatch {
            width: Some(LaneWidth::X16),
            path: Some(repro::DispatchPath::Portable),
        },
        Engine::SimdThreads {
            threads: 3,
            width: None,
            path: None,
        },
        Engine::Threads(3),
        Engine::Cluster { workers: 2 },
        Engine::Hybrid {
            nodes: 2,
            threads_per_node: 2,
        },
        Engine::Legacy(LegacyKernel::Gotoh),
    ];

    let mut checked = 0u64;
    for case in 0..cases {
        // Random workload: alphabet, length, composition, scoring, count.
        let dna = rng.chance(0.5);
        let len = rng.range(2, 80);
        let seq = if dna {
            let unit = rng.range(1, 9);
            let base = repro_seqgen::random_seq(repro::Alphabet::Dna, unit, &mut rng);
            // Half the cases are repeat-rich (tandem-ish), half random.
            if rng.chance(0.5) {
                let codes: Vec<u8> = base.codes().iter().cycle().take(len).copied().collect();
                Seq::from_codes(repro::Alphabet::Dna, codes)
            } else {
                repro_seqgen::random_seq(repro::Alphabet::Dna, len, &mut rng)
            }
        } else {
            repro_seqgen::titin_like(len, rng.next_u64())
        };
        let scoring = if dna {
            Scoring::new(
                repro::ExchangeMatrix::match_mismatch(
                    repro::Alphabet::Dna,
                    rng.range(1, 5) as i32,
                    -(rng.range(0, 4) as i32),
                ),
                repro::GapPenalties::new(rng.range(0, 4) as i32, rng.range(1, 3) as i32),
            )
        } else {
            Scoring::protein_default()
        };
        let count = rng.range(1, 7);

        let base = Repro::new(scoring.clone()).top_alignments(count).run(&seq);
        // Linear-memory configuration through the core API.
        let linmem = TopAlignmentFinder::new(
            &seq,
            &scoring,
            FinderConfig::linear_memory(Search::new(count)),
        )
        .run();
        assert_eq!(
            linmem.alignments, base.tops.alignments,
            "case {case}: linear-memory diverged on {seq}"
        );
        for engine in engines {
            let got = Repro::new(scoring.clone())
                .top_alignments(count)
                .engine(engine)
                .run(&seq);
            assert_eq!(
                got.tops.alignments, base.tops.alignments,
                "case {case}: {engine:?} diverged on {seq}"
            );
            checked += 1;
        }
        if (case + 1) % 50 == 0 {
            eprintln!("{} / {cases} cases", case + 1);
        }
    }
    println!(
        "OK: {cases} workloads × {} engines = {checked} differential checks, \
         all identical (seed {seed})",
        engines.len() + 1
    );
}
