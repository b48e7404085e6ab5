//! Protein internal repeats on a titin-like sequence — the paper's
//! flagship workload, scaled to run in seconds.
//!
//! Generates a 1 200-residue titin-like protein (a chain of diverged
//! ~95-residue Ig/Fn3-style domains), finds 15 top alignments with
//! BLOSUM62, delineates the domain period, and shows that every engine
//! (sequential, SIMD, threads, cluster) returns identical alignments.
//!
//! Run with: `cargo run --release -p repro --example protein_repeats`

use repro::{Engine, LaneWidth, Repro, Scoring};
use repro_seqgen::titin_like;

fn main() {
    let seq = titin_like(1200, 2026);
    let scoring = Scoring::protein_default();
    println!(
        "titin-like protein: {} residues, first 60: {}",
        seq.len(),
        &seq.to_text()[..60]
    );

    let t0 = std::time::Instant::now();
    let base = Repro::new(scoring.clone()).top_alignments(15).run(&seq);
    println!(
        "\nsequential engine: 15 top alignments in {:.2?}",
        t0.elapsed()
    );
    for top in base.tops.alignments.iter().take(5) {
        println!(
            "  #{:<2} split r={:<5} score {:<5} ({} aligned pairs)",
            top.index + 1,
            top.r,
            top.score,
            top.pairs.len()
        );
    }
    println!("  ... ({} total)", base.tops.alignments.len());

    println!(
        "\nrealignment fraction after the initial sweep: {:.1}% \
         (paper reports 3–10%)",
        100.0 * base.tops.stats.realignment_fraction(seq.len() - 1)
    );

    println!(
        "\ndelineation: period estimate {:?} residues (generator uses \
         ~89–100 + linkers), {} units",
        base.report.period,
        base.report.copies()
    );
    if let Some(consensus) = &base.consensus {
        println!(
            "domain consensus ({} aa, mean identity {:.0}%): {}…",
            consensus.consensus.len(),
            100.0 * consensus.mean_identity(),
            &consensus.consensus.to_text()[..consensus.consensus.len().min(40)]
        );
    }

    for engine in [
        Engine::SimdDispatch {
            width: Some(LaneWidth::X8),
            path: None,
        },
        Engine::Threads(4),
        Engine::Cluster { workers: 3 },
    ] {
        let t = std::time::Instant::now();
        let analysis = Repro::new(scoring.clone())
            .top_alignments(15)
            .engine(engine)
            .run(&seq);
        let same = analysis.tops.alignments == base.tops.alignments;
        println!(
            "{engine:?}: {:.2?}, identical alignments: {same}",
            t.elapsed()
        );
        assert!(same, "engines must agree");
    }
}
