//! Appendix A's memory trade-off, live: the default configuration
//! stores every first-pass bottom row (`m(m−1)/2` scores — 1.5 GB at
//! the paper's length-40 000 limit), while the linear-memory
//! configuration recomputes rows on demand (the override triangle is
//! stored compressed either way) — same alignments, extra work, tiny
//! footprint.
//!
//! Run with: `cargo run --release -p repro --example memory_modes`

use repro::{Repro, Scoring};
use repro_seqgen::titin_like;

fn main() {
    let m = 1500;
    let seq = titin_like(m, 99);
    let scoring = Scoring::protein_default();

    let t0 = std::time::Instant::now();
    let default = Repro::new(scoring.clone()).top_alignments(20).run(&seq);
    let t_default = t0.elapsed();

    let t0 = std::time::Instant::now();
    let low = Repro::new(scoring)
        .top_alignments(20)
        .low_memory(true)
        .run(&seq);
    let t_low = t0.elapsed();

    assert_eq!(
        default.tops.alignments, low.tops.alignments,
        "both modes find identical top alignments"
    );

    let row_store_bytes = m * (m - 1) / 2 * std::mem::size_of::<i32>();
    println!("titin-like {m} aa, 20 top alignments — identical results, different footprints:\n");
    println!(
        "default     : {t_default:>10.2?}  rows {:>8.1} MiB  triangle {:>7.1} KiB",
        row_store_bytes as f64 / (1 << 20) as f64,
        default.tops.triangle.heap_bytes() as f64 / 1024.0,
    );
    println!(
        "low_memory  : {t_low:>10.2?}  rows {:>8.1} KiB  triangle {:>7.1} KiB",
        (m * 4) as f64 / 1024.0, // one transient row at a time
        low.tops.triangle.heap_bytes() as f64 / 1024.0,
    );
    println!(
        "\nextra work paid: {} on-demand row recomputations ({} cells, {:.0}% of scheduled work)",
        low.tops.stats.row_recomputations,
        low.tops.stats.row_recompute_cells,
        100.0 * low.tops.stats.row_recompute_cells as f64 / low.tops.stats.cells as f64
    );
    println!(
        "\n(the paper stores all rows on the master and notes 1.5 GB at length \
         40 000; Appendix A sketches exactly this on-demand alternative)"
    );
}
