//! **Appendix A ablation** — memory/work trade-off of the bottom-row
//! store and the override triangle.
//!
//! Paper reference: storing all first-pass bottom rows needs
//! `m(m−1)/2` scores (1.5 GB at sequence length 40 000, the master's
//! limit); Appendix A sketches the alternative — recompute rows on
//! demand and compress the sparse triangle — "at the expense of extra
//! work". The triangle is stored compressed (row-sorted pairs) in both
//! modes; this binary quantifies the row trade on the same workload.

use repro::core::{FinderConfig, Search, TopAlignmentFinder};
use repro::{find_top_alignments, Scoring};
use repro_bench::{secs, time, Scale, Table};

fn main() {
    let scale = Scale::from_args();
    let (m, count) = match scale {
        Scale::Small => (300, 10),
        Scale::Medium => (1200, 30),
        Scale::Full => (4000, 50),
    };
    let seq = repro_seqgen::titin_like(m, 8);
    let scoring = Scoring::protein_default();

    println!("Memory-mode ablation (titin-like {m} aa, {count} tops)");
    println!("paper reference (App. A): stored rows = m(m−1)/2 scores; on-demand recomputation trades work for linear memory\n");

    let (store, t_store) = time(|| find_top_alignments(&seq, &scoring, count));
    let (linmem, t_linmem) = time(|| {
        TopAlignmentFinder::new(
            &seq,
            &scoring,
            FinderConfig::linear_memory(Search::new(count)),
        )
        .run()
    });
    assert_eq!(store.alignments, linmem.alignments, "modes must agree");

    let row_bytes = m * (m - 1) / 2 * std::mem::size_of::<i32>();
    let table = Table::new(&["mode", "wall time", "row memory", "triangle", "extra cells"]);
    table.row(&[
        "store rows".into(),
        secs(t_store),
        format!("{:.1} MiB", row_bytes as f64 / (1 << 20) as f64),
        format!("{:.1} KiB", store.triangle.heap_bytes() as f64 / 1024.0),
        "0".into(),
    ]);
    table.row(&[
        "recompute rows".into(),
        secs(t_linmem),
        format!("{:.1} KiB", (m * 4) as f64 / 1024.0), // one row at a time
        format!("{:.1} KiB", linmem.triangle.heap_bytes() as f64 / 1024.0),
        linmem.stats.row_recompute_cells.to_string(),
    ]);

    println!(
        "\nrow recomputations: {} passes, {} cells \
         ({:.0}% on top of the {} scheduled alignment cells)",
        linmem.stats.row_recomputations,
        linmem.stats.row_recompute_cells,
        100.0 * linmem.stats.row_recompute_cells as f64 / linmem.stats.cells as f64,
        linmem.stats.cells,
    );
    println!(
        "slowdown paid for linear memory: {:.2}x (paper predicts \"extra work\"; \
         the triangle is O(pairs + m) bytes in both modes)",
        t_linmem / t_store
    );
}
