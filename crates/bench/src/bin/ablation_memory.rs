//! **Appendix A ablation** — memory/work trade-off of the bottom-row
//! store and the override triangle.
//!
//! Paper reference: storing all first-pass bottom rows needs
//! `m(m−1)/2` scores (1.5 GB at sequence length 40 000, the master's
//! limit); Appendix A sketches the alternative — recompute rows on
//! demand and compress the sparse triangle — "at the expense of extra
//! work". The triangle is stored compressed (row-sorted pairs) in both
//! modes; this binary quantifies the row trade on the same workload.
//!
//! The store's size is measured, not assumed: a full first pass of the
//! input fills a `Common` and `Common::row_bytes` sums what it holds
//! (one byte per entry for a row stored as `i8` deltas, four for one
//! stored plain), projected to titin's 34 350 residues.
//!
//! `--check` exits non-zero unless every row of the input is stored as
//! deltas, at one byte per entry.
//!
//! Usage: `ablation_memory [--scale small|medium|full] [--check]`.

use repro::align::{NoMask, StoredRow};
use repro::core::{Common, FinderConfig, Search, TopAlignmentFinder};
use repro::{find_top_alignments, Scoring};
use repro_bench::{secs, time, Scale, Table};
use std::process::ExitCode;

/// Titin's length in residues, the paper's motivating input.
const TITIN: usize = 34_350;

fn main() -> ExitCode {
    let scale = Scale::from_args();
    let check = std::env::args().any(|a| a == "--check");
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

    // Every first-pass row, stored as the engines store it.
    let common = Common::new(&seq, &scoring);
    for r in 1..m {
        common.set_row(r, common.input.split(r).last_row(NoMask).row);
    }
    let entries = m * (m - 1) / 2;
    let row_bytes = common.row_bytes();
    let per_entry = row_bytes as f64 / entries as f64;
    let deltas = (1..m)
        .filter(|&r| matches!(common.row(r), StoredRow::Delta(_)))
        .count();
    let table = Table::new(&["mode", "wall time", "row memory", "triangle", "extra cells"]);
    table.row(&[
        "store rows".into(),
        secs(t_store),
        format!("{:.1} KiB", row_bytes as f64 / 1024.0),
        format!("{:.1} KiB", store.triangle.heap_bytes() as f64 / 1024.0),
        "0".into(),
    ]);
    table.row(&[
        "recompute rows".into(),
        secs(t_linmem),
        format!("{:.1} KiB", common.row(1).bytes() as f64 / 1024.0), // one row at a time
        format!("{:.1} KiB", linmem.triangle.heap_bytes() as f64 / 1024.0),
        linmem.stats.row_recompute_cells.to_string(),
    ]);

    println!(
        "\nrow store: {row_bytes} B for {entries} entries, {per_entry:.3} B per entry \
         ({deltas} of {} rows as i8 deltas; {:.1} MiB in plain i32); \
         at titin's {TITIN} residues: {:.2} GB",
        m - 1,
        (entries * std::mem::size_of::<i32>()) as f64 / (1 << 20) as f64,
        per_entry * (TITIN * (TITIN - 1) / 2) as f64 / 1e9,
    );
    println!(
        "row recomputations: {} passes, {} cells \
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
    if check {
        if deltas != m - 1 || row_bytes != entries {
            eprintln!(
                "check failed: {deltas} of {} rows stored as deltas, {row_bytes} B for {entries} entries",
                m - 1
            );
            return ExitCode::FAILURE;
        }
        println!("check: every row stored as i8 deltas, one byte per entry");
    }
    ExitCode::SUCCESS
}
