//! **§5.1 ablation** — speculation overhead of SIMD group scheduling.
//!
//! Paper reference: "the SSE version hardly computes more alignments
//! than the sequential version (less than 0.70%)" — because when one
//! neighbouring matrix is worth realigning, its group mates almost
//! always are too.

use repro::obs::{Counter, FlightRecorder};
use repro::{find_top_alignments, find_top_alignments_simd, select, LaneWidth, Scoring, Search};
use repro_bench::{Scale, Table};

fn main() {
    let scale = Scale::from_args();
    let (m, count) = match scale {
        Scale::Small => (300, 10),
        Scale::Medium => (1200, 30),
        Scale::Full => (3000, 50),
    };
    let seq = repro_seqgen::titin_like(m, 5);
    let scoring = Scoring::protein_default();

    println!("SIMD group speculation overhead (titin-like {m} aa, {count} tops)");
    println!("paper reference: < 0.70% extra alignments with SSE groups\n");

    let base = find_top_alignments(&seq, &scoring, count);
    let table = Table::new(&["engine", "alignments", "extra vs seq", "group sweeps"]);
    table.row(&[
        "sequential".into(),
        base.stats.alignments.to_string(),
        "—".into(),
        "—".into(),
    ]);
    for width in [LaneWidth::X4, LaneWidth::X8] {
        let sel = select(Some(width), None).expect("width-only selection always resolves");
        let mut rec = FlightRecorder::new();
        let simd = find_top_alignments_simd(&seq, &scoring, &Search::new(count), sel, &mut rec);
        assert_eq!(simd.alignments, base.alignments);
        let extra = simd.stats.alignments as f64 / base.stats.alignments as f64 - 1.0;
        table.row(&[
            format!("{width:?}"),
            simd.stats.alignments.to_string(),
            format!("{:+.2}%", 100.0 * extra),
            rec.counter(Counter::GroupSweeps).to_string(),
        ]);
    }
    println!(
        "\n(extra alignments are group members dragged along with a hot \
         neighbour; the paper's 0.70% was measured on the 34 350-residue \
         titin where groups are a vanishing fraction of 34 349 splits)"
    );
}
