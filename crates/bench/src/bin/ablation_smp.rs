//! **§5.2 ablation** — shared-memory scaling and speculative waste.
//!
//! Paper reference: the second CPU of a dual-processor node yields a
//! 100% performance increase for the cache-aware algorithm (only 25%
//! for the non-cache-aware one: memory-bus contention), and the
//! speculative scheduler performs up to 8.4% more alignments than the
//! sequential algorithm.
//!
//! Wall-clock scaling is only meaningful when the host has spare cores;
//! the binary reports the host's core count next to the measurements,
//! and uses the virtual-time model for the dual-CPU datapoint so the
//! *scheduling* claim is tested regardless of the host.

use repro::cluster::{simulate_cluster, AlignCache, CostModel};
use repro::obs::{Counter, FlightRecorder};
use repro::xmpi::virtual_time::LinkModel;
use repro::{find_top_alignments, find_top_alignments_parallel, Scoring, Search};
use repro_bench::{secs, time, Scale, Table};
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    let scale = Scale::from_args();
    let (m, count) = match scale {
        Scale::Small => (300, 8),
        Scale::Medium => (1000, 20),
        Scale::Full => (2500, 50),
    };
    let seq = repro_seqgen::titin_like(m, 7);
    let scoring = Scoring::protein_default();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("Shared-memory ablation (titin-like {m} aa, {count} tops; host has {cores} core(s))");
    println!("paper reference: +100% from the 2nd CPU; ≤ 8.4% speculative extra alignments\n");

    let (base, t_seq) = time(|| find_top_alignments(&seq, &scoring, count));

    let table = Table::new(&[
        "threads",
        "wall time",
        "vs 1 thread",
        "extra aligns",
        "superseded",
    ]);
    let mut t1 = None;
    for threads in [1usize, 2, 4] {
        let mut rec = FlightRecorder::new();
        let search = Search::new(count);
        let (run, t) =
            time(|| find_top_alignments_parallel(&seq, &scoring, &search, threads, &mut rec));
        assert_eq!(run.alignments, base.alignments);
        let t1v = *t1.get_or_insert(t);
        let extra = run.stats.alignments as f64 / base.stats.alignments as f64 - 1.0;
        table.row(&[
            threads.to_string(),
            secs(t),
            format!("{:.2}x", t1v / t),
            format!("{:+.2}%", 100.0 * extra),
            rec.counter(Counter::SupersededWork).to_string(),
        ]);
    }
    println!("\nsequential reference: {}", secs(t_seq));

    // The dual-CPU claim on the virtual-time model: 2 workers vs 1
    // worker on the same node (zero-latency link models shared memory).
    let link = LinkModel {
        latency: 0.0,
        bandwidth: f64::INFINITY,
    };
    let cache = Rc::new(RefCell::new(AlignCache::new()));
    let one = simulate_cluster(
        &seq,
        &scoring,
        count,
        2,
        CostModel::das2(),
        link,
        &base.stats,
        Rc::clone(&cache),
    );
    let two = simulate_cluster(
        &seq,
        &scoring,
        count,
        3,
        CostModel::das2(),
        link,
        &base.stats,
        Rc::clone(&cache),
    );
    println!(
        "\nvirtual-time dual-CPU model: 1 worker {} → 2 workers {} \
         ({:.0}% increase; paper: 100% when cache-aware)",
        secs(one.virtual_time),
        secs(two.virtual_time),
        100.0 * (one.virtual_time / two.virtual_time - 1.0)
    );
}
