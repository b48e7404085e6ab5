//! Criterion micro-benchmarks of the alignment kernels and the core
//! data structures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use repro::align::{sw_last_row, sw_last_row_naive, sw_last_row_striped, NoMask, Scoring};
use repro::core::{OverrideTriangle, SplitMask};
use repro::simd::group::align_group;
use repro::simd::lanes::{I16x4, I16x8};
use std::hint::black_box;
use std::time::Duration;

fn bench_score_kernels(c: &mut Criterion) {
    let seq = repro_seqgen::titin_like(1024, 11);
    let scoring = Scoring::protein_default();
    let (prefix, suffix) = seq.split(512);
    let cells = 512u64 * 512;

    let mut g = c.benchmark_group("score_kernels");
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(20);
    g.throughput(Throughput::Elements(cells));
    g.bench_function("gotoh_512x512", |b| {
        b.iter(|| black_box(sw_last_row(prefix, suffix, &scoring, NoMask)))
    });
    g.bench_function("striped_512x512", |b| {
        b.iter(|| black_box(sw_last_row_striped(prefix, suffix, &scoring, NoMask, 2048)))
    });
    g.finish();

    // The naive (Equation 1) kernel is cubic; bench it tiny.
    let small = seq.prefix(128);
    let mut g = c.benchmark_group("naive_kernel");
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    g.throughput(Throughput::Elements(64 * 64));
    g.bench_function("naive_64x64", |b| {
        let (p, s) = small.split(64);
        b.iter(|| black_box(sw_last_row_naive(p, s, &scoring, NoMask)))
    });
    g.finish();
}

fn bench_simd_groups(c: &mut Criterion) {
    let seq = repro_seqgen::titin_like(1024, 12);
    let scoring = Scoring::protein_default();
    let mut g = c.benchmark_group("simd_groups");
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(20);
    for lanes in [4usize, 8] {
        let r0 = 512 - lanes / 2;
        g.bench_with_input(BenchmarkId::new("lanes", lanes), &lanes, |b, &lanes| {
            b.iter(|| {
                if lanes == 4 {
                    black_box(align_group::<I16x4>(seq.codes(), &scoring, r0, 4, None).cells)
                } else {
                    black_box(align_group::<I16x8>(seq.codes(), &scoring, r0, 8, None).cells)
                }
            })
        });
    }
    g.finish();
}

fn bench_masked_kernel(c: &mut Criterion) {
    let seq = repro_seqgen::titin_like(1024, 13);
    let scoring = Scoring::protein_default();
    let (prefix, suffix) = seq.split(512);
    let mut triangle = OverrideTriangle::new(seq.len());
    // A realistic post-few-tops triangle: a handful of alignment paths.
    for k in 0..5 {
        for i in 0..200 {
            triangle.set(100 + i, 600 + 40 * k + i);
        }
    }
    let mut g = c.benchmark_group("masked_kernel");
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(20);
    g.bench_function("masked_512x512", |b| {
        let mask = SplitMask::new(&triangle, 512);
        b.iter(|| black_box(sw_last_row(prefix, suffix, &scoring, mask)))
    });
    g.finish();
}

fn bench_triangle_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("triangle");
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(30);
    g.bench_function("set_get_4096", |b| {
        b.iter(|| {
            let mut t = OverrideTriangle::new(4096);
            for i in 0..1000 {
                t.set(i, i + 1000);
            }
            let mut hits = 0;
            for i in 0..2000 {
                if t.get(i, i + 1000) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.finish();
}

fn bench_scheduling_structures(c: &mut Criterion) {
    use repro::core::{Next, PackUnit, Scheduler, ScoredSeq, Search, Stats};
    let seq = repro_seqgen::titin_like(2048, 11);
    let scoring = Scoring::protein_default();
    let unit = PackUnit::new(ScoredSeq::new(&seq, &scoring), None);
    let triangle = OverrideTriangle::new(seq.len());
    let mut g = c.benchmark_group("scheduling");
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(30);
    g.bench_function("scheduler_churn_2047", |b| {
        b.iter(|| {
            let search = Search::new(usize::MAX);
            let mut sched = Scheduler::new(&unit, &seq, &scoring, &search);
            let mut stats = Stats::new();
            // Decide/settle cycles over 2 047 one-split units, the
            // Figure 5 hot path: every sweep settles lower, and a fresh
            // head is accepted.
            for round in 0..4096 {
                match sched.next(&mut stats, &triangle, usize::MAX) {
                    Next::Sweep { u, bound, .. } => {
                        let score = bound.min((round % 97) - 48);
                        sched.settle(u, score, sched.version());
                    }
                    Next::Accept { .. } => sched.accepted(&[]),
                    Next::Pruned { .. } => {}
                    Next::Wait | Next::Done => break,
                }
            }
            black_box(stats.stale_pops + stats.fresh_pops)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_score_kernels,
    bench_simd_groups,
    bench_masked_kernel,
    bench_triangle_ops,
    bench_scheduling_structures
);
criterion_main!(benches);
