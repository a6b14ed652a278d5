//! Microbenchmarks: reverse-walk engine throughput (the kernel under both
//! offline indexing and every online query).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pasco_graph::generators;
use pasco_mc::walks::{reverse_walk_distributions, WalkParams};
use std::hint::black_box;

/// One cohort from one source, on a uniform graph (BA-10k, source 7) and on
/// the benchmark spine's contract graph (`rmat16`: 65k nodes, ~0.91M edges,
/// sources rotating over the nodes that have in-links) — there at the two
/// sizes the kernel runs at: the offline build's `R = 100` (sorted by
/// comparison) and a query's `R′ = 10 000` (radix-sorted).
fn bench_cohorts(c: &mut Criterion) {
    let rmat16 = generators::rmat(16, 1_000_000, generators::RmatParams::default(), 11);
    let live: Vec<u32> = rmat16.nodes().filter(|&v| rmat16.in_degree(v) > 0).collect();
    let cases = [
        (
            "walks/cohort",
            generators::barabasi_albert(10_000, 8, 42),
            vec![7],
            &[100, 1_000, 10_000][..],
        ),
        ("walks/rmat16-cohort", rmat16, live, &[100, 10_000][..]),
    ];
    for (name, g, sources, sizes) in &cases {
        let mut group = c.benchmark_group(*name);
        group.sample_size(20);
        for &walkers in *sizes {
            let params = WalkParams::new(10, walkers);
            let mut next = 0;
            group.throughput(Throughput::Elements(walkers as u64 * 10));
            group.bench_with_input(BenchmarkId::from_parameter(walkers), &params, |b, &params| {
                b.iter(|| {
                    next = (next + 7919) % sources.len();
                    black_box(reverse_walk_distributions(g, sources[next], params, 1))
                });
            });
        }
        group.finish();
    }
}

fn bench_all_nodes(c: &mut Criterion) {
    let g = generators::rmat(12, 32_768, generators::RmatParams::default(), 7);
    let mut group = c.benchmark_group("walks/index-phase");
    group.sample_size(10);
    group.throughput(Throughput::Elements(g.node_count() as u64 * 10 * 10));
    group.bench_function("4096-nodes-R10-T10", |b| {
        let params = WalkParams::new(10, 10);
        b.iter(|| {
            black_box(pasco_mc::parallel::map_all_nodes(&g, params, 3, |_, d| d.counts.len()))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_cohorts, bench_all_nodes);
criterion_main!(benches);
