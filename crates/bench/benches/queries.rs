//! Microbenchmarks: online query latency (MCSP, MCSS, MCSS-push) — the
//! "instant response" half of the paper's headline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pasco_graph::{generators, ReverseChainIndex};
use pasco_simrank::engine::kernel::build_diagonal_on;
use pasco_simrank::{queries, SimRankConfig};
use std::hint::black_box;

fn bench_queries(c: &mut Criterion) {
    let g = generators::barabasi_albert(7_115, 15, 0xB0A710AD);
    let cfg = SimRankConfig::default_paper().with_r_query(2_000);
    let out = build_diagonal_on(&g, &cfg);
    let diag = out.diag.as_slice();
    let rci = ReverseChainIndex::build(&g);

    let mut group = c.benchmark_group("queries");
    group.sample_size(20);
    group.bench_function("mcsp", |b| {
        b.iter(|| black_box(queries::single_pair(&g, diag, &cfg, 17, 3_000)));
    });
    group.bench_function("mcss-walks", |b| {
        b.iter(|| black_box(queries::single_source(&g, &rci, diag, &cfg, 17)));
    });
    group.bench_function("mcss-push", |b| {
        b.iter(|| black_box(queries::single_source_push(&g, diag, &cfg, 17)));
    });
    group.finish();

    // MCSP latency must stay flat as the graph grows (constant-time claim).
    let mut group = c.benchmark_group("queries/mcsp-vs-n");
    group.sample_size(20);
    for scale in [12u32, 14, 16] {
        let g = generators::rmat(scale, (1u64 << scale) * 8, generators::RmatParams::default(), 5);
        let out = build_diagonal_on(&g, &cfg.with_r(20));
        let diag = out.diag.as_slice().to_vec();
        group.bench_with_input(BenchmarkId::from_parameter(1u64 << scale), &g, |b, g| {
            b.iter(|| black_box(queries::single_pair(g, &diag, &cfg, 3, 999)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);
