//! Engine-substrate comparison: offline build time and online query
//! latency/QPS for the Local engine vs the Sharded engine at several shard
//! counts — the datapoint behind the sharded-substrate PR. Results are
//! bit-identical across the swept engines, so every bar measures the same
//! work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pasco_graph::generators;
use pasco_simrank::{CloudWalker, ExecMode, SimRankConfig};
use std::hint::black_box;
use std::sync::Arc;

fn modes() -> Vec<(&'static str, ExecMode)> {
    vec![
        ("local", ExecMode::Local),
        ("sharded-1", ExecMode::Sharded { shards: 1 }),
        ("sharded-4", ExecMode::Sharded { shards: 4 }),
        ("sharded-8", ExecMode::Sharded { shards: 8 }),
    ]
}

fn bench_engines(c: &mut Criterion) {
    let g = Arc::new(generators::barabasi_albert(20_000, 10, 0xE17));
    let cfg = SimRankConfig::fast().with_r(16).with_r_query(1_000);

    // Offline build time per substrate.
    let mut group = c.benchmark_group("engines/build");
    group.sample_size(10);
    for (label, mode) in modes() {
        group.bench_with_input(BenchmarkId::from_parameter(label), &mode, |b, mode| {
            b.iter(|| black_box(CloudWalker::build(Arc::clone(&g), cfg, mode.clone()).unwrap()));
        });
    }
    group.finish();

    // Online QPS: per-query latency of MCSP and sparse top-k on each
    // substrate (same seed, bit-identical answers).
    let engines: Vec<(&'static str, CloudWalker)> = modes()
        .into_iter()
        .map(|(label, mode)| (label, CloudWalker::build(Arc::clone(&g), cfg, mode).unwrap()))
        .collect();
    let mut group = c.benchmark_group("engines/mcsp");
    group.sample_size(20);
    for (label, cw) in &engines {
        group.bench_with_input(BenchmarkId::from_parameter(label), cw, |b, cw| {
            b.iter(|| black_box(cw.try_single_pair(17, 9_001).unwrap()));
        });
    }
    group.finish();
    let mut group = c.benchmark_group("engines/topk");
    group.sample_size(20);
    for (label, cw) in &engines {
        group.bench_with_input(BenchmarkId::from_parameter(label), cw, |b, cw| {
            b.iter(|| black_box(cw.try_single_source_topk(17, 10).unwrap()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
