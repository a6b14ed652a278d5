//! Microbenchmarks: reverse-walk engine throughput (the kernel under both
//! offline indexing and every online query).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pasco_graph::partition::Partitioner;
use pasco_graph::partitioned::PartitionedView;
use pasco_graph::{generators, CsrGraph, ForwardSampler, GraphSampler};
use pasco_graph::{ReverseChainIndex, WalkAdjacency};
use pasco_mc::counts::MassMap;
use pasco_mc::walks::{
    reverse_walk_distributions, reverse_walk_distributions_on, StepDistributions, WalkParams,
    WalkScratch,
};
use pasco_simrank::ai::{ai_row, RecomputedRows};
use pasco_simrank::{queries, SimRankConfig};
use pasco_store::{write_store, MappedStore};
use std::hint::black_box;

/// The benchmark spine's contract graph (65k nodes, ~0.91M edges) and its
/// live sources: the nodes that have in-links.
fn rmat16() -> (CsrGraph, Vec<u32>) {
    let g = generators::rmat(16, 1_000_000, generators::RmatParams::default(), 11);
    let live = g.nodes().filter(|&v| g.in_degree(v) > 0).collect();
    (g, live)
}

/// Rotates over `sources` the way every `rmat16` row does, so the rows of
/// one group walk the same source sequence.
fn rotating(sources: &[u32]) -> impl FnMut() -> u32 + '_ {
    let mut next = 0;
    move || {
        next = (next + 7919) % sources.len();
        sources[next]
    }
}

/// One cohort from one source, on a uniform graph (BA-10k, source 7) and on
/// the benchmark spine's contract graph (`rmat16`: 65k nodes, ~0.91M edges,
/// sources rotating over the nodes that have in-links) — there at the two
/// sizes the kernel runs at: the offline build's `R = 100` (sorted by
/// comparison) and a query's `R′ = 10 000` (radix-sorted).
fn bench_cohorts(c: &mut Criterion) {
    let (rmat16, live) = rmat16();
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
            let mut source = rotating(sources);
            group.throughput(Throughput::Elements(walkers as u64 * 10));
            group.bench_with_input(BenchmarkId::from_parameter(walkers), &params, |b, &params| {
                b.iter(|| black_box(reverse_walk_distributions(g, source(), params, 1)));
            });
        }
        group.finish();
    }
}

/// What routed storage costs per walk step, against the resident rows: the
/// `R′ = 10 000` cohort of `walks/rmat16-cohort` over the in-memory
/// partitioned view and the mmap store, and the MCSS forward stage
/// (`sparse_masses_on`, paper parameters, cohorts simulated up front) over
/// the resident sampler, the view and the store. Same rotating live
/// sources in every row; the store is written to a temp dir once.
fn bench_routed(c: &mut Criterion) {
    let (g, live) = rmat16();
    let n = CsrGraph::node_count(&g);
    let rci = ReverseChainIndex::build(&g);
    let diag = vec![0.6; n as usize];
    let dir = std::env::temp_dir().join(format!("pasco_bench_walks_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    write_store(&dir, &g, &diag, 2).unwrap();
    let resident = GraphSampler::new(&g, &rci);
    let sharded2 = PartitionedView::of_graph(&g, Partitioner::range(n, 2));
    let sharded4 = PartitionedView::of_graph(&g, Partitioner::range(n, 4));
    let mapped2 = MappedStore::open(&dir).unwrap();

    fn cohort<'a, A: WalkAdjacency>(
        adj: &'a A,
        live: &'a [u32],
    ) -> impl FnMut() -> StepDistributions + 'a {
        let mut source = rotating(live);
        move || reverse_walk_distributions_on(adj, source(), WalkParams::new(10, 10_000), 1)
    }
    let mut group = c.benchmark_group("walks/rmat16-cohort-routed");
    group.sample_size(20);
    group.throughput(Throughput::Elements(10_000 * 10));
    group.bench_function("sharded-2", |b| b.iter(cohort(&sharded2, &live)));
    group.bench_function("sharded-4", |b| b.iter(cohort(&sharded4, &live)));
    group.bench_function("mapped-2", |b| b.iter(cohort(&mapped2, &live)));
    group.finish();

    let cfg = SimRankConfig::default_paper();
    let mut source = rotating(&live);
    let cohorts: Vec<StepDistributions> =
        (0..16).map(|_| queries::query_cohort(&g, &cfg, source())).collect();
    fn forward<'a, S: ForwardSampler>(
        sampler: &'a S,
        cohorts: &'a [StepDistributions],
        diag: &'a [f64],
        cfg: &'a SimRankConfig,
    ) -> impl FnMut() -> MassMap + 'a {
        let mut next = 0;
        move || {
            next = (next + 1) % cohorts.len();
            queries::sparse_masses_on(sampler, &cohorts[next], diag, cfg)
        }
    }
    let mut group = c.benchmark_group("walks/rmat16-forward-routed");
    group.sample_size(20);
    group.bench_function("resident", |b| b.iter(forward(&resident, &cohorts, &diag, &cfg)));
    group.bench_function("sharded-2", |b| b.iter(forward(&sharded2, &cohorts, &diag, &cfg)));
    group.bench_function("mapped-2", |b| b.iter(forward(&mapped2, &cohorts, &diag, &cfg)));
    group.finish();
    drop(mapped2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The offline build's rows both ways, on the spine's `mc.cohort_r_us`
/// node set (`rmat16` ids `0..4096`, `R = 100`, `T = 10`, paper seed): the
/// step histograms plus `ai_row` (what the spine times, and the oracle)
/// against the fused row kernel every build path calls. One sample is the
/// whole node set.
fn bench_rows(c: &mut Criterion) {
    let (g, _) = rmat16();
    let cfg = SimRankConfig::default_paper();
    let (params, kernel) = (WalkParams::new(cfg.t, cfg.r), RecomputedRows::of(&g, &cfg));
    let mut walk = WalkScratch::default();
    let mut group = c.benchmark_group("walks/rmat16-row");
    group.sample_size(20);
    group.throughput(Throughput::Elements(4096));
    group.bench_function("histograms+ai_row", |b| {
        b.iter(|| {
            for i in 0..4096 {
                black_box(ai_row(&walk.distributions_on(&g, i, params, cfg.seed), cfg.c));
            }
        });
    });
    let (mut cols, mut vals) = (Vec::new(), Vec::new());
    group.bench_function("fused", |b| {
        b.iter(|| {
            for i in 0..4096 {
                cols.clear();
                vals.clear();
                kernel.push_row(i, &mut walk, &mut cols, &mut vals);
                black_box((&cols, &vals));
            }
        });
    });
    group.finish();
}

fn bench_all_nodes(c: &mut Criterion) {
    let g: CsrGraph = generators::rmat(12, 32_768, generators::RmatParams::default(), 7);
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

criterion_group!(benches, bench_cohorts, bench_routed, bench_rows, bench_all_nodes);
criterion_main!(benches);
