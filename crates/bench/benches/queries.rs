//! Microbenchmarks: online query latency (MCSP, MCSS, MCSS-push) — the
//! "instant response" half of the paper's headline — and the two stages of
//! a cache hit on the benchmark spine's contract graph: `score_pair`'s
//! merge and the `Cohort` response codec.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pasco_graph::{generators, ReverseChainIndex};
use pasco_mc::walks::StepDistributions;
use pasco_simrank::api::wire::WireCodec;
use pasco_simrank::engine::kernel::build_diagonal_on;
use pasco_simrank::{queries, QueryResponse, SimRankConfig};
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

/// The benchmark spine's probe sources under `--seed 11`: 128 live nodes
/// drawn by its SplitMix64 stream (purpose tag 3) with a partial
/// Fisher–Yates shuffle, in draw order.
fn spine_probe_sources(live: &[u32]) -> Vec<u32> {
    let mut state =
        11u64.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 3u64.wrapping_mul(0xd1b5_4a32_d192_ed03);
    let mut draw = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut deck = live.to_vec();
    let k = deck.len().min(128);
    for slot in 0..k {
        let pick = slot + ((u128::from(draw()) * (deck.len() - slot) as u128) >> 64) as usize;
        deck.swap(slot, pick);
    }
    deck.truncate(k);
    deck
}

/// A cache hit's two stages on `rmat16` at paper parameters (`R′ = 10 000`,
/// `T = 10`), the cohorts simulated up front: `score_pair` over the spine's
/// `queries.score_pair_us` pair set (one sample scores its 127 consecutive
/// pairs once; the diagonal's values do not change the work), and encode /
/// decode of the largest of those cohorts as a `Cohort` response (≈ 40k
/// entries, ≈ 0.5 MB).
fn bench_cache_hit(c: &mut Criterion) {
    let g = generators::rmat(16, 1_000_000, generators::RmatParams::default(), 11);
    let live: Vec<u32> = g.nodes().filter(|&v| g.in_degree(v) > 0).collect();
    let cfg = SimRankConfig::default_paper();
    let cohorts: Vec<StepDistributions> = spine_probe_sources(&live)
        .into_iter()
        .map(|v| queries::query_cohort(&g, &cfg, v))
        .collect();
    let diag = vec![0.6; g.node_count() as usize];

    let mut group = c.benchmark_group("queries/score_pair-rmat16");
    group.sample_size(20);
    group.bench_function("pair-set", |b| {
        b.iter(|| {
            for w in cohorts.windows(2) {
                black_box(queries::score_pair(&w[0], &w[1], &diag, cfg.c));
            }
        });
    });
    group.finish();

    let biggest = cohorts.iter().max_by_key(|d| d.encoded_len()).expect("cohorts");
    let resp = QueryResponse::Cohort(biggest.clone());
    let bytes = resp.to_bytes();
    let mut group = c.benchmark_group("api/cohort-codec");
    group.sample_size(50);
    group.bench_function("encode", |b| b.iter(|| black_box(resp.to_bytes())));
    group.bench_function("decode", |b| {
        b.iter(|| black_box(QueryResponse::from_bytes(&bytes).expect("valid frame")));
    });
    group.finish();
}

criterion_group!(benches, bench_queries, bench_cache_hit);
criterion_main!(benches);
