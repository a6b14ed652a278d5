//! Microbenchmark: sparse accumulation (A4 ablation — the open-addressing
//! count map against the standard library's hash map).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pasco_mc::counts::CountMap;
use std::collections::HashMap;
use std::hint::black_box;

fn keys(n: usize) -> Vec<u32> {
    // Pseudorandom node ids with repetitions, like walker positions.
    let mut state = 0x2545f4914f6cdd1du64;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 5_000) as u32
        })
        .collect()
}

fn bench_count_maps(c: &mut Criterion) {
    let ks = keys(10_000);
    let mut group = c.benchmark_group("sparse/accumulate-10k");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("open-addressing", |b| {
        b.iter(|| {
            let mut m = CountMap::with_capacity(1_000);
            for &k in &ks {
                m.add(k, 1);
            }
            black_box(m.len())
        });
    });
    group.bench_function("std-hashmap", |b| {
        b.iter(|| {
            let mut m: HashMap<u32, u64> = HashMap::with_capacity(1_000);
            for &k in &ks {
                *m.entry(k).or_insert(0) += 1;
            }
            black_box(m.len())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_count_maps);
criterion_main!(benches);
