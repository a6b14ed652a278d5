//! Property-based tests over the whole stack (proptest).

use pasco::graph::{generators, GraphBuilder};
use pasco::mc::walks::{reverse_walk_distributions, WalkParams};
use pasco::simrank::exact::ExactSimRank;
use proptest::prelude::*;

/// Arbitrary edge lists over up to 40 nodes.
fn edges_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..40, 0u32..40), 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR construction from arbitrary edge lists preserves the edge
    /// multiset (after dedup) in both directions.
    #[test]
    fn csr_invariants_hold(edges in edges_strategy()) {
        let mut b = GraphBuilder::new();
        b.ensure_nodes(40);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let g = b.build();
        let mut expect: Vec<(u32, u32)> = edges.clone();
        expect.sort_unstable();
        expect.dedup();
        let got: Vec<(u32, u32)> = g.edges().collect();
        prop_assert_eq!(got, expect);
        // In/out views agree edge by edge.
        for v in g.nodes() {
            for &u in g.in_neighbors(v) {
                prop_assert!(g.out_neighbors(u).binary_search(&v).is_ok());
            }
        }
        let in_total: u64 = g.nodes().map(|v| g.in_degree(v) as u64).sum();
        prop_assert_eq!(in_total, g.edge_count());
        // Each degree counts the node's appearances on its side of an edge.
        for v in g.nodes() {
            prop_assert_eq!(g.in_degree(v) as usize, g.edges().filter(|&(_, t)| t == v).count());
            prop_assert_eq!(g.out_degree(v) as usize, g.edges().filter(|&(s, _)| s == v).count());
        }
    }

    /// Exact SimRank on arbitrary graphs is symmetric, bounded and has a
    /// unit diagonal.
    #[test]
    fn exact_simrank_axioms(edges in edges_strategy(), c in 0.1f64..0.9) {
        let mut b = GraphBuilder::new();
        b.ensure_nodes(12);
        for &(u, v) in &edges {
            b.add_edge(u % 12, v % 12);
        }
        let g = b.build();
        let ex = ExactSimRank::compute(&g, c, 12);
        for i in 0..12u32 {
            prop_assert_eq!(ex.get(i, i), 1.0);
            for j in 0..12u32 {
                let s = ex.get(i, j);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&s), "s({},{}) = {}", i, j, s);
                prop_assert!((s - ex.get(j, i)).abs() < 1e-9);
            }
        }
    }

    /// Walk distributions conserve walkers: step-t mass never exceeds
    /// step-(t−1) mass, and every count vector sums to at most R.
    #[test]
    fn walk_mass_is_monotone(seed in any::<u64>(), source in 0u32..100) {
        let g = generators::barabasi_albert(100, 3, 5);
        let d = reverse_walk_distributions(&g, source, WalkParams::new(6, 50), seed);
        let mut prev = 50u64;
        for t in 0..=6 {
            let total: u64 = d.counts[t].iter().map(|&(_, c)| c).sum();
            prop_assert!(total <= prev, "step {}: {} > {}", t, total, prev);
            prev = total;
        }
    }

    /// The deterministic RNG keying: distinct (seed, source, walker)
    /// triples give distinct streams, identical triples identical streams.
    #[test]
    fn walker_streams_are_keyed(seed in any::<u64>(), v in 0u32..1000, w in 0u32..1000) {
        use pasco::mc::walks::{step_u64, walker_key};
        let k1 = walker_key(seed, v, w);
        let k2 = walker_key(seed, v, w.wrapping_add(1));
        prop_assert_ne!(k1, k2);
        prop_assert_eq!(step_u64(k1, 3), step_u64(k1, 3));
        prop_assert_ne!(step_u64(k1, 3), step_u64(k1, 4));
    }

    /// The binary graph format rejects random corruption of the payload
    /// rather than silently mis-loading (offsets and lengths are checked).
    #[test]
    fn binary_format_detects_truncation(cut in 9usize..60) {
        use pasco::graph::io;
        let g = generators::erdos_renyi(20, 60, 5);
        let dir = std::env::temp_dir().join("pasco_prop_io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("t{cut}.bin"));
        io::write_binary(&g, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let keep = bytes.len().saturating_sub(cut);
        std::fs::write(&path, &bytes[..keep]).unwrap();
        prop_assert!(io::read_binary(&path).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cross-mode equality on random small graphs (the expensive property,
    /// fewer cases).
    #[test]
    fn modes_agree_on_random_graphs(seed in 0u64..1000) {
        use pasco::cluster::ClusterConfig;
        use pasco::simrank::{CloudWalker, ExecMode, SimRankConfig};
        use std::sync::Arc;
        let g = Arc::new(generators::rmat(6, 300, generators::RmatParams::default(), seed));
        let cfg = SimRankConfig::fast().with_seed(seed).with_t(4).with_r(16).with_r_query(64);
        let l = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
        let r = CloudWalker::build(
            Arc::clone(&g),
            cfg,
            ExecMode::Rdd(ClusterConfig::local(3)),
        ).unwrap();
        prop_assert_eq!(l.diagonal(), r.diagonal());
        prop_assert_eq!(l.try_single_pair(1, 2).unwrap(), r.try_single_pair(1, 2).unwrap());
    }

    /// The shard count never changes any answer: for arbitrary graphs,
    /// seeds and shard counts, the index built over in-memory shard images
    /// and MCSP, dense MCSS and top-k over a saved store of as many shards
    /// equal the local engine's bitwise.
    #[test]
    fn shard_count_never_changes_results(
        edges in prop::collection::vec((0u32..40, 0u32..40), 0..160),
        shards in 1u32..7,
        seed in 0u64..1000,
    ) {
        use pasco::graph::partition::Partitioner;
        use pasco::simrank::engine::KernelEngine;
        use pasco::simrank::{CloudWalker, ExecMode, SimRankConfig, SimRankEngine};
        use pasco_store::MappedStore;
        use std::sync::Arc;
        let mut b = GraphBuilder::new();
        b.ensure_nodes(40);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let g = Arc::new(b.build());
        let cfg = SimRankConfig::fast().with_seed(seed).with_t(4).with_r(16).with_r_query(64);
        let l = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
        let p = Partitioner::range_nonempty(g.node_count(), shards);
        let images = KernelEngine::new(Arc::new(MappedStore::of_graph(&g, &p).unwrap()));
        prop_assert_eq!(l.diagonal(), &images.build_diagonal(&cfg).unwrap().diag);
        let dir = std::env::temp_dir()
            .join(format!("pasco_prop_shards_{shards}_{seed}_{}", edges.len()));
        let _ = std::fs::remove_dir_all(&dir);
        l.save_store(&dir, shards).unwrap();
        let s = CloudWalker::open_store(&dir, cfg).unwrap();
        prop_assert_eq!(l.try_single_pair(3, 17).unwrap(), s.try_single_pair(3, 17).unwrap());
        prop_assert_eq!(l.try_single_source(5).unwrap(), s.try_single_source(5).unwrap());
        prop_assert_eq!(l.try_single_source_topk(9, 6).unwrap(), s.try_single_source_topk(9, 6).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The shard count of the *on-disk* store never changes any answer:
    /// for arbitrary graphs, seeds and shard counts, a walker reopened
    /// from a saved store equals the resident walker bitwise — the
    /// out-of-core dual of `shard_count_never_changes_results`.
    #[test]
    fn store_parts_never_changes_results(
        edges in prop::collection::vec((0u32..40, 0u32..40), 0..160),
        parts in 1u32..7,
        seed in 0u64..1000,
    ) {
        use pasco::simrank::{CloudWalker, ExecMode, SimRankConfig};
        use std::sync::Arc;
        let mut b = GraphBuilder::new();
        b.ensure_nodes(40);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let g = Arc::new(b.build());
        let cfg = SimRankConfig::fast().with_seed(seed).with_t(4).with_r(16).with_r_query(64);
        let l = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
        let dir = std::env::temp_dir()
            .join(format!("pasco_prop_store_{parts}_{seed}_{}", edges.len()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        l.save_store(&dir, parts).unwrap();
        let m = CloudWalker::open_store(&dir, cfg).unwrap();
        prop_assert_eq!(l.diagonal(), m.diagonal());
        prop_assert_eq!(l.try_single_pair(3, 17).unwrap(), m.try_single_pair(3, 17).unwrap());
        prop_assert_eq!(l.try_single_source(5).unwrap(), m.try_single_source(5).unwrap());
        prop_assert_eq!(l.try_single_source_topk(9, 6).unwrap(), m.try_single_source_topk(9, 6).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Shuffles are permutations: nothing lost, nothing duplicated, routing
    /// respected — for arbitrary record sets and partition counts.
    #[test]
    fn shuffle_is_permutation(
        items in prop::collection::vec(any::<(u32, u32)>(), 0..500),
        src_parts in 1usize..6,
        dst_parts in 1usize..6,
    ) {
        use pasco::cluster::{Cluster, ClusterConfig, DistVec};
        let cluster = Cluster::new(ClusterConfig::local(2));
        let dv = DistVec::parallelize(items.clone(), src_parts);
        let out = dv.shuffle(&cluster, "prop", dst_parts, |&(k, _)| (k as usize) % dst_parts);
        for p in 0..dst_parts {
            prop_assert!(out.partition(p).iter().all(|&(k, _)| k as usize % dst_parts == p));
        }
        let mut got = out.collect();
        let mut expect = items;
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The planned pull sweep is the node-order sweep bit for bit, over
    /// any node range, on random graphs of up to three blocks with one
    /// node of up to 2 500 in-links.
    #[test]
    fn planned_sweeps_are_node_order_sweeps(
        n in 1u32..3_200,
        edges in prop::collection::vec((any::<u32>(), any::<u32>()), 0..6_000),
        hub in (any::<u32>(), 0u32..2_500),
        cut in (any::<u32>(), any::<u32>()),
    ) {
        use pasco::simrank::queries::pull_sweep;
        let mut b = GraphBuilder::new();
        b.ensure_nodes(n);
        for &(u, v) in &edges {
            b.add_edge(u % n, v % n);
        }
        for u in 0..hub.1.min(n) {
            b.add_edge(u, hub.0 % n);
        }
        let g = b.build();
        let z: Vec<f64> = (0..n).map(|k| 1.0 / (1.0 + f64::from(k)) + f64::from(k % 3) * 0.1).collect();
        let (lo, hi) = ((cut.0 % (n + 1)).min(cut.1 % (n + 1)), (cut.0 % (n + 1)).max(cut.1 % (n + 1)));
        let want: Vec<u64> = (lo..hi)
            .map(|j| {
                let ins = g.in_neighbors(j);
                let sum = ins.iter().fold(0.0, |sum, &k| sum + z[k as usize]);
                if ins.is_empty() { 0.0 } else { 0.7 * sum / ins.len() as f64 }
            })
            .map(f64::to_bits)
            .collect();
        let mut out = vec![f64::NAN; (hi - lo) as usize];
        pull_sweep(&g, &z, 0.7, lo, &mut out);
        prop_assert_eq!(out.into_iter().map(f64::to_bits).collect::<Vec<_>>(), want);
    }
}
