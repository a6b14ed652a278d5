//! The reproduction's strongest guarantee: the execution engines
//! (Local, Broadcasting, RDD — and range shards, in memory or a mapped
//! store) are observationally equivalent under a fixed seed — indexes
//! bitwise equal, MCSP bitwise equal, MCSS equal to float accumulation
//! order (bitwise for shards, whose accumulation order matches Local's
//! exactly).

use pasco::cluster::{Cluster, ClusterConfig, ClusterError};
use pasco::graph::partition::Partitioner;
use pasco::graph::{generators, CsrGraph, ReverseChainIndex};
use pasco::simrank::engine::broadcast::BroadcastEngine;
use pasco::simrank::engine::kernel::{build_diagonal_on, KernelEngine, Resident};
use pasco::simrank::engine::rdd::RddEngine;
use pasco::simrank::{queries, CloudWalker, ExecMode, SimRankConfig, SimRankEngine, SimRankError};
use pasco_store::MappedStore;
use std::sync::Arc;

fn build_all(g: &Arc<pasco::graph::CsrGraph>, cfg: SimRankConfig) -> [CloudWalker; 3] {
    [
        CloudWalker::build(Arc::clone(g), cfg, ExecMode::Local).unwrap(),
        CloudWalker::build(Arc::clone(g), cfg, ExecMode::Broadcast(ClusterConfig::local(3)))
            .unwrap(),
        CloudWalker::build(Arc::clone(g), cfg, ExecMode::Rdd(ClusterConfig::local(5))).unwrap(),
    ]
}

/// A simulated engine of `model` over `g` on `workers` workers, with its
/// cluster (for the metrics log).
enum Simulated {
    Broadcast(BroadcastEngine),
    Rdd(RddEngine),
}

impl Simulated {
    fn new(model: &str, g: &Arc<CsrGraph>, workers: usize) -> Self {
        let cluster = ClusterConfig::local(workers);
        match model {
            "broadcast" => {
                let rci = Arc::new(ReverseChainIndex::build(g));
                Self::Broadcast(BroadcastEngine::new(cluster, Arc::clone(g), rci).unwrap())
            }
            _ => Self::Rdd(RddEngine::new(cluster, g).unwrap()),
        }
    }

    fn engine(&self) -> &dyn SimRankEngine {
        match self {
            Self::Broadcast(e) => e,
            Self::Rdd(e) => e,
        }
    }

    fn cluster(&self) -> &Cluster {
        match self {
            Self::Broadcast(e) => BroadcastEngine::cluster(e),
            Self::Rdd(e) => RddEngine::cluster(e),
        }
    }
}

#[test]
fn simulated_engines_answer_like_the_kernels_at_every_cluster_shape() {
    // Both topologies: preferential attachment, and the skewed R-MAT (hubs,
    // dangling nodes) that RDD's shuffled stepping has to get right.
    // Each on both forward arms: the rule sweeps graphs this small, and
    // walks them at one forward walker per term.
    let rmat = generators::rmat(8, 1_500, generators::RmatParams::default(), 6);
    for (gname, g) in [("ba", generators::barabasi_albert(150, 3, 4)), ("rmat", rmat)] {
        let g = Arc::new(g);
        let (n, m) = (u64::from(g.node_count()), g.edge_count());
        let cfg = SimRankConfig::fast().with_seed(77);
        let walks = SimRankConfig { r_forward: 1, ..cfg };
        assert!(queries::sweeps_pay(n, m, cfg.t, cfg.r_forward), "{gname}: sweeps");
        assert!(!queries::sweeps_pay(n, m, walks.t, walks.r_forward), "{gname}: walks");
        simulated_engines_answer_like_the_kernels(&format!("{gname} sweeps"), &g, cfg);
        simulated_engines_answer_like_the_kernels(&format!("{gname} walks"), &g, walks);
    }
}

fn simulated_engines_answer_like_the_kernels(gname: &str, g: &Arc<CsrGraph>, cfg: SimRankConfig) {
    // {Broadcast, RDD} × workers {1, 3, 4}: the simulated engines run the
    // kernels inside cluster stages, so the index, the residuals, the row
    // bytes, cohorts and MCSP are bitwise the kernel's; dense MCSS (and
    // the dense top-k over it) sums the same walks in another order. What
    // differs — and is asserted — is the dataflow: Broadcast's stage
    // sequence and zero shuffles, RDD's per-step shuffles.
    let rci = ReverseChainIndex::build(g);
    let want = build_diagonal_on(&**g, &cfg).unwrap();
    let diag = want.diag.as_slice();
    let cohort = queries::query_cohort(g, &cfg, 9);
    let pair = queries::single_pair(g, diag, &cfg, 4, 70);
    let dense = queries::single_source(g, &rci, diag, &cfg, 4);
    let topk = queries::single_source_topk(g, &rci, diag, &cfg, 4, 10);
    assert_eq!(topk.len(), 10);

    for model in ["broadcast", "rdd"] {
        for workers in [1usize, 3, 4] {
            let label = format!("{gname} {model} x{workers}");
            let sim = Simulated::new(model, g, workers);
            let out = sim.engine().build_diagonal(&cfg).unwrap();
            assert_eq!(out.diag, want.diag, "{label}: diagonal");
            assert_eq!(out.residuals, want.residuals, "{label}: residuals");
            assert_eq!(out.rows_bytes, want.rows_bytes, "{label}: rows_bytes");
            let log = sim.cluster().metrics();
            let labels: Vec<&str> = log.stages.iter().map(|s| s.label.as_str()).collect();
            let sweeps = ["index/jacobi", "index/residual"].repeat(cfg.l);
            assert_eq!(labels[labels.len() - sweeps.len()..], sweeps[..], "{label}: sweeps");
            let report = out.cluster.expect("cluster accounting");
            assert_eq!(report, sim.cluster().report(), "{label}: build report");
            if model == "broadcast" {
                // The rows come from one walks stage.
                let walks = &labels[..labels.len() - sweeps.len()];
                assert_eq!(walks, ["index/walks"], "{label}: stages");
                assert_eq!(report.shuffle_bytes, 0, "{label}: broadcast never shuffles");
            } else {
                assert!(report.shuffle_bytes > 0 && report.shuffle_records > 0, "{label}");
                // walker + contribution shuffles per step
                assert!(report.shuffles >= 2 * cfg.t, "{label}: {} shuffles", report.shuffles);
            }

            let sim = Simulated::new(model, g, workers);
            let eng = sim.engine();
            assert_eq!(SimRankEngine::name(eng), model);
            assert_eq!(
                SimRankEngine::query_cohort(eng, &cfg, 9).unwrap(),
                pasco::mc::walks::CohortBlock::try_from(&cohort).unwrap(),
                "{label}: cohort"
            );
            assert_eq!(
                SimRankEngine::single_pair(eng, diag, &cfg, 4, 70).unwrap(),
                pair,
                "{label}: MCSP"
            );
            assert_eq!(
                SimRankEngine::single_pair(eng, diag, &cfg, 4, 4).unwrap(),
                1.0,
                "{label}: s(i,i)"
            );
            let got = SimRankEngine::single_source(eng, diag, &cfg, 4).unwrap();
            assert_eq!(got.len(), dense.len());
            for (v, (a, e)) in got.iter().zip(&dense).enumerate() {
                assert!((a - e).abs() < 1e-12, "{label}: MCSS node {v}: {a} vs {e}");
            }
            let ranked = SimRankEngine::single_source_topk(eng, diag, &cfg, 4, 10).unwrap();
            assert_eq!(ranked.len(), topk.len(), "{label}: top-k length");
            for ((gn, gs), (en, es)) in ranked.iter().zip(&topk) {
                assert_eq!(gn, en, "{label}: top-k ranking");
                assert!((gs - es).abs() < 1e-12, "{label}: top-k score {gs} vs {es}");
            }
            let report = sim.cluster().report();
            assert!(report.stages > 0, "{label}: queries are accounted");
            assert_eq!(report.shuffle_bytes > 0, model == "rdd", "{label}: query shuffles");
        }
    }
}

#[test]
fn indexes_are_bitwise_identical_across_modes() {
    for seed in [1u64, 99, 0xdead] {
        let g = Arc::new(generators::rmat(8, 1_600, generators::RmatParams::default(), seed));
        let cfg = SimRankConfig::fast().with_seed(seed);
        let [l, b, r] = build_all(&g, cfg);
        assert_eq!(l.diagonal(), b.diagonal(), "seed {seed}: broadcast");
        assert_eq!(l.diagonal(), r.diagonal(), "seed {seed}: rdd");
    }
}

#[test]
fn mcsp_is_bitwise_identical_across_modes() {
    let g = Arc::new(generators::barabasi_albert(140, 3, 7));
    let cfg = SimRankConfig::fast().with_seed(11);
    let [l, b, r] = build_all(&g, cfg);
    for &(i, j) in &[(0u32, 1u32), (5, 70), (120, 139), (33, 32)] {
        let expect = l.try_single_pair(i, j).unwrap();
        assert_eq!(expect, b.try_single_pair(i, j).unwrap(), "broadcast ({i},{j})");
        assert_eq!(expect, r.try_single_pair(i, j).unwrap(), "rdd ({i},{j})");
    }
}

#[test]
fn mcss_matches_across_modes_to_float_tolerance() {
    let g = Arc::new(generators::barabasi_albert(140, 3, 19));
    let cfg = SimRankConfig::fast().with_seed(23);
    let [l, b, r] = build_all(&g, cfg);
    for &s in &[0u32, 64, 139] {
        let expect = l.try_single_source(s).unwrap();
        for (name, row) in [
            ("broadcast", b.try_single_source(s).unwrap()),
            ("rdd", r.try_single_source(s).unwrap()),
        ] {
            for (v, (a, e)) in row.iter().zip(&expect).enumerate() {
                assert!((a - e).abs() < 1e-12, "{name} source {s} node {v}: {a} vs {e}");
            }
        }
    }
}

#[test]
fn topk_rankings_are_identical_across_modes() {
    // Top-k now routes through the engine trait: cluster modes run it on
    // their own distributed single-source path (and account the work in
    // their ClusterReport) yet must produce the same ranking as the local
    // sparse estimator, with scores equal to float accumulation order.
    let g = Arc::new(generators::barabasi_albert(140, 3, 13));
    let cfg = SimRankConfig::fast().with_seed(31);
    let [l, b, r] = build_all(&g, cfg);
    for &s in &[2u32, 40, 70] {
        let expect = l.try_single_source_topk(s, 10).unwrap();
        assert!(!expect.is_empty(), "source {s} must reach someone");
        for (name, got) in [
            ("broadcast", b.try_single_source_topk(s, 10).unwrap()),
            ("rdd", r.try_single_source_topk(s, 10).unwrap()),
        ] {
            assert_eq!(
                got.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
                expect.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
                "{name} ranking, source {s}"
            );
            for ((gn, gs), (en, es)) in got.iter().zip(&expect) {
                assert_eq!(gn, en, "{name} source {s}");
                assert!((gs - es).abs() < 1e-12, "{name} source {s}: {gs} vs {es}");
            }
        }
    }
    // The distributed top-k paths must be accounted in the cluster logs.
    assert!(b.cluster_report().unwrap().stages > 0);
    assert!(r.cluster_report().unwrap().shuffle_bytes > 0);
}

/// Two graphs, each under both forward arms (one forward walker per term
/// forces the walks), as `(label, graph, config)`.
fn graphs_on_both_arms() -> Vec<(String, Arc<CsrGraph>, SimRankConfig)> {
    let sweeps = SimRankConfig::fast().with_seed(17);
    let walks = SimRankConfig { r_forward: 1, ..sweeps };
    let ba = Arc::new(generators::barabasi_albert(150, 3, 7));
    let rmat = Arc::new(generators::rmat(8, 1_600, generators::RmatParams::default(), 5));
    let mut all = Vec::new();
    for (g, graph) in [("ba", ba), ("rmat", rmat)] {
        for (a, cfg) in [("sweeps", sweeps), ("walks", walks)] {
            all.push((format!("{g}_{a}"), Arc::clone(&graph), cfg));
        }
    }
    all
}

/// `local` saved as a store of `parts` shards and reopened through the
/// mmap path (no CSR, no reverse-chain index rebuilt): every query kind
/// must be *bitwise* equal to the resident walker's, and the footprint is
/// the shards' bytes, reported per shard.
fn saved_store_answers_like(
    local: &CloudWalker,
    cfg: SimRankConfig,
    label: &str,
    parts: u32,
) -> CloudWalker {
    let dir = std::env::temp_dir().join(format!("pasco_exec_{label}_{parts}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    local.save_store(&dir, parts).unwrap();
    let mapped = CloudWalker::open_store(&dir, cfg).unwrap();
    assert_eq!(mapped.mode_name(), "mapped");
    assert_eq!(local.diagonal(), mapped.diagonal(), "{label}: index, {parts} shards");
    for &(i, j) in &[(0u32, 1u32), (5, 70), (33, 32)] {
        assert_eq!(
            local.try_single_pair(i, j).unwrap(),
            mapped.try_single_pair(i, j).unwrap(),
            "{label}: MCSP ({i},{j}), {parts} shards"
        );
    }
    for &s in &[0u32, 64, 149] {
        assert_eq!(
            local.try_single_source(s).unwrap(),
            mapped.try_single_source(s).unwrap(),
            "{label}: dense MCSS source {s}, {parts} shards"
        );
        assert_eq!(
            local.try_single_source_topk(s, 10).unwrap(),
            mapped.try_single_source_topk(s, 10).unwrap(),
            "{label}: top-k source {s}, {parts} shards"
        );
        assert_eq!(
            local.try_query_cohort(s).unwrap(),
            mapped.try_query_cohort(s).unwrap(),
            "{label}: cohort {s}, {parts} shards"
        );
    }
    let fp = mapped.memory_footprint();
    assert!(fp.partitioned);
    let per_shard = mapped.shard_footprints().expect("per-shard breakdown");
    assert_eq!(per_shard.len(), parts as usize);
    assert_eq!(per_shard.iter().copied().max().unwrap(), fp.per_worker_bytes);
    assert!(local.shard_footprints().is_none());
    mapped
}

#[test]
fn sharded_engine_is_bit_identical_to_local_for_every_query_kind() {
    // Range shards route every lookup to the shard owning the node; since
    // the routed adjacency equals the resident graph's and the accumulation
    // order matches the local kernels, the index built over in-memory
    // images and every query kind the image-backed engine answers are
    // *bitwise* the resident engine's at shard counts 1, 2 and 4 —
    // including dense MCSS, where the cluster engines only promise
    // float-tolerance equality. (Saved stores: the mapped test below.)
    for (label, g, cfg) in graphs_on_both_arms() {
        let resident = KernelEngine::new(Arc::new(Resident::new(Arc::clone(&g))));
        let diag = resident.build_diagonal(&cfg).unwrap().diag;
        for shards in [1u32, 2, 4] {
            let p = Partitioner::range_nonempty(g.node_count(), shards);
            let images = KernelEngine::new(Arc::new(MappedStore::of_graph(&g, &p).unwrap()));
            let built = images.build_diagonal(&cfg).unwrap();
            assert_eq!(built.diag, diag, "{label}: index, {shards} image shards");
            let (at, d, cfg) = (format!("{label}, {shards} image shards"), diag.as_slice(), &cfg);
            for &(i, j) in &[(0u32, 1u32), (5, 70), (33, 32)] {
                assert_eq!(
                    images.single_pair(d, cfg, i, j).unwrap(),
                    resident.single_pair(d, cfg, i, j).unwrap(),
                    "{at}: MCSP ({i},{j})"
                );
            }
            for &s in &[0u32, 64, 149] {
                assert_eq!(
                    images.single_source(d, cfg, s).unwrap(),
                    resident.single_source(d, cfg, s).unwrap(),
                    "{at}: dense MCSS source {s}"
                );
                assert_eq!(
                    images.single_source_topk(d, cfg, s, 10).unwrap(),
                    resident.single_source_topk(d, cfg, s, 10).unwrap(),
                    "{at}: top-k source {s}"
                );
                assert_eq!(
                    images.query_cohort(cfg, s).unwrap(),
                    resident.query_cohort(cfg, s).unwrap(),
                    "{at}: cohort {s}"
                );
            }
        }
    }
}

#[test]
fn mapped_store_is_bit_identical_to_local_for_every_query_kind() {
    // The out-of-core substrate: adjacency and sampling weights are read in
    // place from the mapping, and the generic kernels keep the
    // accumulation order.
    for (label, g, cfg) in graphs_on_both_arms() {
        let local = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
        for parts in [1u32, 2, 4] {
            let mapped = saved_store_answers_like(&local, cfg, &format!("mapped_{label}"), parts);
            // No resident graph; re-saving a mapped walker is a typed
            // refusal.
            assert!(mapped.graph().is_none());
            assert!(mapped.store().is_some());
            let other = std::env::temp_dir().join(format!("pasco_exec_copy_{label}_{parts}"));
            assert!(matches!(mapped.save_store(&other, 1), Err(SimRankError::InvalidConfig(_))));
        }
    }
}

#[test]
fn result_is_independent_of_cluster_shape() {
    // Different worker counts and partition counts must not change results
    // (the determinism that makes elastic deployments debuggable).
    let g = Arc::new(generators::rmat(8, 1_500, generators::RmatParams::default(), 4));
    let cfg = SimRankConfig::fast().with_seed(40);
    let reference =
        CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Rdd(ClusterConfig::local(2))).unwrap();
    for workers in [1usize, 3, 7] {
        let other =
            CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Rdd(ClusterConfig::local(workers)))
                .unwrap();
        assert_eq!(reference.diagonal(), other.diagonal(), "workers {workers}");
    }
}

#[test]
fn broadcast_memory_wall_vs_rdd_scalability() {
    // The paper's central operational contrast, as an assertion.
    let g = Arc::new(generators::rmat(10, 8_000, generators::RmatParams::default(), 2));
    let budget = g.memory_bytes(); // graph alone fits, graph + query index does not
    let cluster = ClusterConfig::local(4).with_memory_per_worker(budget);
    let cfg = SimRankConfig::fast();
    match CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Broadcast(cluster)) {
        Err(SimRankError::Cluster(ClusterError::BroadcastExceedsMemory { .. })) => {}
        other => panic!("expected the broadcast memory wall, got ok={}", other.is_ok()),
    }
    let rdd = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Rdd(cluster)).unwrap();
    assert!(rdd.max_partition_bytes().unwrap() < budget);
    assert!(rdd.cluster_report().unwrap().shuffle_bytes > 0);
}
