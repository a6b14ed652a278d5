//! The step-synchronous kernels against walker-at-a-time oracles.
//!
//! The cohort kernel (`reverse_walk_counts_on`) and the MCSS forward stage
//! (`sparse_masses_on`, `single_source_from_dists_on`) advance every walker
//! of a frontier one step per pass. Their contract is that this changes no
//! answer: histograms are, entry for entry, what adding up one
//! `reverse_walk_path` per walker gives, and every landed mass is summed in
//! the `(t, support node, walker)` order a loop over `forward_walk_on`
//! would use — so the floating-point results are equal **bitwise**. One
//! table checks both over every storage the kernels run on; a second
//! holds the offline build's row kernel (`RecomputedRows::push_row`, one sort per
//! cohort) to `ai_row` over the step histograms, row by row.

use pasco::graph::partition::Partitioner;
use pasco::graph::partitioned::PartitionedView;
use pasco::graph::{generators, CsrGraph, ForwardSampler, GraphSampler, NodeId};
use pasco::graph::{ReverseChainIndex, WalkAdjacency};
use pasco::mc::counts::MassMap;
use pasco::mc::forward::forward_walk_on;
use pasco::mc::rng;
use pasco::mc::walks::{
    reverse_walk_counts_on, reverse_walk_distributions, reverse_walk_path, StepDistributions,
    WalkParams, WalkScratch,
};
use pasco::simrank::ai::{ai_row, RecomputedRows, StoredRows};
use pasco::simrank::{queries, CloudWalker, DiagonalIndex, SimRankConfig};
use pasco::solver::RowSource;
use pasco_store::{write_store, MappedStore};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

const T: usize = 6;
const SEED: u64 = 0x5eed;

type Histograms = Vec<Vec<(NodeId, u64)>>;

/// The cohort oracle: one `reverse_walk_path` per walker, counted per step.
fn path_histograms(g: &CsrGraph, source: NodeId, walkers: Range<u32>) -> Histograms {
    let mut steps = vec![BTreeMap::<NodeId, u64>::new(); T];
    for w in walkers {
        for (t, &node) in reverse_walk_path(g, source, w, T, SEED).iter().enumerate() {
            *steps[t].entry(node).or_default() += 1;
        }
    }
    steps.into_iter().map(|step| step.into_iter().collect()).collect()
}

fn summed(a: &Histograms, b: &Histograms) -> Histograms {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let mut sum = BTreeMap::<NodeId, u64>::new();
            x.iter().chain(y).for_each(|&(node, c)| *sum.entry(node).or_default() += c);
            sum.into_iter().collect()
        })
        .collect()
}

/// The forward oracle: the MCSS series walked one `forward_walk_on` at a
/// time, in `(t, support node, walker)` order, handing `emit` every landed
/// `(node, cᵗ·mass)`.
fn walk_series<S: ForwardSampler>(
    sampler: &S,
    dists: &StepDistributions,
    diag: &[f64],
    cfg: &SimRankConfig,
    mut emit: impl FnMut(NodeId, f64),
) {
    let mut ct = 1.0;
    for t in 0..=cfg.t {
        let support = queries::weighted_support(dists, t, diag);
        if t == 0 {
            support.iter().for_each(|&(k, m)| emit(k, ct * m));
        } else {
            let seed = queries::forward_seed(cfg, dists.source, t);
            for (k, y, n) in queries::forward_allocation(&support, cfg.r_forward) {
                let per = y / n as f64;
                for w in 0..n {
                    let key = rng::mix(&[seed, k as u64, w as u64, t as u64]);
                    if let Some((node, mass)) = forward_walk_on(sampler, k, per, t, key) {
                        emit(node, ct * mass);
                    }
                }
            }
        }
        ct *= cfg.c;
    }
}

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

/// What one `(graph, source, R)` cell expects of every storage.
struct Expected {
    source: NodeId,
    r: u32,
    /// `(walker range, oracle histograms)`: whole cohort, first third, rest.
    cohorts: Vec<(Range<u32>, Histograms)>,
    cfg: SimRankConfig,
    dense: Vec<u64>,
    sparse: Vec<(NodeId, u64)>,
}

fn check_storage<A: WalkAdjacency + ForwardSampler>(
    label: &str,
    adj: &A,
    diag: &[f64],
    want: &Expected,
) {
    let Expected { source, r, cfg, .. } = want;
    for (walkers, oracle) in &want.cohorts {
        let got: Histograms =
            reverse_walk_counts_on(adj, *source, walkers.clone(), T, SEED).collect();
        assert_eq!(&got, oracle, "{label}: source {source}, R {r}, walkers {walkers:?}");
        for hist in &got {
            assert_eq!(hist.len(), hist.capacity(), "{label}: histograms are exact-length");
        }
    }
    let dists = queries::query_cohort_on(adj, cfg, *source);
    let n = WalkAdjacency::node_count(adj) as usize;
    let dense = queries::single_source_from_dists_on(n, adj, &dists, diag, cfg);
    assert_eq!(bits(dense), want.dense, "{label}: dense MCSS, source {source}, R {r}");
    let sparse = queries::sparse_masses_on(adj, &dists, diag, cfg).into_sorted_vec();
    let sparse: Vec<(NodeId, u64)> = sparse.into_iter().map(|(v, m)| (v, m.to_bits())).collect();
    assert_eq!(sparse, want.sparse, "{label}: sparse MCSS, source {source}, R {r}");
}

#[test]
fn frontier_kernels_equal_the_per_walker_oracles_on_every_storage() {
    let graphs: Vec<(&str, CsrGraph, Vec<NodeId>)> = vec![
        ("cycle", generators::cycle(7), vec![3]),
        // 0 → 1 → … → 4: walkers from the tail die at step 5 of 6.
        ("path", generators::path(5), vec![4, 2]),
        ("complete", generators::complete(10), vec![0]),
        ("ba300", generators::barabasi_albert(300, 3, 9), vec![17, 250]),
        ("rmat9", generators::rmat(9, 4000, generators::RmatParams::default(), 5), vec![]),
    ];
    for (name, g, mut sources) in graphs {
        if sources.is_empty() {
            let live: Vec<NodeId> = g.nodes().filter(|&v| g.in_degree(v) > 0).collect();
            sources = vec![live[0], live[live.len() / 2]];
        }
        let g = Arc::new(g);
        let n = g.node_count();
        let rci = ReverseChainIndex::build(&g);
        let diag: Vec<f64> = (0..n).map(|k| 0.5 + f64::from(k % 7) / 16.0).collect();

        // Oracles, computed on the resident graph only. `R = 300` crosses
        // the radix threshold inside one cohort: its first frontiers are
        // radix-sorted, its sub-ranges and thinned-out late steps are not.
        let mut table = Vec::new();
        for &source in &sources {
            for r in [1u32, 7, 100, 300, 10_000] {
                let ranges = [0..r, 0..r / 3, r / 3..r];
                let cohorts: Vec<(Range<u32>, Histograms)> = ranges
                    .into_iter()
                    .map(|w| (w.clone(), path_histograms(&g, source, w)))
                    .collect();
                assert_eq!(
                    summed(&cohorts[1].1, &cohorts[2].1),
                    cohorts[0].1,
                    "{name}: sub-range histograms sum to the cohort's"
                );
                let mut cfg = SimRankConfig::default_paper().with_seed(SEED).with_t(T);
                (cfg.r_query, cfg.r_forward) = (r, 400);
                let sampler = GraphSampler::new(&g, &rci);
                let dists = queries::query_cohort(&g, &cfg, source);
                assert_eq!(dists.counts.len(), T + 1);
                let mut landed = Vec::new();
                walk_series(&sampler, &dists, &diag, &cfg, |v, m| landed.push((v, m)));
                let mut dense = vec![0.0f64; n as usize];
                landed.iter().for_each(|&(v, m)| dense[v as usize] += m);
                dense[source as usize] = 1.0;
                let sparse: MassMap = landed.into_iter().collect();
                let sparse =
                    sparse.into_sorted_vec().into_iter().map(|(v, m)| (v, m.to_bits())).collect();
                table.push(Expected { source, r, cohorts, cfg, dense: bits(dense), sparse });
            }
        }

        // Every storage: resident, the routed view and the mapped store at
        // even and uneven tilings — rmat9's 512 nodes split 3 and 7 ways are
        // chunks of 171 and 74, where only an exact router lands every walker
        // on its owner — and, on the tiny graphs, more parts than nodes.
        let resident =
            CloudWalker::from_index(Arc::clone(&g), table[0].cfg, DiagonalIndex::new(diag.clone()))
                .unwrap();
        let mapped: Vec<(u32, CloudWalker)> = [1u32, 3, 7]
            .into_iter()
            .map(|parts| {
                let dir = std::env::temp_dir().join(format!("pasco_frontier_{name}_{parts}"));
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).unwrap();
                resident.save_store(&dir, parts).unwrap();
                (parts, CloudWalker::open_store(&dir, table[0].cfg).unwrap())
            })
            .collect();
        for want in &table {
            check_storage(&format!("{name}/csr"), &GraphSampler::new(&g, &rci), &diag, want);
            for shards in [1u32, 2, 3, 5, 7] {
                let view = PartitionedView::of_graph(&g, Partitioner::range_nonempty(n, shards));
                check_storage(&format!("{name}/view x{shards}"), &view, &diag, want);
            }
            if n <= 10 {
                let view = PartitionedView::of_graph(&g, Partitioner::range(n, n + 3));
                check_storage(&format!("{name}/view x{} (empty parts)", n + 3), &view, &diag, want);
            }
            for (parts, walker) in &mapped {
                let store = walker.store().expect("a store-backed walker");
                check_storage(&format!("{name}/mapped x{parts}"), &**store, &diag, want);
            }
        }
    }
}

/// Every row the fused kernel walks over `adj`, against `want`'s.
fn check_rows<A: WalkAdjacency>(label: &str, adj: &A, params: WalkParams, want: &StoredRows) {
    let kernel = RecomputedRows::new(adj, params, SEED, 0.6);
    let (mut walk, mut cols, mut vals) = (WalkScratch::default(), Vec::new(), Vec::new());
    for i in 0..WalkAdjacency::node_count(adj) {
        cols.clear();
        vals.clear();
        kernel.push_row(i, &mut walk, &mut cols, &mut vals);
        let (want_cols, want_vals) = want.get(i);
        assert_eq!(cols, want_cols, "{label}: row {i} columns");
        assert_eq!(bits(vals.iter().copied()), bits(want_vals.iter().copied()), "{label}: row {i}");
    }
}

#[test]
fn row_kernel_equals_ai_row_over_the_step_histograms_on_every_storage() {
    // `path` kills walkers mid-cohort (and every walker of its source 0 at
    // step 1); the star's leaves are dangling sources. `T = 17` needs five
    // step bits, past any fixed-width packing; `R = 3000` long runs.
    let graphs = [
        ("ba300", generators::barabasi_albert(300, 3, 9)),
        ("rmat9", generators::rmat(9, 4000, generators::RmatParams::default(), 5)),
        ("cycle", generators::cycle(7)),
        ("path", generators::path(5)),
        ("complete", generators::complete(10)),
        ("star", generators::star(12)),
    ];
    let cells = [(1, 3000), (5, 1), (10, 100), (17, 64)];
    for (name, g) in graphs {
        let n = g.node_count();
        let dir = std::env::temp_dir().join(format!("pasco_row_kernel_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        write_store(&dir, &g, &vec![1.0; n as usize], 2).unwrap();
        let mapped = MappedStore::open(&dir).unwrap();
        let view = PartitionedView::of_graph(&g, Partitioner::range_nonempty(n, 3));
        for (t, r) in cells {
            let params = WalkParams::new(t, r);
            let oracle: Vec<Vec<(u32, f64)>> = (0..n)
                .map(|i| ai_row(&reverse_walk_distributions(&g, i, params, SEED), 0.6))
                .collect();
            let want = StoredRows::new(oracle);
            let label = format!("{name} T={t} R={r}");
            check_rows(&format!("{label} csr"), &g, params, &want);
            check_rows(&format!("{label} view x3"), &view, params, &want);
            check_rows(&format!("{label} mapped x2"), &mapped, params, &want);
            // The build's block store and the recomputing source lend the
            // same rows.
            let recomputed = RecomputedRows::new(&g, params, SEED, 0.6);
            let built = StoredRows::build(n, WalkScratch::default, |walk, i, cols, vals| {
                recomputed.push_row(i, walk, cols, vals);
            });
            assert_eq!(built.memory_bytes(), want.memory_bytes(), "{label}: rows_bytes");
            let mut scratch = Default::default();
            for i in 0..n {
                let (cols, vals) = want.get(i);
                for (src, (got_cols, got_vals)) in
                    [("stored", built.get(i)), ("recomputed", recomputed.row(i, &mut scratch))]
                {
                    assert_eq!(got_cols, cols, "{label}: {src} row {i} columns");
                    let got = bits(got_vals.iter().copied());
                    assert_eq!(got, bits(vals.iter().copied()), "{label}: {src} row {i}");
                }
            }
        }
        drop(mapped);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
