//! The step-synchronous kernels against walker-at-a-time oracles.
//!
//! The cohort kernel (`reverse_walk_counts_on`) and the MCSS forward
//! stage's walks arm (`walked_masses_on`, `walked_scores_on`) advance every
//! walker of a frontier one step per pass. Their contract is that this
//! changes no answer: histograms are, entry for entry, what adding up one
//! `reverse_walk_path` per walker gives, and every landed mass is summed in
//! the `(t, support node, walker)` order a loop over `forward_walk_on`
//! would use — so the floating-point results are equal **bitwise**. The
//! forward stage's exact arm (`swept_series_on`) is held to the series
//! summed term by term, and to the resident graph's bits on every storage.
//! One table checks all of them over every storage the kernels run on; a
//! second
//! holds the offline build's row kernel (`RowKernel::push_row`, one sort per
//! cohort) to `ai_row` over the step histograms, row by row. The block
//! writer itself (`reverse_walk_block_on`, on its per-thread scratch) is
//! held to the oracle at the edges — a hub, a dead source, a cohort below
//! the radix threshold, `T = 0`, steps kept as ids and as bitmaps, fewer
//! nodes than a bitmap word — and across reuse of its scratch. The
//! exact arm's one sweep (`pull_sweep`, in its plan's order) is held to
//! node order bit for bit at the plan's edges: no live node, fewer nodes
//! than a lane, lane remainders, a hub, ranges and shard boundaries that
//! cut a block; and its plan is built by the first sweep, once.

use pasco::graph::partition::Partitioner;
use pasco::graph::{generators, CsrGraph, ForwardSampler, GraphSampler, NodeId};
use pasco::graph::{ReverseChainIndex, SweepPlan, WalkAdjacency};
use pasco::mc::counts::MassMap;
use pasco::mc::forward::forward_walk_on;
use pasco::mc::rng;
use pasco::mc::walks::{
    reverse_walk_block_on, reverse_walk_counts_on, reverse_walk_distributions, reverse_walk_path,
    BlockStep, CohortBlock, StepDistributions, WalkParams, WalkScratch,
};
use pasco::simrank::ai::{ai_row, RowKernel, StoredRows};
use pasco::simrank::engine::kernel::build_diagonal_on;
use pasco::simrank::{queries, CloudWalker, DiagonalIndex, SimRankConfig};
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

/// The exact-arm oracle: `Σ_t cᵗ (Pᵀ)ᵗ (D ûₜ)` term by term, each power
/// applied as `t` separate averages over the in-links (no Horner nesting).
fn power_series(g: &CsrGraph, dists: &StepDistributions, diag: &[f64], c: f64) -> Vec<f64> {
    let n = g.node_count() as usize;
    let mut sum = vec![0.0f64; n];
    for (t, step) in dists.counts.iter().enumerate() {
        let mut y = vec![0.0f64; n];
        for &(k, count) in step {
            y[k as usize] = diag[k as usize] * count as f64 / f64::from(dists.walkers);
        }
        for _ in 0..t {
            let mean =
                |ins: &[NodeId]| ins.iter().map(|&k| y[k as usize]).sum::<f64>() / ins.len() as f64;
            y = g
                .nodes()
                .map(|j| g.in_neighbors(j))
                .map(|ins| if ins.is_empty() { 0.0 } else { mean(ins) })
                .collect();
        }
        let ct = c.powi(t as i32);
        sum.iter_mut().zip(&y).for_each(|(s, v)| *s += ct * v);
    }
    sum
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
    swept: Vec<u64>,
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
    let dense = queries::walked_scores_on(n, adj, &dists, diag, cfg);
    assert_eq!(bits(dense), want.dense, "{label}: dense MCSS, source {source}, R {r}");
    let sparse = queries::walked_masses_on(adj, &dists, diag, cfg).into_sorted_vec();
    let sparse: Vec<(NodeId, u64)> = sparse.into_iter().map(|(v, m)| (v, m.to_bits())).collect();
    assert_eq!(sparse, want.sparse, "{label}: sparse MCSS, source {source}, R {r}");
    let swept = queries::swept_series_on(adj, &dists, diag, cfg, |z| bits(z.iter().copied()));
    assert_eq!(swept, want.swept, "{label}: swept MCSS, source {source}, R {r}");
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
                let swept = queries::swept_series_on(&*g, &dists, &diag, &cfg, <[f64]>::to_vec);
                let terms = power_series(&g, &dists, &diag, cfg.c);
                for (v, (a, b)) in swept.iter().zip(&terms).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-12 * b.max(1.0),
                        "{name}: swept node {v}: {a} vs {b}"
                    );
                }
                let swept = bits(swept);
                table.push(Expected { source, r, cohorts, cfg, dense: bits(dense), sparse, swept });
            }
        }

        // Every storage: resident, in-memory images and the mapped store at
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
                let p = Partitioner::range_nonempty(n, shards);
                let sharded = MappedStore::of_graph(&g, &p).unwrap();
                check_storage(&format!("{name}/sharded x{shards}"), &sharded, &diag, want);
            }
            if n <= 10 {
                let sharded = MappedStore::of_graph(&g, &Partitioner::range(n, n + 3)).unwrap();
                let label = format!("{name}/sharded x{} (empty parts)", n + 3);
                check_storage(&label, &sharded, &diag, want);
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
    let kernel = RowKernel::new(adj, params, SEED, 0.6);
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
        let sharded = MappedStore::of_graph(&g, &Partitioner::range_nonempty(n, 3)).unwrap();
        for (t, r) in cells {
            let params = WalkParams::new(t, r);
            let oracle: Vec<Vec<(u32, f64)>> = (0..n)
                .map(|i| ai_row(&reverse_walk_distributions(&g, i, params, SEED), 0.6))
                .collect();
            let want = StoredRows::new(oracle);
            let label = format!("{name} T={t} R={r}");
            check_rows(&format!("{label} csr"), &g, params, &want);
            check_rows(&format!("{label} sharded x3"), &sharded, params, &want);
            check_rows(&format!("{label} mapped x2"), &mapped, params, &want);
            // The build's block store lends the same rows.
            let kernel = RowKernel::new(&g, params, SEED, 0.6);
            let built = StoredRows::build(n, WalkScratch::default, |walk, i, cols, vals| {
                kernel.push_row(i, walk, cols, vals);
            });
            assert_eq!(built.memory_bytes(), want.memory_bytes(), "{label}: rows_bytes");
            for i in 0..n {
                let ((got_cols, got_vals), (cols, vals)) = (built.get(i), want.get(i));
                assert_eq!(got_cols, cols, "{label}: stored row {i} columns");
                let got = bits(got_vals.iter().copied());
                assert_eq!(got, bits(vals.iter().copied()), "{label}: stored row {i}");
            }
        }
        drop(mapped);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The cohort oracle with its step 0, any `T`: one `reverse_walk_path` per
/// walker, counted per step.
fn path_cohort(g: &CsrGraph, source: NodeId, r: u32, steps: usize) -> StepDistributions {
    let mut counts = vec![BTreeMap::<NodeId, u64>::new(); steps + 1];
    counts[0].insert(source, u64::from(r));
    for w in 0..r {
        for (t, &node) in reverse_walk_path(g, source, w, steps, SEED).iter().enumerate() {
            *counts[t + 1].entry(node).or_default() += 1;
        }
    }
    let counts = counts.into_iter().map(|step| step.into_iter().collect()).collect();
    StepDistributions { source, walkers: r, counts }
}

/// A step's key words in a block: its ids, or its bitmap's 64-bit words,
/// two `u32`s each, when they are strictly fewer.
fn key_words(step: &[(NodeId, u64)]) -> usize {
    let span = match (step.first(), step.last()) {
        (Some(&(first, _)), Some(&(last, _))) => (last / 64 - first / 64 + 1) as usize,
        _ => 0,
    };
    if 2 * span < step.len() {
        2 * span
    } else {
        step.len()
    }
}

/// The block writer on every storage of `g` against the per-walker oracle,
/// for each `(source, R', T)` cell.
fn check_block_writer(g: &CsrGraph, name: &str, cells: &[(NodeId, u32, usize)]) {
    let n = g.node_count();
    let dead = g.nodes().find(|&v| g.in_degree(v) == 0);
    let dir = std::env::temp_dir().join(format!("pasco_block_writer_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    write_store(&dir, g, &vec![1.0; n as usize], 2).unwrap();
    let mapped = MappedStore::open(&dir).unwrap();
    let sharded = MappedStore::of_graph(g, &Partitioner::range_nonempty(n, 3)).unwrap();
    for &(source, r, steps) in cells {
        let want = path_cohort(g, source, r, steps);
        if Some(source) == dead {
            assert!(want.counts[1..].iter().all(Vec::is_empty), "a dead source's walkers die");
        }
        let flat = CohortBlock::try_from(&want).unwrap();
        let entries = flat.entries();
        let escapes = want.counts.iter().flatten().filter(|&&(_, c)| c >= 255).count();
        assert_eq!(escapes > 0, r >= 255, "step 0 escapes exactly when R' does");
        // Offsets and key offsets, a bitmap base a step, each step's keys,
        // escape pairs, then one count byte an entry in words.
        let keys: usize = want.counts.iter().map(|step| key_words(step)).sum();
        let words = 3 * (steps + 1) + 2 + keys + 2 * escapes + entries.div_ceil(4);
        let label = format!("{name}: source {source}, R' {r}, T {steps}");
        let blocks = [
            ("csr", reverse_walk_block_on(g, source, 0..r, steps, SEED)),
            ("sharded x3", reverse_walk_block_on(&sharded, source, 0..r, steps, SEED)),
            ("mapped x2", reverse_walk_block_on(&mapped, source, 0..r, steps, SEED)),
        ];
        for (storage, block) in blocks {
            assert_eq!(StepDistributions::from(&block), want, "{storage}: {label}");
            assert_eq!(block, flat, "{storage}: {label}");
            assert_eq!(block.heap_bytes(), 4 * words, "{storage}: {label}: one exact allocation");
        }
    }
    drop(mapped);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn block_writer_equals_the_per_walker_oracle_at_its_edges() {
    let g = generators::rmat(9, 4000, generators::RmatParams::default(), 5);
    let hub = g.nodes().max_by_key(|&v| g.in_degree(v)).unwrap();
    let dead = g.nodes().find(|&v| g.in_degree(v) == 0).unwrap();
    // A hub at R' = 10 000 and below `RADIX_MIN`, a dead source (steps
    // 1..T empty), and `T = 0`; step 0's count escapes its byte from
    // R' = 255 on.
    let cells = [
        (hub, 10_000, T),
        (hub, 255, T),
        (hub, 100, T),
        (dead, 300, T),
        (hub, 300, 0),
        (hub, 50, 0),
        (dead, 7, 0),
    ];
    check_block_writer(&g, "rmat9", &cells);
    // 16 384 nodes: at R' = 511 the steps are sparse and keep their ids;
    // at 10 000 the dense ones take the bitmap.
    let g = generators::rmat(14, 60_000, generators::RmatParams::default(), 5);
    let hub = g.nodes().max_by_key(|&v| g.in_degree(v)).unwrap();
    check_block_writer(&g, "rmat14", &[(hub, 511, T), (hub, 10_000, T)]);
    let bitmaps = |r| {
        let block = reverse_walk_block_on(&g, hub, 0..r, T, SEED);
        block.histograms().filter(|step| matches!(step, BlockStep::Bits(_))).count()
    };
    assert_eq!((bitmaps(511), bitmaps(10_000) > 0), (0, true), "rmat14: both forms");
    // Fewer nodes than a bitmap word, and not a multiple of 64 of them.
    let g = generators::barabasi_albert(37, 3, 5);
    let hub = g.nodes().max_by_key(|&v| g.in_degree(v)).unwrap();
    check_block_writer(&g, "ba37", &[(hub, 10_000, T), (hub, 2, T), (hub, 1, T)]);
}

#[test]
fn a_reused_scratch_leaks_nothing_between_cohorts() {
    // One thread, one scratch: large, tiny, large again — each the block a
    // fresh scratch writes, so no buffer carries a stale entry over.
    let g = generators::barabasi_albert(2_000, 4, 7);
    let (big, small) = (g.nodes().max_by_key(|&v| g.in_degree(v)).unwrap(), 1_999);
    for (source, r) in [(big, 10_000), (small, 7), (big, 10_000), (small, 7)] {
        let fresh = WalkScratch::default().block_on(&g, source, 0..r, 10, SEED);
        assert_eq!(reverse_walk_block_on(&g, source, 0..r, 10, SEED), fresh, "source {source}");
    }
}

/// The pull sweep's oracle: node order over `range`, one chain per node.
fn natural_sweep<A: WalkAdjacency>(adj: &A, z: &[f64], c: f64, range: Range<NodeId>) -> Vec<u64> {
    bits(range.map(|j| {
        let ins = adj.in_neighbors(j);
        let sum = ins.iter().fold(0.0, |sum, &k| sum + z[k as usize]);
        if ins.is_empty() {
            0.0
        } else {
            c * sum / ins.len() as f64
        }
    }))
}

/// `queries::pull_sweep` over `range`, into a buffer of NaNs so a node it
/// skips shows.
fn planned_sweep<A: WalkAdjacency>(adj: &A, z: &[f64], c: f64, range: Range<NodeId>) -> Vec<u64> {
    let mut out = vec![f64::NAN; range.len()];
    queries::pull_sweep(adj, z, c, range.start, &mut out);
    bits(out)
}

/// An iterate with no two entries alike, so a summand out of order shows
/// in the last bits.
fn iterate(n: u32) -> Vec<f64> {
    (0..n).map(|k| 1.0 / (3.0 + f64::from(k)) + f64::from(k % 5) * 1e-3).collect()
}

/// A 6 148-node graph: block `b < 4` holds `[1, 2, 3, 5][b]` nodes past
/// the lane threshold (in-degrees 9, 14, 19, …), a run of single-chain
/// nodes of in-degree 1 to 8 and self-loops; the last block is cut short
/// and carries the one hub, ≈ 6 000 in-links wide.
fn lane_edges() -> (u32, Vec<(NodeId, NodeId)>) {
    let n = 6 * SweepPlan::BLOCK + 4;
    let block = |b: u32| b * SweepPlan::BLOCK;
    let mut edges = Vec::new();
    let from = |to: NodeId, degree: u32, edges: &mut Vec<(NodeId, NodeId)>| {
        edges.extend((0..degree).map(|i| ((to * 31 + i * 97 + 5) % n, to)));
    };
    for (b, lanes) in [1u32, 2, 3, 5].into_iter().enumerate() {
        let lo = block(b as u32);
        for i in 0..lanes {
            from(lo + 7 * i + 3, 9 + 5 * i, &mut edges);
        }
        for i in 0..40 {
            from(lo + 100 + 3 * i, 1 + i % 8, &mut edges);
        }
        edges.extend([(lo + 2, lo + 2), (lo + 500, lo + 500), (lo + 1, lo + 500)]);
    }
    let hub = block(6) + 1;
    edges.extend((0..n).filter(|v| v % 40 != 0).map(|v| (v, hub)));
    from(block(6) + 3, 9, &mut edges);
    (n, edges)
}

#[test]
fn the_planned_pull_sweep_is_node_order_bit_for_bit() {
    let (n, edges) = lane_edges();
    let lanes = CsrGraph::from_edges(n, &edges);
    assert!((5_900..6_100).contains(&lanes.in_degree(6 * SweepPlan::BLOCK + 1)), "one hub");
    let lane_counts: Vec<usize> =
        lanes.sweep_plan().blocks(0..lanes.node_count()).map(|(_, lanes)| lanes.len()).collect();
    assert_eq!(lane_counts, [1, 2, 3, 5, 0, 0, 2]);
    let rmat = generators::rmat(12, 30_000, generators::RmatParams::default(), 3);
    let cases = [
        ("all dead", CsrGraph::from_edges(3_000, &[])),
        ("one node, a self-loop", CsrGraph::from_edges(1, &[(0, 0)])),
        ("two nodes", CsrGraph::from_edges(2, &[(0, 1), (1, 1)])),
        ("three nodes", generators::complete(3)),
        ("lanes of 1, 2, 3 and 5, a hub", lanes),
        ("rmat12", rmat),
        ("n off the block", generators::erdos_renyi(2_348, 20_000, 9)),
    ];
    for (name, g) in &cases {
        let n = g.node_count();
        let z = iterate(n);
        let want = natural_sweep(g, &z, 0.6, 0..n);
        assert_eq!(planned_sweep(g, &z, 0.6, 0..n), want, "{name}");
        // Broadcast-style ranges: a tiling whose cuts fall inside blocks,
        // and single ranges that start, end or sit inside one.
        for parts in [2, 7, 320] {
            let p = Partitioner::range(n, parts);
            let tiled: Vec<u64> = (0..parts)
                .map(|q| p.range_of(q))
                .flat_map(|(lo, hi)| planned_sweep(g, &z, 0.6, lo..hi))
                .collect();
            assert_eq!(tiled, want, "{name}: {parts} ranges");
        }
        let edge = SweepPlan::BLOCK.min(n);
        for range in [1..n, 0..n - 1, edge - 1..n, n / 3..n / 2, n / 2..n / 2, n - 1..n] {
            let (lo, hi) = (range.start as usize, range.end as usize);
            assert_eq!(planned_sweep(g, &z, 0.6, range.clone()), want[lo..hi], "{name}: {range:?}");
        }
    }
}

#[test]
fn a_shard_boundary_inside_a_block_changes_no_bit() {
    // 3 000 nodes in 3 parts: shards of 1 000 cut the first two blocks.
    let g = generators::erdos_renyi(3_000, 40_000, 21);
    let store = MappedStore::of_graph(&g, &Partitioner::range(3_000, 3)).unwrap();
    assert_eq!(store.shards()[1].start(), 1_000);
    let z = iterate(3_000);
    let want = natural_sweep(&g, &z, 0.8, 0..3_000);
    assert_eq!(planned_sweep(&store, &z, 0.8, 0..3_000), want);
    assert_eq!(planned_sweep(&store, &z, 0.8, 990..2_010), want[990..2_010]);
}

#[test]
fn the_sweep_plan_is_built_by_the_first_sweep_and_only_once() {
    let g = generators::rmat(10, 8_000, generators::RmatParams::default(), 4);
    let n = g.node_count();
    let dir = std::env::temp_dir().join("pasco_frontier_lazy_plan");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    write_store(&dir, &g, &vec![0.5; n as usize], 2).unwrap();
    let store = MappedStore::open(&dir).unwrap();
    assert!(!store.sweep_planned(), "open builds no plan");
    let cfg = SimRankConfig { r: 8, ..SimRankConfig::fast() };
    build_diagonal_on(&store, &cfg).unwrap();
    assert!(!store.sweep_planned(), "a build does not sweep");
    let z = iterate(n);
    let first = planned_sweep(&store, &z, 0.6, 0..n);
    assert!(store.sweep_planned());
    let plan: *const SweepPlan = store.sweep_plan();
    assert_eq!(planned_sweep(&store, &z, 0.6, 0..n), first);
    assert!(std::ptr::eq(plan, store.sweep_plan()), "the second sweep reuses the plan");
    let planned: usize = store.sweep_plan().blocks(0..n).map(|(s, l)| s.len() + l.len()).sum();
    assert_eq!(planned, (0..n).filter(|&v| g.in_degree(v) > 0).count(), "every live node");
}
