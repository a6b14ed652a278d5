//! The one in-process engine: CloudWalker's kernels over pluggable storage.
//!
//! The algorithm is written once — Monte-Carlo rows then `L` Jacobi sweeps
//! offline ([`build_diagonal_on`]); cohort → `score_pair` / forward walks /
//! ranking online ([`crate::queries`]) — generic over the
//! [`WalkAdjacency`] + [`ForwardSampler`] pair that answers "who links to
//! `v`" and "sample an out-edge of `v`". [`KernelEngine`] is that algorithm
//! behind the [`SimRankEngine`] trait; a [`Storage`] says where the
//! adjacency lives and adds only what actually differs per substrate (its
//! name and its memory accounting):
//!
//! * [`Resident`] (`"local"`) — the whole CSR graph plus its reverse-chain
//!   sampling index in memory, accessed by direct slice index;
//! * [`PartitionedView`] (`"sharded"`) — the graph range-partitioned into
//!   in-memory shards, every lookup routed to the shard owning the node
//!   (the single-box form of *partition by source*);
//! * [`MappedStore`] (`"mapped"`) — a `PASCOSH1` shard directory mapped
//!   read-only: no resident adjacency at all, O(1) restart, graphs larger
//!   than RAM. Forward-push MCSS needs the resident CSR, so
//!   [`crate::CloudWalker`] reports it [`QueryError::Unsupported`] there.
//!
//! Because walk randomness is a pure function of
//! `(seed, source, walker, step)` and every storage serves the same
//! neighbour slices and sampling weights, all three answer **bitwise
//! identically** on every query kind at every shard count — structurally:
//! there is no second implementation to drift. The RPC worker
//! ([`super::distributed::ShardWorkerCore`]) calls the same functions.

use crate::ai::{RecomputedRows, StoredRows};
use crate::api::QueryError;
use crate::config::{AiStrategy, SimRankConfig};
use crate::diag::DiagonalIndex;
use crate::engine::{BuildOutcome, EngineFootprint, SimRankEngine};
use crate::error::SimRankError;
use crate::queries;
use pasco_cluster::ClusterReport;
use pasco_graph::adjacency::{ForwardSampler, WalkAdjacency};
use pasco_graph::partitioned::{GraphPartition, PartitionedView};
use pasco_graph::{CsrGraph, NodeId, ReverseChainIndex};
use pasco_mc::walks::{StepDistributions, WalkScratch};
use pasco_solver::jacobi::{self, JacobiConfig, JacobiResult, RowSource};
use pasco_store::{MappedShard, MappedStore};
use std::sync::Arc;

/// Where an in-process engine's adjacency lives: the walk and sampling
/// traits the kernels run on, plus the per-substrate name and memory
/// accounting.
pub trait Storage: WalkAdjacency + ForwardSampler + Send + Sync {
    /// The stable substrate name [`SimRankEngine::name`] reports.
    fn name(&self) -> &'static str;

    /// Bytes each shard demands, in shard order (one entry when the
    /// storage is not split).
    fn shard_bytes(&self) -> Vec<u64>;

    /// True when the storage splits the graph, i.e. the largest shard
    /// shrinks as shards are added.
    fn partitioned(&self) -> bool;
}

/// The fully resident storage: the CSR graph and the reverse-chain
/// sampling index built from it (the fields stay crate-private so the
/// two cannot be mismatched). [`crate::CloudWalker`] and its engine share
/// one of these.
pub struct Resident {
    pub(crate) graph: Arc<CsrGraph>,
    pub(crate) rci: Arc<ReverseChainIndex>,
}

impl Resident {
    /// Builds the sampling index of `graph` and pairs the two.
    pub fn new(graph: Arc<CsrGraph>) -> Self {
        let rci = Arc::new(ReverseChainIndex::build(&graph));
        Self { graph, rci }
    }
}

impl WalkAdjacency for Resident {
    #[inline]
    fn node_count(&self) -> u32 {
        CsrGraph::node_count(&self.graph)
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        CsrGraph::in_neighbors(&self.graph, v)
    }
}

impl ForwardSampler for Resident {
    #[inline]
    fn outflow(&self, v: NodeId) -> f64 {
        ReverseChainIndex::outflow(&self.rci, v)
    }

    #[inline]
    fn sample_out(&self, v: NodeId, r: f64) -> Option<NodeId> {
        ReverseChainIndex::sample(&self.rci, &self.graph, v, r)
    }
}

impl Storage for Resident {
    fn name(&self) -> &'static str {
        "local"
    }

    fn shard_bytes(&self) -> Vec<u64> {
        vec![CsrGraph::memory_bytes(&self.graph) + ReverseChainIndex::memory_bytes(&self.rci)]
    }

    fn partitioned(&self) -> bool {
        false
    }
}

impl Storage for PartitionedView {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn shard_bytes(&self) -> Vec<u64> {
        self.partitions().iter().map(GraphPartition::memory_bytes).collect()
    }

    fn partitioned(&self) -> bool {
        true
    }
}

impl Storage for MappedStore {
    fn name(&self) -> &'static str {
        "mapped"
    }

    /// Mapped bytes, not resident ones: the kernel pages shards in and
    /// out on demand, so this is the demand *ceiling*, reached only if a
    /// query walks every edge.
    fn shard_bytes(&self) -> Vec<u64> {
        self.shards().iter().map(MappedShard::mapped_bytes).collect()
    }

    fn partitioned(&self) -> bool {
        true
    }
}

/// CloudWalker's offline build and online queries over one [`Storage`].
/// Queries run on the caller's thread — one cohort is one unit of work in
/// the partition-by-source decomposition, and parallelism comes from the
/// sources (builds, batch APIs, concurrent clients).
pub struct KernelEngine<A> {
    adj: Arc<A>,
}

/// The single-machine reference: [`KernelEngine`] over [`Resident`].
pub type LocalEngine = KernelEngine<Resident>;
/// In-process shards: [`KernelEngine`] over a [`PartitionedView`].
pub type ShardedEngine = KernelEngine<PartitionedView>;
/// Out-of-core execution: [`KernelEngine`] over a [`MappedStore`].
pub type MappedEngine = KernelEngine<MappedStore>;

impl<A: Storage> KernelEngine<A> {
    /// An engine over (shared) storage.
    pub fn new(adj: Arc<A>) -> Self {
        Self { adj }
    }
}

impl<A: Storage> SimRankEngine for KernelEngine<A> {
    fn name(&self) -> &'static str {
        Storage::name(&*self.adj)
    }

    fn build_diagonal(&self, cfg: &SimRankConfig) -> Result<BuildOutcome, SimRankError> {
        Ok(build_diagonal_on(&*self.adj, cfg))
    }

    fn query_cohort(
        &self,
        cfg: &SimRankConfig,
        source: NodeId,
    ) -> Result<StepDistributions, QueryError> {
        Ok(queries::query_cohort_on(&*self.adj, cfg, source))
    }

    fn single_source(
        &self,
        diag: &[f64],
        cfg: &SimRankConfig,
        i: NodeId,
    ) -> Result<Vec<f64>, QueryError> {
        Ok(queries::single_source_on(&*self.adj, diag, cfg, i))
    }

    fn single_source_topk(
        &self,
        diag: &[f64],
        cfg: &SimRankConfig,
        i: NodeId,
        k: usize,
    ) -> Result<Vec<(NodeId, f64)>, QueryError> {
        Ok(queries::single_source_topk_on(&*self.adj, diag, cfg, i, k))
    }

    fn cluster_report(&self) -> Option<ClusterReport> {
        None
    }

    fn memory_footprint(&self) -> EngineFootprint {
        EngineFootprint {
            per_worker_bytes: Storage::shard_bytes(&*self.adj).into_iter().max().unwrap_or(0),
            partitioned: Storage::partitioned(&*self.adj),
        }
    }

    fn shard_footprints(&self) -> Option<Vec<u64>> {
        Storage::partitioned(&*self.adj).then(|| Storage::shard_bytes(&*self.adj))
    }
}

impl<A: Storage> std::fmt::Debug for KernelEngine<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelEngine")
            .field("storage", &Storage::name(&*self.adj))
            .field("nodes", &WalkAdjacency::node_count(&*self.adj))
            .field("shards", &Storage::shard_bytes(&*self.adj).len())
            .finish_non_exhaustive()
    }
}

/// Builds the diagonal index over any adjacency source.
///
/// Walk phase: a cohort of `R` walkers per node through the row kernel,
/// one parallel task per aligned 256-row group of [`StoredRows`], each row
/// coded straight into its group's block. Solve phase: [`solve_rows`]. With the
/// `Recompute` strategy no row is ever resident — each sweep regenerates
/// them from the walks.
pub fn build_diagonal_on<A: WalkAdjacency>(adj: &A, cfg: &SimRankConfig) -> BuildOutcome {
    let n = adj.node_count();
    let strategy = cfg.resolve_ai_strategy(n);
    let kernel = RecomputedRows::of(adj, cfg);
    let (result, rows_bytes) = match strategy {
        AiStrategy::Store | AiStrategy::Auto { .. } => {
            let rows = StoredRows::build(n, WalkScratch::default, |walk, i, cols, vals| {
                kernel.push_row(i, walk, cols, vals);
            });
            (solve_rows(&rows, cfg), Some(StoredRows::memory_bytes(&rows)))
        }
        AiStrategy::Recompute => (solve_rows(&kernel, cfg), None),
    };
    BuildOutcome {
        diag: DiagonalIndex::new(result.x),
        strategy,
        residuals: result.residuals,
        rows_bytes,
        cluster: None,
    }
}

/// The right-hand side and starting iterate of the diagonal system, the
/// only place they are spelled: `b = 1` and `x⁰ = (1 − c)·1` (the diagonal
/// of the *first-order* correction, a good warm start).
pub(crate) fn unit_system(rows: &impl RowSource, cfg: &SimRankConfig) -> (Vec<f64>, Vec<f64>) {
    (vec![1.0; rows.dim()], vec![1.0 - cfg.c; rows.dim()])
}

/// The solve phase every in-process substrate shares: `L` parallel Jacobi
/// sweeps on `A x = 1` from `unit_system`, residuals recorded.
pub fn solve_rows(rows: &impl RowSource, cfg: &SimRankConfig) -> JacobiResult {
    let (b, x0) = unit_system(rows, cfg);
    let sweeps = JacobiConfig { iterations: cfg.l, tolerance: None, record_residuals: true };
    jacobi::solve(rows, &b, &x0, &sweeps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasco_graph::generators;
    use pasco_graph::partition::Partitioner;
    use pasco_store::write_store;

    /// Every in-process storage over `g`: resident, the routed view at
    /// 1/3/8 shards, and a mapped store (holding `diag`) at 1/2/4 parts.
    /// Each entry is `(mode name, shard count, engine)`.
    fn engines(
        g: &Arc<CsrGraph>,
        diag: &[f64],
    ) -> Vec<(&'static str, u32, Box<dyn SimRankEngine>)> {
        let resident = KernelEngine::new(Arc::new(Resident::new(Arc::clone(g))));
        let mut all: Vec<(&'static str, u32, Box<dyn SimRankEngine>)> =
            vec![("local", 1, Box::new(resident))];
        for shards in [1u32, 3, 8] {
            let p = Partitioner::range_nonempty(g.node_count(), shards);
            let view = KernelEngine::new(Arc::new(PartitionedView::of_graph(g, p)));
            all.push(("sharded", shards, Box::new(view)));
        }
        for parts in [1u32, 2, 4] {
            let dir = std::env::temp_dir().join(format!("pasco_kernel_engine_{parts}"));
            let _ = std::fs::remove_dir_all(&dir);
            write_store(&dir, g, diag, parts).unwrap();
            let mapped = KernelEngine::new(Arc::new(MappedStore::open(&dir).unwrap()));
            all.push(("mapped", parts, Box::new(mapped)));
        }
        all
    }

    #[test]
    fn every_storage_answers_bitwise_like_the_resident_kernels() {
        let g = Arc::new(generators::barabasi_albert(150, 3, 6));
        let rci = ReverseChainIndex::build(&g);
        let cfg = SimRankConfig::fast().with_seed(33);
        // The resident column: the free functions over the CSR graph.
        let want = build_diagonal_on(&*g, &cfg);
        assert!(want.rows_bytes.is_some() && want.cluster.is_none());
        let diag = want.diag.as_slice();
        let cohort = queries::query_cohort(&g, &cfg, 9);
        let pair = queries::single_pair(&g, diag, &cfg, 4, 70);
        let dense = queries::single_source(&g, &rci, diag, &cfg, 4);
        let topk = queries::single_source_topk(&g, &rci, diag, &cfg, 4, 10);
        assert_eq!(topk.len(), 10);

        for (name, shards, eng) in engines(&g, diag) {
            let eng: &dyn SimRankEngine = &*eng;
            let label = format!("{name} x{shards}");
            assert_eq!(eng.name(), name, "{label}: the stable mode string");
            // A mapped store ships a diagonal, but a fresh build over it
            // never reads that section.
            let store = eng.build_diagonal(&cfg.with_ai_strategy(AiStrategy::Store)).unwrap();
            assert_eq!(store.diag, want.diag, "{label}: diagonal");
            assert_eq!(store.residuals, want.residuals, "{label}: residuals");
            assert_eq!(store.rows_bytes, want.rows_bytes, "{label}: rows_bytes");
            assert!(store.cluster.is_none(), "{label}");
            let recompute =
                eng.build_diagonal(&cfg.with_ai_strategy(AiStrategy::Recompute)).unwrap();
            assert_eq!(recompute.diag, want.diag, "{label}: Store == Recompute");
            assert_eq!(recompute.residuals, want.residuals, "{label}: Recompute residuals");
            assert!(recompute.rows_bytes.is_none(), "{label}");

            assert_eq!(eng.query_cohort(&cfg, 9).unwrap(), cohort, "{label}: cohort");
            assert_eq!(eng.single_pair(diag, &cfg, 4, 70).unwrap(), pair, "{label}: MCSP");
            assert_eq!(eng.single_pair(diag, &cfg, 4, 4).unwrap(), 1.0, "{label}: s(i,i)");
            assert_eq!(eng.single_source(diag, &cfg, 4).unwrap(), dense, "{label}: MCSS");
            assert_eq!(eng.single_source_topk(diag, &cfg, 4, 10).unwrap(), topk, "{label}: top-k");

            let fp = eng.memory_footprint();
            let resident = name == "local";
            assert_eq!(fp.partitioned, !resident, "{label}: partitioned");
            match eng.shard_footprints() {
                None => {
                    assert!(resident, "{label}: only the resident storage is unsharded");
                    assert!(fp.per_worker_bytes >= CsrGraph::memory_bytes(&g));
                }
                Some(per_shard) => {
                    assert_eq!(per_shard.len(), shards as usize, "{label}: shard_footprints");
                    assert_eq!(fp.per_worker_bytes, per_shard.iter().copied().max().unwrap());
                }
            }
        }
    }

    #[test]
    fn footprint_shrinks_with_shards() {
        let g = generators::rmat(10, 10_000, generators::RmatParams::default(), 3);
        let view = |shards| -> ShardedEngine {
            let p = Partitioner::range_nonempty(CsrGraph::node_count(&g), shards);
            KernelEngine::new(Arc::new(PartitionedView::of_graph(&g, p)))
        };
        let one = SimRankEngine::memory_footprint(&view(1)).per_worker_bytes;
        let eight = SimRankEngine::memory_footprint(&view(8)).per_worker_bytes;
        assert!(eight < one, "8 shards {eight} vs 1 shard {one}");
        let per: u64 = SimRankEngine::shard_footprints(&view(8)).unwrap().iter().sum();
        assert!(per >= eight);
    }

    #[test]
    fn stored_rows_cost_at_most_seven_bytes_per_entry() {
        // 6 B per entry coded; offsets and the per-group dictionaries add
        // the rest (≈ 0.5 B per entry here, ≈ 1.1 B at R = 100, T = 10 on
        // this 1k-node graph, ≈ 0.06 B at rmat16).
        let g = generators::rmat(10, 8_000, generators::RmatParams::default(), 4);
        let cfg = SimRankConfig::fast().with_ai_strategy(AiStrategy::Store);
        let bytes = build_diagonal_on(&g, &cfg).rows_bytes.unwrap();
        let (kernel, mut scratch) = (RecomputedRows::of(&g, &cfg), Default::default());
        let entries: usize = g.nodes().map(|i| kernel.row(i, &mut scratch).0.len()).sum();
        assert!(bytes <= 7 * entries as u64, "{bytes} B for {entries} entries");
    }

    #[test]
    fn diagonal_values_are_plausible() {
        // x ∈ (0, 1]. A dangling node's row is exactly e_i (its walkers die
        // after step 0), so its diagonal is exactly 1; nodes with
        // in-neighbours carry later-step mass and need x < 1.
        let g = generators::barabasi_albert(300, 4, 8);
        let cfg = SimRankConfig::fast();
        let out = build_diagonal_on(&g, &cfg);
        let (min, mean, max) = out.diag.stats();
        assert!(min > 0.0, "min {min}");
        assert!(max <= 1.0 + 1e-9, "max {max}");
        assert!(mean > 1.0 - cfg.c && mean <= 1.0, "mean {mean}");
        for v in g.nodes() {
            if g.is_dangling(v) {
                assert!((out.diag.get(v) - 1.0).abs() < 1e-12, "dangling x[{v}]");
            }
        }
        assert_eq!(out.residuals.len(), cfg.l);
        assert!(out.cluster.is_none());
    }

    #[test]
    fn residuals_shrink_with_sweeps() {
        let g = generators::rmat(9, 3000, generators::RmatParams::default(), 9);
        let residuals = build_diagonal_on(&g, &SimRankConfig::fast().with_l(6)).residuals;
        assert!(residuals.last().unwrap() < &residuals[0]);
        // By L = 3 the residual should be tiny relative to sweep 1 — the
        // paper's justification for L = 3.
        assert!(residuals[2] < residuals[0] * 0.1, "{residuals:?}");
    }

    #[test]
    fn mc_diagonal_close_to_exact_diagonal() {
        let g = generators::barabasi_albert(120, 3, 5);
        let cfg = SimRankConfig::default_paper().with_r(4_000).with_t(8).with_l(10);
        let out = build_diagonal_on(&g, &cfg);
        let exact = crate::exact::exact_diagonal(&g, cfg.c, cfg.t, 100);
        let worst = out
            .diag
            .as_slice()
            .iter()
            .zip(exact.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 0.05, "worst |x_mc - x_exact| = {worst}");
    }

    #[test]
    fn build_is_bitwise_the_same_at_every_thread_count() {
        // The rayon shim hands out pieces dynamically: which worker built a
        // block or swept a row must not show in a single bit.
        let g = generators::rmat(10, 8_000, generators::RmatParams::default(), 4);
        let cfg = SimRankConfig::fast();
        let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
        let runs = [1, 2, 3, 8].map(|threads| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let out = pool.install(|| build_diagonal_on(&g, &cfg));
            (bits(out.diag.as_slice()), bits(&out.residuals), out.rows_bytes)
        });
        assert!(runs.iter().all(|run| *run == runs[0]));
    }
}
