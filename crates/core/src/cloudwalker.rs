//! The public CloudWalker API: build the index once, query forever.

use crate::api::QueryError;
use crate::config::{AiStrategy, SimRankConfig};
use crate::diag::DiagonalIndex;
use crate::engine::broadcast::BroadcastEngine;
use crate::engine::distributed::DistributedEngine;
use crate::engine::kernel::{KernelEngine, Resident};
use crate::engine::rdd::RddEngine;
use crate::engine::{ExecMode, SimRankEngine};
use crate::error::SimRankError;
use crate::queries;
use pasco_cluster::ClusterReport;
use pasco_graph::partition::Partitioner;
use pasco_graph::partitioned::PartitionedView;
use pasco_graph::{CsrGraph, NodeId, ReverseChainIndex};
use pasco_store::MappedStore;
use rayon::prelude::*;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Statistics from offline index construction.
#[derive(Clone, Debug)]
pub struct IndexBuildStats {
    /// Wall time of the whole build.
    pub wall: Duration,
    /// The row-provisioning strategy actually used.
    pub strategy: AiStrategy,
    /// `‖Ax − 1‖∞` after each Jacobi sweep.
    pub jacobi_residuals: Vec<f64>,
    /// Stored-row footprint, if rows were materialised.
    pub rows_bytes: Option<u64>,
    /// Cluster accounting (broadcast/RDD modes only).
    pub cluster: Option<ClusterReport>,
}

/// CloudWalker: offline-indexed, Monte-Carlo-queried SimRank.
///
/// Every query dispatches through one `Box<dyn SimRankEngine>` — the
/// execution substrate is chosen once at build time and the query paths
/// never branch on it.
///
/// ```
/// use pasco_simrank::{CloudWalker, SimRankConfig, ExecMode};
/// use pasco_graph::generators;
///
/// let g = generators::barabasi_albert(300, 4, 1);
/// let cw = CloudWalker::build(g.into(), SimRankConfig::fast(), ExecMode::Local).unwrap();
/// let s = cw.try_single_pair(3, 4).unwrap();
/// assert!((0.0..=1.0).contains(&s));
/// assert!(cw.try_single_pair(3, 300).is_err()); // typed, never a panic
/// ```
pub struct CloudWalker {
    backing: GraphBacking,
    cfg: SimRankConfig,
    diag: DiagonalIndex,
    engine: Box<dyn SimRankEngine>,
}

/// What the walker holds for adjacency: the resident CSR graph plus its
/// reverse-chain sampling index (the very [`Resident`] value a local
/// engine runs on) or a zero-copy mapped `PASCOSH1` shard store with no
/// resident adjacency at all. Query paths never match on this — they go
/// through the engine — only the resident-specific surfaces (`graph()`,
/// the deterministic-push ablation, `save_store`) do.
enum GraphBacking {
    /// The graph lives in memory; every [`ExecMode`] engine is available.
    Resident(Arc<Resident>),
    /// Adjacency stays on disk behind the kernel page cache; walks read
    /// the mapped shards directly ([`CloudWalker::open_store`]).
    Mapped(Arc<MappedStore>),
}

impl GraphBacking {
    fn node_count(&self) -> u32 {
        match self {
            GraphBacking::Resident(resident) => resident.graph.node_count(),
            GraphBacking::Mapped(store) => store.node_count(),
        }
    }
}

impl CloudWalker {
    /// Builds the offline index (the diagonal correction `D`) with the
    /// chosen execution mode and returns a query-ready engine.
    pub fn build(
        graph: Arc<CsrGraph>,
        cfg: SimRankConfig,
        mode: ExecMode,
    ) -> Result<Self, SimRankError> {
        Self::build_with_stats(graph, cfg, mode).map(|(cw, _)| cw)
    }

    /// [`CloudWalker::build`] plus build statistics.
    pub fn build_with_stats(
        graph: Arc<CsrGraph>,
        cfg: SimRankConfig,
        mode: ExecMode,
    ) -> Result<(Self, IndexBuildStats), SimRankError> {
        cfg.validate()?;
        if graph.node_count() == 0 {
            return Err(SimRankError::InvalidConfig("graph has no nodes".into()));
        }
        let start = Instant::now();
        let resident = Arc::new(Resident::new(graph));
        let engine = make_engine(mode, &resident)?;
        let out = engine.build_diagonal(&cfg)?;
        let stats = IndexBuildStats {
            wall: start.elapsed(),
            strategy: out.strategy,
            jacobi_residuals: out.residuals,
            rows_bytes: out.rows_bytes,
            cluster: out.cluster,
        };
        Ok((Self { backing: GraphBacking::Resident(resident), cfg, diag: out.diag, engine }, stats))
    }

    /// Opens a [`pasco_store`] shard directory (written by
    /// [`CloudWalker::save_store`] or `pasco save-store`) for out-of-core
    /// querying: the adjacency stays on disk behind the kernel page cache,
    /// the persisted diagonal is composed straight from the mapped shards,
    /// and no CSR graph or reverse-chain index is rebuilt — restart cost
    /// is `O(headers + offset spines)`, independent of edge count.
    ///
    /// Queries run on the [`KernelEngine`] over the mapped store and are
    /// bit-identical to a resident walker built from the same graph,
    /// diagonal and config,
    /// except the deterministic-push ablation
    /// ([`CloudWalker::try_single_source_push`]), which needs the resident
    /// CSR and reports [`QueryError::Unsupported`].
    pub fn open_store(dir: impl AsRef<Path>, cfg: SimRankConfig) -> Result<Self, SimRankError> {
        cfg.validate()?;
        let store = Arc::new(MappedStore::open(dir)?);
        let diag = store_diag(&store)?;
        let engine: Box<dyn SimRankEngine> = Box::new(KernelEngine::new(Arc::clone(&store)));
        Ok(Self { backing: GraphBacking::Mapped(store), cfg, diag, engine })
    }

    /// [`CloudWalker::open_store`] served by real `pasco worker`
    /// processes: each worker maps its own shard of `dir` (the directory
    /// must be reachable at the same path on every worker host — a shared
    /// or replicated filesystem), so provisioning ships one path string
    /// per worker instead of `O(E)` partition bytes, and the diagonal
    /// never crosses the wire at all.
    ///
    /// Needs at least [`MappedStore::parts`] worker addresses — shards
    /// are files, so the store's partition count is fixed at save time.
    pub fn open_store_distributed(
        dir: impl AsRef<Path>,
        cfg: SimRankConfig,
        workers: &[String],
    ) -> Result<Self, SimRankError> {
        cfg.validate()?;
        let store = Arc::new(MappedStore::open(dir)?);
        let diag = store_diag(&store)?;
        let engine: Box<dyn SimRankEngine> =
            Box::new(DistributedEngine::connect_store(&store, workers)?);
        Ok(Self { backing: GraphBacking::Mapped(store), cfg, diag, engine })
    }

    /// Persists this walker's graph and diagonal as a [`pasco_store`]
    /// shard directory with at most `parts` range-partitioned shards
    /// ([`Partitioner::range_nonempty`]: never an empty shard file, so 8
    /// parts of a 5-node graph write 5) — the out-of-core dual of
    /// [`crate::persist::save_index`]. Reopen with
    /// [`CloudWalker::open_store`] (or serve it fleet-wide with
    /// [`CloudWalker::open_store_distributed`]).
    ///
    /// Only a resident walker can save a store; a mapped walker *is* the
    /// store directory already, so asking it to save reports
    /// [`SimRankError::InvalidConfig`] pointing at the existing directory.
    pub fn save_store(&self, dir: impl AsRef<Path>, parts: u32) -> Result<(), SimRankError> {
        if parts == 0 {
            return Err(SimRankError::InvalidConfig("store needs at least one shard".into()));
        }
        match &self.backing {
            GraphBacking::Resident(resident) => {
                pasco_store::write_store(dir, &resident.graph, self.diag.as_slice(), parts)?;
                Ok(())
            }
            GraphBacking::Mapped(store) => Err(SimRankError::InvalidConfig(format!(
                "walker is already backed by the store at {}; copy that directory instead",
                store.dir().display()
            ))),
        }
    }

    /// Wraps a previously computed (e.g. [`crate::persist::load_index`]ed)
    /// diagonal for local-mode querying.
    pub fn from_index(
        graph: Arc<CsrGraph>,
        cfg: SimRankConfig,
        diag: DiagonalIndex,
    ) -> Result<Self, SimRankError> {
        Self::from_index_with_mode(graph, cfg, diag, ExecMode::Local)
    }

    /// [`CloudWalker::from_index`] on an explicit execution substrate: the
    /// offline build is skipped, but queries run (and are accounted) on
    /// the chosen engine — e.g. a persisted index served shard-parallel
    /// with `ExecMode::Sharded`.
    pub fn from_index_with_mode(
        graph: Arc<CsrGraph>,
        cfg: SimRankConfig,
        diag: DiagonalIndex,
        mode: ExecMode,
    ) -> Result<Self, SimRankError> {
        cfg.validate()?;
        if diag.len() != graph.node_count() as usize {
            return Err(SimRankError::BadIndex(format!(
                "index covers {} nodes but the graph has {}",
                diag.len(),
                graph.node_count()
            )));
        }
        let resident = Arc::new(Resident::new(graph));
        let engine = make_engine(mode, &resident)?;
        Ok(Self { backing: GraphBacking::Resident(resident), cfg, diag, engine })
    }

    /// MCSP — similarity of one node pair, `O(T·R′)`. Estimates are
    /// clamped into SimRank's `[0, 1]` range (Monte-Carlo noise can push a
    /// raw estimate slightly outside). Fails with
    /// [`QueryError::NodeOutOfRange`] on a bad node — every query method
    /// is checked, and the serving stack ([`crate::api::QueryService`],
    /// [`crate::QuerySession`]) routes through the same ones.
    pub fn try_single_pair(&self, i: NodeId, j: NodeId) -> Result<f64, QueryError> {
        self.check_node(i)?;
        self.check_node(j)?;
        Ok(self.engine.single_pair(self.diag.as_slice(), &self.cfg, i, j)?.clamp(0.0, 1.0))
    }

    /// MCSS — similarity of every node to `i`, `O(T²·R′·log d)`. Estimates
    /// are clamped into SimRank's `[0, 1]` range; fails with
    /// [`QueryError::NodeOutOfRange`] on a bad node.
    pub fn try_single_source(&self, i: NodeId) -> Result<Vec<f64>, QueryError> {
        self.check_node(i)?;
        let mut out = self.engine.single_source(self.diag.as_slice(), &self.cfg, i)?;
        for v in &mut out {
            *v = v.clamp(0.0, 1.0);
        }
        Ok(out)
    }

    /// Sparse top-`k` MCSS: returns only the `k` most similar nodes
    /// (query node excluded) — the right call for big graphs when only a
    /// ranking is needed. Runs on the configured engine, so cluster modes
    /// account the work in their [`ClusterReport`]. Fails with
    /// [`QueryError::NodeOutOfRange`] on a bad node and
    /// [`QueryError::InvalidK`] on `k = 0`.
    pub fn try_single_source_topk(
        &self,
        i: NodeId,
        k: usize,
    ) -> Result<Vec<(NodeId, f64)>, QueryError> {
        self.check_node(i)?;
        if k == 0 {
            return Err(QueryError::InvalidK { k: k as u64 });
        }
        self.engine.single_source_topk(self.diag.as_slice(), &self.cfg, i, k)
    }

    /// Simulates the `R'`-walker query cohort of `v` on the configured
    /// engine (the building block [`crate::QuerySession`] caches; cluster
    /// modes account the work in their [`ClusterReport`]). Fails with
    /// [`QueryError::NodeOutOfRange`] on a bad node.
    pub fn try_query_cohort(
        &self,
        v: NodeId,
    ) -> Result<pasco_mc::walks::StepDistributions, QueryError> {
        self.check_node(v)?;
        self.engine.query_cohort(&self.cfg, v)
    }

    /// The deterministic-push variant of MCSS (ablation A1); local
    /// execution regardless of mode. Fails with
    /// [`QueryError::NodeOutOfRange`] on a bad node and with
    /// [`QueryError::Unsupported`] on a store-backed walker — forward
    /// push traverses the whole residual frontier through the resident
    /// CSR graph, which a mapped store deliberately does not build.
    pub fn try_single_source_push(&self, i: NodeId) -> Result<Vec<f64>, QueryError> {
        self.check_node(i)?;
        let GraphBacking::Resident(resident) = &self.backing else {
            return Err(QueryError::Unsupported {
                detail: "single-source push needs the resident CSR graph; a mapped store \
                         serves only the Monte-Carlo query paths"
                    .into(),
            });
        };
        let mut out =
            queries::single_source_push(&resident.graph, self.diag.as_slice(), &self.cfg, i);
        for v in &mut out {
            *v = v.clamp(0.0, 1.0);
        }
        Ok(out)
    }

    /// MCAP — top-`k` similar nodes for every node (`O(n·T²·R′·log d)`;
    /// run it on graphs small enough to afford `n` single-source queries).
    /// Runs MCSS repeatedly (as in the paper) on the configured engine, in
    /// parallel over sources.
    ///
    /// Fails with the first typed error an engine query returns (only
    /// possible on the distributed substrate when a worker disappears)
    /// and with [`QueryError::InvalidK`] on `k = 0`.
    pub fn all_pairs_topk(&self, k: usize) -> Result<Vec<Vec<(NodeId, f64)>>, QueryError> {
        (0..self.node_count()).into_par_iter().map(|i| self.try_single_source_topk(i, k)).collect()
    }

    /// The offline index.
    pub fn diagonal(&self) -> &DiagonalIndex {
        &self.diag
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimRankConfig {
        &self.cfg
    }

    /// Number of nodes in the indexed graph — available on every backing
    /// (a store-backed walker has no resident graph to ask).
    pub fn node_count(&self) -> u32 {
        self.backing.node_count()
    }

    /// The indexed graph, when resident in memory; `None` on a
    /// store-backed walker ([`CloudWalker::open_store`]), which keeps no
    /// CSR graph at all. Use [`CloudWalker::node_count`] for the node
    /// count — it never depends on the backing.
    pub fn graph(&self) -> Option<&Arc<CsrGraph>> {
        match &self.backing {
            GraphBacking::Resident(resident) => Some(&resident.graph),
            GraphBacking::Mapped(_) => None,
        }
    }

    /// The reverse-chain sampling index shared with the engine; `None`
    /// on a store-backed walker (mapped shards sample from the on-disk
    /// cumulative-outflow arrays instead).
    pub fn reverse_chain_index(&self) -> Option<&Arc<ReverseChainIndex>> {
        match &self.backing {
            GraphBacking::Resident(resident) => Some(&resident.rci),
            GraphBacking::Mapped(_) => None,
        }
    }

    /// The mapped shard store backing this walker, if it was opened with
    /// [`CloudWalker::open_store`] or
    /// [`CloudWalker::open_store_distributed`]; `None` on resident
    /// backings.
    pub fn store(&self) -> Option<&Arc<MappedStore>> {
        match &self.backing {
            GraphBacking::Resident(_) => None,
            GraphBacking::Mapped(store) => Some(store),
        }
    }

    /// The engine's substrate name (`"local"`, `"sharded"`, `"broadcast"`,
    /// `"rdd"`, `"distributed"`, `"mapped"`).
    pub fn mode_name(&self) -> &'static str {
        self.engine.name()
    }

    /// Live per-worker statistics, polled over the wire
    /// (`ExecMode::Distributed` only; `None` elsewhere). One entry per
    /// worker in partition order; an unreachable worker is its typed
    /// error, so fleet-health reports never shrink silently.
    pub fn worker_stats(&self) -> Option<Vec<Result<crate::api::worker::WorkerStats, QueryError>>> {
        self.engine.worker_stats()
    }

    /// Per-shard bytes for partitioned substrates (`ExecMode::Sharded`
    /// shards, mapped shard files, distributed workers' owned
    /// partitions); `None` on unsharded substrates.
    pub fn shard_footprints(&self) -> Option<Vec<u64>> {
        self.engine.shard_footprints()
    }

    /// Cluster accounting so far (None in local mode).
    pub fn cluster_report(&self) -> Option<ClusterReport> {
        self.engine.cluster_report()
    }

    /// The engine's per-worker query-time memory demand.
    pub fn memory_footprint(&self) -> crate::engine::EngineFootprint {
        self.engine.memory_footprint()
    }

    /// The largest partition's bytes — the per-worker memory requirement
    /// of every substrate that splits the graph (RDD, sharded, mapped);
    /// `None` where the whole graph is resident per worker (local,
    /// broadcast, distributed).
    pub fn max_partition_bytes(&self) -> Option<u64> {
        let fp = self.engine.memory_footprint();
        fp.partitioned.then_some(fp.per_worker_bytes)
    }

    #[inline]
    fn check_node(&self, v: NodeId) -> Result<(), QueryError> {
        crate::api::check_node(v, self.node_count())
    }
}

/// Composes and sanity-checks the persisted diagonal of a mapped store:
/// a store with no nodes cannot be queried, a graph-only store (shards
/// written before any index existed) has nothing to score with, and a
/// non-finite entry means
/// the file was not written by a finished CloudWalker build (the solver
/// only ever produces finite diagonals), so the open is refused with a
/// typed error rather than letting NaN poison every later estimate.
fn store_diag(store: &MappedStore) -> Result<DiagonalIndex, SimRankError> {
    if store.node_count() == 0 {
        return Err(SimRankError::BadIndex("store covers a graph with no nodes".into()));
    }
    let diag = store.compose_diag();
    if diag.len() != store.node_count() as usize {
        return Err(SimRankError::BadIndex("store holds no diagonal index".into()));
    }
    if let Some(v) = diag.iter().find(|v| !v.is_finite()) {
        return Err(SimRankError::BadIndex(format!(
            "store diagonal holds a non-finite entry ({v})"
        )));
    }
    Ok(DiagonalIndex::new(diag))
}

/// The one place execution modes are matched: engine construction, shared
/// by [`CloudWalker::build_with_stats`] and
/// [`CloudWalker::from_index_with_mode`].
fn make_engine(
    mode: ExecMode,
    resident: &Arc<Resident>,
) -> Result<Box<dyn SimRankEngine>, SimRankError> {
    let graph: &Arc<CsrGraph> = &resident.graph;
    Ok(match mode {
        ExecMode::Local => Box::new(KernelEngine::new(Arc::clone(resident))),
        ExecMode::Broadcast(cluster_cfg) => Box::new(BroadcastEngine::new(
            cluster_cfg,
            Arc::clone(graph),
            Arc::clone(&resident.rci),
        )?),
        ExecMode::Rdd(cluster_cfg) => Box::new(RddEngine::new(cluster_cfg, graph)),
        ExecMode::Sharded { shards } => {
            if shards == 0 {
                return Err(SimRankError::InvalidConfig(
                    "sharded mode needs at least one shard".into(),
                ));
            }
            let partitioner = Partitioner::range_nonempty(graph.node_count(), shards);
            Box::new(KernelEngine::new(Arc::new(PartitionedView::of_graph(graph, partitioner))))
        }
        ExecMode::Distributed { workers } => {
            if workers.is_empty() {
                return Err(SimRankError::InvalidConfig(
                    "distributed mode needs at least one worker address".into(),
                ));
            }
            Box::new(DistributedEngine::connect(graph, &workers)?)
        }
    })
}

impl std::fmt::Debug for CloudWalker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let edges = match &self.backing {
            GraphBacking::Resident(resident) => resident.graph.edge_count(),
            GraphBacking::Mapped(store) => store.edge_count(),
        };
        f.debug_struct("CloudWalker")
            .field("nodes", &self.node_count())
            .field("edges", &edges)
            .field("cfg", &self.cfg)
            .field("mode", &self.engine.name())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasco_cluster::ClusterConfig;
    use pasco_graph::generators;

    #[test]
    fn build_and_query_local() {
        let g = Arc::new(generators::barabasi_albert(150, 3, 3));
        let (cw, stats) =
            CloudWalker::build_with_stats(g, SimRankConfig::fast(), ExecMode::Local).unwrap();
        assert_eq!(cw.try_single_pair(5, 5).unwrap(), 1.0);
        let s = cw.try_single_pair(5, 60).unwrap();
        assert!((0.0..=1.0).contains(&s));
        let row = cw.try_single_source(5).unwrap();
        assert_eq!(row.len(), 150);
        assert_eq!(row[5], 1.0);
        assert_eq!(stats.jacobi_residuals.len(), cw.config().l);
        assert!(stats.cluster.is_none());
        assert_eq!(cw.mode_name(), "local");
    }

    #[test]
    fn rejects_invalid_config_and_empty_graph() {
        let g = Arc::new(generators::cycle(5));
        let bad = SimRankConfig::fast().with_c(2.0);
        assert!(CloudWalker::build(Arc::clone(&g), bad, ExecMode::Local).is_err());
        let empty = Arc::new(pasco_graph::GraphBuilder::new().build());
        assert!(CloudWalker::build(empty, SimRankConfig::fast(), ExecMode::Local).is_err());
    }

    #[test]
    fn from_index_validates_length() {
        let g = Arc::new(generators::cycle(5));
        let err = CloudWalker::from_index(
            Arc::clone(&g),
            SimRankConfig::fast(),
            DiagonalIndex::new(vec![0.4; 3]),
        )
        .unwrap_err();
        assert!(matches!(err, SimRankError::BadIndex(_)));
        let ok =
            CloudWalker::from_index(g, SimRankConfig::fast(), DiagonalIndex::new(vec![0.4; 5]));
        assert!(ok.is_ok());
    }

    #[test]
    fn checked_queries_surface_typed_errors() {
        let g = Arc::new(generators::cycle(4));
        let cw = CloudWalker::build(g, SimRankConfig::fast(), ExecMode::Local).unwrap();
        let oob = QueryError::NodeOutOfRange { node: 4, node_count: 4 };
        assert_eq!(cw.try_single_pair(0, 4).unwrap_err(), oob);
        assert_eq!(cw.try_single_source(4).unwrap_err(), oob);
        assert_eq!(cw.try_single_source_topk(4, 3).unwrap_err(), oob);
        assert_eq!(cw.try_single_source_push(4).unwrap_err(), oob);
        assert_eq!(cw.try_query_cohort(4).unwrap_err(), oob);
        assert_eq!(cw.try_single_source_topk(1, 0).unwrap_err(), QueryError::InvalidK { k: 0 });
    }

    #[test]
    fn store_roundtrip_preserves_every_query() {
        let dir = std::env::temp_dir().join("pasco_cw_store_roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let g = Arc::new(generators::barabasi_albert(140, 3, 11));
        let cfg = SimRankConfig::fast().with_seed(7);
        let resident = CloudWalker::build(g, cfg, ExecMode::Local).unwrap();
        resident.save_store(&dir, 3).unwrap();

        let mapped = CloudWalker::open_store(&dir, cfg).unwrap();
        assert_eq!(mapped.mode_name(), "mapped");
        assert_eq!(mapped.node_count(), 140);
        assert!(mapped.graph().is_none());
        assert!(mapped.reverse_chain_index().is_none());
        assert_eq!(mapped.store().unwrap().parts(), 3);
        assert_eq!(mapped.diagonal(), resident.diagonal());
        assert_eq!(
            mapped.try_single_pair(3, 99).unwrap(),
            resident.try_single_pair(3, 99).unwrap()
        );
        assert_eq!(mapped.try_single_source(5).unwrap(), resident.try_single_source(5).unwrap());
        assert_eq!(
            mapped.try_single_source_topk(5, 10).unwrap(),
            resident.try_single_source_topk(5, 10).unwrap()
        );

        // The push ablation needs the resident CSR: typed error, no panic.
        assert!(matches!(mapped.try_single_source_push(5), Err(QueryError::Unsupported { .. })));
        // A mapped walker cannot re-save: it IS the store directory.
        assert!(matches!(
            mapped.save_store(dir.join("copy"), 2),
            Err(SimRankError::InvalidConfig(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_store_never_writes_an_empty_shard() {
        // Regression: `save_store(dir, 8)` on 5 nodes wrote 8 shard files,
        // 3 of them empty, and a distributed open then demanded 8 workers,
        // 3 owning nothing. Now: 5 one-node shards.
        let dir = std::env::temp_dir().join("pasco_cw_store_nonempty");
        let _ = std::fs::remove_dir_all(&dir);
        let g = Arc::new(generators::cycle(5));
        let cfg = SimRankConfig::fast();
        let resident = CloudWalker::build(g, cfg, ExecMode::Local).unwrap();
        resident.save_store(&dir, 8).unwrap();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 5);

        let mapped = CloudWalker::open_store(&dir, cfg).unwrap();
        let store = mapped.store().unwrap();
        assert_eq!(MappedStore::parts(store), 5);
        assert!(store.shards().iter().all(|s| !s.is_empty()), "every shard owns a node");
        assert_eq!(mapped.diagonal(), resident.diagonal());
        for i in 0..5 {
            assert_eq!(
                mapped.try_single_pair(i, (i + 2) % 5).unwrap(),
                resident.try_single_pair(i, (i + 2) % 5).unwrap()
            );
            assert_eq!(
                mapped.try_single_source(i).unwrap(),
                resident.try_single_source(i).unwrap()
            );
            assert_eq!(
                mapped.try_single_source_topk(i, 3).unwrap(),
                resident.try_single_source_topk(i, 3).unwrap()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_store_rejects_zero_parts_and_open_rejects_missing_dir() {
        let g = Arc::new(generators::cycle(6));
        let cw = CloudWalker::build(g, SimRankConfig::fast(), ExecMode::Local).unwrap();
        assert!(matches!(
            cw.save_store(std::env::temp_dir().join("pasco_cw_zero"), 0),
            Err(SimRankError::InvalidConfig(_))
        ));
        let missing = std::env::temp_dir().join("pasco_cw_store_missing");
        let _ = std::fs::remove_dir_all(&missing);
        assert!(CloudWalker::open_store(&missing, SimRankConfig::fast()).is_err());
    }

    #[test]
    fn open_refuses_a_graph_only_store_typed() {
        // Shards written before any index existed are a valid store, but
        // there is nothing to score with: a typed refusal, not a panic on
        // the first `diag[k]`.
        let g = generators::cycle(6);
        let dir = std::env::temp_dir().join("pasco_cw_graph_only");
        let _ = std::fs::remove_dir_all(&dir);
        let mut writer: pasco_store::StoreWriter =
            pasco_store::StoreWriter::create(&dir, 6, 1).unwrap();
        let part =
            pasco_graph::partitioned::partition_graph(&g, &Partitioner::range(6, 1)).swap_remove(0);
        writer.write_partition(0, &part, &[]).unwrap();
        writer.finish().unwrap();
        assert_eq!(MappedStore::open(&dir).unwrap().compose_diag(), Vec::<f64>::new());
        match CloudWalker::open_store(&dir, SimRankConfig::fast()) {
            Err(SimRankError::BadIndex(msg)) => assert_eq!(msg, "store holds no diagonal index"),
            other => panic!("expected BadIndex, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn cloudwalker_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CloudWalker>();
    }

    #[test]
    fn three_modes_agree_end_to_end() {
        let g = Arc::new(generators::barabasi_albert(120, 3, 9));
        let cfg = SimRankConfig::fast().with_seed(5);
        let local = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Local).unwrap();
        let bcast =
            CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Broadcast(ClusterConfig::local(3)))
                .unwrap();
        let rdd = CloudWalker::build(Arc::clone(&g), cfg, ExecMode::Rdd(ClusterConfig::local(3)))
            .unwrap();
        assert_eq!(local.diagonal(), bcast.diagonal());
        assert_eq!(local.diagonal(), rdd.diagonal());
        assert_eq!(local.try_single_pair(3, 99).unwrap(), bcast.try_single_pair(3, 99).unwrap());
        assert_eq!(local.try_single_pair(3, 99).unwrap(), rdd.try_single_pair(3, 99).unwrap());
        assert!(bcast.cluster_report().is_some());
        assert!(rdd.max_partition_bytes().unwrap() < g.memory_bytes());
        assert!(local.max_partition_bytes().is_none());
    }
}
