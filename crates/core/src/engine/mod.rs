//! Execution engines: where CloudWalker's walks and sweeps actually run.
//!
//! One algorithm, two orthogonal choices, plus the paper's two cost models:
//!
//! * **Storage** — where the adjacency lives. [`kernel::KernelEngine`] is
//!   the single in-process engine, generic over a [`kernel::Storage`]:
//!   the **resident** CSR graph ([`ExecMode::Local`]), or a `PASCOSH1`
//!   shard set, range shards routed by owner — a **mapped** store
//!   directory ([`crate::CloudWalker::open_store`]: no resident adjacency
//!   at all, O(1) restart, graphs larger than RAM) or the same images held
//!   in memory.
//! * **Placement** — where the kernels execute. In-process on the caller's
//!   rayon pool (the storages above), or on real `pasco worker`
//!   processes over TCP ([`distributed`]): the build and every query
//!   routed to the worker owning its source through the envelope
//!   protocol, each worker running the same kernel functions over the
//!   same shard set, with real wire bytes in the cluster accounting.
//! * **Simulated cost models** — [`broadcast`] (graph **replicated** to
//!   every simulated worker: the paper's faster model, bounded by
//!   per-worker RAM) and [`rdd`] (graph **partitioned**, walker state
//!   shuffled between steps: the paper's scalable model) call the same
//!   kernels inside `pasco_cluster` stages; only the dataflow is theirs —
//!   what is replicated, what a task covers, what is shuffled.
//!
//! Each implements the object-safe [`SimRankEngine`] trait, so
//! [`crate::CloudWalker`] holds a `Box<dyn SimRankEngine>` and never
//! branches on the execution mode in a query path. An engine supplies
//! `build_diagonal`, `query_cohort` and `single_source`; MCSP and top-`k`
//! are provided on the trait over those (see the methods for the two
//! engines that override them, and why).
//!
//! Every arithmetic step has one home, whichever engine runs it: the
//! cohort kernel ([`pasco_mc::walks::reverse_walk_block_on`]), the row
//! `aᵢ` ([`crate::ai::RowKernel::push_row`]), the Jacobi row update
//! and residual ([`pasco_solver::jacobi::row_pass`], swept in process by
//! [`kernel::solve_rows`] and in stages by `staged_solve`), `score_pair`
//! and the MCSS series (`queries::mcss_series` for the walks,
//! `queries::pull_sweep` for the exact sweeps). Because each walk
//! step's randomness is a pure function of `(seed, source, walker, step)`,
//! every engine therefore produces identical walker trajectories and the
//! same index bit for bit — structurally, with `tests/execution_modes.rs`
//! (storages, cost models at several cluster shapes) and
//! `tests/distributed.rs` (the RPC placement) as the oracle.

pub mod broadcast;
pub mod distributed;
pub mod kernel;
pub mod rdd;

pub use distributed::{DistributedEngine, ShardWorkerCore};
pub use kernel::{KernelEngine, LocalEngine, MappedEngine, Resident, Storage};

use crate::api::QueryError;
use crate::config::SimRankConfig;
use crate::diag::DiagonalIndex;
use crate::error::SimRankError;
use crate::queries::{pair_from_cohorts, rank_topk};
use pasco_cluster::{Cluster, ClusterConfig, ClusterReport};
use pasco_graph::NodeId;
use pasco_mc::walks::{CohortBlock, StepDistributions};
use pasco_solver::jacobi::{self, RowSource};

/// Selects the execution engine for index construction and queries.
///
/// `Clone` but deliberately not `Copy`: the distributed variant carries
/// its worker address list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// In-process rayon execution.
    Local,
    /// Simulated cluster, Broadcasting model: the graph (plus the query
    /// sampling index) is replicated; fails with
    /// [`pasco_cluster::ClusterError::BroadcastExceedsMemory`] when it does
    /// not fit the per-worker budget.
    Broadcast(ClusterConfig),
    /// Simulated cluster, RDD model: the graph is range-partitioned and
    /// walker state is shuffled to the owner of its next node every step.
    Rdd(ClusterConfig),
    /// Real RPC workers over TCP: the graph range-partitioned across the
    /// listed `pasco worker` processes, the offline walk phase and every
    /// query routed to the worker owning its source over the envelope
    /// protocol. Bit-identical to [`ExecMode::Local`] at every worker count.
    Distributed {
        /// Worker addresses (`host:port`), one partition per worker
        /// (capped at the node count; must be non-empty).
        workers: Vec<String>,
    },
}

/// Everything the offline phase produces, in one shape shared by every
/// engine (the engines used to return three ad-hoc tuples).
#[derive(Clone, Debug)]
pub struct BuildOutcome {
    /// The solved diagonal `x = [D₁₁ … D_nn]`.
    pub diag: DiagonalIndex,
    /// `‖Ax − 1‖∞` after each Jacobi sweep.
    pub residuals: Vec<f64>,
    /// Coded bytes of the rows, materialised once per build.
    pub rows_bytes: u64,
    /// Cluster accounting for the build (`None` on the local engine).
    pub cluster: Option<ClusterReport>,
}

/// Per-worker memory demanded by an engine at query time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineFootprint {
    /// Resident bytes one worker needs to serve queries (the whole graph
    /// for local/broadcast execution, the largest partition for RDD).
    pub per_worker_bytes: u64,
    /// True when the engine splits the graph across workers, i.e.
    /// `per_worker_bytes` shrinks as workers are added.
    pub partitioned: bool,
}

/// One execution substrate for CloudWalker's offline build and online
/// queries: the in-process [`KernelEngine`] over its three storages, the
/// RPC [`DistributedEngine`], and the two simulated cost models.
///
/// The trait is object-safe: [`crate::CloudWalker`] dispatches every query
/// through `Box<dyn SimRankEngine>`. Implementations must be deterministic
/// — for a fixed [`SimRankConfig`] every engine answers bitwise-identically
/// on the index and single-pair paths and within float-accumulation order
/// on single-source paths (the walks themselves are identical; only the
/// summation order differs).
pub trait SimRankEngine: Send + Sync + std::fmt::Debug {
    /// A short, stable substrate name (`"local"`, `"broadcast"`, `"rdd"`,
    /// `"distributed"`, `"mapped"`).
    fn name(&self) -> &'static str;

    /// Runs the offline phase: estimate the rows `aᵢ` by Monte-Carlo
    /// walks, then solve `A x = 1` with `L` Jacobi sweeps.
    fn build_diagonal(&self, cfg: &SimRankConfig) -> Result<BuildOutcome, SimRankError>;

    /// Simulates the `R'`-walker query cohort of `source` on this
    /// substrate as the flat [`CohortBlock`] the serving layer's cache keeps
    /// (bitwise identical across engines; cluster engines account the work
    /// in their [`ClusterReport`]). [`KernelEngine`] returns the walk
    /// kernel's block; the others flatten what they merge or receive.
    ///
    /// Queries are fallible at the trait so substrates with a failure
    /// plane of their own — the distributed engine loses a worker —
    /// surface a typed [`QueryError`] instead of panicking the serving
    /// path. The in-process engine (bounds already checked by the caller)
    /// never returns `Err`.
    fn query_cohort(&self, cfg: &SimRankConfig, source: NodeId) -> Result<CohortBlock, QueryError>;

    /// MCSP: the similarity of one node pair (raw estimate, not clamped).
    ///
    /// Provided — MCSP is one arithmetic step over whatever cohort dataflow
    /// the engine has: `s(i, i) = 1` by definition, otherwise two
    /// [`SimRankEngine::query_cohort`]s scored by
    /// [`crate::queries::score_pair`] (the same `pair_from_cohorts` as
    /// [`crate::queries::single_pair_on`]). Only
    /// [`DistributedEngine`] overrides it: it routes the whole query to
    /// the worker owning `i`, so an 8-byte score crosses the wire instead
    /// of two cohorts.
    fn single_pair(
        &self,
        diag: &[f64],
        cfg: &SimRankConfig,
        i: NodeId,
        j: NodeId,
    ) -> Result<f64, QueryError> {
        pair_from_cohorts(diag, cfg.c, (i, j), |v| Self::query_cohort(self, cfg, v))
    }

    /// MCSS: the similarity of every node to `i` (raw estimates).
    fn single_source(
        &self,
        diag: &[f64],
        cfg: &SimRankConfig,
        i: NodeId,
    ) -> Result<Vec<f64>, QueryError>;

    /// Top-`k` MCSS: the `k` nodes most similar to `i` (query node
    /// excluded), sorted by descending score with node-id tie-breaks.
    /// Scores are clamped into `[0, 1]`.
    ///
    /// Provided as the dense plan — rank [`SimRankEngine::single_source`]
    /// through `rank_topk`, the same tail as
    /// every sparse path, so shapes and tie-breaks match across engines;
    /// the simulated engines use it, running (and accounting) their own
    /// single-source dataflow. [`KernelEngine`] overrides it to rank
    /// straight from the forward stage (no length-`n` answer built), and
    /// [`DistributedEngine`] routes that same ranking to the worker owning
    /// `i` (at most `k` entries on the wire).
    fn single_source_topk(
        &self,
        diag: &[f64],
        cfg: &SimRankConfig,
        i: NodeId,
        k: usize,
    ) -> Result<Vec<(NodeId, f64)>, QueryError> {
        let scores = Self::single_source(self, diag, cfg, i)?;
        Ok(rank_topk(scores.iter().enumerate().map(|(v, &s)| (v as NodeId, s)), i, k))
    }

    /// Cluster accounting so far (`None` on the local engine).
    fn cluster_report(&self) -> Option<ClusterReport>;

    /// Query-time memory demand per worker.
    fn memory_footprint(&self) -> EngineFootprint;

    /// Per-shard bytes, in shard order, for substrates that partition the
    /// graph (shard images, worker-owned partitions); `None` for unsharded
    /// substrates (the default).
    fn shard_footprints(&self) -> Option<Vec<u64>> {
        None
    }

    /// Live per-worker statistics for substrates backed by real worker
    /// processes; `None` elsewhere (the default). The distributed engine
    /// polls its workers over the wire: one entry per worker, in
    /// partition order, with an unreachable worker reported as its typed
    /// error rather than silently missing — a fleet-health report must
    /// not shrink when a worker dies.
    fn worker_stats(&self) -> Option<Vec<Result<crate::api::worker::WorkerStats, QueryError>>> {
        None
    }
}

/// `dists` as the block [`SimRankEngine::query_cohort`] answers with: a
/// cohort whose entries or counts pass `u32` is [`QueryError::Unsupported`].
pub(crate) fn cohort_block(dists: &StepDistributions) -> Result<CohortBlock, QueryError> {
    CohortBlock::try_from(dists).map_err(|e| QueryError::Unsupported {
        detail: format!("cohort of node {} does not fit a u32 block: {e}", dists.source),
    })
}

/// The solve phase as the simulated cluster models run it: `L` pairs of
/// `index/jacobi` and `index/residual` stages, one task per node range,
/// the iterate `x` held by the driver and conceptually re-broadcast each
/// sweep (8n bytes — always far under the budget). The arithmetic is the
/// solver's own [`jacobi::row_pass`] (its update in one stage, its residual
/// in the other) on the
/// same [`kernel::unit_system`] as [`kernel::solve_rows`], so the diagonal and
/// the residuals are bitwise the in-process engine's; only the staging
/// (and its accounting in `cluster`) belongs to the models. Returns the
/// diagonal and `‖Ax − 1‖∞` after each sweep.
pub(crate) fn staged_solve<R: RowSource>(
    cluster: &Cluster,
    ranges: &[(u32, u32)],
    rows: &R,
    cfg: &SimRankConfig,
) -> (DiagonalIndex, Vec<f64>) {
    let (b, mut x) = kernel::unit_system(rows, cfg);
    let mut residuals = Vec::with_capacity(cfg.l);
    for _ in 0..cfg.l {
        let next: Vec<Vec<f64>> =
            cluster.run_stage("index/jacobi", ranges.to_vec(), |_, (lo, hi)| {
                let mut scratch = R::Scratch::default();
                (lo..hi).map(|i| jacobi::row_pass(rows, &b, &x, i, &mut scratch).0).collect()
            });
        x = next.into_iter().flatten().collect();
        let worst: Vec<f64> =
            cluster.run_stage("index/residual", ranges.to_vec(), |_, (lo, hi)| {
                let mut scratch = R::Scratch::default();
                (lo..hi)
                    .map(|i| jacobi::row_pass(rows, &b, &x, i, &mut scratch).1)
                    .fold(0.0, f64::max)
            });
        residuals.push(worst.into_iter().fold(0.0, f64::max));
    }
    (DiagonalIndex::new(x), residuals)
}
