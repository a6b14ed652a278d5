//! Broadcasting-model execution: the graph replicated to every worker.
//!
//! The fast model of the paper's evaluation. Indexing partitions *nodes*
//! into ranges (one task each); queries partition the *walker cohort*.
//! Nothing is shuffled — the only communication is the initial broadcast,
//! which fails when `graph + sampling index` exceed the per-worker budget
//! (the paper's clue-web `N/A`).
//!
//! Only that dataflow is written here. What a task computes — a walker
//! range's step histograms, a row `aᵢ`, a Jacobi row update, a forward
//! item's walks — is the kernel the in-process engine runs, called inside
//! a `pasco_cluster` stage, so bit-identity to [`super::kernel`] is
//! structural. MCSP and top-`k` are the trait's provided methods over this
//! engine's cohort and single-source stages.

use crate::ai::{RecomputedRows, StoredRows};
use crate::api::QueryError;
use crate::config::{AiStrategy, SimRankConfig};
use crate::engine::{staged_solve, BuildOutcome, EngineFootprint, SimRankEngine};
use crate::error::SimRankError;
use crate::queries::{forward_term, mcss_series, query_seed, ForwardItem, SeriesTerm};
use pasco_cluster::{Broadcast, Cluster, ClusterConfig, ClusterReport};
use pasco_graph::partition::Partitioner;
use pasco_graph::{CsrGraph, GraphSampler, NodeId, ReverseChainIndex};
use pasco_mc::counts::{CountMap, MassMap};
use pasco_mc::walks::{reverse_walk_counts_on, StepDistributions, WalkScratch};
use pasco_solver::jacobi::{RowBlock, BLOCK_ROWS};
use std::ops::Range;
use std::sync::Arc;

/// Broadcasting-model engine: holds the cluster and the replicated graph.
pub struct BroadcastEngine {
    cluster: Cluster,
    graph: Broadcast<Arc<CsrGraph>>,
    rci: Broadcast<Arc<ReverseChainIndex>>,
}

impl BroadcastEngine {
    /// Replicates `graph` and its sampling index to every worker.
    ///
    /// # Errors
    /// [`SimRankError::Cluster`] when the combined footprint exceeds the
    /// per-worker memory budget.
    pub fn new(
        cluster_cfg: ClusterConfig,
        graph: Arc<CsrGraph>,
        rci: Arc<ReverseChainIndex>,
    ) -> Result<Self, SimRankError> {
        let cluster = Cluster::new(cluster_cfg);
        let bytes = graph.memory_bytes() + rci.memory_bytes();
        let graph = cluster.broadcast(graph, bytes)?;
        // Footprint fully accounted with the graph broadcast above.
        let rci = cluster.broadcast(rci, 0)?;
        Ok(Self { cluster, graph, rci })
    }

    /// The underlying cluster (metrics access).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn node_ranges(&self, n: u32) -> Vec<(u32, u32)> {
        let parts = (self.cluster.config().default_partitions() as u32).min(n.max(1));
        let p = Partitioner::range(n, parts);
        (0..parts).filter_map(|i| p.range_of(i)).collect()
    }
}

impl SimRankEngine for BroadcastEngine {
    fn name(&self) -> &'static str {
        "broadcast"
    }

    /// Offline indexing in the Broadcasting model: with stored rows, one
    /// `index/walks` task per node range, its ends rounded up to a group
    /// boundary (a group cut between two tasks would be coded twice), fills
    /// its row blocks, joined in node order; either way the sweeps are
    /// `staged_solve` over the unrounded ranges.
    fn build_diagonal(&self, cfg: &SimRankConfig) -> Result<BuildOutcome, SimRankError> {
        let graph: &CsrGraph = &self.graph;
        let n = graph.node_count();
        let strategy = cfg.resolve_ai_strategy(n);
        let ranges = self.node_ranges(n);
        let kernel = RecomputedRows::of(graph, cfg);
        let ((diag, residuals), rows_bytes) = match strategy {
            AiStrategy::Store | AiStrategy::Auto { .. } => {
                let group = |v: u32| v.checked_next_multiple_of(BLOCK_ROWS).map_or(n, |g| g.min(n));
                let groups = ranges.iter().map(|&(lo, hi)| (group(lo), group(hi))).collect();
                let blocks = self.cluster.run_stage("index/walks", groups, |_, (lo, hi)| {
                    let mut walk = WalkScratch::default();
                    RowBlock::fill(lo..hi, |i, cols, vals| {
                        kernel.push_row(i, &mut walk, cols, vals)
                    })
                });
                let rows = StoredRows::from_blocks(blocks.into_iter().flatten());
                (
                    staged_solve(&self.cluster, &ranges, &rows, cfg),
                    Some(StoredRows::memory_bytes(&rows)),
                )
            }
            AiStrategy::Recompute => (staged_solve(&self.cluster, &ranges, &kernel, cfg), None),
        };
        Ok(BuildOutcome {
            diag,
            strategy,
            residuals,
            rows_bytes,
            cluster: Some(self.cluster.report()),
        })
    }

    /// Splits the `R'` walkers across `query/cohort` tasks and sums the
    /// per-range histograms: walker `w`'s trajectory depends only on
    /// `(seed, source, w, step)`, so the counts are the local cohort's.
    fn query_cohort(
        &self,
        cfg: &SimRankConfig,
        source: NodeId,
    ) -> Result<StepDistributions, QueryError> {
        let seed = query_seed(cfg);
        let tasks = self.cluster.config().default_partitions() as u32;
        let chunk = cfg.r_query.div_ceil(tasks).max(1);
        let ranges: Vec<Range<u32>> = (0..tasks)
            .map(|k| k * chunk..((k + 1) * chunk).min(cfg.r_query))
            .filter(|walkers| !walkers.is_empty())
            .collect();
        let graph: &CsrGraph = &self.graph;
        let partials: Vec<Vec<Vec<(NodeId, u64)>>> =
            self.cluster.run_stage("query/cohort", ranges, |_, walkers| {
                reverse_walk_counts_on(graph, source, walkers, cfg.t, seed).collect()
            });
        let mut counts = Vec::with_capacity(cfg.t + 1);
        counts.push(vec![(source, cfg.r_query as u64)]);
        for t in 0..cfg.t {
            let mut merged = CountMap::with_capacity(cfg.r_query as usize);
            for &(node, c) in partials.iter().flat_map(|part| &part[t]) {
                merged.add(node, c);
            }
            counts.push(merged.into_sorted_vec());
        }
        Ok(StepDistributions { source, walkers: cfg.r_query, counts })
    }

    /// MCSS in the Broadcasting model: the cohort stage, the `t = 0` term
    /// on the driver, then one `query/forward` stage over the series'
    /// launch items, batched one chunk per task; a task runs the forward
    /// kernel once per term its chunk touches.
    fn single_source(
        &self,
        diag: &[f64],
        cfg: &SimRankConfig,
        i: NodeId,
    ) -> Result<Vec<f64>, QueryError> {
        let dists = Self::query_cohort(self, cfg, i)?;
        let mut out = vec![0.0f64; self.graph.node_count() as usize];
        let mut items: Vec<ForwardItem> = Vec::new();
        mcss_series(&dists, diag, cfg, |term| match term {
            SeriesTerm::Landed(node, mass) => out[node as usize] += mass,
            SeriesTerm::Launch(term) => items.extend_from_slice(term),
        });
        if !items.is_empty() {
            let chunk = items.len().div_ceil(self.cluster.config().default_partitions());
            let batches: Vec<&[ForwardItem]> = items.chunks(chunk).collect();
            let sampler = GraphSampler::new(&self.graph, &self.rci);
            let partials = self.cluster.run_stage("query/forward", batches, |_, batch| {
                let mut acc = MassMap::with_capacity(batch.len() * 4);
                let mut frontier = Vec::new();
                for term in batch.chunk_by(|a, b| a.t == b.t) {
                    forward_term(&sampler, term, &mut frontier, |node, mass| acc.add(node, mass));
                }
                acc.into_sorted_vec()
            });
            for (node, mass) in partials.into_iter().flatten() {
                out[node as usize] += mass;
            }
        }
        out[i as usize] = 1.0;
        Ok(out)
    }

    fn cluster_report(&self) -> Option<ClusterReport> {
        Some(self.cluster.report())
    }

    fn memory_footprint(&self) -> EngineFootprint {
        EngineFootprint {
            per_worker_bytes: self.graph.memory_bytes() + self.rci.memory_bytes(),
            partitioned: false,
        }
    }
}

impl std::fmt::Debug for BroadcastEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BroadcastEngine")
            .field("nodes", &self.graph.node_count())
            .field("cluster", &self.cluster.config())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasco_cluster::ClusterError;
    use pasco_graph::generators;

    // Bit-identity to the kernels, stage labels and the no-shuffle
    // invariant are table-tested in `tests/execution_modes.rs`.

    #[test]
    fn broadcast_fails_beyond_memory_budget() {
        let g = Arc::new(generators::barabasi_albert(500, 4, 3));
        let rci = Arc::new(ReverseChainIndex::build(&g));
        let tiny = ClusterConfig::local(2).with_memory_per_worker(100);
        let err = BroadcastEngine::new(tiny, Arc::clone(&g), rci).unwrap_err();
        match err {
            SimRankError::Cluster(ClusterError::BroadcastExceedsMemory { needed, budget }) => {
                assert!(needed > budget);
            }
            other => panic!("expected broadcast memory error, got {other}"),
        }
    }
}
