//! RDD-model execution: partitioned graph, walker state shuffled per step.
//!
//! The scalable model of the paper's evaluation. The graph is
//! range-partitioned into graph-only `PASCOSH1` images held in memory
//! ([`MappedStore::of_graph`]: the shard a worker holds, empty partitions
//! included); a walker standing on node `v` can only step on the partition
//! owning `v`, so after every step walker records are **shuffled** (really
//! serialised and re-decoded — see [`pasco_cluster::DistVec::shuffle`]) to
//! their next owner. That per-step
//! communication is what makes RDD mode slower than Broadcasting in the
//! paper's tables, while per-worker memory stays `O(|G|/partitions)`.
//!
//! Row construction exploits a locality invariant: after the shuffle, *all*
//! walkers currently standing on node `v` — regardless of source — live in
//! `owner(v)`'s partition, so global per-`(source, position)` counts are
//! computable locally, then shipped to `owner(source)` where rows
//! accumulate. Because every random choice is a pure function of
//! `(seed, source, walker, step)`, the produced index is **bitwise equal**
//! to the Local and Broadcasting engines' output.
//!
//! The shuffled stepping *is* this model, so it is written here; the
//! arithmetic around it is not. The accumulated rows are handed to
//! `staged_solve` as [`StoredRows`], the forward waves are launched from
//! the shared `mcss_series` enumeration with its walker keys, an exact
//! sweep (one combined out-edge shuffle) finishes each node as the pull
//! sweep does (`queries::pulled`), and MCSP and
//! top-`k` are the trait's provided methods over this engine's cohort and
//! single-source dataflow.

use crate::ai::StoredRows;
use crate::api::QueryError;
use crate::config::SimRankConfig;
use crate::engine::{cohort_block, staged_solve, BuildOutcome, EngineFootprint, SimRankEngine};
use crate::error::SimRankError;
use crate::queries::{mcss_series, pulled, query_seed, sweeps_on, weighted_support, SeriesTerm};
use pasco_cluster::{Cluster, ClusterConfig, ClusterReport, DistVec};
use pasco_graph::partition::Partitioner;
use pasco_graph::{CsrGraph, NodeId};
use pasco_mc::counts::{CountMap, MassMap};
use pasco_mc::forward::forward_step;
use pasco_mc::walks::{reverse_step, walker_keys, CohortBlock, StepDistributions};
use pasco_store::{MappedShard, MappedStore};
use std::sync::Arc;

/// Reverse-walk walker record: `(rng key, source, position)`.
type IndexWalker = (u64, u32, u32);
/// Query-cohort walker record: `(rng key, position)`.
type QueryWalker = (u64, u32);
/// Row contribution: `(source, position, walker count)` at the current step.
type Contribution = (u32, u32, u64);
/// Forward (mass-carrying) walker: `(rng key, position, remaining steps, mass)`.
type ForwardWalker = (u64, u32, u32, f64);
/// A counting stage's output: the threaded-through walkers plus the
/// partition's contribution records.
type CountedPartition<W, C> = (Vec<W>, Vec<C>);

/// How many sources are walked concurrently during indexing; bounds live
/// walker state to `batch × R` records.
const SOURCE_BATCH: u32 = 1 << 16;

/// RDD-model engine: cluster plus the partitioned graph.
pub struct RddEngine {
    cluster: Cluster,
    parts: Arc<MappedStore>,
}

impl RddEngine {
    /// Partitions `graph` across the cluster's default partition count.
    ///
    /// # Errors
    /// [`SimRankError::Io`] when a partition's image cannot be mapped.
    pub fn new(cluster_cfg: ClusterConfig, graph: &CsrGraph) -> Result<Self, SimRankError> {
        let cluster = Cluster::new(cluster_cfg);
        let n = graph.node_count();
        let nparts = (cluster.config().default_partitions() as u32).min(n.max(1));
        let partitioner = Partitioner::range(n, nparts);
        let parts = Arc::new(MappedStore::of_graph(graph, &partitioner)?);
        Ok(Self { cluster, parts })
    }

    /// The underlying cluster (metrics access).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Largest single partition footprint — the RDD model's per-worker
    /// memory requirement (compare against the broadcast model's full
    /// `|G|`).
    pub fn max_partition_bytes(&self) -> u64 {
        self.parts.shards().iter().map(MappedShard::mapped_bytes).max().unwrap_or(0)
    }

    fn nparts(&self) -> usize {
        self.parts.parts() as usize
    }

    fn empty_parts<T>(&self) -> Vec<Vec<T>> {
        (0..self.nparts()).map(|_| Vec::new()).collect()
    }

    /// The exact arm: each partition holds `z` over its own nodes, and a
    /// sweep is one shuffle along the out-edges. A partition first sums,
    /// per out-neighbour `j`, the non-zero `z[k]` of its own nodes that
    /// link to `j` (a map-side combine, so a sweep ships at most one
    /// record per partition and target, not one per edge); the owner of
    /// `j` adds the partial sums up and finishes `j` as [`pulled`]; the
    /// driver then adds the next term's support. Grouping the in-links by
    /// partition rounds differently from the pull sweep, within 1e-12.
    fn swept(&self, dists: &CohortBlock, diag: &[f64], cfg: &SimRankConfig) -> Vec<f64> {
        let partitioner = self.parts.partitioner();
        let shards = self.parts.shards();
        let add_support = |z: &mut [Vec<f64>], t| {
            for (k, y) in weighted_support(dists, t, diag) {
                let p = partitioner.owner(k) as usize;
                z[p][(k - shards[p].start()) as usize] += y;
            }
        };
        let mut z: Vec<Vec<f64>> = shards.iter().map(|gp| vec![0.0; gp.len() as usize]).collect();
        add_support(&mut z, cfg.t);
        for t in (0..cfg.t).rev() {
            let pushed = DistVec::from_partitions(z).map_partitions(
                &self.cluster,
                "query/sweep-out",
                |pidx, zp: Vec<f64>| {
                    let gp = &shards[pidx];
                    let live: Vec<(NodeId, f64)> =
                        (gp.start()..).zip(zp).filter(|&(_, m)| m != 0.0).collect();
                    let edges = live.iter().map(|&(k, _)| gp.out_neighbors(k).len()).sum();
                    let mut sums = MassMap::with_capacity(edges);
                    for (k, m) in live {
                        gp.out_neighbors(k).iter().for_each(|&j| sums.add(j, m));
                    }
                    // One record per target: the order they ship in does
                    // not change any node's sum.
                    sums.iter().collect()
                },
            );
            let arrived = pushed.shuffle(&self.cluster, "query/sweep", self.nparts(), |&(j, _)| {
                partitioner.owner(j) as usize
            });
            z = self.cluster.run_stage(
                "query/sweep-in",
                arrived.into_partitions(),
                |pidx, recs| {
                    let gp = &shards[pidx];
                    let mut zp = vec![0.0f64; gp.len() as usize];
                    for (j, m) in recs {
                        zp[(j - gp.start()) as usize] += m;
                    }
                    for (j, slot) in (gp.start()..).zip(zp.iter_mut()) {
                        *slot = pulled(*slot, cfg.c, gp.in_neighbors(j).len());
                    }
                    zp
                },
            );
            add_support(&mut z, t);
        }
        z.concat()
    }

    /// The walks arm: all `T` forward-walk waves launched together, each
    /// carrying its remaining step budget so one shuffled pass per global
    /// step retires wave `t` at step `t`.
    fn walked(&self, dists: &CohortBlock, diag: &[f64], cfg: &SimRankConfig) -> Vec<f64> {
        let n = self.parts.node_count() as usize;
        let nparts = self.nparts();
        let partitioner = self.parts.partitioner();
        let parts = Arc::clone(&self.parts);
        let mut out = vec![0.0f64; n];

        // Launch every wave from the shared series enumeration: wave t's
        // walkers start with mass cᵗ·y_k/n_k and must take exactly t steps.
        let mut initial: Vec<Vec<ForwardWalker>> = self.empty_parts();
        mcss_series(dists, diag, cfg, |term| match term {
            SeriesTerm::Landed(node, mass) => out[node as usize] += mass,
            SeriesTerm::Launch(items) => {
                for item in items {
                    let per = item.ct * item.y / item.n as f64;
                    let home = &mut initial[partitioner.owner(item.k) as usize];
                    home.extend(item.keys().map(|key| (key, item.k, item.t as u32, per)));
                }
            }
        });

        let mut walkers = DistVec::from_partitions(initial);
        for s in 1..=cfg.t as u32 {
            if walkers.is_empty() {
                break;
            }
            // Step every active walker; retire those that finish this step.
            let parts_ref = Arc::clone(&parts);
            let stepped: Vec<CountedPartition<ForwardWalker, (u32, f64)>> = self.cluster.run_stage(
                "query/forward-step",
                walkers.into_partitions(),
                move |pidx, batch| {
                    let gp = &parts_ref.shards()[pidx];
                    let mut active = Vec::with_capacity(batch.len());
                    let mut retired: Vec<(u32, f64)> = Vec::new();
                    for (key, pos, remaining, mass) in batch {
                        let Some((next, mass)) = forward_step(gp, pos, mass, key, s) else {
                            continue; // mass drops off the graph
                        };
                        if remaining == 1 {
                            retired.push((next, mass));
                        } else {
                            active.push((key, next, remaining - 1, mass));
                        }
                    }
                    (active, retired)
                },
            );
            let mut active_parts = Vec::with_capacity(nparts);
            for (active, retired) in stepped {
                active_parts.push(active);
                for (node, mass) in retired {
                    out[node as usize] += mass;
                }
            }
            walkers = DistVec::from_partitions(active_parts).shuffle(
                &self.cluster,
                "query/forward",
                nparts,
                move |&(_, pos, _, _)| partitioner.owner(pos) as usize,
            );
        }
        out
    }
}

impl SimRankEngine for RddEngine {
    fn name(&self) -> &'static str {
        "rdd"
    }

    /// Offline indexing in the RDD model. Sources are processed in batches
    /// of 2¹⁶ (bounding live walker state); per batch, `R` walkers per
    /// source take `T` steps, shuffling both walker state and row
    /// contributions each step.
    /// Rows are then materialised per partition — partition order over a
    /// contiguous range partition is node order — and handed to
    /// `staged_solve`, one task per partition.
    fn build_diagonal(&self, cfg: &SimRankConfig) -> Result<BuildOutcome, SimRankError> {
        let n = self.parts.node_count();
        let nparts = self.nparts();
        let parts = Arc::clone(&self.parts);
        let partitioner = self.parts.partitioner();
        let r = cfg.r;
        let starts: Arc<Vec<u32>> =
            Arc::new(parts.shards().iter().map(MappedShard::start).collect());

        // rows[p][local_source] accumulates a_i; seeded with the t = 0 term
        // (all R walkers on the source: c⁰·(R/R)² = 1).
        let mut rows: Vec<Vec<MassMap>> = self
            .parts
            .shards()
            .iter()
            .map(|gp| {
                (gp.start()..gp.end())
                    .map(|src| {
                        let mut m = MassMap::with_capacity(cfg.t * cfg.r as usize / 4 + 4);
                        m.add(src, 1.0);
                        m
                    })
                    .collect()
            })
            .collect();

        let mut batch_start = 0u32;
        while batch_start < n {
            let batch_end = batch_start.saturating_add(SOURCE_BATCH).min(n);
            // Launch R walkers per source, placed at owner(source).
            let mut initial: Vec<Vec<IndexWalker>> = self.empty_parts();
            for src in batch_start..batch_end {
                let p = partitioner.owner(src) as usize;
                initial[p].extend(walker_keys(cfg.seed, src, 0..r).map(|key| (key, src, src)));
            }
            let mut walkers = DistVec::from_partitions(initial);
            let mut ct = 1.0f64;
            for t in 1..=cfg.t {
                ct *= cfg.c;
                // Step: each partition advances walkers standing on its nodes.
                let parts_ref = Arc::clone(&parts);
                walkers = walkers.map_partitions(
                    &self.cluster,
                    "index/step",
                    move |_, batch: Vec<IndexWalker>| {
                        batch
                            .into_iter()
                            .filter_map(|(key, src, pos)| {
                                reverse_step(&*parts_ref, pos, key, t as u32)
                                    .map(|next| (key, src, next))
                            })
                            .collect()
                    },
                );
                // Shuffle to the owner of the new position.
                walkers =
                    walkers.shuffle(&self.cluster, "index/walkers", nparts, move |&(_, _, pos)| {
                        partitioner.owner(pos) as usize
                    });
                // All walkers on a node are now co-located: counts per
                // (source, position) are globally complete. The stage
                // threads the walker partitions through so the next step
                // reuses them without a copy.
                let counted: Vec<(Vec<IndexWalker>, Vec<Contribution>)> = self.cluster.run_stage(
                    "index/count",
                    walkers.into_partitions(),
                    |_, batch: Vec<IndexWalker>| {
                        let mut sorted: Vec<(u32, u32)> =
                            batch.iter().map(|&(_, src, pos)| (src, pos)).collect();
                        sorted.sort_unstable();
                        let mut out: Vec<Contribution> = Vec::new();
                        for (src, pos) in sorted {
                            match out.last_mut() {
                                Some(&mut (s, p, ref mut c)) if s == src && p == pos => *c += 1,
                                _ => out.push((src, pos, 1)),
                            }
                        }
                        (batch, out)
                    },
                );
                let mut walker_parts = Vec::with_capacity(nparts);
                let mut contrib_parts = Vec::with_capacity(nparts);
                for (w, c) in counted {
                    walker_parts.push(w);
                    contrib_parts.push(c);
                }
                walkers = DistVec::from_partitions(walker_parts);
                // Ship contributions to the owner of their source and fold
                // them into the row accumulators.
                let contribs = DistVec::from_partitions(contrib_parts).shuffle(
                    &self.cluster,
                    "index/contribs",
                    nparts,
                    move |&(src, _, _)| partitioner.owner(src) as usize,
                );
                let row_inputs: Vec<(Vec<MassMap>, Vec<Contribution>)> =
                    rows.drain(..).zip(contribs.into_partitions()).collect();
                let starts_ref = Arc::clone(&starts);
                rows = self.cluster.run_stage(
                    "index/rows",
                    row_inputs,
                    move |pidx, (mut row_maps, mut contribs)| {
                        // Merge counts that arrived from different partitions
                        // for the same (source, position) before squaring.
                        contribs.sort_unstable_by_key(|&(s, p, _)| (s, p));
                        let mut i = 0;
                        while i < contribs.len() {
                            let (src, pos, mut cnt) = contribs[i];
                            i += 1;
                            while i < contribs.len() && contribs[i].0 == src && contribs[i].1 == pos
                            {
                                cnt += contribs[i].2;
                                i += 1;
                            }
                            let p = cnt as f64 / r as f64;
                            let local = (src - starts_ref[pidx]) as usize;
                            row_maps[local].add(pos, ct * p * p);
                        }
                        row_maps
                    },
                );
            }
            batch_start = batch_end;
        }

        // Materialise sorted rows per partition.
        let finalized: Vec<Vec<Vec<(u32, f64)>>> =
            self.cluster.run_stage("index/finalize", rows, |_, maps: Vec<MassMap>| {
                maps.into_iter().map(|m| m.into_sorted_vec()).collect()
            });
        let rows = StoredRows::from_parts(finalized);
        let ranges: Vec<(u32, u32)> =
            self.parts.shards().iter().map(|gp| (gp.start(), gp.end())).collect();
        let (diag, residuals) = staged_solve(&self.cluster, &ranges, &rows, cfg);
        Ok(BuildOutcome {
            diag,
            residuals,
            rows_bytes: StoredRows::memory_bytes(&rows),
            cluster: Some(self.cluster.report()),
        })
    }

    /// Simulates the query cohort for `source` with per-step shuffles.
    /// Counts are bitwise identical to the other engines.
    fn query_cohort(&self, cfg: &SimRankConfig, source: NodeId) -> Result<CohortBlock, QueryError> {
        let seed = query_seed(cfg);
        let nparts = self.nparts();
        let partitioner = self.parts.partitioner();
        let parts = Arc::clone(&self.parts);

        let mut initial: Vec<Vec<QueryWalker>> = self.empty_parts();
        let home = partitioner.owner(source) as usize;
        initial[home].extend(walker_keys(seed, source, 0..cfg.r_query).map(|key| (key, source)));
        let mut walkers = DistVec::from_partitions(initial);
        let mut counts: Vec<Vec<(NodeId, u64)>> = Vec::with_capacity(cfg.t + 1);
        counts.push(vec![(source, cfg.r_query as u64)]);
        for t in 1..=cfg.t {
            let parts_ref = Arc::clone(&parts);
            walkers = walkers.map_partitions(
                &self.cluster,
                "query/step",
                move |_, batch: Vec<QueryWalker>| {
                    batch
                        .into_iter()
                        .filter_map(|(key, pos)| {
                            reverse_step(&*parts_ref, pos, key, t as u32).map(|next| (key, next))
                        })
                        .collect()
                },
            );
            walkers = walkers.shuffle(&self.cluster, "query/walkers", nparts, move |&(_, pos)| {
                partitioner.owner(pos) as usize
            });
            // Per-partition histograms cover disjoint node ranges; merging
            // is a concatenation + sort. The stage threads the walker
            // partitions through for the next step.
            let counted: Vec<CountedPartition<QueryWalker, (u32, u64)>> = self.cluster.run_stage(
                "query/count",
                walkers.into_partitions(),
                |_, batch: Vec<QueryWalker>| {
                    let mut m = CountMap::with_capacity(batch.len());
                    for &(_, pos) in &batch {
                        m.add(pos, 1);
                    }
                    let hist = m.into_sorted_vec();
                    (batch, hist)
                },
            );
            let mut walker_parts = Vec::with_capacity(counted.len());
            let mut merged: Vec<(NodeId, u64)> = Vec::new();
            for (w, hist) in counted {
                walker_parts.push(w);
                merged.extend(hist);
            }
            walkers = DistVec::from_partitions(walker_parts);
            merged.sort_unstable_by_key(|&(k, _)| k);
            counts.push(merged);
        }
        cohort_block(&StepDistributions { source, walkers: cfg.r_query, counts })
    }

    /// MCSS in the RDD model: the cohort stage, then the forward stage on
    /// the arm [`crate::queries::sweeps_pay`] picks for the partitioned graph.
    fn single_source(
        &self,
        diag: &[f64],
        cfg: &SimRankConfig,
        i: NodeId,
    ) -> Result<Vec<f64>, QueryError> {
        let dists = Self::query_cohort(self, cfg, i)?;
        let mut out = if sweeps_on(&*self.parts, cfg) {
            self.swept(&dists, diag, cfg)
        } else {
            self.walked(&dists, diag, cfg)
        };
        out[i as usize] = 1.0;
        Ok(out)
    }

    fn cluster_report(&self) -> Option<ClusterReport> {
        Some(self.cluster.report())
    }

    fn memory_footprint(&self) -> EngineFootprint {
        EngineFootprint { per_worker_bytes: self.max_partition_bytes(), partitioned: true }
    }
}

impl std::fmt::Debug for RddEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RddEngine")
            .field("nodes", &self.parts.node_count())
            .field("partitions", &self.nparts())
            .field("cluster", &self.cluster.config())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasco_graph::generators;

    // Bit-identity to the kernels, the build report and the shuffle
    // accounting are table-tested in `tests/execution_modes.rs`.

    #[test]
    fn max_partition_is_smaller_than_graph() {
        let g = generators::rmat(10, 10_000, generators::RmatParams::default(), 3);
        let eng = RddEngine::new(ClusterConfig::local(4), &g).unwrap();
        assert!(eng.max_partition_bytes() < g.memory_bytes());
    }
}
