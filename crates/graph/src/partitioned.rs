//! Range-partitioned graph storage for the RDD execution mode.
//!
//! The paper's RDD model stores the graph as a partitioned dataset: each
//! partition owns a contiguous node range and holds only the adjacency of
//! its nodes, so the per-worker footprint is `O(|G| / partitions)`. A walker
//! standing on node `v` can only take its next step on the partition owning
//! `v` — walker state is shuffled between steps, which is exactly the cost
//! the RDD-vs-Broadcasting experiment measures.
//!
//! Each [`GraphPartition`] carries, for its owned nodes:
//! * in-adjacency (for the SimRank reverse walk), and
//! * out-adjacency with reverse-chain cumulative weights (for the MCSS
//!   forward walk; see [`crate::sampling::ReverseChainIndex`]).

use crate::csr::{CsrGraph, NodeId};
use crate::partition::{Partitioner, RangeRouter};
use crate::sampling::pick_weighted;
use std::ops::Range;
use std::sync::Arc;

/// The arrays of one range partition, borrowed: the one body of the four
/// per-step lookups, shared by every storage that holds a partition —
/// [`GraphPartition`] in memory, `pasco_store`'s mapped shard on disk — so
/// the routed storages execute the same instructions by construction.
///
/// Layout contract: for `count` owned nodes `start..start + count`, both
/// offset arrays have `count + 1` monotone entries ending at their
/// adjacency array's length, `out_cum` parallels `out_targets`,
/// `out_total` has `count` entries. The owned
/// range is read off those lengths, which makes every lookup total in
/// `v`: a node outside it has no neighbours and no outflow.
#[derive(Clone, Copy, Debug)]
pub struct PartSlices<'a> {
    /// First owned node id.
    pub start: NodeId,
    /// In-adjacency CSR offsets, local to the partition.
    pub in_offsets: &'a [u64],
    /// In-adjacency source ids (global).
    pub in_sources: &'a [NodeId],
    /// Out-adjacency CSR offsets, local to the partition.
    pub out_offsets: &'a [u64],
    /// Out-adjacency target ids (global).
    pub out_targets: &'a [NodeId],
    /// Per-out-edge cumulative reverse-chain weights.
    pub out_cum: &'a [f64],
    /// Per-owned-node total outflow `W_k`.
    pub out_total: &'a [f64],
}

impl<'a> PartSlices<'a> {
    // `inline(always)`: the 13-word struct must dissolve into the caller's
    // registers — left to the inliner's discretion, `sample_out` stayed a
    // call and every forward step spilled and reloaded all of it.

    /// `v`'s index in the partition; wraps past every length for `v < start`.
    #[inline(always)]
    fn local(&self, v: NodeId) -> usize {
        v.wrapping_sub(self.start) as usize
    }

    /// The local index and CSR span of `v` in `offsets`, when owned: an
    /// offset array is one longer than the owned range, so the first `get`
    /// is the ownership test and both bounds checks at once.
    #[inline(always)]
    fn span(&self, offsets: &[u64], v: NodeId) -> Option<(usize, Range<usize>)> {
        let l = self.local(v);
        let hi = *offsets.get(l + 1)?;
        Some((l, offsets[l] as usize..hi as usize))
    }

    /// In-neighbours of `v` (global ids).
    #[inline(always)]
    pub fn in_neighbors(&self, v: NodeId) -> &'a [NodeId] {
        self.span(self.in_offsets, v).map_or(&[], |(_, span)| &self.in_sources[span])
    }

    /// Out-neighbours of `v` (global ids).
    #[inline(always)]
    pub fn out_neighbors(&self, v: NodeId) -> &'a [NodeId] {
        self.span(self.out_offsets, v).map_or(&[], |(_, span)| &self.out_targets[span])
    }

    /// Total reverse-chain outflow `W_v`.
    #[inline(always)]
    pub fn outflow(&self, v: NodeId) -> f64 {
        self.out_total.get(self.local(v)).copied().unwrap_or(0.0)
    }

    /// Samples an out-neighbour of `v` with probability `∝ 1/|In(j)|`
    /// given uniform `r ∈ [0,1)`; `None` when `v` has no out-edges.
    #[inline(always)]
    pub fn sample_out(&self, v: NodeId, r: f64) -> Option<NodeId> {
        let (l, span) = self.span(self.out_offsets, v)?;
        pick_weighted(&self.out_targets[span.clone()], &self.out_cum[span], self.out_total[l], r)
    }
}

/// One range partition of a graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphPartition {
    /// First owned node id.
    pub start: NodeId,
    /// One past the last owned node id.
    pub end: NodeId,
    in_offsets: Vec<u64>,
    in_sources: Vec<NodeId>,
    out_offsets: Vec<u64>,
    out_targets: Vec<NodeId>,
    /// Per-out-edge cumulative reverse-chain weights (local layout).
    out_cum: Vec<f64>,
    /// Per-owned-node total outflow `W_k`.
    out_total: Vec<f64>,
}

impl GraphPartition {
    /// Number of owned nodes.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// True when the partition owns no nodes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// True if this partition owns node `v`.
    #[inline]
    pub fn owns(&self, v: NodeId) -> bool {
        (self.start..self.end).contains(&v)
    }

    /// The partition's arrays, borrowed — every lookup below is
    /// [`PartSlices`]'s.
    #[inline]
    pub fn slices(&self) -> PartSlices<'_> {
        PartSlices {
            start: self.start,
            in_offsets: &self.in_offsets,
            in_sources: &self.in_sources,
            out_offsets: &self.out_offsets,
            out_targets: &self.out_targets,
            out_cum: &self.out_cum,
            out_total: &self.out_total,
        }
    }

    /// In-neighbours of `v` (global ids); empty for nodes this partition
    /// does not own.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.slices().in_neighbors(v)
    }

    /// Out-neighbours of `v` (global ids); empty when not owned.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.slices().out_neighbors(v)
    }

    /// Total reverse-chain outflow `W_v` of `v`; 0 when not owned.
    #[inline]
    pub fn outflow(&self, v: NodeId) -> f64 {
        self.slices().outflow(v)
    }

    /// Samples an out-neighbour of `v` with probability `∝ 1/|In(j)|`
    /// given uniform `r ∈ [0,1)`; `None` when `v` has no out-edges (or is
    /// not owned).
    #[inline]
    pub fn sample_out(&self, v: NodeId, r: f64) -> Option<NodeId> {
        self.slices().sample_out(v, r)
    }

    /// Resident bytes of this partition's arrays.
    pub fn memory_bytes(&self) -> u64 {
        (self.in_offsets.len() as u64 + self.out_offsets.len() as u64) * 8
            + (self.in_sources.len() as u64 + self.out_targets.len() as u64) * 4
            + (self.out_cum.len() as u64 + self.out_total.len() as u64) * 8
    }

    /// The raw arrays backing this partition — `in_offsets`, `in_sources`,
    /// `out_offsets`, `out_targets`, `out_cum`, `out_total`: what the shard
    /// writer serialises.
    #[allow(clippy::type_complexity, reason = "six borrowed arrays, named in the doc above")]
    pub fn raw_arrays(&self) -> (&[u64], &[NodeId], &[u64], &[NodeId], &[f64], &[f64]) {
        (
            &self.in_offsets,
            &self.in_sources,
            &self.out_offsets,
            &self.out_targets,
            &self.out_cum,
            &self.out_total,
        )
    }
}

/// Splits `graph` into the range partitions described by `partitioner`.
///
/// # Panics
/// Panics if `partitioner` is not a range partitioner over the graph's node
/// count (hash partitioning would shred adjacency locality).
pub fn partition_graph(graph: &CsrGraph, partitioner: &Partitioner) -> Vec<GraphPartition> {
    let parts = partitioner.parts();
    (0..parts)
        .map(|p| {
            #[allow(
                clippy::expect_used,
                reason = "the documented contract above: panicking on a non-range partitioner is \
                          deliberate (hash partitioning would shred adjacency locality), and \
                          `p < parts` by the loop bound"
            )]
            let (start, end) =
                partitioner.range_of(p).expect("partition_graph requires a range partitioner");
            let count = (end - start) as usize;
            let mut in_offsets = Vec::with_capacity(count + 1);
            let mut in_sources = Vec::new();
            let mut out_offsets = Vec::with_capacity(count + 1);
            let mut out_targets = Vec::new();
            let mut out_cum = Vec::new();
            let mut out_total = Vec::with_capacity(count);
            in_offsets.push(0);
            out_offsets.push(0);
            for v in start..end {
                in_sources.extend_from_slice(graph.in_neighbors(v));
                in_offsets.push(in_sources.len() as u64);
                let mut acc = 0.0;
                for &j in graph.out_neighbors(v) {
                    acc += 1.0 / graph.in_degree(j) as f64;
                    out_targets.push(j);
                    out_cum.push(acc);
                }
                out_offsets.push(out_targets.len() as u64);
                out_total.push(acc);
            }
            GraphPartition {
                start,
                end,
                in_offsets,
                in_sources,
                out_offsets,
                out_targets,
                out_cum,
                out_total,
            }
        })
        .collect()
}

/// A whole-graph adjacency view assembled from range partitions: every
/// lookup routes to the partition owning the node, so holders of one
/// partition can follow walks that wander across partition boundaries
/// without materialising the full graph twice. On one box the "route" is a
/// slice index; on NUMA or RPC substrates it becomes the remote access the
/// sharded decomposition is designed to localise.
///
/// Lookups return exactly what [`CsrGraph`] would (the partition tests
/// assert slice-level equality), so walk kernels driven through a view take
/// bit-identical trajectories to walks on the resident graph.
#[derive(Clone, Debug)]
pub struct PartitionedView {
    parts: Arc<Vec<GraphPartition>>,
    router: RangeRouter,
}

impl PartitionedView {
    /// A view over `parts` as produced by [`partition_graph`] with
    /// `partitioner`.
    ///
    /// # Panics
    /// Panics when `partitioner` is not the range partitioner of `parts`:
    /// one slot per partition, over the node count the partitions end at.
    pub fn new(parts: Arc<Vec<GraphPartition>>, partitioner: Partitioner) -> Self {
        assert_eq!(
            parts.len(),
            partitioner.parts() as usize,
            "view needs one partition per partitioner slot"
        );
        let n = parts.last().map_or(0, |gp| gp.end);
        let router = RangeRouter::new(n, parts.len() as u32);
        assert_eq!(
            partitioner,
            Partitioner::Range(router),
            "PartitionedView requires the range partitioner of its partitions"
        );
        Self { parts, router }
    }

    /// Range-partitions `graph` by `partitioner` and routes over the
    /// result — [`partition_graph`] then [`PartitionedView::new`].
    pub fn of_graph(graph: &CsrGraph, partitioner: Partitioner) -> Self {
        Self::new(Arc::new(partition_graph(graph, &partitioner)), partitioner)
    }

    /// The partition owning node `v`.
    #[inline]
    pub fn part_of(&self, v: NodeId) -> &GraphPartition {
        &self.parts[self.router.route(v) as usize]
    }

    /// All partitions backing this view, in partition order.
    pub fn partitions(&self) -> &Arc<Vec<GraphPartition>> {
        &self.parts
    }

    /// The partitioner mapping nodes to partitions.
    pub fn partitioner(&self) -> Partitioner {
        Partitioner::Range(self.router)
    }

    /// Total node count across all partitions.
    pub fn node_count(&self) -> u32 {
        self.parts.last().map(|gp| gp.end).unwrap_or(0)
    }

    /// In-neighbours of `v` (routes to the owning partition).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.part_of(v).in_neighbors(v)
    }

    /// Out-neighbours of `v` (routes to the owning partition).
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.part_of(v).out_neighbors(v)
    }

    /// Total reverse-chain outflow `W_v` of `v`.
    #[inline]
    pub fn outflow(&self, v: NodeId) -> f64 {
        self.part_of(v).outflow(v)
    }

    /// Samples an out-neighbour of `v` with probability `∝ 1/|In(j)|`;
    /// `None` when `v` has no out-edges.
    #[inline]
    pub fn sample_out(&self, v: NodeId, r: f64) -> Option<NodeId> {
        self.part_of(v).sample_out(v, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::sampling::ReverseChainIndex;

    #[test]
    fn partitions_cover_graph_exactly() {
        let g = generators::barabasi_albert(500, 4, 3);
        let p = Partitioner::range(500, 7);
        let parts = partition_graph(&g, &p);
        assert_eq!(parts.len(), 7);
        let total: u32 = parts.iter().map(|gp| gp.len()).sum();
        assert_eq!(total, 500);
        // Adjacency matches the full graph for every node.
        for gp in &parts {
            for v in gp.start..gp.end {
                assert_eq!(gp.in_neighbors(v), g.in_neighbors(v));
                assert_eq!(gp.out_neighbors(v), g.out_neighbors(v));
            }
        }
    }

    #[test]
    fn partition_sampling_matches_global_index() {
        let g = generators::rmat(9, 3000, generators::RmatParams::default(), 4);
        let p = Partitioner::range(g.node_count(), 4);
        let parts = partition_graph(&g, &p);
        let rci = ReverseChainIndex::build(&g);
        for gp in &parts {
            for v in gp.start..gp.end {
                assert!((gp.outflow(v) - rci.outflow(v)).abs() < 1e-12, "node {v}");
                for &r in &[0.0, 0.3, 0.77, 0.999] {
                    assert_eq!(gp.sample_out(v, r), rci.sample(&g, v, r), "node {v} r {r}");
                }
            }
        }
    }

    #[test]
    fn view_routes_to_the_full_graph_adjacency() {
        let g = generators::rmat(9, 4_000, generators::RmatParams::default(), 8);
        let p = Partitioner::range(g.node_count(), 5);
        let view = PartitionedView::new(Arc::new(partition_graph(&g, &p)), p);
        let rci = ReverseChainIndex::build(&g);
        assert_eq!(view.node_count(), g.node_count());
        for v in (0..g.node_count()).step_by(17) {
            assert_eq!(view.in_neighbors(v), g.in_neighbors(v), "in {v}");
            assert_eq!(view.out_neighbors(v), g.out_neighbors(v), "out {v}");
            assert!((view.outflow(v) - rci.outflow(v)).abs() < 1e-12, "outflow {v}");
            for &r in &[0.0, 0.42, 0.999] {
                assert_eq!(view.sample_out(v, r), rci.sample(&g, v, r), "sample {v} r {r}");
            }
        }
    }

    fn assert_empty_at(gp: &GraphPartition, v: NodeId) {
        assert_eq!(gp.in_neighbors(v), &[] as &[NodeId], "in {v}");
        assert_eq!(gp.out_neighbors(v), &[] as &[NodeId], "out {v}");
        assert_eq!((gp.outflow(v), gp.sample_out(v, 0.5)), (0.0, None), "fwd {v}");
    }

    #[test]
    fn lookups_are_total_outside_the_owned_range() {
        // Uneven tiling (chunks of 74 over 512 nodes) plus ids past `n`:
        // every other partition, and the view itself, answers empty.
        let view: PartitionedView = PartitionedView::of_graph(
            &generators::rmat(9, 4_000, generators::RmatParams::default(), 8),
            Partitioner::range(512, 7),
        );
        for gp in view.partitions().iter() {
            [0, gp.start.wrapping_sub(1), gp.end, 511, 512, 529, u32::MAX]
                .into_iter()
                .filter(|v| !(gp.start..gp.end).contains(v))
                .for_each(|v| assert_empty_at(gp, v));
        }
        for v in [512, 529, u32::MAX] {
            assert_eq!(view.in_neighbors(v), &[] as &[NodeId], "view in {v}");
            assert_eq!((view.outflow(v), view.sample_out(v, 0.5)), (0.0, None), "view fwd {v}");
        }
    }

    #[test]
    #[should_panic(expected = "range partitioner")]
    fn view_rejects_hash_partitioners() {
        let g = generators::cycle(9);
        let parts = Arc::new(partition_graph(&g, &Partitioner::range(9, 3)));
        let _ = PartitionedView::new(parts, Partitioner::hash(3));
    }

    #[test]
    fn memory_sums_close_to_full_graph() {
        let g = generators::barabasi_albert(300, 4, 1);
        let p = Partitioner::range(300, 5);
        let parts = partition_graph(&g, &p);
        let part_bytes: u64 = parts.iter().map(|gp| gp.memory_bytes()).sum();
        // Partitioned storage duplicates offsets and adds weights, but each
        // partition alone must be much smaller than the whole.
        for gp in &parts {
            assert!(gp.memory_bytes() < part_bytes / 2);
        }
    }
}
