//! Adjacency abstraction for walk kernels.
//!
//! The reverse walk needs in-neighbours; the forward (mass-carrying) walk
//! needs reverse-chain outflows and weighted out-edge sampling. Both are
//! served either by the resident [`CsrGraph`] (plus its
//! [`ReverseChainIndex`]) or by a routed [`PartitionedView`] over graph
//! shards. These traits let one walk kernel drive both — the **structural**
//! form of the cross-engine guarantee: a sharded engine cannot drift from
//! the local one when they execute the same kernel, only the adjacency
//! source differs.

use crate::csr::{CsrGraph, NodeId};
use crate::partitioned::{GraphPartition, PartitionedView};
use crate::sampling::ReverseChainIndex;

/// In-link adjacency for the SimRank reverse walk.
pub trait WalkAdjacency: Sync {
    /// Number of nodes.
    fn node_count(&self) -> u32;

    /// In-neighbours of `v`, sorted by node id.
    fn in_neighbors(&self, v: NodeId) -> &[NodeId];
}

impl WalkAdjacency for CsrGraph {
    #[inline]
    fn node_count(&self) -> u32 {
        CsrGraph::node_count(self)
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        CsrGraph::in_neighbors(self, v)
    }
}

impl WalkAdjacency for PartitionedView {
    #[inline]
    fn node_count(&self) -> u32 {
        PartitionedView::node_count(self)
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        PartitionedView::in_neighbors(self, v)
    }
}

/// Out-edge sampling for the forward (mass-carrying) walk: total outflow
/// `W_v = Σ_{j∈Out(v)} 1/|In(j)|` and `1/|In(j)|`-proportional sampling.
pub trait ForwardSampler: Sync {
    /// Total reverse-chain outflow of `v` (0 when `v` has no out-edges).
    fn outflow(&self, v: NodeId) -> f64;

    /// Samples an out-neighbour of `v` with probability `∝ 1/|In(j)|`
    /// given uniform `r ∈ [0, 1)`; `None` when `v` has no out-edges.
    fn sample_out(&self, v: NodeId, r: f64) -> Option<NodeId>;
}

/// The resident-graph sampler: a [`CsrGraph`] with its
/// [`ReverseChainIndex`].
#[derive(Clone, Copy, Debug)]
pub struct GraphSampler<'a> {
    graph: &'a CsrGraph,
    rci: &'a ReverseChainIndex,
}

impl<'a> GraphSampler<'a> {
    /// Pairs a graph with its reverse-chain index.
    pub fn new(graph: &'a CsrGraph, rci: &'a ReverseChainIndex) -> Self {
        Self { graph, rci }
    }
}

impl WalkAdjacency for GraphSampler<'_> {
    #[inline]
    fn node_count(&self) -> u32 {
        self.graph.node_count()
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.graph.in_neighbors(v)
    }
}

impl ForwardSampler for GraphSampler<'_> {
    #[inline]
    fn outflow(&self, v: NodeId) -> f64 {
        self.rci.outflow(v)
    }

    #[inline]
    fn sample_out(&self, v: NodeId, r: f64) -> Option<NodeId> {
        self.rci.sample(self.graph, v, r)
    }
}

/// One partition samples for the nodes it owns — the RDD model steps a
/// walker on the partition its position was shuffled to.
impl ForwardSampler for GraphPartition {
    #[inline]
    fn outflow(&self, v: NodeId) -> f64 {
        GraphPartition::outflow(self, v)
    }

    #[inline]
    fn sample_out(&self, v: NodeId, r: f64) -> Option<NodeId> {
        GraphPartition::sample_out(self, v, r)
    }
}

impl ForwardSampler for PartitionedView {
    #[inline]
    fn outflow(&self, v: NodeId) -> f64 {
        PartitionedView::outflow(self, v)
    }

    #[inline]
    fn sample_out(&self, v: NodeId, r: f64) -> Option<NodeId> {
        PartitionedView::sample_out(self, v, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::partition::Partitioner;
    use crate::partitioned::partition_graph;
    use std::sync::Arc;

    #[test]
    fn graph_and_view_agree_through_the_traits() {
        let g = generators::barabasi_albert(200, 3, 4);
        let rci = ReverseChainIndex::build(&g);
        let p = Partitioner::range(g.node_count(), 3);
        let view = PartitionedView::new(Arc::new(partition_graph(&g, &p)), p);
        let sampler = GraphSampler::new(&g, &rci);
        fn adj<G: WalkAdjacency>(g: &G, v: NodeId) -> Vec<NodeId> {
            g.in_neighbors(v).to_vec()
        }
        fn probe<S: ForwardSampler>(s: &S, v: NodeId) -> (f64, Option<NodeId>) {
            (s.outflow(v), s.sample_out(v, 0.37))
        }
        for v in (0..200).step_by(11) {
            assert_eq!(adj(&g, v), adj(&view, v), "in {v}");
            assert_eq!(probe(&sampler, v), probe(&view, v), "fwd {v}");
        }
        assert_eq!(WalkAdjacency::node_count(&g), WalkAdjacency::node_count(&view));
    }
}
