//! Adjacency abstraction for walk kernels.
//!
//! The reverse walk needs in-neighbours; the forward (mass-carrying) walk
//! needs reverse-chain outflows and weighted out-edge sampling. Both are
//! served either by the resident [`CsrGraph`] (plus its
//! [`ReverseChainIndex`]) or by `pasco_store`'s routed shard set, in memory
//! or mapped from disk. These traits let one walk kernel drive both — the
//! **structural** form of the cross-engine guarantee: an engine over a
//! routed shard set cannot drift from the local one when they execute the
//! same kernel, only the adjacency source differs.

use crate::csr::{CsrGraph, InLinks, NodeId};
use crate::plan::SweepPlan;
use crate::sampling::ReverseChainIndex;

/// In-link adjacency for the SimRank reverse walk.
pub trait WalkAdjacency: Sync {
    /// Number of nodes.
    fn node_count(&self) -> u32;

    /// Number of edges (the in-link lists' total length).
    fn edge_count(&self) -> u64;

    /// In-neighbours of `v`, sorted by node id.
    fn in_neighbors(&self, v: NodeId) -> &[NodeId];

    /// The order a pull sweep visits the nodes in: built on the first
    /// sweep and cached for the storage's life.
    fn sweep_plan(&self) -> &SweepPlan;
}

impl WalkAdjacency for CsrGraph {
    #[inline]
    fn node_count(&self) -> u32 {
        CsrGraph::node_count(self)
    }

    fn edge_count(&self) -> u64 {
        CsrGraph::edge_count(self)
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        CsrGraph::in_neighbors(self, v)
    }

    fn sweep_plan(&self) -> &SweepPlan {
        self.plan.get_or_build(self)
    }
}

/// A borrowed adjacency walks like the owned one, so a kernel that takes
/// its adjacency by value runs on `&g` as well.
impl<T: WalkAdjacency + ?Sized> WalkAdjacency for &T {
    fn node_count(&self) -> u32 {
        T::node_count(self)
    }

    fn edge_count(&self) -> u64 {
        T::edge_count(self)
    }

    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        T::in_neighbors(self, v)
    }

    fn sweep_plan(&self) -> &SweepPlan {
        T::sweep_plan(self)
    }
}

impl WalkAdjacency for InLinks {
    #[inline]
    fn node_count(&self) -> u32 {
        self.n
    }

    fn edge_count(&self) -> u64 {
        self.sources.len() as u64
    }

    /// [`CsrGraph::in_neighbors`]' slice of the same arrays.
    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let (lo, hi) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
        &self.sources[lo as usize..hi as usize]
    }

    fn sweep_plan(&self) -> &SweepPlan {
        self.plan.get_or_build(self)
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

/// The sampler of a storage that holds no out-links ([`InLinks`]): it has
/// no values, so a kernel that needs one cannot be handed it.
#[derive(Clone, Copy, Debug)]
pub enum NoSampler {}

impl ForwardSampler for NoSampler {
    fn outflow(&self, _: NodeId) -> f64 {
        match *self {}
    }

    fn sample_out(&self, _: NodeId, _: f64) -> Option<NodeId> {
        match *self {}
    }
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

    fn edge_count(&self) -> u64 {
        self.graph.edge_count()
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.graph.in_neighbors(v)
    }

    fn sweep_plan(&self) -> &SweepPlan {
        WalkAdjacency::sweep_plan(self.graph)
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
