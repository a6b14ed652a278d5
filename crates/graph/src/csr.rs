//! Compressed-sparse-row graph storage with both edge directions.

use crate::plan::SweepPlanCell;

/// Node identifier. `u32` comfortably covers the simulated datasets and
/// matches the paper's billion-node ceiling.
pub type NodeId = u32;

/// A directed graph in CSR form, storing **both** out-adjacency and
/// in-adjacency.
///
/// SimRank's random surfer walks along *in-links* ([`CsrGraph::in_neighbors`])
/// while the single-source reverse-chain walk and LIN's sparse pushes walk
/// along *out-links* ([`CsrGraph::out_neighbors`]); keeping both directions
/// materialised makes each walk step two array reads.
///
/// Neighbour lists are sorted ascending, parallel edges collapsed at build
/// time (see [`crate::GraphBuilder`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    n: u32,
    out_offsets: Vec<u64>,
    out_targets: Vec<NodeId>,
    in_offsets: Vec<u64>,
    in_sources: Vec<NodeId>,
    pub(crate) plan: SweepPlanCell,
}

impl CsrGraph {
    /// Assembles a graph from raw CSR arrays. Intended for use by the
    /// builder and the binary loader, which hand it arrays already known
    /// to be well formed ([`crate::io::read_binary`] checks a file's).
    ///
    /// # Panics
    /// Panics if the array lengths disagree. Monotone offsets and
    /// neighbour ids below `n` are only `debug_assert!`ed: in a release
    /// build a violation is not caught here but by a later lookup.
    pub fn from_parts(
        n: u32,
        out_offsets: Vec<u64>,
        out_targets: Vec<NodeId>,
        in_offsets: Vec<u64>,
        in_sources: Vec<NodeId>,
    ) -> Self {
        assert_eq!(out_offsets.len(), n as usize + 1, "out_offsets length");
        assert_eq!(in_offsets.len(), n as usize + 1, "in_offsets length");
        assert_eq!(out_offsets.last().copied(), Some(out_targets.len() as u64));
        assert_eq!(in_offsets.last().copied(), Some(in_sources.len() as u64));
        assert_eq!(out_targets.len(), in_sources.len(), "edge count mismatch");
        debug_assert!(out_offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(in_offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(out_targets.iter().all(|&v| v < n));
        debug_assert!(in_sources.iter().all(|&v| v < n));
        Self { n, out_offsets, out_targets, in_offsets, in_sources, plan: SweepPlanCell::default() }
    }

    /// Builds a graph directly from a directed edge list `(u, v)` meaning
    /// `u → v`. Parallel edges are collapsed; self loops kept.
    pub fn from_edges(n: u32, edges: &[(NodeId, NodeId)]) -> Self {
        let mut b = crate::GraphBuilder::with_capacity(n, edges.len());
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> u32 {
        self.n
    }

    /// Number of directed edges (after deduplication).
    #[inline]
    pub fn edge_count(&self) -> u64 {
        self.out_targets.len() as u64
    }

    /// Nodes `v` with an edge `u → v`, sorted ascending.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        let lo = self.out_offsets[u as usize] as usize;
        let hi = self.out_offsets[u as usize + 1] as usize;
        &self.out_targets[lo..hi]
    }

    /// Nodes `u` with an edge `u → v`, sorted ascending. This is `In(v)`,
    /// the set SimRank walkers step into.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.in_offsets[v as usize] as usize;
        let hi = self.in_offsets[v as usize + 1] as usize;
        &self.in_sources[lo..hi]
    }

    /// `|Out(u)|`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> u32 {
        (self.out_offsets[u as usize + 1] - self.out_offsets[u as usize]) as u32
    }

    /// `|In(v)|`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> u32 {
        (self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]) as u32
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.n
    }

    /// Iterator over all directed edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Approximate resident size of the CSR arrays in bytes. Used by the
    /// cluster runtime to decide whether the graph fits a worker's broadcast
    /// memory budget (the paper's 401 GB clue-web vs 377 GB/machine wall).
    pub fn memory_bytes(&self) -> u64 {
        (self.out_offsets.len() as u64 + self.in_offsets.len() as u64) * 8
            + (self.out_targets.len() as u64 + self.in_sources.len() as u64) * 4
    }

    /// True if `v` has no in-neighbours: a SimRank walker at `v` terminates.
    #[inline]
    pub fn is_dangling(&self, v: NodeId) -> bool {
        self.in_degree(v) == 0
    }

    /// Raw out-offsets (length `n + 1`), for zero-copy exports.
    pub fn out_offsets(&self) -> &[u64] {
        &self.out_offsets
    }

    /// Raw out-targets, for zero-copy exports.
    pub fn out_targets(&self) -> &[NodeId] {
        &self.out_targets
    }

    /// Raw in-offsets (length `n + 1`), for zero-copy exports.
    pub fn in_offsets(&self) -> &[u64] {
        &self.in_offsets
    }

    /// Raw in-sources, for zero-copy exports.
    pub fn in_sources(&self) -> &[NodeId] {
        &self.in_sources
    }

    /// Keeps the in-link half and its sweep plan, and frees the out side.
    pub fn into_in_links(self) -> InLinks {
        InLinks { n: self.n, offsets: self.in_offsets, sources: self.in_sources, plan: self.plan }
    }
}

/// The in-link half of a [`CsrGraph`], all the offline build's reverse
/// walks read ([`crate::WalkAdjacency`]; [`crate::io::read_in_links`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InLinks {
    pub(crate) n: u32,
    pub(crate) offsets: Vec<u64>,
    pub(crate) sources: Vec<NodeId>,
    pub(crate) plan: SweepPlanCell,
}

impl InLinks {
    /// Resident size of the two arrays in bytes: [`CsrGraph::memory_bytes`]'
    /// in-link half.
    pub fn memory_bytes(&self) -> u64 {
        self.offsets.len() as u64 * 8 + self.sources.len() as u64 * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn basic_shape() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.in_degree(0), 0);
        assert!(g.is_dangling(0));
        assert!(!g.is_dangling(1));
    }

    #[test]
    fn edges_iterator_roundtrip() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        let g2 = CsrGraph::from_edges(4, &edges);
        assert_eq!(g, g2);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 1), (1, 2)]);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_neighbors(0), &[1]);
    }

    #[test]
    fn memory_bytes_counts_all_arrays() {
        let g = diamond();
        // offsets: 2 * 5 * 8 bytes; targets/sources: 2 * 4 * 4 bytes
        assert_eq!(g.memory_bytes(), 2 * 5 * 8 + 2 * 4 * 4);
    }

    #[test]
    fn self_loops_are_kept() {
        let g = CsrGraph::from_edges(2, &[(0, 0), (0, 1)]);
        assert_eq!(g.in_neighbors(0), &[0]);
        assert_eq!(g.out_neighbors(0), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "out_offsets length")]
    fn from_parts_validates_offsets() {
        CsrGraph::from_parts(2, vec![0, 0], vec![], vec![0, 0, 0], vec![]);
    }
}
