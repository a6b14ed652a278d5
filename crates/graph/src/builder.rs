//! Edge-list accumulator that assembles a [`CsrGraph`] with counting sort.

use crate::csr::{CsrGraph, NodeId};

/// Collects directed edges and builds a [`CsrGraph`].
///
/// Duplicate edges are collapsed during [`GraphBuilder::build`]; the node
/// count grows automatically to cover every endpoint unless fixed up-front
/// with [`GraphBuilder::with_capacity`] (it still grows if an endpoint
/// exceeds the given count).
///
/// ```
/// use pasco_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// b.add_edge(0, 2);
/// b.add_edge(2, 1);
/// let g = b.build();
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    edges: Vec<(NodeId, NodeId)>,
    n: u32,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder expecting `n` nodes and roughly `m` edges.
    pub fn with_capacity(n: u32, m: usize) -> Self {
        Self { edges: Vec::with_capacity(m), n }
    }

    /// Records the directed edge `u → v`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.n = self.n.max(u + 1).max(v + 1);
        self.edges.push((u, v));
    }

    /// Ensures the graph has at least `n` nodes even if the trailing ones
    /// have no edges (isolated nodes are legal and show up in the datasets).
    pub fn ensure_nodes(&mut self, n: u32) {
        self.n = self.n.max(n);
    }

    /// Builds the CSR graph: counting-sorts edges into out-adjacency,
    /// deduplicates, then derives in-adjacency by a second counting sort.
    pub fn build(mut self) -> CsrGraph {
        let n = self.n as usize;

        // Sort by (src, dst) and collapse duplicates. An unstable sort of the
        // tuple vector is O(m log m) with excellent constants and leaves each
        // adjacency list sorted, which `CsrGraph` guarantees.
        self.edges.sort_unstable();
        self.edges.dedup();
        let m = self.edges.len();

        let mut out_offsets = vec![0u64; n + 1];
        for &(u, _) in &self.edges {
            out_offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_targets = Vec::with_capacity(m);
        out_targets.extend(self.edges.iter().map(|&(_, v)| v));

        // In-adjacency via counting sort on destination.
        let mut in_offsets = vec![0u64; n + 1];
        for &(_, v) in &self.edges {
            in_offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor: Vec<u64> = in_offsets[..n].to_vec();
        let mut in_sources = vec![0 as NodeId; m];
        for &(u, v) in &self.edges {
            let c = &mut cursor[v as usize];
            in_sources[*c as usize] = u;
            *c += 1;
        }
        // Sources arrive in (u, v) order, so each in-list is already sorted
        // by u; assert in debug builds.
        debug_assert!((0..n).all(|v| {
            let lo = in_offsets[v] as usize;
            let hi = in_offsets[v + 1] as usize;
            in_sources[lo..hi].windows(2).all(|w| w[0] <= w[1])
        }));

        CsrGraph::from_parts(self.n, out_offsets, out_targets, in_offsets, in_sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn isolated_nodes_via_ensure() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.ensure_nodes(5);
        let g = b.build();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.out_degree(4), 0);
        assert_eq!(g.in_degree(4), 0);
    }

    #[test]
    fn adjacency_sorted_and_deduped() {
        let mut b = GraphBuilder::new();
        for &(u, v) in &[(2, 0), (0, 2), (0, 1), (0, 2), (2, 1)] {
            b.add_edge(u, v);
        }
        let g = b.build();
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.out_neighbors(2), &[0, 1]);
        assert_eq!(g.in_neighbors(1), &[0, 2]);
        assert_eq!(g.in_neighbors(2), &[0]);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn in_out_edge_counts_agree() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        let g = b.build();
        let total_out: u64 = g.nodes().map(|v| g.out_degree(v) as u64).sum();
        let total_in: u64 = g.nodes().map(|v| g.in_degree(v) as u64).sum();
        assert_eq!(total_out, total_in);
        assert_eq!(total_out, g.edge_count());
    }
}
