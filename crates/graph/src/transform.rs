//! Graph transformations: reversal, induced subgraphs, component
//! extraction, id compaction.
//!
//! Real crawls arrive messy — gappy id spaces, disconnected debris, edges
//! in whichever orientation the exporter chose. These helpers normalise a
//! graph before indexing; all of them return a fresh [`CsrGraph`] and a
//! mapping back to the original ids where node identity changes.

use crate::csr::{CsrGraph, NodeId};
use crate::GraphBuilder;

/// Reverses every edge (`u → v` becomes `v → u`). SimRank on the reversed
/// graph swaps the roles of in- and out-neighbourhoods — useful when a
/// dataset's exporter used "links-to" where the analysis wants "cited-by".
pub fn reverse(graph: &CsrGraph) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(graph.node_count(), graph.edge_count() as usize);
    b.ensure_nodes(graph.node_count());
    for (u, v) in graph.edges() {
        b.add_edge(v, u);
    }
    b.build()
}

/// The subgraph induced on `nodes`, with ids compacted to `0..nodes.len()`.
/// Returns the graph and the mapping `new id → old id` (position `i` holds
/// the original id of new node `i`). Duplicate ids in `nodes` are ignored.
pub fn induced_subgraph(graph: &CsrGraph, nodes: &[NodeId]) -> (CsrGraph, Vec<NodeId>) {
    let mut keep: Vec<NodeId> = nodes.to_vec();
    keep.sort_unstable();
    keep.dedup();
    let mut old_to_new = vec![u32::MAX; graph.node_count() as usize];
    for (new, &old) in keep.iter().enumerate() {
        assert!(old < graph.node_count(), "node {old} out of range");
        old_to_new[old as usize] = new as u32;
    }
    let mut b = GraphBuilder::with_capacity(keep.len() as u32, keep.len() * 4);
    b.ensure_nodes(keep.len() as u32);
    for &old_u in &keep {
        let new_u = old_to_new[old_u as usize];
        for &old_v in graph.out_neighbors(old_u) {
            let new_v = old_to_new[old_v as usize];
            if new_v != u32::MAX {
                b.add_edge(new_u, new_v);
            }
        }
    }
    (b.build(), keep)
}

/// Weakly-connected component labels (edges treated as undirected);
/// `labels[v]` is the component id, ids are densely numbered from 0 in
/// order of first discovery.
pub fn weakly_connected_components(graph: &CsrGraph) -> Vec<u32> {
    let n = graph.node_count() as usize;
    let mut labels = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut stack: Vec<NodeId> = Vec::new();
    for start in 0..n as u32 {
        if labels[start as usize] != u32::MAX {
            continue;
        }
        labels[start as usize] = next;
        stack.push(start);
        while let Some(v) = stack.pop() {
            for &w in graph.out_neighbors(v).iter().chain(graph.in_neighbors(v)) {
                if labels[w as usize] == u32::MAX {
                    labels[w as usize] = next;
                    stack.push(w);
                }
            }
        }
        next += 1;
    }
    labels
}

/// Extracts the largest weakly-connected component, ids compacted; returns
/// the subgraph and the `new → old` id mapping.
pub fn largest_wcc(graph: &CsrGraph) -> (CsrGraph, Vec<NodeId>) {
    assert!(graph.node_count() > 0, "empty graph has no components");
    let labels = weakly_connected_components(graph);
    let mut sizes: Vec<u64> = Vec::new();
    for &l in &labels {
        if sizes.len() <= l as usize {
            sizes.resize(l as usize + 1, 0);
        }
        sizes[l as usize] += 1;
    }
    // Non-empty (asserted above), so label 0 exists and `max_by_key` is `Some`.
    let biggest = sizes.iter().enumerate().max_by_key(|&(_, &s)| s).map_or(0, |(l, _)| l as u32);
    let keep: Vec<NodeId> =
        (0..graph.node_count()).filter(|&v| labels[v as usize] == biggest).collect();
    induced_subgraph(graph, &keep)
}

/// Drops isolated nodes (no edges in either direction) and compacts ids;
/// returns the graph and the `new → old` mapping.
pub fn drop_isolated(graph: &CsrGraph) -> (CsrGraph, Vec<NodeId>) {
    let keep: Vec<NodeId> =
        graph.nodes().filter(|&v| graph.in_degree(v) + graph.out_degree(v) > 0).collect();
    induced_subgraph(graph, &keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn reverse_swaps_directions() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let r = reverse(&g);
        assert_eq!(r.out_neighbors(1), &[0]);
        assert_eq!(r.out_neighbors(2), &[1]);
        assert_eq!(r.in_neighbors(0), &[1]);
        // Double reversal is the identity.
        assert_eq!(reverse(&r), g);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        // 0 -> 1 -> 2 -> 3, 0 -> 3
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let (sub, map) = induced_subgraph(&g, &[0, 1, 3]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(map, vec![0, 1, 3]);
        // Edges kept: 0->1 and 0->3 (relabelled 0->2); 1->2 and 2->3 cross.
        let edges: Vec<_> = sub.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2)]);
    }

    #[test]
    fn induced_subgraph_ignores_duplicates() {
        let g = generators::cycle(5);
        let (sub, map) = induced_subgraph(&g, &[2, 2, 4, 4]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(map, vec![2, 4]);
    }

    #[test]
    fn wcc_labels_two_islands() {
        // islands {0,1} and {2,3,4}; direction must not matter
        let g = CsrGraph::from_edges(5, &[(1, 0), (2, 3), (4, 3)]);
        let labels = weakly_connected_components(&g);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn largest_wcc_picks_the_bigger_island() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (2, 3), (3, 4), (4, 2)]);
        let (sub, map) = largest_wcc(&g);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(map, vec![2, 3, 4]);
        assert_eq!(sub.edge_count(), 3);
    }

    #[test]
    fn drop_isolated_removes_only_isolated() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 2);
        b.ensure_nodes(5); // nodes 1, 3, 4 isolated
        let g = b.build();
        let (sub, map) = drop_isolated(&g);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(map, vec![0, 2]);
        assert_eq!(sub.edge_count(), 1);
    }

    #[test]
    fn wcc_of_connected_generator_is_single() {
        let g = generators::barabasi_albert(200, 3, 4);
        let labels = weakly_connected_components(&g);
        assert!(labels.iter().all(|&l| l == 0), "BA graphs are connected");
    }
}
