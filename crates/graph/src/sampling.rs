//! Weighted out-edge sampling for the reverse-chain ("forward") walk.
//!
//! MCSS needs to apply `(Pᵀ)ᵗ` to a sparse vector by simulation. `Pᵀ` is
//! **row**-stochastic, but propagating a *measure* forward through `P`
//! means: mass at node `k` flows to each out-neighbour `j` with weight
//! `1/|In(j)|`, and the total outflow `W_k = Σ_{j∈Out(k)} 1/|In(j)|` is not 1.
//! A mass-carrying walker therefore samples `j ∝ 1/|In(j)|` and multiplies
//! its mass by `W_k`. This module precomputes per-node prefix sums of those
//! weights so each sample is one binary search — the `log d` in the paper's
//! `O(T²R′ log d)` MCSS complexity.

use crate::csr::{CsrGraph, NodeId};
use rayon::prelude::*;

/// The weighted pick behind every storage's `sample_out`: one node's
/// out-`targets` with the running sums `cum` of their weights (same
/// length; `total` is the last sum), and a uniform `r ∈ [0, 1)`. Returns
/// the first target whose cumulative weight exceeds `r · total`, clamped
/// to the last one against rounding at the top; `None` for a node without
/// out-edges. Resident storage and every shard (`pasco_store`) sample through
/// here, so their forward walks cannot drift apart.
#[inline]
pub fn pick_weighted(targets: &[NodeId], cum: &[f64], total: f64, r: f64) -> Option<NodeId> {
    let last = cum.len().checked_sub(1)?;
    let target = r * total;
    targets.get(cum.partition_point(|&c| c <= target).min(last)).copied()
}

/// Per-node alias structure for sampling out-neighbours with probability
/// proportional to `1/|In(target)|`.
#[derive(Clone, Debug)]
pub struct ReverseChainIndex {
    /// Prefix sums of out-edge weights, aligned with the graph's
    /// `out_targets` array: `cum[e]` is the cumulative weight of out-edges
    /// up to and including `e` *within its node's range*.
    cum: Vec<f64>,
    /// Total outflow `W_k` per node.
    total: Vec<f64>,
}

impl ReverseChainIndex {
    /// Builds the index in parallel over nodes; `O(m)` time and space.
    ///
    /// Each node owns the disjoint slice `cum[out_offsets[k]..out_offsets[k+1]]`,
    /// so the fill parallelises by pairing per-node chunks of `cum` with node
    /// ids via an uneven-chunk iterator derived from the offsets.
    pub fn build(graph: &CsrGraph) -> Self {
        let n = graph.node_count() as usize;
        let mut cum = vec![0.0f64; graph.edge_count() as usize];
        let mut total = vec![0.0f64; n];
        let offsets = graph.out_offsets();

        // Carve `cum` into one mutable chunk per node. The chunks are
        // disjoint by construction of CSR offsets.
        let mut chunks: Vec<&mut [f64]> = Vec::with_capacity(n);
        {
            let mut rest: &mut [f64] = &mut cum;
            for k in 0..n {
                let len = (offsets[k + 1] - offsets[k]) as usize;
                let (head, tail) = rest.split_at_mut(len);
                chunks.push(head);
                rest = tail;
            }
        }
        chunks.par_iter_mut().zip(total.par_iter_mut()).enumerate().for_each(|(k, (chunk, tk))| {
            let mut acc = 0.0;
            for (slot, &j) in chunk.iter_mut().zip(graph.out_neighbors(k as NodeId)) {
                let d = graph.in_degree(j);
                debug_assert!(d > 0, "out-edge target must have an in-edge");
                acc += 1.0 / d as f64;
                *slot = acc;
            }
            *tk = acc;
        });
        drop(chunks);
        Self { cum, total }
    }

    /// Total outflow `W_k = Σ_{j∈Out(k)} 1/|In(j)|` for node `k`.
    #[inline]
    pub fn outflow(&self, k: NodeId) -> f64 {
        self.total[k as usize]
    }

    /// Samples an out-neighbour of `k` with probability `∝ 1/|In(j)|`,
    /// given a uniform random `r ∈ [0, 1)`. Returns `None` when `k` has no
    /// out-edges (the walker's mass is dropped, matching the truncated
    /// series: paths that leave the graph contribute nothing).
    #[inline]
    pub fn sample(&self, graph: &CsrGraph, k: NodeId, r: f64) -> Option<NodeId> {
        let lo = graph.out_offsets()[k as usize] as usize;
        let hi = graph.out_offsets()[k as usize + 1] as usize;
        pick_weighted(&graph.out_targets()[lo..hi], &self.cum[lo..hi], self.total[k as usize], r)
    }

    /// Resident bytes, reported alongside graph memory by the dataset table.
    pub fn memory_bytes(&self) -> u64 {
        (self.cum.len() as u64 + self.total.len() as u64) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn outflow_matches_definition() {
        // diamond: 0->1, 0->2, 1->3, 2->3; in-degrees: 1:1, 2:1, 3:2
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let idx = ReverseChainIndex::build(&g);
        assert!((idx.outflow(0) - 2.0).abs() < 1e-12); // 1/1 + 1/1
        assert!((idx.outflow(1) - 0.5).abs() < 1e-12); // 1/2
        assert!((idx.outflow(3) - 0.0).abs() < 1e-12); // no out-edges
    }

    #[test]
    fn sample_respects_weights() {
        // 0 -> 1 (in-deg 1), 0 -> 2 (in-deg 2 via extra edge 3 -> 2)
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (3, 2)]);
        let idx = ReverseChainIndex::build(&g);
        // weights: 1 -> 1.0, 2 -> 0.5 ⇒ P(1) = 2/3, threshold at r = 2/3.
        assert_eq!(idx.sample(&g, 0, 0.0), Some(1));
        assert_eq!(idx.sample(&g, 0, 0.5), Some(1));
        assert_eq!(idx.sample(&g, 0, 0.7), Some(2));
        assert_eq!(idx.sample(&g, 0, 0.999), Some(2));
    }

    #[test]
    fn sample_none_without_out_edges() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let idx = ReverseChainIndex::build(&g);
        assert_eq!(idx.sample(&g, 1, 0.3), None);
    }

    #[test]
    fn sampling_frequencies_approach_weights() {
        let g = generators::barabasi_albert(300, 3, 5);
        let idx = ReverseChainIndex::build(&g);
        // Pick a node with several out-edges and histogram samples.
        let k = (0..300).find(|&k| g.out_degree(k) >= 3).unwrap();
        let outs = g.out_neighbors(k);
        let mut counts = vec![0u32; outs.len()];
        let trials = 200_000;
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..trials {
            // xorshift for test-local uniforms
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let r = (state >> 11) as f64 / (1u64 << 53) as f64;
            let j = idx.sample(&g, k, r).unwrap();
            let pos = outs.iter().position(|&o| o == j).unwrap();
            counts[pos] += 1;
        }
        let w: Vec<f64> = outs.iter().map(|&j| 1.0 / g.in_degree(j) as f64).collect();
        let total: f64 = w.iter().sum();
        for (i, &c) in counts.iter().enumerate() {
            let expected = w[i] / total;
            let observed = c as f64 / trials as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "edge {i}: observed {observed}, expected {expected}"
            );
        }
    }
}
