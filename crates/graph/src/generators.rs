//! Synthetic graph generators.
//!
//! The paper evaluates on five real web/social graphs; this reproduction
//! substitutes seeded synthetic models with matched size and skew (see
//! [`crate::datasets`] and README's "Paper vs this repo"). All generators
//! are deterministic in their `seed`.

use crate::csr::{CsrGraph, NodeId};
use crate::GraphBuilder;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
// Generators use BTreeSet (never HashSet) for edge dedup and endpoint
// picks: ordered collections make "deterministic in seed" structural,
// where hasher order once leaked into the endpoints list (PR 1).
use std::collections::BTreeSet;

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct directed edges chosen
/// uniformly at random (no self loops).
///
/// # Panics
/// Panics if `m` exceeds the number of possible edges `n·(n−1)`.
pub fn erdos_renyi(n: u32, m: u64, seed: u64) -> CsrGraph {
    assert!(n >= 2 || m == 0, "need at least two nodes for edges");
    let possible = n as u64 * (n as u64 - 1);
    assert!(m <= possible, "m={m} exceeds possible edge count {possible}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    let mut b = GraphBuilder::with_capacity(n, m as usize);
    b.ensure_nodes(n);
    while (seen.len() as u64) < m {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v && seen.insert((u, v)) {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Barabási–Albert preferential attachment with `m_per_node` out-edges per
/// arriving node, directed **new → old** so early nodes accumulate large
/// in-degree — the shape of the paper's wiki-vote graph, where SimRank's
/// in-link walks concentrate on a few hubs.
pub fn barabasi_albert(n: u32, m_per_node: u32, seed: u64) -> CsrGraph {
    assert!(m_per_node >= 1, "m_per_node must be positive");
    assert!(n > m_per_node, "need more nodes than edges per node");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, (n as usize) * m_per_node as usize);
    b.ensure_nodes(n);
    // Repeated-endpoint list: node k appears once per incident edge endpoint,
    // so sampling uniformly from it is preferential attachment.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n as usize * m_per_node as usize);
    // Seed clique over the first m_per_node + 1 nodes.
    let seed_n = m_per_node + 1;
    for u in 0..seed_n {
        for v in 0..seed_n {
            if u != v {
                b.add_edge(u, v);
                endpoints.push(u);
                endpoints.push(v);
            }
        }
    }
    for u in seed_n..n {
        let mut chosen: BTreeSet<NodeId> = BTreeSet::new();
        while chosen.len() < m_per_node as usize {
            let v = endpoints[rng.random_range(0..endpoints.len())];
            if v != u {
                chosen.insert(v);
            }
        }
        // The endpoints list feeds later sampling, so the drain order
        // below is part of the seed contract: BTreeSet iterates sorted,
        // byte-identical to the HashSet-plus-sort this replaced (hasher
        // order leaking in here was the PR 1 determinism bug).
        for v in chosen {
            b.add_edge(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    b.build()
}

/// Parameters of the R-MAT recursive quadrant model.
#[derive(Clone, Copy, Debug)]
pub struct RmatParams {
    /// Probability of the (0,0) quadrant. The classic skew is `a = 0.57`.
    pub a: f64,
    /// Probability of the (0,1) quadrant.
    pub b: f64,
    /// Probability of the (1,0) quadrant.
    pub c: f64,
    /// Noise added per level to avoid degenerate staircases.
    pub noise: f64,
}

impl Default for RmatParams {
    fn default() -> Self {
        // Graph500-style parameters: heavy-tailed in/out degrees resembling
        // the twitter-2010 / clue-web crawls used in the paper.
        Self { a: 0.57, b: 0.19, c: 0.19, noise: 0.05 }
    }
}

/// R-MAT / Kronecker generator: `2^scale` nodes, `m` sampled edges
/// (duplicates collapse in CSR, so the final edge count is slightly below
/// `m` — the actual count is reported by [`CsrGraph::edge_count`]).
pub fn rmat(scale: u32, m: u64, params: RmatParams, seed: u64) -> CsrGraph {
    assert!((1..31).contains(&scale), "scale out of range");
    let n: u32 = 1 << scale;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, m as usize);
    b.ensure_nodes(n);
    let RmatParams { a, b: pb, c, noise } = params;
    for _ in 0..m {
        let (mut u, mut v) = (0u32, 0u32);
        for level in 0..scale {
            // Per-level multiplicative noise keeps the degree sequence
            // smooth, as in the Graph500 reference implementation.
            let jitter = 1.0 + noise * (2.0 * rng.random::<f64>() - 1.0);
            let aa = a * jitter;
            let bb = pb * jitter;
            let cc = c * jitter;
            let total = aa + bb + cc + (1.0 - a - pb - c) * jitter;
            let r = rng.random::<f64>() * total;
            let bit = 1u32 << (scale - 1 - level);
            if r < aa {
                // upper-left: no bits set
            } else if r < aa + bb {
                v |= bit;
            } else if r < aa + bb + cc {
                u |= bit;
            } else {
                u |= bit;
                v |= bit;
            }
        }
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Directed Watts–Strogatz small world: each node points at its `k`
/// successors on a ring; each edge is rewired to a random target with
/// probability `beta`.
pub fn watts_strogatz(n: u32, k: u32, beta: f64, seed: u64) -> CsrGraph {
    assert!(k >= 1 && k < n, "k must be in [1, n)");
    assert!((0.0..=1.0).contains(&beta), "beta must be a probability");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, (n * k) as usize);
    b.ensure_nodes(n);
    for u in 0..n {
        for j in 1..=k {
            let v = if rng.random::<f64>() < beta {
                // Rewire anywhere except to self.
                let mut v = rng.random_range(0..n - 1);
                if v >= u {
                    v += 1;
                }
                v
            } else {
                (u + j) % n
            };
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Complete directed graph on `n` nodes (no self loops). On this graph
/// SimRank has a closed form, used heavily in tests.
pub fn complete(n: u32) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, (n as usize) * (n as usize - 1));
    for u in 0..n {
        for v in 0..n {
            if u != v {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// Directed cycle `0 → 1 → … → n−1 → 0`. Every node has in-degree 1, so
/// reverse walks are deterministic — another analytic test case.
pub fn cycle(n: u32) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, n as usize);
    for u in 0..n {
        b.add_edge(u, (u + 1) % n);
    }
    b.build()
}

/// In-star: every leaf `1..n` points at the hub `0`, so the hub has
/// in-degree `n−1` while every leaf is dangling (in-degree 0) — makes
/// dangling-node handling observable in walk tests.
pub fn star(n: u32) -> CsrGraph {
    assert!(n >= 2);
    let mut b = GraphBuilder::with_capacity(n, n as usize - 1);
    for u in 1..n {
        b.add_edge(u, 0);
    }
    b.build()
}

/// Directed path `0 → 1 → … → n−1`; node 0 is dangling for reverse walks.
pub fn path(n: u32) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, n as usize);
    b.ensure_nodes(n);
    for u in 0..n.saturating_sub(1) {
        b.add_edge(u, u + 1);
    }
    b.build()
}

/// Two dense ER communities of `n/2` nodes bridged by `bridges` random
/// cross edges — a classic recommender-style scenario where within-community
/// SimRank should dominate across-community SimRank.
pub fn two_communities(n: u32, intra_m: u64, bridges: u64, seed: u64) -> CsrGraph {
    assert!(n >= 4, "need at least 4 nodes");
    let half = n / 2;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, (2 * intra_m + bridges) as usize);
    b.ensure_nodes(n);
    let mut seen = BTreeSet::new();
    let add_unique = |b: &mut GraphBuilder,
                      rng: &mut StdRng,
                      seen: &mut BTreeSet<(u32, u32)>,
                      lo: u32,
                      hi: u32,
                      lo2: u32,
                      hi2: u32,
                      count: u64| {
        let mut added = 0;
        while added < count {
            let u = rng.random_range(lo..hi);
            let v = rng.random_range(lo2..hi2);
            if u != v && seen.insert((u, v)) {
                b.add_edge(u, v);
                added += 1;
            }
        }
    };
    add_unique(&mut b, &mut rng, &mut seen, 0, half, 0, half, intra_m);
    add_unique(&mut b, &mut rng, &mut seen, half, n, half, n, intra_m);
    add_unique(&mut b, &mut rng, &mut seen, 0, half, half, n, bridges / 2);
    add_unique(&mut b, &mut rng, &mut seen, half, n, 0, half, bridges - bridges / 2);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn er_exact_edge_count_and_determinism() {
        let g1 = erdos_renyi(100, 500, 9);
        let g2 = erdos_renyi(100, 500, 9);
        assert_eq!(g1.edge_count(), 500);
        assert_eq!(g1, g2);
        let g3 = erdos_renyi(100, 500, 10);
        assert_ne!(g1, g3);
    }

    #[test]
    fn er_no_self_loops() {
        let g = erdos_renyi(50, 300, 3);
        assert!(g.edges().all(|(u, v)| u != v));
    }

    #[test]
    fn ba_degree_skew() {
        let g = barabasi_albert(2000, 4, 1);
        assert_eq!(g.node_count(), 2000);
        // Every non-seed node contributes m_per_node out-edges.
        assert!(g.edge_count() >= 4 * (2000 - 5) as u64);
        // Preferential attachment should give the seed nodes much higher
        // in-degree than the median node.
        let mut in_degs: Vec<u32> = g.nodes().map(|v| g.in_degree(v)).collect();
        in_degs.sort_unstable();
        let median = in_degs[1000];
        let max = *in_degs.last().unwrap();
        assert!(max > 10 * median.max(1), "max={max} median={median}");
    }

    #[test]
    fn rmat_is_deterministic_and_skewed() {
        let g = rmat(12, 40_000, RmatParams::default(), 7);
        assert_eq!(g.node_count(), 4096);
        assert_eq!(g, rmat(12, 40_000, RmatParams::default(), 7));
        let max_in = g.nodes().map(|v| g.in_degree(v)).max().unwrap();
        let mean_in = g.edge_count() as f64 / g.node_count() as f64;
        assert!(max_in as f64 > 8.0 * mean_in, "max_in={max_in} mean={mean_in}");
    }

    #[test]
    fn ws_out_degree_constant() {
        let g = watts_strogatz(100, 4, 0.1, 5);
        // Rewiring can collide with an existing edge and collapse; allow a
        // small deficit.
        assert!(g.edge_count() >= 390 && g.edge_count() <= 400);
        assert!(g.nodes().all(|u| g.out_degree(u) <= 4));
    }

    #[test]
    fn toys_have_expected_shape() {
        let g = complete(5);
        assert_eq!(g.edge_count(), 20);
        assert!(g.nodes().all(|v| g.in_degree(v) == 4 && g.out_degree(v) == 4));

        let g = cycle(6);
        assert!(g.nodes().all(|v| g.in_degree(v) == 1 && g.out_degree(v) == 1));

        let g = star(5);
        assert_eq!(g.in_degree(0), 4);
        assert!((1..5).all(|v| g.is_dangling(v)));

        let g = path(4);
        assert!(g.is_dangling(0));
        assert_eq!(g.in_degree(3), 1);
        assert_eq!(g.out_degree(3), 0);
    }

    #[test]
    fn two_communities_bridge_count() {
        let g = two_communities(100, 400, 10, 2);
        let cross = g.edges().filter(|&(u, v)| (u < 50) != (v < 50)).count();
        assert_eq!(cross, 10);
        assert_eq!(g.edge_count(), 810);
    }
}
