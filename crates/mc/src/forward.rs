//! Mass-carrying forward walks: the Monte-Carlo estimator of `(Pᵀ)ᵗ y`
//! used by single-source queries.
//!
//! `Pᵀ` is row-stochastic, so `z = (Pᵀ)ᵗ y` can be read as propagating the
//! *measure* `y` forward through `P`: mass at node `k` flows to out-neighbour
//! `j` with weight `1/|In(j)|`, total outflow `W_k = Σ_{j∈Out(k)} 1/|In(j)|`.
//! A walker therefore samples `j ∝ 1/|In(j)|` from the precomputed
//! [`pasco_graph::ReverseChainIndex`] (one binary search — the `log d` in the paper's
//! `O(T²R′ log d)` bound) and multiplies its mass by `W_k`. Walkers whose
//! node has no out-edges drop their mass, matching the exact operator
//! (`(Pᵀ)ᵗ y` assigns nothing through missing edges). That one move is
//! [`forward_step`].
//!
//! A walker's uniforms are a pure function of `(key, step)`, so loop order
//! is free, and [`forward_walk_frontier`] uses that the way the cohort
//! kernel does: the `(position, mass, key)` of every walker launched for one
//! series term sit in one flat frontier, in launch order, and a pass
//! advances them all by one step — independent iterations, so their cache
//! misses overlap — dropping in place those that fall off the graph. The
//! survivors stay in launch order, the order a loop over [`forward_walk_on`]
//! (the per-walker oracle) lands them in, so every floating-point sum a
//! caller accumulates from them is evaluated in the same order, bit for
//! bit. The frontier is deliberately *not* sorted by node: measured, the
//! sort costs more than the locality it buys.

use crate::counts::MassMap;
use crate::rng::SplitMix64;
use pasco_graph::{CsrGraph, ForwardSampler, NodeId};

/// The uniform in `[0, 1)` consumed by a forward walker at its `step`-th
/// move — a pure function of `(key, step)`, so a walk can be resumed on any
/// executor (the RDD engine shuffles walkers mid-walk).
#[inline]
pub fn forward_step_r(key: u64, step: u32) -> f64 {
    let u = SplitMix64::new(key ^ (step as u64).wrapping_mul(0xa076_1d64_78bd_642f)).next_u64();
    (u >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// One move of a mass-carrying walker — its `step`-th, from `pos` — the
/// only spelling of it: `None` when `pos` has no outflow (the mass drops),
/// otherwise the sampled out-neighbour and `mass · W_pos`.
#[inline]
pub fn forward_step<S: ForwardSampler>(
    sampler: &S,
    pos: NodeId,
    mass: f64,
    key: u64,
    step: u32,
) -> Option<(NodeId, f64)> {
    let w = sampler.outflow(pos);
    if w == 0.0 {
        return None;
    }
    let r = forward_step_r(key, step);
    #[allow(
        clippy::expect_used,
        reason = "`outflow(pos) > 0` (checked above) implies at least one out-edge, so the sample \
                  always lands; an error return here would put a branch in the per-step hot loop \
                  for a state the sampler contract rules out"
    )]
    let next = sampler.sample_out(pos, r).expect("outflow > 0 implies out-edges");
    Some((next, mass * w))
}

/// One walker, start to finish: `steps` moves from `start` with initial
/// `mass`; the final `(node, mass)`, or `None` if the walker fell off the
/// graph. The per-walker oracle of [`forward_walk_frontier`].
#[inline]
pub fn forward_walk_on<S: ForwardSampler>(
    sampler: &S,
    start: NodeId,
    mass: f64,
    steps: usize,
    key: u64,
) -> Option<(NodeId, f64)> {
    (1..=steps as u32).try_fold((start, mass), |(pos, m), t| forward_step(sampler, pos, m, key, t))
}

/// A walker on a forward frontier: `(position, mass, key)`.
pub type ForwardWalker = (NodeId, f64, u64);

/// The step-synchronous forward kernel: advances every walker of `frontier`
/// `steps` times, the whole frontier one step per pass. Walkers that fall
/// off the graph are dropped; the rest keep their order.
pub fn forward_walk_frontier<S: ForwardSampler>(
    sampler: &S,
    frontier: &mut Vec<ForwardWalker>,
    steps: usize,
) {
    for t in 1..=steps as u32 {
        frontier.retain_mut(|(pos, mass, key)| {
            let Some(next) = forward_step(sampler, *pos, *mass, *key, t) else { return false };
            (*pos, *mass) = next;
            true
        });
    }
}

/// Exact one-step push of a measure through `P` (`zᵀ = yᵀP`): mass at `k`
/// adds `y_k / |In(j)|` to every out-neighbour `j`; cost grows with the
/// frontier's out-degree sum. LIN's single-source query pushes with it.
pub fn push_measure(graph: &CsrGraph, y: &[(NodeId, f64)]) -> Vec<(NodeId, f64)> {
    let mut acc = MassMap::with_capacity(y.len() * 4 + 16);
    for &(k, yk) in y {
        if yk == 0.0 {
            continue;
        }
        for &j in graph.out_neighbors(k) {
            acc.add(j, yk / graph.in_degree(j) as f64);
        }
    }
    acc.into_sorted_vec()
}

/// Exact one-step *reverse-walk distribution* update `u′ = P u`: probability
/// mass at node `j` splits equally over `In(j)`, i.e. `u′(k) += u(j)/|In(j)|`
/// for every `k ∈ In(j)`. This is the deterministic counterpart of one
/// reverse walk step; the exact baselines (LIN) and the exact diagonal use
/// it to propagate `eᵢ` through `Pᵗ` without sampling.
pub fn reverse_push_measure(graph: &CsrGraph, u: &[(NodeId, f64)]) -> Vec<(NodeId, f64)> {
    let mut acc = MassMap::with_capacity(u.len() * 4 + 16);
    for &(j, uj) in u {
        if uj == 0.0 {
            continue;
        }
        let ins = graph.in_neighbors(j);
        if ins.is_empty() {
            continue; // walkers at dangling nodes die: mass is lost
        }
        let share = uj / ins.len() as f64;
        for &k in ins {
            acc.add(k, share);
        }
    }
    acc.into_sorted_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_matches_hand_computation() {
        // diamond: 0->1, 0->2, 1->3, 2->3. in-degs: 1:1, 2:1, 3:2.
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let z = push_measure(&g, &[(0, 1.0)]);
        assert_eq!(z, vec![(1, 1.0), (2, 1.0)]);
        let z2 = push_measure(&g, &z);
        assert_eq!(z2.len(), 1);
        assert_eq!(z2[0].0, 3);
        assert!((z2[0].1 - 1.0).abs() < 1e-12); // 1.0/2 + 1.0/2
    }

    #[test]
    fn reverse_push_matches_walk_expectation() {
        // diamond: 0->1, 0->2, 1->3, 2->3. From node 3 a reverse walker goes
        // to 1 or 2 with probability 1/2 each, then to 0 with probability 1.
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let u1 = reverse_push_measure(&g, &[(3, 1.0)]);
        assert_eq!(u1, vec![(1, 0.5), (2, 0.5)]);
        let u2 = reverse_push_measure(&g, &u1);
        assert_eq!(u2.len(), 1);
        assert_eq!(u2[0].0, 0);
        assert!((u2[0].1 - 1.0).abs() < 1e-12);
        // Node 0 is dangling: all mass dies at the next step.
        assert!(reverse_push_measure(&g, &u2).is_empty());
    }
}
