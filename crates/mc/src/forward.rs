//! Mass-carrying forward walks: the Monte-Carlo estimator of `(Pᵀ)ᵗ y`
//! used by single-source queries.
//!
//! `Pᵀ` is row-stochastic, so `z = (Pᵀ)ᵗ y` can be read as propagating the
//! *measure* `y` forward through `P`: mass at node `k` flows to out-neighbour
//! `j` with weight `1/|In(j)|`, total outflow `W_k = Σ_{j∈Out(k)} 1/|In(j)|`.
//! A walker therefore samples `j ∝ 1/|In(j)|` from the precomputed
//! [`ReverseChainIndex`] (one binary search — the `log d` in the paper's
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
use pasco_graph::{CsrGraph, ForwardSampler, GraphSampler, NodeId, ReverseChainIndex};

/// The uniform in `[0, 1)` consumed by a forward walker at its `step`-th
/// move — a pure function of `(key, step)`, so a walk can be resumed on any
/// executor (the RDD engine shuffles walkers mid-walk).
#[inline]
pub fn forward_step_r(key: u64, step: u32) -> f64 {
    let u = SplitMix64::new(key ^ (step as u64).wrapping_mul(0xa076_1d64_78bd_642f)).next_u64();
    (u >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Runs one mass-carrying walker for `steps` steps from `start` with
/// initial `mass`. Returns the final `(node, mass)` or `None` if the walker
/// fell off the graph. Randomness is a pure function of `(key, step)`.
#[inline]
pub fn forward_walk(
    graph: &CsrGraph,
    index: &ReverseChainIndex,
    start: NodeId,
    mass: f64,
    steps: usize,
    key: u64,
) -> Option<(NodeId, f64)> {
    forward_walk_on(&GraphSampler::new(graph, index), start, mass, steps, key)
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

/// [`forward_walk`] generic over the sampling source: one walker, start to
/// finish — [`propagate_measure`]'s kernel and the per-walker oracle of
/// [`forward_walk_frontier`].
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

/// Estimates `z = (Pᵀ)ᵗ y` for a sparse measure `y`, spending `walkers`
/// walkers *per support entry* (entry `(k, y_k)` launches walkers of initial
/// mass `y_k / walkers`). Deterministic in `seed`.
///
/// The returned vector is sorted by node id.
pub fn propagate_measure(
    graph: &CsrGraph,
    index: &ReverseChainIndex,
    y: &[(NodeId, f64)],
    steps: usize,
    walkers: u32,
    seed: u64,
) -> Vec<(NodeId, f64)> {
    assert!(walkers > 0);
    if steps == 0 {
        return y.to_vec();
    }
    let mut acc = MassMap::with_capacity(y.len() * walkers as usize / 4 + 16);
    for &(k, yk) in y {
        if yk == 0.0 {
            continue;
        }
        let per = yk / walkers as f64;
        for w in 0..walkers {
            let key = crate::rng::mix(&[seed, k as u64, w as u64, steps as u64]);
            if let Some((node, mass)) = forward_walk(graph, index, k, per, steps, key) {
                acc.add(node, mass);
            }
        }
    }
    acc.into_sorted_vec()
}

/// Exact one-step push of a measure through `P` (`zᵀ = yᵀP`): mass at `k`
/// adds `y_k / |In(j)|` to every out-neighbour `j`. The deterministic
/// alternative to [`propagate_measure`]; cost grows with the frontier's
/// out-degree sum, which is what the ablation A1 measures.
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

/// Applies [`reverse_push_measure`] `steps` times: `u = Pˢ u₀` exactly.
pub fn reverse_push_measure_steps(
    graph: &CsrGraph,
    u0: &[(NodeId, f64)],
    steps: usize,
) -> Vec<(NodeId, f64)> {
    let mut u = u0.to_vec();
    for _ in 0..steps {
        u = reverse_push_measure(graph, &u);
    }
    u
}

/// Applies [`push_measure`] `steps` times.
pub fn push_measure_steps(
    graph: &CsrGraph,
    y: &[(NodeId, f64)],
    steps: usize,
) -> Vec<(NodeId, f64)> {
    let mut z = y.to_vec();
    for _ in 0..steps {
        z = push_measure(graph, &z);
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasco_graph::generators;

    fn total(v: &[(NodeId, f64)]) -> f64 {
        v.iter().map(|&(_, m)| m).sum()
    }

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
    fn push_equals_transpose_matvec_on_cycle() {
        let g = generators::cycle(5);
        // On a cycle all in-degrees are 1; pushing a unit at k moves it to k+1.
        let z = push_measure_steps(&g, &[(2, 1.0)], 3);
        assert_eq!(z, vec![(0, 1.0)]);
    }

    #[test]
    fn mc_propagation_is_unbiased_on_cycle() {
        // Deterministic chain: MC must be exact regardless of walker count.
        let g = generators::cycle(6);
        let idx = ReverseChainIndex::build(&g);
        let z = propagate_measure(&g, &idx, &[(1, 0.5), (4, 0.25)], 2, 3, 9);
        assert_eq!(z, vec![(0, 0.25), (3, 0.5)]);
    }

    #[test]
    fn mc_propagation_approximates_exact_push() {
        let g = generators::barabasi_albert(300, 4, 3);
        let idx = ReverseChainIndex::build(&g);
        let y = vec![(5u32, 1.0)];
        let exact = push_measure_steps(&g, &y, 3);
        let approx = propagate_measure(&g, &idx, &y, 3, 20_000, 77);
        // Compare total mass and a few heavy coordinates.
        assert!((total(&exact) - total(&approx)).abs() < 0.05 * total(&exact).max(1e-9));
        let exact_max =
            exact.iter().cloned().fold((0u32, 0.0f64), |a, b| if b.1 > a.1 { b } else { a });
        let approx_at: f64 =
            approx.iter().find(|&&(n, _)| n == exact_max.0).map(|&(_, m)| m).unwrap_or(0.0);
        assert!(
            (approx_at - exact_max.1).abs() < 0.1 * exact_max.1.max(1e-9),
            "exact {exact_max:?} vs approx {approx_at}"
        );
    }

    #[test]
    fn walkers_drop_mass_at_sinks() {
        // Path graph: node n-1 has no out-edges, so all mass eventually
        // drains once it walks off the end.
        let g = generators::path(3); // 0 -> 1 -> 2
        let idx = ReverseChainIndex::build(&g);
        let z = propagate_measure(&g, &idx, &[(2, 1.0)], 1, 10, 4);
        assert!(z.is_empty());
        let z = propagate_measure(&g, &idx, &[(0, 1.0)], 2, 10, 4);
        assert_eq!(z.len(), 1);
        assert_eq!(z[0].0, 2);
        assert!((z[0].1 - 1.0).abs() < 1e-12);
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

    #[test]
    fn reverse_push_steps_composes() {
        let g = generators::cycle(5);
        let u = reverse_push_measure_steps(&g, &[(0, 1.0)], 3);
        assert_eq!(u, vec![(2, 1.0)]); // (0 - 3) mod 5
    }

    #[test]
    fn zero_steps_returns_input() {
        let g = generators::cycle(4);
        let idx = ReverseChainIndex::build(&g);
        let y = vec![(1u32, 0.7)];
        assert_eq!(propagate_measure(&g, &idx, &y, 0, 5, 1), y);
    }

    #[test]
    fn propagation_is_deterministic_in_seed() {
        let g = generators::rmat(8, 2000, generators::RmatParams::default(), 5);
        let idx = ReverseChainIndex::build(&g);
        let y = vec![(3u32, 1.0), (100, 2.0)];
        let a = propagate_measure(&g, &idx, &y, 4, 50, 123);
        let b = propagate_measure(&g, &idx, &y, 4, 50, 123);
        assert_eq!(a, b);
    }
}
