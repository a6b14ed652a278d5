//! Embarrassingly parallel batch drivers for walk simulation.
//!
//! The offline phase simulates a cohort from *every* node — the "generate
//! `aᵢ` by Monte Carlo simulation, in parallel" step of the paper. Work is
//! data-parallel over source nodes; determinism is preserved because each
//! cohort's randomness is keyed by `(seed, source, walker, step)` and never
//! by the executing thread. Each cohort runs on its thread's scratch
//! ([`reverse_walk_distributions`]), so a batch of tiny cohorts pays the
//! kernel's set-up once per thread, not per cohort.

use crate::walks::{reverse_walk_distributions, StepDistributions, WalkParams};
use pasco_graph::{CsrGraph, NodeId};
use rayon::prelude::*;

/// Simulates cohorts from every node in `sources`, in parallel.
pub fn batch_distributions(
    graph: &CsrGraph,
    sources: &[NodeId],
    params: WalkParams,
    seed: u64,
) -> Vec<StepDistributions> {
    sources.par_iter().map(|&s| reverse_walk_distributions(graph, s, params, seed)).collect()
}

/// Applies `f` to the cohort of every node `0..n` in parallel, collecting
/// the per-node results in node order. Streaming (`fold`-style) alternative
/// to materialising all [`StepDistributions`] at once: the distributions for
/// node `v` live only as long as `f`'s activation.
pub fn map_all_nodes<R, F>(graph: &CsrGraph, params: WalkParams, seed: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(NodeId, StepDistributions) -> R + Sync,
{
    (0..graph.node_count())
        .into_par_iter()
        .map(|v| f(v, reverse_walk_distributions(graph, v, params, seed)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walks::reverse_walk_distributions;
    use pasco_graph::generators;

    #[test]
    fn batch_matches_individual_runs() {
        let g = generators::barabasi_albert(120, 3, 2);
        let params = WalkParams::new(5, 20);
        let batch = batch_distributions(&g, &[3, 50, 99], params, 8);
        for (i, &s) in [3u32, 50, 99].iter().enumerate() {
            let solo = reverse_walk_distributions(&g, s, params, 8);
            assert_eq!(batch[i], solo, "source {s}");
        }
    }

    #[test]
    fn map_all_nodes_is_in_node_order_and_deterministic() {
        let g = generators::cycle(50);
        let params = WalkParams::new(3, 4);
        let ends: Vec<NodeId> = map_all_nodes(&g, params, 1, |_, d| d.counts[3][0].0);
        // Cycle reverse walk: after 3 steps from v you are at (v - 3) mod n.
        for (v, &e) in ends.iter().enumerate() {
            assert_eq!(e, ((v as u32) + 50 - 3) % 50);
        }
        let again: Vec<NodeId> = map_all_nodes(&g, params, 1, |_, d| d.counts[3][0].0);
        assert_eq!(ends, again);
    }
}
